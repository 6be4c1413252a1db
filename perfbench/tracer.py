"""Span tracing of threepage's layers from outside the package.

``Tracer.install`` replaces each traced public function with a wrapper that
records a span (name, start, end, parent span, operation).  The wrapper is
bound wherever the original is: in the defining module and in every
threepage module that imported the name, so internal calls are traced too.
``uninstall`` puts the originals back.

Self time is computed as spans close: a span's duration minus the time its
child spans cover.  Spans stay in memory and are written out on request.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

from threepage import diagram, invariants, laurent, presentation, search, torus

#: (span name, owner, attribute).  One span name may cover several functions.
TRACED = (
    ("search.enumerate", search, "enumerate_presentations"),
    ("presentation.validate", presentation, "validate"),
    ("presentation.is_canonical", presentation, "is_canonical"),
    ("presentation.components", presentation, "components"),
    ("diagram.project", diagram, "project"),
    ("diagram.trace", diagram, "trace"),
    ("diagram.abs_linking_multiset", diagram, "abs_linking_multiset"),
    ("diagram.braid_closure", diagram, "braid_closure_diagram"),
    ("invariants.profile", invariants, "profile"),
    ("invariants.jones_set", invariants, "jones_set"),
    ("invariants.bracket_skein", invariants, "bracket_skein"),
    ("invariants.equal_up_to_mirror", invariants, "equal_up_to_mirror"),
    ("laurent.mul", laurent.LaurentPoly, "__mul__"),
    ("laurent.add", laurent.LaurentPoly, "__add__"),
    ("torus.construct", torus, "tnn"),
    ("torus.construct", torus, "tpq"),
    ("torus.construct", torus, "tpq_tight"),
)


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    #: calls that returned True (for the predicates)
    true_returns: int = 0
    #: items yielded (for generators)
    emitted: int = 0
    #: largest diagram seen (for bracket_skein)
    crossings_max: int = 0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = sorted({name for name, _, _ in TRACED})
        self.stats = {name: SpanStats() for name in self.names}
        self._name_id = {name: k for k, name in enumerate(self.names)}
        # one entry per span, by span id
        self._span_name = array("i")
        self._span_parent = array("q")
        self._span_op = array("q")
        self._span_start = array("d")
        self._span_end = array("d")
        # open spans: [span id, child time]
        self._stack: list[list] = []
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin_op(self) -> None:
        """Start a new operation; later spans carry its id."""
        self._op += 1

    def _enter(self, name: str) -> None:
        sid = len(self._span_start)
        self._span_name.append(self._name_id[name])
        self._span_parent.append(self._stack[-1][0] if self._stack else -1)
        self._span_op.append(self._op)
        self._span_end.append(0.0)
        self._stack.append([sid, 0.0])
        self._span_start.append(time.perf_counter())

    def _exit(self, name: str) -> SpanStats:
        end = time.perf_counter()
        sid, child = self._stack.pop()
        self._span_end[sid] = end
        duration = end - self._span_start[sid]
        st = self.stats[name]
        st.calls += 1
        st.self_s += duration - child
        if self._stack:
            self._stack[-1][1] += duration
        return st

    def _wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    tracer._enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer._exit(name)
                        return
                    except BaseException:
                        tracer._exit(name)
                        raise
                    tracer._exit(name).emitted += 1
                    yield item
            return gen_wrapper

        skein = name == "invariants.bracket_skein"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                st = tracer._exit(name)
            if result is True:
                st.true_returns += 1
            if skein:
                st.crossings_max = max(st.crossings_max, len(args[0].crossings))
            return result
        return wrapper

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Bind a wrapper in place of every reference to a traced function."""
        modules = [m for key, m in sys.modules.items()
                   if key == "threepage" or key.startswith("threepage.")]
        for name, owner, attr in TRACED:
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is original:
                        self._saved.append((holder, key, original))
                        setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._saved):
            setattr(holder, key, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output ------------------------------------------------------------

    def span_count(self) -> int:
        return len(self._span_start)

    def write_spans(self, path: Path) -> None:
        """One tab-separated line per span: id, parent, op, name, start, end
        (seconds on the perf_counter clock)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tparent\top\tname\tstart\tend\n")
            for sid in range(len(self._span_start)):
                f.write(f"{sid}\t{self._span_parent[sid]}\t{self._span_op[sid]}\t"
                        f"{self.names[self._span_name[sid]]}\t"
                        f"{self._span_start[sid]:.9f}\t{self._span_end[sid]:.9f}\n")

