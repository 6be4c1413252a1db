"""Command-line front end.

Subcommands: validate, components, construct, bounds, invariants, diagram,
search, census, render, braid.  Presentations are read from a file or stdin
("-"), one per line, in the native text format or its JSON mirror.

Exit codes: 0 success, 1 domain error (invalid presentation, unmet
precondition, failed verification), 2 usage or syntax error.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from typing import Iterator, Optional, TextIO

from . import __version__
from .braids import (BraidWord, cycle_count, exponent_sum, format_word,
                     parse_word, permutation)
from .diagram import braid_closure_diagram, pd_export, project, trace
from .invariants import (CrossingLimitError, _jones_set, bracket_skein,
                         equal_up_to_mirror, profile)
from .laurent import in_t_variable, poly_sort_key
from .presentation import (InvalidPresentationError, ParseError,
                           ThreePagePresentation, components,
                           detect_split_pair, parse)
from .render import RenderSpec, render
from .search import census, census_text, refute_t33_at_9, three_page_index
from .torus import bounds, closure_profile, normalize, tpq, tpq_tight

USAGE_ERROR = 2
DOMAIN_ERROR = 1
MAX_N_VAR = "THREEPAGE_MAX_N"
DEFAULT_MAX_N = 10


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _check_search_size(n: int) -> None:
    """Reject a search on n points beyond the limit that MAX_N_VAR sets
    (DEFAULT_MAX_N when it is unset or empty); a limit that is not a
    positive integer is a usage error."""
    env = os.environ.get(MAX_N_VAR) or str(DEFAULT_MAX_N)
    try:
        limit = int(env)
    except ValueError:
        limit = 0
    if limit < 1:
        raise CliError(f"{MAX_N_VAR} must be a positive integer, got {env!r}",
                       USAGE_ERROR)
    if n > limit:
        raise CliError(f"n={n} exceeds the search limit {limit} "
                       f"(set {MAX_N_VAR} to raise it)", DOMAIN_ERROR)


def _parse_word(text: str, strands: int) -> BraidWord:
    """``parse_word`` for an option value; a word it rejects is a syntax error."""
    try:
        return parse_word(text, strands)
    except ValueError as exc:
        raise CliError(str(exc), USAGE_ERROR) from exc


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}", USAGE_ERROR) from exc


@contextmanager
def _output(path: str) -> Iterator[TextIO]:
    """The file at path, opened for writing; a failure to open or write it
    is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", USAGE_ERROR) from exc


def _read_presentations(path: str,
                        ) -> list[ThreePagePresentation | InvalidPresentationError]:
    """Each input line as a presentation, or as the error rejecting it as
    invalid; a malformed line anywhere is a usage error."""
    lines = [ln for ln in _read_text(path).splitlines() if ln.strip()]
    if not lines:
        raise CliError("no presentations in input", USAGE_ERROR)
    out: list[ThreePagePresentation | InvalidPresentationError] = []
    for ln in lines:
        try:
            out.append(parse(ln))
        except InvalidPresentationError as exc:
            out.append(exc)
        except ParseError as exc:
            raise CliError(f"parse error: {exc}", USAGE_ERROR) from exc
    return out


def _read_one(path: str) -> ThreePagePresentation:
    """The first presentation of the input; every line must be valid."""
    items = _read_presentations(path)
    for item in items:
        if isinstance(item, InvalidPresentationError):
            raise item
    return items[0]


def cmd_validate(args: argparse.Namespace) -> int:
    failures = 0
    for k, item in enumerate(_read_presentations(args.input), start=1):
        if isinstance(item, InvalidPresentationError):
            failures += 1
            print(f"line {k}: INVALID")
            for v in item.report.violations:
                print(f"  - {v}")
        else:
            note = " (contains a split pair)" if detect_split_pair(item) else ""
            print(f"line {k}: ok{note}")
    return DOMAIN_ERROR if failures else 0


def cmd_components(args: argparse.Namespace) -> int:
    pres = _read_one(args.input)
    walks = components(pres)
    print(f"components={len(walks)}")
    for walk in walks:
        arcs = " ".join(f"P{page + 1}:{min(x, y)}-{max(x, y)}" for x, page, y in walk)
        print(f"  points {'-'.join(str(x) for x, _, _ in walk)}: {arcs}")
    return 0


def cmd_construct(args: argparse.Namespace) -> int:
    if args.family == "tnn":
        if args.n is None:
            raise CliError("construct tnn requires --n", USAGE_ERROR)
        if args.p is not None or args.q is not None:
            raise CliError("construct tnn takes --n, not --p or --q", USAGE_ERROR)
        if args.n < 2:
            raise CliError(f"construct tnn needs --n >= 2, got {args.n}",
                           DOMAIN_ERROR)
        p = q = args.n
    else:
        if args.p is None or args.q is None:
            raise CliError("construct tpq requires --p and --q", USAGE_ERROR)
        if args.n is not None:
            raise CliError("construct tpq takes --p and --q, not --n", USAGE_ERROR)
        p, q, mirrored = normalize(args.p, args.q)
        if mirrored:
            print(f"note: ({args.p},{args.q}) normalised to "
                  f"({p},{q}) up to mirror", file=sys.stderr)
    pres = tpq_tight(p, q) if args.tight else tpq(p, q)
    print(pres.serialize())
    if args.verify:
        ok = equal_up_to_mirror(profile(pres), closure_profile(p, q))
        print(f"verification: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else DOMAIN_ERROR
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    p, q, mirrored = normalize(args.p, args.q)
    rep = bounds(p, q)
    print(f"torus link ({p},{q})"
          + (" [mirrored input]" if mirrored else ""))
    print(f"  arc_index      = {rep.arc_index}")
    print(f"  bridge_bound   = {rep.bridge_bound}   (3 * bridge number)")
    print(f"  upper_general  = {rep.upper_general}")
    if rep.upper_tight is not None:
        print(f"  upper_tight    = {rep.upper_tight}")
    if rep.exact is not None:
        print(f"  exact          = {rep.exact}")
    return 0


def cmd_invariants(args: argparse.Namespace) -> int:
    pres = _read_one(args.input)
    d = project(pres)
    tr = trace(d)
    bracket = bracket_skein(d)
    jones = sorted(_jones_set(tr, bracket), key=poly_sort_key)
    base = (False,) * tr.component_count
    print(f"components = {tr.component_count}")
    print(f"crossings  = {len(d.crossings)}")
    print(f"writhe(base orientation) = {tr.writhe(base)}")
    print("linking matrix (base orientation):")
    for row in tr.linking_matrix(base):
        print("  " + " ".join(f"{v:3d}" for v in row))
    print(f"|lk| multiset = {list(tr.abs_linking())}")
    print(f"bracket = {bracket}")
    fmt, var = (in_t_variable, "t") if args.t_variable else (str, "A")
    print(f"jones ({var} variable), all orientations:")
    for poly in jones:
        print(f"  {fmt(poly)}")
    return 0


def cmd_diagram(args: argparse.Namespace) -> int:
    pres = _read_one(args.input)
    sys.stdout.write(pd_export(project(pres)))
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    if args.n_max < 3:
        raise CliError(f"--n-max must be at least 3, the smallest arc count of "
                       f"a presentation, got {args.n_max}", USAGE_ERROR)
    if args.target_braid is None and args.target_file is None:
        raise CliError("search needs --target-braid or --target-file", USAGE_ERROR)
    if args.target_braid is not None and args.target_file is not None:
        raise CliError("give --target-braid or --target-file, not both",
                       USAGE_ERROR)
    if args.strands is not None and args.target_braid is None:
        raise CliError("--strands goes with --target-braid, not --target-file",
                       USAGE_ERROR)
    if args.target_braid is not None and args.strands is None:
        raise CliError("--target-braid requires --strands", USAGE_ERROR)
    _check_search_size(args.n_max)
    if args.target_braid is not None:
        target = profile(braid_closure_diagram(
            _parse_word(args.target_braid, args.strands)))
    else:
        target = profile(_read_one(args.target_file))
    print(three_page_index(target, args.n_max))
    return 0


def cmd_census(args: argparse.Namespace) -> int:
    _check_search_size(args.n)
    if args.n < 1:
        raise CliError("n must be positive", DOMAIN_ERROR)
    if args.out:
        with _output(args.out) as fh:
            entries = census(args.n)
            fh.write(census_text(entries))
        print(f"{len(entries)} entries -> {args.out}")
    else:
        sys.stdout.write(census_text(census(args.n)))
    return 0


def cmd_refute(args: argparse.Namespace) -> int:
    _check_search_size(9)
    report = refute_t33_at_9()
    print(f"examined {report.examined} presentations on 9 points "
          f"(3 components x 3 arcs, all pages of 3 arcs)")
    print(f"linking-compatible candidates: {report.linking_candidates}")
    if report.refuted:
        print("no presentation matches the (3,3)-torus link profile")
    else:
        for w in report.witnesses:
            print(f"WITNESS: {w}")
    return 0 if report.refuted else DOMAIN_ERROR


def cmd_render(args: argparse.Namespace) -> int:
    pres = _read_one(args.input)
    spec = RenderSpec(format=args.format, scale=args.scale,
                      labels=not args.no_labels)
    text = render(pres, spec)
    if args.out:
        with _output(args.out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_braid(args: argparse.Namespace) -> int:
    word = _parse_word(args.word, args.strands)
    print(f"word = {format_word(word) or '(empty)'} on {word.strands} strands")
    print(f"permutation = {list(permutation(word))}")
    print(f"closure components = {cycle_count(word)}")
    print(f"exponent sum = {exponent_sum(word)}")
    if args.invariants or args.diagram:
        closure = braid_closure_diagram(word)
    if args.invariants:
        print(f"closure profile: {profile(closure)}")
    if args.diagram:
        sys.stdout.write(pd_export(closure))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="threepage",
        description="Three-page link presentations: construction, invariants, census.")
    ap.add_argument("--version", action="version", version=f"threepage {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", nargs="?", default="-",
                       help="presentation file, or - for stdin (default)")

    p = sub.add_parser("validate", help="check presentation invariants")
    add_input(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("components", help="link components of a presentation")
    add_input(p)
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("construct", help="emit a torus-link presentation")
    p.add_argument("family", choices=("tnn", "tpq"))
    p.add_argument("--n", type=int, help="parameter for tnn")
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--tight", action="store_true",
                   help="use the 2p+2q-3 construction (needs q >= 2p)")
    p.add_argument("--verify", action="store_true",
                   help="compare against the closed torus braid")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("bounds", help="arc-count bounds for a torus link")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("invariants", help="profile of a presentation")
    add_input(p)
    p.add_argument("--t-variable", action="store_true",
                   help="print Jones polynomials in t instead of A")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("diagram", help="export the projected diagram (PD text)")
    add_input(p)
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("search", help="exact three-page index by exhaustion")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--target-braid", help="braid word, e.g. 's1 s1 s1'")
    p.add_argument("--strands", type=int)
    p.add_argument("--target-file", help="presentation whose link is the target")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("census", help="full canonical census for one n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", help="write to file instead of stdout")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("refute-t33", help="exhaustive 9-point check against T(3,3)")
    p.set_defaults(func=cmd_refute)

    p = sub.add_parser("render", help="draw a presentation (SVG or ASCII)")
    add_input(p)
    p.add_argument("--format", choices=("svg", "ascii"), default="svg")
    p.add_argument("--scale", type=float, default=40.0)
    p.add_argument("--no-labels", action="store_true")
    p.add_argument("--out", "-o")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("braid", help="braid word bookkeeping and closure data")
    p.add_argument("--strands", type=int, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--invariants", action="store_true")
    p.add_argument("--diagram", action="store_true")
    p.set_defaults(func=cmd_braid)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (CrossingLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
