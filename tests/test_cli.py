import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from threepage.cli import main
from threepage.torus import HOPF, tnn, tpq, tpq_tight


def run(argv, stdin_text=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects malformed flags
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_construct_tnn_2_verify(monkeypatch):
    code, out, _ = run(["construct", "tnn", "--n", "2", "--verify"])
    assert code == 0
    assert out.splitlines()[0] == HOPF.serialize()
    assert "verification: PASS" in out


def test_construct_tpq_tight_verify(monkeypatch):
    code, out, _ = run(["construct", "tpq", "--p", "2", "--q", "4",
                        "--tight", "--verify"])
    assert code == 0 and "verification: PASS" in out


def test_construct_normalises_parameters(monkeypatch):
    code, out, err = run(["construct", "tpq", "--p", "-3", "--q", "2", "--verify"])
    assert code == 0
    assert "normalised to (2,3)" in err
    assert "verification: PASS" in out


def test_construct_rejects_the_other_familys_parameters():
    for argv, message in (
            (["tnn", "--n", "3", "--p", "5"], "construct tnn takes --n, not --p or --q"),
            (["tnn", "--n", "3", "--q", "5"], "construct tnn takes --n, not --p or --q"),
            (["tpq", "--p", "2", "--q", "3", "--n", "9"],
             "construct tpq takes --p and --q, not --n")):
        code, out, err = run(["construct"] + argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


def test_construct_tnn_names_n_below_two():
    for n in ("0", "1", "-3"):
        code, out, err = run(["construct", "tnn", "--n", n])
        assert (code, out, err) == (
            1, "", f"error: construct tnn needs --n >= 2, got {n}\n"), n


def test_construct_tnn_tight_is_out_of_the_tight_range():
    code, out, err = run(["construct", "tnn", "--n", "3", "--tight"])
    assert (code, out) == (1, "")
    assert err == "error: need 2 <= p and 2p <= q, got p=3, q=3\n"


def test_bounds_table(monkeypatch):
    code, out, _ = run(["bounds", "--p", "2", "--q", "5"])
    assert code == 0
    assert "upper_tight    = 11" in out
    assert "arc_index      = 7" in out


def test_validate_ok_and_split_note(monkeypatch):
    code, out, _ = run(["validate", "-"],
                       stdin_text=HOPF.serialize() + "\n", monkeypatch=monkeypatch)
    assert code == 0 and "line 1: ok" in out
    code, out, _ = run(["validate", "-"],
                       stdin_text="n=4; P1:1-2; P2:1-2,3-4; P3:3-4\n",
                       monkeypatch=monkeypatch)
    assert code == 0 and "split pair" in out


def test_validate_checks_each_line_once(monkeypatch):
    from threepage import cli, presentation

    calls = []
    real_validate = presentation.validate

    def counting_validate(p):
        calls.append(p)
        return real_validate(p)

    # parse checks each line; the command reads the verdict from parse alone
    assert not hasattr(cli, "validate")
    monkeypatch.setattr(presentation, "validate", counting_validate)
    lines = [HOPF.serialize(), "n=4; P1:1-2; P2:1-2,3-4; P3:3-4",
             "n=3; P1:1-2; P2:2-3; P3:1-3", "n=4; P1:1-3,2-4; P2:1-2; P3:3-4"]
    code, out, _ = run(["validate", "-"], stdin_text="\n".join(lines),
                       monkeypatch=monkeypatch)
    assert code == 1 and out.count(": ok") == 3 and "line 4: INVALID" in out
    assert len(calls) == len(lines)


def test_validate_reports_a_repeated_arc(monkeypatch):
    code, out, _ = run(["validate", "-"],
                       stdin_text="n=3; P1:1-2,2-1; P2:2-3; P3:1-3\n",
                       monkeypatch=monkeypatch)
    assert code == 1
    assert out == ("line 1: INVALID\n"
                   "  - arcs (1, 2) and (1, 2) share point 1 on page P1\n"
                   "  - point 1 meets 3 arcs (expected 2)\n"
                   "  - point 2 meets 3 arcs (expected 2)\n")


def test_validate_invalid_is_domain_error(monkeypatch):
    code, out, _ = run(["validate", "-"],
                       stdin_text="n=4; P1:1-3,2-4; P2:1-2; P3:3-4\n",
                       monkeypatch=monkeypatch)
    assert code == 1 and "INVALID" in out


INTERLEAVED = "n=4; P1:1-3,2-4; P2:1-2; P3:3-4"


@pytest.mark.parametrize("command", ["invariants", "diagram", "components",
                                     "render"])
def test_invalid_presentation_is_domain_error(monkeypatch, command):
    code, out, err = run([command, "-"], stdin_text=INTERLEAVED + "\n",
                         monkeypatch=monkeypatch)
    assert (code, out, err) == (
        1, "", "error: arcs (1, 3) and (2, 4) interleave on page P1\n")


def test_single_input_command_rejects_a_later_invalid_line(monkeypatch):
    # every line is checked where it is parsed, not only the one used
    text = f"{HOPF.serialize()}\n{INTERLEAVED}\n"
    code, out, err = run(["invariants", "-"], stdin_text=text,
                         monkeypatch=monkeypatch)
    assert (code, out, err) == (
        1, "", "error: arcs (1, 3) and (2, 4) interleave on page P1\n")
    # a malformed line is still a usage error, wherever it is
    code, out, err = run(["invariants", "-"],
                         stdin_text=f"{INTERLEAVED}\nn=3; P1:1-9; P2:2-3; P3:1-3\n",
                         monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert err.startswith("error: parse error on line 2: ")


def test_malformed_input_is_usage_error(monkeypatch):
    code, _, err = run(["validate", "-"], stdin_text="n=3; P1:1-9; P2:2-3; P3:1-3\n",
                       monkeypatch=monkeypatch)
    assert code == 2
    assert err.startswith("error: parse error on line 1: ")
    # a malformed line after valid and invalid ones: nothing is printed
    text = f"{HOPF.serialize()}\n{INTERLEAVED}\nn=3; P1:1-9; P2:2-3; P3:1-3\n"
    code, out, err = run(["validate", "-"], stdin_text=text, monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert err.startswith("error: parse error on line 3: ")


def test_validate_numbers_lines_as_the_file_does(monkeypatch):
    # blank lines are skipped but counted
    text = f"{HOPF.serialize()}\n\n{INTERLEAVED}\n"
    code, out, err = run(["validate", "-"], stdin_text=text, monkeypatch=monkeypatch)
    assert (code, err) == (1, "")
    assert out.splitlines()[0] == "line 1: ok"
    assert out.splitlines()[1] == "line 3: INVALID"
    text = f"\n  \n{HOPF.serialize()}\n\t\n\n{HOPF.serialize()}\n\n"
    code, out, err = run(["validate", "-"], stdin_text=text, monkeypatch=monkeypatch)
    assert (code, out, err) == (0, "line 3: ok\nline 6: ok\n", "")
    text = f"{HOPF.serialize()}\n\n\nn=3; P1:1-9; P2:2-3; P3:1-3\n"
    code, out, err = run(["validate", "-"], stdin_text=text, monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert err.startswith("error: parse error on line 4: ")
    code, out, err = run(["validate", "-"], stdin_text="\n \n", monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", "error: no presentations in input\n")


@pytest.mark.parametrize("n, arc, message", [
    ("3", "[1,2,3]", "bad JSON page [[1, 2, 3]]"),
    ("3", '["a","b"]', 'bad JSON page [["a", "b"]]'),
    ("3", "[1,null]", "bad JSON page [[1, null]]"),
    ("3", "[1.5,2]", "bad JSON page [[1.5, 2]]"),
    ("true", "[1,2]", "n must be an integer, got true")])
def test_malformed_json_is_usage_error(monkeypatch, n, arc, message):
    text = f'{{"n": {n}, "pages": [[{arc}], [[2,3]], [[1,3]]]}}'
    code, out, err = run(["validate", "-"], stdin_text=text, monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert err.startswith(f"error: parse error on line 1: {message}")


@pytest.mark.parametrize("text", [
    "n=300000; P1:1-2; P2:2-3; P3:1-3",
    '{"n": 300000, "pages": [[[1,2]], [[2,3]], [[1,3]]]}'])
def test_point_count_beyond_twice_the_arcs_is_usage_error(monkeypatch, text):
    # three arcs touch at most six points; the rest could only be reported
    # one by one
    code, out, err = run(["validate", "-"], stdin_text=text, monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert err == ("error: parse error on line 1: n=300000 exceeds twice the arc count 3, "
                   "so some point meets no arc\n")


def test_components_output(monkeypatch):
    code, out, err = run(["components", "-"], stdin_text=HOPF.serialize(),
                         monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    assert out == ("components=2\n"
                   "  points 1-3-5: P1:1-3 P2:3-5 P3:1-5\n"
                   "  points 2-6-4: P2:2-6 P1:4-6 P3:2-4\n")
    code, out, err = run(["components", "-"], stdin_text=tnn(3).serialize(),
                         monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    assert out == ("components=3\n"
                   "  points 1-5-8: P1:1-5 P2:5-8 P3:1-8\n"
                   "  points 2-4-9-7: P1:2-4 P2:4-9 P1:7-9 P3:2-7\n"
                   "  points 3-10-6: P2:3-10 P1:6-10 P3:3-6\n")


NOT_UTF8 = b"\xff\xfe\x00bad\n"


def test_non_utf8_file_is_usage_error(tmp_path):
    path = tmp_path / "bin.txt"
    path.write_bytes(NOT_UTF8)
    code, out, err = run(["validate", str(path)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")


def test_non_utf8_stdin_is_usage_error(monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF8),
                                                       encoding="utf-8"))
    code, out, err = run(["validate", "-"])
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read -: 'utf-8' codec can't decode")


def test_invariants_roundtrip_from_construct(monkeypatch):
    code, out, _ = run(["construct", "tpq", "--p", "2", "--q", "3"])
    pres_line = out.splitlines()[0]
    code, out, _ = run(["invariants", "-"], stdin_text=pres_line,
                       monkeypatch=monkeypatch)
    assert code == 0
    assert "components = 1" in out
    assert "jones (A variable)" in out


def test_invariants_computes_bracket_and_trace_once(monkeypatch):
    from threepage import cli, diagram, invariants

    calls = {"bracket_skein": 0, "trace": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name, owner in (("bracket_skein", invariants), ("trace", diagram)):
        wrapped = counting(name, getattr(owner, name))
        for module in (cli, diagram, invariants):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapped)
    code, out, _ = run(["invariants", "-"], stdin_text=HOPF.serialize(),
                       monkeypatch=monkeypatch)
    assert code == 0 and "bracket = " in out
    assert calls == {"bracket_skein": 1, "trace": 1}


def test_invariants_t_variable(monkeypatch):
    code, out, _ = run(["invariants", "-", "--t-variable"],
                       stdin_text="n=3; P1:1-2; P2:2-3; P3:1-3",
                       monkeypatch=monkeypatch)
    assert code == 0 and "jones (t variable)" in out


def test_diagram_export(monkeypatch):
    code, out, _ = run(["diagram", "-"], stdin_text=HOPF.serialize(),
                       monkeypatch=monkeypatch)
    assert code == 0
    assert out.startswith("components=2 crossings=2\n")
    assert out.count("\nX ") + out.startswith("X ") == 2


def test_search_finds_hopf_at_six(monkeypatch):
    code, out, _ = run(["search", "--n-max", "6", "--target-braid", "s1 s1",
                        "--strands", "2"])
    assert code == 0
    assert "index=6" in out


def test_search_usage_error(monkeypatch):
    code, _, err = run(["search", "--n-max", "5"])
    assert code == 2


def test_search_n_max_below_three_is_usage_error(monkeypatch):
    code, out, err = run(["search", "--n-max", "1", "--target-braid", "s1",
                          "--strands", "2"])
    assert code == 2 and out == ""
    assert "--n-max must be at least 3" in err


def test_non_integer_env_limit_is_usage_error(monkeypatch):
    monkeypatch.setenv("THREEPAGE_MAX_N", "abc")
    code, _, err = run(["search", "--n-max", "4", "--target-braid", "s1",
                        "--strands", "2"])
    assert code == 2
    assert "THREEPAGE_MAX_N must be a positive integer, got 'abc'" in err


def test_negative_env_limit_is_usage_error(monkeypatch):
    monkeypatch.setenv("THREEPAGE_MAX_N", "-3")
    code, _, err = run(["census", "--n", "3"])
    assert code == 2
    assert "THREEPAGE_MAX_N must be a positive integer, got '-3'" in err


def test_zero_env_limit_is_usage_error(monkeypatch):
    monkeypatch.setenv("THREEPAGE_MAX_N", "0")
    for argv in (["search", "--n-max", "4", "--target-braid", "s1", "--strands", "2"],
                 ["census", "--n", "3"], ["refute-t33"]):
        code, out, err = run(argv)
        assert (code, out) == (2, ""), argv
        assert err == "error: THREEPAGE_MAX_N must be a positive integer, got '0'\n"


def test_env_limit_raises_the_search_size(monkeypatch):
    argv = ["search", "--n-max", "11", "--target-braid", "s1", "--strands", "2"]
    monkeypatch.delenv("THREEPAGE_MAX_N", raising=False)
    code, out, err = run(argv)
    assert (code, out) == (1, "")
    assert err == ("error: n=11 exceeds the search limit 10 "
                   "(set THREEPAGE_MAX_N to raise it)\n")
    monkeypatch.setenv("THREEPAGE_MAX_N", "11")
    code, out, _ = run(argv)
    assert code == 0
    assert out.startswith("index=3 witness: ")


def test_search_checks_limit_before_building_the_target(monkeypatch):
    from threepage import cli

    def no_profile(*args, **kwargs):
        raise AssertionError("target profiled before the limit was checked")

    monkeypatch.setattr(cli, "profile", no_profile)
    monkeypatch.setenv("THREEPAGE_MAX_N", "5")
    code, out, err = run(["search", "--n-max", "6",
                          "--target-braid", "s1 s1", "--strands", "2"])
    assert code == 1 and out == ""
    assert "n=6 exceeds the search limit 5" in err
    # a missing target is still a usage error, whatever the limit
    code, out, err = run(["search", "--n-max", "11"])
    assert (code, out) == (2, "")
    assert "search needs --target-braid or --target-file" in err


def test_split_targets_get_their_index_and_no_pruning_flag(tmp_path):
    # all three are the 2-component unlink, of index 4; split-pair pruning
    # would skip its presentations, and the cancelling braid shows no sign
    # of splitting, so search offers no such option
    split = tmp_path / "split.txt"
    split.write_text("n=4; P1:1-2; P2:1-2,3-4; P3:3-4\n")
    for target in (["--target-braid", "s1", "--strands", "3"],
                   ["--target-file", str(split)],
                   ["--target-braid", "s1 -s1", "--strands", "2"]):
        argv = ["search", "--n-max", "6"] + target
        code, out, _ = run(argv)
        assert (code, out) == (
            0, "index=4 witness: n=4; P1:1-2; P2:3-4; P3:1-2,3-4\n"), target
        code, out, err = run(argv + ["--prune-split-pairs"])
        assert (code, out) == (2, ""), target
        assert "unrecognized arguments: --prune-split-pairs" in err


def test_search_rejects_options_of_the_other_target(tmp_path):
    unknot = tmp_path / "unknot.txt"
    unknot.write_text("n=3; P1:1-2; P2:2-3; P3:1-3\n")
    for extra, names in (
            (["--target-braid", "s1 s1", "--strands", "2",
              "--target-file", str(unknot)], ("--target-braid", "--target-file")),
            (["--strands", "2", "--target-file", str(unknot)],
             ("--strands", "--target-file"))):
        code, out, err = run(["search", "--n-max", "6"] + extra)
        assert (code, out) == (2, ""), extra
        assert all(name in err for name in names), err


def test_refute_non_integer_env_limit_is_usage_error(monkeypatch):
    monkeypatch.setenv("THREEPAGE_MAX_N", "abc")
    code, out, err = run(["refute-t33"])
    assert code == 2 and out == ""
    assert err == run(["census", "--n", "3"])[2]
    assert "THREEPAGE_MAX_N must be a positive integer, got 'abc'" in err


def test_refute_env_limit_below_nine_is_domain_error(monkeypatch):
    monkeypatch.setenv("THREEPAGE_MAX_N", "5")
    code, out, err = run(["refute-t33"])
    assert code == 1 and out == ""
    assert "n=9 exceeds the search limit 5" in err


def test_refute_without_env_limit(monkeypatch):
    monkeypatch.delenv("THREEPAGE_MAX_N", raising=False)
    code, out, _ = run(["refute-t33"])
    assert code == 0
    assert out.startswith("examined 500 presentations on 9 points")
    assert "linking-compatible candidates: 0\n" in out


def test_census_six_matches_golden_bytes(monkeypatch):
    golden = Path(__file__).parent / "golden" / "census6.txt"
    code, out, _ = run(["census", "--n", "6"])
    assert code == 0
    assert out.encode() == golden.read_bytes()


def test_census_stdout(monkeypatch):
    code, out, _ = run(["census", "--n", "3"])
    assert code == 0
    assert len(out.strip().splitlines()) == 2


@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_render_non_finite_scale_is_domain_error(monkeypatch, scale):
    code, out, err = run(["render", "-", "--scale", scale],
                         stdin_text=HOPF.serialize(), monkeypatch=monkeypatch)
    assert code == 1 and out == ""
    assert "scale must be positive and finite" in err


def test_unwritable_out_is_usage_error(monkeypatch, tmp_path):
    missing = str(tmp_path / "missing" / "x")
    for argv in (["census", "--n", "3", "--out", missing],
                 ["census", "--n", "3", "--out", str(tmp_path)]):
        code, out, err = run(argv)
        assert code == 2 and out == "", argv
        assert err.startswith(f"error: cannot write {argv[-1]}: "), argv
    code, out, err = run(["render", "-", "--out", missing],
                         stdin_text=HOPF.serialize(), monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {missing}: ")
    assert list(tmp_path.iterdir()) == []


def test_census_non_positive_n_keeps_an_existing_out_file(tmp_path):
    out_file = tmp_path / "census.txt"
    out_file.write_bytes(b"kept\n")
    code, out, err = run(["census", "--n", "0", "--out", str(out_file)])
    assert (code, out, err) == (1, "", "error: n must be positive\n")
    assert out_file.read_bytes() == b"kept\n"


def test_census_checks_out_and_limit_before_computing(monkeypatch, tmp_path):
    from threepage import cli

    def no_census(*args, **kwargs):
        raise AssertionError("census ran before --out and the limit were checked")

    monkeypatch.setattr(cli, "census", no_census)
    missing = str(tmp_path / "missing" / "x")
    code, out, err = run(["census", "--n", "8", "--out", missing])
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {missing}: ")
    monkeypatch.setenv("THREEPAGE_MAX_N", "5")
    code, out, err = run(["census", "--n", "6", "--out", str(tmp_path / "x")])
    assert code == 1 and out == ""
    assert "n=6 exceeds the search limit 5" in err
    assert list(tmp_path.iterdir()) == []


def test_render_ascii_stdout(monkeypatch):
    code, out, _ = run(["render", "-", "--format", "ascii"],
                       stdin_text=HOPF.serialize(), monkeypatch=monkeypatch)
    assert code == 0 and "axis" in out


def test_construct_validate_roundtrip_over_grid(monkeypatch):
    cases = ([(["tnn", "--n", str(n)], tnn(n)) for n in (2, 3, 4, 5)]
             + [(["tpq", "--p", str(p), "--q", str(q)], tpq(p, q))
                for p, q in ((2, 3), (2, 5), (3, 4), (3, 5))]
             + [(["tpq", "--p", str(p), "--q", str(q), "--tight"], tpq_tight(p, q))
                for p, q in ((2, 4), (2, 5), (2, 6), (3, 6))])
    for extra, pres in cases:
        code, out, _ = run(["construct"] + extra)
        assert code == 0
        line = out.splitlines()[0]
        assert line == pres.serialize(), extra
        code, out, _ = run(["validate", "-"], stdin_text=line,
                           monkeypatch=monkeypatch)
        assert code == 0 and "ok" in out, extra


def test_braid_command(monkeypatch):
    code, out, _ = run(["braid", "--strands", "3", "--word", "s1 s2 -s1",
                        "--invariants"])
    assert code == 0
    assert "closure components = " in out
    assert "closure profile" in out


@pytest.mark.parametrize("strands, word, message", [
    ("2", "x1", "bad braid letter 'x1' (expected e.g. 's2' or '-s2')"),
    ("2", "s7", "generator index 7 out of range for 2 strands"),
    ("0", "s1", "strand count must be positive, got 0"),
], ids=["syntax", "generator", "strands"])
def test_bad_braid_word_is_usage_error(strands, word, message):
    # braid and search both exit 2, with the library's message
    for argv in (["braid", "--strands", strands, "--word", word],
                 ["search", "--n-max", "4", "--target-braid", word,
                  "--strands", strands]):
        code, out, err = run(argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


def test_braid_invariants_and_diagram_together():
    argv = ["braid", "--strands", "3", "--word", "s1 -s2 s1 -s2"]
    _, head, _ = run(argv)
    _, invariants, _ = run(argv + ["--invariants"])
    _, diagram, _ = run(argv + ["--diagram"])
    code, both, _ = run(argv + ["--invariants", "--diagram"])
    assert code == 0
    assert both == invariants + diagram[len(head):]
