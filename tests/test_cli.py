"""CLI behavior: output shapes, the JSON manifest, determinism, exit codes."""

import importlib
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import pytest

from mpmath import mp, mpf, zeta as mp_zeta

from mzvtools import cli, feynman, numerics, relations
from mzvtools.cli import main
from mzvtools.words import enumerate_compositions

# the module, which the package's detect function shadows
DETECT = importlib.import_module("mzvtools.detect")

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shuffle_text(capsys):
    code, out, _ = run(capsys, "shuffle", "10", "10")
    assert code == 0
    assert out.strip() == "2*1010 + 4*1100"


def test_shuffle_letter_words(capsys):
    code, out, _ = run(capsys, "shuffle", "f3.f5", "f7")
    assert code == 0
    assert "f3.f5.f7" in out


@pytest.mark.parametrize("words,text,kind", [
    (("", "10"), "10", "binary"), (("10", ""), "10", "binary"),
    (("f3", ""), "f3", "letters"), (("", ""), "", "letters")])
def test_shuffle_by_the_empty_word_is_the_identity(capsys, words, text, kind):
    code, out, _ = run(capsys, "shuffle", *words)
    assert code == 0
    assert out == text + "\n"
    code, out, _ = run(capsys, "shuffle", "--json", *words)
    assert code == 0
    assert json.loads(out)["result"]["kind"] == kind


def test_shuffle_refuses_an_empty_letter(capsys):
    code, out, err = run(capsys, "shuffle", "f3..f5", "f7")
    assert code == 1
    assert out == ""
    assert err.startswith("error: empty letter")


def test_stuffle_text(capsys):
    code, out, _ = run(capsys, "stuffle", "(2)", "(3)")
    assert code == 0
    assert out.strip() == "(2,3) + (3,2) + (5)"


def test_eval_text(capsys):
    code, out, _ = run(capsys, "eval", "(2)", "--digits", "20")
    assert code == 0
    assert out.startswith("zeta(2) = 1.64493406684822643")


def test_eval_zeta_matches_eval(capsys):
    _, out1, _ = run(capsys, "eval", "(3)", "--digits", "25")
    _, out2, _ = run(capsys, "eval-zeta", "3", "--digits", "25")
    assert out1.split("=")[1].strip() == out2.split("=")[1].strip()


def test_dims_table(capsys):
    code, out, _ = run(capsys, "dims", "--table", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["weight", "d_n", "2^(n-2)", "hoffman", "f-monomials"]
    assert lines[-1].split() == ["8", "4", "64", "4", "4"]


def test_dims_rank_bounds(capsys):
    code, out, _ = run(capsys, "dims", "--max", "5")
    assert code == 0
    rows = [l.split() for l in out.strip().splitlines()[1:]]
    assert rows[-1] == ["5", "8", "6", "2", "2"]


def test_dims_above_the_cap_fails_before_building(monkeypatch, capsys):
    # a fresh, empty table cache for this test only
    monkeypatch.setattr(relations, "_table", lru_cache(maxsize=16)(relations._table.__wrapped__))
    code, out, err = run(capsys, "dims", "--max", "13")
    assert code == 1
    assert out == ""
    assert "weight 13 exceeds the cap 12" in err
    assert relations._table.cache_info().currsize == 0


def test_dims_takes_an_explicit_weight_cap(monkeypatch, capsys):
    code, out, _ = run(capsys, "dims", "--max", "6", "--max-weight", "6")
    assert code == 0
    rows = [l.split() for l in out.strip().splitlines()[1:]]
    assert [r[0] for r in rows] == ["2", "3", "4", "5", "6"]
    assert rows[-1] == ["6", "16", "14", "2", "2"]
    monkeypatch.setattr(relations, "_table", lru_cache(maxsize=16)(relations._table.__wrapped__))
    code, out, err = run(capsys, "dims", "--max", "7", "--max-weight", "6")
    assert (code, out) == (1, "")
    assert "weight 7 exceeds the cap 6" in err
    assert relations._table.cache_info().currsize == 0


def test_hoffman_decompose(capsys):
    code, out, _ = run(capsys, "hoffman-decompose", "(1,3)")
    assert code == 0
    assert out.strip() == "(1,3) = 1/3*(2,2)"


def test_relations_listing(capsys):
    code, out, _ = run(capsys, "relations", "--weight", "3")
    assert code == 0
    assert "relations over 2 convergent words" in out


def test_detect_euler(capsys):
    code, out, _ = run(capsys, "detect", "(1,2)", "(3)", "--digits", "40")
    assert code == 0
    assert "[1, -1]" in out
    assert "  i.e.  [(1,2)] - [(3)] = 0" in out.splitlines()


def test_detect_relation_line_keeps_each_expression_as_typed(capsys):
    # (3) - (1,2) is 0, so the relation is [1, 0]; the expression's own
    # "-1*" is printed as typed, not rewritten
    code, out, _ = run(capsys, "detect", "--", "(3)-1*(1,2)", "(3)")
    assert code == 0
    assert "  i.e.  [(3)-1*(1,2)] = 0" in out.splitlines()


def test_detect_with_rational_factors(capsys):
    code, out, _ = run(capsys, "detect", "2*(1,2)", "1/2*(3)", "--digits", "40")
    assert code == 0
    assert "[1, -4]" in out


def test_detect_reads_a_leading_minus_after_two_dashes(capsys):
    code, out, _ = run(capsys, "detect", "--digits", "40", "--", "-(3)", "(1,2)")
    assert code == 0
    assert "[1, 1]" in out


def test_hoffman_decompose_expands_products(capsys):
    code, out, _ = run(capsys, "hoffman-decompose", "(2)*(3) - (5)")
    assert (code, out) == (0, "(2)*(3) - (5) = (2,3) + (3,2)\n")
    # the empty product of a rational alone is the empty word
    assert run(capsys, "hoffman-decompose", "--", "-1/2")[:2] == (0, "-1/2 = -1/2*()\n")


# about 0.4 s on a 2-vCPU host; weight 10 would add about 1 s more
ROUND_TRIP_WEIGHTS = range(2, 10)


def test_printed_combinations_read_back(capsys):
    # what the CLI prints over compositions, parse_expression reads back:
    # every relation row decomposes to 0, and every decomposition of a
    # convergent word, read back, decomposes to itself
    for weight in ROUND_TRIP_WEIGHTS:
        code, out, _ = run(capsys, "relations", "--weight", str(weight))
        assert code == 0
        for line in out.splitlines()[:-1]:
            relation = line.split(" = 0   [")[0]
            assert run(capsys, "hoffman-decompose", "--", relation)[:2] == (
                0, "%s = 0\n" % relation)
        for word in enumerate_compositions(weight, convergent_only=True):
            code, out, _ = run(capsys, "hoffman-decompose", str(word))
            assert code == 0
            combo = out.rstrip("\n").split(" = ")[1]
            assert run(capsys, "hoffman-decompose", "--", combo)[:2] == (
                0, "%s = %s\n" % (combo, combo))


def test_the_console_script_names_main():
    # pyproject.toml is read with a regex: tomllib needs Python 3.11
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", text, re.M | re.S)
    target = re.fullmatch(r'mzv = "([\w.]+):(\w+)"', scripts.group(1).strip())
    assert target is not None
    module = importlib.import_module(target.group(1))
    assert getattr(module, target.group(2)) is cli.main


# Runs in a fresh interpreter, since pytest's own imports load numpy
NUMPY_ON_FIRST_DRAW = """
import contextlib, io, sys
from mzvtools.cli import main
exact = [["dims", "--max", "6"], ["relations", "--weight", "5"],
         ["hoffman-decompose", "(1,5)"], ["shuffle", "10", "10"], ["stuffle", "(2)", "(3)"],
         ["eval", "(3,9)", "--digits", "40"], ["detect", "(1,2)", "(3)", "--digits", "40"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in exact]
print(codes, "numpy" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["feynman", "period", "V=4; 1-2,1-3,1-4,2-3,2-4,3-4", "--samples", "1e4"])
print(code, "numpy" in sys.modules)
"""


def test_only_a_monte_carlo_draw_imports_numpy():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", NUMPY_ON_FIRST_DRAW],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[0, 0, 0, 0, 0, 0, 0] False", "0 True"]


def test_hoffman_decompose_refuses_mixed_weights(capsys):
    code, out, err = run(capsys, "hoffman-decompose", "(2)*(3) - (4)")
    assert (code, out) == (1, "")
    assert err == "error: a decomposition needs one weight, got weights [4, 5]\n"


def test_hoffman_decompose_names_the_divergent_factor(capsys):
    # the stuffle term (2,1) used to be named, not the factor (1) as written
    code, out, err = run(capsys, "hoffman-decompose", "(1)*(2)")
    assert (code, out) == (1, "")
    assert err == "error: (1) diverges; only convergent words decompose\n"


def test_eval_of_a_sum_says_its_digits_are_absolute(capsys):
    code, out, _ = run(capsys, "eval", "(2)*(3) - (2,3) - (3,2) - (5)", "--digits", "30")
    assert code == 0
    label, value = out.split(" = ")
    assert label == "zeta(2)*zeta(3) - zeta(2,3) - zeta(3,2) - zeta(5)"
    assert value.endswith("  (absolute digits)\n")
    assert abs(mpf(value.split()[0])) < mpf(10) ** -30
    code, out, _ = run(capsys, "eval", "(2)*(3) - (5)", "--json")
    assert json.loads(out)["result"]["absolute"] is True
    # a single word and a product keep relative digits, and say nothing
    for word in ("(2)", "2*(2)*(3)"):
        code, out, _ = run(capsys, "eval", word, "--json")
        assert "absolute" not in json.loads(out)["result"]


def test_eval_of_a_product_keeps_relative_digits(capsys):
    code, out, _ = run(capsys, "eval", "5197/691*(12)*(12)", "--digits", "40")
    assert code == 0
    assert out.startswith("5197/691*zeta(12)*zeta(12) = ")
    with mp.workdps(60):
        exact = mpf(5197) / 691 * mp_zeta(12) ** 2
        assert abs(mpf(out.split(" = ")[1]) - exact) < mpf(10) ** -39 * exact


def test_eval_of_a_sum_with_large_coefficients_keeps_absolute_digits(capsys):
    # each value carries the digits of the coefficients on top, so 10^100
    # times zeta(1,2) - zeta(3) still cancels to the requested digits
    code, out, _ = run(capsys, "eval", "1e100*(1,2) - 1e100*(3)", "--digits", "30")
    assert code == 0
    assert abs(mpf(out.split(" = ")[1].split()[0])) < mpf(10) ** -30


def test_eval_of_a_sum_prints_only_its_absolute_digits(capsys):
    # the Gangl-Kaneko-Zagier relation cancels below 10^-40: nothing prints
    gkz = "28*(3,9) + 150*(5,7) + 168*(7,5) - 5197/691*(12)"
    code, out, _ = run(capsys, "eval", gkz, "--digits", "40")
    assert (code, out.split(" = ")[1]) == (0, "0.0  (absolute digits)\n")
    code, out, _ = run(capsys, "eval", gkz, "--digits", "40", "--json")
    result = json.loads(out)["result"]
    assert (result["value"], result["digits"], result["absolute"]) == ("0.0", 40, True)
    # 10^-35 zeta(2) keeps the digits above 10^-40, rounded once
    code, out, _ = run(capsys, "eval", "1e-35*(2) + (3) - (3)", "--digits", "40")
    assert out.split(" = ")[1] == "1.64493e-35  (absolute digits)\n"
    # above 1 the digits are relative: 10^5 zeta(2) - zeta(3) = 164492.204...
    code, out, _ = run(capsys, "eval", "1e5*(2) - (3)", "--digits", "5")
    assert out.split(" = ")[1] == "1.6449e+5  (absolute digits)\n"


@pytest.mark.parametrize("expr, digits, working", [("(2)*(3)", 1995, 2005),
                                                   ("1e1999*(2) - (3)", 10, 2026)])
def test_eval_past_the_working_digits_cap_names_both_digits(monkeypatch, capsys,
                                                            expr, digits, working):
    # a product needs GUARD digits more, a sum those of its coefficients too
    evaluated = []
    monkeypatch.setattr(cli, "mzv_eval", lambda *a: evaluated.append(a))
    code, out, err = run(capsys, "eval", expr, "--digits", str(digits))
    assert (code, out, evaluated) == (1, "", [])
    assert err == ("error: %d digits of this expression need %d working digits, more "
                   "than the cap MAX_DIGITS = 2000\n" % (digits, working))


def _printed(capsys, expr, digits):
    assert main(["eval", expr, "--digits", str(digits)]) == 0
    return capsys.readouterr().out.split(" = ")[1].strip()


@pytest.mark.parametrize("digits", [10, 15, 20, 25, 30, 40])
def test_eval_prints_zeta_values_correctly_rounded(capsys, digits):
    # the value was rounded to the digits in binary and then again in decimal:
    # zeta(18) = 1.000003817293264999... printed ...327 at 15 digits
    for s in range(2, 40):
        with mp.workdps(digits + 30):
            expected = mp.nstr(mp_zeta(s), digits)
        assert _printed(capsys, "(%d)" % s, digits) == expected, s


@pytest.mark.parametrize("s", [3, 5, 7])
def test_eval_prints_scaled_zeta_values_correctly_rounded(capsys, s):
    # 17 of these printed a wrong last digit: 8*zeta(5) = 8.29542204114695941065...
    # printed ...106
    for c in range(2, 200):
        with mp.workdps(50):
            expected = mp.nstr(c * mp_zeta(s), 20)
        assert _printed(capsys, "%d*(%d)" % (c, s), 20) == expected, c


def test_detect_refuses_an_oversized_coefficient_before_evaluating(monkeypatch, capsys):
    # Fraction("1e99999") and its lattice used to take seconds
    evaluated = []
    monkeypatch.setattr(cli, "mzv_eval", lambda *a: evaluated.append(a))
    monkeypatch.setattr(DETECT, "lll_reduce", None)
    start = time.perf_counter()
    code, out, err = run(capsys, "detect", "1e99999*(3)", "(3)")
    assert time.perf_counter() - start < 0.1
    assert (code, out, evaluated) == (1, "", [])
    assert err == "error: coefficient '1e99999' has more than 2000 digits\n"


def test_detect_counts_the_integer_digits_of_its_values(monkeypatch, capsys):
    # 8 values at 80 digits pass the first check; the 1999 digits of the
    # first value before its point make the lattice entries 2079 digits long
    monkeypatch.setattr(DETECT, "lll_reduce", None)
    words = ["1e1999*(2)"] + ["(%d)" % s for s in range(3, 10)]
    start = time.perf_counter()
    code, out, err = run(capsys, "detect", *words, "--digits", "80")
    assert time.perf_counter() - start < 0.1
    assert (code, out) == (1, "")
    assert err.startswith("error: reducing 8 values at 2079 digits would take "
                          "%d units of lattice work" % (8 * 2079) ** 3)


def readme_commands():
    """The argument lists of the ``mzv`` lines in the README's command block."""
    block = README.read_text().split("## Command line")[1].split("```sh")[1].split("```")[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("mzv ")]


def test_the_readme_command_block_runs_as_written(capsys):
    commands = readme_commands()
    # the exact weight-13 table takes about 15 s, too long for this suite
    slow = ["dims", "--max", "13", "--max-weight", "13"]
    assert slow in commands and len(commands) > 10
    for argv in commands:
        if argv != slow:
            assert main(argv) == 0, argv
    capsys.readouterr()


def test_feynman_psi(capsys, tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text("V=4; 1-2,1-3,1-4,2-3,2-4,3-4")
    code, out, _ = run(capsys, "feynman", "psi", str(path))
    assert code == 0
    assert "16 monomials of degree 3" in out


def test_feynman_accepts_literal_graph(capsys):
    code, out, _ = run(capsys, "feynman", "check", "V=3; 1-2,1-3,2-3")
    assert code == 0
    assert "not primitive log-divergent" in out


def test_feynman_period(capsys):
    code, out, _ = run(capsys, "feynman", "period", "V=2; 1-2,1-2",
                       "--samples", "100", "--seed", "0")
    assert code == 0
    assert "1.00000000 +- 0.00000000" in out


def test_feynman_period_matches_with_zero_stderr(capsys):
    # the banana's integrand is the constant 1, so its stderr is exactly 0
    code, out, err = run(capsys, "feynman", "period", "V=2; 1-2,1-2",
                         "--samples", "100", "--match-weight", "2", "--json")
    assert (code, err) == (0, "")
    result = manifest_of(out)["result"]
    assert (result["estimate"], result["stderr"], result["matches"]) == (1.0, 0.0, [])


@pytest.mark.parametrize("weight", ["0", "1", "13"])
def test_feynman_period_match_weight_out_of_range_exits_one(monkeypatch, capsys, weight):
    # 0 is a weight like any other, not "no matching"; the range is checked
    # before any sampling
    calls = []
    monkeypatch.setattr(cli, "period_monte_carlo", lambda *args: calls.append(args))
    code, out, err = run(capsys, "feynman", "period", "V=4; 1-2,1-3,1-4,2-3,2-4,3-4",
                         "--samples", "3e6", "--match-weight", weight)
    assert (code, out, calls) == (1, "", [])
    assert "weight must be an integer between 2 and 12" in err


def test_feynman_period_refuses_hours_of_sampling_at_once(monkeypatch, capsys):
    # 10^12 samples of K4's 16 monomials would run for about a day
    def sampling(*args):
        raise AssertionError("sampling started")
    monkeypatch.setattr(numerics, "_substream", sampling)
    start = time.perf_counter()
    code, out, err = run(capsys, "feynman", "period", "V=4; 1-2,1-3,1-4,2-3,2-4,3-4",
                         "--samples", "1e12")
    assert (code, out) == (1, "")
    assert err.startswith("error: 1000000000000 samples x (5 draws + 16 terms per sample) "
                          "exceed the sampling work cap MAX_SAMPLE_WORK = 2000000000")
    assert time.perf_counter() - start < 2


def test_feynman_period_lists_candidates(capsys):
    code, out, _ = run(capsys, "feynman", "period", "V=4; 1-2,1-3,1-4,2-3,2-4,3-4",
                       "--samples", "1e4", "--match-weight", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) > 1
    assert all(line.startswith("  candidate: ") and "sigma)" in line for line in lines[1:])


def test_feynman_period_json_formats_no_candidate_line(monkeypatch, capsys):
    # the candidates go into the JSON result; their text lines are never built
    def refuse(self):
        raise AssertionError("candidate line formatted")
    monkeypatch.setattr(feynman.PeriodMatch, "__str__", refuse)
    code, out, err = run(capsys, "feynman", "period", "V=4; 1-2,1-3,1-4,2-3,2-4,3-4",
                         "--samples", "1e4", "--match-weight", "3", "--json")
    assert (code, err) == (0, "")
    assert manifest_of(out)["result"]["matches"]


@pytest.mark.parametrize("option", [["--samples", "1e4"], ["--seed", "3"],
                                    ["--match-weight", "5"]])
@pytest.mark.parametrize("action", ["psi", "check"])
def test_feynman_sampling_options_belong_to_period(capsys, action, option):
    with pytest.raises(SystemExit) as exc:
        main(["feynman", action, "V=4; 1-2,1-3,1-4,2-3,2-4,3-4"] + option)
    assert exc.value.code == 2
    assert option[0] in capsys.readouterr().err


@pytest.mark.parametrize("action", ["psi", "check"])
def test_feynman_psi_and_check_manifests_hold_only_their_arguments(capsys, action):
    graph = "V=4; 1-2,1-3,1-4,2-3,2-4,3-4"
    code, out, _ = run(capsys, "feynman", action, graph, "--json")
    assert code == 0
    manifest = manifest_of(out)["manifest"]
    assert manifest["parameters"] == {"action": action, "graph": graph}
    assert manifest["seed"] is None


def test_feynman_psi_refuses_too_many_trees_before_enumerating(monkeypatch, capsys):
    def enumerate_trees(vertices, edges):
        raise AssertionError("spanning trees enumerated")

    monkeypatch.setattr(feynman, "_spanning_trees", enumerate_trees)
    k9 = "V=9; " + ",".join("%d-%d" % e for e in itertools.combinations(range(1, 10), 2))
    code, out, err = run(capsys, "feynman", "psi", k9)
    assert code == 1
    assert out == ""
    assert "4782969 spanning trees" in err


def test_feynman_check_refuses_too_many_vertices(capsys):
    # the wheel with 20 spokes: 21 vertices, 40 edges
    edges = (["1-%d" % i for i in range(2, 22)]
             + ["%d-%d" % (i, i + 1) for i in range(2, 21)] + ["2-21"])
    code, out, err = run(capsys, "feynman", "check", "V=21; " + ",".join(edges))
    assert (code, out) == (1, "")
    assert "21 vertices, more than the 20" in err


# ----------------------------------------------------------------- JSON

def manifest_of(out):
    obj = json.loads(out)
    assert set(obj) == {"manifest", "result"}
    return obj


def test_json_manifest_fields(capsys):
    _, out, _ = run(capsys, "eval", "(2)", "--digits", "20", "--json")
    obj = manifest_of(out)
    m = obj["manifest"]
    assert m["command"] == "eval"
    assert m["precision"] == 20
    assert m["version"]
    assert isinstance(m["wall_time_s"], float)
    assert m["parameters"]["word"] == "(2)"
    assert obj["result"]["value"].startswith("1.6449340668")


def test_json_is_byte_identical_up_to_wall_time(capsys):
    def canonical(out):
        obj = json.loads(out)
        obj["manifest"].pop("wall_time_s")
        return json.dumps(obj, sort_keys=True)

    _, out1, _ = run(capsys, "detect", "(1,2)", "(3)", "--digits", "40", "--json")
    _, out2, _ = run(capsys, "detect", "(1,2)", "(3)", "--digits", "40", "--json")
    assert canonical(out1) == canonical(out2)


def test_json_seed_recorded_for_sampling(capsys):
    _, out, _ = run(capsys, "feynman", "period", "V=2; 1-2,1-2",
                    "--samples", "50", "--seed", "7", "--json")
    obj = manifest_of(out)
    assert obj["manifest"]["seed"] == 7
    assert obj["result"]["samples"] == 50


def test_json_relations_round_trip(capsys):
    _, out, _ = run(capsys, "relations", "--weight", "4", "--json")
    obj = manifest_of(out)
    assert obj["result"]["basis"] == ["(1,1,2)", "(1,3)", "(2,2)", "(4)"]
    assert len(obj["result"]["relations"]) >= 3


RELATIONS_W5 = """\
6*(1,1,3) + (1,2,2) - (1,4) - (3,2) = 0   [double-shuffle (2)|(1,2)]
6*(1,4) + 2*(2,3) - (5) = 0   [double-shuffle (2)|(3)]
(1,1,1,2) - (1,1,3) - (1,2,2) - (2,1,2) = 0   [hoffman (1,1,2)]
(1,1,3) + (1,2,2) - (1,4) - (2,3) = 0   [hoffman (1,3)]
(1,2,2) + (2,1,2) - (2,3) - (3,2) = 0   [hoffman (2,2)]
(1,4) + (2,3) + (3,2) - (5) = 0   [hoffman (4)]
6 relations over 8 convergent words
"""


def _combo(*terms):
    return {"kind": "composition",
            "terms": [{"denominator": 1, "numerator": c, "word": w} for w, c in terms]}


def test_relations_output_is_frozen(capsys):
    # the verbatim listing, text and JSON, with and without the Hoffman rows
    assert run(capsys, "relations", "--weight", "5") == (0, RELATIONS_W5, "")
    no_hoffman = RELATIONS_W5.splitlines()[:2] + ["2 relations over 8 convergent words"]
    assert run(capsys, "relations", "--weight", "5", "--no-hoffman") == (
        0, "\n".join(no_hoffman) + "\n", "")
    _, out, _ = run(capsys, "relations", "--weight", "4", "--json")
    assert manifest_of(out)["result"] == {
        "basis": ["(1,1,2)", "(1,3)", "(2,2)", "(4)"],
        "relations": [
            {"combo": _combo(("(1,3)", 4), ("(4)", -1)),
             "provenance": "double-shuffle (2)|(2)", "weight": 4},
            {"combo": _combo(("(1,1,2)", 1), ("(1,3)", -1), ("(2,2)", -1)),
             "provenance": "hoffman (1,2)", "weight": 4},
            {"combo": _combo(("(1,3)", 1), ("(2,2)", 1), ("(4)", -1)),
             "provenance": "hoffman (3)", "weight": 4}],
        "weight": 4}


# ------------------------------------------------------------ exit codes

def test_domain_error_exits_one(capsys):
    code, _, err = run(capsys, "eval", "(2,1)")
    assert code == 1
    assert "diverges" in err


def test_precision_error_exits_one(capsys):
    code, _, err = run(capsys, "detect", "(1,2)", "(3)", "--digits", "40",
                       "--height-bound", str(10 ** 30))
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("argv", [("eval", "(2)"), ("detect", "(2)", "(3)"),
                                  ("eval-zeta", "2")])
def test_digits_beyond_the_cap_exit_one_at_once(capsys, monkeypatch, argv):
    # 10^5 digits of zeta(2) used to run for minutes; nothing is summed now,
    # which taking away the half-path cache and numerics' mpf would show
    monkeypatch.setattr(numerics, "_polylog_half", None)
    monkeypatch.setattr(numerics, "mpf", None)
    code, out, err = run(capsys, *argv, "--digits", "100000")
    assert (code, out) == (1, "")
    assert err == ("error: digits must be an integer between 1 and %d, got 100000\n"
                   % numerics.MAX_DIGITS)


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_repeated_calls_build_the_parser_once(capsys):
    cli._build_parser.cache_clear()
    assert run(capsys, "stuffle", "(2)", "(3)")[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--no-such-flag"])
    assert exc.value.code == 2
    assert run(capsys, "eval", "(2)", "--digits", "20")[1].startswith(
        "zeta(2) = 1.64493406684822643")
    assert cli._build_parser.cache_info().misses == 1


def test_missing_argument_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["eval"])
    assert exc.value.code == 2


def test_malformed_word_is_domain_error(capsys):
    code, _, err = run(capsys, "eval", "(1,2")
    assert code == 1
    assert "error:" in err


def test_detect_past_the_lattice_cap_exits_one_before_evaluating(monkeypatch, capsys):
    # 20 words at 2000 digits used to be evaluated for seconds, then refused
    evaluated = []
    monkeypatch.setattr(cli, "mzv_eval", lambda *a: evaluated.append(a))
    words = ["(%d)" % s for s in range(2, 22)]
    code, out, err = run(capsys, "detect", *words, "--digits", "2000")
    assert (code, out) == (1, "")
    assert err.startswith("error: reducing 20 values at 2000 digits would take "
                          "64000000000000 units of lattice work")
    assert evaluated == []


def test_zero_denominator_in_a_detect_factor_exits_one(capsys):
    code, _, err = run(capsys, "detect", "(2)", "1/0")
    assert code == 1
    assert err == "error: zero denominator in '1/0'\n"


def test_json_graph_without_edges_exits_one(capsys):
    code, _, err = run(capsys, "feynman", "check", '{"vertices": 3}')
    assert code == 1
    assert err == "error: a JSON graph needs the keys edges\n"


@pytest.mark.parametrize("samples", ["inf", "1e400", "nan"])
def test_non_finite_sample_count_exits_one(capsys, samples):
    # main returns instead of letting an OverflowError out as a traceback
    code, out, err = run(capsys, "feynman", "period", "V=2; 1-2,1-2", "--samples", samples)
    assert code == 1
    assert out == ""
    assert err.startswith("error: samples must be an integer >= 2, got ")


@pytest.mark.parametrize("samples", ["2.9", "0.5", "1e-3"])
def test_fractional_sample_count_exits_one(capsys, samples):
    # a fractional count is refused, not truncated to a smaller run
    code, out, err = run(capsys, "feynman", "period", "V=2; 1-2,1-2", "--samples", samples)
    assert code == 1
    assert out == ""
    assert err.startswith("error: samples must be an integer >= 2, got ")


def test_exponent_sample_count_still_runs(capsys):
    code, out, _ = run(capsys, "feynman", "period", "V=2; 1-2,1-2",
                       "--samples", "1e2", "--seed", "0", "--json")
    assert code == 0
    assert json.loads(out)["result"]["samples"] == 100


@pytest.mark.parametrize("argv,message", [
    (("--table", "-1"), "--table must be an integer between 0 and"),
    (("--max", "0"), "weight must be an integer >= 2"),
    (("--max", "1"), "weight must be an integer >= 2"),
    (("--max", "-4"), "weight must be an integer >= 2"),
    (("--table", str(cli.MAX_TABLE + 1)), "--table must be an integer between 0 and"),
], ids=["argv0---table must be >= 0", "argv1---max must be >= 2",
        "argv2---max must be >= 2", "argv3---max must be >= 2",
        "argv4---table above the cap"])
def test_dims_out_of_range_fails_before_building(monkeypatch, capsys, argv, message):
    monkeypatch.setattr(relations, "_table", lru_cache(maxsize=16)(relations._table.__wrapped__))
    monkeypatch.setattr(cli, "dimension", lambda n: pytest.fail("a row was computed"))
    monkeypatch.setattr(cli, "weight_counts", lambda n: pytest.fail("a row was computed"))
    code, out, err = run(capsys, "dims", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: " + message)
    assert relations._table.cache_info().currsize == 0


def test_dims_smallest_ranges_still_print(capsys):
    code, out, _ = run(capsys, "dims", "--table", "0")
    assert code == 0
    assert out.split("\n")[1].split() == ["0", "1", "1", "1", "1"]
    code, out, _ = run(capsys, "dims", "--max", "2")
    assert code == 0
    assert out.split("\n")[1].split() == ["2", "1", "0", "1", "1"]
