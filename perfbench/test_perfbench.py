"""Tests of the benchmark's own machinery (inputs, checks, spans, statistics).

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import signal
import time

from mpmath import mp, mpf

import benchstats
import checks
import make_reference
import spans
import speedprobe
import workloads


def test_same_seed_same_inputs():
    for w in workloads.WORKLOADS:
        assert workloads.make_requests(w, 7) == workloads.make_requests(w, 7)
    assert (workloads.make_requests("exact-w10", 7)
            != workloads.make_requests("exact-w10", 8))


def test_inputs_are_the_stated_sessions():
    exact = workloads.make_requests("exact-w10", 3)
    words = [r["expect"]["word"] for r in exact if r["kind"] == "decompose"]
    assert [sum(w) for w in words] == [10] * 24 + [9] * 12
    assert len(set(words)) == len(words)
    assert not any(workloads.is_hoffman(w) for w in words)
    assert exact[-1]["argv"] == ["dims", "--max", "10", "--json"]
    numeric = workloads.make_requests("numeric-w10", 3)
    assert numeric[0]["argv"][:2] == ["eval", "(3,9)"]
    sweep = [r["expect"]["word"] for r in numeric if r["kind"] == "sweep"]
    assert sorted(sweep) == workloads.compositions(10) and len(sweep) == 256
    assert [r["argv"][1] for r in numeric if r["kind"] == "identify"][0] == "(3,9)"
    periods = workloads.make_requests("periods", 3)
    assert periods[0]["kind"] == "period" and periods[0]["expect"]["graph"] == "K4"


def test_self_time_on_a_synthetic_tree():
    # root [0, 10] has children [1, 4] and [5, 6]; the first child has a
    # grandchild [2, 3]; a child that overruns its parent is clipped.
    tree = [
        ["cli.main", -1, 0.0, 10.0, None],
        ["relations.a", 0, 1.0, 4.0, None],
        ["algebra.b", 1, 2.0, 3.0, None],
        ["linalg.c", 0, 5.0, 6.0, None],
        ["other", -1, 20.0, 25.0, None],
        ["late", 4, 24.0, 26.0, None],
    ]
    assert spans.self_times(tree) == [6.0, 2.0, 1.0, 1.0, 4.0, 2.0]


def test_layer_metrics_from_spans():
    tree = [
        ["cli.main", -1, 0.0, 10.0, None],
        ["relations.decompose_in_hoffman_basis", 0, 0.5, 9.0, None],
        ["relations.build_relation_matrix", 1, 1.0, 3.0, {"rows": 5}],
        ["algebra.shuffle", 2, 1.5, 2.0, None],
        ["linalg.SparseRREF.insert_all", 1, 3.0, 8.0, {"rows_in": 5, "rank": 4, "bits": 9}],
        ["cli.main", -1, 11.0, 12.0, None],
        ["relations.decompose_in_hoffman_basis", 5, 11.2, 11.4, None],
    ]
    caches = {"shuffle": (3, 1), "stuffle": (0, 0), "polylog_half": (0, 0)}
    m = spans.layer_metrics(tree, 13.0, caches)
    assert m["linalg.rref_s"] == 5.0 and m["linalg.useful_row_ratio"] == 0.8
    assert m["linalg.first_result_share"] == 0.5
    assert m["relations.row_build_self_s"] == 1.5
    assert m["relations.table_hit_ratio"] == 0.5
    assert m["algebra.cache_hit_ratio"] == 0.75
    assert abs(m["cli.self_s"] - (1.5 + 0.8)) < 1e-12
    assert abs(m["trace.uncovered_share"] - 2.0 / 13.0) < 1e-12


def test_speed_averages_the_probes_around_a_request():
    sampler = speedprobe.Sampler(("interpreted", "numpy"))
    ref = speedprobe.reference(sampler.parts)
    # probes at t = 0, 1, 2, 3 s read the reference time, twice it, half of
    # it and the reference time again
    sampler.samples = [(0.0, ref), (1.0, 2 * ref), (2.0, ref / 2), (3.0, ref)]
    w = speedprobe.WINDOW_S
    assert sampler.speed(1.0, 1.0) == 0.5
    assert sampler.speed(1.0, 2.0) == (0.5 + 2.0) / 2
    assert sampler.speed(0.0, 3.0) == (1.0 + 0.5 + 2.0 + 1.0) / 4
    assert sampler.speed(3.0 + w, 3.0 + w) == 1.0
    assert sampler.speed(3.5 + w, 3.6 + w) == 1.0  # no probe in reach: the nearest
    assert sampler.median_speed() == 1.0


def test_sampler_probes_during_work_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    for parts in workloads.PROBE_PARTS.values():
        assert set(parts) <= set(speedprobe.PARTS)
    with speedprobe.Sampler(workloads.PROBE_PARTS["numeric-w10"]) as sampler:
        end = time.perf_counter() + 10 * speedprobe.EVERY_S
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(sampler.samples) >= 3
    assert 0 < sampler.spent < 10 * speedprobe.EVERY_S
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert benchstats.tail_percentile(range(10)) is None
    assert benchstats.tail_percentile(range(1, 12)) == (9, 1)
    assert benchstats.tail_percentile(range(1, 21)) == (50, 10)
    p, value = benchstats.tail_percentile(range(1, 257))
    assert (p, value) == (96, 246)
    for n in (11, 37, 100, 256, 1000):
        p, value = benchstats.tail_percentile(range(1, n + 1))
        assert n - value >= 10
        assert p == 99 or n - (-(-(p + 1) * n // 100)) < 10


def _answer(result):
    return 0, json.dumps({"manifest": {}, "result": result})


# the exact Hoffman decomposition of zeta(1,8)
DECOMPOSITION_1_8 = (("(2,2,2,3)", -2784, 973), ("(2,2,3,2)", 1448, 973),
                     ("(2,3,2,2)", 11488, 2919), ("(3,2,2,2)", -4744, 2919))


def _decompose_answer(terms):
    return _answer({"word": "(1,8)", "decomposition": {"kind": "composition", "terms": [
        {"word": w, "numerator": p, "denominator": q} for w, p, q in terms]}})


def test_planted_wrong_answers_count_as_failures():
    reqs = [workloads._request("decompose", ["hoffman-decompose", "(1,8)"], word=(1, 8)),
            workloads._request("dims", ["dims", "--max", "4"], max=4)]
    right = [_decompose_answer(DECOMPOSITION_1_8),
             _answer({"bounds": [{"weight": n, "rank": 2 ** (n - 2) - d, "bound": d}
                                 for n, d in ((2, 1), (3, 1), (4, 1))]})]
    assert checks.check_session("exact-w10", reqs, right) == [None, None]
    wrong = [_decompose_answer(DECOMPOSITION_1_8[:3] + (("(3,2,2,2)", -4743, 2919),)),
             _answer({"bounds": [{"weight": n, "rank": 2 ** (n - 2) - d, "bound": d}
                                 for n, d in ((2, 1), (3, 1), (4, 2))]})]
    verdicts = checks.check_session("exact-w10", reqs, wrong)
    assert all(v is not None for v in verdicts)
    crashed = checks.check_session("exact-w10", reqs, [(None, ""), (1, "")])
    assert all(v is not None for v in crashed)


def test_planted_wrong_relation_and_tree_count_fail():
    gkz = [r for r in workloads.make_requests("numeric-w10", 1)
           if r["expect"].get("relation")]
    good = {"coefficients": list(workloads.GKZ_RELATION)}
    bad = {"coefficients": [19348, 103650, 116088, 5197]}
    assert checks.check_session("numeric-w10", gkz, [_answer(good)]) == [None]
    assert checks.check_session("numeric-w10", gkz, [_answer(bad)]) != [None]
    psi = [r for r in workloads.make_requests("periods", 1) if r["kind"] == "psi"][:1]
    assert checks.check_session("periods", psi, [_answer({"count": 16})]) == [None]
    assert checks.check_session("periods", psi, [_answer({"count": 15})]) != [None]


def test_frozen_reference_passes_independent_checks():
    frozen = checks.reference()
    assert sorted(frozen["low"]) == sorted(workloads.compositions(9)
                                           + workloads.compositions(10))
    assert set(workloads.HIPREC_POOL) | {workloads.HIPREC_FIXED} <= set(frozen["high"])
    misses = make_reference.sum_theorem_misses(frozen["low"])
    assert len(misses) == 8 + 9
    assert max(misses.values()) < mpf(10) ** -40
    assert make_reference.gkz_miss(frozen["high"]) < mpf(10) ** -290


def _value_answer(parts, digits, shift):
    with mp.workdps(digits + 10):
        text = checks.reference()["low" if digits < 100 else "high"][parts]
        value = mp.nstr(mpf(text) + mpf(10) ** -(digits - 7) * shift, digits)
    return _answer({"word": workloads.literal(parts), "digits": digits, "value": value})


def test_planted_wrong_values_count_as_failures():
    reqs = [r for r in workloads.make_requests("numeric-w10", 5)
            if r["kind"] == "hiprec" or r["expect"].get("word") in ((10,), (2, 3, 5))]
    assert [r["kind"] for r in reqs].count("hiprec") == 2 and len(reqs) == 4
    for shift in (0, 1):
        answers = [_value_answer(r["expect"]["word"], r["expect"]["digits"], shift)
                   for r in reqs]
        verdicts = checks.check_session("numeric-w10", reqs, answers)
        assert verdicts == [None] * 4 if shift == 0 else None not in verdicts
