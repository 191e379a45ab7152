"""Seeded request lists for the three benchmark workloads.

Each workload is one batch session of a researcher driving ``mzv`` in a
closed loop with a single client: the next request is sent when the
previous one has returned.  The seed chooses only the sampled inputs
(which words, in which order, which Monte Carlo stream); the program sees
nothing but the generated command lines.

Why these workloads (see README.md for the layer predictions):

* ``exact-w10`` -- Hoffman decompositions at weights 10 and 9, then the
  exact dimension bounds through weight 10.  The relation rows and the
  exact RREF do almost all the work; numerics, detect and feynman idle.
  The first request pays for the weight-10 echelon table, the rest hit it.
* ``numeric-w10`` -- 300-digit values with no shared work, the 40-digit
  sweep over every convergent weight-10 word (heavy prefix sharing in the
  half-path polylog cache), and three integer-relation searches.  numerics
  and detect carry the load; relations and linalg idle.
* ``periods`` -- Monte Carlo periods of three graphs whose spanning-tree
  counts differ by 10x, plus the unit-square zeta(2) estimate that uses the
  second copy of the batching loop.  feynman and numpy carry the load.

Every workload starts with its cold one-shot request, so the session's
first latency is the cost of a single ``mzv`` invocation of that kind.
"""

from __future__ import annotations

import random

WORKLOADS = ("exact-w10", "numeric-w10", "periods")

HOFFMAN_PARTS = (2, 3)

# exact-w10
DECOMPOSE_W10 = 24
DECOMPOSE_W9 = 12
DIMS_MAX = 10

# numeric-w10
SWEEP_WEIGHT = 10
SWEEP_DIGITS = 40
HIPREC_DIGITS = 300
HIPREC_FIXED = (3, 9)
# depth >= 3 weight-12 words, none self-dual, so a value shares no half-path
# polylogarithm with itself; drawn once with random.Random(12) and frozen
# with their values in reference.json
HIPREC_POOL = ((1, 1, 2, 1, 2, 3, 2), (1, 2, 1, 1, 3, 4), (1, 2, 4, 1, 2, 2),
               (1, 3, 1, 2, 1, 2, 2), (1, 6, 2, 3), (2, 1, 1, 3, 1, 1, 1, 2),
               (2, 2, 4, 1, 1, 2), (2, 3, 1, 1, 1, 1, 3))
GKZ = ((3, 9), (5, 7), (7, 5), (12,))
GKZ_DIGITS = 60
GKZ_RELATION = (19348, 103650, 116088, -5197)
IDENTIFY = ((8, 80), (9, 90))  # (weight, digits): target against the Hoffman words

# periods: label -> (graph literal, samples, --match-weight or None, known period)
GRAPHS = {
    "K4": ("V=4; 1-2,1-3,1-4,2-3,2-4,3-4", 10 ** 7, 6, (6, 3)),
    "W4": ("V=5; 1-2,1-3,1-4,1-5,2-3,3-4,4-5,2-5", 4 * 10 ** 6, 10, (20, 5)),
    "W5": ("V=6; 1-2,1-3,1-4,1-5,1-6,2-3,3-4,4-5,5-6,2-6", 10 ** 6, None, (70, 7)),
}
HYPERCUBE_SAMPLES = 10 ** 8

# the speed-probe parts (speedprobe.py) that match each workload's own work:
# dict-of-Fraction rows for the exact layers, big floats for numerics and
# detect, masked numpy products for the periods.  Over six to eight
# sessions of one seed they left a coefficient of variation of 0.010, 0.017
# and 0.045 in the normalised wall time, against 0.041, 0.072 and 0.052 for
# the raw one; all parts together gave 0.018, 0.013 and 0.064-0.088.
PROBE_PARTS = {
    "exact-w10": ("interpreted", "fractions"),
    "numeric-w10": ("interpreted", "bigfloat-40", "bigfloat-300"),
    "periods": ("numpy",),
}


def compositions(weight):
    """All convergent compositions of ``weight`` (last part >= 2), sorted.

    Generated here, not by mzvtools, so the inputs do not change when the
    program does."""
    out = []

    def rec(prefix, left):
        if left == 0:
            if prefix[-1] >= 2:
                out.append(tuple(prefix))
            return
        for p in range(1, left + 1):
            prefix.append(p)
            rec(prefix, left - p)
            prefix.pop()

    rec([], weight)
    return sorted(out)


def is_hoffman(parts):
    return all(p in HOFFMAN_PARTS for p in parts)


def literal(parts):
    return "(%s)" % ",".join(str(p) for p in parts)


def parse(text):
    return tuple(int(p) for p in text.strip("()").split(",") if p)


def _request(kind, argv, **expect):
    return {"kind": kind, "argv": list(argv) + ["--json"], "expect": expect}


def _exact(rng):
    reqs = []
    for weight, count in ((10, DECOMPOSE_W10), (9, DECOMPOSE_W9)):
        pool = [c for c in compositions(weight) if not is_hoffman(c)]
        for parts in rng.sample(pool, count):
            reqs.append(_request("decompose", ["hoffman-decompose", literal(parts)],
                                 word=parts))
    reqs.append(_request("dims", ["dims", "--max", str(DIMS_MAX)], max=DIMS_MAX))
    return reqs


def _numeric(rng):
    reqs = [_request("hiprec", ["eval", literal(p), "--digits", str(HIPREC_DIGITS)],
                     word=p, digits=HIPREC_DIGITS)
            for p in (HIPREC_FIXED, rng.choice(HIPREC_POOL))]
    sweep = compositions(SWEEP_WEIGHT)
    rng.shuffle(sweep)
    reqs += [_request("sweep", ["eval", literal(p), "--digits", str(SWEEP_DIGITS)],
                      word=p, digits=SWEEP_DIGITS)
             for p in sweep]
    reqs.append(_request("identify", ["detect"] + [literal(p) for p in GKZ]
                         + ["--digits", str(GKZ_DIGITS)],
                         words=GKZ, relation=GKZ_RELATION))
    for weight, digits in IDENTIFY:
        target = rng.choice([c for c in compositions(weight) if not is_hoffman(c)])
        words = (target,) + tuple(c for c in compositions(weight) if is_hoffman(c))
        reqs.append(_request("identify", ["detect"] + [literal(p) for p in words]
                             + ["--digits", str(digits)], words=words))
    return reqs


def _periods(rng):
    seed = rng.randrange(2 ** 31)
    reqs = []
    for label, (graph, samples, match, _) in GRAPHS.items():
        argv = ["feynman", "period", graph, "--samples", str(samples),
                "--seed", str(seed)]
        if match:
            argv += ["--match-weight", str(match)]
        reqs.append(_request("period", argv, graph=label, samples=samples, seed=seed))
        reqs.append(_request("psi", ["feynman", "psi", graph], graph=label))
        reqs.append(_request("check", ["feynman", "check", graph], graph=label))
    reqs.append({"kind": "hypercube", "argv": None,
                 "expect": {"samples": HYPERCUBE_SAMPLES, "seed": seed}})
    return reqs


def make_requests(workload, seed):
    """The session's requests, in order; identical for identical arguments."""
    builders = {"exact-w10": _exact, "numeric-w10": _numeric, "periods": _periods}
    if workload not in builders:
        raise ValueError("unknown workload %r" % (workload,))
    return builders[workload](random.Random("%s/%d" % (workload, seed)))
