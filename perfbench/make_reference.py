"""Regenerate ``reference.json``, the frozen values the numeric checks use.

    PYTHONPATH=src python3 perfbench/make_reference.py

The values come from ``mzvtools.numerics.mzv_eval`` at more digits than the
workloads ask for.  They are written only after they pass checks that do
not rest on the evaluator:

* per depth, the weight-9 and weight-10 values sum to zeta(n), the sum
  theorem, with zeta(n) from mpmath;
* (3,9), (5,7) and (7,5) satisfy the GKZ relation with mpmath's zeta(12)
  at 300 digits;
* the evaluator reproduces the closed forms of zeta(4,4,4) and zeta({2}^6)
  at 300 digits, so its weight-12 depth >= 3 values rest on a tested
  kernel;
* every 300-digit value agrees with a second evaluation at 20 more digits.

Once frozen, a later change to the evaluator is checked against this
commit's values instead of against itself.
"""

from __future__ import annotations

import json
import os
import sys

from mpmath import factorial, mp, mpf, pi, zeta

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "reference.json")
LOW_WEIGHTS = (9, 10)
LOW_DIGITS = 45   # stored digits of the 40-digit words
HIGH_DIGITS = 305  # stored digits of the 300-digit words
GKZ_EXTRA = ((5, 7), (7, 5))


def load():
    with open(PATH) as handle:
        table = json.load(handle)
    return {name: {workloads.parse(k): v for k, v in values.items()}
            for name, values in table.items()}


def sum_theorem_misses(low):
    """Per (weight, depth), |sum of the values - zeta(weight)|."""
    out = {}
    with mp.workdps(LOW_DIGITS + 10):
        sums = {}
        for parts, text in low.items():
            key = (sum(parts), len(parts))
            sums[key] = sums.get(key, mpf(0)) + mpf(text)
        for (weight, depth), total in sums.items():
            out[(weight, depth)] = abs(total - zeta(weight))
    return out


def gkz_miss(high):
    with mp.workdps(HIGH_DIGITS + 10):
        total = sum(c * mpf(high[w]) for c, w in zip(workloads.GKZ_RELATION[:3],
                                                      workloads.GKZ[:3]))
        return abs(total + workloads.GKZ_RELATION[3] * zeta(12))


def main():
    from mzvtools.numerics import mzv_eval
    low = {}
    for weight in LOW_WEIGHTS:
        for parts in workloads.compositions(weight):
            low[parts] = mp.nstr(mzv_eval(parts, LOW_DIGITS + 5).value, LOW_DIGITS)
    misses = sum_theorem_misses(low)
    if len(misses) != sum(w - 1 for w in LOW_WEIGHTS) \
            or max(misses.values()) > mpf(10) ** -(LOW_DIGITS - 3):
        sys.exit("sum theorem fails: %s" % misses)

    digits = workloads.HIPREC_DIGITS
    high = {}
    for parts in (workloads.HIPREC_FIXED,) + GKZ_EXTRA + workloads.HIPREC_POOL:
        value = mzv_eval(parts, digits).value
        finer = mzv_eval(parts, digits + 20).value
        with mp.workdps(digits + 30):
            if abs(value - finer) > mpf(10) ** -digits:
                sys.exit("%s moves with the precision" % (parts,))
            high[parts] = mp.nstr(finer, HIGH_DIGITS)
    if gkz_miss(high) > mpf(10) ** -(digits - 10):
        sys.exit("GKZ relation fails: %s" % mp.nstr(gkz_miss(high), 3))
    with mp.workdps(digits + 10):
        for parts, closed in (((4, 4, 4), 2 ** 7 * pi ** 12 / factorial(14)),
                              ((2,) * 6, pi ** 12 / factorial(13))):
            if abs(mzv_eval(parts, digits).value - closed) > mpf(10) ** -(digits - 5):
                sys.exit("%s misses its closed form" % (parts,))

    table = {name: {workloads.literal(k): v for k, v in sorted(values.items())}
             for name, values in (("low", low), ("high", high))}
    with open(PATH, "w") as handle:
        json.dump(table, handle, indent=0)
        handle.write("\n")
    print("wrote %d + %d values to %s" % (len(low), len(high), PATH))


if __name__ == "__main__":
    main()
