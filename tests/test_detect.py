"""Integer-relation detection: LLL reduction properties, known relations
recovered with exact coefficient vectors, soundness re-checks at doubled
precision, and no-relation behavior on random inputs."""

import hashlib
import importlib
import json
import math
import random
import time
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from mzvtools import (BigReal, Composition, decompose_in_hoffman_basis, detect,
                      lll_reduce, mzv_eval)
from mzvtools.cli import main
from mzvtools.detect import _DELTA, MAX_LATTICE_WORK, _gram_schmidt_row
from mzvtools.relations import is_hoffman
from mzvtools.words import enumerate_compositions


def norm2(v):
    return sum(x * x for x in v)


def gram_det(basis):
    n = len(basis)
    g = [[sum(a * b for a, b in zip(basis[i], basis[j])) for j in range(n)]
         for i in range(n)]
    from mzvtools.linalg import bareiss_det
    return bareiss_det([[Fraction(x) for x in row] for row in g])


def test_lll_reduces_a_skewed_plane_basis():
    basis = [[1, 0, 0], [1601, 2, 0]]
    reduced = lll_reduce([row[:] for row in basis])
    # lattice preserved: Gram determinant is invariant
    assert gram_det(reduced) == gram_det(basis)
    # the short vector (1,0,0) must survive as the first basis vector
    assert norm2(reduced[0]) <= norm2(reduced[1])
    assert norm2(reduced[0]) == 1


def test_lll_output_spans_the_same_lattice():
    basis = [[4, 1, 0], [1, 3, 1], [0, 1, 5]]
    reduced = lll_reduce([row[:] for row in basis])
    assert gram_det(reduced) == gram_det(basis)
    # integer entries only
    assert all(isinstance(x, int) or x == int(x) for row in reduced for x in row)


def test_lll_first_vector_is_short():
    # quality bound: |b1|^2 <= 2^(n-1) * det^(2/n) for an n-dim lattice
    basis = [[12, 1, 0], [13, 0, 1], [25, 1, 1]]
    reduced = lll_reduce([row[:] for row in basis])
    det2 = gram_det(basis)
    n = 3
    assert Fraction(norm2(reduced[0])) ** n <= Fraction(2) ** (n * (n - 1) // 2) * det2


def gram_schmidt_by_vectors(basis):
    """Oracle: build each Gram-Schmidt vector over Fraction and read mu and
    the squared norms off the vectors; mu_ij stays 0 where B_j = 0."""
    n = len(basis)
    gs = []
    mu = [[Fraction(0)] * n for _ in range(n)]
    norms = []
    for i in range(n):
        v = [Fraction(x) for x in basis[i]]
        for j in range(i):
            if norms[j] == 0:
                continue
            mu[i][j] = sum(Fraction(basis[i][k]) * gs[j][k]
                           for k in range(len(v))) / norms[j]
            v = [v[k] - mu[i][j] * gs[j][k] for k in range(len(v))]
        gs.append(v)
        norms.append(sum(x * x for x in v))
    return mu, norms


def seeded_bases(seed, count):
    """Seeded integer bases of 1 to 7 rows with entries up to 10^30, two in
    three given an extra zero row or an extra combination of two rows."""
    rng = random.Random(seed)
    for trial in range(count):
        n, dim = rng.randint(1, 6), rng.randint(1, 7)
        span = rng.choice([2, 40, 10 ** 9, 10 ** 30])
        basis = [[rng.randint(-span, span) for _ in range(dim)]
                 for _ in range(n)]
        if trial % 3:
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            if trial % 3 == 1:
                s = t = 0
            a, b = rng.choice(basis), rng.choice(basis)
            basis.insert(rng.randrange(n + 1),
                         [s * x + t * y for x, y in zip(a, b)])
        yield basis


def test_gram_schmidt_from_inner_products_matches_the_vector_oracle():
    """The one-row step, run for every row in turn: mu and B agree exactly
    with the vector oracle, as Fractions."""
    dependent = 0
    for basis in seeded_bases(12, 450):
        mu, norms = [None] * len(basis), [None] * len(basis)
        for k in range(len(basis)):
            _gram_schmidt_row(basis, k, mu, norms)
        oracle_mu, oracle_norms = gram_schmidt_by_vectors(basis)
        assert mu == [row[:k] for k, row in enumerate(oracle_mu)]
        assert norms == oracle_norms
        assert all(type(x) is Fraction for x in norms)
        assert all(type(x) is Fraction for row in mu for x in row)
        dependent += 0 in norms
    assert dependent >= 300


def gram_schmidt_whole_basis(basis):
    """Oracle: mu and B of every row at once, from the inner products."""
    mu = [[Fraction(0)] * len(basis) for _ in basis]
    norms = []
    for i, row in enumerate(basis):
        for j in range(i):
            if norms[j]:
                dot = sum(x * y for x, y in zip(row, basis[j]))
                mu[i][j] = (dot - sum(mu[j][k] * mu[i][k] * norms[k]
                                      for k in range(j))) / norms[j]
        norms.append(Fraction(sum(x * x for x in row))
                     - sum(mu[i][k] ** 2 * norms[k] for k in range(i)))
    return mu, norms


def lll_reduce_whole_basis(basis):
    """Oracle: the textbook loop, which recomputes mu and B of the whole
    basis after every swap and never steps below k = 1."""
    b = [list(row) for row in basis]
    mu, norms = gram_schmidt_whole_basis(b)
    k = 1
    while k < len(b):
        for j in range(k - 1, -1, -1):
            q = mu[k][j]
            if abs(q) > Fraction(1, 2):
                r = int(q + Fraction(1, 2)) if q > 0 else -int(-q + Fraction(1, 2))
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                for i in range(j):
                    mu[k][i] -= r * mu[j][i]
                mu[k][j] -= r
        if norms[k] >= (_DELTA - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, norms = gram_schmidt_whole_basis(b)
            k = max(k - 1, 1)
    return b


def test_lll_reduce_matches_the_whole_basis_loop():
    """Exact arithmetic gives the one-row loop every mu and B of the
    whole-basis loop, so the reduced bases of 1 to 6 rows are identical,
    dependent and zero rows included."""
    bases = [basis for basis in seeded_bases(14, 150) if len(basis) <= 6]
    for basis in bases:
        assert lll_reduce(basis) == lll_reduce_whole_basis(basis)
    dependent = sum(0 in gram_schmidt_whole_basis(basis)[1] for basis in bases)
    assert len(bases) >= 120 and dependent >= len(bases) / 3


def test_lll_reduce_rounds_a_tie_half_away_from_zero():
    """After 42 swaps the rows are (2) and (-23), a tie mu_10 = -23/2: r
    rounds it half away from zero, to -12, as the whole-basis loop does, and
    leaves (1), where floor(mu_10 + 1/2) = -11 would leave (-1)."""
    basis = [[674138365610315206974941926100], [740586604295378442660996408213]]
    assert lll_reduce(basis) == lll_reduce_whole_basis(basis) == [[0], [1]]


def test_lll_reduce_swaps_past_a_zero_norm_like_the_whole_basis_loop():
    """B_1 = 0 when rows 0 and 1 swap: the rows are recomputed from inner
    products, so mu stays 0 against the zero norm, and the basis matches."""
    basis = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert lll_reduce(basis) == lll_reduce_whole_basis(basis) == [
        [0, 0, 0], [0, 1, 1], [1, -1, 0]]


@pytest.mark.parametrize("basis", [
    [[1, 2, 3], [4, 5]],       # a shorter later row
    [[1, 2], [3, 4, 5]],       # a longer later row
    [[1.5, 0], [0, 1]],        # a non-integral entry
    [[Fraction(1, 2), 0], [0, 1]],
])
def test_lll_reduce_rejects_ragged_or_non_integral_rows(basis):
    with pytest.raises(ValueError):
        lll_reduce(basis)


@pytest.mark.parametrize("x", [float("inf"), float("-inf"), float("nan")])
def test_lll_reduce_rejects_non_finite_entries(x):
    # an infinity used to escape as OverflowError from int()
    with pytest.raises(ValueError, match="lll_reduce entry must be an integer"):
        lll_reduce([[x, 0], [0, 1]])


def test_lll_reduce_keeps_empty_and_one_row_bases():
    assert lll_reduce([]) == []
    assert lll_reduce([(3, -4)]) == [[3, -4]]
    assert lll_reduce([(3.0, Fraction(-4))]) == [[3, -4]]


def relation_lattice(scaled):
    """The rows (e_i | scaled_i) that ``detect`` reduces."""
    m = len(scaled)
    return [[int(i == j) for j in range(m)] + [x] for i, x in enumerate(scaled)]


# round(10^(digits - 10) * value) for zeta(3,9), zeta(5,7), zeta(7,5) and
# zeta(12) at 60 digits, the inputs ``detect`` builds the GKZ lattice from
GKZ_SCALED = [
    201547801088202946783053145858135503874776651437,
    836639918876867807817029942591870889256229149327,
    3697286685399974965596861878658428809159869333539,
    100024608655330804829863799804773967096041608845800,
]
# the same at 90 digits for zeta(2,7) and the weight-9 Hoffman words
# (2,2,2,3), (2,2,3,2), (2,3,2,2), (3,2,2,2), (3,3,3)
W9_SCALED = [
    849378161496168123420016096753237677882922633847018127034813207049815160238308,
    252145209634629115340692364956593145934110762644221950459410290596688140280904,
    574119464149792340134031694820620623744160046255310643714008431159025384256561,
    1102451038854630138266348207974846549247058696483706587273553489970212261472734,
    2494882386737749496986825531238003616348207206427193893161440658368631885478754,
    1203418257441200386159968442169374050578495449927966027410860750504336897522973,
]
# the same at 250 digits for zeta(1,10) and the nine weight-11 Hoffman words
# (2,2,2,2,3), (2,2,2,3,2), (2,2,3,2,2), (2,3,2,2,2), (2,3,3,3), (3,2,2,2,2),
# (3,2,3,3), (3,3,2,3), (3,3,3,2), split into lines of 60 digits
W11_SCALED = [int(digits) for digits in (
    "100397698865156846826547406671172244554142954621344519774611"
    "291129036357100404710724265334259850733441332758156566050927"
    "204192336700761837334409214525282019947586329247501865376008"
    "2466182373742411096643813481385102911448934560034713272822",
    "156325060727446922272328349239456034388003808686121012863593"
    "232990058039333481052010449805799188260373436184341134933207"
    "464486629919388451451877811605456175074466813070727551332379"
    "895778632123680327690240166921966878030920839497232124784",
    "341640061399814422542518648356513846815922919629361633095915"
    "891147418709892897860458543199798151254069150029926059475705"
    "365103813094343913444484661228486604008661762856032090420478"
    "138461444566972845739439957932346712693097660675605233416",
    "598046234732587934161575835384748596845196801912079970928864"
    "223515761383506016925741707907498991569657621761762983897125"
    "287823036119350020064747536727118136705778678327241367279733"
    "271520234647751031879473464556895688620031299642476003244",
    "104500531024921803526019164144142793108532501165460865251730"
    "620615626780601145601314503002063992223779388326435557718818"
    "482362578028140226201419719621901171656072716578257948722011"
    "3901386117817242376756632522026454631036339064753119137757",
    "300034752180544489521269207021462738183027939143787134966199"
    "396996840910715544276391478294715107830735469951722233242528"
    "206951948400725494431621868107331917090001567558988987408184"
    "187208543610868578699522179176360980846182153317127647600",
    "227065945982965019992879247873984842038397777542168393845797"
    "155217859119043971424066347138365038437963445322065459160329"
    "290740951295132161732224354899652192222344364748945938274531"
    "4318505083809732372386766477711254263271579133183972442033",
    "633012035503953859787021231427733254081059350575906991765653"
    "481279881313942930197751361227620528731762316726502941093985"
    "975410527256443149550769254157148596370024162597705631486048"
    "330494543170369053384100208244239099166967871597617999067",
    "110407532202752449368141296353443262999316914280528122952352"
    "522931903445644075526313775142658800478884255540607212445203"
    "670507531198053250212496502875100863465791213470063424781114"
    "0702362378942360997438619283182618874805809785241039267849",
    "252826301314403153812930895691693973702264576852881099447422"
    "787790268615751212006410455809706927747119799898026620247156"
    "328274591029753916992622793995587485294532687541237503254768"
    "7930933200598166733480843637673416565243202375800956034702",
)]


def test_lll_reduced_bases_are_frozen():
    """Exact LLL is deterministic: these reduced bases, the dependent one
    included, stay bit-identical under any rewrite of the reduction."""
    assert lll_reduce(relation_lattice(GKZ_SCALED)) == [
        [19348, 103650, 116088, -5197, -542],
        [-345413807817948, 25960702334679, 31541920219484, -687049807516,
         -603377369539167],
        [-418057048545127, -493172822654193, 510689916148286, -13909581820369,
         279203373488344],
        [-730609652280642, 419040715789873, -249112444270747, 7175301272602,
         630035353870884],
    ]
    reduced = lll_reduce(relation_lattice(W9_SCALED))
    assert hashlib.sha256(repr(reduced).encode()).hexdigest() == (
        "58afaf4f231895d26c22e05878d1e034e7904dcf38c49ac41de986dd3e9aba68")
    assert lll_reduce([[12, 1, 0], [13, 0, 1], [25, 1, 1]]) == [
        [0, 0, 0], [1, -1, 1], [8, 5, -4]]


def test_a_ten_row_reduced_basis_is_frozen():
    """Ten rows reduce with many swaps below the furthest row reached, each
    of which updates the rows past it; the digest was taken from the loop
    that recomputed row k from inner products at every visit."""
    reduced = lll_reduce(relation_lattice(W11_SCALED))
    assert hashlib.sha256(repr(reduced).encode()).hexdigest() == (
        "a44fed24f019c55732e90d82b361d15ccd2e4011f3390d41392b9e42b9c170aa")


def test_weight_ten_decomposition_found_numerically():
    """(1,9) against the seven weight-10 Hoffman words: the relation found
    at 160 digits is the exact decomposition, of height about 6e10."""
    target = Composition((1, 9))
    basis = [c for c in enumerate_compositions(10) if is_hoffman(c)]
    assert len(basis) == 7
    result = detect([mzv_eval(c, 160) for c in [target] + basis], 160,
                    height_bound=10 ** 13)
    exact = decompose_in_hoffman_basis(target)
    scale = result.coefficients[0]
    assert [-Fraction(c, scale) for c in result.coefficients[1:]] == [
        exact.coeff(c) for c in basis]
    assert max(map(abs, result.coefficients)) > 10 ** 10


def test_euler_relation_detected():
    xs = [mzv_eval(Composition((1, 2)), 40), mzv_eval(Composition((3,)), 40)]
    result = detect(xs, 40)
    assert result.found
    assert result.coefficients == (1, -1)
    assert result.residual < result.threshold


def test_detected_relation_survives_doubled_precision():
    """Soundness: re-evaluate the detected combination at twice the digits."""
    xs = [mzv_eval(Composition((1, 2)), 40), mzv_eval(Composition((3,)), 40)]
    coeffs = detect(xs, 40).coefficients
    with mp.workdps(90):
        hi = [mzv_eval(Composition((1, 2)), 80).value,
              mzv_eval(Composition((3,)), 80).value]
        resid = abs(sum(c * v for c, v in zip(coeffs, hi)))
        assert resid < mpf(10) ** -75


def test_weight_five_sum_relation():
    # zeta(2,3) + zeta(3,2) + zeta(5) - zeta(2)*zeta(3) = 0
    with mp.workdps(50):
        prod = BigReal(mzv_eval(Composition((2,)), 40).value
                       * mzv_eval(Composition((3,)), 40).value, 40)
    xs = [mzv_eval(Composition((2, 3)), 40), mzv_eval(Composition((3, 2)), 40),
          mzv_eval(Composition((5,)), 40), prod]
    # four values at 40 digits need a height bound below the 10^6 default
    result = detect(xs, 40, height_bound=10 ** 3)
    assert result.found
    assert result.coefficients == (1, 1, 1, -1)


def test_depth_weight_twelve_vector():
    """The depth-2 weight-12 relation with its published coefficient vector."""
    xs = [mzv_eval(Composition(p), 60) for p in [(3, 9), (5, 7), (7, 5), (12,)]]
    result = detect(xs, 60)
    assert result.found
    assert result.coefficients == (19348, 103650, 116088, -5197)


def test_hoffman_ratio_pair():
    # zeta(2,3) - 3 zeta(2) zeta(3) against zeta(5): coefficients (2, 11)
    with mp.workdps(50):
        a = (mzv_eval(Composition((2, 3)), 40).value
             - 3 * mzv_eval(Composition((2,)), 40).value
             * mzv_eval(Composition((3,)), 40).value)
    result = detect([BigReal(a, 40), mzv_eval(Composition((5,)), 40)], 40)
    assert result.found
    assert result.coefficients == (2, 11)


def test_normalization_gcd_one_positive_leading():
    xs = [mzv_eval(Composition((1, 2)), 40), mzv_eval(Composition((3,)), 40)]
    c = detect(xs, 40).coefficients
    assert c[0] > 0
    assert math.gcd(*[abs(x) for x in c]) == 1


def test_scale_invariance():
    """Multiplying all inputs by a common rational preserves the relation."""
    with mp.workdps(50):
        scale = mpf(3) / 7
        xs = [BigReal(mzv_eval(Composition((1, 2)), 40).value * scale, 40),
              BigReal(mzv_eval(Composition((3,)), 40).value * scale, 40)]
    assert detect(xs, 40).coefficients == (1, -1)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_no_false_positive_on_random_reals(seed):
    """Independent random reals admit no small relation; detect must say so
    and report a meaningful exclusion floor."""
    import random
    rng = random.Random(seed)
    with mp.workdps(50):
        xs = [BigReal(mpf(rng.random()) + mpf(rng.random()) * mpf(10) ** -20, 40)
              for _ in range(3)]
    result = detect(xs, 40, height_bound=10 ** 3)
    assert not result.found
    assert result.coefficients is None
    assert result.height_floor > 10 ** 3


def test_precision_precondition_enforced():
    xs = [mzv_eval(Composition((1, 2)), 20), mzv_eval(Composition((3,)), 20)]
    with pytest.raises(ValueError):
        detect(xs, 20, height_bound=10 ** 12)


def test_inputs_below_requested_precision_rejected():
    xs = [mzv_eval(Composition((1, 2)), 25), mzv_eval(Composition((3,)), 60)]
    with pytest.raises(ValueError):
        detect(xs, 60)


def test_fraction_and_mpf_inputs_carry_the_working_precision():
    # a Fraction or raw mpf is trusted to mp.dps digits, too few by default
    xs = [Fraction(2, 3), mpf(1) / 3]
    with pytest.raises(ValueError, match="15 digits is too low"):
        detect(xs)
    with mp.workdps(60):
        result = detect([Fraction(2, 3), mpf(1) / 3])
    assert (result.coefficients, result.digits) == ((1, -2), 60)


def test_lattices_past_the_work_cap_are_refused_before_reduction(monkeypatch):
    # 50 values at 2000 digits would reduce for hours, and 6 values at 2000
    # digits took 45-57 s while the unit counted values^4 digits^2; the
    # README's (1,11) example, 13 values at 420 digits, stays below the cap
    monkeypatch.setattr(importlib.import_module("mzvtools.detect"), "lll_reduce", None)
    with mp.workdps(2000):
        xs = [BigReal(mp.sqrt(k), 2000) for k in range(2, 52)]
    start = time.perf_counter()
    for m, units in [(50, 10 ** 15), (6, 1728000000000)]:
        with pytest.raises(ValueError, match="reducing %d values at 2000 digits would take "
                           r"%d units of lattice work \(\(values x digits\)\^3\), more than "
                           "the cap MAX_LATTICE_WORK = %d" % (m, units, MAX_LATTICE_WORK)):
            detect(xs[:m])
    assert time.perf_counter() - start < 0.1
    assert (13 * 420) ** 3 <= MAX_LATTICE_WORK


def test_the_integer_digits_of_a_value_count_as_lattice_work(monkeypatch):
    # 1e99999 makes every lattice entry 99999 digits longer; reducing it
    # took seconds, and 1e999999 had not finished after a minute
    monkeypatch.setattr(importlib.import_module("mzvtools.detect"), "lll_reduce", None)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="reducing 2 values at 100039 digits would take "
                       "%d units of lattice work" % (2 * 100039) ** 3):
        detect([mpf("1e99999"), mpf(1)], 40)
    assert time.perf_counter() - start < 0.1


def test_only_digits_before_the_units_place_count(monkeypatch):
    # 10 values at 584 digits are 1.992e11 units of work, just below the cap;
    # a value of 10 or more adds a digit to every entry, 2.002e11 units
    class Reached(Exception):
        pass

    def reached(basis):
        raise Reached

    monkeypatch.setattr(importlib.import_module("mzvtools.detect"), "lll_reduce", reached)
    with mp.workdps(600):
        below_ten = [BigReal(mpf(-9.99) / k, 584) for k in range(1, 11)]
        with pytest.raises(Reached):
            detect(below_ten)
        with pytest.raises(ValueError, match="reducing 10 values at 585 digits would take "
                           "200201625000 units"):
            detect([BigReal(10, 584)] + below_ten[1:])


def test_needs_at_least_two_inputs():
    with pytest.raises(ValueError):
        detect([mzv_eval(Composition((2,)), 40)], 40)


def test_height_bound_excludes_large_relations():
    # the weight-12 vector has height 116088; a tight bound must reject it
    xs = [mzv_eval(Composition(p), 60) for p in [(3, 9), (5, 7), (7, 5), (12,)]]
    result = detect(xs, 60, height_bound=10 ** 4)
    assert not result.found


@pytest.mark.parametrize("bound", [0, -3])
def test_height_bound_below_one_is_named(bound):
    xs = [mzv_eval(Composition((1, 2)), 40), mzv_eval(Composition((3,)), 40)]
    with pytest.raises(ValueError, match="height_bound must be an integer >= 1"):
        detect(xs, 40, height_bound=bound)


def test_cli_height_bound_below_one_is_named(capsys):
    code = main(["detect", "(1,2)", "(3)", "--digits", "40", "--height-bound", "-3"])
    assert code == 1
    assert "height_bound must be an integer >= 1" in capsys.readouterr().err


def test_result_json_obj():
    xs = [mzv_eval(Composition((1, 2)), 40), mzv_eval(Composition((3,)), 40)]
    obj = detect(xs, 40).to_json_obj()
    assert obj["coefficients"] == [1, -1]
    assert obj["digits"] == 40
    assert "residual" in obj and "height_floor" in obj


def test_height_floor_stays_finite_when_b1_exceeds_float_range(capsys):
    """At 700 digits the first reduced vector of zeta(2), zeta(3) is longer
    than the largest float; the floor is capped there, not raised."""
    code = main(["detect", "(2)", "(3)", "--digits", "700", "--json"])
    result = json.loads(capsys.readouterr().out)["result"]
    assert code == 0
    assert result["coefficients"] is None
    assert math.isfinite(result["height_floor"])
    assert result["height_floor"] > 10 ** 300


@pytest.mark.parametrize("m", range(3, 9))
def test_planted_relation_agrees_with_pslq(m):
    """One primitive relation of height <= 1000 among m - 1 seeded random
    reals and their combination: detect and mpmath.pslq both find it."""
    rng = random.Random(m)
    digits = 50 + 6 * m
    coeffs = [rng.randint(-1000, 1000) for _ in range(m - 1)]
    coeffs.append(rng.randint(1, 1000))
    planted = [c // math.gcd(*coeffs) for c in coeffs]
    with mp.workdps(digits + 20):
        xs = [mpf(rng.random()) + mpf(rng.random()) * mpf(10) ** -17
              for _ in range(m - 1)]
        xs.append(-sum(c * x for c, x in zip(planted, xs)) / planted[-1])
    result = detect([BigReal(x, digits) for x in xs], digits,
                    height_bound=10 ** 3)
    assert result.found and result.residual < result.threshold
    with mp.workdps(digits):
        found = mp.pslq(xs, maxcoeff=10 ** 4, maxsteps=10 ** 5)
    g = math.gcd(*found)
    assert list(result.coefficients) in ([c // g for c in found],
                                         [-c // g for c in found])
    assert list(result.coefficients) in (planted, [-c for c in planted])
