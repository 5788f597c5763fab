"""Root-coefficient relations and ring elimination vs independent oracles."""

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from tateshift.ring_core import (
    BaseModulus,
    ExactPolyRing,
    FiniteAlgebra,
    zero_product_certificate,
)
from tateshift.ring_linalg import (
    DivisibilityFailure,
    LinalgError,
    NotATuple,
    NTuple,
    PivotNotCancellable,
    RootCoeffResult,
    VanishingVerdict,
    _one_in_ideal,
    gaussian_nzd_solve,
    is_ntuple,
    poly_from_roots,
    roots_to_coeffs,
    vandermonde_matrix,
    vanishing_condition,
    verify_localized_tuple,
    verify_tuple,
)
from tateshift.tate_blueshift import (
    multiplicative_euler_class_exact,
    multiplicative_exact_ring,
)

from oracles import (
    _det_berkowitz,
    _det_cofactor,
    det_division_free,
    eliminate_per_row,
    gcd_one_in_ideal,
    localized_witnesses_by_query,
    ntuple_by_pairs,
    small_ring,
    vandermonde_det,
)

Z = ExactPolyRing([], [])


def zmod_ring(n):
    return FiniteAlgebra.scalar_ring(BaseModulus(n))


def is_unit_upper_triangular(mat):
    """The reduced Vandermonde system has the zero vector as its only
    solution: ones on the diagonal and zeros below it."""
    return all(row[j] == (row[j].parent.one() if i == j else row[j].parent.zero())
               for i, row in enumerate(mat) for j in range(i + 1))


def field_rank(mat, p):
    """Independent oracle: rank of a matrix over the field Z/p."""
    m = [[x % p for x in row] for row in mat]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][c] % p:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        m[rank] = [(x * inv) % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


# -- n-tuples -----------------------------------------------------------------


def test_is_ntuple_z4():
    z4 = zmod_ring(4)
    ok, _ = is_ntuple([z4.from_int(0), z4.from_int(1)])
    assert ok  # difference 1 is a unit
    ok, pair = is_ntuple([z4.from_int(0), z4.from_int(2)])
    assert not ok and pair == (0, 1)  # 2 is a zero divisor


def test_is_ntuple_square_zero_generators():
    # x1 - x2 kills x1 + x2 in Z[x1,x2]/(x1^2, x2^2)
    ring = ExactPolyRing(["x1", "x2"], [[0, 0, 1], [0, 0, 1]])
    ok, pair = is_ntuple([ring.gen(0), ring.gen(1)])
    assert not ok and pair == (0, 1)


def test_is_ntuple_with_root_check():
    z7 = zmod_ring(7)
    f = [z7.from_int(2), z7.from_int(-3), z7.from_int(1)]  # x^2 - 3x + 2
    ok, _ = is_ntuple([z7.from_int(1), z7.from_int(2)], f)
    assert ok
    ok, pair = is_ntuple([z7.from_int(1), z7.from_int(3)], f)
    assert not ok and pair == (1, 1)  # 3 is not a root


# Z/N for N prime, a prime power and composite, the local tower
# Z/9[t]/(t^2 + 3), and the domains Z and Z[x]/(x^2 - 3), each with the
# range its coordinates are drawn from
Z9T = FiniteAlgebra.from_presentation(BaseModulus(9), ["t"], [[3, 0, 1]])
TUPLE_RINGS = [
    (zmod_ring(7), st.integers(0, 6)),
    (zmod_ring(8), st.integers(0, 7)),
    (zmod_ring(12), st.integers(0, 11)),
    (Z9T, st.integers(0, 8)),
    (Z, st.integers(-6, 6)),
    (ExactPolyRing(["x"], [[-3, 0, 1]]), st.integers(-3, 3)),
]


@st.composite
def tuple_cases(draw):
    """(elements, f): f is None, zero, or g * prod (y - r) with the roots r
    the elements themselves or other draws, so both the pair check and the
    root check fail in some cases."""
    ring, coord = draw(st.sampled_from(TUPLE_RINGS))
    vector = st.lists(coord, min_size=ring.rank, max_size=ring.rank).map(tuple)
    element = vector.map(ring.from_coords)
    elements = [ring.from_coords(v) for v in draw(st.lists(vector, max_size=5, unique=True))]
    if elements and draw(st.integers(0, 3)) == 3:  # a repeated element
        elements.insert(draw(st.integers(0, len(elements))), draw(st.sampled_from(elements)))
    kind = draw(st.sampled_from(["own roots", "none", "zero", "other roots"]))
    if kind == "none":
        return elements, None
    if kind == "zero":
        return elements, [ring.zero()] * draw(st.integers(1, 4))
    roots = elements if kind == "own roots" else draw(st.lists(element, max_size=4))
    g = draw(st.lists(element, max_size=2)) + [ring.one()]
    f = [ring.zero()] * (len(roots) + len(g))
    for i, a in enumerate(poly_from_roots(roots, ring.one())):
        for j, b in enumerate(g):
            f[i + j] = f[i + j] + a * b
    return elements, f


def outcome(run, f, tup):
    """What run(f, tup) returns, as comparable values, or the error it raises."""
    try:
        out = run(f, tup)
    except LinalgError as exc:
        return type(exc), str(exc)
    if isinstance(out, VanishingVerdict):
        return out.verdict, out.details
    return out.case, out.recovered, out.witnesses, out.factorization


# a Cramer tuple of the local tower: differences 1, 2 + t, 1 + t are units;
# random draws rarely find three roots with unit differences there
Z9T_ROOTS = [Z9T.zero(), Z9T.one(), 2 * Z9T.one() + Z9T.gen(0)]


@settings(max_examples=120, deadline=None, derandomize=True)
@example((Z9T_ROOTS, poly_from_roots(Z9T_ROOTS + [Z9T.gen(0)], Z9T.one())))
@example((Z9T_ROOTS, None))
@given(tuple_cases())
def test_tuple_check_matches_pairwise_oracle(case):
    # the one tuple check against the pairwise is_nzd path: the same verdict
    # and offending pair, and for a valid tuple its kept dividers give what
    # a tuple built by hand (checked afresh) and the per-row elimination give
    elements, f = case
    ok, pair = ntuple_by_pairs(elements, f)
    assert is_ntuple(elements, f) == (ok, pair)
    if not ok:
        with pytest.raises(NotATuple) as exc:
            verify_tuple(elements, f)
        assert exc.value.pair == pair
        return
    tup = verify_tuple(elements, f)
    assert len(tup.dividers) == len(elements) * (len(elements) - 1) // 2
    assert gaussian_nzd_solve(tup) == gaussian_nzd_solve(elements) \
        == eliminate_per_row(elements)
    if f is None:
        return
    by_hand = NTuple(elements, f_coeffs=f)
    # another f is evaluated at the roots again: f + 1 has none of them
    other = [f[0] + f[-1].parent.one()] + f[1:]
    for run in (roots_to_coeffs, vanishing_condition):
        assert outcome(run, f, tup) == outcome(run, f, by_hand)
        assert outcome(run, other, tup) == outcome(run, other, by_hand)


def test_tuple_built_by_hand_is_checked_for_roots():
    # only verify_tuple's tuple, against its own f, skips the root check
    z7 = zmod_ring(7)
    f = [z7.from_int(2), z7.from_int(-3), z7.from_int(1)]  # roots 1 and 2
    elements = [z7.from_int(1), z7.from_int(3)]
    for tup in (NTuple(elements), NTuple(elements, f_coeffs=f),
                verify_tuple(elements), verify_tuple(elements, [z7.zero()] * 3)):
        for run in (roots_to_coeffs, vanishing_condition):
            with pytest.raises(NotATuple, match="element 1 is not a root of f"):
                run(f, tup)
    with pytest.raises(TypeError):  # no constructor call marks a tuple checked
        NTuple(elements, f_coeffs=f, dividers={})


# -- determinants ---------------------------------------------------------------


def test_vandermonde_det_examples():
    assert vandermonde_det([5]) == 1  # empty product
    assert vandermonde_det([0, 1, 2]) == 2  # (1-0)(2-0)(2-1)
    z7 = zmod_ring(7)
    d = vandermonde_det([z7.from_int(1), z7.from_int(2)])
    assert d == z7.from_int(1)


def test_det_division_free_examples():
    z5 = zmod_ring(5)
    ident = [[z5.from_int(1 if i == j else 0) for j in range(3)] for i in range(3)]
    assert det_division_free(ident) == z5.from_int(1)
    mat = [[z5.from_int(1), z5.from_int(1)], [z5.from_int(1), z5.from_int(4)]]
    assert det_division_free(mat) == z5.from_int(3)


def test_vandermonde_cross_check_random():
    # two independent computations: product formula vs division-free determinant
    # over Z, as ExactPolyRing([], []); sizes past 5 take Berkowitz
    rng = random.Random(41)
    for _ in range(40):
        size = rng.randrange(1, 8)
        ts = [rng.randrange(-9, 10) * Z.one() for _ in range(size)]
        assert det_division_free(vandermonde_matrix(ts), one=Z.one()) == vandermonde_det(ts)
    z12 = zmod_ring(12)
    for _ in range(25):
        size = rng.randrange(1, 5)
        ts = [z12.from_int(rng.randrange(12)) for _ in range(size)]
        assert det_division_free(vandermonde_matrix(ts)) == vandermonde_det(ts)


def test_berkowitz_matches_cofactor():
    rng = random.Random(43)
    for _ in range(15):
        size = rng.randrange(2, 7)
        mat = [[rng.randrange(-6, 7) for _ in range(size)] for _ in range(size)]
        assert _det_berkowitz(mat) == _det_cofactor(mat)


def test_det_division_free_large_uses_berkowitz():
    rng = random.Random(44)
    mat = [[rng.randrange(-4, 5) for _ in range(6)] for _ in range(6)]
    assert det_division_free(mat) == _det_cofactor(mat)


# -- elimination ------------------------------------------------------------------


def test_gaussian_nzd_solve_single():
    z7 = zmod_ring(7)
    trace = gaussian_nzd_solve(verify_tuple([z7.from_int(1)]))
    assert trace == [[[z7.one()]]]


def test_gaussian_nzd_solve_z7_trace():
    z7 = zmod_ring(7)
    ts = [z7.from_int(0), z7.from_int(1), z7.from_int(2)]
    trace = gaussian_nzd_solve(verify_tuple(ts))
    assert len(trace) == 3 and is_unit_upper_triangular(trace[-1])

    def coords(mat):
        return [[e.coords[0] for e in row] for row in mat]

    # after stage 1 the rows follow the (0, 1, t_1 + t_i) pattern
    assert coords(trace[1]) == [[1, 0, 0], [0, 1, 1], [0, 1, 2]]
    assert coords(trace[2]) == [[1, 0, 0], [0, 1, 1], [0, 0, 1]]


def test_gaussian_nzd_solve_matches_field_rank_oracle():
    rng = random.Random(47)
    for p in (7, 101):
        ring = zmod_ring(p)
        for _ in range(25):
            size = rng.randrange(1, 5)
            vals = rng.sample(range(p), size)
            ts = [ring.from_int(v) for v in vals]
            trace = gaussian_nzd_solve(verify_tuple(ts))
            assert is_unit_upper_triangular(trace[-1])
            assert field_rank(
                [[pow(v, j, p) for j in range(size)] for v in vals], p
            ) == size


def test_gaussian_nzd_solve_bad_tuple_raises():
    z4 = zmod_ring(4)
    with pytest.raises(PivotNotCancellable):
        gaussian_nzd_solve([z4.from_int(0), z4.from_int(2)])


# -- root-coefficient relations ------------------------------------------------------


def test_roots_to_coeffs_all_zero_case():
    z7 = zmod_ring(7)
    f = [z7.zero()]  # the zero polynomial, m = 0
    tup = verify_tuple([z7.from_int(1), z7.from_int(2)], f)
    out = roots_to_coeffs(f, tup)
    assert out.case == "AllZero"


def test_roots_to_coeffs_vieta_z7():
    z7 = zmod_ring(7)
    f = [z7.from_int(2), z7.from_int(4), z7.from_int(1)]  # x^2 - 3x + 2, -3 = 4
    tup = verify_tuple([z7.from_int(1), z7.from_int(2)], f)
    out = roots_to_coeffs(f, tup)
    assert out.case == "Vieta"
    assert out.recovered[0] == z7.from_int(2)
    assert out.recovered[1] == z7.from_int(4)
    assert [c.coords[0] for c in out.factorization] == [2, 4, 1]


def test_roots_to_coeffs_cramer_z5_worked_example():
    # f = x^3 - x over Z/5 with tuple {1, 4}: beta = (4, 1), det V = 3,
    # a_0 = det([beta|a1])/3 = 0, a_1 = det([a0|beta])/3 = 4
    z5 = zmod_ring(5)
    f = [z5.from_int(0), z5.from_int(4), z5.from_int(0), z5.from_int(1)]
    tup = verify_tuple([z5.from_int(1), z5.from_int(4)], f)
    out = roots_to_coeffs(f, tup)
    assert out.case == "Cramer"
    assert out.witnesses["det_vandermonde"] == z5.from_int(3)
    assert [c.coords[0] for c in out.recovered] == [0, 4]


def test_cramer_witnesses_match_oracle_determinants():
    # every Cramer output against the division-free expansions: det V, each
    # det V_i (column i replaced by beta) and the recovered a_0..a_(n-1).
    # One draw a size; sizes past 5 take the oracle's Berkowitz path.  A local
    # ring's tuples are no larger than its residue field, Z/12's than min(2, 3)
    rng = random.Random(71)
    z9t = FiniteAlgebra.from_presentation(BaseModulus(9), ["t"], [[3, 0, 1]])
    rings = [
        (zmod_ring(101), lambda: rng.randrange(101), 8),
        (zmod_ring(12), lambda: rng.randrange(12), 2),
        (z9t, lambda: rng.randrange(9) * z9t.one() + rng.randrange(9) * z9t.gen(0), 3),
        (Z, lambda: rng.randrange(-20, 21), 8),
    ]
    for ring, draw, largest in rings:
        one = ring.one()
        for n in range(1, largest + 1):
            roots = []
            while len(roots) < n:
                r = draw() * one
                if all(ring.divider(r - s).nzd for s in roots):
                    roots.append(r)
            g = [draw() * one for _ in range(rng.randrange(1, 4))] + [one]
            f = [ring.zero()] * (n + len(g))
            for i, a in enumerate(poly_from_roots(roots, one)):
                for j, b in enumerate(g):
                    f[i + j] = f[i + j] + a * b
            out = roots_to_coeffs(f, verify_tuple(roots, f))
            assert out.case == "Cramer"
            assert out.recovered == f[:n]
            vmat = vandermonde_matrix(roots)
            det_v = det_division_free(vmat, one=one)
            assert out.witnesses["det_vandermonde"] == det_v
            beta = []  # beta_r = -sum_(k >= n) f_k r^k
            for r, row in zip(roots, vmat):
                acc, power = ring.zero(), row[-1]
                for k in range(n, len(f)):
                    power = power * r
                    acc = acc - f[k] * power
                beta.append(acc)
            column_dets = out.witnesses["column_dets"]
            assert len(column_dets) == n
            for i, det_i in enumerate(column_dets):
                vi = [row[:i] + [b] + row[i + 1:] for row, b in zip(vmat, beta)]
                assert det_i == det_division_free(vi, one=one), (n, i)


def test_roots_to_coeffs_vieta_random_split_polys():
    # oracle: build f by direct expansion from random distinct roots
    rng = random.Random(53)
    p = 101
    ring = zmod_ring(p)
    for _ in range(100):
        size = rng.randrange(1, 5)
        roots = [ring.from_int(v) for v in rng.sample(range(p), size)]
        f = poly_from_roots(roots, ring.one())
        out = roots_to_coeffs(f, verify_tuple(roots, f))
        assert out.case == "Vieta"
        for got, expect in zip(out.recovered, f):
            assert got == expect


def test_generalized_vandermonde_divisibility_integers():
    # det(alpha_0, alpha_{i_1}, ..., alpha_{i_{n-1}}) is divisible by det V:
    # exact integer check, 200 random instances
    rng = random.Random(59)
    for _ in range(200):
        n = rng.randrange(2, 5)
        ts = rng.sample(range(-12, 13), n)
        exps = sorted(rng.sample(range(1, 7), n - 1))
        cols = [[t**0 for t in ts]] + [[t**e for t in ts] for e in exps]
        mat = [[cols[c][r] for c in range(n)] for r in range(n)]
        det_g = det_division_free(mat)
        det_v = vandermonde_det(ts)
        assert det_g % det_v == 0


def test_polynomial_maps_injective_with_tuple():
    # distinct polynomials of degree <= n-1 differ somewhere on an n-tuple
    rng = random.Random(61)
    p = 101
    ring = zmod_ring(p)
    for _ in range(50):
        n = rng.randrange(2, 5)
        ts = [ring.from_int(v) for v in rng.sample(range(p), n)]
        verify_tuple(ts)
        c1 = [ring.from_int(rng.randrange(p)) for _ in range(n)]
        c2 = [ring.from_int(rng.randrange(p)) for _ in range(n)]
        if all((a - b).is_zero() for a, b in zip(c1, c2)):
            continue
        from tateshift.ring_linalg import poly_eval_elems

        assert any(
            not (poly_eval_elems(c1, t) - poly_eval_elems(c2, t)).is_zero()
            for t in ts
        )


# -- vanishing condition ---------------------------------------------------------------


def test_vanishing_condition_rejects_non_roots():
    z4 = zmod_ring(4)
    f = [z4.zero(), z4.zero(), z4.one()]  # x^2
    with pytest.raises(NotATuple):
        vanishing_condition(f, verify_tuple([z4.from_int(0), z4.from_int(1)], f))


def test_vanishing_condition_localized_morava_pattern():
    # F_2[x]/(x^2): f(y) = y with roots {0, x} certified in the localization
    # at x; n = 2 > m = 1 and the coefficient 1 generates, so R must vanish
    alg = FiniteAlgebra.from_presentation(BaseModulus(2), ["x"], [[0, 0, 1]])
    x = alg.gen(0)
    f = [alg.zero(), alg.one()]
    tup = verify_localized_tuple([x], [alg.zero(), x], f, max_len=4)
    verdict = vanishing_condition(f, tup)
    assert verdict.verdict == VanishingVerdict.MUST_BE_ZERO
    assert tup.witnesses["pairs"][(0, 1)]["word"] == [0]


def test_localized_cramer_failure_is_a_divisibility_failure():
    # F_2[x]/(x^2) inverting x: {0, x} is a localized tuple of f(y) = y, but
    # x is a zero divisor of the ring itself, so the Cramer case (n = 2 <
    # m = 3) cannot be solved there; only the class is pinned, not the text
    alg = FiniteAlgebra.from_presentation(BaseModulus(2), ["x"], [[0, 0, 1]])
    x = alg.gen(0)
    f = [alg.zero(), alg.one(), alg.zero(), alg.zero()]
    tup = verify_localized_tuple([x], [alg.zero(), x], f, max_len=4)
    with pytest.raises(DivisibilityFailure):
        roots_to_coeffs(f, tup)


def test_vanishing_condition_inconclusive_without_unit():
    z4 = zmod_ring(4)
    # f = 2x + 2x^2 ... over Z/4 take f with non-unit coefficients: 2x(1+x)
    f = [z4.zero(), z4.from_int(2), z4.from_int(2)]
    # roots 0 and 1? f(1) = 2 + 2 = 0 mod 4; difference 1 is a unit
    tup = verify_tuple([z4.from_int(0), z4.from_int(1)], f + [z4.zero()])
    verdict = vanishing_condition(f + [z4.zero()], tup)
    assert verdict.verdict == VanishingVerdict.INCONCLUSIVE


def test_vanishing_condition_exact_ku_pattern_p2():
    # Z[x1,x2]/((1+x1)^2-1, (1+x2)^2-1): f(y) = y + 2 with roots x1, x2
    # certified in the localization; n = 2 > m = 1, coefficient 1 generates
    ring = ExactPolyRing(["x1", "x2"], [[0, 2, 1], [0, 2, 1]])
    x1, x2 = ring.gen(0), ring.gen(1)
    sum_class = x1 + x2 + x1 * x2
    gens = [x1, x2, sum_class]
    f = [2 * ring.one(), ring.one()]
    tup = verify_localized_tuple(gens, [x1, x2], f, max_len=4)
    verdict = vanishing_condition(f, tup)
    assert verdict.verdict == VanishingVerdict.MUST_BE_ZERO


def test_localized_tuple_ku_p5_witnesses_replay():
    # Z[(Z/5)^2] inverting every nonzero class: f(y) = ((y+1)^5 - 1)/y with
    # roots the classes of (1,0), .., (4,0), (0,1)
    p = 5
    ring = multiplicative_exact_ring(p, [1, 1])
    nonzero = [w for w in itertools.product(range(p), repeat=2) if any(w)]
    gens = [multiplicative_euler_class_exact(ring, w) for w in nonzero]
    roots = [multiplicative_euler_class_exact(ring, (w, 0)) for w in range(1, p)]
    roots.append(multiplicative_euler_class_exact(ring, (0, 1)))
    f = [math.comb(p, k + 1) * ring.one() for k in range(p)]
    tup = verify_localized_tuple(gens, roots, f, max_len=4)

    def product(word):
        out = ring.one()
        for idx in word:
            out = out * gens[idx]
        return out

    pairs = tup.witnesses["pairs"]
    assert sorted(pairs) == list(itertools.combinations(range(len(roots)), 2))
    for (i, j), witness in pairs.items():
        assert witness["unit"] * product(witness["word"]) == roots[i] - roots[j]
        assert ring.is_unit(witness["unit"])
    kills = tup.witnesses["roots"]
    assert sorted(kills) == list(range(len(roots)))
    for i, witness in kills.items():
        value = f[-1]
        for c in reversed(f[:-1]):
            value = value * roots[i] + c
        assert witness["word"] and (product(witness["word"]) * value).is_zero()
    assert vanishing_condition(f, tup).verdict == VanishingVerdict.MUST_BE_ZERO
    assert witnesses_of(tup) == localized_witnesses_by_query(gens, roots, f, 4)


def witnesses_of(tup):
    return {key: tup.witnesses[key] for key in ("pairs", "roots")}


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (7, 1)])
def test_localized_tuple_witnesses_match_per_query_search(p, n):
    # the Morava tuple: under the height-n Honda law on Z/p the classes of
    # Z/p are a tuple of f(y) = y once the nonzero classes are inverted;
    # one replayed enumeration finds each query's first match
    alg_ring = small_ring("honda", p, n, (1,))
    classes = [alg_ring.euler_class((w,)).value for w in range(p)]
    f = [alg_ring.algebra.zero(), alg_ring.algebra.one()]
    tup = verify_localized_tuple(classes[1:], classes, f, max_len=p**n)
    assert witnesses_of(tup) == localized_witnesses_by_query(
        classes[1:], classes, f, p**n)


def test_localized_tuple_names_structured_units_only():
    # Z[(Z/2)^3] = Z[x1,x2,x3]/(x_k^2 + 2 x_k): x1 * y = 2 x1 is solvable,
    # but every solution is 2 at the character with 1 + x1 -> -1, so none is
    # a unit; the exact ring tries only its structured units and says so
    ring = multiplicative_exact_ring(2, [1, 1, 1])
    x1 = ring.gen(0)
    with pytest.raises(NotATuple, match="length 1; only structured units were tried"):
        verify_localized_tuple([x1], [x1 * 2, ring.zero()], max_len=1)
    with pytest.raises(NotATuple, match="within products of length 1"):
        verify_localized_tuple([x1], [ring.one(), ring.zero()], max_len=1)


def test_localized_tuple_over_non_local_ring():
    # Z/6[x]/(x^6) is not local.  4 = 2 * 5 with 5 a unit, so [4, 0] is a
    # tuple once 2 is inverted: the solutions of 2 y = 4 are 2 plus the
    # kernel 3 R, and the unit among them is 5 = 2 + 3
    alg = FiniteAlgebra.from_presentation(BaseModulus(6), ["x"], [[0] * 6 + [1]])
    tup = verify_localized_tuple([alg.from_int(2)], [alg.from_int(4), alg.zero()],
                                 max_len=1)
    assert tup.witnesses["pairs"] == {(0, 1): {"word": [0], "unit": alg.from_int(5)}}
    # with 2 as well, 3 f(y) = 3 + 3 y^2 is 3 at each root and dies by 2;
    # each pair's first unit multiple is of 2, not of 4 = 2 * 2
    x = alg.gen(0)
    gens, roots = [alg.from_int(2), 2 * x], [alg.from_int(4), alg.zero(), alg.from_int(2)]
    f = [alg.from_int(3), alg.zero(), alg.from_int(3)]
    tup = verify_localized_tuple(gens, roots, f, max_len=3)
    assert witnesses_of(tup) == localized_witnesses_by_query(gens, roots, f, 3)


def test_localized_tuple_needs_positive_max_len():
    # F_2[x]/(x^2): 1 + x is a unit, so only the length bound can refuse
    alg = FiniteAlgebra.from_presentation(BaseModulus(2), ["x"], [[0, 0, 1]])
    gens = [alg.one() + alg.gen(0)]
    for max_len in (0, -3):
        with pytest.raises(ValueError, match="max_len must be >= 1"):
            verify_localized_tuple(gens, [alg.one(), alg.zero()], max_len=max_len)
        with pytest.raises(ValueError, match="max_len must be >= 1"):
            zero_product_certificate(gens, max_len)


def test_z_module_contains_matches_gcd():
    # Z is ExactPolyRing([], []): 1 lies in the ideal of integers exactly
    # when their gcd is 1
    rng = random.Random(67)
    one = Z.one()
    for _ in range(200):
        gens = [rng.choice((0, rng.randrange(-30, 31))) for _ in range(rng.randrange(5))]
        expected = gcd_one_in_ideal(gens)
        assert Z.module_contains([g * one for g in gens], one) == expected, gens
        if gens:
            assert _one_in_ideal([g * one for g in gens]) == expected, gens
