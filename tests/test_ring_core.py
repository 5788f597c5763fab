"""FiniteAlgebra / ExactPolyRing decision procedures vs brute-force oracles."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from tateshift import zmod
from tateshift.ring_core import (
    BaseModulus,
    CertificateNotFound,
    ExactPolyRing,
    FiniteAlgebra,
    NotDivisible,
    ZERO_RING,
    ZeroDivisorDivisor,
    annihilator,
    ideal_module_rows,
    integer_solve,
    is_unit,
    localize_by_saturation,
    project_element,
    zero_product_certificate,
)
from tateshift.tate_blueshift import multiplicative_exact_ring

from oracles import (
    is_nzd,
    square_then_scan_index,
    unit_cofactors_by_enumeration,
    units_by_enumeration,
)


def algebra_z4_x2_plus_2x():
    # Z/4[x]/(x^2 + 2x)
    return FiniteAlgebra.from_presentation(BaseModulus(4), ["x"], [[0, 2, 1]])


def algebra_f2_x2():
    return FiniteAlgebra.from_presentation(BaseModulus(2), ["x"], [[0, 0, 1]])


def algebra_z4_x2():
    return FiniteAlgebra.from_presentation(BaseModulus(4), ["x"], [[0, 0, 1]])


def brute_annihilator(alg, e):
    return {r.coords for r in alg.elements() if (e * r).is_zero()}


def span_of(alg, elements):
    if not elements:
        return {tuple([0] * alg.rank)}
    n = alg.base.n
    out = set()
    for coeffs in itertools.product(range(n), repeat=len(elements)):
        acc = alg.zero()
        for c, e in zip(coeffs, elements):
            acc = acc + c * e
        out.add(acc.coords)
    return out


def test_presentation_axioms_exhaustive_small():
    # associativity and commutativity on all basis triples, rank <= 16
    for alg in (algebra_z4_x2_plus_2x(), algebra_f2_x2(),
                FiniteAlgebra.from_presentation(
                    BaseModulus(4), ["x", "y"], [[0, 2, 1], [0, 0, 1]])):
        assert alg.rank <= 16
        basis = [alg.from_coords([1 if i == j else 0 for j in range(alg.rank)])
                 for i in range(alg.rank)]
        for a in basis:
            for b in basis:
                assert a * b == b * a
                for c in basis:
                    assert (a * b) * c == a * (b * c)


def test_axioms_sampled_bigger_ring():
    # rank 32 > 16: sample >= 1000 random triples
    alg = FiniteAlgebra.from_presentation(
        BaseModulus(2), ["x", "y"], [[0, 0, 0, 0, 1], [0] * 8 + [1]]
    )
    assert alg.rank == 32
    rng = random.Random(7)
    for _ in range(1000):
        a = alg.from_coords([rng.randrange(2) for _ in range(alg.rank)])
        b = alg.from_coords([rng.randrange(2) for _ in range(alg.rank)])
        c = alg.from_coords([rng.randrange(2) for _ in range(alg.rank)])
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_annihilator_of_zero_is_whole_ring():
    alg = algebra_f2_x2()
    gens = annihilator(alg.zero())
    assert span_of(alg, gens) == {e.coords for e in alg.elements()}


def test_annihilator_of_identity_trivial():
    alg = algebra_z4_x2_plus_2x()
    assert annihilator(alg.one()) == []


def test_annihilator_x_in_z4_quotient():
    # x*(x+2) = x^2 + 2x = 0, so x+2 is in the annihilator
    alg = algebra_z4_x2_plus_2x()
    x = alg.gen(0)
    gens = annihilator(x)
    expected = brute_annihilator(alg, x)
    assert span_of(alg, gens) == expected
    x_plus_2 = x + alg.from_int(2)
    assert x_plus_2.coords in expected


def test_is_unit_examples():
    alg = algebra_z4_x2_plus_2x()
    ok, inv = is_unit(alg.one())
    assert ok and inv == alg.one()

    z4 = FiniteAlgebra.scalar_ring(BaseModulus(4))
    ok, _ = is_unit(z4.from_int(2))
    assert not ok

    f2 = algebra_f2_x2()
    one_plus_x = f2.one() + f2.gen(0)
    ok, inv = is_unit(one_plus_x)
    assert ok and inv == one_plus_x  # (1+x)^2 = 1


def test_unit_iff_trivial_annihilator_exhaustive():
    # in a finite ring: non-zero-divisor <=> unit; both directions, rank <= 8
    for alg in (algebra_z4_x2_plus_2x(), algebra_f2_x2(), algebra_z4_x2()):
        for e in alg.elements():
            unit, inv = is_unit(e)
            nzd = not annihilator(e) and not e.is_zero()
            if alg.rank == 1 and alg.base.n == 1:
                continue
            assert unit == nzd == alg.divider(e).nzd, (alg, e)
            if unit:
                assert (e * inv) == alg.one()


# Small rings over Z/N with one or two variables: local towers first, then
# rings that are not, some local (F_9 = Z/3[x]/(x^2 + 1)) and some products
# of local factors (Z/6[x]/(x^2), Z/10[x]/(x^2 + x), Z/12 in rank 1).
UNIT_COFACTOR_RINGS = (
    (4, [[0, 2, 1]]), (2, [[0, 0, 0, 1]]), (2, [[0, 0, 1], [0, 0, 1]]),
    (9, [[3, 1]]), (4, [[2, 1], [0, 2, 1]]),
    (3, [[1, 0, 1]]), (6, [[0, 0, 1]]), (2, [[0, 1, 1]]), (10, [[0, 1, 1]]),
    (12, [[0, 1]]), (2, [[0, 1, 1], [0, 0, 1]]), (6, [[3, 1], [0, 1, 1]]),
    (3, [[0, 1, 1], [2, 0, 1]]),
)


def test_unit_cofactor_matches_enumeration():
    # None exactly when no unit u has s*u = d; a returned unit replays.  Each
    # s is asked for every d in s*R^x and for two random d, mostly outside.
    # s = 2 is a unit on the factors of odd residue characteristic and
    # nilpotent on the others, so there y0 and the idempotent e are mixed
    rng = random.Random(28)
    inside = outside = 0
    for n, relations in UNIT_COFACTOR_RINGS:
        alg = FiniteAlgebra.from_presentation(
            BaseModulus(n), [f"x{k}" for k in range(len(relations))], relations)
        elements, units = list(alg.elements()), units_by_enumeration(alg)
        for s in [alg.from_int(2)] + rng.sample(elements, 3):
            targets = {s * u for u in units} | {rng.choice(elements) for _ in range(2)}
            for d in sorted(targets, key=lambda e: e.coords):
                expected = unit_cofactors_by_enumeration(s, d)
                got = alg.unit_cofactor(s, d)
                if expected:
                    inside += 1
                    assert got in expected, (alg, s, d, got)  # s*got = d, a unit
                else:
                    outside += 1
                    assert got is None, (alg, s, d, got)
    assert inside > 200 and outside > 50, (inside, outside)


def test_exact_div_examples_and_random():
    z = FiniteAlgebra.scalar_ring(BaseModulus(101))
    assert z.divider(z.from_int(2))(z.from_int(6)) == z.from_int(3)

    alg = algebra_z4_x2_plus_2x()
    d = alg.one() + alg.gen(0)  # 1 + x is a unit hence a non-zero-divisor
    divide = alg.divider(d)  # one elimination serves every dividend
    assert divide(alg.zero()).is_zero()

    rng = random.Random(11)
    for _ in range(100):
        t = alg.from_coords([rng.randrange(4), rng.randrange(4)])
        assert divide(d * t) == t

    with pytest.raises(ZeroDivisorDivisor):
        alg.divider(alg.gen(0))(alg.one())  # x is a zero divisor here
    # NotDivisible cannot fire in a finite ring (nzd <=> unit there); the
    # exact-integer ring exercises it in test_exact_div_poly_ring.


def test_finite_divider_keeps_only_the_inverse():
    # a non-zero-divisor of a finite ring is a unit: a divider holds d^-1, not
    # its rank x 2*rank elimination, so a tuple's n(n-1)/2 dividers stay small
    alg = FiniteAlgebra.from_presentation(BaseModulus(1009), ["x"], [[0] * 16 + [1]])
    units = [alg.from_coords([k + 1] + [(37 * k + 11 * j) % 1009 for j in range(1, 16)])
             for k in range(30)]
    alg.divider(units[0])(units[0])  # fill the algebra's shared caches first
    tracemalloc.start()
    try:
        dividers = [alg.divider(u) for u in units]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 100_000, held  # about 320 KB if each kept its elimination
    assert all(divide(u * u) == u for divide, u in zip(dividers, units))


def test_ideal_contains_one():
    alg = algebra_z4_x2()
    two = alg.from_int(2)
    x = alg.gen(0)
    one = alg.one()
    assert alg.module_contains([one], one)
    assert not alg.module_contains([two, x], one)  # the maximal ideal (2, x)
    # brute-force: module spanned by {g*b} misses 1
    rows = ideal_module_rows([two, x])
    hf = zmod.howell(rows, 4)
    members = set()
    for v in itertools.product(range(4), repeat=alg.rank):
        if hf.contains(list(v)):
            members.add(v)
    assert (1, 0) not in members
    assert alg.module_contains([two, x, one + x], one)  # 1+x is a unit
    assert alg.module_contains([two, x], two * x + x)
    assert not alg.module_contains([], x) and alg.module_contains([], alg.zero())


def test_degree_one_relation_generator_images():
    # x = -a_0 when g = x + a_0; the other variable stays a basis monomial
    alg = FiniteAlgebra.from_presentation(BaseModulus(6), ["x"], [[2, 1]])
    assert alg.rank == 1
    assert alg.gen(0) == alg.from_int(4)
    alg = FiniteAlgebra.from_presentation(
        BaseModulus(4), ["x1", "x2"], [[1, 1], [0, 0, 1]])
    assert alg.basis_labels == ["1", "x2"]
    assert alg.gen(0) == alg.from_int(-1)
    assert alg.gen(1).coords == (0, 1)
    assert (alg.gen(1) * alg.gen(1)).is_zero()


def test_localize_identity_generator():
    alg = algebra_z4_x2_plus_2x()
    q, proj, chain = localize_by_saturation(alg, [alg.one()])
    assert q is alg
    assert chain == []


def test_localize_nilpotent_is_zero():
    f2x2 = algebra_f2_x2()
    q, _, chain = localize_by_saturation(f2x2, [f2x2.gen(0)])
    assert q == ZERO_RING
    assert chain  # the saturation chain is the witness

    f2x4 = FiniteAlgebra.from_presentation(BaseModulus(2), ["x"], [[0, 0, 0, 0, 1]])
    q, _, _ = localize_by_saturation(f2x4, [f2x4.gen(0)])
    assert q == ZERO_RING


def test_localize_z12_at_2_gives_z3():
    z12 = FiniteAlgebra.scalar_ring(BaseModulus(12))
    two = z12.from_int(2)
    q, proj, _ = localize_by_saturation(z12, [two])
    assert q is not ZERO_RING and q is not z12
    assert q.base.n == 3 and q.rank == 1
    img = project_element(q, proj, two)
    ok, _ = is_unit(img)
    assert ok
    # oracle: saturation of {2} in Z/12 is {r : 4r = 0} = (3)
    sat = {r for r in range(12) if (4 * r) % 12 == 0}
    assert sat == {0, 3, 6, 9}


def test_localize_idempotent_factor():
    # F2[x]/(x^2 - x) = F2 x F2; inverting x projects onto one factor
    alg = FiniteAlgebra.from_presentation(BaseModulus(2), ["x"], [[0, 1, 1]])
    x = alg.gen(0)
    q, proj, _ = localize_by_saturation(alg, [x])
    assert q is not ZERO_RING
    assert q.rank == 1 and q.base.n == 2
    assert project_element(q, proj, x) == q.one()


def test_localize_images_are_units_random():
    rng = random.Random(3)
    z12 = FiniteAlgebra.scalar_ring(BaseModulus(12))
    for _ in range(20):
        gens = [z12.from_int(rng.randrange(1, 12)) for _ in range(2)]
        q, proj, _ = localize_by_saturation(z12, gens)
        if q == ZERO_RING:
            continue
        for g in gens:
            ok, _ = is_unit(project_element(q, proj, g))
            assert ok


def test_certificate_trivial_zero_generator():
    alg = algebra_f2_x2()
    cert = zero_product_certificate([alg.zero(), alg.one()], max_len=3)
    assert cert == [0]


def test_certificate_x_squared():
    alg = algebra_f2_x2()
    cert = zero_product_certificate([alg.gen(0)], max_len=4)
    assert cert == [0, 0]


def test_certificate_exact_ku_p2():
    # Z[x1,x2]/(x1^2-1, x2^2-1); (x1-1)(x2-1)(x1x2-1) = 0
    ring = ExactPolyRing(["x1", "x2"], [[-1, 0, 1], [-1, 0, 1]])
    x1, x2 = ring.gen(0), ring.gen(1)
    gens = [x1 - ring.one(), x2 - ring.one(), x1 * x2 - ring.one()]
    cert = zero_product_certificate(gens, max_len=5)
    assert not isinstance(cert, CertificateNotFound)
    assert len(cert) == 3
    prod = ring.one()
    for idx in cert:
        prod = prod * gens[idx]
    assert prod.is_zero()


def test_certificate_not_found():
    alg = algebra_f2_x2()
    cert = zero_product_certificate([alg.one()], max_len=3)
    assert isinstance(cert, CertificateNotFound)
    assert cert.max_len == 3


def test_exact_ring_normal_form_unique():
    ring = ExactPolyRing(["x"], [[-1, 0, 1]])  # Z[x]/(x^2-1)
    x = ring.gen(0)
    assert (x * x) == ring.one()
    assert ((x + ring.one()) * (x - ring.one())).is_zero()


def test_exact_ring_nzd_and_unit():
    ring = ExactPolyRing(["x1", "x2"], [[0, 0, 1], [0, 0, 1]])  # Z[x]/(x1^2,x2^2)
    x1, x2 = ring.gen(0), ring.gen(1)
    assert not ring.divider(x1 - x2).nzd  # (x1-x2)(x1+x2) = 0
    mult = ExactPolyRing(["x"], [[-1, 0, 1]])
    assert mult.is_unit(mult.gen(0))  # x * x = 1
    assert not mult.is_unit(mult.gen(0) - mult.one())


def test_exact_div_poly_ring():
    ring = ExactPolyRing(["x"], [[-1, 0, 1]])
    x = ring.gen(0)
    three_x = 3 * x
    assert ring.divider(x)(three_x) == 3 * ring.one()
    with pytest.raises(NotDivisible):
        ring.divider(2 * ring.one())(ring.one() + x)


# -- the one integer elimination against the algorithms it replaced ----------


def integer_det(mat):
    """Fraction-free Bareiss determinant over Z."""
    a = [list(r) for r in mat]
    size = len(a)
    sign = 1
    prev = 1
    for k in range(size - 1):
        if a[k][k] == 0:
            for i in range(k + 1, size):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[size - 1][size - 1]


def rational_solve(mat, rhs):
    """Unique rational solution of mat x = rhs, or None if singular/unsolvable."""
    size = len(mat)
    a = [[Fraction(mat[i][j]) for j in range(size)] + [Fraction(rhs[i])]
         for i in range(size)]
    for col in range(size):
        pivot = None
        for i in range(col, size):
            if a[i][col]:
                pivot = i
                break
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for i in range(size):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [a[i][size] for i in range(size)]


EXACT_RINGS = [multiplicative_exact_ring(p, A)
               for p, A in ((2, [1, 1]), (3, [1]), (2, [2]))]


@st.composite
def exact_ring_elements(draw):
    """A small exact ring (a group ring Z[A] or Z[x]/(x^2 - c)) and three elements."""
    if draw(st.booleans()):
        ring = draw(st.sampled_from(EXACT_RINGS))
    else:
        ring = ExactPolyRing(["x"], [[-draw(st.integers(-4, 4)), 0, 1]])
    coords = st.lists(st.sampled_from([0, 0, 1, -1, 2, -3]),
                      min_size=ring.rank, max_size=ring.rank)
    a, d, g = (ring.from_coords(draw(coords)) for _ in range(3))
    if draw(st.booleans()):  # +-prod (1 + x_k)^e_k: a unit of Z[A]
        d = draw(st.sampled_from([1, -1])) * ring.one()
        for k in range(len(ring.variables)):
            for _ in range(draw(st.integers(0, 3))):
                d = d * (ring.one() + ring.gen(k))
    return ring, [a, d, g]


def replay(cols, y):
    return [sum(c * col[i] for c, col in zip(y, cols)) for i in range(len(cols[0]))]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(exact_ring_elements())
def test_exact_ring_questions_match_det_and_rational_oracles(case):
    ring, (a, d, g) = case
    cols = ring.columns(d)
    mat = [list(row) for row in zip(*cols)]
    det = integer_det(mat)
    assert ring.is_unit(d) == (abs(det) == 1)
    divide = ring.divider(d)
    assert divide.nzd == (det != 0 and not d.is_zero()) == is_nzd(d)
    if det == 0:
        with pytest.raises(ZeroDivisorDivisor):
            divide(a)
    else:
        assert divide(a * d) == a
        sol = rational_solve(mat, ring.coords(a))
        if any(x.denominator != 1 for x in sol):
            with pytest.raises(NotDivisible):
                divide(a)
        else:
            assert ring.coords(divide(a)) == sol
    # every particular and kernel vector replays, over the columns of two gens
    cols += ring.columns(g)
    particular, kernel = integer_solve(cols, ring.coords(a))
    assert (particular is not None) == ring.module_contains([d, g], a)
    if particular is not None:
        assert replay(cols, particular) == ring.coords(a)
    assert all(replay(cols, k) == [0] * ring.rank for k in kernel)
    assert len(kernel) >= ring.rank


# -- nilpotency indices ------------------------------------------------------


NILPOTENCY_MODULI = (2, 3, 4, 5, 6, 8, 9, 12, 25, 27)


def idempotent_exponent(alg) -> int:
    """An m with r^m idempotent for every r: in each local factor of size
    p^a, a <= rank * v_p(N), with residue field F_(p^f), f <= rank, m is
    at least the nilpotency index of the maximal ideal (at most a) and a
    multiple of the unit group's exponent, which divides (p^f - 1) p^a."""
    m = 1
    for p, v in sympy.factorint(alg.base.n).items():
        m = math.lcm(m, p ** (alg.rank * v), *(p**f - 1 for f in range(1, alg.rank + 1)))
    return m


@st.composite
def nilpotency_cases(draw):
    """A presented algebra over Z/N, its relations local (every coefficient
    below the leading one divisible by rad(N)) or not, and an element of
    the drawn kind.  A unit, nilpotent or idempotent element is built from
    up to four random r, the first that gives neither 0 nor 1."""
    rnd = draw(st.randoms(use_true_random=False))
    n = rnd.choice(NILPOTENCY_MODULI)
    scale = math.prod(sympy.primefactors(n)) if rnd.random() < 0.5 else 1
    degrees = rnd.choice([[1], [2], [3], [4], [1, 2], [2, 1], [2, 2]])
    alg = FiniteAlgebra.from_presentation(
        BaseModulus(n), [f"x{k}" for k in range(len(degrees))],
        [[scale * rnd.randrange(n) for _ in range(d)] + [1] for d in degrees])
    kind = rnd.choice(["zero", "unit", "nilpotent", "idempotent"])
    e, m = alg.zero(), idempotent_exponent(alg)
    for _ in range(4 if kind != "zero" else 0):
        r = alg.from_coords([rnd.choice([0, 0, 1, rnd.randrange(n)])
                             for _ in range(alg.rank)])
        f = r**m  # 1 on the factors where r is a unit, else 0
        e = {"unit": r * f + (alg.one() - f), "nilpotent": r - r * f,
             "idempotent": f}[kind]
        if not e.is_zero() and e != alg.one():
            break
    return alg, kind, e


@settings(max_examples=150, deadline=None, derandomize=True)
@given(nilpotency_cases())
def test_nilpotency_index_with_bound_matches_square_then_scan(case):
    # None exactly when e is not nilpotent or its index exceeds the bound;
    # e = 0 has index 1, so the bound 0 drops it
    alg, kind, e = case
    if kind == "idempotent":
        assert e * e == e
    index = square_then_scan_index(alg, e)
    assert (index is None) == (kind in ("unit", "idempotent") and not e.is_zero())
    for bound in (None, 0, 1, *((index - 1, index) if index else (100,))):
        expected = index if index is not None and (bound is None or index <= bound) else None
        assert alg.nilpotency_index(e, bound) == expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False), exact_ring_elements())
def test_truth_value_is_not_is_zero(rnd, case):
    # zero_product_certificate reads a value's truth value as "nonzero":
    # it must negate is_zero for RingElement over towers over Z/N,
    # composite N included (coordinates of N, products of zero divisors),
    # and for PolyElement over ExactPolyRing
    n = rnd.choice(NILPOTENCY_MODULI)
    degrees = rnd.choice([[1], [2], [3], [1, 2], [2, 2]])
    alg = FiniteAlgebra.from_presentation(
        BaseModulus(n), [f"x{k}" for k in range(len(degrees))],
        [[rnd.randrange(n) for _ in range(d)] + [1] for d in degrees])
    drawn = [alg.from_coords([rnd.choice([0, 0, n, rnd.randrange(n)])
                              for _ in range(alg.rank)]) for _ in range(3)]
    ring, polys = case
    for e in (alg.zero(), alg.one(), *drawn, drawn[0] * drawn[1],
              alg.from_int(n // min(sympy.primefactors(n))) * alg.from_int(
                  min(sympy.primefactors(n))),
              ring.zero(), ring.one(), *polys, polys[0] - polys[0],
              polys[1] * polys[2]):
        assert bool(e) == (not e.is_zero())
