"""Classifying rings, Euler classes, torsion root sets, root differences.

The per-element left fold that ``euler_class`` replaced is kept here as the
reference for the one-step recursion over shared power tables, and
``FiniteAlgebra.unit_cofactor`` and the term-by-term ``oracles.old_eval_at``
as the references for root-difference units.
"""

import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from tateshift import classifying, cli
from tateshift.classifying import (
    AbelianPGroup,
    ClassifyingError,
    ClassifyingRing,
    InvalidSubgroup,
    SubgroupSpec,
    build_classifying_ring,
    certify_root_difference,
    height_sequence,
    orbit_representatives,
    quotient_image_elements,
    required_cap,
)
from tateshift.fgl import _sum_unit_series, build_honda, build_multiplicative
from tateshift.ring_core import BaseModulus, FiniteAlgebra, is_unit
from tateshift.ring_linalg import verify_localized_tuple
from tateshift.series import NonNilpotentArgument, TruncatedSeries, eval_at
from tateshift.tate_blueshift import inverted_element_set

from oracles import (
    SMALL_GROUPS,
    V_count,
    V_count_image,
    euler_classes_by_fold,
    old_eval_at,
    pj_root_set,
    small_ring,
    torsion_elements,
)


def honda_ring(p, n, exponents):
    group = AbelianPGroup(p, exponents)
    cap = required_cap(p, n, 1, exponents)
    law = build_honda(p, n, cap)
    return build_classifying_ring(law, group)


def mult_ring(p, K, exponents):
    group = AbelianPGroup(p, exponents)
    cap = required_cap(p, 1, K, exponents)
    law = build_multiplicative(p, K, cap)
    return build_classifying_ring(law, group)


# -- construction -------------------------------------------------------------


def test_build_honda_z2():
    cr = honda_ring(2, 1, [1])
    assert cr.algebra.rank == 2
    assert cr.algebra.presentation["relations"] == [[0, 0, 1]]  # x^2


def test_build_multiplicative_z2_mod4():
    cr = mult_ring(2, 2, [1])
    assert cr.algebra.rank == 2
    assert cr.algebra.presentation["relations"] == [[0, 2, 1]]  # x^2 + 2x


def test_build_honda_z4():
    cr = honda_ring(2, 1, [2])
    assert cr.algebra.rank == 4
    assert cr.algebra.presentation["relations"] == [[0, 0, 0, 0, 1]]  # x^4


def test_rank_formula_heights():
    assert honda_ring(2, 2, [1]).algebra.rank == 4  # p^(i*n) = 2^2
    assert honda_ring(2, 1, [1, 2]).algebra.rank == 8  # 2^1 * 2^2
    assert mult_ring(2, 2, [1, 1]).algebra.rank == 4


# -- Euler classes ---------------------------------------------------------------


def test_euler_class_zero_and_generator():
    cr = honda_ring(2, 1, [1, 1])
    assert cr.euler_class((0, 0)).value.is_zero()
    assert cr.euler_class((1, 0)).value == cr.algebra.gen(0)
    assert cr.euler_class((0, 1)).value == cr.algebra.gen(1)


def test_euler_class_multiplicative_formal_sum():
    cr = mult_ring(2, 2, [1, 1])
    alg = cr.algebra
    x1, x2 = alg.gen(0), alg.gen(1)
    expected = x1 + x2 + x1 * x2
    assert cr.euler_class((1, 1)).value == expected


def test_euler_additivity_up_to_formal_sum():
    # euler(u) -_F euler(w) = euler(u - w), exactly in the ring
    cr = mult_ring(2, 2, [1, 1])
    law = cr.law
    inv_series = law.formal_inverse()
    for u in cr.group.elements():
        for w in cr.group.elements():
            eu = cr.euler_class(u).value
            ew = cr.euler_class(w).value
            minus_ew = eval_at(inv_series, [ew])
            diff = eval_at(law.F, [eu, minus_ew])
            target = tuple((a - b) % o for a, b, o in zip(u, w, cr.group.orders))
            assert diff == cr.euler_class(target).value


def fold_euler(cr, w):
    """[w_1](x_1) +_F ... +_F [w_m](x_m): one m-series per coordinate, each
    folded into the accumulator with F, every table built afresh."""
    acc = None
    for k, w_k in enumerate(w):
        value_k = eval_at(cr.law.m_series(w_k), [cr.algebra.gen(k)])
        acc = value_k if acc is None else eval_at(cr.law.F, [acc, value_k])
    return acc


# (law, p, n or K, exponents): multiplicative K >= 1 and Honda n <= 2, some
# with several heads of two or more nonzero coordinates
FOLD_RINGS = (
    ("mult", 2, 2, (1, 2)),
    ("mult", 3, 1, (1, 1, 1)),
    ("honda", 2, 1, (1, 2, 1)),
    ("honda", 2, 1, (1, 1, 1, 1)),
    ("honda", 2, 2, (1, 1)),
    ("honda", 3, 1, (1, 1)),
)


@functools.cache
def fold_ring(spec):
    """A built ring and the oracle's class of every element."""
    kind, p, n, exponents = spec
    cr = (mult_ring if kind == "mult" else honda_ring)(p, n, list(exponents))
    return cr, {w: fold_euler(cr, w).coords for w in cr.group.elements()}


@st.composite
def fold_queries(draw):
    spec = draw(st.sampled_from(FOLD_RINGS))
    cr, _ = fold_ring(spec)
    elements = list(cr.group.elements())
    if draw(st.booleans()):
        # tate's order: the inverted classes of some C first, then the rest
        sub = SubgroupSpec([draw(st.integers(0, i)) for i in cr.group.exponents])
        inverted = inverted_element_set(cr.group, sub)
        order = inverted + [w for w in elements if w not in inverted]
    else:
        order = draw(st.permutations(elements))
    return spec, order, draw(st.integers(0, len(order)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(fold_queries())
def test_euler_recursion_matches_fold(query):
    spec, order, batch = query
    built, expected = fold_ring(spec)
    # a fresh ring object: empty class cache and power tables
    cr = ClassifyingRing(built.law, built.group, built.algebra)
    got = cr.euler_classes(order[:batch])
    got += [cr.euler_class(w) for w in order[batch:]]
    assert [ec.element for ec in got] == order
    for ec in got:
        assert ec.value.coords == expected[ec.element]


# Honda heights n and multiplicative modulus powers K of the differential
# test over SMALL_GROUPS
COLUMN_LAWS = (("honda", 1), ("honda", 2),
               ("multiplicative", 1), ("multiplicative", 2), ("multiplicative", 3))


def test_euler_columns_match_the_fold_oracle():
    # sum_i h^i F_i(b) over F's columns, with single classes and their
    # powers taken in R_k = base[x_k]/(G_k), equals one fold of F per class
    # over full-rank tables: every SMALL_GROUPS group under every law, up to
    # rank 256 at Honda n=2 (Z/4)^2, but Honda n=2 on Z/16, whose law alone
    # takes ~0.7 s at cap 258 and whose one factor is the whole ring
    for (kind, h), (p, A) in itertools.product(COLUMN_LAWS, SMALL_GROUPS):
        if (kind, h, p, A) == ("honda", 2, 2, (4,)):
            continue
        built = small_ring(kind, p, h, A)
        cr = ClassifyingRing(built.law, built.group, built.algebra)  # empty caches
        elements = list(cr.group.elements())
        expected = euler_classes_by_fold(cr, elements)
        assert [ec.value.coords for ec in cr.euler_classes(elements)] == [
            e.coords for e in expected], (kind, h, p, A)


# a ring keeps its classes and its factor algebras, and no power table or
# column of any rank past a call
RING_ATTRIBUTES = {"law", "group", "algebra", "_euler_cache", "_factors"}


def assert_keeps_no_table(cr):
    """The ring holds its classes, in the whole ring, and per variable the
    factor algebra R_k of rank d_k with the d_k indices of x_k^t: nothing
    else, so no table built for a batch survives it."""
    assert set(vars(cr)) == RING_ATTRIBUTES
    assert all(v.parent is cr.algebra for v in cr._euler_cache.values())
    degrees = [len(rel) - 1 for rel in cr.algebra.presentation["relations"]]
    assert [(type(factor), factor.rank, len(index))
            for factor, index in cr._factors] == [
        (FiniteAlgebra, d, d) for d in degrees]


def test_euler_shared_tables_keep_cap_check():
    # cap 4 builds the ring of (Z/4)^2 but cannot cover x1 +_F x2, whose
    # nonvanishing monomials reach degree 3 + 3
    cr = build_classifying_ring(build_honda(2, 1, 4), AbelianPGroup(2, [2, 2]))
    for w in ((1, 0), (0, 1), (2, 1)):  # x1^2 +_F x2 reaches only degree 4
        assert cr.euler_class(w).value == fold_euler(cr, w)
    with pytest.raises(NonNilpotentArgument, match="does not cover"):
        fold_euler(cr, (1, 1))
    with pytest.raises(NonNilpotentArgument, match="does not cover"):
        cr.euler_class((1, 1))
    with pytest.raises(NonNilpotentArgument, match="does not cover"):
        cr.euler_classes([(0, 1), (3, 1)])
    assert_keeps_no_table(cr)


def test_element_length_checked_before_reduction():
    cr = honda_ring(2, 1, [1, 1])
    for w in ((1, 0, 1), (1,)):
        with pytest.raises(InvalidSubgroup):
            cr.euler_class(w)
    for u, w in (((1, 0, 1), (0, 1)), ((1, 0), (0, 1, 1))):
        with pytest.raises(InvalidSubgroup):
            certify_root_difference(cr, u, w)


def test_no_power_table_outlives_a_call():
    # rank 256; the tables and F's columns at single classes live in one
    # batch of classes
    cr = honda_ring(2, 2, [2, 2])
    assert cr.algebra.rank == 256
    for u, w in (((1, 2), (3, 1)), ((2, 3), (0, 1))):
        certify_root_difference(cr, u, w)
        assert_keeps_no_table(cr)
    for call in (lambda: cr.euler_class((3, 3)),
                 lambda: cr.euler_classes(cr.group.elements()),
                 lambda: pj_root_set(cr, 1)):
        call()
        assert_keeps_no_table(cr)


def test_ring_held_across_tate_jobs_keeps_only_classes():
    # the CLI memo holds the ring, and with it the factor algebras, for the
    # next job; of the batch it keeps the Euler classes, not the power
    # tables or columns that built them
    cli._last_law.clear()
    factors = []
    for C in ([1, 1], [2, 1]):
        code, _ = cli.run_job("tate", {"p": 2, "A": [2, 2], "C": C})
        assert code == 0
        (memo,) = cli._last_law.values()
        cr = memo.ring
        assert set(inverted_element_set(cr.group, SubgroupSpec(C))) <= set(
            cr._euler_cache)
        assert_keeps_no_table(cr)
        factors.append(cr._factors)
    assert factors[0] is factors[1]


# -- torsion root sets --------------------------------------------------------------


def test_pj_root_set_j0():
    cr = honda_ring(2, 1, [2])
    roots = pj_root_set(cr, 0)
    assert len(roots) == 1 and roots[0].value.is_zero()


def test_pj_root_set_honda_z4_j1():
    # [2](x) = x^2: the 2-torsion of Z/4 gives Euler classes {0, x^2}
    cr = honda_ring(2, 1, [2])
    roots = pj_root_set(cr, 1)
    values = {r.value for r in roots}
    x = cr.algebra.gen(0)
    assert values == {cr.algebra.zero(), x * x}


def test_pj_root_set_rank2_j1_has_four_classes():
    for cr in (honda_ring(2, 1, [1, 1]), mult_ring(2, 2, [1, 1])):
        assert len(pj_root_set(cr, 1)) == 4


def test_pj_root_counts_match_v_count():
    cr = honda_ring(2, 1, [1, 2])
    for j in range(4):
        assert len(pj_root_set(cr, j)) == V_count(cr.group, j)


def test_root_differences_certified_in_full_localization():
    # differences of distinct 2-torsion Euler classes become units once the
    # classes of A - {0} are inverted (the full C = A localization)
    cr = honda_ring(2, 1, [1, 1])
    nonzero = [w for w in cr.group.elements() if any(w)]
    s_gens = [cr.euler_class(w).value for w in nonzero]
    roots = [r.value for r in pj_root_set(cr, 1)]
    tup = verify_localized_tuple(s_gens, roots, max_len=4)
    assert len(tup.witnesses["pairs"]) == 6


# -- counting -----------------------------------------------------------------------


def test_v_count_examples():
    assert V_count(AbelianPGroup(2, [2, 1]), 0) == 1
    assert V_count(AbelianPGroup(2, [2, 1]), 1) == 4  # p^(min(1,2)+min(1,1))
    assert V_count(AbelianPGroup(3, [2, 1]), 1) == 9
    a = AbelianPGroup(2, [2, 2, 2])
    c = SubgroupSpec([1, 1, 1])
    assert V_count(a, 2) == 2**6
    assert V_count_image(a, c, 2) == 2**3


def test_v_count_monotone_and_stabilizes():
    for p, exps in ((2, [1, 3]), (3, [2, 2])):
        a = AbelianPGroup(p, exps)
        prev = 1
        for j in range(0, max(exps) + 3):
            v = V_count(a, j)
            assert v >= prev
            prev = v
        assert prev == a.order


def test_quotient_image_elements():
    a = AbelianPGroup(2, [2])
    c = SubgroupSpec([1])
    img = set(quotient_image_elements(a, c))
    assert img == {(0,), (2,)}  # multiples of p^j_1 = 2 inside Z/4


def test_torsion_enumeration_against_brute_force():
    a = AbelianPGroup(2, [1, 2])
    for j in range(4):
        brute = {
            w for w in a.elements()
            if all((2**j * x) % o == 0 for x, o in zip(w, a.orders))
        }
        assert set(torsion_elements(a, j)) == brute
        assert len(brute) == V_count(a, j)


def test_subgroup_validation():
    for p in (1, 4, 6, 9):
        with pytest.raises(InvalidSubgroup):
            AbelianPGroup(p, [1])
    a = AbelianPGroup(2, [2, 1])
    with pytest.raises(InvalidSubgroup):
        SubgroupSpec([3, 0]).validate_in(a)
    with pytest.raises(InvalidSubgroup):
        SubgroupSpec([1]).validate_in(a)
    assert SubgroupSpec([2, 0]).rank_p == 1


# -- root differences --------------------------------------------------------------


def check_root_difference(cr, u, w):
    """Certify e(u) - e(w) = e(u - w) * unit; replay it and test the unit by
    Howell.  Returns the ring elements s = e(u - w) and d = e(u) - e(w)."""
    witness = certify_root_difference(cr, u, w)
    s = cr.euler_class(witness["difference_element"]).value
    d = cr.euler_class(u).value - cr.euler_class(w).value
    assert s * witness["unit"] == d
    assert is_unit(witness["unit"])[0]
    return s, d


def test_pairwise_certificates_order_sixteen_groups():
    # pairwise tuple certificates for |A| = 16 in both presentations
    for exponents in ([4], [1, 1, 1, 1]):
        cr = honda_ring(2, 1, exponents)
        assert cr.group.order == 16
        for u, w in itertools.combinations(cr.group.elements(), 2):
            check_root_difference(cr, u, w)


# (law, p, n or K, exponents): Honda n = 1, 2 and multiplicative K = 2;
# Z/2 + Z/4 at n = 2 has cap 18, below the 30 a cap-covered evaluation of
# G(e(w), e(u - w)) would ask for, though m^19 = 0 there
PAIR_RINGS = (
    ("honda", 2, 1, (1, 2)),
    ("honda", 3, 1, (1, 1)),
    ("honda", 2, 2, (1, 1)),
    ("honda", 2, 2, (1, 2)),
    ("mult", 2, 2, (1, 2)),
    ("mult", 3, 2, (1, 1)),
)


@functools.cache
def pair_ring(spec):
    kind, p, n, exponents = spec
    return (mult_ring if kind == "mult" else honda_ring)(p, n, list(exponents))


@st.composite
def pair_queries(draw):
    spec = draw(st.sampled_from(PAIR_RINGS))
    elements = list(pair_ring(spec).group.elements())
    return spec, draw(st.sampled_from(elements)), draw(st.sampled_from(elements))


@settings(max_examples=16, deadline=None, derandomize=True)
@given(pair_queries())
def test_root_difference_unit_matches_solve(query):
    # the exact unit-cofactor search as oracle: s * u = d with u a unit
    spec, u, w = query
    s, d = check_root_difference(pair_ring(spec), u, w)
    assert s.parent.unit_cofactor(s, d) is not None


# Honda rings from SMALL_GROUPS at n = 1, 2, of ranks 8, 81 and 256
UNIT_RINGS = ((2, 1, (1, 2)), (3, 2, (1, 1)), (2, 2, (1, 1, 2)))


@pytest.mark.parametrize("p,n,A", UNIT_RINGS)
def test_root_difference_unit_matches_term_by_term_evaluation(p, n, A):
    # the unit is G(e(w), e(u - w)), by the column fold and term by term
    cr = small_ring("honda", p, n, A)
    elements = list(cr.group.elements())
    classes = dict(zip(elements, (ec.value for ec in cr.euler_classes(elements))))
    G = _sum_unit_series(cr.law)
    for u, w in itertools.product(elements, repeat=2):
        witness = certify_root_difference(cr, u, w)
        s = classes[witness["difference_element"]]
        assert witness["unit"] == old_eval_at(G, [classes[w], s], polynomial=True)


def test_root_difference_needs_local_tower():
    cr = honda_ring(2, 1, [1])
    non_local = FiniteAlgebra.from_presentation(BaseModulus(4), ["x1"], [[1, 0, 1]])
    bad = ClassifyingRing(cr.law, cr.group, non_local)
    with pytest.raises(ClassifyingError, match="local tower"):
        certify_root_difference(bad, (1,), (0,))


def test_root_difference_refuses_unit_that_does_not_replay(monkeypatch):
    cr = honda_ring(2, 1, [1, 1])
    one = TruncatedSeries.constant(cr.law.domain, ("x1", "x2"), cr.law.cap, 1)
    monkeypatch.setattr(classifying, "_sum_unit_series", lambda law: one)
    with pytest.raises(ClassifyingError, match="does not replay"):
        certify_root_difference(cr, (1, 1), (1, 0))


def test_classifying_generators_are_nilpotent():
    for cr in (honda_ring(2, 2, [1]), mult_ring(2, 2, [1, 1])):
        for k in range(len(cr.group.exponents)):
            idx = cr.algebra.nilpotency_index(cr.algebra.gen(k))
            assert idx is not None


# -- automorphism orbits ----------------------------------------------------------


def brute_force_orbits(group):
    """Aut(A)-orbits of A, from every assignment of generator images.

    e_k may go to any u_k with p^(i_k) u_k = 0; the map is an automorphism
    iff it is onto.
    """
    orders = group.orders
    elements = list(group.elements())
    images = [[u for u in elements
               if all(o * a % m == 0 for a, m in zip(u, orders))]
              for o in orders]
    orbit = {w: {w} for w in elements}
    for us in itertools.product(*images):
        sigma = {w: tuple(sum(a * u[t] for a, u in zip(w, us)) % m
                          for t, m in enumerate(orders)) for w in elements}
        if len(set(sigma.values())) == len(elements):
            for w, v in sigma.items():
                orbit[w].add(v)
    return {frozenset(o) for o in orbit.values()}


@pytest.mark.parametrize("p, exponents", [
    (2, (1, 1)), (2, (2, 1)), (2, (2, 2)), (2, (3, 1)), (2, (2, 1, 1)),
    (3, (2, 1)), (3, (2,)),
])
def test_height_sequences_are_the_automorphism_orbits(p, exponents):
    group = AbelianPGroup(p, exponents)
    by_heights = {}
    for w in group.elements():
        by_heights.setdefault(height_sequence(group, w), set()).add(w)
    assert {frozenset(c) for c in by_heights.values()} == brute_force_orbits(group)


def test_orbit_representatives_are_first_of_each_class():
    group = AbelianPGroup(2, (2, 1))
    elements = inverted_element_set(group, SubgroupSpec((1, 1)))
    # (0,1) and (2,1) have order 2 and height 0; odd w_1 gives order 4
    assert height_sequence(group, (0, 1)) == (0,)
    assert height_sequence(group, (2, 1)) == (0,)
    assert height_sequence(group, (1, 0)) == (0, 1)
    assert height_sequence(group, (2, 0)) == (1,)
    assert elements[:2] == [(0, 1), (1, 0)]
    assert orbit_representatives(group, elements) == [0, 1]
