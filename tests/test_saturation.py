"""Product-power saturation against the colon-ideal iteration it replaced,
and localization by squaring on local towers against the Howell chain.

The colon iteration I_{t+1} = sum_i (I_t : s_i), run to a fixed point, is
kept here only as the reference: it computes the same saturation ideal by an
independent route.  ``oracles.saturation_ideal`` builds the Howell rows of every
step on every ring and is the reference for ``localize_by_saturation``,
which builds none on a local tower.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from tateshift import zmod
from tateshift.classifying import SubgroupSpec
from tateshift.ring_core import (
    BaseModulus,
    FiniteAlgebra,
    NonFreeQuotient,
    ZERO_RING,
    annihilator,
    identity_rows,
    localize_by_saturation,
)
from tateshift.tate_blueshift import inverted_element_set

from oracles import SMALL_GROUPS, saturation_ideal, small_ring

MODULI = (4, 6, 8, 9, 12, 18, 27, 30)


def colon_ideal_rows(alg, ideal_rows, s):
    """Module generators of (I : s) = { r : s*r in I }."""
    n = alg.base.n
    ms = alg.mul_matrix(s)
    basis = zmod.howell(ideal_rows, n).rows if ideal_rows else []
    # r in (I:s)  <=>  exists y: M_s r - V y = 0, V columns = basis vectors
    mat = []
    for i in range(alg.rank):
        row = [ms[i][j] for j in range(alg.rank)]
        row += [(-basis[t][i]) % n for t in range(len(basis))]
        mat.append(row)
    kern = zmod.right_kernel(mat, n)
    return [k[: alg.rank] for k in kern if any(k[: alg.rank])]


def colon_saturation(alg, s_gens):
    """Howell rows of the saturation by iterated colon ideals."""
    n = alg.base.n
    current = []
    while True:
        new_rows = list(current)
        for s in s_gens:
            new_rows.extend(colon_ideal_rows(alg, current, s))
        if not new_rows:
            return current
        rows = zmod.howell(new_rows, n).rows
        if rows == current:
            return current
        current = rows


@st.composite
def towers_with_generators(draw):
    """A monic tower over Z/N, every relation of degree >= 2, and 1-3 elements."""
    n = draw(st.sampled_from(MODULI))
    degrees = draw(st.sampled_from([[2], [3], [4], [2, 2], [2, 3]]))
    relations = [
        [draw(st.integers(0, n - 1)) for _ in range(d)] + [1] for d in degrees
    ]
    alg = FiniteAlgebra.from_presentation(
        BaseModulus(n), [f"x{k + 1}" for k in range(len(degrees))], relations
    )
    # small coordinates make zero divisors and nilpotents common
    coord = st.sampled_from([0, 0, 1, 2, 3, n - 1])
    gens = draw(st.lists(
        st.lists(coord, min_size=alg.rank, max_size=alg.rank).map(alg.from_coords),
        min_size=1, max_size=3,
    ))
    return alg, gens


def is_zero_ring(alg, gens):
    try:
        return localize_by_saturation(alg, gens)[0] == ZERO_RING
    except NonFreeQuotient:
        # only a proper saturation over a composite N has a non-free quotient
        return False


def rows_on_demand(alg, chain):
    """The rows --explain prints for a localization chain."""
    return [identity_rows(alg.rank) if step is None
            else [list(e.coords) for e in annihilator(step)] for step in chain]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(towers_with_generators())
def test_power_kernel_matches_colon_iteration(case):
    alg, gens = case
    rows, _ = saturation_ideal(alg, gens)
    oracle = colon_saturation(alg, gens)
    assert rows == oracle
    one = [1] + [0] * (alg.rank - 1)
    oracle_zero = bool(oracle) and zmod.howell(oracle, alg.base.n).contains(one)
    assert is_zero_ring(alg, gens) == oracle_zero


@settings(max_examples=200, deadline=None, derandomize=True)
@given(towers_with_generators())
def test_chain_replays(case):
    alg, gens = case
    s = alg.one()
    for g in gens:
        s = s * g
    rows, chain = saturation_ideal(alg, gens)
    power = s
    for step in chain:
        for row in step:
            assert (power * alg.from_coords(row)).is_zero()
        power = power * power
    # the steps grow strictly and end in the saturation
    for before, after in zip(chain, chain[1:]):
        assert before != after
        assert all(zmod.howell(after, alg.base.n).contains(r) for r in before)
    assert chain[-1:] == ([rows] if rows else [])
    full = [[1 if i == j else 0 for j in range(alg.rank)] for i in range(alg.rank)]
    assert (rows == full) == is_zero_ring(alg, gens)
    # an empty chain means s is a non-zero-divisor
    assert (not chain) == (not zmod.right_kernel(alg.mul_matrix(s), alg.base.n))
    # localization keeps the chain's powers; their annihilators are its steps
    try:
        powers = localize_by_saturation(alg, gens)[2]
    except NonFreeQuotient:
        return
    assert rows_on_demand(alg, powers) == chain


def test_nilpotent_chain_ends_in_full_module():
    # F_2[x]/(x^4): ker(x) = (x^3), ker(x^2) = (x^2), then x^4 = 0
    alg = FiniteAlgebra.from_presentation(BaseModulus(2), ["x"], [[0, 0, 0, 0, 1]])
    rows, chain = saturation_ideal(alg, [alg.gen(0)])
    assert chain == [
        [[0, 0, 0, 1]],
        [[0, 0, 1, 0], [0, 0, 0, 1]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    ]
    assert rows == chain[-1]
    assert localize_by_saturation(alg, [alg.gen(0)])[0] == ZERO_RING


@st.composite
def local_towers(draw):
    """A local tower over Z/p^K, p drawn first, and 1-3 elements."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = p ** draw(st.integers(1, 3 if p == 2 else 2))
    degrees = draw(st.sampled_from([[2], [3], [4], [2, 2], [2, 3]]))
    relations = [
        [p * draw(st.integers(0, n // p - 1)) for _ in range(d)] + [1]
        for d in degrees
    ]
    alg = FiniteAlgebra.from_presentation(
        BaseModulus(n), [f"x{k + 1}" for k in range(len(degrees))], relations
    )
    assert alg.local_tower_prime() == p
    # units and nilpotents both common: constant coordinates 1, n-1 or in (p)
    coord = st.sampled_from([0, 0, 1, p, n - 1])
    gens = draw(st.lists(
        st.lists(coord, min_size=alg.rank, max_size=alg.rank).map(alg.from_coords),
        min_size=1, max_size=3,
    ))
    return alg, gens


@settings(max_examples=150, deadline=None, derandomize=True)
@given(local_towers())
def test_local_tower_squaring_matches_the_howell_chain(case):
    alg, gens = case
    rows, steps = saturation_ideal(alg, gens)
    quotient, proj, chain = localize_by_saturation(alg, gens)
    assert len(chain) == len(steps)
    assert (quotient == ZERO_RING) == (rows == identity_rows(alg.rank))
    if quotient != ZERO_RING:  # a local ring: s is a unit, nothing is saturated
        assert quotient is alg and chain == [] and rows == []
        assert proj == identity_rows(alg.rank)
    assert rows_on_demand(alg, chain) == steps


@pytest.mark.parametrize("kind,h", [("honda", 1), ("multiplicative", 1)])
def test_local_tower_chain_length_is_ceil_log2_index(kind, h):
    # a nilpotent chain holds ceil(log2 index(s)) nonzero powers plus the
    # closing None, for every class and every product a tate job inverts
    def check(alg, gens):
        _, _, chain = localize_by_saturation(alg, gens)
        s = alg.one()
        for g in gens:
            s = s * g
        assert len(chain) == (alg.nilpotency_index(s) - 1).bit_length() + 1
        return len(chain)

    longest = 0
    for p, A in SMALL_GROUPS:
        cr = small_ring(kind, p, h, A)
        alg = cr.algebra
        for ec in cr.euler_classes(list(cr.group.elements())[1:]):
            longest = max(longest, check(alg, [ec.value]))
        for C in itertools.product(*(range(i + 1) for i in A)):
            if any(C):
                check(alg, [ec.value for ec in cr.euler_classes(
                    inverted_element_set(cr.group, SubgroupSpec(C)))])
    assert longest == 5  # x_1 of Z/16: x, x^2, x^4, x^8 and None
