"""The power-normal-form reducer against the stack reducer it replaced.

The stack reducer rewrites one x_k^d at a time through g_k and pushes the
resulting terms back; it is kept here only as the reference.  The multiset
product generator is checked against the eager breadth-first search it
replaced in the same way, and against the lazy search that multiplied with
``value * gens[idx]`` before multipliers; the table-free products of
presented algebras against the structure table they used to fill, and
multiplication through cached columns and sparse sums (``dot_sparse``)
against ``FiniteAlgebra.multiply``, over presented, tabled and quotient
algebras.
"""

import itertools
import math
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from tateshift.ring_core import (
    ZERO_RING,
    BaseModulus,
    ExactPolyRing,
    FiniteAlgebra,
    MonomialReducer,
    NonFreeQuotient,
    RingMismatch,
    algebra_from_json,
    algebra_to_json,
    ideal_module_rows,
    multiset_products,
)
from tateshift.tate_blueshift import (
    multiplicative_euler_class_exact,
    multiplicative_exact_ring,
)

from oracles import identity_by_full_scan, quotient_by_ideal


def stack_reduce(relations, terms, modulus=None):
    """Normal form of {exponents: coeff}, one x_k^d rewrite at a time."""
    degrees = [len(r) - 1 for r in relations]
    out = {}
    stack = list(terms.items())
    while stack:
        e, c = stack.pop()
        if modulus:
            c %= modulus
        if not c:
            continue
        for k, d in enumerate(degrees):
            if e[k] >= d:
                rest = list(e)
                rest[k] -= d
                for t in range(d):
                    if relations[k][t]:
                        e2 = list(rest)
                        e2[k] += t
                        stack.append((tuple(e2), -c * relations[k][t]))
                break
        else:
            out[e] = out.get(e, 0) + c
    if modulus:
        out = {e: c % modulus for e, c in out.items()}
    return {e: c for e, c in out.items() if c}


def raw_product(a, b):
    raw = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            raw[e] = raw.get(e, 0) + c1 * c2
    return raw


@st.composite
def monic_relations(draw, coeff=st.integers(-4, 4), max_rank=48):
    """1-3 monic integer relations of degrees 1-6.

    The rank bound keeps the stack reducer, whose work grows exponentially
    with the exponents, fast enough for Tier-1.
    """
    degrees = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)
                   .filter(lambda ds: math.prod(ds) <= max_rank))
    return [[draw(coeff) for _ in range(d)] + [1] for d in degrees]


def elements(ring, draw):
    coeff = st.integers(-3, 3)
    monos = draw(st.lists(st.sampled_from(ring.monomials), max_size=5))
    return {m: draw(coeff) for m in monos}


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_exact_products_match_stack_reducer(data):
    relations = data.draw(monic_relations())
    ring = ExactPolyRing([f"x{k + 1}" for k in range(len(relations))], relations)
    a = elements(ring, data.draw)
    b = elements(ring, data.draw)
    got = ring.from_terms(a) * ring.from_terms(b)
    assert got.terms == stack_reduce(relations, raw_product(a, b))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(monic_relations(), st.data())
def test_reduce_any_exponent_matches_stack_reducer(relations, data):
    # exponents beyond 2d - 2 extend the power rows on demand
    ring = ExactPolyRing([f"x{k + 1}" for k in range(len(relations))], relations)
    exps = tuple(data.draw(st.integers(0, 2 * len(r) + 1)) for r in relations)
    assert ring.reduce({exps: 2}) == stack_reduce(relations, {exps: 2})


def filled_table(relations, n):
    """The structure table from_presentation used to fill, every i <= j."""
    reducer = MonomialReducer(relations, modulus=n)
    exps, codes = reducer.monomials, reducer.codes
    table = {}
    for i, ei in enumerate(exps):
        for j in range(i, len(exps)):
            table[(i, j)] = reducer.fold(codes[ei] + codes[exps[j]])
    return table


def table_multiply(table, rank, n, a, b):
    acc = [0] * rank
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            if ca * cb % n:
                for k, ck in table[(i, j) if i <= j else (j, i)]:
                    acc[k] += ca * cb % n * ck
    return tuple(x % n for x in acc)


def table_mul_matrix(table, rank, n, e):
    """Columns e * b_j through the table, then transposed into rows."""
    cols = []
    for j in range(rank):
        col = [0] * rank
        for i, c in enumerate(e):
            if c:
                for k, ck in table[(i, j) if i <= j else (j, i)]:
                    col[k] = (col[k] + c * ck) % n
        cols.append(col)
    return [[cols[j][i] for j in range(rank)] for i in range(rank)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([2, 4, 6, 9, 12, 30]),
       monic_relations(coeff=st.integers(0, 29), max_rank=24), st.data())
def test_presentation_table_matches_stack_reducer(n, relations, data):
    # basis products and generators against the stack reducer; products,
    # multiplication matrices and ideal rows against the table that
    # from_presentation used to fill, with the old loops over it
    relations = [[c % n for c in r[:-1]] + [1] for r in relations]
    names = [f"x{k + 1}" for k in range(len(relations))]
    alg = FiniteAlgebra.from_presentation(BaseModulus(n), names, relations)
    exps = alg.presentation["exponents"]
    index = alg.presentation["index"]
    for i, j in itertools.combinations_with_replacement(range(alg.rank), 2):
        prod = tuple(x + y for x, y in zip(exps[i], exps[j]))
        oracle = stack_reduce(relations, {prod: 1}, modulus=n)
        assert dict(alg.basis_product(i, j)) == {index[e]: c for e, c in oracle.items()}
    for k in range(len(relations)):
        x_k = tuple(int(t == k) for t in range(len(relations)))
        oracle = stack_reduce(relations, {x_k: 1}, modulus=n)
        assert alg.gen(k).coords == tuple(
            oracle.get(e, 0) for e in exps
        )
    assert alg.mul_table is None
    table, rank = filled_table(relations, n), alg.rank
    # the same table given directly, as quotient algebras carry theirs
    tabled = FiniteAlgebra(alg.base, rank, alg.basis_labels, table)
    coord = st.sampled_from([0, 0, 0, 1, n - 1]) | st.integers(0, n - 1)
    vec = st.lists(coord, min_size=rank, max_size=rank)
    a, b = data.draw(vec), data.draw(vec)
    expected = table_multiply(table, rank, n, a, b)
    assert (alg.from_coords(a) * alg.from_coords(b)).coords == expected
    assert (tabled.from_coords(a) * tabled.from_coords(b)).coords == expected
    matrix = table_mul_matrix(table, rank, n, a)
    assert alg.mul_matrix(alg.from_coords(a)) == matrix
    assert tabled.mul_matrix(tabled.from_coords(a)) == matrix
    assert ideal_module_rows([alg.from_coords(a)]) == [list(c) for c in zip(*matrix)]


def factor_check_passes(alg) -> bool:
    try:
        alg._check_identity()
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("mutation", [None, "row", "swap"])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.sampled_from([4, 8, 9, 25, 27, 6]),
       monic_relations(coeff=st.integers(0, 26), max_rank=48), st.data())
def test_factor_identity_check_matches_full_scan(mutation, n, relations, data):
    # the factor check reads sum d_k power rows and the code-to-index map;
    # it passes, and fails on a mutated reducer, exactly as the full scan
    relations = [[c % n for c in r[:-1]] + [1] for r in relations]
    names = [f"x{k + 1}" for k in range(len(relations))]
    alg = FiniteAlgebra.from_presentation(BaseModulus(n), names, relations)
    reducer = alg._reducer
    if mutation == "swap" and alg.rank == 1:
        mutation = "row"
    if mutation == "row":  # one coefficient of one power row 0 < t < d_k
        # (no normal form reads the unit row of a zero exponent)
        k = data.draw(st.sampled_from(
            [k for k, d in enumerate(reducer.degrees) if d > 1] or [None]))
        assume(k is not None)  # rank 1 has no such row
        d = reducer.degrees[k]
        row = reducer.power_row(k, data.draw(st.integers(1, d - 1)))
        s = data.draw(st.integers(0, d - 1))
        row[s] = (row[s] + data.draw(st.integers(1, n - 1))) % n
    elif mutation == "swap":  # two codes of basis monomials trade indices
        i, j = data.draw(st.lists(st.integers(0, alg.rank - 1), min_size=2,
                                  max_size=2, unique=True))
        index, codes = reducer._index_of_code, alg._right
        index[codes[i]], index[codes[j]] = j, i
    reducer._folds.clear()  # the full scan reads the mutated reducer afresh
    assert factor_check_passes(alg) is identity_by_full_scan(alg) is (
        mutation is None)


def test_power_rows_mod_n():
    # x^2 = 3x + 1 over Z/4: x^3 = 3x^2 + x = 10x + 3 = 2x + 3
    red = MonomialReducer([[3, 1, 1]], modulus=4)
    assert red.power_row(0, 2) == [1, 3]
    assert red.power_row(0, 3) == [3, 2]
    assert red.multiply([(1, 1)], [(1, 1)]) == {0: 1, 1: 3}


def test_degree_one_generator_is_reduced():
    ring = ExactPolyRing(["x", "y"], [[3, 1], [0, 0, 1]])
    assert ring.gen(0).terms == {(0, 0): -3}
    assert (ring.gen(0) * ring.gen(1)).terms == {(0, 1): -3}


def test_dense_rank_625_product_is_fast():
    ring = multiplicative_exact_ring(5, [2, 2])
    assert ring.rank == 625
    start = time.perf_counter()
    product = ring.one()
    for w in [(20, 3), (7, 22), (24, 24), (13, 13)]:
        product = product * multiplicative_euler_class_exact(ring, w)
    assert time.perf_counter() - start < 2.0
    assert not product.is_zero()


# -- multiset products ------------------------------------------------------------


def eager_bfs_products(gens, max_len):
    """Every distinct multiset product up to max_len, computed level by level."""
    frontier = [(g, i, (i,)) for i, g in enumerate(gens)]
    seen = set()
    out = []
    for value, _, word in frontier:
        if value.coords not in seen:
            seen.add(value.coords)
            out.append((value, word))
    for _ in range(max_len - 1):
        nxt = []
        for value, last, word in frontier:
            for i in range(last, len(gens)):
                prod = value * gens[i]
                if prod.coords in seen:
                    continue
                seen.add(prod.coords)
                nxt.append((prod, i, word + (i,)))
                out.append((prod, word + (i,)))
        frontier = nxt
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([4, 6, 8, 9]), st.data())
def test_multiset_products_match_eager_search(n, data):
    degree = data.draw(st.integers(2, 3))
    relation = [data.draw(st.integers(0, n - 1)) for _ in range(degree)] + [1]
    alg = FiniteAlgebra.from_presentation(BaseModulus(n), ["x"], [relation])
    coord = st.sampled_from([0, 0, 1, 2, n - 1])
    gens = data.draw(st.lists(
        st.lists(coord, min_size=alg.rank, max_size=alg.rank).map(alg.from_coords),
        min_size=1, max_size=4,
    ))
    max_len = data.draw(st.integers(1, 4))
    assert list(multiset_products(gens, max_len)) == eager_bfs_products(gens, max_len)


# -- multiplication through cached columns ------------------------------------------


def lazy_products_oracle(gens, max_len):
    """multiset_products as it was before multipliers: value * gens[idx]."""
    seen = set()
    frontier = []
    for idx, g in enumerate(gens):
        if g not in seen:
            seen.add(g)
            frontier.append((g, idx, (idx,)))
            yield g, (idx,)
    for _ in range(max_len - 1):
        extended = []
        for value, last, word in frontier:
            for idx in range(last, len(gens)):
                prod = value * gens[idx]
                size = len(seen)
                seen.add(prod)
                if len(seen) == size:
                    continue
                longer = word + (idx,)
                extended.append((prod, idx, longer))
                yield prod, longer
        frontier = extended


def presented_and_tabled(n, relations):
    """The tower over Z/n, presented and given by its filled table."""
    relations = [[c % n for c in r[:-1]] + [1] for r in relations]
    names = [f"x{k + 1}" for k in range(len(relations))]
    alg = FiniteAlgebra.from_presentation(BaseModulus(n), names, relations)
    tabled = FiniteAlgebra(alg.base, alg.rank, alg.basis_labels,
                           filled_table(relations, n))
    return alg, tabled


def random_element(alg, rnd):
    """Sparse-leaning coordinates; drawn from ``rnd`` because hypothesis
    draws of rank-long lists cost more than the products they test."""
    n = alg.base.n
    return alg.from_coords([rnd.choice([0, 0, 0, 1, n - 1, rnd.randrange(n)])
                            for _ in range(alg.rank)])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([2, 4, 6, 9, 12, 30]),
       monic_relations(coeff=st.integers(0, 29), max_rank=24), st.data())
def test_multiplier_matches_multiply(n, relations, data):
    # two multipliers on one ring, each applied to the same values twice, so
    # that the second pass reads every column back from its cache; the rings
    # are the tower, its filled table and a quotient when it is free
    rnd = data.draw(st.randoms(use_true_random=False))
    rings = list(presented_and_tabled(n, relations))
    try:
        quotient = quotient_by_ideal(rings[0], [random_element(rings[0], rnd)])[0]
    except NonFreeQuotient:
        quotient = ZERO_RING
    if quotient != ZERO_RING:
        rings.append(quotient)
    for alg in rings:
        gens = [random_element(alg, rnd) for _ in range(2)]
        values = [random_element(alg, rnd) for _ in range(3)]
        times = [g.multiplier() for g in gens]
        for _ in range(2):
            for g, t in zip(gens, times):
                for v in values:
                    assert t(v).coords == alg.multiply(v, g).coords
        # one sparse sum over every (value, generator) pair, reduced once
        total = alg.zero()
        for g in gens:
            for v in values:
                total = total + alg.multiply(v, g)
        pairs = [(alg.sparse(v), alg.sparse(g)) for g in gens for v in values]
        assert alg.from_sparse(alg.dot_sparse(pairs)) == total


@pytest.mark.parametrize("n", [2, 4, 6, 9])
def test_scalar_ring_matches_empty_presentation(n):
    # Z/n as a rank-1 algebra, built directly and from its wire format
    direct = FiniteAlgebra.scalar_ring(BaseModulus(n))
    wired = algebra_from_json({"base": str(n), "vars": [], "relations": []})
    assert algebra_to_json(direct) == algebra_to_json(wired)
    assert repr(direct) == repr(wired) == f"Z/{n}"
    assert direct.basis_labels == wired.basis_labels == ["1"]
    for a, b in itertools.product(range(n), repeat=2):
        assert ((direct.from_int(a) * direct.from_int(b)).coords
                == (wired.from_int(a) * wired.from_int(b)).coords
                == ((a * b) % n,))


def test_multiplier_rejects_other_ring():
    z4 = FiniteAlgebra.from_presentation(BaseModulus(4), ["x"], [[0, 0, 1]])
    z8 = FiniteAlgebra.from_presentation(BaseModulus(8), ["x"], [[0, 0, 1]])
    with pytest.raises(RingMismatch):
        z4.gen(0).multiplier()(z8.gen(0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([2, 4, 6, 9, 12, 30]),
       monic_relations(coeff=st.integers(0, 29), max_rank=12), st.data())
def test_multiset_products_match_lazy_oracle(n, relations, data):
    # the search through multipliers yields the (value, word) sequence of
    # the search through value * gens[idx], over both ring presentations
    max_len = data.draw(st.integers(1, 4))
    rnd = data.draw(st.randoms(use_true_random=False))
    for alg in presented_and_tabled(n, relations):
        gens = [random_element(alg, rnd) for _ in range(rnd.randint(1, 4))]
        got = list(itertools.islice(multiset_products(gens, max_len), 400))
        assert got == list(itertools.islice(lazy_products_oracle(gens, max_len), 400))

