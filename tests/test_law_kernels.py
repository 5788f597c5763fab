"""The law-layer kernels against the algorithms they replaced.

Kept here only as references: the tuple-zipping series product, the
substitution that builds every term as a product with a scaled constant,
copies the accumulator per term and takes every power by square-and-multiply,
the series inverse that runs every Newton round at full precision, the axiom
check by five substitutions, the reversion that fixes one degree per full
substitution, the Honda law composed as e(S) over Z/p^(V+1), and the Honda
law composed over Q and reduced mod p.  The evaluation that checks
nilpotency with ``nilpotency_index`` and multiplies each term out is
``oracles.old_eval_at``, and the power table that takes every power by one
``multiply`` is ``oracles.multiply_power_table``.
"""

import functools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tateshift.fgl import (
    AxiomFailure,
    FormalGroupLaw,
    IntegralityFailure,
    build_honda,
)
from tateshift.ring_core import BaseModulus, FiniteAlgebra
from tateshift.series import (
    QQ,
    NonNilpotentArgument,
    NonzeroConstantTerm,
    TruncatedSeries,
    ZModDomain,
    _power_table,
    eval_at,
    inverse,
    reversion,
    substitute,
)
from tateshift import zmod

from oracles import multiply_power_table, old_eval_at

VARS = ("x", "y", "z")


# -- oracles -------------------------------------------------------------------


def tuple_mul(a, b):
    cap = min(a.cap, b.cap)
    dom = a.domain
    out = {}
    b_items = sorted(((sum(e), e, c) for e, c in b.terms.items()),
                     key=lambda t: t[0])
    for ea, ca in a.terms.items():
        da = sum(ea)
        if da > cap:
            continue
        for db, eb, cb in b_items:
            if da + db > cap:
                break
            e = tuple(x + y for x, y in zip(ea, eb))
            c = dom.mul(ca, cb)
            prev = out.get(e)
            out[e] = c if prev is None else dom.add(prev, c)
    return TruncatedSeries(dom, a.vars, cap, out)


def copy_substitute(f, assignments):
    values = [assignments[v] for v in f.vars]
    dom = f.domain
    cap = min([f.cap] + [g.cap for g in values])
    for g in values:
        if g.constant_term() != dom.zero:
            raise NonzeroConstantTerm("substituted series has nonzero constant term")
    out_vars = values[0].vars
    one = TruncatedSeries.constant(dom, out_vars, cap, dom.one)
    powers = [{0: one} for _ in values]

    def power(i, k):
        cache = powers[i]
        if k not in cache:
            half = power(i, k // 2)
            p = tuple_mul(half, half)
            if k % 2:
                p = tuple_mul(p, values[i].truncate(cap))
            cache[k] = p
        return cache[k]

    acc = TruncatedSeries.zero(dom, out_vars, cap)
    for e, c in f.terms.items():
        term = one.scale(c)
        for i, k in enumerate(e):
            if k:
                term = tuple_mul(term, power(i, k))
        acc = acc + term
    return acc


def full_precision_inverse(f):
    dom = f.domain
    out = TruncatedSeries.constant(dom, f.vars, f.cap, dom.inv(f.constant_term()))
    two = TruncatedSeries.constant(dom, f.vars, f.cap, dom.add(dom.one, dom.one))
    good = 1
    while good <= f.cap:
        out = out * (two - f * out)
        good *= 2
    return out


def five_substitution_axioms(F):
    """Raise AxiomFailure with the first failing axiom's message."""
    dom, cap = F.domain, F.cap
    zero = TruncatedSeries.zero(dom, ("x1", "x2"), cap)
    x1 = TruncatedSeries.variable(dom, ("x1", "x2"), cap, "x1")
    x2 = TruncatedSeries.variable(dom, ("x1", "x2"), cap, "x2")
    if substitute(F, {"x1": x1, "x2": zero}) != x1:
        raise AxiomFailure("F(x, 0) != x")
    if substitute(F, {"x1": zero, "x2": x2}) != x2:
        raise AxiomFailure("F(0, y) != y")
    if substitute(F, {"x1": x2, "x2": x1}) != F:
        raise AxiomFailure("F is not commutative")
    v3 = ("x1", "x2", "x3")
    t1, t2, t3 = (TruncatedSeries.variable(dom, v3, cap, v) for v in v3)
    inner = substitute(F, {"x1": t1, "x2": t2})
    left = substitute(F, {"x1": inner, "x2": t3}).terms
    if any(left.get((b, c, a)) != v for (a, b, c), v in left.items()):
        raise AxiomFailure("F is not associative")


def rational_to_zmod(f, n):
    def red(c):
        return c.numerator % n * zmod.inv_mod(c.denominator % n, n) % n

    return TruncatedSeries(ZModDomain(n), f.vars, f.cap,
                           {e: red(c) for e, c in f.terms.items()})


def rational_honda(p, n, D):
    """F of the height-n Honda law: e(l(x1) + l(x2)) over Q, reduced mod p.

    The composition uses the library's substitute: products and
    substitutions have their own oracles above, and this one checks the
    composition over Z/p^(V+1).
    """
    log_terms = {}
    i = 0
    while p ** (n * i) <= D:
        log_terms[(p ** (n * i),)] = Fraction(1, p**i)
        i += 1
    log = TruncatedSeries(QQ, ("x",), D, log_terms)
    exp = reversion(log)
    l1 = TruncatedSeries(QQ, ("x1", "x2"), D,
                         {(e[0], 0): c for e, c in log.terms.items()})
    l2 = TruncatedSeries(QQ, ("x1", "x2"), D,
                         {(0, e[0]): c for e, c in log.terms.items()})
    F_rat = substitute(exp, {"x": l1 + l2})
    for c in F_rat.terms.values():
        if c.denominator % p == 0:
            raise IntegralityFailure(f"coefficient {c} is not p-integral")
    return rational_to_zmod(F_rat, p)


def per_degree_reversion(f):
    """The compositional inverse fixed one degree at a time, each degree by a
    full substitution."""
    dom = f.domain
    coeffs = f.univariate_coeffs()
    a1_inv = dom.inv(coeffs[1])
    x = TruncatedSeries.variable(dom, f.vars, f.cap, f.vars[0])
    g = x.scale(a1_inv)
    for k in range(2, f.cap + 1):
        ck = substitute(f, {f.vars[0]: g}).coefficient((k,))
        if ck != dom.zero:
            g = g + TruncatedSeries(dom, f.vars, f.cap,
                                    {(k,): dom.neg(dom.mul(a1_inv, ck))})
    return g


def composed_honda(p, n, D):
    """F of the height-n Honda law by composing e with S = p^I (l(x1) + l(x2)).

    With I the top index of l and p^w the largest p-power in a denominator
    of e, p^V F_rat = sum_k e_k p^(w + (D-k) I) S^k, V = w + D*I, has
    p-integral coefficients, so it is composed over Z/p^(V+1) and divided by
    p^V.
    """
    I = 0
    while p ** (n * (I + 1)) <= D:
        I += 1
    log_terms, s_terms = {}, {}
    for i in range(I + 1):
        d = p ** (n * i)
        log_terms[(d,)] = Fraction(1, p**i)
        s_terms[(d, 0)] = s_terms[(0, d)] = p ** (I - i)
    exp = per_degree_reversion(TruncatedSeries(QQ, ("x",), D, log_terms))
    w = 0
    for c in exp.terms.values():
        while c.denominator % p ** (w + 1) == 0:
            w += 1
    V = w + D * I
    dom = ZModDomain(p ** (V + 1))
    G = rational_to_zmod(TruncatedSeries(QQ, ("x",), D, {
        (k,): c * p ** (w + (D - k) * I) for (k,), c in exp.terms.items()
    }), dom.n)
    scaled = substitute(G, {"x": TruncatedSeries(dom, ("x1", "x2"), D, s_terms)})
    assert all(c % p**V == 0 for c in scaled.terms.values())
    return TruncatedSeries(ZModDomain(p), ("x1", "x2"), D,
                           {e: c // p**V for e, c in scaled.terms.items()})


# -- random inputs ---------------------------------------------------------------
#
# Hypothesis draws a seeded Random per example; the inputs are built from it,
# which keeps each example cheap to draw.

DOMAINS = [ZModDomain(n) for n in (2, 4, 6, 9, 12, 27, 30, 101)] + [QQ]
RANDOMS = st.randoms(use_true_random=False)


def random_series(rng, dom, nvars, cap=None, constant=True, max_terms=10):
    """Up to max_terms terms within the cap; exponents clipped left to right."""
    cap = rng.randint(0, 8) if cap is None else cap
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e, room = [], cap
        for _ in range(nvars):
            e.append(min(rng.randint(0, cap), room))
            room -= e[-1]
        if not constant and room == cap:
            if cap == 0:
                continue
            e[-1] = 1
        num = rng.randint(-40, 40)
        terms[tuple(e)] = Fraction(num, rng.randint(1, 12)) if dom is QQ else num
    return TruncatedSeries(dom, VARS[:nvars], cap, terms)


def same(a, b):
    return a.cap == b.cap and a.vars == b.vars and a.terms == b.terms


# -- products and substitution ----------------------------------------------------


@settings(max_examples=120, deadline=None, derandomize=True)
@given(RANDOMS)
def test_product_matches_tuple_product(rng):
    dom = rng.choice(DOMAINS)
    nvars = rng.randint(1, 3)
    a = random_series(rng, dom, nvars)
    b = random_series(rng, dom, nvars)
    assert same(a * b, tuple_mul(a, b))
    assert same(b * a, tuple_mul(a, b))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(RANDOMS)
def test_substitute_matches_copying_substitute(rng):
    dom = rng.choice(DOMAINS)
    nout = rng.randint(1, 3)
    f = random_series(rng, dom, rng.randint(1, 3))
    values = {v: random_series(rng, dom, nout, constant=False, max_terms=5)
              for v in f.vars}
    assert same(substitute(f, values), copy_substitute(f, values))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(RANDOMS)
def test_newton_reversion_matches_per_degree_reversion(rng):
    dom = rng.choice(DOMAINS)
    f = random_series(rng, dom, 1, cap=rng.randint(1, 10), constant=False)
    linear = rng.choice([c for c in range(1, 13) if dom.is_unit(c)])
    f = f + TruncatedSeries(dom, f.vars, f.cap, {(1,): linear - f.coefficient((1,))})
    g = reversion(f)
    assert same(g, per_degree_reversion(f))
    x = TruncatedSeries.variable(dom, f.vars, f.cap, "x")
    assert substitute(f, {"x": g}) == x == substitute(g, {"x": f})


FIELDS = [ZModDomain(q) for q in (3, 5, 7)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(RANDOMS)
def test_substitute_over_prime_fields_matches_square_and_multiply(rng):
    dom = rng.choice(FIELDS)
    q = dom.n
    cap = rng.randint(q, 20)
    nout = rng.randint(1, 3 if cap <= 10 else 2)
    f = random_series(rng, dom, rng.randint(1, 2), cap=cap)
    # one exponent a multiple of q, so the Frobenius rule is always reached
    e = [0] * len(f.vars)
    e[rng.randrange(len(e))] = q * rng.randint(1, cap // q)
    f = f + TruncatedSeries(dom, f.vars, cap, {tuple(e): rng.randint(1, q - 1)})
    values = {v: random_series(rng, dom, nout, cap=cap, constant=False, max_terms=4)
              for v in f.vars}
    assert same(substitute(f, values), copy_substitute(f, values))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(RANDOMS)
def test_inverse_matches_full_precision_newton(rng):
    dom = rng.choice(DOMAINS)
    f = random_series(rng, dom, rng.randint(1, 3), cap=rng.randint(0, 9))
    unit = rng.choice([c for c in range(1, 13) if dom.is_unit(c)])
    zero = (0,) * len(f.vars)
    f = f + TruncatedSeries(dom, f.vars, f.cap, {zero: unit - f.coefficient(zero)})
    g = inverse(f)
    assert same(g, full_precision_inverse(f))
    assert f * g == TruncatedSeries.constant(dom, f.vars, f.cap, 1)


def random_law(rng, dom, cap):
    """x1 + x2 + c*x1*x2 conjugated by a random phi with a unit linear term,
    which is a law, then perhaps spoiled by one or two more terms."""
    n, v2 = dom.n, ("x1", "x2")
    base = TruncatedSeries(dom, v2, cap, {(1, 0): 1, (0, 1): 1,
                                          (1, 1): rng.randrange(n)})
    phi = random_series(rng, dom, 1, cap=cap, constant=False, max_terms=4)
    phi = phi + TruncatedSeries(dom, ("x",), cap, {
        (1,): rng.choice([c for c in range(1, n) if dom.is_unit(c)])
        - phi.coefficient((1,))})
    psi = reversion(phi)
    F = substitute(phi, {"x": substitute(base, {
        v: substitute(psi, {"x": TruncatedSeries.variable(dom, v2, cap, v)})
        for v in v2})})
    a = rng.randint(0, cap)
    b = rng.randint(0, cap - a)
    c = rng.randrange(1, n)
    roll = rng.random()
    if roll < 0.3:
        F = F + TruncatedSeries(dom, v2, cap, {(a, b): c})
    elif roll < 0.6:
        F = F + TruncatedSeries(dom, v2, cap, {(a, b): c}) \
            + TruncatedSeries(dom, v2, cap, {(b, a): c})
    return F


def axiom_message(check, F):
    try:
        check(F)
    except AxiomFailure as exc:
        return str(exc)
    return None


@settings(max_examples=80, deadline=None, derandomize=True)
@given(RANDOMS)
def test_check_axioms_matches_five_substitutions(rng):
    dom = rng.choice([ZModDomain(4), ZModDomain(2), ZModDomain(3)])
    F = random_law(rng, dom, rng.randint(1, 6))
    law = FormalGroupLaw(F, 2, None, "custom", check=False)
    assert axiom_message(lambda _: law.check_axioms(), F) == \
        axiom_message(five_substitution_axioms, F)


# -- evaluation --------------------------------------------------------------------

# (modulus, relations): monic relations c_0 + ... + x^d, top coefficient last;
# all but the last two are local towers, where a zero constant coordinate
# makes an element nilpotent
RINGS = [
    (4, [[0, 2, 1]]),
    (2, [[0, 0, 0, 1]]),
    (8, [[2, 0, 4, 1]]),
    (9, [[3, 3, 1], [0, 0, 1]]),
    (4, [[2, 0, 1], [0, 2, 0, 1]]),
    (27, [[0, 3, 1], [3, 0, 1]]),
    (6, [[0, 1, 1]]),
    (5, [[1, 0, 1]]),
]


@functools.cache
def ring(index):
    n, relations = RINGS[index]
    names = [f"t{k}" for k in range(len(relations))]
    return FiniteAlgebra.from_presentation(BaseModulus(n), names, relations)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(RANDOMS)
def test_eval_at_matches_term_by_term_evaluation(rng):
    alg = ring(rng.randrange(len(RINGS)))
    n = alg.base.n
    args = []
    for _ in range(rng.choice((1, 1, 2, 2, 3))):
        coords = [rng.randrange(n) for _ in range(alg.rank)]
        if rng.random() < 0.85:
            coords[0] = 0
        args.append(alg.from_coords(coords))
    f = random_series(rng, ZModDomain(n), len(args), cap=rng.randint(0, 12))
    polynomial = rng.random() < 0.3
    try:
        expected = old_eval_at(f, args, polynomial)
    except NonNilpotentArgument as exc:
        with pytest.raises(NonNilpotentArgument) as got:
            eval_at(f, args, polynomial)
        assert str(got.value) == str(exc)
    else:
        assert eval_at(f, args, polynomial) == expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(RANDOMS)
def test_power_table_matches_multiply_table(rng):
    # F_p towers x_k^(d_k), where every p-th power is a Frobenius image, and
    # Z/p^K local towers, where frobenius() is None and each power a product
    p = rng.choice((2, 3, 5))
    K = rng.choice((1, 1, 2))
    n = p**K
    relations = []
    for _ in range(rng.choice((1, 1, 2))):
        d = rng.randint(1, 12 if p == 2 else 7)
        relations.append([p * rng.randrange(p) % n for _ in range(d)] + [1])
    names = [f"t{k}" for k in range(len(relations))]
    alg = FiniteAlgebra.from_presentation(BaseModulus(n), names, relations)
    assert (alg.frobenius() is not None) == (K == 1)
    coords = [rng.randrange(n) for _ in range(alg.rank)]
    if rng.random() < 0.8:
        coords[0] = 0  # nilpotent: the table is cut at a zero power
    a = alg.from_coords(coords)
    top = rng.choice((0, 1, 2, rng.randint(0, 40)))
    assert _power_table(alg, a, top) == multiply_power_table(alg, a, top)


def test_eval_at_error_messages_pinned():
    alg = FiniteAlgebra.from_presentation(BaseModulus(2), ["t"], [[0, 0, 0, 1]])
    t = alg.gen(0)
    dom = ZModDomain(2)
    f = TruncatedSeries(dom, ("x", "y"), 3, {(1, 1): 1})
    # t^3 = 0: two arguments of index 3 need cap 4
    with pytest.raises(NonNilpotentArgument, match=r"cap 3 does not cover .*need 4"):
        eval_at(f, [t, t])
    with pytest.raises(NonNilpotentArgument, match="argument is not nilpotent"):
        eval_at(f, [t, alg.one() + t])
    assert eval_at(f, [t, alg.one() + t], polynomial=True) == t + t * t


# -- the Honda law ---------------------------------------------------------------

HONDA_HEIGHTS = [(p, n) for p in (2, 3, 5) for n in (1, 2, 3) if p**n <= 16]


def test_honda_case_count():
    assert sum(17 - p**n for p, n in HONDA_HEIGHTS) == 71


@pytest.mark.parametrize("p,n", HONDA_HEIGHTS)
def test_honda_law_matches_rational_composition(p, n):
    for cap in range(p**n, 17):
        assert same(build_honda(p, n, cap).F, rational_honda(p, n, cap))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.sampled_from(HONDA_HEIGHTS), st.data())
def test_honda_law_matches_old_composition(height, data):
    p, n = height
    cap = data.draw(st.integers(p**n, 40), label="cap")
    assert same(build_honda(p, n, cap).F, composed_honda(p, n, cap))


def test_honda_cap_30_is_fast():
    start = time.perf_counter()
    build_honda(2, 1, 30)
    assert time.perf_counter() - start < 1.5
