"""Formal group laws: frozen series values, composition laws, Weierstrass data."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from tateshift import fgl
from tateshift.fgl import (
    AxiomFailure,
    CapTooSmall,
    NotWeierstrassReady,
    build_honda,
    build_multiplicative,
    weierstrass_degree,
    weierstrass_divide,
    weierstrass_prepare,
)
from tateshift.series import TruncatedSeries, ZModDomain, inverse, substitute

from oracles import (
    build_additive,
    build_custom,
    formal_difference_with_unit,
    poly_compose_iterate,
)


def uni(dom, cap, terms):
    return TruncatedSeries(dom, ("x",), cap, terms)


# -- m-series and p^j-series ---------------------------------------------------


def test_multiplicative_one_series_is_x():
    law = build_multiplicative(2, 2, 6)
    assert law.m_series(1) == uni(law.domain, 6, {(1,): 1})


def test_multiplicative_two_series_mod4():
    law = build_multiplicative(2, 2, 6)
    assert law.m_series(2) == uni(law.domain, 6, {(1,): 2, (2,): 1})


def test_multiplicative_four_series_mod2():
    law = build_multiplicative(2, 1, 6)
    # (1+x)^4 - 1 = x^4 over F_2
    assert law.pj_series(2) == uni(law.domain, 6, {(4,): 1})


def test_multiplicative_four_series_mod4():
    law = build_multiplicative(2, 2, 6)
    # (1+x)^4 - 1 = 4x + 6x^2 + 4x^3 + x^4 = 2x^2 + x^4 mod 4
    expected = uni(law.domain, 6, {(2,): 2, (4,): 1})
    assert law.pj_series(2) == expected
    assert law.m_series(4) == expected


def test_minus_one_series_multiplicative():
    # 1/(1+x) - 1 = -x + x^2 - x^3 + ...
    law = build_multiplicative(2, 2, 3)
    got = law.m_series(-1)
    assert got == uni(law.domain, 3, {(1,): 3, (2,): 1, (3,): 3})


def binomial(m, k):
    """The coefficient of x^k in (1+x)^m, for any integer m."""
    if m >= 0:
        return math.comb(m, k)
    return (-1) ** k * math.comb(k - m - 1, k)


def test_m_series_closed_form_far_out():
    # [m](x) = (1+x)^m - 1, with m past the interpreter's recursion limit
    law = build_multiplicative(2, 2, 6)
    for m in (1500, -1500, -7):
        expected = uni(law.domain, 6,
                       {(k,): binomial(m, k) for k in range(1, 7)})
        assert law.m_series(m) == expected


def test_m_series_linear_term():
    law = build_multiplicative(3, 2, 5)
    for m in range(-4, 8):
        s = law.m_series(m)
        assert s.coefficient((1,)) == m % 9


def test_m_series_multiplicativity():
    # [m*k](x) = [m]([k](x))
    rng = random.Random(17)
    law = build_multiplicative(2, 2, 8)
    for _ in range(12):
        m = rng.randrange(-6, 7)
        k = rng.randrange(-6, 7)
        lhs = law.m_series(m * k)
        rhs = substitute(law.m_series(m), {"x": law.m_series(k)})
        assert lhs == rhs


def upward_m_series(law, m):
    """Oracle: [m](x) for m >= 0 as the m-fold formal sum x +_F ... +_F x."""
    out = law.m_series(0)
    for _ in range(m):
        out = law.formal_sum(out, law.m_series(1))
    return out


M_SERIES_LAWS = [
    lambda: build_multiplicative(2, 2, 9),
    lambda: build_honda(2, 2, 12),
    lambda: build_honda(3, 1, 10),
]


@pytest.mark.parametrize("build", M_SERIES_LAWS,
                         ids=["mult-p2-K2", "honda-p2-n2", "honda-p3-n1"])
def test_m_series_matches_upward_fill(build):
    oracle_law = build()
    expected = {m: upward_m_series(oracle_law, m) for m in range(65)}
    # halvings from a fresh cache, ascending and descending scans, and a
    # shuffled order that reaches indices from every kind of cached state
    for order in (range(64, -1, -1), range(65),
                  random.Random(5).sample(range(65), 65)):
        law = build()
        for m in order:
            assert law.m_series(m) == expected[m], m


def test_m_series_far_index_takes_log_many_sums(monkeypatch):
    law = build_multiplicative(3, 3, 9)
    m = 10**9 + 7
    sums = []
    original = law.formal_sum

    def counted(a, b):
        # fail at once rather than run an m-step fill
        sums.append(1)
        assert len(sums) <= 2 * m.bit_length()
        return original(a, b)

    monkeypatch.setattr(law, "formal_sum", counted)
    expected = uni(law.domain, 9, {(k,): math.comb(m, k) for k in range(1, 10)})
    assert law.m_series(m) == expected
    # the next index up is one more sum
    sums.clear()
    law.m_series(m + 1)
    assert len(sums) == 1


def test_p_series_cache_matches_fold():
    law = build_multiplicative(3, 1, 6)
    folded = law.formal_sum(law.formal_sum(law.m_series(1), law.m_series(1)),
                            law.m_series(1))
    assert law.p_series() == folded


def test_pj_series_cap_guard():
    law = build_multiplicative(2, 2, 6)
    with pytest.raises(CapTooSmall):
        law.pj_series(3)  # needs cap >= 8


def test_pj_equals_m_series_power():
    for law in (build_multiplicative(2, 2, 9), build_honda(2, 1, 9)):
        for j in (1, 2, 3):
            assert law.pj_series(j) == law.m_series(2**j)


# -- axioms ------------------------------------------------------------------------


def test_commutative_non_associative_law_is_refused():
    dom = ZModDomain(4)
    F = TruncatedSeries(dom, ("x1", "x2"), 4, {
        (1, 0): 1, (0, 1): 1, (1, 1): 1, (2, 1): 1, (1, 2): 1})
    x1, x2 = (TruncatedSeries.variable(dom, F.vars, 4, v) for v in F.vars)
    assert substitute(F, {"x1": x2, "x2": x1}) == F
    v3 = ("x", "y", "z")
    x, y, z = (TruncatedSeries.variable(dom, v3, 4, v) for v in v3)
    left = substitute(F, {"x1": substitute(F, {"x1": x, "x2": y}), "x2": z})
    right = substitute(F, {"x1": x, "x2": substitute(F, {"x1": y, "x2": z})})
    assert left != right
    with pytest.raises(AxiomFailure, match="not associative"):
        build_custom(F, 2)


@pytest.mark.parametrize("extra,message", [
    ({(2, 0): 1}, "F(x, 0) != x"),
    ({(0, 2): 1}, "F(0, y) != y"),
    ({(2, 1): 1}, "F is not commutative"),
])
def test_each_axiom_failure_is_named(extra, message):
    F = TruncatedSeries(ZModDomain(4), ("x1", "x2"), 4,
                        {(1, 0): 1, (0, 1): 1, **extra})
    with pytest.raises(AxiomFailure) as exc:
        build_custom(F, 2)
    assert str(exc.value) == message


def test_check_axioms_takes_one_substitution(monkeypatch):
    calls = []

    def counted(f, assignments):
        calls.append(f)
        return substitute(f, assignments)

    law = build_honda(2, 2, 20)
    monkeypatch.setattr(fgl, "substitute", counted)
    law.check_axioms()
    assert calls == [law.F]


# -- Honda laws ------------------------------------------------------------------


def test_honda_unitality_via_build():
    law = build_honda(2, 1, 6)  # constructor verifies all axioms exactly
    assert law.F.coefficient((1, 0)) == 1
    assert law.F.coefficient((0, 1)) == 1


def test_honda_p_series_exact():
    for p, n in ((2, 1), (2, 2), (3, 1)):
        law = build_honda(p, n, p**n + p)
        assert law.p_series() == uni(law.domain, p**n + p, {(p**n,): 1})


def test_honda_p2n1_matches_multiplicative_p_series_mod2():
    # both height-1 laws at p=2 have [2](x) = x^2, though the laws themselves
    # differ from degree 3 on
    honda = build_honda(2, 1, 6)
    mult = build_multiplicative(2, 1, 6)
    assert honda.p_series() == mult.p_series()


def test_honda_cap_guard():
    with pytest.raises(CapTooSmall):
        build_honda(2, 2, 3)


# -- formal difference with unit --------------------------------------------------


def test_formal_difference_b_zero():
    law = build_multiplicative(2, 2, 5)
    dom = law.domain
    a = TruncatedSeries(dom, ("x1", "x2"), 5, {(1, 0): 1})
    b = TruncatedSeries.zero(dom, ("x1", "x2"), 5)
    diff, eps = formal_difference_with_unit(law, a, b)
    assert diff == a
    # eps reaches degree cap - 1 only; its missing top term meets a - b,
    # of valuation >= 1, past the cap, so the product is taken at full cap
    assert (a - b) * TruncatedSeries(dom, eps.vars, 5, eps.terms) == diff
    assert eps.constant_term() == 1


def test_formal_difference_additive():
    law = build_additive(5, 5)
    dom = law.domain
    a = TruncatedSeries(dom, ("x1", "x2"), 5, {(1, 0): 1, (2, 0): 3})
    b = TruncatedSeries(dom, ("x1", "x2"), 5, {(0, 1): 1})
    diff, eps = formal_difference_with_unit(law, a, b)
    assert diff == a - b
    assert eps == TruncatedSeries.constant(dom, ("x1", "x2"), 4, 1)


def test_formal_difference_multiplicative_geometric_unit():
    # x1 -_F x2 = (x1 - x2)/(1 + x2): eps = sum (-x2)^k
    law = build_multiplicative(2, 2, 4)
    dom = law.domain
    x1 = TruncatedSeries.variable(dom, ("x1", "x2"), 4, "x1")
    x2 = TruncatedSeries.variable(dom, ("x1", "x2"), 4, "x2")
    diff, eps = formal_difference_with_unit(law, x1, x2)
    # eps is determined to degree cap - 1 = 3
    expected_eps = TruncatedSeries(
        dom, ("x1", "x2"), 3, {(0, k): (-1) ** k for k in range(4)}
    )
    assert eps == expected_eps
    assert diff == (x1 - x2) * TruncatedSeries(dom, eps.vars, 4, eps.terms)


def test_formal_difference_identity_random():
    rng = random.Random(23)
    law = build_multiplicative(2, 2, 6)
    dom = law.domain
    for _ in range(20):
        a = TruncatedSeries(
            dom, ("x1", "x2"), 6,
            {(i, j): rng.randrange(4) for i in range(3) for j in range(3)
             if 1 <= i + j <= 3},
        )
        b = TruncatedSeries(
            dom, ("x1", "x2"), 6,
            {(i, j): rng.randrange(4) for i in range(3) for j in range(3)
             if 1 <= i + j <= 3},
        )
        diff, eps = formal_difference_with_unit(law, a, b)
        assert diff == (a - b) * TruncatedSeries(dom, eps.vars, 6, eps.terms)
        assert dom.is_unit(eps.constant_term())


def u_substitution_difference(law, a, b):
    """(a -_F b, eps) by substitution alone, as an oracle.

    D = F(x1, i(x2)) vanishes at x1 = x2, so with x1 = u + x2 every term of
    D is divisible by u; the quotient, with u = x1 - x2 substituted back, is
    the universal eps, known to degree cap - 1.
    """
    dom, cap = law.domain, law.cap
    x1, x2 = (TruncatedSeries.variable(dom, ("x1", "x2"), cap, v)
              for v in ("x1", "x2"))
    D = substitute(law.F, {"x1": x1, "x2": substitute(law.formal_inverse(),
                                                      {"x": x2})})
    u, v = (TruncatedSeries.variable(dom, ("u", "x2"), cap, w)
            for w in ("u", "x2"))
    g = substitute(D, {"x1": u + v, "x2": v})
    assert all(eu for eu, _ in g.terms)
    quotient = TruncatedSeries(dom, ("u", "x2"), cap - 1,
                               {(eu - 1, e2): c for (eu, e2), c in g.terms.items()})
    eps = substitute(quotient, {"u": x1 - x2, "x2": x2})
    eps_cap = min(cap - 1, a.cap, b.cap)
    return (substitute(D, {"x1": a, "x2": b}),
            substitute(eps.truncate(eps_cap), {"x1": a, "x2": b}))


LAWS = {
    "multiplicative Z/2": lambda: build_multiplicative(2, 1, 7),
    "multiplicative Z/4": lambda: build_multiplicative(2, 2, 6),
    "multiplicative Z/9": lambda: build_multiplicative(3, 2, 6),
    "multiplicative Z/5": lambda: build_multiplicative(5, 1, 6),
    "honda p=2 n=1": lambda: build_honda(2, 1, 7),
    "honda p=2 n=2": lambda: build_honda(2, 2, 7),
    "honda p=3 n=1": lambda: build_honda(3, 1, 6),
    "additive Z/5": lambda: build_additive(5, 6),
    "additive Z/8": lambda: build_additive(8, 5),
}
_BUILT = {}


def random_argument(rng, law, variables):
    """A series in ``variables`` with zero constant term, at a cap below,
    at or above the law's."""
    dom, nvars = law.domain, len(variables)
    cap = rng.randint(1, law.cap + 1)
    terms = {}
    for _ in range(rng.randint(0, 6)):
        e = [0] * nvars
        for _ in range(rng.randint(1, 3)):
            e[rng.randrange(nvars)] += 1
        terms[tuple(e)] = rng.randrange(dom.n)
    return TruncatedSeries(dom, variables, cap, terms)


@settings(max_examples=90, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(LAWS)), st.randoms(use_true_random=False))
def test_formal_difference_matches_u_substitution(name, rng):
    if name not in _BUILT:
        _BUILT[name] = LAWS[name]()
    law = _BUILT[name]
    variables = rng.choice([("x",), ("x1", "x2"), ("s", "t", "w")])
    a = random_argument(rng, law, variables)
    b = random_argument(rng, law, variables)
    diff, eps = formal_difference_with_unit(law, a, b)
    want_diff, want_eps = u_substitution_difference(law, a, b)
    assert diff == want_diff and diff.cap == min(law.cap, a.cap, b.cap)
    assert eps == want_eps and eps.cap == min(law.cap - 1, a.cap, b.cap)
    assert eps.constant_term() == 1


# -- Weierstrass division and preparation ------------------------------------------


def test_weierstrass_degree():
    dom = ZModDomain(4)
    assert weierstrass_degree(uni(dom, 5, {(1,): 2, (2,): 1})) == 2
    with pytest.raises(NotWeierstrassReady):
        weierstrass_degree(uni(dom, 5, {(1,): 2}))


def test_weierstrass_prepare_already_polynomial():
    dom = ZModDomain(4)
    alpha = uni(dom, 6, {(1,): 2, (2,): 1})
    fac = weierstrass_prepare(alpha)
    assert fac.degree == 2
    assert fac.poly == [0, 2, 1]  # x^2 + 2x
    assert fac.unit == TruncatedSeries.constant(dom, ("x",), 6, 1)


def test_weierstrass_prepare_four_series_mod4():
    law = build_multiplicative(2, 2, 9)
    g1 = weierstrass_prepare(law.p_series()).poly
    assert g1 == [0, 2, 1]
    fac2 = weierstrass_prepare(law.pj_series(2))
    assert fac2.poly == [0, 0, 2, 0, 1]  # x^4 + 2x^2
    # g_2 = g_1 o g_1: (x^2+2x)^2 + 2(x^2+2x) = x^4 + 2x^2 mod 4
    assert poly_compose_iterate(g1, 2, 4) == [0, 0, 2, 0, 1]


def test_weierstrass_poly_composition_law():
    # the Weierstrass polynomial of [p^j] is the j-fold composite of g_1
    for law in (build_multiplicative(2, 2, 9), build_honda(2, 1, 9)):
        n = law.domain.n
        g1 = law.weierstrass(1).poly
        for j in (2, 3):
            assert law.weierstrass(j).poly == poly_compose_iterate(g1, j, n)


def test_law_weierstrass_is_prepared_once_per_j():
    law = build_multiplicative(2, 2, 9)
    for j in (0, 1, 2, 3):
        fac = law.weierstrass(j)
        assert law.weierstrass(j) is fac
        want = weierstrass_prepare(law.pj_series(j))
        assert (fac.poly, fac.degree, fac.unit) == (want.poly, want.degree, want.unit)


def test_weierstrass_prepare_xd_over_field():
    dom = ZModDomain(5)
    alpha = uni(dom, 6, {(3,): 1})
    fac = weierstrass_prepare(alpha)
    assert fac.poly == [0, 0, 0, 1]
    assert fac.unit == TruncatedSeries.constant(dom, ("x",), 6, 1)


def test_weierstrass_divide_self():
    dom = ZModDomain(4)
    alpha = uni(dom, 8, {(1,): 2, (2,): 1, (3,): 3})
    r, q = weierstrass_divide(alpha, alpha)
    assert r.is_zero()
    assert q == TruncatedSeries.constant(dom, ("x",), 8, 1)


def test_weierstrass_divide_x_cubed_example():
    dom = ZModDomain(4)
    alpha = uni(dom, 8, {(1,): 2, (2,): 1})
    f = uni(dom, 8, {(3,): 1})
    r, q = weierstrass_divide(f, alpha)
    assert max((e[0] for e in r.terms), default=0) <= 1
    assert r + alpha * q == f


def test_weierstrass_reassembly_random():
    rng = random.Random(31)
    dom = ZModDomain(4)
    alpha = uni(dom, 12, {(1,): 2, (2,): 1, (4,): 3})
    for _ in range(100):
        f = uni(dom, 12, {(k,): rng.randrange(4) for k in range(13)})
        r, q = weierstrass_divide(f, alpha)
        assert r + alpha * q == f
        assert max((e[0] for e in r.terms), default=0) <= 1


def test_weierstrass_unit_times_poly_reassembles():
    law = build_multiplicative(2, 2, 9)
    for j in (1, 2):
        alpha = law.pj_series(j)
        fac = weierstrass_prepare(alpha)
        dom = law.domain
        gpoly = TruncatedSeries(dom, ("x",), alpha.cap,
                                {(i,): c for i, c in enumerate(fac.poly)})
        assert fac.unit * gpoly == alpha
        assert dom.is_unit(fac.unit.constant_term())


@pytest.mark.parametrize("kind, p, n_or_K, j", [
    ("honda", 2, 1, 1), ("honda", 2, 1, 3), ("honda", 2, 2, 1), ("honda", 2, 2, 2),
    ("honda", 3, 1, 2), ("honda", 3, 2, 1), ("multiplicative", 2, 1, 2),
    ("multiplicative", 2, 2, 2), ("multiplicative", 2, 3, 2),
    ("multiplicative", 3, 2, 1), ("multiplicative", 3, 3, 2),
])
def test_weierstrass_unit_is_taken_when_read(kind, p, n_or_K, j):
    # .poly needs no unit; the eager preparation, x^d = r + alpha*q with
    # g = x^d - r and unit q^-1, gives the same poly, and the unit it
    # inverts on first read reassembles alpha.  These [p^j]-series are
    # polynomials (unit 1), so each also runs times a unit series u.
    height = n_or_K if kind == "honda" else 1
    cap = p ** (height * j) + p
    law = (build_honda(p, n_or_K, cap) if kind == "honda"
           else build_multiplicative(p, n_or_K, cap))
    dom = law.domain
    u = uni(dom, cap, {(0,): 1, (1,): 1, (3,): p - 1})
    for alpha in (law.pj_series(j), u * law.pj_series(j)):
        fac = weierstrass_prepare(alpha)
        d = fac.degree
        r, q = weierstrass_divide(uni(dom, alpha.cap, {(d,): 1}), alpha)
        eager = [dom.neg(c) for c in r.univariate_coeffs()[:d]] + [1]
        assert fac.poly == eager
        assert fac._unit is None  # reading .poly inverted nothing
        gpoly = uni(dom, alpha.cap, {(i,): c for i, c in enumerate(fac.poly)})
        assert fac.unit == inverse(q)
        assert fac.unit * gpoly == alpha
        assert fac.unit is fac.unit  # inverted once
    assert fac.unit != uni(dom, cap, {(0,): 1})


def test_weierstrass_poly_is_xd_mod_maximal_ideal():
    # non-leading coefficients of g lie in (p)
    for law in (build_multiplicative(2, 2, 9), build_multiplicative(3, 2, 9)):
        fac = weierstrass_prepare(law.p_series())
        assert all(c % law.p == 0 for c in fac.poly[:-1])
        assert fac.poly[-1] == 1


def test_zero_series():
    law = build_multiplicative(2, 2, 4)
    assert law.m_series(0).is_zero()


def test_custom_law_from_series():
    dom = ZModDomain(4)
    F = TruncatedSeries(dom, ("x1", "x2"), 4,
                        {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    law = build_custom(F, 2, height=1)
    assert law.kind == "custom"
    assert law.pj_series(1) == law.m_series(2)
