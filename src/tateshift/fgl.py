"""Formal group laws: m-series, p^j-series, the difference unit, Weierstrass data.

A formal group law is a two-variable truncated series F(x1, x2) over Z/p^K or
F_p satisfying unitality, commutativity and associativity (checked exactly on
all stored coefficients at build time).  The p-series and its iterates drive
everything downstream: Weierstrass preparation turns them into the monic
relations of classifying rings.

Writing F(x1, x2) = x1 + x2 * G(x1, x2), G(0, 0) = 1, gives every difference
its unit: F(b, a -_F b) = a makes a - b = (a -_F b) * G(b, a -_F b).  This
G certifies the root differences of classifying rings.
"""

from __future__ import annotations

from math import comb

from . import zmod
from .series import (
    TruncatedSeries,
    ZModDomain,
    inverse as series_inverse,
    reversion,
    substitute,
)


class FGLError(Exception):
    pass


class CapTooSmall(FGLError):
    pass


class NotWeierstrassReady(FGLError):
    pass


class NonLocalRing(FGLError):
    pass


class IntegralityFailure(FGLError):
    pass


class AxiomFailure(FGLError):
    pass


X1, X2 = "x1", "x2"


class FormalGroupLaw:
    """F(x1, x2) plus cached m-series; immutable after construction.

    The caches hold pure functions of the build inputs, so concurrent readers
    see deterministic values; a duplicated fill writes the identical entry.
    """

    def __init__(self, F: TruncatedSeries, p: int, height, kind: str,
                 check: bool = True):
        if F.vars != (X1, X2):
            raise ValueError("F must be a series in (x1, x2)")
        self.F = F
        self.p = p
        self.height = height
        self.kind = kind
        self.domain = F.domain
        self.cap = F.cap
        # F(x, y) = sum_i x^i F_i(y): columns[i] lists the (j, c) terms of F_i
        self.columns: dict[int, list] = {}
        for (i, j), c in F.terms.items():
            self.columns.setdefault(i, []).append((j, c))
        self._m_cache: dict[int, TruncatedSeries] = {}
        self._weierstrass: dict[int, WeierstrassFactorization] = {}
        self._formal_inverse = None
        if check:
            self.check_axioms()
        x = TruncatedSeries.variable(self.domain, ("x",), self.cap, "x")
        self._m_cache[0] = TruncatedSeries.zero(self.domain, ("x",), self.cap)
        self._m_cache[1] = x

    # -- axioms ---------------------------------------------------------------

    def check_axioms(self):
        """Unitality and commutativity read off F's terms, associativity
        from the one composition L(x, y, z) = F(F(x, y), z)."""
        dom, cap, terms = self.F.domain, self.F.cap, self.F.terms
        x1 = TruncatedSeries.variable(dom, (X1, X2), cap, X1)
        x2 = TruncatedSeries.variable(dom, (X1, X2), cap, X2)
        # F(x, 0) is the sum of F's x2-free terms, F(0, y) of its x1-free ones
        if {e: c for e, c in terms.items() if not e[1]} != x1.terms:
            raise AxiomFailure("F(x, 0) != x")
        if {e: c for e, c in terms.items() if not e[0]} != x2.terms:
            raise AxiomFailure("F(0, y) != y")
        if any(terms.get((b, a)) != c for (a, b), c in terms.items()):
            raise AxiomFailure("F is not commutative")
        # With F commutative, F(x, F(y, z)) = F(F(y, z), x) = L(y, z, x), so
        # F is associative exactly when L is invariant under rotating its
        # variables; rotating one way or the other is the same condition,
        # checked on L's exponents
        v3 = ("x1", "x2", "x3")
        inner = TruncatedSeries._reduced(
            dom, v3, cap, {(a, b, 0): c for (a, b), c in terms.items()})
        t3 = TruncatedSeries.variable(dom, v3, cap, "x3")
        left = substitute(self.F, {X1: inner, X2: t3}).terms
        if any(left.get((b, c, a)) != v for (a, b, c), v in left.items()):
            raise AxiomFailure("F is not associative")

    # -- formal sum / inverse ---------------------------------------------------

    def formal_sum(self, a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
        """a +_F b for series with zero constant term over this law's ring."""
        return substitute(self.F, {X1: a, X2: b})

    def formal_inverse(self) -> TruncatedSeries:
        """The series i(x) with F(x, i(x)) = 0, solved degree by degree."""
        if self._formal_inverse is not None:
            return self._formal_inverse
        dom, cap = self.domain, self.cap
        x = TruncatedSeries.variable(dom, ("x",), cap, "x")
        inv = -x
        while True:
            r = self.formal_sum(x, inv)
            if r.is_zero():
                break
            # F(x, inv + d) = F(x, inv) + d*(1 + higher); subtracting the
            # residual kills its lowest degree each round
            inv = inv - r
        self._formal_inverse = inv
        return inv

    # -- m-series ---------------------------------------------------------------

    def m_series(self, m: int) -> TruncatedSeries:
        """[m](x): the m-fold formal sum of x, negatives via the formal inverse."""
        if m in self._m_cache:
            return self._m_cache[m]
        if m < 0:
            out = substitute(self.formal_inverse(), {"x": self.m_series(-m)})
            self._m_cache[m] = out
            return out
        # [k] = [k - 1] +_F x when [k - 1] is cached, as in an ascending scan,
        # else [k - k // 2] +_F [k // 2]: at most two formal sums per halving
        cache, x = self._m_cache, self._m_cache[1]
        chain = [m]
        while chain[-1] not in cache and chain[-1] - 1 not in cache:
            chain.append(chain[-1] // 2)
        for k in reversed(chain):
            if k in cache:
                continue
            if k - 1 in cache:
                cache[k] = self.formal_sum(cache[k - 1], x)
                continue
            if k - k // 2 not in cache:  # k odd: [k // 2 + 1] = [k // 2] +_F x
                cache[k - k // 2] = self.formal_sum(cache[k // 2], x)
            cache[k] = self.formal_sum(cache[k - k // 2], cache[k // 2])
        return cache[m]

    def p_series(self) -> TruncatedSeries:
        return self.m_series(self.p)

    def pj_series(self, j: int) -> TruncatedSeries:
        """[p^j](x) as the j-fold composition of the p-series."""
        if j < 0:
            raise ValueError("j must be >= 0")
        if j == 0:
            return self._m_cache[1]
        if self.height is not None and self.cap < self.p ** (self.height * j):
            raise CapTooSmall(
                f"cap {self.cap} < p^(n*j) = {self.p ** (self.height * j)}"
            )
        out = self.p_series()
        for _ in range(j - 1):
            out = substitute(out, {"x": self.p_series()})
        return out

    def weierstrass(self, j: int) -> WeierstrassFactorization:
        """Weierstrass preparation of [p^j](x), kept per j like the m-series;
        its ``poly`` is the monic relation of Z/p^j in a classifying ring."""
        if j not in self._weierstrass:
            self._weierstrass[j] = weierstrass_prepare(self.pj_series(j))
        return self._weierstrass[j]

    def describe(self):
        return {
            "kind": self.kind,
            "p": self.p,
            "height": self.height,
            "modulus": getattr(self.domain, "n", None),
            "cap": self.cap,
        }


# -- constructors --------------------------------------------------------------


def build_multiplicative(p: int, K: int, D: int) -> FormalGroupLaw:
    """F = x1 + x2 + x1*x2 over Z/p^K; [p](x) = (1+x)^p - 1."""
    if K < 1:
        raise ValueError("modulus power K must be >= 1")
    if D < p:
        raise CapTooSmall("cap must be at least p")
    n = p**K
    dom = ZModDomain(n)
    F = TruncatedSeries(dom, (X1, X2), D, {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    law = FormalGroupLaw(F, p, 1, "multiplicative")
    # cache [p](x) via binomials: (1+x)^p - 1
    terms = {(k,): comb(p, k) % n for k in range(1, min(p, D) + 1)}
    law._m_cache[p] = TruncatedSeries(dom, ("x",), D, terms)
    return law


def build_honda(p: int, n: int, D: int) -> FormalGroupLaw:
    """Height-n law over F_p from the logarithm l(x) = sum_i x^(p^(n*i)) / p^i.

    The rational law F_rat = e(l(x1) + l(x2)), e = l^-1, is p-integral (a
    failure signals a bug, not bad input); reducing mod p yields
    [p](x) = x^(p^n) exactly, the periodicity generator being specialized
    to 1.

    No rational number is formed.  lam(x) = l(px)/p =
    sum_i p^(p^(n*i) - i - 1) x^(p^(n*i)) is integral with linear
    coefficient 1, so its reversion mu is integral, and e(p*y) = p*mu(y).
    Since l(x1) + l(x2) separates,

        F_rat(p*x1, p*x2) / p = mu(lam(x1) + lam(x2))
                              = sum_(a,b) mu_(a+b) C(a+b, a) lam(x1)^a lam(x2)^b,

    a bilinear form P^T M P with rows P_a = lam^a and
    M_(a,b) = mu_(a+b) C(a+b, a), taken without any bivariate product.  Its
    coefficient at x1^i x2^j is p^(i+j-1) times that of F_rat, so it is
    evaluated over Z/p^D, the image of Z_(p): F_rat is p-integral exactly
    when every degree-d coefficient of the form is divisible by p^(d-1),
    and F is the quotient.  The law is graded
    (Ravenel, Complex Cobordism, A2.2): mu_k = 0 unless k = 1 (mod p^n - 1),
    and lam^a lives in degrees = a (mod p^n - 1), so M and P are sparse.
    """
    if n < 1:
        raise ValueError("height n must be >= 1")
    if D < p**n:
        raise CapTooSmall("cap must be at least p^n")
    N = p**D
    dom = ZModDomain(N)
    lam_terms = {}
    i = 0
    while p ** (n * i) <= D:
        d = p ** (n * i)
        lam_terms[(d,)] = p ** (d - i - 1)
        i += 1
    lam = TruncatedSeries(dom, ("x",), D, lam_terms)
    mu = reversion(lam).univariate_coeffs()
    powers = [TruncatedSeries.constant(dom, ("x",), D, 1)]
    for _ in range(D):
        powers.append(powers[-1] * lam)
    # rows[a]: the terms (degree, coefficient) of lam^a by ascending degree
    rows = [sorted((e, c) for (e,), c in power.terms.items()) for power in powers]
    form = {}
    for a, row_a in enumerate(rows):
        # column a of M P: sum_b mu_(a+b) C(a+b, a) lam^b, below degree D - a
        column = {}
        for b in range(D - a + 1):
            c = mu[a + b] and mu[a + b] * comb(a + b, a) % N
            if c:
                for j, v in rows[b]:
                    if j > D - a:
                        break
                    column[j] = column.get(j, 0) + c * v
        column = sorted((j, v % N) for j, v in column.items() if v % N)
        for i, u in row_a:
            for j, v in column:
                if i + j > D:
                    break
                form[(i, j)] = form.get((i, j), 0) + u * v
    terms = {}
    for (i, j), c in form.items():
        c, scale = c % N, p ** (i + j - 1)
        if c % scale:
            raise IntegralityFailure(
                f"coefficient at {(i, j)} has negative p-adic valuation"
            )
        terms[(i, j)] = c // scale
    F = TruncatedSeries(ZModDomain(p), (X1, X2), D, terms)
    law = FormalGroupLaw(F, p, n, "honda")
    pxp = law.p_series()
    expected = TruncatedSeries(ZModDomain(p), ("x",), D, {(p**n,): 1})
    if pxp != expected:
        raise IntegralityFailure("p-series of the height-n law is not x^(p^n)")
    law._m_cache[p] = expected
    return law


# -- the unit of differences ---------------------------------------------------


def _sum_unit_series(law: FormalGroupLaw) -> TruncatedSeries:
    """G with F(x1, x2) = x1 + x2 * G(x1, x2): the terms of F with a positive
    x2 exponent, shifted down by one in x2.  G(0, 0) = 1.

    F is known to total degree cap, so G is known to cap - 1.
    """
    if getattr(law, "_sum_unit", None) is not None:
        return law._sum_unit
    dom, F = law.domain, law.F
    shifted = {}
    for (e1, e2), c in F.terms.items():
        if e2:
            shifted[(e1, e2 - 1)] = c
        elif (e1, c) != (1, dom.one):
            raise AxiomFailure("F(x, 0) != x")
    law._sum_unit = TruncatedSeries(dom, (X1, X2), law.cap - 1, shifted)
    return law._sum_unit


# -- Weierstrass division and preparation ----------------------------------------


class WeierstrassFactorization:
    """alpha = unit * g with g monic of degree deg_W(alpha).

    ``unit`` is the inverse of the quotient q of the division x^d = r +
    alpha*q, taken when first read: the classifying ring reads only
    ``poly``.
    """

    __slots__ = ("_quotient", "_unit", "poly", "degree")

    def __init__(self, quotient: TruncatedSeries, poly: list[int], degree: int):
        self._quotient = quotient
        self._unit = None
        self.poly = poly
        self.degree = degree

    @property
    def unit(self) -> TruncatedSeries:
        if self._unit is None:
            self._unit = series_inverse(self._quotient)
        return self._unit

    def __repr__(self):
        return f"WeierstrassFactorization(degree={self.degree}, poly={self.poly})"


def _local_data(dom):
    """(p, K) for Z/p^K coefficient domains; Weierstrass needs a local base."""
    if not isinstance(dom, ZModDomain):
        raise NonLocalRing("Weierstrass division needs Z/p^K coefficients")
    pk = zmod.prime_power(dom.n)
    if pk is None:
        raise NonLocalRing(f"Z/{dom.n} is not local")
    return pk


def weierstrass_degree(alpha: TruncatedSeries) -> int:
    """Least d with the coefficient of x^d a unit."""
    dom = alpha.domain
    _local_data(dom)
    coeffs = alpha.univariate_coeffs()
    for d, c in enumerate(coeffs):
        if dom.is_unit(c):
            return d
    raise NotWeierstrassReady("no unit coefficient up to the cap")


def weierstrass_divide(f: TruncatedSeries, alpha: TruncatedSeries):
    """Unique (r, q) with f = r + alpha*q and deg r < deg_W(alpha).

    The maximal ideal (p) of Z/p^K is nilpotent with p^K = 0, so the defect
    iteration terminates after exactly K rounds; everything is exact.
    """
    dom = f.domain
    if dom != alpha.domain or f.vars != alpha.vars or len(f.vars) != 1:
        raise ValueError("univariate series over a common ring required")
    p, K = _local_data(dom)
    d = weierstrass_degree(alpha)
    cap = min(f.cap, alpha.cap)
    var = f.vars[0]
    a = alpha.univariate_coeffs()
    low = TruncatedSeries(dom, f.vars, cap, {(i,): a[i] for i in range(d)})
    high_unit = TruncatedSeries(
        dom, f.vars, cap, {(i - d,): a[i] for i in range(d, len(a))}
    )
    high_unit_inv = series_inverse(high_unit)

    def div_xd(g):
        tail = {}
        head = {}
        for (e,), c in g.terms.items():
            if e >= d:
                tail[(e - d,)] = c
            else:
                head[(e,)] = c
        return (
            TruncatedSeries(dom, f.vars, cap, head),
            TruncatedSeries(dom, f.vars, cap, tail),
        )

    r_total = TruncatedSeries.zero(dom, f.vars, cap)
    q_total = TruncatedSeries.zero(dom, f.vars, cap)
    g = f.truncate(cap)
    for _ in range(K):
        r_t, tail = div_xd(g)
        q_t = high_unit_inv * tail
        r_total = r_total + r_t
        q_total = q_total + q_t
        g = -(low * q_t)
        if g.is_zero():
            break
    if not g.is_zero():
        raise AxiomFailure("Weierstrass iteration did not terminate in K rounds")
    r_coeffs = r_total.univariate_coeffs()[:d]
    return TruncatedSeries(dom, f.vars, cap,
                           {(i,): c for i, c in enumerate(r_coeffs)}), q_total


def weierstrass_prepare(alpha: TruncatedSeries) -> WeierstrassFactorization:
    """alpha = eps * g, eps a unit series, g monic of degree deg_W(alpha).

    Divide x^d by alpha: x^d = r + alpha*q; then g = x^d - r and eps = q^-1
    (q has unit constant term because alpha = a_d x^d mod the maximal ideal),
    inverted when ``unit`` is first read.
    """
    dom = alpha.domain
    d = weierstrass_degree(alpha)
    cap = alpha.cap
    xd = TruncatedSeries(dom, alpha.vars, cap, {(d,): dom.one})
    r, q = weierstrass_divide(xd, alpha)
    r_coeffs = r.univariate_coeffs()[:d]
    poly = [dom.neg(c) for c in r_coeffs] + [dom.one]
    return WeierstrassFactorization(q, poly, d)
