"""Truncated multivariate power series with exact coefficients.

Series are truncated by TOTAL degree (matching ideal-filtration arguments and
keeping composition well defined) and stored sparsely as exponent-vector ->
coefficient maps.  Coefficients live in Z/N (plain ints) or Q (Fraction); the
domain object supplies the arithmetic.  All values are immutable in use:
operations return fresh series.  A series is evaluated at ring elements
(``eval_at``) by one column fold over sparse power tables, the fold the
Euler classes of ``classifying`` take.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .ring_core import RingElement, RingMismatch, graded_lex_key
from . import zmod


class SeriesError(Exception):
    pass


class NonzeroConstantTerm(SeriesError):
    pass


class NonUnitLinearTerm(SeriesError):
    pass


class NonNilpotentArgument(SeriesError):
    pass


class ZModDomain:
    """Coefficient arithmetic in Z/N on plain ints.

    ``prime`` is N when N is prime, else 0: over the field F_N every
    coefficient has c^N = c, so a series' N-th power is the series with its
    exponents multiplied by N.
    """

    __slots__ = ("n", "prime")
    kind = "zmod"

    def __init__(self, n: int):
        self.n = n
        self.prime = n if zmod.is_prime(n) else 0

    def normalize(self, c):
        return c % self.n

    def add(self, a, b):
        return (a + b) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def is_unit(self, a):
        return zmod.is_unit_mod(a, self.n)

    def as_integers(self, coeffs):
        """(ints, scale) with coeffs[i] = ints[i] / scale."""
        return coeffs, 1

    def from_scaled(self, c: int, scale: int):
        return c % self.n

    def inv(self, a):
        return zmod.inv_mod(a, self.n)

    zero = 0
    one = 1

    def coeff_str(self, c):
        return str(c)

    def __eq__(self, other):
        return isinstance(other, ZModDomain) and other.n == self.n

    def __repr__(self):
        return f"Z/{self.n}"


class RationalDomain:
    """Exact rational coefficients (Fraction keeps lowest terms)."""

    kind = "rational"
    prime = 0

    def normalize(self, c):
        return Fraction(c)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_unit(self, a):
        return a != 0

    def as_integers(self, coeffs):
        """(ints, scale) with coeffs[i] = ints[i] / scale."""
        scale = lcm(*(c.denominator for c in coeffs))
        return [c.numerator * (scale // c.denominator) for c in coeffs], scale

    def from_scaled(self, c: int, scale: int):
        return Fraction(c, scale)

    def inv(self, a):
        return 1 / Fraction(a)

    zero = Fraction(0)
    one = Fraction(1)

    def coeff_str(self, c):
        return str(c)

    def __eq__(self, other):
        return isinstance(other, RationalDomain)

    def __repr__(self):
        return "Q"


QQ = RationalDomain()


class TruncatedSeries:
    """Sparse series in ``vars`` truncated at total degree ``cap``."""

    __slots__ = ("domain", "vars", "cap", "terms")

    def __init__(self, domain, variables, cap: int, terms: dict):
        self.domain = domain
        self.vars = tuple(variables)
        self.cap = cap
        clean = {}
        for e, c in terms.items():
            if sum(e) > cap:
                continue
            c = domain.normalize(c)
            if c != domain.zero:
                clean[tuple(e)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, domain, variables, cap):
        return cls(domain, variables, cap, {})

    @classmethod
    def constant(cls, domain, variables, cap, c):
        e = tuple([0] * len(variables))
        return cls(domain, variables, cap, {e: c})

    @classmethod
    def variable(cls, domain, variables, cap, name):
        idx = list(variables).index(name)
        e = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls(domain, variables, cap, {e: domain.one})

    @classmethod
    def _reduced(cls, domain, variables: tuple, cap, terms: dict):
        """A series from nonzero normalized terms within the cap, kept as given."""
        out = object.__new__(cls)
        out.domain, out.vars, out.cap, out.terms = domain, variables, cap, terms
        return out

    # -- inspection -----------------------------------------------------------

    def coefficient(self, exponents):
        return self.terms.get(tuple(exponents), self.domain.zero)

    def constant_term(self):
        return self.coefficient([0] * len(self.vars))

    def is_zero(self):
        return not self.terms

    def univariate_coeffs(self):
        """Coefficient list c_0..c_cap for a one-variable series."""
        if len(self.vars) != 1:
            raise ValueError("not univariate")
        out = [self.domain.zero] * (self.cap + 1)
        for e, c in self.terms.items():
            out[e[0]] = c
        return out

    def _compat(self, other):
        if (
            not isinstance(other, TruncatedSeries)
            or other.vars != self.vars
            or other.domain != self.domain
        ):
            raise RingMismatch("series over different rings or variables")
        return min(self.cap, other.cap)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        cap = self._compat(other)
        dom = self.domain
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = dom.add(out.get(e, dom.zero), c)
        return TruncatedSeries(dom, self.vars, cap, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        dom = self.domain
        return TruncatedSeries(
            dom, self.vars, self.cap, {e: dom.neg(c) for e, c in self.terms.items()}
        )

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        cap = self._compat(other)
        dom = self.domain
        # Exponents travel as mixed-radix codes with radix cap + 1: a kept
        # product has every exponent <= cap, so adding codes never carries.
        # Coefficients travel as integers over one common denominator.
        nvars, radix = len(self.vars), cap + 1
        a_terms = [(e, c) for e, c in self.terms.items() if sum(e) <= cap]
        b_terms = [(e, c) for e, c in other.terms.items() if sum(e) <= cap]
        a_ints, a_scale = dom.as_integers([c for _, c in a_terms])
        b_ints, b_scale = dom.as_integers([c for _, c in b_terms])
        b_by_degree = [[] for _ in range(radix)]
        for (e, _), c in zip(b_terms, b_ints):
            b_by_degree[sum(e)].append((_encode(e, radix), c))
        # b_upto[d]: how many terms of other have degree <= d
        b_pairs, b_upto = [], []
        for bucket in b_by_degree:
            b_pairs += bucket
            b_upto.append(len(b_pairs))
        out = {}
        get = out.get
        for (e, _), ca in zip(a_terms, a_ints):
            code_a = _encode(e, radix)
            for code_b, cb in b_pairs[:b_upto[cap - sum(e)]]:
                code = code_a + code_b
                out[code] = get(code, 0) + ca * cb
        scale = a_scale * b_scale
        terms = {}
        for code, c in out.items():
            c = dom.from_scaled(c, scale)
            if c:
                terms[_decode(code, nvars, radix)] = c
        return TruncatedSeries._reduced(dom, self.vars, cap, terms)

    def scale(self, c):
        dom = self.domain
        c = dom.normalize(c)
        return TruncatedSeries(
            dom, self.vars, self.cap,
            {e: dom.mul(c, v) for e, v in self.terms.items()},
        )

    def __pow__(self, k: int):
        result = TruncatedSeries.constant(self.domain, self.vars, self.cap,
                                          self.domain.one)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def truncate(self, cap: int):
        return TruncatedSeries(self.domain, self.vars, min(cap, self.cap),
                               self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and other.vars == self.vars
            and other.domain == self.domain
            and other.cap == self.cap
            and other.terms == self.terms
        )

    def __repr__(self):
        if not self.terms:
            return "<series 0>"
        parts = []
        for e in sorted(self.terms, key=graded_lex_key):
            c = self.terms[e]
            mono = "*".join(
                v if k == 1 else f"{v}^{k}" for v, k in zip(self.vars, e) if k
            )
            parts.append(f"{c}" if not mono else (mono if c == self.domain.one else f"{c}*{mono}"))
        return "<series " + " + ".join(parts) + ">"

    def to_json_dict(self):
        items = sorted(self.terms.items(), key=lambda t: graded_lex_key(t[0]))
        return {
            "vars": list(self.vars),
            "cap": self.cap,
            "terms": [
                {"exp": list(e), "coeff": self.domain.coeff_str(c)}
                for e, c in items
            ],
        }


def _encode(e: tuple, radix: int) -> int:
    """The mixed-radix code sum_i e_i * radix^i of an exponent vector."""
    code = 0
    for k in reversed(e):
        code = code * radix + k
    return code


def _decode(code: int, nvars: int, radix: int) -> tuple:
    """Exponent vector of the mixed-radix code sum_i e_i * radix^i."""
    if nvars == 1:
        return (code,)
    out = []
    for _ in range(nvars):
        code, k = divmod(code, radix)
        out.append(k)
    return tuple(out)


def substitute(f: TruncatedSeries, assignments: dict) -> TruncatedSeries:
    """Formal composition: replace each variable by a series with zero constant term.

    The zero-constant-term requirement guarantees that only finitely many
    terms of f contribute to each output degree.  Terms are grouped by every
    exponent but the last: each group's coefficients scale cached powers of
    the last series into one sum, which then takes a single product with the
    group's powers of the other series.

    Powers are cached per series.  Over a prime field F_q, g^(q*j) = (g^j)^q
    is g^j with every exponent times q, which takes no product (the dropped
    tail of g^j only reaches degrees past the cap); otherwise g^k is
    g^(k-1) * g when g^(k-1) is cached, and square-and-multiply when it is
    not.
    """
    if set(assignments) != set(f.vars):
        raise ValueError("assignments must cover exactly the variables of f")
    values = [assignments[v] for v in f.vars]
    first = values[0]
    dom = f.domain
    cap = min([f.cap] + [g.cap for g in values])
    for g in values:
        if g.domain != dom:
            raise RingMismatch("substituted series over a different ring")
        if g.vars != first.vars:
            raise RingMismatch("substituted series must share variables")
        if g.constant_term() != dom.zero:
            raise NonzeroConstantTerm("substituted series has nonzero constant term")
    out_vars = first.vars
    one = TruncatedSeries.constant(dom, out_vars, cap, dom.one)
    # cache powers of each substituted series
    bases = [g.truncate(cap) for g in values]
    powers = [{0: one} for _ in values]
    q = dom.prime

    def power(i, k):
        cache = powers[i]
        if k not in cache:
            if q and k % q == 0:
                cache[k] = _frobenius(power(i, k // q), q)
            elif k - 1 in cache:
                cache[k] = cache[k - 1] * bases[i]
            else:
                half = power(i, k // 2)
                p = half * half
                if k % 2:
                    p = p * bases[i]
                cache[k] = p
        return cache[k]

    last = len(values) - 1
    groups = {}
    for e, c in f.terms.items():
        if sum(e) <= cap:
            groups.setdefault(e[:last], []).append((e[last], c))
    acc = {}
    for prefix, tail in groups.items():
        inner = {}
        for k, c in tail:
            for e, v in power(last, k).terms.items():
                inner[e] = inner.get(e, 0) + c * v
        group = TruncatedSeries(dom, out_vars, cap, inner)
        for i, k in enumerate(prefix):
            if k:
                group = power(i, k) * group
        for e, v in group.terms.items():
            acc[e] = acc.get(e, 0) + v
    return TruncatedSeries(dom, out_vars, cap, acc)


def _frobenius(g: TruncatedSeries, q: int) -> TruncatedSeries:
    """g^q over F_q: every exponent times q, terms past the cap dropped."""
    return TruncatedSeries._reduced(g.domain, g.vars, g.cap, {
        tuple(q * k for k in e): c for e, c in g.terms.items()
        if q * sum(e) <= g.cap})


def reversion(f: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse g of a univariate f with f(0)=0, f'(0) a unit.

    Newton iteration g <- g - (f(g) - x) / f'(g): if g is right through
    degree k, the step leaves an error of order (g - f^-1)^2, so g is right
    through degree 2k + 1.  Each round works at that precision, so
    O(log cap) rounds of two substitutions and one inverse replace one full
    substitution per degree.
    """
    if len(f.vars) != 1:
        raise ValueError("reversion needs a univariate series")
    dom = f.domain
    if f.constant_term() != dom.zero:
        raise NonzeroConstantTerm("reversion needs zero constant term")
    coeffs = f.univariate_coeffs()
    if len(coeffs) < 2 or not dom.is_unit(coeffs[1]):
        raise NonUnitLinearTerm("linear coefficient must be a unit")
    var, cap = f.vars[0], f.cap
    # f' is known through degree cap - 1 only; its degree-cap coefficient,
    # left 0, meets (f(g) - x), of valuation >= 2, beyond the cap
    deriv = TruncatedSeries(dom, f.vars, cap, {
        (k - 1,): dom.mul(dom.normalize(k), c) for (k,), c in f.terms.items()})
    x = TruncatedSeries.variable(dom, f.vars, cap, var)
    g = x.scale(dom.inv(coeffs[1]))
    good = 1
    while good < cap:
        good = min(2 * good + 1, cap)
        g = TruncatedSeries._reduced(dom, f.vars, good, g.terms)
        err = substitute(f.truncate(good), {var: g}) - x.truncate(good)
        g = g - err * inverse(substitute(deriv.truncate(good), {var: g}))
    return g


def inverse(f: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse of a series with unit constant term."""
    dom = f.domain
    c0 = f.constant_term()
    if not dom.is_unit(c0):
        raise NonUnitLinearTerm("constant term must be a unit")
    # Newton iteration g <- g - g*(f*g - 1): if g is right through degree k,
    # f*g - 1 has valuation > k, so the step is right through degree 2k + 1
    # and each round works at that precision
    g = TruncatedSeries.constant(dom, f.vars, 0, dom.inv(c0))
    good = 0
    while good < f.cap:
        good = min(2 * good + 1, f.cap)
        g = TruncatedSeries._reduced(dom, f.vars, good, g.terms)
        one = TruncatedSeries.constant(dom, f.vars, good, dom.one)
        g = g - g * (f.truncate(good) * g - one)
    return g


def eval_at(f: TruncatedSeries, args, polynomial: bool = False) -> RingElement:
    """Exact value of f at ring elements.

    Either every argument is nilpotent with the truncation cap covering all
    jointly nonvanishing monomials (so the dropped tail is invisible), or the
    caller asserts f is a polynomial and the finite sum is taken as-is.

    Each argument gets one sparse table of its nonzero powers
    (``_power_table``), which doubles as the nilpotency check: it runs until
    a power vanishes or, short of that, up to index cap + 1, past which the
    cap cannot cover the argument.  The value is the column fold of
    ``_fold``: the terms are grouped by their first exponent, and each
    group's rest is folded at the remaining arguments.
    """
    if len(args) != len(f.vars):
        raise ValueError("one argument per variable")
    if not args:
        raise ValueError("need at least one argument")
    alg = args[0].parent
    for a in args:
        if a.parent is not alg:
            raise RingMismatch("arguments from different rings")
    if not isinstance(f.domain, ZModDomain) or f.domain.n != alg.base.n:
        raise RingMismatch("series coefficients do not match the ring base")
    if polynomial:
        tops = [max((e[i] for e in f.terms), default=0) for i in range(len(args))]
    else:
        tops = [f.cap + 1] * len(args)
    tables = [_power_table(alg, a, top) for a, top in zip(args, tops)]
    if not polynomial:
        _check_covered(f.cap, tables, args)
    return alg.from_sparse(_fold(alg, f.terms.items(), tables))


def _fold(alg, terms, tables) -> list:
    """sum c * prod_i tables[i][e_i] over the (e, c) of terms, as a sparse
    element reduced mod N; a term past the end of a table is 0.

    With one table this is ``_combine``.  Otherwise the terms are grouped by
    their first exponent k, so f = sum_k x^k f_k, and the value is one
    ``dot_sparse`` of each row tables[0][k] with f_k folded at the other
    tables.  For F(x, y) the f_k are F's columns F_k(y).
    """
    n = alg.base.n
    if len(tables) == 1:
        return _combine([(e[0], c) for e, c in terms], tables[0], n)
    first, rest = tables[0], tables[1:]
    groups = {}
    for e, c in terms:
        if e[0] < len(first):
            groups.setdefault(e[0], []).append((e[1:], c))
    pairs = [(first[k], column) for k, group in groups.items()
             if (column := _fold(alg, group, rest))]
    return alg.dot_sparse(pairs)


def _combine(terms, table: list, n: int) -> list:
    """sum c * table[j] over the (j, c) of terms with j < len(table), from
    the sparse rows of the table, as a sparse element reduced mod n."""
    acc = {}
    get = acc.get
    top = len(table)
    for j, c in terms:
        if j < top:
            for i, x in table[j]:
                acc[i] = get(i, 0) + c * x
    return [(i, r) for i, c in acc.items() if (r := c % n)]


def _power_table(alg, a: RingElement, top: int) -> list:
    """Sparse rows (``FiniteAlgebra.sparse``) of 1, a, a^2, ... up to a^top,
    cut before the first zero power; each power is one ``multiply``."""
    table, power = [alg.sparse(alg.one())], a
    while len(table) <= top and not power.is_zero():
        table.append(alg.sparse(power))
        if len(table) <= top:
            power = power * a
    return table


def _check_covered(cap: int, tables, args):
    """Raise NonNilpotentArgument unless cap covers every monomial in the
    arguments that can be nonzero.

    ``tables[i]`` is the power table of the i-th argument, cut before its
    first zero power and at index cap + 1 (as ``_power_table`` with top
    cap + 1 cuts it), and ``args[i]`` is that argument.  A table that
    ends short of its top has the nilpotency index as its length; one that
    reaches index cap + 1 fails the test on its own.  The error names the
    first argument the cap cannot cover.
    """
    if sum(len(t) - 1 for t in tables) <= cap:
        return
    indices = []
    for a in args:
        idx = a.parent.nilpotency_index(a)
        if idx is None:
            raise NonNilpotentArgument(
                "argument is not nilpotent; pass polynomial=True for "
                "polynomial evaluation"
            )
        indices.append(idx)
    raise NonNilpotentArgument(
        f"cap {cap} does not cover all nonvanishing monomials "
        f"(need {sum(i - 1 for i in indices)})"
    )
