"""Finite commutative rings with decidable unit / zero-divisor / ideal questions.

A FiniteAlgebra is a commutative ring presented as a finite free Z/N-module,
usually built from a tower base[x_1..x_m]/(g_1(x_1), ..., g_m(x_m)) with
monic relations, whose basis products come from a monomial reducer; other
algebras (quotients) carry a structure-constant table.  Either way a basis
product is one lookup in a cache keyed by an integer code of the pair,
filled on first use from the reducer or the table.  Elements are
coordinate vectors in a fixed graded-lexicographic monomial basis, so all
serializations are bit-stable.

ExactPolyRing is the exact-integer counterpart Z[x_1..x_m]/(relations):
normal-form arithmetic, zero-certificate search, and one integer elimination
(integer_solver) for its unit, zero-divisor, division and ideal questions; no
saturation (that needs finiteness).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
from collections import defaultdict

from . import zmod


class RingError(Exception):
    """Base class; the class name is the stable machine-readable error code."""


class RingMismatch(RingError):
    pass


class NotDivisible(RingError):
    pass


class ZeroDivisorDivisor(RingError):
    pass


class NonFreeQuotient(RingError):
    pass


ZERO_RING = "ZERO"  # explicit marker for the zero ring, never a rank-0 table


def graded_lex_key(exponents):
    """Sort key for monomial exponent vectors: total degree, then lex."""
    return (sum(exponents), tuple(exponents))


class MonomialReducer:
    """Normal forms in base[x_1..x_m]/(g_1(x_1), ..., g_m(x_m)), g_k monic.

    The base is Z (``modulus`` None) or Z/N.  The quotient is free on the
    monomials with every e_k < d_k = deg g_k, listed in graded-lex order
    (``monomials``, ``index``).  The powers x_k^e with d_k <= e <= 2d_k - 2
    are put into normal form once, one multiplication by x_k at a time; rows
    for higher e are extended on demand.  The normal form of a monomial is
    the product of the rows of its nonzero exponents, each read as its
    nonzero terms only: per (k, e), the (t * w_k, coeff) pairs of the row,
    built on first use and kept beside the folds.

    A product of two basis monomials has every e_k <= 2d_k - 2, so it is
    encoded carry-free as the mixed-radix integer sum e_k * w_k with radix
    2d_k - 1 (``codes``).  ``multiply`` convolves coefficient lists in that
    code and folds each raw code through its normal form, built on first use
    and kept.  Over Z/N every coefficient is reduced mod N.
    """

    def __init__(self, relations, modulus=None):
        self.modulus = modulus
        self.degrees = [len(rel) - 1 for rel in relations]
        # x_k^d = sum_t tails[k][t] x_k^t with tails[k][t] = -a_t
        self._tails = [self._mod([-c for c in rel[:-1]]) for rel in relations]
        self._rows = [[[int(t == e) for t in range(d)] for e in range(d)]
                      for d in self.degrees]
        self.weights = []
        size = 1
        for k, d in enumerate(self.degrees):
            self.power_row(k, 2 * d - 2)
            self.weights.append(size)
            size *= 2 * d - 1
        self.raw_size = size
        self.monomials = sorted(
            itertools.product(*[range(d) for d in self.degrees]),
            key=graded_lex_key,
        )
        self.index = {e: i for i, e in enumerate(self.monomials)}
        self.codes = {e: sum(x * w for x, w in zip(e, self.weights))
                      for e in self.monomials}
        self._index_of_code = {c: self.index[e] for e, c in self.codes.items()}
        self._folds = {}
        self._code_rows = {}

    def _mod(self, coeffs):
        n = self.modulus
        return [c % n for c in coeffs] if n else list(coeffs)

    def power_row(self, k: int, e: int) -> list:
        """Coefficients of x_k^e in the basis 1, x_k, ..., x_k^(d_k - 1)."""
        if e < 0:
            raise ValueError("negative exponent")
        rows, tail = self._rows[k], self._tails[k]
        while len(rows) <= e:
            prev = rows[-1]
            top = prev[-1]
            nxt = [0] + prev[:-1]
            if top:
                nxt = self._mod([a + top * t for a, t in zip(nxt, tail)])
            rows.append(nxt)
        return rows[e]

    def _code_row(self, k: int, e: int) -> list:
        """The nonzero terms of ``power_row(k, e)`` as (t * w_k, coeff)
        pairs, built on first use and kept."""
        terms = self._code_rows.get((k, e))
        if terms is None:
            w = self.weights[k]
            terms = self._code_rows[(k, e)] = [
                (t * w, x) for t, x in enumerate(self.power_row(k, e)) if x]
        return terms

    def normal_form(self, exps) -> tuple:
        """x^exps as ((basis index, coeff), ...), sorted by index."""
        acc = {0: 1}
        for k, e in enumerate(exps):
            if not e:
                continue  # the unit row leaves acc as it is
            terms = self._code_row(k, e)
            acc = {code + tw: c * x for code, c in acc.items() for tw, x in terms}
        idx = self._index_of_code
        out = [(idx[code], c) for code, c in zip(acc, self._mod(acc.values()))]
        return tuple(sorted((i, c) for i, c in out if c))

    def fold(self, code: int) -> tuple:
        """Normal form of the raw product monomial with mixed-radix ``code``."""
        row = self._folds.get(code)
        if row is None:
            exps = [code // w % (2 * d - 1)
                    for w, d in zip(self.weights, self.degrees)]
            row = self._folds[code] = self.normal_form(exps)
        return row

    def reduce(self, terms: dict) -> dict:
        """Normal form of {exponent tuple: coeff} (any exponents) by index."""
        out = {}
        for e, c in terms.items():
            for i, x in self.normal_form(e):
                out[i] = out.get(i, 0) + c * x
        return self._nonzero(out)

    def multiply(self, a, b) -> dict:
        """Product of two [(code, coeff), ...] lists, as {basis index: coeff}."""
        raw = [0] * self.raw_size
        for ca, xa in a:
            for cb, xb in b:
                raw[ca + cb] += xa * xb
        n = self.modulus
        folds = self._folds
        out = {}
        for code, c in enumerate(raw):
            if n:
                c %= n
            if not c:
                continue
            row = folds.get(code)
            if row is None:
                row = self.fold(code)
            for i, x in row:
                out[i] = out.get(i, 0) + c * x
        return self._nonzero(out)

    def _nonzero(self, coeffs: dict) -> dict:
        n = self.modulus
        if n:
            coeffs = {i: c % n for i, c in coeffs.items()}
        return {i: c for i, c in coeffs.items() if c}


class BaseModulus:
    """The scalar ring Z/N, with the prime-power factorization when it exists."""

    __slots__ = ("n", "prime", "power")

    def __init__(self, n: int, prime: int | None = None, power: int | None = None):
        if n < 2:
            raise ValueError("modulus must be >= 2")
        self.n = n
        if prime is not None:
            if power is None or prime**power != n:
                raise ValueError("factorization hint does not match modulus")
            self.prime, self.power = prime, power
        else:
            pk = zmod.prime_power(n)
            self.prime, self.power = pk if pk else (None, None)

    @property
    def is_prime_power(self) -> bool:
        return self.prime is not None

    def __eq__(self, other):
        return isinstance(other, BaseModulus) and self.n == other.n

    def __repr__(self):
        return f"BaseModulus({self.n})"


class RingElement:
    """Element of a FiniteAlgebra: a coordinate vector over Z/N."""

    __slots__ = ("parent", "coords")

    def __init__(self, parent: "FiniteAlgebra", coords):
        n = parent.base.n
        coords = tuple(c % n for c in coords)
        if len(coords) != parent.rank:
            raise ValueError("coordinate length != rank")
        self.parent = parent
        self.coords = coords

    @classmethod
    def _reduced(cls, parent: "FiniteAlgebra", coords) -> "RingElement":
        """Wrap coordinates already reduced mod N, of length rank, unchecked."""
        e = cls.__new__(cls)
        e.parent = parent
        e.coords = tuple(coords)
        return e

    def _check(self, other):
        if not isinstance(other, RingElement) or other.parent is not self.parent:
            raise RingMismatch("elements from different rings")

    def __add__(self, other):
        self._check(other)
        n = self.parent.base.n
        return RingElement._reduced(
            self.parent, [(a + b) % n for a, b in zip(self.coords, other.coords)]
        )

    def __sub__(self, other):
        self._check(other)
        n = self.parent.base.n
        return RingElement._reduced(
            self.parent, [(a - b) % n for a, b in zip(self.coords, other.coords)]
        )

    def __neg__(self):
        n = self.parent.base.n
        return RingElement._reduced(self.parent, [(-a) % n for a in self.coords])

    def __mul__(self, other):
        if isinstance(other, int):
            n = self.parent.base.n
            return RingElement._reduced(self.parent, [(other * a) % n for a in self.coords])
        self._check(other)
        return self.parent.multiply(self, other)

    __rmul__ = __mul__

    def multiplier(self):
        """The map v -> v * self, for multiplying many values by this one.

        It computes sum_j v_j (self * b_j) from the columns self * b_j of the
        multiplication operator.  Each column is a sparse ((k, coeff), ...)
        tuple reduced mod N, built on first use and kept for the life of
        the returned function.
        """
        alg = self.parent
        n, rank = alg.base.n, alg.rank
        column = alg.columns(self)
        cols = [None] * rank

        def times(v):
            if v.parent is not alg:
                raise RingMismatch("elements from different rings")
            acc = [0] * rank
            for j, c in enumerate(v.coords):
                if c:
                    col = cols[j]
                    if col is None:
                        col = cols[j] = column(j)
                    for k, x in col:
                        acc[k] += c * x
            return RingElement._reduced(alg, [x % n for x in acc])

        return times

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers need is_unit")
        result = self.parent.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __bool__(self) -> bool:
        return any(self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and other.parent is self.parent
            and other.coords == self.coords
        )

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"<{self.parent.describe(self)}>"


class FiniteAlgebra:
    """Commutative ring, free of finite rank over Z/N.

    ``basis_product(i, j)`` is the product of basis elements i and j as a
    sparse tuple of (k, coeff) pairs.  Every algebra reads it the same way:
    the row of the code left[i] + right[j] in one fold cache, built on first
    use.  A presented algebra (``from_presentation``) keeps no table: both
    codes of b_i are its monomial's mixed-radix code, and the row is the
    reducer's normal form of the monomial with the summed code, cached by
    the reducer.  Any other algebra, such as a quotient, is given by a
    structure table ``mul_table[(i, j)]`` for i <= j: b_i has code i * rank
    on the left and i on the right, and the row of i * rank + j is read from
    the table.  The first basis element is the multiplicative identity.
    ``generators[k]`` is the coordinate vector of the k-th presentation
    variable.  ``_check_identity`` proves b_0 the identity at construction.
    """

    def __init__(self, base: BaseModulus, rank: int, basis_labels, mul_table,
                 generators=(), presentation=None, reducer=None):
        self.base = base
        self.rank = rank
        self.basis_labels = list(basis_labels)
        self.mul_table = mul_table
        self.generators = tuple(generators)
        self.presentation = presentation
        self._reducer = reducer
        if reducer is None:
            self._left = [i * rank for i in range(rank)]
            self._right = list(range(rank))
            self._folds, self._fold = {}, self._table_fold
        else:
            self._left = self._right = [reducer.codes[e] for e in reducer.monomials]
            self._folds, self._fold = reducer._folds, reducer.fold
        self._check_identity()

    # -- construction -----------------------------------------------------

    @classmethod
    def from_presentation(cls, base: BaseModulus, variables, relations):
        """Build base[x_1..x_m]/(g_1(x_1),...,g_m(x_m)) with monic g_k.

        ``relations[k]`` is the coefficient list (a_0, ..., a_{d-1}, 1) of a
        monic polynomial in the k-th variable.  Basis: monomials with each
        exponent below deg g_k, in graded-lex order.
        """
        n = base.n
        rels = []
        for coeffs in relations:
            coeffs = [c % n for c in coeffs]
            if len(coeffs) < 2 or coeffs[-1] != 1:
                raise ValueError("relations must be monic of degree >= 1")
            rels.append(coeffs)
        if len(variables) != len(rels):
            raise ValueError("one relation per variable")
        reducer = MonomialReducer(rels, modulus=n)
        exps = reducer.monomials
        labels = [monomial_label(variables, e) for e in exps]
        gens = []
        for k in range(len(variables)):
            # x_k is not a basis monomial when deg g_k = 1: it reduces to -a_0
            x_k = tuple(1 if t == k else 0 for t in range(len(variables)))
            coords = [0] * len(exps)
            for i, c in reducer.normal_form(x_k):
                coords[i] = c
            gens.append(tuple(coords))
        return cls(base, len(exps), labels, None, generators=gens,
                   presentation={"vars": list(variables), "relations": rels,
                                 "exponents": exps, "index": reducer.index},
                   reducer=reducer)

    @classmethod
    def scalar_ring(cls, base: BaseModulus):
        """Z/N itself, as a rank-1 algebra: the presentation with no variables."""
        return cls.from_presentation(base, [], [])

    def _check_identity(self):
        """Raise ValueError unless b_0 * b_j = b_j for every j.

        A table algebra reads every product b_0 * b_j.  A presented algebra
        checks its factors instead: each variable's power rows x_k^t for
        0 < t < d_k are the unit rows, b_0 is the monomial 1 (code 0), and
        ``_index_of_code`` takes the code of monomial j to j.  That proves
        the identity for every j, because the row of code 0 + code_j is
        ``MonomialReducer.normal_form`` of monomial j, the product of the
        rows of its nonzero exponents: one code with coefficient 1, whose
        index is j.  This reads sum (d_k - 1) rows and no normal form of
        the rank's monomials.
        """
        reducer = self._reducer
        if reducer is None:
            for j in range(self.rank):
                if dict(self.basis_product(0, j)) != {j: 1}:
                    raise ValueError("first basis element is not the identity")
            return
        index = reducer._index_of_code
        if (any(reducer.power_row(k, t) != [int(s == t) for s in range(d)]
                for k, d in enumerate(reducer.degrees) for t in range(1, d))
                or self._left[0]
                or any(index.get(c) != j for j, c in enumerate(self._right))):
            raise ValueError("first basis element is not the identity")

    def _table_fold(self, code: int) -> tuple:
        """The product of a table algebra with code i * rank + j: b_i * b_j,
        read from ``mul_table`` and kept in the fold cache."""
        i, j = divmod(code, self.rank)
        row = self._folds[code] = self.mul_table[(i, j) if i <= j else (j, i)]
        return row

    def basis_product(self, i: int, j: int) -> tuple:
        """b_i * b_j as ((k, coeff), ...) sorted by k."""
        return self._fold(self._left[i] + self._right[j])

    # -- elements ----------------------------------------------------------

    def zero(self) -> RingElement:
        return RingElement(self, [0] * self.rank)

    def one(self) -> RingElement:
        return RingElement(self, [1] + [0] * (self.rank - 1))

    def gen(self, k: int) -> RingElement:
        return RingElement(self, self.generators[k])

    def from_coords(self, coords) -> RingElement:
        return RingElement(self, coords)

    def from_int(self, c: int) -> RingElement:
        coords = [0] * self.rank
        coords[0] = c % self.base.n
        return RingElement(self, coords)

    def elements(self):
        """Iterate over all elements (only sensible for small rings)."""
        n = self.base.n
        for coords in itertools.product(range(n), repeat=self.rank):
            yield RingElement(self, coords)

    def multiply(self, a: RingElement, b: RingElement) -> RingElement:
        n = self.base.n
        acc = [0] * self.rank
        # basis_product inlined: one fold-cache lookup per pair
        left, right = self._left, self._right
        nz_a = [(left[i], c) for i, c in enumerate(a.coords) if c]
        nz_b = [(right[j], c) for j, c in enumerate(b.coords) if c]
        folds, fold = self._folds, self._fold
        for ci, ca in nz_a:
            for cj, cb in nz_b:
                c = ca * cb % n
                if c:
                    row = folds.get(ci + cj)
                    if row is None:
                        row = fold(ci + cj)
                    for k, ck in row:
                        acc[k] += c * ck
        return RingElement._reduced(self, [x % n for x in acc])

    def dot_sparse(self, pairs) -> list:
        """Sum a * b over the pairs (a, b) of sparse elements (``sparse``),
        reduced mod N once, as a sparse element.

        Each product of two nonzero coordinates goes in through its basis
        product (``basis_product``, inlined: one fold-cache lookup).  Unless
        N is prime, a product that is 0 mod N, common over Z/p^K, is
        skipped.
        """
        n = self.base.n
        field = self.base.power == 1
        acc = defaultdict(int)
        left, right = self._left, self._right
        folds, fold = self._folds, self._fold
        for a, b in pairs:
            b = [(right[j], cb) for j, cb in b]
            for i, ca in a:
                ci = left[i]
                for cj, cb in b:
                    c = ca * cb
                    if field or c % n:
                        row = folds.get(ci + cj)
                        if row is None:
                            row = fold(ci + cj)
                        for k, ck in row:
                            acc[k] += c * ck
        return [(k, r) for k, c in acc.items() if (r := c % n)]

    @staticmethod
    def sparse(e: RingElement) -> list:
        """The nonzero coordinates of e as (basis index, coeff) pairs."""
        return [(i, c) for i, c in enumerate(e.coords) if c]

    def from_sparse(self, items) -> RingElement:
        """The element with the (basis index, coeff) pairs of items, each
        index once and every coeff reduced mod N."""
        coords = [0] * self.rank
        for i, c in items:
            coords[i] = c
        return RingElement._reduced(self, coords)

    def columns(self, e: RingElement):
        """The routine j -> e * b_j, column j of multiplication by e.

        A column is a sparse ((k, coeff), ...) tuple reduced mod N, summed
        over the nonzero coordinates of e.  Each basis product is looked up
        in the fold cache directly, as ``basis_product`` would.
        """
        n = self.base.n
        left, right = self._left, self._right
        nz = [(left[i], c) for i, c in enumerate(e.coords) if c]
        folds, fold = self._folds, self._fold

        def column(j):
            cj = right[j]
            acc = {}
            for ci, c in nz:
                row = folds.get(ci + cj)
                if row is None:
                    row = fold(ci + cj)
                for k, ck in row:
                    acc[k] = acc.get(k, 0) + c * ck
            return tuple([(k, x % n) for k, x in acc.items() if x % n])

        return column

    def mul_matrix(self, e: RingElement) -> list[list[int]]:
        """Matrix of multiplication by e: entry [k][j] is coordinate k of e*b_j."""
        rank = self.rank
        rows = [[0] * rank for _ in range(rank)]
        column = self.columns(e)
        for j in range(rank):
            for k, x in column(j):
                rows[k][j] = x
        return rows

    def local_tower_prime(self):
        """p if this is a local tower over Z/p^K, else None.

        Local towers (all relation coefficients below the leading one divisible
        by p) have maximal ideal (p, x_1..x_m): an element is a unit iff its
        constant coordinate is prime to p.
        """
        if getattr(self, "_local_prime", "?") != "?":
            return self._local_prime
        p = None
        if self.base.is_prime_power and self.presentation is not None:
            p = self.base.prime
            for rel in self.presentation["relations"]:
                if any(c % p for c in rel[:-1]):
                    p = None
                    break
        self._local_prime = p
        return p

    def frobenius(self):
        """The map y -> y^p on sparse elements (``sparse``), or None unless
        this algebra is F_p[x_1..x_m]/(x_1^(d_1), ..., x_m^(d_m)).

        Over F_p = Z/p a local tower's relations are G_k = x_k^(d_k): every
        coefficient below the leading one is divisible by p, hence 0.  There
        (sum c_a x^a)^p = sum c_a x^(pa), since the cross terms of a p-th
        power are divisible by p and c^p = c in F_p, and x^(pa) = 0 once
        some p a_k >= d_k.  So y^p moves coordinates and takes no product,
        and ``nilpotency_index`` takes these images as the rungs of its
        ladder.  The map of basis positions is built once per algebra.
        """
        target = getattr(self, "_frobenius", "?")
        if target == "?":
            target = None
            p = self.local_tower_prime()
            if p is not None and p == self.base.n:
                index = self.presentation["index"]
                kept = [range((len(rel) - 2) // p + 1)
                        for rel in self.presentation["relations"]]
                target = {index[a]: index[tuple(p * x for x in a)]
                          for a in itertools.product(*kept)}
            self._frobenius = target
        if target is None:
            return None
        return lambda y: [(t, c) for i, c in y if (t := target.get(i)) is not None]

    # -- the ring protocol ExactPolyRing shares ----------------------------

    def divider(self, d: RingElement):
        """Exact division by d: the routine a -> the unique t with a = d*t,
        which raises ZeroDivisorDivisor unless d is a non-zero-divisor (``nzd``).

        Multiplication by d is eliminated once (``zmod.coset_solver``); in a
        finite ring a non-zero-divisor is a unit, and only d^-1 is kept.
        """
        if d.parent is not self:
            raise RingMismatch("mismatched rings in divider")
        solver, kernel = zmod.coset_solver(self.mul_matrix(d), self.base.n)
        inverse = None if kernel else self.from_coords(solver(self.one().coords))

        def divide(a):
            if a.parent is not self:
                raise RingMismatch("mismatched rings in divider")
            if kernel:
                raise ZeroDivisorDivisor(f"divisor {d!r} has a nontrivial annihilator")
            return a * inverse

        divide.nzd = not kernel
        return divide

    def module_contains(self, gens, target: RingElement) -> bool:
        """Whether target lies in the ideal (gens): the Z/N-span of the
        g * b_j, read off their Howell form."""
        if any(g.parent is not self for g in gens):
            raise RingMismatch("generators from different rings")
        rows = ideal_module_rows(gens)
        return zmod.howell(rows, self.base.n).contains(list(target.coords))

    unit_cofactor_scope = "every unit was tried as a cofactor"

    def unit_cofactor(self, s: RingElement, d: RingElement):
        """A unit u with s*u = d, or None when there is none.

        One solve gives the solutions of s*y = d as a coset y0 + Ann(s).  It
        holds a unit exactly when 1 lies in y0*R + Ann(s): a unit u = y0 + j
        gives 1 = y0*u^-1 + j*u^-1, and units lift modulo any ideal of a
        finite ring.  In a local tower the constant coordinate decides
        unitness, so the unit is y0 or y0 plus the first kernel row with a
        unit constant coordinate.  Elsewhere one more solve gives
        y0*z + j = 1 with j in Ann(s), and u = y0 + (1 - e)*j, where e = a*b
        is the idempotent of y0: a = y0^(2^t) with 2^t past the bound on
        nilpotency indices, and a^2*b = a.  On each local factor where y0 is
        a unit, e = 1 and u = y0; where y0 is nilpotent, e = 0 and
        u = 1 + y0*(1 - z).  That unit is replayed before it is returned.
        """
        n = self.base.n
        y0, kernel = zmod.solve_coset(self.mul_matrix(s), list(d.coords), n)
        if y0 is None:
            return None
        p = self.local_tower_prime()
        if p is not None:
            for k in [[0] * self.rank] + kernel:
                if (y0[0] + k[0]) % p:
                    return RingElement(self, [a + b for a, b in zip(y0, k)])
            return None
        y, one = RingElement._reduced(self, y0), self.one()
        # columns y*b_j, then the kernel rows: (z, c) with y*z + c.kernel = 1
        mat = [row + [k[i] for k in kernel]
               for i, row in enumerate(self.mul_matrix(y))]
        zc = zmod.solve(mat, list(one.coords), n)
        if zc is None:
            return None
        j = one - y * RingElement._reduced(self, zc[:self.rank])
        a = y
        for _ in range(self._index_bound().bit_length()):
            a = a * a
        b = zmod.solve(self.mul_matrix(a * a), list(a.coords), n)
        u = y + (one - a * RingElement._reduced(self, b)) * j
        if s * u != d or not is_unit(u)[0]:
            raise RuntimeError(f"unit cofactor {u!r} of {d!r} by {s!r} "
                               "does not replay")
        return u

    def describe(self, e: RingElement) -> str:
        parts = []
        for c, label in zip(e.coords, self.basis_labels):
            if c:
                parts.append(label if c == 1 and label != "1" else
                             (str(c) if label == "1" else f"{c}*{label}"))
        return " + ".join(parts) if parts else "0"

    def nilpotency_index(self, e: RingElement, bound: int | None = None):
        """Smallest k with e^k = 0, or None if e is not nilpotent (a unit,
        say) or its index exceeds bound.

        The default bound, rank * bitlen(N) + 2, exceeds the length of the
        ring as a Z-module, so it bounds every nilpotency index.  The powers
        y^(q^t) form a ladder, taken until one is 0 or q^t reaches bound:
        Frobenius images with q = p where ``frobenius`` exists, squares
        (``dot_sparse``) with q = 2 elsewhere.  Then y^(q^T) != 0 =
        y^(q^(T+1)), and the largest L with y^L != 0 satisfies
        q^T <= L < q^(T+1); it is read by its base-q digits from the top,
        each digit the number of times y^(q^t) multiplies in before the
        product vanishes.  That takes at most (q - 1)(T + 1) - 1 products,
        below (q - 1)(log_q(k) + 1).
        """
        if bound is None:
            bound = self._index_bound()
        step = self.frobenius()
        q = 2 if step is None else self.base.n
        step = step or (lambda y: self.dot_sparse([(y, y)]))
        powers = []  # powers[t] = y^(q^t), all nonzero
        y = self.sparse(e)
        while y:
            if q ** len(powers) >= bound:  # the index exceeds q^t
                return None
            powers.append(y)
            y = step(y)
        largest = 0  # the largest L with y^L != 0, 0 when y = 0
        if powers:
            top = len(powers) - 1
            acc, largest = powers[top], q**top  # acc = y^largest != 0
            for t in range(top, -1, -1):
                for _ in range(q - 1 - (t == top)):
                    nxt = self.dot_sparse([(acc, powers[t])])
                    if not nxt:
                        break
                    acc, largest = nxt, largest + q**t
        return largest + 1 if largest < bound else None

    def _index_bound(self) -> int:
        """The default bound of ``nilpotency_index``: past every index."""
        return self.rank * max(self.base.n.bit_length(), 1) + 2

    def __repr__(self):
        if self.presentation and self.presentation["vars"]:
            rel = ", ".join(
                poly_label(v, r)
                for v, r in zip(self.presentation["vars"],
                                self.presentation["relations"])
            )
            return f"Z/{self.base.n}[{', '.join(self.presentation['vars'])}]/({rel})"
        return f"Z/{self.base.n}" if self.rank == 1 else f"FiniteAlgebra(rank={self.rank})"


def monomial_label(variables, exponents) -> str:
    parts = [
        v if e == 1 else f"{v}^{e}" for v, e in zip(variables, exponents) if e
    ]
    return "*".join(parts) if parts else "1"


def poly_label(var: str, coeffs) -> str:
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            x = var if i == 1 else f"{var}^{i}"
            parts.append(x if c == 1 else f"{c}*{x}")
    return " + ".join(reversed(parts)) if parts else "0"


# -- decision procedures ----------------------------------------------------


def annihilator(e: RingElement) -> list[RingElement]:
    """Howell basis of { r : e*r = 0 }; empty iff e is a non-zero-divisor."""
    alg = e.parent
    mat = alg.mul_matrix(e)
    return [RingElement._reduced(alg, g) for g in zmod.right_kernel(mat, alg.base.n)]


def is_unit(e: RingElement):
    """(True, inverse) if multiplication-by-e is invertible, else (False, None)."""
    alg = e.parent
    mat = alg.mul_matrix(e)
    one = [1] + [0] * (alg.rank - 1)
    x = zmod.solve(mat, one, alg.base.n)
    if x is None:
        return False, None
    return True, RingElement(alg, x)


def ideal_module_rows(gens) -> list[list[int]]:
    """Z/N-module generators of the ideal (gens): the vectors g * b_j, the
    columns of each ``mul_matrix``."""
    return [list(col) for g in gens for col in zip(*g.parent.mul_matrix(g))]


def _product(alg: FiniteAlgebra, s_gens):
    power = alg.one()
    for s in s_gens:
        power = power * s
    return power


def _kernel_chain(alg: FiniteAlgebra, s):
    """(powers, kernels, nilpotent): the powers s^(2^i) whose kernels grow
    strictly, the Howell rows of those kernels, and whether a power reached
    0, whose kernel, the whole module, is left to the caller."""
    n = alg.base.n
    current: list[list[int]] = []
    powers, kernels = [], []
    while not s.is_zero():
        rows = zmod.right_kernel(alg.mul_matrix(s), n)
        if rows == current:
            return powers, kernels, False
        current = rows
        powers.append(s)
        kernels.append(rows)
        s = s * s
    return powers, kernels, True


def identity_rows(rank: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]


def localize_by_saturation(alg: FiniteAlgebra, s_gens):
    """Finite-ring localization: quotient by the saturation ideal.

    Returns (quotient FiniteAlgebra, projection matrix, chain), or
    (ZERO_RING, None, chain) when 1 lies in the saturation.  In the quotient
    every image of s_gens is a unit.  The chain holds the powers s^(2^i)
    whose annihilators grow strictly (``tate --explain`` prints their Howell
    rows); a ZERO chain ends in None, the whole module.

    A local tower over Z/p^K is a finite local ring, so s is a unit when its
    constant coordinate is prime to p (the chain is empty) and nilpotent
    otherwise.  Then no kernel is built: the chain is the nonzero powers s,
    s^2, s^4, ... and the whole module, as long as the Howell chain, whose
    kernels grow strictly until the power is 0 (ker s^a = ker s^2a would
    make them stable from a on, so s^a = 0).  Other rings run the Howell
    chain, which detects where the kernels stop.

    The nilpotent chain has ceil(log2 index(s)) nonzero entries plus the
    closing None, index(s) being the least k with s^k = 0: s^(2^i) != 0
    exactly when 2^i < index(s), and the i >= 0 with 2^i < k are
    0, ..., ceil(log2 k) - 1 (none for k = 1, where s = 0).
    """
    for s in s_gens:
        if s.parent is not alg:
            raise RingMismatch("generators from different rings")
    s = _product(alg, s_gens)
    p = alg.local_tower_prime()
    if p is not None:
        if s.coords[0] % p:
            return alg, identity_rows(alg.rank), []
        chain = []
        while not s.is_zero():
            chain.append(s)
            s = s * s
        return ZERO_RING, None, chain + [None]
    chain, kernels, nilpotent = _kernel_chain(alg, s)
    # 1 is in the saturation iff a power of s is 0
    if nilpotent:
        return ZERO_RING, None, chain + [None]
    if not kernels:
        return alg, identity_rows(alg.rank), chain
    return _quotient_algebra(alg, kernels[-1]) + (chain,)


def _quotient_algebra(alg: FiniteAlgebra, ideal_rows):
    """Quotient of the underlying module by a proper ideal, with ring structure.

    Via Smith normal form of the lattice (ideal rows + N*Z^rank): the quotient is
    a direct sum of Z/d_i.  It is represented as a FiniteAlgebra only when all
    nontrivial d_i agree; otherwise NonFreeQuotient is raised.  Mixed divisors
    occur for prime-power N too: Z/4[x]/(x^2) by (2x) leaves Z/2 + Z/4.  A
    saturation ideal is a direct summand, so its quotient is always free over
    a prime-power N.
    """
    n = alg.base.n
    rank = alg.rank
    divisors, v, vinv = _smith_divisors(ideal_rows, n, rank)
    kept = [i for i, d in enumerate(divisors) if d != 1]
    if not kept:
        return ZERO_RING, None
    mods = {divisors[i] for i in kept}
    if len(mods) != 1:
        raise NonFreeQuotient(
            f"quotient module is not free: divisors {sorted(mods)}"
        )
    new_n = mods.pop()
    new_base = BaseModulus(new_n)
    new_rank = len(kept)

    # coordinate change y = x.V sends the lattice onto sum d_i.Z; the class of
    # a vector x is given by (x.V)_i mod d_i over the kept indices
    def project(coords):
        return [sum(coords[j] * v[j][i] for j in range(rank)) % new_n
                for i in kept]

    # lift of the kept coordinate vector e_i: row i of V^-1
    lifts_raw = [[vinv[i][j] % n for j in range(rank)] for i in kept]

    one_img = project([1] + [0] * (rank - 1))
    basis_change = _complete_to_basis(one_img, new_n)  # first column = one_img
    bc_inv = _int_matrix_inverse_mod(basis_change, new_n)

    def change(vec):
        return [sum(bc_inv[i][j] * vec[j] for j in range(new_rank)) % new_n
                for i in range(new_rank)]

    final_lifts = []
    for col in range(new_rank):
        lift = [0] * rank
        for i in range(new_rank):
            c = basis_change[i][col]
            if c:
                lv = lifts_raw[i]
                for j in range(rank):
                    lift[j] = (lift[j] + c * lv[j]) % n
        final_lifts.append(RingElement(alg, lift))

    table = {}
    for i in range(new_rank):
        for j in range(i, new_rank):
            prod = final_lifts[i] * final_lifts[j]
            vec = change(project(list(prod.coords)))
            table[(i, j)] = tuple((k, c) for k, c in enumerate(vec) if c)
    labels = [f"q{i}" for i in range(new_rank)]
    labels[0] = "1"
    quotient = FiniteAlgebra(new_base, new_rank, labels, table)
    proj_final = []
    images = [change(project([1 if t == j else 0 for t in range(rank)]))
              for j in range(rank)]
    for i in range(new_rank):
        proj_final.append([images[j][i] for j in range(rank)])
    return quotient, proj_final


def project_element(quotient: FiniteAlgebra, proj_matrix, e: RingElement) -> RingElement:
    n = quotient.base.n
    coords = [sum(row[j] * e.coords[j] for j in range(len(e.coords))) % n
              for row in proj_matrix]
    return RingElement(quotient, coords)


def _smith_divisors(rows, n, ncols):
    """Smith normal form data of Z^ncols / L with L = rowspan(rows) + N*Z^ncols.

    Returns (divisors, V, Vinv): V is unimodular over Z with L.V spanning
    sum d_i.Z e_i, so x -> x.V maps the quotient to sum Z/d_i; Vinv = V^-1.
    Elimination starts from the Howell basis of the rows mod N plus N*I: on
    other generating sets of L the integer entries can grow without bound.
    """
    a = zmod.howell(rows, n).rows + [[n if i == j else 0 for j in range(ncols)]
                                     for i in range(ncols)]
    nrows = len(a)
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    vinv = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def col_op(c1, c2, q):
        # column c2 -= q * column c1; V.E and E^-1.Vinv bookkeeping
        for row in a:
            row[c2] -= q * row[c1]
        for row in v:
            row[c2] -= q * row[c1]
        vinv[c1] = [x + q * y for x, y in zip(vinv[c1], vinv[c2])]

    def col_swap(c1, c2):
        for row in a:
            row[c1], row[c2] = row[c2], row[c1]
        for row in v:
            row[c1], row[c2] = row[c2], row[c1]
        vinv[c1], vinv[c2] = vinv[c2], vinv[c1]

    def row_op(r1, r2, q):
        a[r2] = [x - q * y for x, y in zip(a[r2], a[r1])]

    def row_swap(r1, r2):
        a[r1], a[r2] = a[r2], a[r1]

    t = 0
    while t < min(nrows, ncols):
        # smallest nonzero entry of the remaining block as pivot
        pr = pc = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                x = abs(a[i][j])
                if x and (best is None or x < best):
                    best, pr, pc = x, i, j
        if pr is None:
            break
        row_swap(t, pr)
        if pc != t:
            col_swap(t, pc)
        while True:
            dirty = False
            for i in range(t + 1, nrows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_op(t, i, q)
                    if a[i][t]:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_op(t, j, q)
                    if a[t][j]:
                        col_swap(t, j)
                        dirty = True
            if not dirty:
                break
        # divisibility fix-up: the pivot must divide every remaining entry
        fixed = True
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % a[t][t]:
                    row_op(i, t, -1)  # add row i to row t, redo this pivot
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            if a[t][t] < 0:
                for row in a:
                    row[t] = -row[t]
                for row in v:
                    row[t] = -row[t]
                vinv[t] = [-x for x in vinv[t]]
            t += 1
    divisors = [abs(a[j][j]) if j < min(nrows, ncols) else 0 for j in range(ncols)]
    return divisors, v, vinv


def _int_matrix_inverse_mod(mat, n):
    """Inverse of an integer matrix mod n (matrix must be invertible mod n)."""
    size = len(mat)
    a = [[mat[i][j] % n for j in range(size)] + [1 if i == j else 0 for j in range(size)]
         for i in range(size)]
    hf = zmod.howell(a, n)
    # The left block must reduce to the identity; read the inverse off the right.
    inv = [[0] * size for _ in range(size)]
    seen = 0
    for r, c, d in hf.pivots:
        if c >= size:
            continue
        if d != 1:
            raise ValueError("matrix is not invertible mod n")
        inv[c] = hf.rows[r][size:]
        seen += 1
    if seen != size:
        raise ValueError("matrix is not invertible mod n")
    return inv


def _complete_to_basis(u, n):
    """A matrix invertible mod n whose first column is u (u must be unimodular).

    Concentrates the gcd of the entries into position 0 with 2x2 unimodular
    transforms, scales it to 1, and inverts the accumulated transform.
    """
    size = len(u)
    vec = [x % n for x in u]
    trans = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for i in range(1, size):
        if vec[i]:
            g, s, t, uu, vv = zmod.gcd_transform(vec[0], vec[i], n)
            r0 = [(s * a + t * b) % n for a, b in zip(trans[0], trans[i])]
            ri = [(uu * a + vv * b) % n for a, b in zip(trans[0], trans[i])]
            trans[0], trans[i] = r0, ri
            vec[0], vec[i] = g % n, 0
    if not zmod.is_unit_mod(vec[0], n):
        raise NonFreeQuotient("identity image is not part of a module basis")
    d_inv = zmod.inv_mod(vec[0], n)
    trans[0] = [(d_inv * x) % n for x in trans[0]]
    return _int_matrix_inverse_mod(trans, n)


# -- certificates ------------------------------------------------------------


class CertificateNotFound:
    """Search ended without hitting zero.

    ``budget`` is None when every product up to max_len was examined, and
    the exhausted budget otherwise.
    """

    def __init__(self, max_len: int, budget: int | None = None):
        self.max_len = max_len
        self.budget = budget

    def __repr__(self):
        return f"NotFound(max_len={self.max_len}, budget={self.budget})"


def multiset_products(gens, max_len: int):
    """Distinct products of multisets of at most max_len generators, lazily.

    Yields (value, word) breadth-first: the generators in index order, then
    for each value of length L in the order it was yielded, value * g_i for
    i from its word's last index on (products commute, so multisets
    suffice).  A value equal to one yielded before is dropped and not
    extended, which fixes the order and keeps the search deterministic.
    Each generator is asked once for its ``multiplier()``, the map
    v -> v * g_i, which makes every product of the search.  The values are
    what those maps return, ring elements or, in the group-ring search,
    plain ints that ``seen`` hashes and compares natively; every kind is 0
    exactly when it is false.  A max_len below 1 raises ValueError on the
    first ``next``.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    seen = set()
    frontier = []
    for idx, g in enumerate(gens):
        if g not in seen:
            seen.add(g)
            frontier.append((g, idx, (idx,)))
            yield g, (idx,)
    times = [g.multiplier() for g in gens]
    for _ in range(max_len - 1):
        extended = []
        for value, last, word in frontier:
            for idx in range(last, len(gens)):
                prod = times[idx](value)
                size = len(seen)
                seen.add(prod)
                if len(seen) == size:
                    continue
                longer = word + (idx,)
                extended.append((prod, idx, longer))
                yield prod, longer
        frontier = extended


def zero_product_certificate(s_gens, max_len: int, budget: int | None = None):
    """A multiset of generators whose product is 0, or CertificateNotFound.

    The first zero among ``multiset_products``: the shortest certificate,
    found breadth-first.  A value is 0 exactly when it is false, as for
    ``RingElement``, ``PolyElement`` and the packed ints of the group-ring
    search, so one test serves every kind of value.  ``budget`` caps the
    number of products examined; when it runs out the result records it.
    """
    for examined, (value, word) in enumerate(multiset_products(list(s_gens), max_len)):
        if examined == budget:
            return CertificateNotFound(max_len, budget)
        if not value:
            return list(word)
    return CertificateNotFound(max_len)


# -- exact integer polynomial quotient rings ---------------------------------


class PolyElement:
    """Normal-form element of an ExactPolyRing: dict monomial -> int."""

    __slots__ = ("parent", "terms")

    def __init__(self, parent: "ExactPolyRing", terms: dict):
        self.parent = parent
        self.terms = {e: c for e, c in terms.items() if c}

    def _check(self, other):
        if not isinstance(other, PolyElement) or other.parent is not self.parent:
            raise RingMismatch("elements from different rings")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return PolyElement(self.parent, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return PolyElement(self.parent, out)

    def __neg__(self):
        return PolyElement(self.parent, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return PolyElement(
                self.parent, {e: c * other for e, c in self.terms.items()}
            )
        self._check(other)
        ring = self.parent
        codes = ring.reducer.codes
        prod = ring.reducer.multiply(
            [(codes[e], c) for e, c in self.terms.items()],
            [(codes[e], c) for e, c in other.terms.items()],
        )
        monomials = ring.monomials
        return PolyElement(ring, {monomials[i]: c for i, c in prod.items()})

    __rmul__ = __mul__

    def multiplier(self):
        """The map v -> v * self: the plain product, bound once."""
        return self.__mul__

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, PolyElement)
            and other.parent is self.parent
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "<0>"
        parts = []
        for e in sorted(self.terms, key=graded_lex_key):
            c = self.terms[e]
            mono = monomial_label(self.parent.variables, e)
            if mono == "1":
                parts.append(str(c))
            else:
                parts.append(mono if c == 1 else f"{c}*{mono}")
        return "<" + " + ".join(parts) + ">"


class ExactPolyRing:
    """Z[x_1..x_m]/(g_1(x_1),...,g_m(x_m)) with monic integer relations.

    Every element has a unique normal form with each variable exponent below
    its relation degree; the ring is a free Z-module on those monomials.
    """

    def __init__(self, variables, relations):
        self.variables = list(variables)
        self.relations = []
        for coeffs in relations:
            coeffs = [int(c) for c in coeffs]
            if len(coeffs) < 2 or coeffs[-1] != 1:
                raise ValueError("relations must be monic of degree >= 1")
            self.relations.append(coeffs)
        if len(self.variables) != len(self.relations):
            raise ValueError("one relation per variable")
        self.reducer = MonomialReducer(self.relations)
        self.degrees = self.reducer.degrees
        self.monomials = self.reducer.monomials
        self.index = self.reducer.index
        self.rank = len(self.monomials)

    def reduce(self, terms: dict) -> dict:
        """Normal form of {exponent tuple: coeff}, exponents of any size."""
        return {self.monomials[i]: c
                for i, c in self.reducer.reduce(terms).items()}

    def zero(self) -> PolyElement:
        return PolyElement(self, {})

    def one(self) -> PolyElement:
        return PolyElement(self, {tuple([0] * len(self.variables)): 1})

    def gen(self, k: int) -> PolyElement:
        e = tuple(1 if t == k else 0 for t in range(len(self.variables)))
        return self.from_terms({e: 1})

    def from_terms(self, terms: dict) -> PolyElement:
        return PolyElement(self, self.reduce(dict(terms)))

    def coords(self, e: PolyElement) -> list[int]:
        """The coordinate vector of e over the monomial basis."""
        vec = [0] * self.rank
        for mono, c in e.terms.items():
            vec[self.index[mono]] = c
        return vec

    def from_coords(self, vec) -> PolyElement:
        return PolyElement(self, dict(zip(self.monomials, vec)))

    def columns(self, e: PolyElement) -> list[list[int]]:
        """The coordinate vectors of e * b_j over the monomial basis b_j."""
        return [self.coords(e * PolyElement(self, {mono: 1}))
                for mono in self.monomials]

    def _solve(self, gens, target: PolyElement):
        """integer_solve over the columns of every g in gens: the particular
        coefficients of target in the ideal (gens) and the kernel."""
        cols = [col for g in gens for col in self.columns(g)]
        return integer_solve(cols, self.coords(target))

    def is_unit(self, e: PolyElement) -> bool:
        return self._solve([e], self.one())[0] is not None

    def divider(self, d: PolyElement):
        """Exact division by d: the routine a -> the unique t with a = d*t,
        which raises ZeroDivisorDivisor unless d is a non-zero-divisor (``nzd``).

        The columns of d are brought to echelon form once
        (``integer_solver``), and every dividend is reduced against them.
        """
        solver, kernel = integer_solver(self.columns(d))

        def divide(a):
            if kernel:
                raise ZeroDivisorDivisor("divisor is zero or a zero-divisor")
            particular = solver(self.coords(a))
            if particular is None:
                raise NotDivisible("no exact quotient in the ring")
            return self.from_coords(particular)

        divide.nzd = not kernel
        return divide

    def module_contains(self, gens, target: PolyElement) -> bool:
        """Whether target lies in the ideal (gens): integer lattice membership."""
        return self._solve(gens, target)[0] is not None

    unit_cofactor_scope = "only structured units were tried as cofactors"

    def unit_cofactor(self, s: PolyElement, d: PolyElement):
        """The first structured unit u with s*u = d, or None.

        Unlike a finite ring's, None does not show that no unit cofactor
        exists: only ``structured_units`` are tried.
        """
        for u in self.structured_units:
            if s * u == d and self.is_unit(u):
                return u
        return None

    @functools.cached_property
    def structured_units(self) -> list:
        """Signed monomials, then signed products of (1 + x_k) powers: the
        unit groups of group-ring style presentations in either coordinate
        convention.  Built on first use and kept.
        """
        out = [PolyElement(self, {mono: sign})
               for sign in (1, -1) for mono in self.monomials]
        shifted = [self.one() + self.gen(k) for k in range(len(self.variables))]
        for exps in self.monomials:
            cand = self.one()
            for k, e in enumerate(exps):
                for _ in range(e):
                    cand = cand * shifted[k]
            out += [cand, cand * -1]
        return out

    def __repr__(self):
        rel = ", ".join(
            poly_label(v, r) for v, r in zip(self.variables, self.relations)
        )
        return f"Z[{', '.join(self.variables)}]/({rel})"


def _integer_echelon_transform(rows):
    """(H, U, nrank): U*rows = H with U unimodular and H in integer echelon form.

    Rows of U beyond nrank span the left kernel of the row matrix.
    """
    work = [list(r) for r in rows]
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    r0 = 0
    for col in range(ncols):
        if r0 >= nrows:
            break
        while True:
            nz = [i for i in range(r0, nrows) if work[i][col]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(work[i][col]))
            work[r0], work[i0] = work[i0], work[r0]
            u[r0], u[i0] = u[i0], u[r0]
            done = True
            for i in range(r0 + 1, nrows):
                if work[i][col]:
                    q = work[i][col] // work[r0][col]
                    work[i] = [x - q * y for x, y in zip(work[i], work[r0])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r0])]
                    if work[i][col]:
                        done = False
            if done:
                break
        if r0 < nrows and work[r0][col]:
            if work[r0][col] < 0:
                work[r0] = [-x for x in work[r0]]
                u[r0] = [-x for x in u[r0]]
            r0 += 1
    return work, u, r0


def integer_solve(cols, rhs):
    """(particular, kernel) over Z for sum_j y_j cols_j = rhs; particular is
    None when no integer solution exists.  This is ``integer_solver``
    applied to rhs."""
    solver, kernel = integer_solver(cols)
    return solver(rhs), kernel


def integer_solver(cols):
    """(solver, kernel) over Z for the columns cols: solver(rhs) is the
    particular y with sum_j y_j cols_j = rhs, or None when no integer
    solution exists, and kernel spans the y with sum_j y_j cols_j = 0.
    One echelon run on the columns serves every rhs.
    """
    h, u, nrank = _integer_echelon_transform(cols)
    pivots = [next(j for j, x in enumerate(h[r]) if x) for r in range(nrank)]

    def solver(rhs):
        t, particular = list(rhs), [0] * len(cols)
        for r, c in enumerate(pivots):
            q = t[c] // h[r][c]  # a remainder stays in t[c]: no later row clears it
            t = [x - q * y for x, y in zip(t, h[r])]
            particular = [x + q * y for x, y in zip(particular, u[r])]
        return None if any(t) else particular

    return solver, u[nrank:]


# -- JSON wire format ---------------------------------------------------------
#
# Ring presentations and elements serialize with all coefficients as decimal
# strings so exact arithmetic survives any JSON reader; the graded-lex basis
# order makes round-trips byte-stable.


def algebra_to_json(alg: FiniteAlgebra) -> dict:
    if alg.presentation is None:
        raise ValueError("only presented algebras serialize")
    return {
        "base": str(alg.base.n),
        "vars": list(alg.presentation["vars"]),
        "relations": [
            [str(c) for c in rel] for rel in alg.presentation["relations"]
        ],
    }


def int_from_json(value) -> int:
    """A JSON int or decimal string; anything else, a bool included, is a ValueError."""
    with contextlib.suppress(TypeError, ValueError):
        if not isinstance(value, (bool, float)):
            return int(value)
    raise ValueError("expected an integer or a decimal string")


def ints_from_json(values) -> list[int]:
    if not isinstance(values, list):
        raise ValueError("expected a list of integers")
    return [int_from_json(v) for v in values]


def algebra_from_json(data: dict) -> FiniteAlgebra:
    base = BaseModulus(int_from_json(data["base"]))
    return FiniteAlgebra.from_presentation(
        base, list(data["vars"]), [ints_from_json(rel) for rel in data["relations"]])


def element_to_json(e: RingElement) -> list:
    return [str(c) for c in e.coords]


def element_from_json(alg: FiniteAlgebra, coords) -> RingElement:
    return RingElement(alg, ints_from_json(coords))


def exact_ring_from_json(data: dict) -> ExactPolyRing:
    return ExactPolyRing(
        list(data["vars"]), [ints_from_json(rel) for rel in data["relations"]]
    )


def poly_element_to_json(e: PolyElement) -> list:
    return [str(c) for c in e.parent.coords(e)]


def poly_element_from_json(ring: ExactPolyRing, coords) -> PolyElement:
    if len(coords := ints_from_json(coords)) != ring.rank:
        raise ValueError("coordinate length != rank")
    return ring.from_coords(coords)
