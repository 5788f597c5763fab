"""Classifying rings of finite abelian p-groups over a formal group law.

For A = Z/p^i_1 + ... + Z/p^i_m the ring is the finite free algebra
base[x_1..x_m]/(G_1(x_1),...,G_m(x_m)) where G_k is the monic Weierstrass
polynomial of the p^(i_k)-series.  Euler classes are the iterated formal sums
[w_1](X_1) +_F ... +_F [w_m](X_m); the p^j-torsion of A enumerates exactly
the algebra-homomorphism roots of the p^j-series.  Each class is one formal
sum of a cached class and a single class b = e(w_k e_k), taken from the
columns of F(x, y) = sum_i x^i F_i(y) as sum_i h^i F_i(b): the column fold
of ``series.eval_at``, with every F_i(b) computed once per batch of classes.
A single class lies in its factor R_k = base[x_k]/(G_k) of rank d_k, so its
powers are products in R_k, not in the whole ring of rank prod d_k.

Grading convention: the periodicity generator is specialized to 1, so the
usual even grading of Euler classes is dropped; reports state this.
"""

from __future__ import annotations

import itertools

from .fgl import CapTooSmall, FGLError, FormalGroupLaw, _sum_unit_series
from .ring_core import BaseModulus, FiniteAlgebra, RingElement
from .series import _check_covered, _combine, _fold, _power_table, eval_at
from .zmod import is_prime


class ClassifyingError(Exception):
    pass


class InvalidSubgroup(ClassifyingError):
    pass


class AbelianPGroup:
    """Z/p^i_1 + ... + Z/p^i_m with elements as residue tuples."""

    __slots__ = ("p", "exponents")

    def __init__(self, p: int, exponents):
        exponents = tuple(int(i) for i in exponents)
        if not is_prime(p):
            raise InvalidSubgroup("p must be a prime >= 2")
        if not exponents or any(i < 1 for i in exponents):
            raise InvalidSubgroup("exponents must be positive")
        self.p = p
        self.exponents = exponents

    @property
    def orders(self):
        return tuple(self.p**i for i in self.exponents)

    @property
    def order(self):
        out = 1
        for o in self.orders:
            out *= o
        return out

    def elements(self):
        return itertools.product(*[range(o) for o in self.orders])

    def __repr__(self):
        parts = " + ".join(f"Z/{o}" for o in self.orders)
        return f"AbelianPGroup({parts})"


class SubgroupSpec:
    """Exponents (j_1..j_m) of C inside A, embedded by w_k -> p^(i_k-j_k) w_k."""

    __slots__ = ("exponents",)

    def __init__(self, exponents):
        self.exponents = tuple(int(j) for j in exponents)
        if any(j < 0 for j in self.exponents):
            raise InvalidSubgroup("subgroup exponents must be >= 0")

    def validate_in(self, group: AbelianPGroup):
        if len(self.exponents) != len(group.exponents):
            raise InvalidSubgroup("subgroup spec length differs from the group")
        for j, i in zip(self.exponents, group.exponents):
            if j > i:
                raise InvalidSubgroup(f"subgroup exponent {j} exceeds {i}")

    @property
    def rank_p(self) -> int:
        return sum(1 for j in self.exponents if j >= 1)

    def __repr__(self):
        return f"SubgroupSpec{self.exponents}"


def quotient_image_elements(group: AbelianPGroup, sub: SubgroupSpec):
    """im phi(A/C) inside A: the components divisible by p^(j_k).

    phi embeds A/C = + Z/p^(i_k - j_k) by w_k -> p^(j_k) w_k; its image is
    exactly the set of tuples with p^(j_k) | w_k.
    """
    sub.validate_in(group)
    ranges = []
    for j_k, o in zip(sub.exponents, group.orders):
        step = group.p**j_k
        ranges.append(range(0, o, step))
    return itertools.product(*ranges)


def height_sequence(group: AbelianPGroup, w) -> tuple:
    """Heights of w, pw, p^2 w, ... down to the last nonzero multiple.

    The height of a nonzero v is the largest h with v in p^h A: the least
    p-adic valuation of a nonzero coordinate.  In a finite abelian p-group
    two elements lie in one Aut(A)-orbit iff their height sequences agree
    (Baer; Kaplansky, *Infinite Abelian Groups*, on Ulm sequences).
    """
    p, orders = group.p, group.orders
    heights = []
    v = tuple(int(a) % o for a, o in zip(w, orders))
    while any(v):
        h = 0
        while all(a % p ** (h + 1) == 0 for a in v):
            h += 1
        heights.append(h)
        v = tuple(p * a % o for a, o in zip(v, orders))
    return tuple(heights)


def orbit_representatives(group: AbelianPGroup, elements) -> list[int]:
    """Positions of the first element of each Aut(A)-orbit met by elements.

    Orbits are told apart by ``height_sequence``; the positions ascend.
    """
    firsts = {}
    for i, w in enumerate(elements):
        firsts.setdefault(height_sequence(group, w), i)
    return sorted(firsts.values())


class EulerClass:
    """Group element w together with its Euler class in the classifying ring."""

    __slots__ = ("element", "value")

    def __init__(self, element, value: RingElement):
        self.element = tuple(element)
        self.value = value

    def __repr__(self):
        return f"EulerClass({self.element})"


class _Batch:
    """The power tables and columns F_i(b) that one ``euler_classes`` call,
    or one lone ``euler_class`` call, shares; none outlives the call.

    A head's table is kept only while it is the latest head, since
    consecutive queries usually share it.
    """

    __slots__ = ("singles", "columns", "head")

    def __init__(self):
        self.singles: dict[tuple, list] = {}
        self.columns: dict[tuple, dict] = {}  # single class -> {i: F_i(b)}
        self.head = None  # (head element, its power table)


class ClassifyingRing:
    """The finite algebra presentation of E*(BA) plus the source data.

    ``_factors[k]`` is the factor algebra R_k = base[x]/(G_k) of the k-th
    variable together with the map t -> basis index of x_k^t in the ring,
    built once with the ring, so that memoized jobs share it.  Variables
    with the same relation share one factor, and a ring of one variable is
    its own factor.
    """

    def __init__(self, law: FormalGroupLaw, group: AbelianPGroup,
                 algebra: FiniteAlgebra):
        self.law = law
        self.group = group
        self.algebra = algebra
        self._euler_cache: dict[tuple, RingElement] = {}
        pres = algebra.presentation
        factors = {} if len(pres["relations"]) > 1 else {
            tuple(pres["relations"][0]): algebra}
        self._factors = []
        for k, rel in enumerate(pres["relations"]):
            key = tuple(rel)
            if key not in factors:
                factors[key] = FiniteAlgebra.from_presentation(
                    algebra.base, ["x"], [rel])
            index = [pres["index"][self._single(k, t)] for t in range(len(rel) - 1)]
            self._factors.append((factors[key], index))

    # -- Euler classes ------------------------------------------------------

    def euler_class(self, w, batch: _Batch | None = None) -> EulerClass:
        """[w_1](X_1) +_F ... +_F [w_m](X_m), folded left to right.

        Commutativity and associativity of F (verified at build) make the
        result order independent; the fixed fold gives byte-stable output.
        The power tables come from ``batch``, a fresh one unless the call
        is part of ``euler_classes``.
        """
        orders = self.group.orders
        if len(w) != len(orders):
            raise InvalidSubgroup("group element length mismatch")
        w = tuple(int(a) % o for a, o in zip(w, orders))
        return EulerClass(w, self._euler(w, _Batch() if batch is None else batch))

    def _euler(self, w: tuple, batch: _Batch) -> RingElement:
        """The left fold as one formal sum per element: with k the last nonzero
        coordinate, e(w) = e(head) +_F e(w_k e_k), head being w with w_k = 0.

        F(x, 0) = x exactly, so skipping zero coordinates leaves the fold's
        value unchanged.  With h = e(head), b = e(w_k e_k) and F's columns
        F(x, y) = sum_i x^i F_i(y), the sum is e(w) = sum_i h^i F_i(b),
        the column fold of ``series.eval_at`` taken in one ``dot_sparse``
        over the i with h^i nonzero.  Each F_i(b) is ``series._combine`` of
        the powers of b, computed the first time a head's table reaches i
        and kept in the batch, so the classes that share b share it.  A
        single class is [w_k](x_k), folded at the powers of x_k.  Either sum
        drops only terms whose powers vanish, once the cap covers the powers
        that do not.
        """
        value = self._euler_cache.get(w)
        if value is not None:
            return value
        alg = self.algebra
        n = alg.base.n
        support = [k for k, a in enumerate(w) if a]
        if not support:
            value = alg.zero()
        elif len(support) == 1:
            k = support[0]
            x_k = self._table(self._single(k, 1), batch)
            series = self.law.m_series(w[k])
            _check_covered(series.cap, [x_k], [alg.gen(k)])
            value = alg.from_sparse(_fold(alg, series.terms.items(), [x_k]))
        else:
            k = support[-1]
            head = w[:k] + (0,) * (len(w) - k)
            single = self._single(k, w[k])
            h, b = self._table(head, batch), self._table(single, batch)
            _check_covered(self.law.cap, [h, b],
                           [self._euler(head, batch), self._euler(single, batch)])
            columns = batch.columns.setdefault(single, {})
            pairs = []
            for i, h_i in enumerate(h):
                column = columns.get(i)
                if column is None:
                    column = columns[i] = _combine(self.law.columns.get(i, ()), b, n)
                if column:
                    pairs.append((h_i, column))
            value = alg.from_sparse(alg.dot_sparse(pairs))
        self._euler_cache[w] = value
        return value

    def _single(self, k: int, a: int) -> tuple:
        """The element a e_k."""
        return tuple(a if i == k else 0 for i in range(len(self.group.orders)))

    def _table(self, v: tuple, batch: _Batch) -> list:
        """Power table of e(v) (``series._power_table`` with top cap + 1),
        built once per batch for a single class and once per run of
        queries for a head.

        A single class e(a e_k) is taken to its factor R_k by reading its
        coordinates at the x_k^t, its table is built there, and each row is
        mapped back into the ring's basis; R_k embeds in the ring, so the
        rows and the table's length are those of the ring's own table.
        """
        alg, top = self.algebra, self.law.cap + 1
        support = [k for k, a in enumerate(v) if a]
        if len(support) == 1:
            table = batch.singles.get(v)
            if table is None:
                k = support[0]
                factor, index = self._factors[k]
                if v[k] == 1:
                    value = factor.gen(0)
                else:
                    coords = self._euler(v, batch).coords
                    value = factor.from_coords([coords[i] for i in index])
                table = batch.singles[v] = [
                    [(index[t], c) for t, c in row]
                    for row in _power_table(factor, value, top)]
            return table
        if batch.head is None or batch.head[0] != v:
            batch.head = (v, _power_table(alg, self._euler(v, batch), top))
        return batch.head[1]

    def euler_classes(self, elements):
        """Euler classes of elements, in order, from one batch of power
        tables and columns, dropped with the batch at the end."""
        batch = _Batch()
        return [self.euler_class(w, batch) for w in elements]

    def __repr__(self):
        return f"ClassifyingRing({self.group!r} over {self.law.kind}, rank={self.algebra.rank})"


def required_cap(p: int, n: int, K: int, exponents) -> int:
    """A cap sufficient for building the ring and evaluating all Euler classes.

    Weierstrass preparation needs p^(n * max i_k); the formal-sum folds, and
    for a cyclic A the [a]-series at x_1, need the sum of the generator
    nilpotency bounds (K * p^(n*i_k) each).
    """
    j_max = max(exponents)
    build = p ** (n * j_max) + p
    folds = sum(K * p ** (n * i_k) - 1 for i_k in exponents)
    return max(build, folds)


def build_classifying_ring(law: FormalGroupLaw, group: AbelianPGroup) -> ClassifyingRing:
    """base[x_1..x_m] modulo the Weierstrass polynomials of the p^(i_k)-series."""
    if law.p != group.p:
        raise InvalidSubgroup("law and group disagree on p")
    n = law.height
    if n is None:
        raise FGLError("classifying rings need a law of known finite height")
    j_max = max(group.exponents)
    if law.cap < law.p ** (n * j_max):
        raise CapTooSmall(
            f"cap {law.cap} < p^(n*max_i) = {law.p ** (n * j_max)}"
        )
    relations = [law.weierstrass(i_k).poly for i_k in group.exponents]
    base = BaseModulus(law.domain.n)
    variables = [f"x{k + 1}" for k in range(len(group.exponents))]
    algebra = FiniteAlgebra.from_presentation(base, variables, relations)
    expected_rank = 1
    for i_k in group.exponents:
        expected_rank *= law.p ** (i_k * n)
    if algebra.rank != expected_rank:
        raise ClassifyingError(
            f"rank {algebra.rank} differs from p^(n*sum i_k) = {expected_rank}"
        )
    return ClassifyingRing(law, group, algebra)


def certify_root_difference(cr: ClassifyingRing, u, w):
    """Witness that euler(u) - euler(w) = euler(u - w) * unit with a unit.

    Write F(x, y) = x + y G(x, y).  Since e(u) = e(w) +_F e(u - w), the unit
    is G(e(w), e(u - w)), taken by one polynomial evaluation.  The equation
    is replayed exactly, and the unit is checked by its constant coordinate:
    G(0, 0) = 1, and in a local tower an element is a unit iff that
    coordinate is prime to p.  The witness makes the pairwise
    non-zero-divisor condition of root tuples explicit relative to the set
    of inverted classes.
    """
    orders = cr.group.orders
    if len(u) != len(orders) or len(w) != len(orders):
        raise InvalidSubgroup("group element length mismatch")
    p = cr.algebra.local_tower_prime()
    if p is None:
        raise ClassifyingError("root-difference units need a local tower")
    target = tuple((a - b) % o for a, b, o in zip(u, w, orders))
    e_w, e_u, s = (ec.value for ec in cr.euler_classes([w, u, target]))
    d = e_u - e_w
    unit = eval_at(_sum_unit_series(cr.law), [e_w, s], polynomial=True)
    if not (s * unit - d).is_zero():
        raise ClassifyingError("e(u) - e(w) = e(u - w) * G(e(w), e(u - w)) "
                               "does not replay")
    if not unit.coords[0] % p:
        raise ClassifyingError("G(e(w), e(u - w)) is not a unit")
    return {"difference_element": target, "unit": unit}
