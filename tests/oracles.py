"""Test oracles and fixtures that no command runs.

Each routine here is an independent reference for a routine of
``tateshift`` (or a constructor only the tests need).  The module has no
``test_`` prefix, so pytest imports it only through the test modules.
"""

import functools
import itertools
import math

from tateshift import zmod
from tateshift.classifying import (
    AbelianPGroup,
    ClassifyingError,
    build_classifying_ring,
)
from tateshift.fgl import X1, X2, FormalGroupLaw, _sum_unit_series
from tateshift.ring_core import (
    ZERO_RING,
    RingElement,
    _kernel_chain,
    _product,
    _quotient_algebra,
    graded_lex_key,
    ideal_module_rows,
    identity_rows,
)
from tateshift.ring_linalg import poly_eval_elems
from tateshift.series import (
    NonNilpotentArgument,
    TruncatedSeries,
    ZModDomain,
    _check_covered,
    inverse,
    substitute,
)
from tateshift.tate_blueshift import build_law


# -- groups and torsion roots --------------------------------------------------


# Every group with |A| <= 16 for p = 2 and p = 3.
SMALL_GROUPS = [
    (p, A) for p, top in ((2, 4), (3, 2)) for r in range(1, top + 1)
    for A in itertools.product(range(1, top + 1), repeat=r) if sum(A) <= top
]


@functools.cache
def small_ring(kind: str, p: int, h: int, A: tuple):
    """The classifying ring of A under the Honda law of height h or the
    multiplicative law over Z/p^h, built once per test session."""
    law = (build_law("honda", p, n=h, exponents=list(A)) if kind == "honda" else
           build_law("multiplicative", p, modulus_power=h, exponents=list(A)))
    return build_classifying_ring(law, AbelianPGroup(p, A))


def torsion_elements(group, j: int):
    """V(p^j | A) = { w : p^j w = 0 }, enumerated componentwise."""
    return itertools.product(*[range(0, o, group.p ** max(i_k - j, 0))
                               for i_k, o in zip(group.exponents, group.orders)])


def V_count(group, j: int) -> int:
    """|V(p^j|A)| = prod p^min(j, i_k), the log-count ``blueshift_bounds``
    sums inline."""
    out = 1
    for i_k in group.exponents:
        out *= group.p ** min(j, i_k)
    return out


def V_count_image(group, sub, j: int) -> int:
    """|V(p^j | im phi(A/C))| = prod p^min(j, i_k - j_k)."""
    sub.validate_in(group)
    out = 1
    for i_k, j_k in zip(group.exponents, sub.exponents):
        out *= group.p ** min(j, i_k - j_k)
    return out


def pj_root_set(cr, j: int):
    """Euler classes of the p^j-torsion of A, each checked to kill the
    Weierstrass polynomial of [p^j], and as many as V(p^j|A) has elements.

    That polynomial is taken as the j-fold composite of g_1, which needs no
    series past the ring's cap for j above the exponents of A.
    """
    alg = cr.algebra
    gj = poly_compose_iterate(cr.law.weierstrass(1).poly, j, alg.base.n)
    g = [alg.from_int(c) for c in gj]
    out = cr.euler_classes(torsion_elements(cr.group, j))
    for ec in out:
        if not poly_eval_elems(g, ec.value).is_zero():
            raise ClassifyingError(
                f"euler class of {ec.element} does not kill the p^{j} relation")
    if len(out) != V_count(cr.group, j):
        raise ClassifyingError(f"torsion enumeration produced {len(out)} classes")
    return out


def poly_compose_iterate(g, j: int, n: int):
    """g composed with itself j times over Z/n, by Horner; j = 0 gives x."""
    out = [0, 1]
    for _ in range(j):
        acc = [0]
        for c in reversed(out):  # acc <- acc * g + c
            prod = [0] * (len(acc) + len(g) - 1)
            for a, x in enumerate(acc):
                for b, y in enumerate(g):
                    prod[a + b] = (prod[a + b] + x * y) % n
            prod[0] = (prod[0] + c) % n
            acc = prod
        while len(acc) > 1 and not acc[-1]:
            acc.pop()
        out = acc
    return out


def euler_classes_by_fold(cr, elements):
    """Euler classes by one ``eval_by_groups`` fold per class, every power
    table a list of ring elements of the whole ring, where
    ``ClassifyingRing`` builds a single class's table in its factor R_k.

    A class with k its last nonzero coordinate and two or more nonzero
    coordinates is F(e(head), e(w_k e_k)), head being w with w_k = 0,
    folded from the power tables of both; a single class e(a e_k) is [a]
    at the table of x_k.  Tables and classes are kept for the call only.
    """
    alg, law = cr.algebra, cr.law
    classes, tables = {}, {}

    def table(v):
        if v not in tables:
            tables[v] = dense_power_table(alg, euler(v), law.cap + 1)
        return tables[v]

    def euler(w):
        if w not in classes:
            support = [k for k, a in enumerate(w) if a]
            if not support:
                classes[w] = alg.zero()
            elif len(support) == 1:
                k = support[0]
                x_k = dense_power_table(alg, alg.gen(k), law.cap + 1)
                classes[w] = eval_by_groups(law.m_series(w[k]), [x_k])
            else:
                k = support[-1]
                head = w[:k] + (0,) * (len(w) - k)
                single = tuple(a if i == k else 0 for i, a in enumerate(w))
                classes[w] = eval_by_groups(law.F, [table(head), table(single)])
        return classes[w]

    return [euler(tuple(w)) for w in elements]


def identity_by_full_scan(alg) -> bool:
    """Whether b_0 * b_j = b_j for every basis element b_j, each product
    read through ``basis_product``: the check ``FiniteAlgebra`` made of a
    presented algebra before it checked the algebra's factors, one normal
    form per basis monomial."""
    return all(dict(alg.basis_product(0, j)) == {j: 1} for j in range(alg.rank))


# -- evaluation at ring elements -------------------------------------------------
# The evaluations ``series.eval_at`` replaced: every term multiplied out with
# the nilpotency checked by ``nilpotency_index``, and dense per-group sums
# with one full product per group over tables of ring elements.


def old_eval_at(f, args, polynomial=False):
    """f at ring elements, one product per variable of each term."""
    alg = args[0].parent
    if not polynomial:
        indices = []
        for a in args:
            idx = alg.nilpotency_index(a)
            if idx is None:
                raise NonNilpotentArgument(
                    "argument is not nilpotent; pass polynomial=True for "
                    "polynomial evaluation"
                )
            indices.append(idx)
        if sum(i - 1 for i in indices) > f.cap:
            raise NonNilpotentArgument(
                f"cap {f.cap} does not cover all nonvanishing monomials "
                f"(need {sum(i - 1 for i in indices)})"
            )
    powers = [{0: alg.one(), 1: a} for a in args]

    def power(i, k):
        cache = powers[i]
        if k not in cache:
            cache[k] = power(i, k - 1) * args[i]
        return cache[k]

    acc = alg.zero()
    for e, c in sorted(f.terms.items(), key=lambda t: graded_lex_key(t[0])):
        term = alg.one() * c
        for i, k in enumerate(e):
            if k:
                term = term * power(i, k)
        acc = acc + term
    return acc


def dense_power_table(alg, a, top: int) -> list:
    """[1, a, a^2, ...] up to a^top as ring elements, cut before the first
    zero power."""
    table = [alg.one()]
    while len(table) <= top:
        nxt = a if len(table) == 1 else table[-1] * a
        if nxt.is_zero():
            break
        table.append(nxt)
    return table


def eval_by_groups(f, tables):
    """f at the elements whose ``dense_power_table``s with top f.cap + 1
    are given, one per variable, with the cap's coverage checked.

    Terms are grouped by every exponent but the last: each group's sum is
    a dense scalar combination of the last table's rows, and takes one
    ring product per other nonzero exponent.
    """
    alg = tables[0][0].parent
    _check_covered(f.cap, tables,
                   [t[1] if len(t) > 1 else alg.zero() for t in tables])
    last = len(tables) - 1
    last_table = [a.coords for a in tables[last]]
    groups = {}
    for e, c in f.terms.items():
        if all(k < len(t) for k, t in zip(e, tables)):
            groups.setdefault(e[:last], []).append((e[last], c))
    acc = [0] * alg.rank
    for prefix, tail in groups.items():
        inner = [0] * alg.rank
        for k, c in tail:
            for j, x in enumerate(last_table[k]):
                if x:
                    inner[j] += c * x
        group = RingElement(alg, inner)
        for i, k in enumerate(prefix):
            if k:
                group = tables[i][k] * group
        acc = [a + x for a, x in zip(acc, group.coords)]
    return RingElement(alg, acc)


# -- formal group laws ---------------------------------------------------------


def build_additive(n: int, D: int, p: int | None = None) -> FormalGroupLaw:
    """F = x1 + x2 over Z/n (no interesting height; used for comparisons)."""
    F = TruncatedSeries(ZModDomain(n), (X1, X2), D, {(1, 0): 1, (0, 1): 1})
    return FormalGroupLaw(F, p if p is not None else 0, None, "additive")


def build_custom(F: TruncatedSeries, p: int, height=None) -> FormalGroupLaw:
    return FormalGroupLaw(F, p, height, "custom")


def formal_difference_with_unit(law, a: TruncatedSeries, b: TruncatedSeries):
    """(a -_F b, eps) with a -_F b = (a - b) * eps and eps(0) = 1: the
    series-level form of the unit ``certify_root_difference`` reads.

    With d = a -_F b, F(b, d) = a and F(x1, x2) = x1 + x2 * G(x1, x2) give
    a - b = d * G(b, d), so eps = G(b, d)^-1; nothing is divided by a - b.
    G is known to total degree cap - 1, so eps carries min(cap - 1, a.cap,
    b.cap).
    """
    dom = law.domain
    if a.constant_term() != dom.zero or b.constant_term() != dom.zero:
        raise ValueError("formal difference needs zero constant terms")
    diff = law.formal_sum(a, substitute(law.formal_inverse(), {"x": b}))
    return diff, inverse(substitute(_sum_unit_series(law), {X1: b, X2: diff}))


# -- nilpotency indices --------------------------------------------------------
# The routines ``FiniteAlgebra.nilpotency_index`` replaced: squaring then a
# scan, Frobenius digits over F_p, and stepping the powers in lockstep.


def square_then_scan_index(alg, e):
    """Smallest k with e^k = 0, or None if e is not nilpotent: squaring up
    to the ring's length bound rank * bitlen(N) + 2 decides nilpotency,
    and a linear scan of the powers then finds the index."""
    bound = alg.rank * max(alg.base.n.bit_length(), 1) + 2
    if e.is_zero():
        return 1
    s, k = e, 1
    while k <= bound:
        s, k = s * s, 2 * k
        if s.is_zero():
            idx, power = 1, e
            while not power.is_zero():
                power, idx = power * e, idx + 1
            return idx
    return None


def frobenius_digit_index(alg, e):
    """Smallest k with e^k = 0, or None if e is a unit, in an algebra with
    a ``frobenius``: the Frobenius images y^(p^t) are taken until one is 0,
    and the largest L with y^L != 0 is read by its base-p digits from the
    top, each digit the number of times y^(p^t) multiplies in before the
    product vanishes."""
    frobenius = alg.frobenius()
    if e.coords[0]:
        return None
    p = alg.base.n
    powers = []  # powers[t] = y^(p^t), all nonzero
    y = alg.sparse(e)
    while y:
        powers.append(y)
        y = frobenius(y)
    if not powers:
        return 1
    top = len(powers) - 1
    acc, largest = powers[top], p**top
    for t in range(top, -1, -1):
        for _ in range(p - 1 - (t == top)):
            nxt = alg.dot_sparse([(acc, powers[t])])
            if not nxt:
                break
            acc, largest = nxt, largest + p**t
    return largest + 1


def lockstep_word(gens, limit: int, step=None):
    """[i]*m for the least m <= limit with gens[i]^m = 0 for some i at the
    positions step (all of them by default), i the first such position;
    None if there is no such m.  The powers are stepped together, one
    product each per m."""
    step = range(len(gens)) if step is None else step
    powers = {i: gens[i] for i in step}
    for m in range(1, limit + 1):
        zero = [i for i, x in powers.items() if x.is_zero()]
        if zero:
            return [zero[0]] * m
        powers = {i: x * gens[i] for i, x in powers.items()}
    return None


# -- group-ring searches -------------------------------------------------------
# The tuple form that ``tate_blueshift._GroupRingElement`` replaced: one
# coefficient per group element, a product one shifted difference over them.


class GroupRingTuple:
    """An element of Z[A] or (Z/N)[A] by its coefficients on t^v, v in
    group.elements() order.

    Generators t^w - 1 also carry ``perm``, the index of v - w at the index of
    v, so that multiplying by one is a single shifted difference, and the
    modulus N of the coefficients (None over Z).
    """

    __slots__ = ("coeffs", "perm", "modulus", "_hash")

    def __init__(self, coeffs: tuple, perm: tuple | None = None,
                 modulus: int | None = None):
        self.coeffs = coeffs
        self.perm = perm
        self.modulus = modulus
        self._hash = hash(coeffs)

    def multiplier(self):
        """v -> v * (t^w - 1) for a generator: coefficient c_(v-w) - c_v at
        t^v, reduced mod N when there is one."""
        perm, n = self.perm, self.modulus

        if n is None:
            def times(v):
                c = v.coeffs
                return GroupRingTuple(tuple([c[j] - x for j, x in zip(perm, c)]))
        else:
            def times(v):
                c = v.coeffs
                return GroupRingTuple(
                    tuple([(c[j] - x) % n for j, x in zip(perm, c)]))

        return times

    def __eq__(self, other):
        return isinstance(other, GroupRingTuple) and self.coeffs == other.coeffs

    def __hash__(self):
        return self._hash

    def is_zero(self) -> bool:
        return not any(self.coeffs)


def group_ring_tuple_classes(group, inverted, modulus: int | None = None):
    """t^w - 1 for each w in inverted as ``GroupRingTuple``s, over Z or
    (Z/modulus)[A] when a modulus is given."""
    elements = list(group.elements())
    index = {v: i for i, v in enumerate(elements)}
    orders = group.orders
    gens = []
    for w in inverted:
        coeffs = [0] * len(elements)
        coeffs[0] -= 1
        coeffs[index[w]] += 1
        if modulus is not None:
            coeffs = [c % modulus for c in coeffs]
        perm = tuple(index[tuple((a - b) % o for a, b, o in zip(v, w, orders))]
                     for v in elements)
        gens.append(GroupRingTuple(tuple(coeffs), perm, modulus))
    return gens


def group_ring_coeffs(value, gen, size: int, balanced: bool = False) -> list:
    """The coefficients on t^v, v in group.elements() order (size of them),
    of a packed search value whose generators include gen: residues in
    [0, N), or lifted into [-N/2, N/2) when balanced."""
    width, n = gen.width, gen.modulus
    mask = (1 << width) - 1
    slots = [(value.code >> (width * i)) & mask for i in range(size)]
    return [(c + n // 2) % n - n // 2 for c in slots] if balanced else slots


# -- rings and linear algebra --------------------------------------------------


def saturation_ideal(alg, s_gens):
    """The Howell rows of the saturation { r : s*r = 0 for some s in the
    multiplicative closure }, and the chain of distinct bases of
    ker(s^(2^i)), i = 0, 1, ..., that leads to it (empty iff s is a
    non-zero-divisor; a nilpotent s ends it in the whole module).  Every
    step's rows are built, on every ring, unlike ``localize_by_saturation``
    on a local tower.
    """
    _, kernels, nilpotent = _kernel_chain(alg, _product(alg, s_gens))
    chain = [[list(r) for r in rows] for rows in kernels]
    if nilpotent:
        chain.append(identity_rows(alg.rank))
    return (chain[-1] if chain else []), chain


def quotient_by_ideal(alg, gens):
    """R/(gens) as a FiniteAlgebra plus projection, or (ZERO_RING, None)."""
    rows = ideal_module_rows(list(gens)) if gens else []
    if rows:
        hf = zmod.howell(rows, alg.base.n)
        if hf.contains([1] + [0] * (alg.rank - 1)):
            return ZERO_RING, None
        rows = hf.rows
    if not rows:
        return alg, identity_rows(alg.rank)
    return _quotient_algebra(alg, rows)


@functools.cache
def units_by_enumeration(alg):
    """Every unit u of a small finite ring: some element v has u*v = 1."""
    elements = list(alg.elements())
    one = alg.one()
    return [u for u in elements if any(u * v == one for v in elements)]


def unit_cofactors_by_enumeration(s, d):
    """Every unit u with s*u = d, found by trying each unit of the ring."""
    return [u for u in units_by_enumeration(s.parent) if s * u == d]


def gcd_one_in_ideal(gens) -> bool:
    """Whether integers generate the unit ideal of Z: their gcd is 1, and
    no generators give the zero ideal.  This was ``ring_linalg``'s branch
    for plain int elements before Z became ``ExactPolyRing([], [])``."""
    return math.gcd(*gens) == 1


def vandermonde_det(ts):
    """prod_{j<i} (t_i - t_j) over plain ints or ring elements; the empty
    and singleton products are 1."""
    ts = list(ts)
    out = 1 if not ts or isinstance(ts[0], int) else ts[0].parent.one()
    for i, j in itertools.combinations(range(len(ts)), 2):
        out = out * (ts[j] - ts[i])
    return out


def det_division_free(matrix, one=1):
    """Determinant without ring division: cofactor to size 5, Berkowitz above.

    ``one`` is the ring's identity: the determinant of the 0x0 matrix, which
    has no entry to name the ring, and Berkowitz's leading coefficient.
    ``ring_linalg`` solved the Vandermonde system by these expansions before
    it ran the non-zero-divisor elimination alone.
    """
    n = len(matrix)
    if n == 0:
        return one
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix must be square")
    if n <= 5:
        return _det_cofactor(matrix)
    return _det_berkowitz(matrix, one)


def _det_cofactor(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    out = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * _det_cofactor(minor)
        if j % 2:
            term = -term
        out = term if out is None else out + term
    return out


def _det_berkowitz(m, one=1):
    n = len(m)
    zero = one - one
    poly = [one, -m[0][0]]
    for r in range(1, n):
        a = m[r][r]
        row = [m[r][j] for j in range(r)]
        col = [m[i][r] for i in range(r)]
        block = [[m[i][j] for j in range(r)] for i in range(r)]
        ts = [one, -a]
        vec = col
        for _ in range(2, r + 2):
            dot = None
            for x, y in zip(row, vec):
                term = x * y
                dot = term if dot is None else dot + term
            ts.append(-dot)
            vec = [
                _dot_or_zero(block[i], vec, zero) for i in range(r)
            ]
        new_poly = []
        for i in range(r + 2):
            s = zero
            for j in range(len(poly)):
                k = i - j
                if 0 <= k < len(ts):
                    s = s + ts[k] * poly[j]
            new_poly.append(s)
        poly = new_poly
    det = poly[n]
    if n % 2:
        det = -det
    return det


def _dot_or_zero(xs, ys, zero):
    acc = zero
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def matmul_vec(mat, x, n: int):
    return [sum(a * b for a, b in zip(row, x)) % n for row in mat]
