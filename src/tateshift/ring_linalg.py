"""Root-coefficient relations and linear algebra over commutative rings.

The central hypothesis everywhere is the n-tuple condition: a set of ring
elements whose pairwise differences are non-zero-divisors.  Under it the
Vandermonde system has only the zero solution, the generalized Vieta/Cramer
relations between the roots and the coefficients of a polynomial hold, and a
polynomial with "too many" roots forces the ring to vanish.

The Vandermonde system is solved one way: row reduction that cancels each
non-zero-divisor difference of roots, ending in unit pivots.  det V is the
product of the differences of the roots.

Elements are RingElements of a FiniteAlgebra or PolyElements of an
ExactPolyRing (Z itself is ``ExactPolyRing([], [])``).  Both rings answer
one protocol, which is all this module asks of them: ``zero()``, ``one()``,
``is_nzd(e)``, ``exact_div(a, d)``, ``module_contains(gens, target)`` and
``unit_cofactor(s, d)`` (a unit u with s*u = d, or None) with its
``unit_cofactor_scope``, and ``is_zero()`` on the elements.
"""

from __future__ import annotations

import itertools

from .ring_core import (
    NotDivisible,
    ZeroDivisorDivisor,
    multiset_products,
)


class LinalgError(Exception):
    pass


class PivotNotCancellable(LinalgError):
    pass


class DivisibilityFailure(LinalgError):
    pass


class NotATuple(LinalgError):
    pass


def poly_eval_elems(coeffs, x):
    """Horner evaluation; coefficients and point from the same ring."""
    acc = x.parent.zero()
    for c in reversed(list(coeffs)):
        acc = acc * x + c
    return acc


# -- n-tuples -------------------------------------------------------------------


class NTuple:
    """Roots with pairwise non-zero-divisor differences (Def: n-tuple).

    mode "concrete": the differences were checked in the ring itself.
    mode "localized": each difference is certified to become a unit after
    inverting the recorded multiplicative set; conclusions are conditional on
    that localization being the ring under discussion.
    """

    __slots__ = ("elements", "mode", "witnesses", "f_coeffs")

    def __init__(self, elements, mode="concrete", witnesses=None, f_coeffs=None):
        self.elements = list(elements)
        self.mode = mode
        self.witnesses = witnesses or {}
        self.f_coeffs = f_coeffs

    def __len__(self):
        return len(self.elements)


def is_ntuple(elements, f=None):
    """(ok, offending_pair): pairwise differences non-zero-divisors, roots of f.

    ``f`` is an optional coefficient list a_0..a_m over the same ring; when
    given, every element must be a root.
    """
    elements = list(elements)
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            d = elements[i] - elements[j]
            if not d.parent.is_nzd(d):
                return False, (i, j)
    if f is not None:
        for i, r in enumerate(elements):
            if not poly_eval_elems(f, r).is_zero():
                return False, (i, i)
    return True, None


def verify_tuple(elements, f=None) -> NTuple:
    ok, pair = is_ntuple(elements, f)
    if not ok:
        i, j = pair
        if i == j:
            raise NotATuple(f"element {i} is not a root of f")
        raise NotATuple(f"difference of elements {i} and {j} is a zero divisor")
    return NTuple(elements, f_coeffs=f)


# -- elimination with non-zero-divisor cancellation ----------------------------------


def vandermonde_matrix(ts):
    n = len(ts)
    rows = []
    for t in ts:
        row = [t.parent.one()]
        for _ in range(n - 1):
            row.append(row[-1] * t)
        rows.append(row)
    return rows


def _eliminate(rows, ts):
    """Reduce rows, whose first len(ts) columns are the Vandermonde matrix
    of ts, to unit pivots in place, yielding after each stage.

    Stage s subtracts row s from each later row i and cancels t_i - t_s from
    the result, which divides every column that is a combination of V's; a
    non-zero-divisor factor has one quotient, so the solution set is kept.
    A factor that cannot be cancelled, or a pivot other than 1, raises
    PivotNotCancellable.
    """
    n = len(ts)
    for stage in range(n - 1):
        pivot = rows[stage]
        for i in range(stage + 1, n):
            factor = ts[i] - ts[stage]
            new_row = []
            for a, b in zip(rows[i], pivot):
                entry = a - b
                if not entry.is_zero():
                    try:
                        entry = factor.parent.exact_div(entry, factor)
                    except (NotDivisible, ZeroDivisorDivisor) as exc:
                        raise PivotNotCancellable(
                            f"difference of roots {i} and {stage} cannot be "
                            f"cancelled: {exc}"
                        ) from exc
                new_row.append(entry)
            rows[i] = new_row
        yield
    for i in range(n):
        if not (rows[i][i] - ts[i].parent.one()).is_zero():
            raise PivotNotCancellable(f"pivot {i} did not normalize to 1")


def gaussian_nzd_solve(ntuple) -> list:
    """Row-reduce the Vandermonde system of the tuple to unit pivots, and
    return the trace: the matrix before the first stage and after each.

    The final upper triangular matrix with pivots 1 confirms that the only
    solution is the zero vector.  A tuple for which that fails raises
    PivotNotCancellable.  ``roots_to_coeffs`` runs the same elimination on
    the system augmented by its right-hand side.
    """
    ts = ntuple.elements if isinstance(ntuple, NTuple) else list(ntuple)
    rows = vandermonde_matrix(ts)
    trace = [[list(r) for r in rows]]
    for _ in _eliminate(rows, ts):
        trace.append([list(r) for r in rows])
    return trace


# -- root-coefficient relations -------------------------------------------------------


class RootCoeffResult:
    """Case tag, recovered coefficients and determinant witnesses; in the
    Vieta case ``factorization`` is the expansion of a_n prod (x - r_i),
    constant term first, checked equal to f."""

    __slots__ = ("case", "recovered", "witnesses", "factorization")

    def __init__(self, case, recovered, witnesses=None, factorization=None):
        self.case = case
        self.recovered = recovered
        self.witnesses = witnesses or {}
        self.factorization = factorization


def poly_from_roots(roots, leading):
    """Coefficients of leading * prod (x - r_i), constant term first."""
    ring = leading.parent
    coeffs = [ring.one()]
    for r in roots:
        new = [ring.zero() for _ in range(len(coeffs) + 1)]
        for i, c in enumerate(coeffs):
            new[i + 1] = new[i + 1] + c
            new[i] = new[i] - c * r
        coeffs = new
    return [c * leading for c in coeffs]


def roots_to_coeffs(f_coeffs, ntuple: NTuple) -> RootCoeffResult:
    """Generalized root-coefficient relations for a verified tuple of f.

    n > m: every coefficient is forced to vanish.  n = m: Vieta recovery and
    the factorization f = a_n prod (x - r_i).  n < m: Cramer recovery of
    a_0..a_(n-1) from V a = beta, beta_i = -sum_(k>=n) a_k r_i^k, by the
    elimination of ``gaussian_nzd_solve`` on [V | beta] and back
    substitution.  The witnesses are det V = prod_(i<j) (r_j - r_i) and
    det V_i = a_i det V, V_i being V with column i replaced by beta (Cramer's
    rule, adj(V) V = det V I); both identities hold in every commutative
    ring.  For a verified tuple the elimination succeeds; a failure, or a
    recovered coefficient other than a_i, raises DivisibilityFailure.
    """
    if not isinstance(ntuple, NTuple):
        raise NotATuple("roots_to_coeffs needs a verified tuple")
    f_coeffs = list(f_coeffs)
    roots = ntuple.elements
    if ntuple.mode == "concrete":
        for i, r in enumerate(roots):
            if not poly_eval_elems(f_coeffs, r).is_zero():
                raise NotATuple(f"element {i} is not a root of f")
    n = len(roots)
    m = len(f_coeffs) - 1
    if n > m:
        for i, a in enumerate(f_coeffs):
            if not a.is_zero():
                raise NotATuple(
                    f"coefficient {i} is nonzero although the tuple is larger "
                    "than the degree; the tuple cannot be valid"
                )
        return RootCoeffResult("AllZero", [roots[0].parent.zero()] * (m + 1))
    if n == m:
        lead = f_coeffs[-1]
        expanded = poly_from_roots(roots, lead)
        for got, given in zip(expanded, f_coeffs):
            if not (got - given).is_zero():
                raise NotATuple("Vieta relations fail; tuple is not valid for f")
        return RootCoeffResult("Vieta", expanded[:-1], factorization=expanded)
    # n < m: Cramer, solving V a = beta by the elimination
    ring = f_coeffs[-1].parent
    rows = vandermonde_matrix(roots)
    for r, row in zip(roots, rows):
        acc = ring.zero()
        power = row[-1] * r  # r^n; accumulate -sum_{k=n..m} a_k r^k
        for k in range(n, m + 1):
            acc = acc - f_coeffs[k] * power
            power = power * r
        row.append(acc)
    try:
        for _ in _eliminate(rows, roots):
            pass
    except PivotNotCancellable as exc:
        raise DivisibilityFailure(str(exc)) from exc
    # unit upper triangular: back substitution needs no division
    recovered = [None] * n
    for i in reversed(range(n)):
        acc = rows[i][n]
        for j in range(i + 1, n):
            acc = acc - rows[i][j] * recovered[j]
        recovered[i] = acc
    for i in range(n):
        if not (recovered[i] - f_coeffs[i]).is_zero():
            raise DivisibilityFailure(
                f"recovered coefficient {i} disagrees with the input"
            )
    det_v = ring.one()
    for i, j in itertools.combinations(range(n), 2):
        det_v = det_v * (roots[j] - roots[i])
    return RootCoeffResult(
        "Cramer", recovered,
        witnesses={"det_vandermonde": det_v,
                   "column_dets": [a * det_v for a in recovered]},
    )


# -- vanishing condition ---------------------------------------------------------------


class VanishingVerdict:
    __slots__ = ("verdict", "details")

    MUST_BE_ZERO = "MustBeZero"
    INCONCLUSIVE = "Inconclusive"

    def __init__(self, verdict, details):
        self.verdict = verdict
        self.details = details

    def __repr__(self):
        return f"VanishingVerdict({self.verdict})"


# One difference generator per recovered coefficient, indexed 0..n-1; the
# reports state the convention so consumers can align their own indexing.
INDEX_CONVENTION_NOTE = (
    "difference generators indexed 0..n-1, one per recovered coefficient"
)


def vanishing_condition(f_coeffs, ntuple: NTuple) -> VanishingVerdict:
    """MustBeZero when the tuple of f forces R = 0, else Inconclusive.

    n > m: R = 0 as soon as 1 lies in the coefficient ideal.  n <= m never
    forces R = 0: ``roots_to_coeffs`` returns only coefficients equal to f's,
    so the ideal of differences a_i - (Cramer expression) is zero.  A
    concrete tuple is still run through it, so a tuple that is not one of f
    raises NotATuple, and a failed elimination reports its divisibility
    failure; a localized tuple is not decidable at finite truncation level.
    Every n <= m verdict is Inconclusive.
    """
    if not isinstance(ntuple, NTuple):
        raise NotATuple("vanishing_condition needs a verified tuple")
    f_coeffs = list(f_coeffs)
    roots = ntuple.elements
    if ntuple.mode == "concrete":
        for i, r in enumerate(roots):
            if not poly_eval_elems(f_coeffs, r).is_zero():
                raise NotATuple(f"element {i} is not a root of f")
    n = len(roots)
    m = len(f_coeffs) - 1
    if n > m:
        contains = _one_in_ideal(f_coeffs)
        verdict = (
            VanishingVerdict.MUST_BE_ZERO if contains
            else VanishingVerdict.INCONCLUSIVE
        )
        return VanishingVerdict(
            verdict,
            {"case": "n>m", "ideal": "coefficients", "n": n, "m": m,
             "note": INDEX_CONVENTION_NOTE},
        )
    if ntuple.mode == "localized":
        return VanishingVerdict(
            VanishingVerdict.INCONCLUSIVE,
            {"case": "n<=m", "reason": "Cramer differences are not computable "
             "in the unlocalized model", "note": INDEX_CONVENTION_NOTE},
        )
    try:
        roots_to_coeffs(f_coeffs, ntuple)
    except DivisibilityFailure:
        return VanishingVerdict(
            VanishingVerdict.INCONCLUSIVE,
            {"case": "n<=m", "reason": "divisibility failure",
             "note": INDEX_CONVENTION_NOTE},
        )
    return VanishingVerdict(
        VanishingVerdict.INCONCLUSIVE,
        {"case": "n<=m", "ideal": "coefficient differences",
         "note": INDEX_CONVENTION_NOTE},
    )


def _one_in_ideal(gens) -> bool:
    """Whether the nonzero gens generate the unit ideal; False for none."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return False
    ring = gens[0].parent
    return ring.module_contains(gens, ring.one())


# -- tuples verified in a localization ---------------------------------------------------

def _unit_multiple_witness(d, s_gens, max_len):
    """(word, unit) with d = unit * prod(word), or None.

    A witness certifies that d becomes a unit in the localization inverting
    s_gens.  The word is the first of ``multiset_products`` for which the
    ring's ``unit_cofactor`` finds a unit.
    """
    for value, word in multiset_products(s_gens, max_len):
        u = d.parent.unit_cofactor(value, d)
        if u is not None:
            return list(word), u
    return None


def _kill_word(t, s_gens, max_len):
    """A word whose product annihilates t (so t dies in the localization)."""
    if t.is_zero():
        return []
    for value, word in multiset_products(s_gens, max_len):
        if (value * t).is_zero():
            return list(word)
    return None


def verify_localized_tuple(s_gens, elements, f=None, max_len=12) -> NTuple:
    """Tuple valid in the localization inverting s_gens, with explicit witnesses.

    Pairwise differences must be unit multiples of products of the inverted
    generators (hence units after localization, hence non-zero-divisors there
    whenever the localization is nonzero); roots of f need only die in the
    localization, i.e. be annihilated by some product.
    """
    elements = list(elements)
    witnesses = {"pairs": {}, "roots": {}, "inverted": s_gens}
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            d = elements[i] - elements[j]
            hit = _unit_multiple_witness(d, s_gens, max_len)
            if hit is None:
                raise NotATuple(
                    f"difference of elements {i} and {j} is not certified "
                    f"to become a unit in the localization: within products "
                    f"of length {max_len}; {d.parent.unit_cofactor_scope}"
                )
            witnesses["pairs"][(i, j)] = {"word": hit[0], "unit": hit[1]}
    if f is not None:
        for i, r in enumerate(elements):
            value = poly_eval_elems(list(f), r)
            word = _kill_word(value, s_gens, max_len)
            if word is None:
                raise NotATuple(
                    f"f(element {i}) does not die in the localization "
                    f"within products of length {max_len}"
                )
            witnesses["roots"][i] = {"word": word}
    return NTuple(elements, "localized", witnesses, f_coeffs=f)
