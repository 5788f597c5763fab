"""Tate homotopy rings as Euler-class localizations, and blue-shift bounds.

For a subgroup C of A (componentwise exponents j_k <= i_k) the generalized
Tate ring is the classifying ring of A with the Euler classes of A - im phi(A/C)
inverted.  Over a finite base that localization is decided by saturation;
over exact integers a cyclic C is answered by a character of A, and any
other C by a zero-product certificate search.  A ZERO outcome is certified
either way; a NONZERO outcome at truncation level K says nothing about the
completed ring and is labeled as such.

The blue-shift number s of the construction satisfies t <= s <= rank_p(C)
with the closed-form lower bound

    t = max_j ceil( (log_p|V(p^j|A)| - log_p|V(p^j|im phi(A/C))|) / j )

computed by scanning j up to log_p|A| (the maximum occurs by then).
"""

from __future__ import annotations

import functools
import itertools
import operator
from math import comb, lcm, prod

from .classifying import (
    AbelianPGroup,
    ClassifyingRing,
    InvalidSubgroup,
    SubgroupSpec,
    orbit_representatives,
    quotient_image_elements,
    required_cap,
)
from .fgl import FormalGroupLaw, build_honda, build_multiplicative
from .ring_core import (
    CertificateNotFound,
    ExactPolyRing,
    FiniteAlgebra,
    MonomialReducer,
    ZERO_RING,
    localize_by_saturation,
    zero_product_certificate,
)


class TateRingResult:
    """Localization outcome with reproducible witnesses.

    status ZERO always carries a witness (a zero-product certificate and/or
    the saturation chain); NONZERO holds only at the stated truncation level.
    """

    ZERO = "ZERO"
    NONZERO = "NONZERO"
    INCONCLUSIVE = "INCONCLUSIVE"

    def __init__(self, status, quotient=None, inverted=(), witness=None,
                 level=None, mode="finite"):
        self.status = status
        self.quotient = quotient
        self.inverted = list(inverted)
        self.witness = witness or {}
        self.level = level
        self.mode = mode
        if status == self.ZERO and not self.witness:
            raise ValueError("ZERO status requires a witness")

    def to_dict(self):
        out = {
            "status": self.status,
            "mode": self.mode,
            "inverted_classes": [list(w) for w in self.inverted],
        }
        if self.level is not None:
            out["truncation_level"] = self.level
        if self.quotient is not None and self.quotient != ZERO_RING:
            out["quotient"] = {
                "base": str(self.quotient.base.n),
                "rank": self.quotient.rank,
            }
        wit = {}
        if "certificate" in self.witness:
            cert = self.witness["certificate"]
            wit["certificate"] = {
                "length": len(cert["word"]),
                "generator_indices": cert["word"],
                "generators": [list(w) for w in cert["elements"]],
            }
            if "minimal" in cert:
                wit["certificate"]["minimal"] = cert["minimal"]
            if "valuation_witness" in cert:
                wit["certificate"]["valuation_witness"] = cert["valuation_witness"]
        if "search_budget" in self.witness:
            wit["search_budget"] = self.witness["search_budget"]
        if "saturation_chain" in self.witness:
            wit["saturation_chain_length"] = len(self.witness["saturation_chain"])
        if "not_found_max_len" in self.witness:
            wit["not_found_max_len"] = self.witness["not_found_max_len"]
        if "character" in self.witness:
            wit["character"] = self.witness["character"]
        out["witness"] = wit
        return out


def inverted_element_set(group: AbelianPGroup, sub: SubgroupSpec):
    """A - im phi(A/C), in lexicographic order for byte-stable output."""
    sub.validate_in(group)
    image = set(quotient_image_elements(group, sub))
    return [w for w in group.elements() if w not in image]


# Products the finite-mode minimality search may examine.  It runs only when
# the valuation bound falls short of the nilpotent power: on the regular
# tate-scan benchmark that is the eight multiplicative jobs over Z/4, which
# examine at most 2,524 products.  The README headline and Honda n=2
# A=(Z/4)^2 are decided by the bound and search nothing.  The
# multiplicative law searches in the group basis of (Z/p^K)[A], each value
# a plain int packing the element (see ``_GroupRingGenerator``), built by
# the builder exact mode calls with the modulus 2^(L+2); the products
# examined, and so the budget's reach, are the same as in the ring's basis.
CERT_SEARCH_BUDGET = 8192


def tate_ring(cr: ClassifyingRing, sub: SubgroupSpec,
              max_cert_len: int | None = None) -> TateRingResult:
    """Finite-base generalized Tate ring of cr's group via saturation
    localization.

    The Euler classes come from cr, which keeps them, so calls that share
    a ring compute each class once.  A trivial C inverts nothing and
    returns the classifying ring unchanged (NONZERO at the truncation
    level).  A ZERO outcome attaches the saturation chain and, when found,
    a zero-product certificate (see ``finite_certificate``).  An
    automorphism of A induces a ring automorphism sending e(w) to
    e(sigma w), so the nilpotency index is constant on Aut(A)-orbits and
    only one class per orbit is stepped.  A certificate whose length meets
    the bound of ``valuation_witness`` carries that witness as its proof of
    minimality.  For the multiplicative law the search runs in the group
    basis of (Z/p^K)[A] (see ``finite_certificate``), with the classes
    exact mode searches, reduced mod p^K.
    """
    group = cr.group
    inverted = inverted_element_set(group, sub)
    level = cr.law.domain.n
    if not inverted:
        return TateRingResult(
            TateRingResult.NONZERO, quotient=cr.algebra, inverted=[],
            witness={}, level=level,
        )
    gens = [ec.value for ec in cr.euler_classes(inverted)]
    quotient, _, chain = localize_by_saturation(cr.algebra, gens)
    if quotient == ZERO_RING:
        limit = max_cert_len if max_cert_len is not None else cr.algebra.rank + 1
        psi = valuation_witness(cr.algebra, gens)
        lower = 1 if psi is None else -(-psi["M"] // psi["d"])
        search = (functools.partial(_group_ring_euler_classes, group, inverted, level)
                  if cr.law.kind == "multiplicative" else None)
        witness = {"saturation_chain": chain, **finite_certificate(
            gens, limit, orbit_representatives(group, inverted), lower, search)}
        if "certificate" in witness:
            cert = witness["certificate"]
            cert["elements"] = [inverted[i] for i in cert["word"]]
            if psi is not None and len(cert["word"]) == lower:
                cert["valuation_witness"] = psi
        return TateRingResult(
            TateRingResult.ZERO, inverted=inverted, witness=witness, level=level,
        )
    return TateRingResult(
        TateRingResult.NONZERO, quotient=quotient, inverted=inverted,
        witness={"saturation_chain": chain}, level=level,
    )


def finite_certificate(gens, limit: int, step=None, lower: int = 1,
                       search=None) -> dict:
    """Zero-product certificate of length <= limit over a finite ring.

    Among the generators at the ascending positions ``step`` (all of them by
    default), the least nilpotency index m, when it is at most limit, and
    the least position i of that index give the word [i]*m (see
    ``_power_word``; each index is read by ``FiniteAlgebra.nilpotency_index``
    from a ladder of Frobenius images over F_p, of squares elsewhere).  On
    a local tower every inverted Euler class is nilpotent, so this succeeds
    once limit reaches the least nilpotency index among the stepped
    classes.  ``lower`` is a proven lower bound on the length of every
    certificate: when it reaches m, the word is minimal and nothing is
    searched, and when it exceeds limit no word fits, no index is read
    and no search runs.
    Otherwise a breadth-first search of the lengths below m (all of
    1..limit when no power vanished) looks for a shorter word, examining at
    most ``CERT_SEARCH_BUDGET`` products.  ``search``, when given, returns
    the images of gens under a ring isomorphism, built only when the search
    runs; zero tests and equalities agree across it, so the search examines
    the same products and finds the same word.  A word the search finds is
    replayed in gens before it is returned.  Returns {"certificate":
    {"word", "minimal"}} when a word is known, plus "search_budget" when the
    budget ran out.  A search of all of 1..limit that finds nothing returns
    {"not_found_max_len": limit}, the limit that left the ZERO without a
    certificate.
    """
    if lower > limit:
        return {"not_found_max_len": limit}
    word = _power_word(gens, limit, range(len(gens)) if step is None else step)
    if word and lower > len(word):
        raise RuntimeError("lower bound exceeds a certificate")  # bound invariant
    if word and len(word) <= lower:
        return {"certificate": {"word": word, "minimal": True}}
    found = zero_product_certificate(
        gens if search is None else search(), len(word) - 1 if word else limit,
        budget=CERT_SEARCH_BUDGET)
    if isinstance(found, list):
        if not functools.reduce(operator.mul, (gens[i] for i in found)).is_zero():
            raise RuntimeError("certificate replay failed")  # isomorphism invariant
        return {"certificate": {"word": found, "minimal": True}}
    out = {} if found.budget is None else {"search_budget": found.budget}
    if word:
        out["certificate"] = {"word": word, "minimal": found.budget is None}
    elif found.budget is None:
        out["not_found_max_len"] = found.max_len
    return out


def _power_word(gens, limit: int, step):
    """[i]*m for the least m <= limit with gens[i]^m = 0 for some i in
    step, i the first such position; None if there is no such m.

    Each stepped index is ``FiniteAlgebra.nilpotency_index``, bounded by
    limit and then by one below the least index found so far, so that a
    class whose index cannot win stops its ladder early.
    """
    best, bound = None, limit
    for i in step:
        m = gens[i].parent.nilpotency_index(gens[i], bound)
        if m is not None:
            best, bound = i, m - 1
    return None if best is None else [best] * (bound + 1)


def valuation_witness(alg: FiniteAlgebra, gens) -> dict | None:
    """A map psi: R -> F_q[t]/(t^M) that bounds certificates from below.

    Only local towers over Z/p^K have one (None otherwise).  Mod p each
    relation G_k is x_k^(d_k).  With M = lcm(d_k), psi reduces mod p and
    sends x_k to z^k t^(M/d_k) (variables numbered from 0), where
    F_q = F_p[z]/(f) and f is the lex-first monic irreducible of degree
    r = #variables, so that 1, z, ..., z^(r-1) are independent and
    psi(G_k) = 0.  If every generator has t-valuation v(psi(g)) <= d, a
    product of fewer than ceil(M/d) generators maps to a unit times a power
    of t below M, which is not 0: no certificate is shorter than ceil(M/d).
    Valuations are read off the generators' coordinates mod p.  Returns
    {"M", "d", "field_modulus": f from z^0 up, "weights": the M/d_k}; all
    but d depend on alg alone and are computed once per algebra.
    """
    p = alg.local_tower_prime()
    if p is None:
        return None
    M, weights, f, terms = _valuation_data(alg, p)

    def valuation(g):
        for e, monomials in terms:
            acc = [0] * len(weights)
            for i, z_s in monomials:
                c = g.coords[i] % p
                if c:
                    acc = [a + c * z for a, z in zip(acc, z_s)]
            if any(a % p for a in acc):
                return e
        return M

    return {"M": M, "d": max(map(valuation, gens)), "field_modulus": list(f),
            "weights": list(weights)}


def _valuation_data(alg: FiniteAlgebra, p: int) -> tuple:
    """(M, weights, f, terms) of ``valuation_witness`` for the local tower
    alg over Z/p^K, kept on alg: terms lists, by ascending t-exponent e < M,
    the basis positions i whose monomial x^mu maps to z^s t^e with the row
    of z^s in F_q."""
    data = getattr(alg, "_valuation_data", None)
    if data is not None:
        return data
    degrees = [len(rel) - 1 for rel in alg.presentation["relations"]]
    M = lcm(*degrees)
    weights = [M // d_k for d_k in degrees]
    f = _first_irreducible(p, len(degrees))
    field = MonomialReducer([f], modulus=p)
    # basis monomial x^mu maps to z^s t^e, s = sum k mu_k and e = sum a_k mu_k
    by_degree = {}
    mul, positions = operator.mul, range(len(degrees))
    for i, mu in enumerate(alg.presentation["exponents"]):
        e = sum(map(mul, weights, mu))
        if e < M:
            s = sum(map(mul, positions, mu))
            by_degree.setdefault(e, []).append((i, field.power_row(0, s)))
    alg._valuation_data = (M, weights, f, sorted(by_degree.items()))
    return alg._valuation_data


def _first_irreducible(p: int, r: int) -> list:
    """(c_0, ..., c_(r-1), 1): the monic irreducible of degree r over F_p
    with (c_0, ..., c_(r-1)) first in lexicographic order, that is the first
    that no monic polynomial of degree 1..r/2 divides."""
    divisors = [MonomialReducer([list(low) + [1]], modulus=p)
                for deg in range(1, r // 2 + 1)
                for low in itertools.product(range(p), repeat=deg)]
    candidates = (list(low) + [1] for low in itertools.product(range(p), repeat=r))
    return next(f for f in candidates
                if all(g.reduce({(i,): c for i, c in enumerate(f)}) for g in divisors))


def multiplicative_exact_ring(p: int, exponents) -> ExactPolyRing:
    """Z[x_1..x_m]/((1+x_k)^(p^i_k) - 1) with monic expanded relations."""
    relations = []
    for i_k in exponents:
        q = p**i_k
        coeffs = [comb(q, t) for t in range(q + 1)]
        coeffs[0] = 0  # (1+x)^q - 1
        relations.append(coeffs)
    variables = [f"x{k + 1}" for k in range(len(exponents))]
    return ExactPolyRing(variables, relations)


def multiplicative_euler_class_exact(ring: ExactPolyRing, w):
    """prod (1+x_k)^(w_k) - 1: the multiplicative formal sum in closed form."""
    acc = ring.one()
    for k, w_k in enumerate(w):
        base = ring.one() + ring.gen(k)
        for _ in range(int(w_k)):
            acc = acc * base
    return acc - ring.one()


class _GroupRingGenerator(int):
    """t^w - 1 in (Z/N)[A], an int whose value is the element packed: the
    coefficient of t^v, reduced into [0, N), fills slot v, the slots of one
    fixed width laid out in group.elements() order.  Every value of the
    search is such a plain int, so equality and the hash are the int's, and
    a value is 0 exactly when it is false.  The generator also carries what
    multiplies by it: the slot ``width`` W, with N <= 2^(W-1), ``ones`` (a 1
    in every slot), and ``axes``, one (up, hi, down, lo) per k with
    w_k != 0.  For the slots v of hi (v_k >= w_k) slot v - w_k e_k lies
    ``up`` bits lower, and for those of lo (v_k < w_k) it lies ``down`` bits
    higher, so ``((y << up) & hi) | ((y >> down) & lo)`` moves every slot v
    of y to v + w_k e_k.
    """

    def __new__(cls, code: int, axes: tuple, modulus: int, width: int,
                ones: int):
        self = super().__new__(cls, code)
        self.axes, self.modulus, self.width, self.ones = axes, modulus, width, ones
        return self

    def multiplier(self):
        """y -> y * (t^w - 1), slot v becoming y_(v-w) - y_v mod N.

        The rotated y is t^w y.  Adding N in every slot before subtracting
        y leaves each slot in [1, 2N - 1], so no borrow crosses a slot.
        Adding 2^(W-1) - N then sets a slot's top bit exactly where it is
        >= N (the sum stays below 2^W since N <= 2^(W-1)), and N is taken
        from those slots: every slot is reduced mod N at once.
        """
        axes, n, shift = self.axes, self.modulus, self.width - 1
        offset, high = n * self.ones, self.ones << shift
        bias = high - offset

        def times(x):
            y = x
            for up, hi, down, lo in axes:
                y = ((y << up) & hi) | ((y >> down) & lo)
            d = y + offset - x
            return d - (((d + bias) & high) >> shift) * n

        return times


def _group_ring_euler_classes(group: AbelianPGroup, inverted, modulus: int):
    """t^w - 1 for each w in inverted, packed in (Z/modulus)[A] with slots
    of width bit_length(modulus - 1) + 1 (see ``_GroupRingGenerator``)."""
    orders = group.orders
    width = (modulus - 1).bit_length() + 1
    every = (1 << (width * group.order)) - 1
    ones = every // ((1 << width) - 1)
    strides = [prod(orders[k + 1:]) for k in range(len(orders))]
    gens = []
    for w in inverted:
        axes = []
        for w_k, o, s in zip(w, orders, strides):
            if w_k:
                block = width * s  # the bits of one step along axis k
                # lo: the slots with v_k < w_k, one run in every period of o blocks
                lo = ((1 << (block * w_k)) - 1) * (every // ((1 << (block * o)) - 1))
                axes.append((block * w_k, every ^ lo, block * (o - w_k), lo))
        # t^w - 1: 1 in slot w and -1 = N - 1 in slot 0 (w != 0, as 0 is in H)
        code = (1 << (width * sum(map(operator.mul, w, strides)))) + modulus - 1
        gens.append(_GroupRingGenerator(code, tuple(axes), modulus, width, ones))
    return gens


# Products the exact-mode search may examine.  The largest benchmark search,
# p=5 A=(Z/5)^2 up to length 8, examines 129,986.
EXACT_SEARCH_BUDGET = 2**18


def tate_ring_exact(p: int, exponents, sub_exponents,
                    max_cert_len: int = 8) -> TateRingResult:
    """Exact-integer Tate vanishing for the multiplicative law.

    The ring Z[x]/((1+x_k)^(p^i_k) - 1) is the group ring Z[A] with
    t_k = 1 + x_k, and the Euler class of w is t^w - 1.  Q[A] is a product
    of cyclotomic fields, one per orbit of characters chi of A, so a product
    of classes t^w - 1 is 0 exactly when every chi sends some factor's w to
    1.  The classes not inverted form H = im phi(A/C).

    When C is cyclic (exactly one j_k > 0), A/H is cyclic and the character
    chi(t^w) = zeta^(w_k), zeta of order p^(j_k), is 1 on H alone: no
    product of inverted classes is 0 at any length.  The result is
    INCONCLUSIVE with that character as its witness
    ({"order": p^(j_k), "weights": e_k}, meaning
    chi(t^w) = zeta^(sum weights_l * w_l)) and nothing is searched; the
    character does not pass to the completed ring, so it proves no NONZERO.

    For any other C every character is 1 on some inverted class, so the
    product of all inverted classes is 0, and the zero-product search runs
    up to ``max_cert_len``.  An exhausted search is INCONCLUSIVE, never
    NONZERO, and records ``search_budget`` when ``EXACT_SEARCH_BUDGET`` ran
    out.  The search runs in the group-element basis, each value a plain
    int packed as in ``_GroupRingGenerator``, mod N = 2^(L+2) with
    L = min(max_cert_len, len(inverted)); a value is 0 exactly when the int
    is.  A class has L1 norm 2, so a product of l classes has L1 norm at
    most 2^l, and every coefficient and every difference of two values of
    length at most L lies strictly inside (-N/2, N/2): zero tests and dedup
    equalities agree with Z's.  No value is longer than L.  The search stops
    at ``max_cert_len``, and the deduplicated breadth-first search meets a
    zero at the least size of a zero multiset, so it stops by len(inverted)
    too.  The change of basis is unimodular over Z, so the word found is
    the one the monomial basis gives; the certificate is replayed there.
    The same builder, given the modulus p^K, serves the finite search of
    ``tate_ring`` over the multiplicative law.
    """
    if max_cert_len < 1:
        raise ValueError("max_cert_len must be >= 1")
    group = AbelianPGroup(p, exponents)
    sub = SubgroupSpec(sub_exponents)
    inverted = inverted_element_set(group, sub)
    if not inverted:
        return TateRingResult(
            TateRingResult.NONZERO, quotient=None, inverted=[], mode="exact",
        )
    character = _cyclic_character(group, sub, inverted)
    if character is not None:
        return TateRingResult(
            TateRingResult.INCONCLUSIVE, inverted=inverted, mode="exact",
            witness={"character": character, "not_found_max_len": max_cert_len},
        )
    gens = _group_ring_euler_classes(
        group, inverted, 2 ** (min(max_cert_len, len(inverted)) + 2))
    cert = zero_product_certificate(gens, max_cert_len, budget=EXACT_SEARCH_BUDGET)
    if isinstance(cert, CertificateNotFound):
        witness = {"not_found_max_len": cert.max_len}
        if cert.budget is not None:
            witness["search_budget"] = cert.budget
        return TateRingResult(
            TateRingResult.INCONCLUSIVE, inverted=inverted, witness=witness,
            mode="exact",
        )
    ring = multiplicative_exact_ring(p, exponents)
    product = ring.one()
    for idx in cert:
        product = product * multiplicative_euler_class_exact(ring, inverted[idx])
    if not product.is_zero():
        raise RuntimeError("certificate replay failed")  # search invariant
    return TateRingResult(
        TateRingResult.ZERO, inverted=inverted,
        witness={"certificate": {"word": cert,
                                 "elements": [inverted[i] for i in cert]}},
        mode="exact",
    )


def _cyclic_character(group: AbelianPGroup, sub: SubgroupSpec, inverted):
    """A character of A that is 1 on no inverted class, or None.

    None unless C is cyclic (j_k its only positive exponent); then
    chi(t^w) = zeta^(w_k) for zeta of order p^(j_k).  Returns
    {"order": p^(j_k), "weights": e_k} after checking that every inverted w
    has w_k != 0 mod p^(j_k).
    """
    moving = [k for k, j in enumerate(sub.exponents) if j > 0]
    if len(moving) != 1:
        return None
    k = moving[0]
    order = group.p ** sub.exponents[k]
    if any(w[k] % order == 0 for w in inverted):
        raise RuntimeError("character is 1 on an inverted class")  # H invariant
    return {"order": order,
            "weights": [int(l == k) for l in range(len(group.exponents))]}


# -- blue-shift bounds -----------------------------------------------------------


class BlueShiftReport:
    """Bounds t <= s <= rank_p(C), the witnessing j, and exactness when known."""

    def __init__(self, p, a_exponents, c_exponents, lower_t, upper_rank,
                 argmax_j, exact=None, exact_reason=None, scan=None):
        if not 0 <= lower_t <= upper_rank:
            raise ValueError("bounds out of order")
        self.p = p
        self.a_exponents = tuple(a_exponents)
        self.c_exponents = tuple(c_exponents)
        self.lower_t = lower_t
        self.upper_rank = upper_rank
        self.argmax_j = argmax_j
        self.exact = exact
        self.exact_reason = exact_reason
        self.scan = scan or []

    def to_dict(self, explain=False):
        out = {
            "p": self.p,
            "A": list(self.a_exponents),
            "C": list(self.c_exponents),
            "lower_t": self.lower_t,
            "upper_rank": self.upper_rank,
            "argmax_j": self.argmax_j,
        }
        if self.exact is not None:
            out["exact"] = self.exact
            out["exact_reason"] = self.exact_reason
        else:
            out["interval"] = [self.lower_t, self.upper_rank]
        if explain:
            out["j_scan"] = [
                {"j": j, "log_V_A": va, "log_V_image": vi, "term": term}
                for j, va, vi, term in self.scan
            ]
        return out


def blueshift_bounds(p: int, a_exponents, c_exponents) -> BlueShiftReport:
    """Closed-form lower bound t and upper bound rank_p(C).

    Exact value cases: C a direct summand (every j_k in {0, i_k}) gives
    s = rank_p(C); cyclic A with nontrivial C gives s = 1; and t = rank_p(C)
    pins s by squeezing.  The quotient-of-torsion-counts form avoids
    enumerating coset representative sets.
    """
    group = AbelianPGroup(p, a_exponents)
    sub = SubgroupSpec(c_exponents)
    sub.validate_in(group)
    i_exps = group.exponents
    j_exps = sub.exponents
    t = 0
    argmax = 0
    scan = []
    for j in range(1, sum(i_exps) + 1):
        log_va = sum(min(j, i) for i in i_exps)
        log_vi = sum(min(j, i - k) for i, k in zip(i_exps, j_exps))
        term = -((log_vi - log_va) // j)  # ceil((log_va - log_vi)/j)
        scan.append((j, log_va, log_vi, term))
        if term > t:
            t = term
            argmax = j
    upper = sub.rank_p
    exact = reason = None
    if all(j in (0, i) for j, i in zip(j_exps, i_exps)):
        exact, reason = upper, "direct-summand"
    elif len(i_exps) == 1 and j_exps[0] >= 1:
        exact, reason = 1, "cyclic"
    elif t == upper:
        exact, reason = t, "bounds-coincide"
    if exact is not None and not (t <= exact <= upper):
        raise InvalidSubgroup("closed-form value escapes the bounds")
    return BlueShiftReport(p, i_exps, j_exps, t, upper, argmax, exact, reason,
                           scan)


def nonabelian_lower_bound(p: int, abelianization_exponents,
                           image_exponents) -> dict:
    """Group-theoretic lower bound for G nonabelian, from abelianization data.

    Evaluates the same t-formula on (G/G', image of N in G/G').  The bound is
    conditional on the existence of a degree-p unstable Adams operation on BG,
    which is open in general; the output says so.
    """
    group = AbelianPGroup(p, abelianization_exponents)
    sub = SubgroupSpec(image_exponents)
    sub.validate_in(group)
    report = blueshift_bounds(p, abelianization_exponents, image_exponents)
    return {
        "p": p,
        "abelianization": list(group.exponents),
        "image_exponents": list(sub.exponents),
        "lower_t": report.lower_t,
        "argmax_j": report.argmax_j,
        "conditional": True,
        "assumption": (
            "existence of a degree-p unstable Adams operation on the "
            "classifying space"
        ),
    }


GRADING_NOTE = (
    "periodicity generator specialized to 1; the even grading of Euler "
    "classes is dropped"
)


def build_law(kind: str, p: int, n: int = 1, modulus_power: int = 1,
              cap: int | None = None, exponents=None) -> FormalGroupLaw:
    """Construct a law with a cap sufficient for the target group if given."""
    if kind == "multiplicative":
        height, K = 1, modulus_power
    elif kind == "honda":
        height, K = n, 1
    else:
        raise ValueError(f"unknown law kind {kind!r}")
    if cap is None:
        if exponents:
            cap = required_cap(p, height, K, exponents)
        else:
            cap = p**height + p
    if kind == "multiplicative":
        return build_multiplicative(p, K, cap)
    return build_honda(p, height, cap)
