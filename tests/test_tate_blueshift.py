"""Tate vanishing outcomes and blue-shift bound arithmetic.

The lockstep over every inverted class (``oracles.lockstep_word``) and the
unbudgeted breadth-first search, which finite certificates no longer run,
serve as oracles for the orbit representatives and the valuation bound.
"""

import functools
import itertools
import math
import operator

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from tateshift import tate_blueshift
from tateshift.classifying import (
    AbelianPGroup,
    InvalidSubgroup,
    SubgroupSpec,
    build_classifying_ring,
    orbit_representatives,
)
from tateshift.cli import run_job
from tateshift.ring_core import (
    ZERO_RING,
    BaseModulus,
    CertificateNotFound,
    FiniteAlgebra,
    localize_by_saturation,
    multiset_products,
    zero_product_certificate,
)
from tateshift.tate_blueshift import (
    BlueShiftReport,
    TateRingResult,
    blueshift_bounds,
    build_law,
    finite_certificate,
    inverted_element_set,
    multiplicative_euler_class_exact,
    multiplicative_exact_ring,
    nonabelian_lower_bound,
    tate_ring,
    tate_ring_exact,
    valuation_witness,
)

from oracles import (
    SMALL_GROUPS,
    V_count,
    V_count_image,
    frobenius_digit_index,
    group_ring_coeffs,
    group_ring_tuple_classes,
    lockstep_word,
    small_ring,
    square_then_scan_index,
)


# -- blue-shift bounds ------------------------------------------------------------


def test_bounds_cube_example():
    # A = (Z/p^2)^3, C = (Z/p)^3: t = 2 attained at j = 2, rank = 3
    for p in (2, 3):
        rep = blueshift_bounds(p, [2, 2, 2], [1, 1, 1])
        assert rep.lower_t == 2
        assert rep.argmax_j == 2
        assert rep.upper_rank == 3
        assert rep.exact is None
        assert rep.to_dict()["interval"] == [2, 3]


def test_bounds_cyclic_case():
    for j, k in ((1, 1), (3, 1), (3, 2), (5, 5)):
        rep = blueshift_bounds(2, [j], [k])
        assert rep.exact == 1
        assert rep.lower_t == 1


def test_bounds_direct_summand_example():
    rep = blueshift_bounds(2, [2, 1], [2, 0])
    assert rep.exact == 1
    assert rep.exact_reason in ("direct-summand", "cyclic")
    assert rep.lower_t == 1
    assert rep.upper_rank == 1


def test_bounds_trivial_subgroup():
    rep = blueshift_bounds(2, [3, 1], [0, 0])
    assert rep.lower_t == 0 and rep.upper_rank == 0
    assert rep.exact == 0 and rep.exact_reason == "direct-summand"


def test_bounds_invalid_subgroup():
    with pytest.raises(InvalidSubgroup):
        blueshift_bounds(2, [1, 1], [2, 0])
    with pytest.raises(InvalidSubgroup):
        blueshift_bounds(2, [1, 1], [1])


def compositions(total):
    """All ordered exponent tuples with the given sum."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def test_bounds_ordered_and_summand_exact_exhaustive():
    # for every (A, C) with sum i_k <= 8: t <= rank; direct summands exact
    for total in range(1, 9):
        for a_exps in compositions(total):
            for c_exps in itertools.product(*[range(i + 1) for i in a_exps]):
                rep = blueshift_bounds(2, a_exps, c_exps)
                assert rep.lower_t <= rep.upper_rank
                if all(j in (0, i) for j, i in zip(c_exps, a_exps)):
                    assert rep.exact == rep.upper_rank


def test_v_count_quotient_formula_matches_brute_force():
    # |V(p^j | A)| / |V(p^j | im phi)| equals the count over a best coset
    # choice; check the two factor counts against direct enumeration
    a = AbelianPGroup(2, [2, 2])
    c = SubgroupSpec([1, 2])
    from tateshift.classifying import quotient_image_elements

    image = set(quotient_image_elements(a, c))
    for j in range(4):
        brute_va = sum(
            1 for w in a.elements()
            if all((2**j * x) % o == 0 for x, o in zip(w, a.orders))
        )
        brute_vi = sum(
            1 for w in image
            if all((2**j * x) % o == 0 for x, o in zip(w, a.orders))
        )
        assert brute_va == V_count(a, j)
        assert brute_vi == V_count_image(a, c, j)


# -- nonabelian lower bound ----------------------------------------------------------


def test_nonabelian_reduces_to_abelian():
    rep = blueshift_bounds(2, [2, 2, 2], [1, 1, 1])
    out = nonabelian_lower_bound(2, [2, 2, 2], [1, 1, 1])
    assert out["lower_t"] == rep.lower_t
    assert out["conditional"] is True


def test_nonabelian_trivial_image():
    # N inside the commutator subgroup: the image is trivial and t = 0
    out = nonabelian_lower_bound(2, [2, 1], [0, 0])
    assert out["lower_t"] == 0


def test_nonabelian_quaternion_like():
    out = nonabelian_lower_bound(2, [1, 1], [1, 0])
    assert out["lower_t"] == 1


# -- finite-base Tate rings ------------------------------------------------------------


def test_tate_trivial_subgroup_unchanged():
    law = build_law("honda", 2, n=1, exponents=[1])
    group = AbelianPGroup(2, [1])
    result = tate_ring(build_classifying_ring(law, group), SubgroupSpec([0]))
    assert result.status == TateRingResult.NONZERO
    assert result.inverted == []
    assert result.quotient.rank == 2


def test_tate_morava_mode_zero_with_certificate():
    # A = C = Z/p over the height-n law: F_p[x]/(x^(p^n)) with x inverted
    for p, n in ((2, 1), (2, 2), (3, 1)):
        law = build_law("honda", p, n=n, exponents=[1])
        result = tate_ring(build_classifying_ring(law, AbelianPGroup(p, [1])),
                           SubgroupSpec([1]))
        assert result.status == TateRingResult.ZERO
        cert = result.witness["certificate"]
        assert len(cert["word"]) == p**n
        assert result.witness["saturation_chain"]


def test_tate_multiplicative_z4_zero():
    # and cyclic A over Z/p^K with K >= 2, where the cap has to cover the
    # [a]-series of a single class, not only Weierstrass preparation
    for p, K, A in ((2, 2, [1]), (2, 3, [2]), (3, 2, [2]), (2, 2, [3])):
        law = build_law("multiplicative", p, modulus_power=K, exponents=A)
        result = tate_ring(build_classifying_ring(law, AbelianPGroup(p, A)),
                           SubgroupSpec([1]))
        assert result.status == TateRingResult.ZERO


def test_tate_zero_without_certificate_records_the_limit():
    # the minimal words, x^15 and x^12, are longer than the default limit
    # rank + 1, so the search up to the limit finds none
    for p, K, A, limit in ((3, 2, [2], 10), (2, 2, [3], 9)):
        law = build_law("multiplicative", p, modulus_power=K, exponents=A)
        result = tate_ring(build_classifying_ring(law, AbelianPGroup(p, A)),
                           SubgroupSpec([1]))
        assert result.status == TateRingResult.ZERO
        assert result.to_dict()["witness"] == {
            "not_found_max_len": limit, "saturation_chain_length": 3}


def test_tate_intermediate_subgroup():
    # A = Z/4, C = Z/2: inverted classes are the odd weights
    law = build_law("honda", 2, n=1, exponents=[2])
    result = tate_ring(build_classifying_ring(law, AbelianPGroup(2, [2])),
                       SubgroupSpec([1]))
    assert sorted(result.inverted) == [(1,), (3,)]
    assert result.status == TateRingResult.ZERO  # x is nilpotent at this level


@pytest.mark.parametrize("kind,p,n,K,A", [
    ("honda", 2, 1, 1, (2, 1)),
    ("honda", 3, 1, 1, (1, 1)),
    ("multiplicative", 2, 1, 2, (1, 1)),
    ("multiplicative", 2, 1, 2, (2, 1)),
    ("multiplicative", 2, 1, 3, (2, 1)),
])
def test_finite_certificates_replay_and_are_shortest(kind, p, n, K, A):
    # every nontrivial C: the certificate replays to 0 in a fresh ring, and a
    # minimal one is as short as the unbudgeted breadth-first search finds;
    # over Z/8 with A=(Z/4)+(Z/2) the search finds C=(2,1)'s word of length 3
    # in the group basis, and for every other C it exhausts the lengths below
    # the nilpotent power
    law = build_law(kind, p, n=n, modulus_power=K, exponents=list(A))
    group = AbelianPGroup(p, A)
    cr = build_classifying_ring(law, group)  # one ring for every C, as in a batch
    fresh = build_classifying_ring(
        build_law(kind, p, n=n, modulus_power=K, exponents=list(A)), group)
    for C in itertools.product(*(range(i + 1) for i in A)):
        if not any(C):
            continue
        result = tate_ring(cr, SubgroupSpec(C))
        assert result.status == TateRingResult.ZERO
        cert = result.witness["certificate"]
        gens = [fresh.euler_class(w).value for w in result.inverted]
        product = fresh.algebra.one()
        for idx in cert["word"]:
            product = product * gens[idx]
        assert product.is_zero()
        assert cert["minimal"] is True
        shortest = zero_product_certificate(gens, fresh.algebra.rank + 1)
        assert len(cert["word"]) == len(shortest)
        assert "search_budget" not in result.to_dict()["witness"]


@pytest.mark.parametrize("budget", [1, 2, 3, 11, 12])
def test_finite_tiny_budget_keeps_the_nilpotent_power(monkeypatch, budget):
    # multiplicative Z/4[x]/(x^4 + 2x^2), A = Z/4, C = Z/2: x^6 is the
    # certificate and the valuation bound is only 4, so the search below 6
    # runs; it examines 12 products, and a budget of 12 proves x^6 minimal
    monkeypatch.setattr(tate_blueshift, "CERT_SEARCH_BUDGET", budget)
    law = build_law("multiplicative", 2, modulus_power=2, exponents=[2])
    result = tate_ring(build_classifying_ring(law, AbelianPGroup(2, [2])),
                       SubgroupSpec([1]), max_cert_len=6)
    assert result.status == TateRingResult.ZERO
    witness = result.to_dict()["witness"]
    assert witness["certificate"]["generator_indices"] == [0] * 6
    assert witness["certificate"]["minimal"] is (budget == 12)
    assert witness.get("search_budget") == (None if budget == 12 else budget)
    assert "valuation_witness" not in witness["certificate"]


@pytest.mark.parametrize("params, length", [
    ({"p": 2, "A": [2, 2, 2], "C": [1, 1, 1]}, 4),
    ({"p": 2, "A": [2, 2], "C": [1, 1], "fgl": "honda", "n": 2}, 16),
])
def test_finite_frontier_certificates_pinned(params, length):
    # the README headline and Honda n=2 A=(Z/4)^2: the nilpotent power of
    # the first class, proved minimal by the valuation bound with no search
    code, report = run_job("tate", params)
    assert code == 0
    witness = report["witness"]
    assert witness["certificate"]["generator_indices"] == [0] * length
    assert witness["certificate"]["minimal"] is True
    assert "search_budget" not in witness
    assert witness["certificate"]["valuation_witness"]["M"] == length


def test_finite_search_budget_pinned():
    # multiplicative Z/4, A=(Z/8)^2, C=(Z/2)^2: the search below the
    # nilpotent power x^12 runs out of its budget in the group basis
    code, report = run_job("tate", {"p": 2, "A": [3, 3], "C": [1, 1],
                                    "fgl": "multiplicative", "modulus_power": 2})
    assert code == 0
    witness = report["witness"]
    assert witness["certificate"]["length"] == 12
    assert witness["certificate"]["minimal"] is False
    assert witness["search_budget"] == 8192


def test_finite_non_local_exhausted_budget_is_zero_without_certificate(monkeypatch):
    # over Z/6 neither 2 nor 3 is nilpotent, but 2 * 3 = 0
    alg = FiniteAlgebra.from_presentation(BaseModulus(6), ["x"], [[0, 5, 1]])
    gens = [alg.from_int(2), alg.from_int(3)]
    quotient, _, chain = localize_by_saturation(alg, gens)
    assert quotient == ZERO_RING
    assert finite_certificate(gens, alg.rank + 1) == {
        "certificate": {"word": [0, 1], "minimal": True}}
    monkeypatch.setattr(tate_blueshift, "CERT_SEARCH_BUDGET", 1)
    found = finite_certificate(gens, alg.rank + 1)
    assert found == {"search_budget": 1}
    result = TateRingResult(TateRingResult.ZERO, inverted=[(2,), (3,)],
                            witness={"saturation_chain": chain, **found})
    assert result.to_dict()["witness"] == {
        "saturation_chain_length": len(chain), "search_budget": 1}


# -- orbit representatives and the valuation bound ----------------------------------

# (law, p, height n, modulus power K, A), every ring of rank at most 16
SMALL_TOWERS = [
    ("honda", 2, 1, 1, (1,)), ("honda", 2, 1, 1, (3,)), ("honda", 2, 1, 1, (2, 1)),
    ("honda", 2, 1, 1, (1, 1, 1)), ("honda", 2, 1, 1, (2, 2)),
    ("honda", 2, 1, 1, (3, 1)), ("honda", 3, 1, 1, (2,)), ("honda", 3, 1, 1, (1, 1)),
    ("honda", 2, 2, 1, (1, 1)), ("multiplicative", 5, 1, 1, (1,)),
    ("multiplicative", 3, 1, 1, (1, 1)), ("multiplicative", 2, 1, 2, (2,)),
    ("multiplicative", 2, 1, 2, (2, 1)), ("multiplicative", 2, 1, 2, (1, 1, 1)),
    ("multiplicative", 2, 1, 3, (1,)), ("multiplicative", 3, 1, 2, (1,)),
]


@functools.cache
def small_tower(kind, p, n, K, A):
    law = build_law(kind, p, n=n, modulus_power=K, exponents=list(A))
    return law, build_classifying_ring(law, AbelianPGroup(p, A))


@st.composite
def small_tate_cases(draw):
    tower = draw(st.sampled_from(SMALL_TOWERS))
    C = draw(st.tuples(*(st.integers(0, i) for i in tower[-1])).filter(any))
    return tower, C


def tower_case(tower, C):
    law, cr = small_tower(*tower)
    inverted = inverted_element_set(cr.group, SubgroupSpec(C))
    gens = [cr.euler_class(w).value for w in inverted]
    # the classes lie in the maximal ideal m, m^rank lies in pR, so x^(K rank) = 0
    return law, cr, gens, tower[3] * cr.algebra.rank


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_tate_cases())
def test_orbit_representative_word_is_the_all_class_lockstep_word(case):
    # on these towers no certificate is shorter than the nilpotent power,
    # so the search, where it runs, keeps the lockstep's word
    tower, C = case
    law, cr, gens, limit = tower_case(tower, C)
    result = tate_ring(build_classifying_ring(law, cr.group),
                       SubgroupSpec(C), max_cert_len=limit)
    assert result.witness["certificate"]["word"] == lockstep_word(gens, limit)
    assert result.witness["certificate"]["minimal"] is True


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_tate_cases())
def test_valuation_bound_against_unbudgeted_search(case):
    tower, C = case
    law, cr, gens, limit = tower_case(tower, C)
    witness = valuation_witness(cr.algebra, gens)
    bound = -(-witness["M"] // witness["d"])
    shortest = zero_product_certificate(gens, len(lockstep_word(gens, limit)))
    assert bound <= len(shortest)
    if law.domain.n == law.p:  # K = 1: the bound is sharp
        assert bound == len(shortest)


def psi_from_witness(witness, p, r):
    """The map psi of a reported witness, rebuilt from its fields alone.

    An element of F_q[t]/(t^M) is a list of M coefficients, each a tuple on
    1, z, ..., z^(r-1) in F_q = F_p[z]/(f).  Returns (add, multiply, the
    constant c, the images z^k t^(a_k) of the variables x_k).
    """
    f, M = witness["field_modulus"], witness["M"]
    zero = (0,) * r

    def fq_mul(a, b):
        prod = [0] * (2 * r - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for top in range(2 * r - 2, r - 1, -1):  # z^r = -(f_0 + ... + f_(r-1) z^(r-1))
            for i in range(r):
                prod[top - r + i] -= prod[top] * f[i]
        return tuple(c % p for c in prod[:r])

    def add(a, b):
        return [tuple((u + v) % p for u, v in zip(x, y)) for x, y in zip(a, b)]

    def mul(a, b):
        out = [zero] * M
        for i, x in enumerate(a):
            for j, y in enumerate(b[:M - i]):
                if any(x) and any(y):
                    out[i + j] = add([out[i + j]], [fq_mul(x, y)])[0]
        return out

    def const(c):
        return [(c % p,) + zero[1:]] + [zero] * (M - 1)

    xs = [[zero] * a_k + [tuple(int(i == k) for i in range(r))] + [zero] * (M - a_k - 1)
          for k, a_k in enumerate(witness["weights"])]
    return add, mul, const, xs


@pytest.mark.parametrize("params", [
    {"p": 2, "A": [2, 2, 2], "C": [1, 1, 1]},
    {"p": 2, "A": [2, 2], "C": [1, 1], "fgl": "honda", "n": 2},
    {"p": 2, "A": [2, 1], "C": [0, 1], "fgl": "honda", "n": 2},
    {"p": 3, "A": [1, 1], "C": [1, 0], "fgl": "multiplicative"},
])
def test_valuation_witness_replays_in_a_fresh_ring(params):
    code, report = run_job("tate", params)
    assert code == 0
    cert = report["witness"]["certificate"]
    witness = cert["valuation_witness"]
    p, r, M, d = params["p"], len(params["A"]), witness["M"], witness["d"]
    f = witness["field_modulus"]
    assert len(f) == r + 1 and f[-1] == 1
    assert sympy.Poly(list(reversed(f)), sympy.Symbol("z"), modulus=p).is_irreducible
    law = build_law(params.get("fgl", "honda"), p, n=params.get("n", 1),
                    exponents=params["A"])
    cr = build_classifying_ring(law, AbelianPGroup(p, params["A"]))
    add, mul, const, xs = psi_from_witness(witness, p, r)
    # psi(G_k) = 0 mod t^M, by Horner's rule on every coefficient mod p
    for relation, x_k in zip(cr.algebra.presentation["relations"], xs):
        value = const(0)
        for c in reversed(relation):
            value = add(mul(value, x_k), const(c))
        assert value == const(0)
    # psi of each basis monomial, from the powers of the x_k
    powers = [[const(1)] for _ in xs]
    images = []
    for mu in cr.algebra.presentation["exponents"]:
        image = const(1)
        for k, e in enumerate(mu):
            while len(powers[k]) <= e:
                powers[k].append(mul(powers[k][-1], xs[k]))
            image = mul(image, powers[k][e])
        images.append(image)

    def valuation(e):
        value = const(0)
        for c, image in zip(e.coords, images):
            value = add(value, mul(const(c), image))
        return next((i for i, a in enumerate(value) if any(a)), M)

    valuations = [valuation(cr.euler_class(tuple(w)).value)
                  for w in report["inverted_classes"]]
    assert max(valuations) == d
    assert cert["length"] == -(-M // d)


def test_finite_certificate_rejects_a_bound_above_its_word():
    # F_2[x]/(x^4): x^4 = 0, so no valid bound exceeds 4
    alg = FiniteAlgebra.from_presentation(BaseModulus(2), ["x"], [[0, 0, 0, 0, 1]])
    gens = [alg.gen(0)]
    assert finite_certificate(gens, 5, lower=4) == {
        "certificate": {"word": [0] * 4, "minimal": True}}
    with pytest.raises(RuntimeError):
        finite_certificate(gens, 5, lower=5)


def test_limit_below_the_valuation_bound_searches_nothing():
    # Honda n=2 over (Z/4)^2 with C the 2-torsion: the valuation bound is 16,
    # so a limit of 15 leaves no certificate to find, and 16 finds the word
    job = {"p": 2, "A": [2, 2], "C": [1, 1], "fgl": "honda", "n": 2}
    code, report = run_job("tate", {**job, "max_cert_len": 15})
    assert code == 0 and report["status"] == "ZERO"
    assert report["witness"] == {"not_found_max_len": 15,
                                 "saturation_chain_length": 2}
    code, report = run_job("tate", {**job, "max_cert_len": 16})
    assert code == 0 and report["status"] == "ZERO"
    cert = report["witness"]["certificate"]
    assert (cert["length"], cert["minimal"]) == (16, True)
    assert cert["valuation_witness"]["M"] == 16
    assert "search_budget" not in report["witness"]


def test_inverted_set_sizes():
    group = AbelianPGroup(2, [2, 1])
    assert len(inverted_element_set(group, SubgroupSpec([0, 0]))) == 0
    assert len(inverted_element_set(group, SubgroupSpec([2, 1]))) == 7
    # |A| - |A|/|C| in general
    assert len(inverted_element_set(group, SubgroupSpec([1, 0]))) == 8 - 4


# -- exact-integer Tate rings ------------------------------------------------------------


def test_exact_ku_p2_certificate_of_three():
    result = tate_ring_exact(2, [1, 1], [1, 1], max_cert_len=5)
    assert result.status == TateRingResult.ZERO
    cert = result.witness["certificate"]
    assert len(cert["word"]) == 3
    assert sorted(cert["elements"]) == [(0, 1), (1, 0), (1, 1)]


def test_exact_ku_p3_certificate_within_eight():
    result = tate_ring_exact(3, [1, 1], [1, 1], max_cert_len=8)
    assert result.status == TateRingResult.ZERO
    assert len(result.witness["certificate"]["word"]) <= 8


def test_exact_replay_is_zero():
    result = tate_ring_exact(2, [1, 1], [1, 1], max_cert_len=5)
    ring = multiplicative_exact_ring(2, [1, 1])
    prod = ring.one()
    for w in result.witness["certificate"]["elements"]:
        prod = prod * multiplicative_euler_class_exact(ring, w)
    assert prod.is_zero()


def test_exact_inconclusive_when_budget_too_small():
    result = tate_ring_exact(2, [1, 1], [1, 1], max_cert_len=2)
    assert result.status == TateRingResult.INCONCLUSIVE
    assert result.witness["not_found_max_len"] == 2


def test_exact_p5_pinned_word():
    result = tate_ring_exact(5, [1, 1], [1, 1], max_cert_len=8)
    assert result.status == TateRingResult.ZERO
    assert result.witness["certificate"]["word"] == [0, 4, 5, 6, 7, 8]


def test_exact_search_budget_recorded(monkeypatch):
    # the p=2 (Z/2)^2 certificate has length 3: three products are the
    # generators alone, so the search stops before any longer word
    monkeypatch.setattr(tate_blueshift, "EXACT_SEARCH_BUDGET", 3)
    result = tate_ring_exact(2, [1, 1], [1, 1], max_cert_len=5)
    assert result.status == TateRingResult.INCONCLUSIVE
    assert result.to_dict()["witness"] == {
        "not_found_max_len": 5, "search_budget": 3}


# Strata (p, whether C must be non-cyclic), drawn before the group: 15 of
# the 18 groups are 2-groups and the one non-cyclic C at p = 3 is C = A =
# (Z/3)^2, so a draw of the group alone almost never reaches p = 3.
SUBGROUP_STRATA = [(p, noncyclic) for p in (2, 3) for noncyclic in (False, True)]


@st.composite
def subgroups(draw):
    p, noncyclic = draw(st.sampled_from(SUBGROUP_STRATA))
    A = draw(st.sampled_from(
        [A for q, A in SMALL_GROUPS if q == p and (len(A) > 1 or not noncyclic)]))
    C = st.tuples(*(st.integers(0, i) for i in A))
    if noncyclic:
        C = C.filter(lambda C: sum(j > 0 for j in C) > 1)
    return p, A, draw(C)


@st.composite
def exact_searches(draw):
    # the modulus power K of the multiplicative law, None over Z
    return (*draw(subgroups()), draw(st.integers(1, 4)),
            draw(st.sampled_from([None, 2, 3])))


# Laws over F_p (Honda heights 1 and 2, the multiplicative law with K = 1),
# where the index ladder takes Frobenius images, and the multiplicative law
# over Z/p^K with K = 2, 3, where it takes squares
LADDER_LAWS = (("honda", 1), ("honda", 2), ("multiplicative", 1),
               ("multiplicative", 2), ("multiplicative", 3))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.sampled_from(LADDER_LAWS), subgroups())
def test_nilpotency_indices_and_words_match_oracles(law, case):
    # the ladder-read index of every inverted class is the square-then-scan
    # index (and, over F_p, the Frobenius-digit index); a bound at the index
    # keeps it and one below drops it; the word matches lockstep stepping,
    # also when the limit falls below the least index
    (kind, h), (p, A, C) = law, case
    assume(any(C))
    cr = small_ring(kind, p, h, A)
    alg = cr.algebra
    inverted = inverted_element_set(cr.group, SubgroupSpec(C))
    gens = [ec.value for ec in cr.euler_classes(inverted)]
    indices = [alg.nilpotency_index(g) for g in gens]
    assert indices == [square_then_scan_index(alg, g) for g in gens]
    if alg.frobenius() is not None:
        assert indices == [frobenius_digit_index(alg, g) for g in gens]
    for g, m in zip(gens, indices):
        assert (alg.nilpotency_index(g, m), alg.nilpotency_index(g, m - 1)) == (m, None)
    step = orbit_representatives(cr.group, inverted)
    least = min(indices[i] for i in step)
    for limit in (least - 1, least, alg.rank + 1):
        word = tate_blueshift._power_word(gens, limit, step)
        assert word == lockstep_word(gens, limit, step)
        assert word == (None if limit < least else
                        [next(i for i in step if indices[i] == least)] * least)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(exact_searches())
def test_group_basis_search_matches_exact_poly_search(case):
    # the group-basis search, over Z or mod p^K, yields the words of the
    # search in the ring's basis (ExactPolyRing over Z, the classifying ring
    # of the multiplicative law mod p^K), and each value maps under
    # t^v -> prod (1 + x_k)^(v_k) to the oracle's
    p, A, C, max_len, K = case
    group = AbelianPGroup(p, A)
    inverted = inverted_element_set(group, SubgroupSpec(C))
    if K is None:
        modulus = None
        ring = multiplicative_exact_ring(p, A)
        oracle = [multiplicative_euler_class_exact(ring, w) for w in inverted]
        t_powers = [multiplicative_euler_class_exact(ring, v) + ring.one()
                    for v in group.elements()]

        def coords(e):
            return [e.terms.get(m, 0) for m in ring.monomials]
    else:
        modulus = p**K
        cr = build_classifying_ring(
            build_law("multiplicative", p, modulus_power=K, exponents=list(A)), group)
        oracle = [ec.value for ec in cr.euler_classes(inverted)]
        alg = cr.algebra
        t = [alg.one() + alg.gen(k) for k in range(len(A))]
        t_powers = [math.prod(map(pow, t, v), start=alg.one())
                    for v in group.elements()]

        def coords(e):
            return list(e.coords)
    # row m: the m-th ring coordinates of t^v, v in group.elements() order
    to_ring = list(zip(*map(coords, t_powers)))
    # over Z the search runs mod 2^(max_len + 2), as exact mode's does
    gens = tate_blueshift._group_ring_euler_classes(
        group, inverted, 2 ** (max_len + 2) if modulus is None else modulus)
    # the first 600 yields of each search keep every example under 40 ms
    fast = list(itertools.islice(multiset_products(gens, max_len), 600))
    slow = list(itertools.islice(multiset_products(oracle, max_len), 600))
    assert [word for _, word in fast] == [word for _, word in slow]
    for (value, _), (expected, _) in zip(fast, slow):
        lifted = group_ring_coeffs(value, gens[0], group.order, modulus is None)
        image = [sum(map(operator.mul, row, lifted)) for row in to_ring]
        if modulus is not None:
            image = [c % modulus for c in image]
        assert image == coords(expected)
        assert value.is_zero() == expected.is_zero()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(subgroups())
def test_exact_mode_character_replays_and_other_c_vanish(case):
    # a cyclic C carries a character, replayed in F_l for the least prime
    # l = 1 mod its order: relations go to 0 and inverted classes do not;
    # for any other nontrivial C the product of all inverted classes is 0
    p, A, C = case
    result = tate_ring_exact(p, A, C, max_cert_len=4)
    ring = multiplicative_exact_ring(p, A)
    classes = [multiplicative_euler_class_exact(ring, w) for w in result.inverted]
    if not classes:
        assert result.status == TateRingResult.NONZERO
        return
    if sum(j > 0 for j in C) > 1:
        assert "character" not in result.witness
        assert functools.reduce(operator.mul, classes).is_zero()
        return
    character = result.to_dict()["witness"]["character"]
    assert result.status == TateRingResult.INCONCLUSIVE
    order = character["order"]
    ell = next(q for q in itertools.count(order + 1, order) if sympy.isprime(q))
    g = pow(sympy.primitive_root(ell), (ell - 1) // order, ell)
    point = [pow(g, a, ell) - 1 for a in character["weights"]]
    for rel, x in zip(ring.relations, point):
        assert sum(c * x**t for t, c in enumerate(rel)) % ell == 0
    for e in classes:
        assert sum(c * math.prod(x**k for x, k in zip(point, mono))
                   for mono, c in e.terms.items()) % ell
    # oracle: the unbudgeted search finds no word up to length 4, searched
    # mod 2^(4 + 2) as exact mode would
    group = AbelianPGroup(p, A)
    found = zero_product_certificate(
        tate_blueshift._group_ring_euler_classes(group, result.inverted, 2**6), 4)
    assert isinstance(found, CertificateNotFound) and found.budget is None


# Cases beyond the draws of ``exact_searches``: an odd p with three axes,
# p = 5, and Z/2 factors, whose order-2 classes have long powers at the 2^l
# bound on the L1 norm (see test_order_two_powers_meet_the_norm_bound).
@settings(max_examples=25, deadline=None, derandomize=True)
@given(exact_searches())
@example((3, (1, 1, 1), (1, 1, 0), 4, None))
@example((3, (1, 1, 1), (1, 1, 1), 3, 2))
@example((5, (1, 1), (1, 1), 4, None))
@example((2, (1, 2), (1, 1), 4, None))
@example((2, (1, 1, 1), (1, 1, 0), 4, 3))
def test_packed_search_matches_tuple_oracle(case):
    # the packed and the tuple search yield the same words, zero tests and
    # coefficients: residues mod p^K, and over Z the balanced lift of the
    # residues mod 2^(max_len + 2)
    p, A, C, max_len, K = case
    group = AbelianPGroup(p, A)
    inverted = inverted_element_set(group, SubgroupSpec(C))
    assume(inverted)
    modulus = None if K is None else p**K
    gens = tate_blueshift._group_ring_euler_classes(
        group, inverted, 2 ** (max_len + 2) if K is None else modulus)
    fast = list(itertools.islice(multiset_products(gens, max_len), 2000))
    slow = list(itertools.islice(multiset_products(
        group_ring_tuple_classes(group, inverted, modulus), max_len), 2000))
    assert [word for _, word in fast] == [word for _, word in slow]
    for (value, _), (expected, _) in zip(fast, slow):
        assert value.is_zero() == expected.is_zero()
        assert (group_ring_coeffs(value, gens[0], group.order, K is None)
                == list(expected.coeffs))


def test_order_two_powers_meet_the_norm_bound():
    # (t^w - 1)^l = (-2)^(l-1) (t^w - 1) for w of order 2 has L1 norm 2^l,
    # the bound exact mode's modulus 2^(L+2) rests on; packed mod 2^(l+2)
    # its balanced coefficients are the oracle's over Z
    group = AbelianPGroup(2, [1, 2])
    classes = [(1, 0), (0, 2), (1, 2)]
    oracle = group_ring_tuple_classes(group, classes)
    for length in range(1, 9):
        gens = tate_blueshift._group_ring_euler_classes(group, classes, 2 ** (length + 2))
        for g, o in zip(gens, oracle):
            value, expected = g, o
            times, oracle_times = g.multiplier(), o.multiplier()
            for _ in range(length - 1):
                value, expected = times(value), oracle_times(expected)
            coeffs = group_ring_coeffs(value, g, group.order, balanced=True)
            assert coeffs == list(expected.coeffs)
            assert sum(map(abs, coeffs)) == 2**length
            assert coeffs[0] == -((-2) ** (length - 1))


@pytest.mark.parametrize("params, word", [
    ({"p": 2, "A": [2, 2], "C": [1, 1]}, [0, 2, 3, 4, 5, 6]),
    ({"p": 3, "A": [1, 1], "C": [1, 1]}, [0, 2, 3, 4]),
])
def test_exact_slots_widen_with_inverted_count_only(monkeypatch, params, word):
    # L = min(max_cert_len, len(inverted)): a limit of 10**6 asks for slots
    # of at most len(inverted) + 3 bits, and the reports are those the
    # search over Z gave
    build, widths = tate_blueshift._group_ring_euler_classes, []

    def recording(group, inverted, modulus):
        gens = build(group, inverted, modulus)
        widths.append((gens[0].width, len(inverted)))
        return gens

    monkeypatch.setattr(tate_blueshift, "_group_ring_euler_classes", recording)
    code, report = run_job("tate", {**params, "exact": True, "max_cert_len": 10**6})
    inverted = [list(w) for w in inverted_element_set(
        AbelianPGroup(params["p"], params["A"]), SubgroupSpec(params["C"]))]
    assert code == 0
    assert report == {
        "inverted_classes": inverted, "mode": "exact", "status": "ZERO",
        "witness": {"certificate": {"generator_indices": word,
                                    "generators": [inverted[i] for i in word],
                                    "length": len(word)}}}
    assert widths and all(width <= n + 3 for width, n in widths)


@pytest.mark.parametrize("p, A, C, K", [
    (2, (1, 1), (1, 1), None), (3, (1, 1), (1, 1), None),
    (2, (1, 1, 1), (1, 1, 1), None), (2, (2, 2), (1, 1), None),
    (2, (2, 1), (1, 1), 2), (2, (1, 1), (1, 1), 1), (3, (1, 1), (1, 1), 2),
])
def test_first_zero_length_is_least_zero_multiset(p, A, C, K):
    # the deduplicated breadth-first search meets a zero at the least size
    # of a zero multiset, found here from every multiset product with
    # nothing dropped: exact mode's L <= len(inverted) rests on it
    group = AbelianPGroup(p, A)
    inverted = inverted_element_set(group, SubgroupSpec(C))
    gens = group_ring_tuple_classes(group, inverted, None if K is None else p**K)
    times = [g.multiplier() for g in gens]
    layer, least = [(g, i) for i, g in enumerate(gens)], 1  # (value, last index)
    while not any(value.is_zero() for value, _ in layer):
        layer = [(times[j](value), j) for value, i in layer
                 for j in range(i, len(gens))]
        least += 1
    assert least <= len(inverted)
    assert len(zero_product_certificate(gens, len(inverted))) == least

def test_exact_euler_class_closed_form():
    ring = multiplicative_exact_ring(2, [1, 1])
    x1, x2 = ring.gen(0), ring.gen(1)
    assert multiplicative_euler_class_exact(ring, (1, 0)) == x1
    assert multiplicative_euler_class_exact(ring, (1, 1)) == x1 + x2 + x1 * x2


def test_morava_certificate_replays_in_fresh_ring():
    # rebuild the classifying ring from scratch and replay the certificate
    from tateshift.classifying import build_classifying_ring

    law = build_law("honda", 3, n=1, exponents=[1])
    group = AbelianPGroup(3, [1])
    result = tate_ring(build_classifying_ring(law, group), SubgroupSpec([1]))
    cert = result.witness["certificate"]["elements"]
    fresh_law = build_law("honda", 3, n=1, exponents=[1])
    fresh = build_classifying_ring(fresh_law, group)
    prod = fresh.algebra.one()
    for w in cert:
        prod = prod * fresh.euler_class(tuple(w)).value
    assert prod.is_zero()
