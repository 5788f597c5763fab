"""Tate vanishing outcomes and blue-shift bound arithmetic."""

import itertools
import operator

import pytest
from hypothesis import given, settings, strategies as st

from tateshift import tate_blueshift
from tateshift.classifying import (
    AbelianPGroup,
    InvalidSubgroup,
    SubgroupSpec,
    V_count,
    V_count_image,
    build_classifying_ring,
)
from tateshift.cli import run_job
from tateshift.ring_core import (
    ZERO_RING,
    BaseModulus,
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
    periodicity_report,
    tate_ring,
    tate_ring_exact,
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
    result = tate_ring(law, group, SubgroupSpec([0]))
    assert result.status == TateRingResult.NONZERO
    assert result.inverted == []
    assert result.quotient.rank == 2


def test_tate_morava_mode_zero_with_certificate():
    # A = C = Z/p over the height-n law: F_p[x]/(x^(p^n)) with x inverted
    for p, n in ((2, 1), (2, 2), (3, 1)):
        law = build_law("honda", p, n=n, exponents=[1])
        result = tate_ring(law, AbelianPGroup(p, [1]), SubgroupSpec([1]))
        assert result.status == TateRingResult.ZERO
        cert = result.witness["certificate"]
        assert len(cert["word"]) == p**n
        assert result.witness["saturation_chain"]


def test_tate_multiplicative_z4_zero():
    law = build_law("multiplicative", 2, modulus_power=2, exponents=[1])
    result = tate_ring(law, AbelianPGroup(2, [1]), SubgroupSpec([1]))
    assert result.status == TateRingResult.ZERO


def test_tate_intermediate_subgroup():
    # A = Z/4, C = Z/2: inverted classes are the odd weights
    law = build_law("honda", 2, n=1, exponents=[2])
    result = tate_ring(law, AbelianPGroup(2, [2]), SubgroupSpec([1]))
    assert sorted(result.inverted) == [(1,), (3,)]
    assert result.status == TateRingResult.ZERO  # x is nilpotent at this level


@pytest.mark.parametrize("kind,p,n,K,A", [
    ("honda", 2, 1, 1, (2, 1)),
    ("honda", 3, 1, 1, (1, 1)),
    ("multiplicative", 2, 1, 2, (1, 1)),
    ("multiplicative", 2, 1, 2, (2, 1)),
])
def test_finite_certificates_replay_and_are_shortest(kind, p, n, K, A):
    # every nontrivial C: the certificate replays to 0 in a fresh ring, and a
    # minimal one is as short as the unbudgeted breadth-first search finds
    law = build_law(kind, p, n=n, modulus_power=K, exponents=list(A))
    group = AbelianPGroup(p, A)
    fresh = build_classifying_ring(
        build_law(kind, p, n=n, modulus_power=K, exponents=list(A)), group)
    for C in itertools.product(*(range(i + 1) for i in A)):
        if not any(C):
            continue
        result = tate_ring(law, group, SubgroupSpec(C))
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


@pytest.mark.parametrize("budget", [1, 2, 3])
def test_finite_tiny_budget_keeps_the_nilpotent_power(monkeypatch, budget):
    # F_2[x]/(x^4): x^4 is the certificate, and the search below it examines
    # x, x^2, x^3; a budget of 3 covers them and proves x^4 minimal
    monkeypatch.setattr(tate_blueshift, "CERT_SEARCH_BUDGET", budget)
    law = build_law("honda", 2, n=2, exponents=[1])
    result = tate_ring(law, AbelianPGroup(2, [1]), SubgroupSpec([1]))
    assert result.status == TateRingResult.ZERO
    witness = result.to_dict()["witness"]
    assert witness["certificate"]["generator_indices"] == [0, 0, 0, 0]
    assert witness["certificate"]["minimal"] is (budget == 3)
    assert witness.get("search_budget") == (None if budget == 3 else budget)


@pytest.mark.parametrize("params, length", [
    ({"p": 2, "A": [2, 2, 2], "C": [1, 1, 1]}, 4),
    ({"p": 2, "A": [2, 2], "C": [1, 1], "fgl": "honda", "n": 2}, 16),
])
def test_finite_frontier_certificates_pinned(params, length):
    # the README headline and Honda n=2 A=(Z/4)^2: the nilpotent power of
    # the first class, with the search below it stopped by its budget
    code, report = run_job("tate", params)
    assert code == 0
    witness = report["witness"]
    assert witness["certificate"]["generator_indices"] == [0] * length
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


# Every group with |A| <= 16 for p = 2 and p = 3.
SMALL_GROUPS = [
    (p, A) for p, top in ((2, 4), (3, 2)) for r in range(1, top + 1)
    for A in itertools.product(range(1, top + 1), repeat=r) if sum(A) <= top
]


@st.composite
def exact_searches(draw):
    p, A = draw(st.sampled_from(SMALL_GROUPS))
    C = tuple(draw(st.integers(0, i)) for i in A)
    return p, A, C, draw(st.integers(1, 4))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(exact_searches())
def test_group_basis_search_matches_exact_poly_search(case):
    # the group-basis search yields the words of the ExactPolyRing search,
    # and each value maps under t^v -> prod (1 + x_k)^(v_k) to the oracle's
    p, A, C, max_len = case
    group = AbelianPGroup(p, A)
    inverted = inverted_element_set(group, SubgroupSpec(C))
    ring = multiplicative_exact_ring(p, A)
    oracle = [multiplicative_euler_class_exact(ring, w) for w in inverted]
    # row m: the x^m coefficients of t^v, v in group.elements() order
    t_powers = [(multiplicative_euler_class_exact(ring, v) + ring.one()).terms
                for v in group.elements()]
    to_monomials = [[t_v.get(m, 0) for t_v in t_powers] for m in ring.monomials]
    # the first 600 yields of each search keep every example under 40 ms
    fast = list(itertools.islice(multiset_products(
        tate_blueshift._group_ring_euler_classes(group, inverted), max_len), 600))
    slow = list(itertools.islice(multiset_products(oracle, max_len), 600))
    assert [word for _, word in fast] == [word for _, word in slow]
    for (value, _), (expected, _) in zip(fast, slow):
        image = [sum(map(operator.mul, row, value.coeffs)) for row in to_monomials]
        assert image == [expected.terms.get(m, 0) for m in ring.monomials]
        assert value.is_zero() == expected.is_zero()


def test_exact_euler_class_closed_form():
    ring = multiplicative_exact_ring(2, [1, 1])
    x1, x2 = ring.gen(0), ring.gen(1)
    assert multiplicative_euler_class_exact(ring, (1, 0)) == x1
    assert multiplicative_euler_class_exact(ring, (1, 1)) == x1 + x2 + x1 * x2


# -- periodicity reports ---------------------------------------------------------------


def test_periodicity_report_honda_zero():
    law = build_law("honda", 2, n=2, exponents=[1])
    report = periodicity_report(law, AbelianPGroup(2, [1]), SubgroupSpec([1]))
    assert report["tate"]["status"] == "ZERO"
    assert "vanishing below the blue-shift lower bound" in report["consistency"]
    assert report["caveats"] == []


def test_periodicity_report_trivial_subgroup_nonzero():
    law = build_law("honda", 2, n=1, exponents=[1])
    report = periodicity_report(law, AbelianPGroup(2, [1]), SubgroupSpec([0]))
    assert report["tate"]["status"] == "NONZERO"
    assert report["bounds"]["lower_t"] == 0
    assert report["bounds"]["upper_rank"] == 0
    assert "INCONCLUSIVE" in report["consistency"]


def test_periodicity_report_multiplicative_truncation_caveat():
    law = build_law("multiplicative", 2, modulus_power=2, exponents=[1])
    report = periodicity_report(law, AbelianPGroup(2, [1]), SubgroupSpec([1]))
    assert report["tate"]["status"] == "ZERO"
    assert any("truncates" in c for c in report["caveats"])


def test_morava_certificate_replays_in_fresh_ring():
    # rebuild the classifying ring from scratch and replay the certificate
    from tateshift.classifying import build_classifying_ring

    law = build_law("honda", 3, n=1, exponents=[1])
    group = AbelianPGroup(3, [1])
    result = tate_ring(law, group, SubgroupSpec([1]))
    cert = result.witness["certificate"]["elements"]
    fresh_law = build_law("honda", 3, n=1, exponents=[1])
    fresh = build_classifying_ring(fresh_law, group)
    prod = fresh.algebra.one()
    for w in cert:
        prod = prod * fresh.euler_class(tuple(w)).value
    assert prod.is_zero()
