"""Independent-oracle checks of structural identities across modules."""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from tateshift import zmod
from tateshift.classifying import (
    AbelianPGroup,
    SubgroupSpec,
    build_classifying_ring,
    quotient_image_elements,
    required_cap,
)
from tateshift.cli import dumps, run_job
from tateshift.fgl import X1, X2, build_honda, build_multiplicative
from tateshift.series import TruncatedSeries, ZModDomain, eval_at, reversion, substitute
from tateshift.tate_blueshift import blueshift_bounds, tate_ring

from oracles import SMALL_GROUPS, V_count, V_count_image, build_custom, small_ring


def test_honda_law_is_frobenius_linear():
    # [p] = x^(p^n) is an endomorphism, so F(x,y)^(p^n) = F(x^(p^n), y^(p^n))
    for p, n in ((2, 1), (2, 2), (3, 1)):
        cap = 2 * p**n + p
        law = build_honda(p, n, cap)
        q = p**n
        lhs = law.F ** q
        x1q = TruncatedSeries(law.domain, ("x1", "x2"), cap, {(q, 0): 1})
        x2q = TruncatedSeries(law.domain, ("x1", "x2"), cap, {(0, q): 1})
        rhs = substitute(law.F, {"x1": x1q, "x2": x2q})
        assert lhs == rhs


def artin_hasse_minus_one(p: int, cap: int) -> TruncatedSeries:
    """E - 1 over F_p, E(x) = exp(sum_i x^(p^i) / p^i) the Artin-Hasse
    exponential.  Its coefficients are built over QQ from E'/E =
    sum_i x^(p^i - 1), that is n a_n = sum_i a_(n - p^i) with a_0 = 1, and
    are p-integral (Hazewinkel, Formal Groups and Applications, 1978)."""
    a = [Fraction(1)]
    for n in range(1, cap + 1):
        acc, q = Fraction(0), 1
        while q <= n:
            acc, q = acc + a[n - q], q * p
        a.append(acc / n)
    assert all(c.denominator % p for c in a)
    return TruncatedSeries(ZModDomain(p), ("x",), cap, {
        (n,): c.numerator * pow(c.denominator, -1, p) % p
        for n, c in enumerate(a) if n})


def test_artin_hasse_carries_honda_height_1_to_multiplicative():
    # f = E - 1 is a strict isomorphism, f(F_H(x, y)) = F_M(f(x), f(y)),
    # since log_M(f(x)) = log E(x) = sum_i x^(p^i) / p^i = log_H(x).  It is
    # an oracle for build_honda's reversion and bilinear form that shares
    # no code with them
    for p, cap in ((2, 10), (3, 13), (5, 19)):
        honda, mult = build_honda(p, 1, cap), build_multiplicative(p, 1, cap)
        f = artin_hasse_minus_one(p, cap)
        assert f.coefficient((1,)) == 1
        f1, f2 = (substitute(f, {"x": TruncatedSeries.variable(f.domain, (X1, X2), cap, v)})
                  for v in (X1, X2))
        assert substitute(f, {"x": honda.F}) == substitute(mult.F, {X1: f1, X2: f2})


@settings(max_examples=18, deadline=None, derandomize=True)
@given(st.sampled_from(SMALL_GROUPS))
def test_honda_height_1_and_multiplicative_tate_reports_agree(group):
    # the Artin-Hasse isomorphism above sends e_H(w) to e_M(w) in the
    # classifying rings over F_p, so on every C the tate reports agree
    # byte for byte apart from the law
    p, A = group
    reports = []
    for law in ({"fgl": "honda", "n": 1}, {"fgl": "multiplicative"}):
        reports.append([])
        for C in itertools.product(*(range(a + 1) for a in A)):
            code, report = run_job("tate", {"p": p, "A": list(A), "C": list(C), **law})
            assert code == 0 and report.pop("law")["kind"] == law["fgl"]
            reports[-1].append(dumps(report))
    assert reports[0] == reports[1]


def conjugate_law(law, g):
    """F^g(x, y) = g(F(g^-1 x, g^-1 y)): g is a strict isomorphism from
    the law F to F^g."""
    ginv = reversion(g)
    y1, y2 = (substitute(ginv, {"x": TruncatedSeries.variable(law.domain, (X1, X2), law.cap, v)})
              for v in (X1, X2))
    Fg = substitute(g, {"x": substitute(law.F, {X1: y1, X2: y2})})
    return build_custom(Fg, law.p, law.height)


def tate_fields(result):
    """What an isomorphism of classifying rings preserves: status, inverted
    classes, chain length, certificate length and minimality, and a
    minimal word.  ``valuation_witness`` depends on the presentation."""
    out = result.to_dict()
    cert = out["witness"].get("certificate", {})
    return (out["status"], out["inverted_classes"],
            out["witness"].get("saturation_chain_length"),
            cert.get("length"), cert.get("minimal"),
            cert["generators"] if cert.get("minimal") else None)


# Honda laws of heights 1 and 2 over F_p up to cap 30.  The five at caps
# 66-258 take 0.4 s to 110 s each to conjugate by a dense g and build.
CONJUGATE_CASES = [(p, A, n) for p, A in SMALL_GROUPS for n in (1, 2)
                   if required_cap(p, n, 1, A) <= 30]


@settings(max_examples=24, deadline=None, derandomize=True)
@given(st.sampled_from(CONJUGATE_CASES), st.randoms(use_true_random=False))
def test_conjugated_law_tate_results_agree(case, rng):
    # g carries F's classifying ring isomorphically onto F^g's, with
    # e(w) -> g(e(w)) = e(w) * unit, so every C gives the same answer
    p, A, n = case
    ref = small_ring("honda", p, n, A)
    cap = ref.law.cap
    g = TruncatedSeries(ref.law.domain, ("x",), cap,
                        {(1,): 1} | {(i,): rng.randrange(p) for i in range(2, cap + 1)})
    conj = build_classifying_ring(conjugate_law(ref.law, g), AbelianPGroup(p, A))
    for C in itertools.product(*(range(a + 1) for a in A)):
        sub = SubgroupSpec(list(C))
        assert tate_fields(tate_ring(conj, sub)) == tate_fields(tate_ring(ref, sub)), C


def test_howell_form_canonical_random():
    # generating sets with equal span produce identical Howell rows
    rng = random.Random(111)
    for n in (4, 12):
        for _ in range(25):
            rows = [[rng.randrange(n) for _ in range(3)] for _ in range(2)]
            if not any(any(r) for r in rows):
                continue
            # same span: append random combinations and shuffle
            extra = [
                [
                    (a * rows[0][j] + b * rows[1][j]) % n
                    for j in range(3)
                ]
                for a, b in ((rng.randrange(n), rng.randrange(n)),
                             (rng.randrange(n), rng.randrange(n)))
            ]
            shuffled = rows + extra
            rng.shuffle(shuffled)
            assert zmod.howell(rows, n).rows == zmod.howell(shuffled, n).rows


def test_coset_maximization_closed_form():
    # the best complete set of coset representatives catches one torsion
    # point per torsion-meeting coset: brute-force count of such cosets must
    # match the quotient-of-counts closed form
    rng = random.Random(113)
    for _ in range(25):
        p = rng.choice((2, 3))
        m = rng.randrange(1, 3)
        i_exps = [rng.randrange(1, 4 // p + 2) for _ in range(m)]
        j_exps = [rng.randrange(0, i + 1) for i in i_exps]
        group = AbelianPGroup(p, i_exps)
        sub = SubgroupSpec(j_exps)
        image = list(quotient_image_elements(group, sub))
        image_set = set(image)
        # enumerate cosets of im phi(A/C) in A
        seen = set()
        cosets = []
        for w in group.elements():
            if w in seen:
                continue
            coset = {
                tuple((a + b) % o for a, b, o in zip(w, img, group.orders))
                for img in image
            }
            seen |= coset
            cosets.append(coset)
        for j in range(0, max(i_exps) + 2):
            torsion = {
                w for w in group.elements()
                if all((p**j * x) % o == 0 for x, o in zip(w, group.orders))
            }
            brute_max = sum(1 for c in cosets if c & torsion)
            closed_form = V_count(group, j) // V_count_image(group, sub, j)
            assert brute_max == closed_form, (p, i_exps, j_exps, j)


def test_lower_bound_scan_range_suffices():
    # the maximum of the j-scan is attained within j <= sum(i_k): extending
    # the scan three times further never improves it
    rng = random.Random(127)
    for _ in range(60):
        m = rng.randrange(1, 4)
        i_exps = [rng.randrange(1, 4) for _ in range(m)]
        j_exps = [rng.randrange(0, i + 1) for i in i_exps]
        rep = blueshift_bounds(2, i_exps, j_exps)
        total = sum(i_exps)
        best_far = 0
        for j in range(1, 3 * total + 1):
            log_va = sum(min(j, i) for i in i_exps)
            log_vi = sum(min(j, i - k) for i, k in zip(i_exps, j_exps))
            best_far = max(best_far, -((log_vi - log_va) // j))
        assert best_far == rep.lower_t


def test_euler_class_fold_order_independent():
    for make in (
        lambda: build_multiplicative(2, 2, required_cap(2, 1, 2, [1, 1])),
        lambda: build_honda(2, 1, required_cap(2, 1, 1, [1, 2])),
    ):
        law = make()
        exponents = [1, 1] if law.kind == "multiplicative" else [1, 2]
        group = AbelianPGroup(2, exponents)
        cr = build_classifying_ring(law, group)
        for w in group.elements():
            forward = cr.euler_class(w).value
            # fold in reversed component order by hand
            acc = None
            for k in reversed(range(len(w))):
                val = eval_at(law.m_series(w[k]), [cr.algebra.gen(k)])
                acc = val if acc is None else eval_at(law.F, [acc, val])
            assert acc == forward
