"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print; every tolerance here is exact (integer equality) and every timing
bound comes from the stated budgets.
"""

import functools
import itertools
import random
import time
from fractions import Fraction

import pytest

from tateshift.classifying import (
    AbelianPGroup,
    SubgroupSpec,
    build_classifying_ring,
    certify_root_difference,
    required_cap,
)
from tateshift.fgl import build_honda, build_multiplicative, weierstrass_divide
from tateshift.ring_core import BaseModulus, FiniteAlgebra
from tateshift.ring_linalg import (
    VanishingVerdict,
    gaussian_nzd_solve,
    poly_from_roots,
    roots_to_coeffs,
    vanishing_condition,
    verify_localized_tuple,
    verify_tuple,
)
from tateshift.series import TruncatedSeries, QQ, ZModDomain, reversion, substitute
from tateshift.tate_blueshift import (
    TateRingResult,
    blueshift_bounds,
    build_law,
    multiplicative_euler_class_exact,
    multiplicative_exact_ring,
    tate_ring,
    tate_ring_exact,
)

from oracles import (
    V_count,
    det_division_free,
    pj_root_set,
    poly_compose_iterate,
    vandermonde_det,
)


def criterion(num, summary):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num}: FAIL - {summary}")
                raise
            print(f"ACCEPTANCE {num}: PASS - {summary}")
        return wrapper
    return deco


def compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


@criterion(1, "blue-shift bounds: cube example, cyclic case, direct summands")
def test_criterion_1_blueshift_numbers():
    for p in (2, 3):
        rep = blueshift_bounds(p, [2, 2, 2], [1, 1, 1])
        assert rep.lower_t == 2 and rep.upper_rank == 3
    for j, k in ((1, 1), (2, 1), (4, 3), (6, 6)):
        for p in (2, 3):
            assert blueshift_bounds(p, [j], [k]).exact == 1
    start = time.monotonic()
    count = 0
    for total in range(1, 9):
        for a_exps in compositions(total):
            for picks in itertools.product((0, 1), repeat=len(a_exps)):
                c_exps = [i if pick else 0 for i, pick in zip(a_exps, picks)]
                rep = blueshift_bounds(2, a_exps, c_exps)
                rank = sum(1 for j in c_exps if j >= 1)
                assert rep.exact == rank, (a_exps, c_exps)
                count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"direct-summand scan took {elapsed:.1f}s"
    assert count > 5000


@criterion(2, "Morava-mode Tate vanishing with short certificates, < 1 s each")
def test_criterion_2_morava_vanishing():
    for p in (2, 3):
        for n in (1, 2):
            law = build_law("honda", p, n=n, exponents=[1])
            start = time.monotonic()
            result = tate_ring(build_classifying_ring(law, AbelianPGroup(p, [1])),
                               SubgroupSpec([1]))
            elapsed = time.monotonic() - start
            assert result.status == TateRingResult.ZERO
            assert len(result.witness["certificate"]["word"]) <= p**n
            assert elapsed < 1.0, f"(p={p}, n={n}) took {elapsed:.2f}s"


@criterion(3, "KU-style vanishing over exact integers, certificates replay to 0")
def test_criterion_3_ku_vanishing():
    result2 = tate_ring_exact(2, [1, 1], [1, 1], max_cert_len=8)
    assert result2.status == TateRingResult.ZERO
    assert len(result2.witness["certificate"]["word"]) == 3
    ring2 = multiplicative_exact_ring(2, [1, 1])
    assert ring2.relations == [[0, 2, 1], [0, 2, 1]]  # (1+x)^2 - 1
    prod = ring2.one()
    for w in result2.witness["certificate"]["elements"]:
        prod = prod * multiplicative_euler_class_exact(ring2, w)
    assert prod.is_zero()

    result3 = tate_ring_exact(3, [1, 1], [1, 1], max_cert_len=8)
    assert result3.status == TateRingResult.ZERO
    assert len(result3.witness["certificate"]["word"]) <= 8
    ring3 = multiplicative_exact_ring(3, [1, 1])
    prod = ring3.one()
    for w in result3.witness["certificate"]["elements"]:
        prod = prod * multiplicative_euler_class_exact(ring3, w)
    assert prod.is_zero()


@criterion(4, "Weierstrass suite over Z/4: g1, g2 = g1 o g1, exact reassembly")
def test_criterion_4_weierstrass():
    law = build_multiplicative(2, 2, 12)
    g1 = law.weierstrass(1).poly
    assert g1 == [0, 2, 1]  # x^2 + 2x
    g2 = law.weierstrass(2).poly
    assert g2 == [0, 0, 2, 0, 1]  # x^4 + 2x^2
    assert g2 == poly_compose_iterate(g1, 2, 4)
    rng = random.Random(101)
    dom = ZModDomain(4)
    alpha = law.p_series()
    for _ in range(100):
        f = TruncatedSeries(
            dom, ("x",), 12, {(k,): rng.randrange(4) for k in range(13)}
        )
        r, q = weierstrass_divide(f, alpha)
        assert r + alpha * q == f
        assert all(e[0] <= 1 for e in r.terms)


@criterion(5, "height-n laws: exact axioms, p-series x^(p^n), p-integrality, < 5 s")
def test_criterion_5_honda_laws():
    for p, n in ((2, 1), (2, 2), (3, 1)):
        cap = p**n + p
        start = time.monotonic()
        law = build_honda(p, n, cap)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"(p={p}, n={n}) took {elapsed:.2f}s"
        law.check_axioms()  # exact identities on all stored coefficients
        expected = TruncatedSeries(law.domain, ("x",), cap, {(p**n,): 1})
        assert law.p_series() == expected
        # independent integrality check of the rational law
        log_terms = {}
        i = 0
        while p ** (n * i) <= cap:
            log_terms[(p ** (n * i),)] = Fraction(1, p**i)
            i += 1
        log = TruncatedSeries(QQ, ("x",), cap, log_terms)
        exp = reversion(log)
        l1 = TruncatedSeries(QQ, ("x1", "x2"), cap,
                             {(e[0], 0): c for e, c in log.terms.items()})
        l2 = TruncatedSeries(QQ, ("x1", "x2"), cap,
                             {(0, e[0]): c for e, c in log.terms.items()})
        f_rat = substitute(exp, {"x": l1 + l2})
        assert all(c.denominator % p for c in f_rat.terms.values())


@criterion(6, "root-coefficient suite: Vieta over Z/101, Z/5 Cramer, divisibility")
def test_criterion_6_roots():
    rng = random.Random(103)
    ring = FiniteAlgebra.scalar_ring(BaseModulus(101))
    for _ in range(100):
        size = rng.randrange(1, 5)
        roots = [ring.from_int(v) for v in rng.sample(range(101), size)]
        f = poly_from_roots(roots, ring.one())
        out = roots_to_coeffs(f, verify_tuple(roots, f))
        assert out.case == "Vieta"
        assert all((a - b).is_zero() for a, b in zip(out.recovered, f))

    z5 = FiniteAlgebra.scalar_ring(BaseModulus(5))
    f = [z5.from_int(0), z5.from_int(4), z5.from_int(0), z5.from_int(1)]
    out = roots_to_coeffs(f, verify_tuple([z5.from_int(1), z5.from_int(4)], f))
    assert out.case == "Cramer"
    assert [c.coords[0] for c in out.recovered] == [0, 4]  # a0 = 0, a1 = -1

    for _ in range(200):
        n = rng.randrange(2, 5)
        ts = rng.sample(range(-15, 16), n)
        exps = sorted(rng.sample(range(1, 8), n - 1))
        cols = [[1] * n] + [[t**e for t in ts] for e in exps]
        mat = [[cols[c][r] for c in range(n)] for r in range(n)]
        assert det_division_free(mat) % vandermonde_det(ts) == 0


@criterion(7, "p^j-root sets biject with torsion; pairwise tuple certificates")
def test_criterion_7_fpjr_cardinality():
    for exponents in ([1], [2], [1, 1], [1, 2]):
        for n in (1, 2):
            group = AbelianPGroup(2, exponents)
            cap = required_cap(2, n, 1, exponents)
            law = build_honda(2, n, cap)
            cr = build_classifying_ring(law, group)
            for j in range(4):
                roots = pj_root_set(cr, j)  # asserts each kills g_j
                assert len(roots) == V_count(group, j)
            # the classifying ring is visibly nonzero; certify all pairwise
            # differences as unit multiples of inverted Euler classes
            elements = list(group.elements())
            for u, w in itertools.combinations(elements, 2):
                witness = certify_root_difference(cr, u, w)
                assert witness["difference_element"] != tuple(
                    0 for _ in exponents
                )


@criterion(8, "ring elimination: unique zero solution, field-rank oracle agreement")
def test_criterion_8_elimination():
    def field_rank(mat, p):
        m = [[x % p for x in row] for row in mat]
        rank = 0
        for c in range(len(m[0])):
            pivot = next((r for r in range(rank, len(m)) if m[r][c] % p), None)
            if pivot is None:
                continue
            m[rank], m[pivot] = m[pivot], m[rank]
            inv = pow(m[rank][c], p - 2, p)
            m[rank] = [(x * inv) % p for x in m[rank]]
            for r in range(len(m)):
                if r != rank and m[r][c]:
                    fr = m[r][c]
                    m[r] = [(x - fr * y) % p for x, y in zip(m[r], m[rank])]
            rank += 1
        return rank

    rng = random.Random(107)
    done = 0
    while done < 50:
        p = rng.choice((7, 101))
        size = rng.randrange(1, min(5, p))
        vals = rng.sample(range(p), size)
        ring = FiniteAlgebra.scalar_ring(BaseModulus(p))
        ts = [ring.from_int(v) for v in vals]
        last = gaussian_nzd_solve(verify_tuple(ts))[-1]
        # the reduced system is unit upper triangular: only 0 solves it
        assert all(row[j] == (ring.one() if i == j else ring.zero())
                   for i, row in enumerate(last) for j in range(i + 1))
        oracle = field_rank([[pow(v, j, p) for j in range(size)] for v in vals], p)
        assert oracle == size  # full rank <=> only the zero solution
        done += 1


@criterion(9, "every shipped ZERO has saturation, certificate and tuple witnesses")
def test_criterion_9_cross_module_consistency():
    # Morava-mode examples: three independent ZERO witnesses each
    for p, n in ((2, 1), (2, 2), (3, 1), (3, 2)):
        law = build_law("honda", p, n=n, exponents=[1])
        group = AbelianPGroup(p, [1])
        cr = build_classifying_ring(law, group)
        result = tate_ring(cr, SubgroupSpec([1]))
        assert result.status == TateRingResult.ZERO
        assert result.witness["saturation_chain"]          # (a) saturation
        assert result.witness["certificate"]               # (b) certificate
        alg = cr.algebra
        gens = [cr.euler_class((w,)).value for w in range(1, p)]
        roots = [cr.euler_class((w,)).value for w in range(p)]
        f = [alg.zero(), alg.one()]                        # f(y) = y
        tup = verify_localized_tuple(gens, roots, f, max_len=p**n)
        verdict = vanishing_condition(f, tup)              # (c) vanishing
        assert verdict.verdict == VanishingVerdict.MUST_BE_ZERO

    # KU-style examples: exact certificate + exact tuple + finite saturation
    for p in (2, 3):
        result = tate_ring_exact(p, [1, 1], [1, 1], max_cert_len=8)
        assert result.status == TateRingResult.ZERO        # (b) certificate
        ring = multiplicative_exact_ring(p, [1, 1])
        nonzero = [w for w in itertools.product(range(p), repeat=2) if any(w)]
        gens = [multiplicative_euler_class_exact(ring, w) for w in nonzero]
        # f(y) = ((y+1)^p - 1)/y; roots: the classes of (1,0),..,(p-1,0),(0,1)
        binom = [1]
        for _ in range(p):
            binom = [a + b for a, b in zip(binom + [0], [0] + binom)]
        f = [c * ring.one() for c in binom[1:]]
        roots = [multiplicative_euler_class_exact(ring, (w, 0))
                 for w in range(1, p)]
        roots.append(multiplicative_euler_class_exact(ring, (0, 1)))
        tup = verify_localized_tuple(gens, roots, f, max_len=4)
        verdict = vanishing_condition(f, tup)              # (c) vanishing
        assert verdict.verdict == VanishingVerdict.MUST_BE_ZERO
        # (a) saturation on the finite Z/p^2 model of the same presentation
        law = build_law("multiplicative", p, modulus_power=2, exponents=[1, 1])
        finite = tate_ring(build_classifying_ring(law, AbelianPGroup(p, [1, 1])),
                           SubgroupSpec([1, 1]))
        assert finite.status == TateRingResult.ZERO
        assert finite.witness["saturation_chain"]
