"""Randomized cross-validation of the quotient and solver machinery."""

import itertools
import random

from tateshift import zmod
from tateshift.ring_core import (
    BaseModulus,
    FiniteAlgebra,
    NonFreeQuotient,
    ZERO_RING,
    _complete_to_basis,
    _int_matrix_inverse_mod,
    ideal_module_rows,
    integer_solve,
    is_unit,
    project_element,
)

from oracles import matmul_vec, quotient_by_ideal


def random_presented_algebra(rng, n):
    deg = rng.randrange(2, 4)
    rel = [rng.randrange(n) for _ in range(deg)] + [1]
    return FiniteAlgebra.from_presentation(BaseModulus(n), ["x"], [rel])


def test_quotient_projection_is_ring_hom():
    rng = random.Random(71)
    for n in (4, 8, 9):
        for _ in range(30):
            alg = random_presented_algebra(rng, n)
            g = alg.from_coords([rng.randrange(n) for _ in range(alg.rank)])
            try:
                quotient, proj = quotient_by_ideal(alg, [g])
            except NonFreeQuotient:
                # a generic ideal quotient may be a mixed module; only
                # saturation quotients are guaranteed free over Z/p^K
                continue
            if quotient == ZERO_RING:
                continue
            if quotient is alg:
                continue
            # the projection respects addition, multiplication and identity
            assert project_element(quotient, proj, alg.one()) == quotient.one()
            for _ in range(10):
                a = alg.from_coords([rng.randrange(n) for _ in range(alg.rank)])
                b = alg.from_coords([rng.randrange(n) for _ in range(alg.rank)])
                pa = project_element(quotient, proj, a)
                pb = project_element(quotient, proj, b)
                assert project_element(quotient, proj, a + b) == pa + pb
                assert project_element(quotient, proj, a * b) == pa * pb
            # the ideal generator dies
            assert project_element(quotient, proj, g).is_zero()


def test_quotient_size_matches_brute_force():
    rng = random.Random(73)
    for n in (4, 9):
        for _ in range(20):
            alg = random_presented_algebra(rng, n)
            g = alg.from_coords([rng.randrange(n) for _ in range(alg.rank)])
            try:
                quotient, proj = quotient_by_ideal(alg, [g])
            except NonFreeQuotient:
                continue
            rows = ideal_module_rows([g])
            hf = zmod.howell(rows, n)
            ideal_size = sum(
                1 for v in itertools.product(range(n), repeat=alg.rank)
                if hf.contains(list(v))
            )
            total = n**alg.rank
            if quotient == ZERO_RING:
                assert ideal_size == total
            elif quotient is alg:
                assert ideal_size == 1
            else:
                assert quotient.base.n ** quotient.rank == total // ideal_size


def test_complete_to_basis_composite_modulus():
    # (2, 3) is unimodular over Z/6 although neither entry is a unit
    mat = _complete_to_basis([2, 3], 6)
    assert [row[0] for row in mat] == [2, 3]
    _int_matrix_inverse_mod(mat, 6)  # raises if not invertible


def test_complete_to_basis_random():
    from math import gcd

    rng = random.Random(79)
    for n in (4, 6, 12):
        for _ in range(40):
            size = rng.randrange(1, 5)
            u = [rng.randrange(n) for _ in range(size)]
            content = 0
            for x in u:
                content = gcd(content, x)
            if gcd(content, n) != 1:
                continue
            mat = _complete_to_basis(u, n)
            assert [row[0] % n for row in mat] == [x % n for x in u]
            _int_matrix_inverse_mod(mat, n)


def test_howell_solve_larger_random():
    rng = random.Random(83)
    for n in (8, 12, 27):
        for _ in range(15):
            size = rng.randrange(4, 9)
            mat = [[rng.randrange(n) for _ in range(size)] for _ in range(size)]
            x0 = [rng.randrange(n) for _ in range(size)]
            rhs = matmul_vec(mat, x0, n)
            x = zmod.solve(mat, rhs, n)
            assert x is not None
            assert matmul_vec(mat, x, n) == rhs


def test_right_kernel_larger_spans_solutions():
    rng = random.Random(89)
    for n in (4, 6):
        for _ in range(10):
            rows, cols = 3, 4
            mat = [[rng.randrange(n) for _ in range(cols)] for _ in range(rows)]
            gens = zmod.right_kernel(mat, n)
            brute = [
                list(v) for v in itertools.product(range(n), repeat=cols)
                if all(sum(a * b for a, b in zip(r, v)) % n == 0 for r in mat)
            ]
            if gens:
                hf = zmod.howell(gens, n)
                assert all(hf.contains(v) for v in brute)
            else:
                assert brute == [[0] * cols]


def test_integer_solve_random():
    rng = random.Random(97)
    for _ in range(40):
        rows = rng.randrange(2, 5)
        cols = rng.randrange(2, 5)
        mat = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
        y0 = [rng.randrange(-5, 6) for _ in range(cols)]
        rhs = [sum(a * b for a, b in zip(row, y0)) for row in mat]
        particular, kernel = integer_solve([list(c) for c in zip(*mat)], rhs)
        assert particular is not None
        assert [
            sum(a * b for a, b in zip(row, particular)) for row in mat
        ] == rhs
        for k in kernel:
            assert all(
                sum(a * b for a, b in zip(row, k)) == 0 for row in mat
            )


def test_localized_images_unit_in_quotient_presented():
    # mixed generators over a presented algebra, not just scalars
    rng = random.Random(101)
    from tateshift.ring_core import localize_by_saturation

    alg = FiniteAlgebra.from_presentation(BaseModulus(4), ["x"], [[0, 1, 1]])
    for _ in range(20):
        gens = [
            alg.from_coords([rng.randrange(4), rng.randrange(4)])
            for _ in range(2)
        ]
        if any(g.is_zero() for g in gens):
            continue
        q, proj, _ = localize_by_saturation(alg, gens)
        if q == ZERO_RING:
            continue
        for g in gens:
            img = project_element(q, proj, g) if q is not alg else g
            ok, _ = is_unit(img)
            assert ok


def test_saturation_quotients_always_free_prime_power():
    # for prime-power moduli the saturation quotient is a direct module
    # summand, hence free: localization never raises NonFreeQuotient
    from tateshift.ring_core import localize_by_saturation

    rng = random.Random(103)
    for n in (4, 8, 9):
        for _ in range(40):
            alg = random_presented_algebra(rng, n)
            gens = [
                alg.from_coords([rng.randrange(n) for _ in range(alg.rank)])
                for _ in range(rng.randrange(1, 3))
            ]
            q, proj, _ = localize_by_saturation(alg, gens)  # must not raise
            if q not in (ZERO_RING, alg):
                assert q.base.is_prime_power
