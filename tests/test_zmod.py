"""Howell-form linear algebra over Z/N, checked against brute-force oracles."""

import itertools
import random

from tateshift import zmod

from oracles import matmul_vec


def brute_right_kernel(mat, n):
    ncols = len(mat[0])
    out = []
    for x in itertools.product(range(n), repeat=ncols):
        if all(sum(a * b for a, b in zip(row, x)) % n == 0 for row in mat):
            out.append(list(x))
    return out


def brute_row_span(rows, n):
    ncols = len(rows[0])
    span = set()
    for coeffs in itertools.product(range(n), repeat=len(rows)):
        v = tuple(
            sum(c * row[j] for c, row in zip(coeffs, rows)) % n for j in range(ncols)
        )
        span.add(v)
    return span


def test_gcd_transform_identities():
    rng = random.Random(0)
    for n in (4, 7, 12, 27):
        for _ in range(200):
            a, b = rng.randrange(n), rng.randrange(n)
            g, s, t, u, v = zmod.gcd_transform(a, b, n)
            assert (s * a + t * b) % n == g % n
            assert (u * a + v * b) % n == 0
            assert zmod.is_unit_mod(s * v - t * u, n)


def test_stab_unit():
    for n in (4, 9, 12, 16, 45):
        for a in range(n):
            u = zmod.stab_unit(a, n)
            assert zmod.is_unit_mod(u, n)
            if a:
                from math import gcd

                assert (u * a) % n == gcd(a, n)


def test_howell_membership_matches_brute_span():
    rng = random.Random(1)
    for n in (4, 12):
        for _ in range(25):
            rows = [[rng.randrange(n) for _ in range(3)] for _ in range(2)]
            if not any(any(r) for r in rows):
                continue
            hf = zmod.howell(rows, n)
            span = brute_row_span(rows, n)
            for v in itertools.product(range(n), repeat=3):
                assert hf.contains(list(v)) == (v in span), (n, rows, v)


def test_right_kernel_complete_small():
    rng = random.Random(2)
    for n in (4, 6, 8):
        for _ in range(30):
            mat = [[rng.randrange(n) for _ in range(3)] for _ in range(2)]
            gens = zmod.right_kernel(mat, n)
            brute = brute_right_kernel(mat, n)
            # every generator is in the kernel
            for g in gens:
                assert all(
                    sum(a * b for a, b in zip(row, g)) % n == 0 for row in mat
                )
            # generators span the whole kernel
            if gens:
                span = brute_row_span(gens, n)
            else:
                span = {tuple([0] * 3)}
            assert span == {tuple(v) for v in brute}, (n, mat)


def test_solve_random():
    rng = random.Random(3)
    for n in (4, 12, 27):
        for _ in range(40):
            mat = [[rng.randrange(n) for _ in range(3)] for _ in range(3)]
            x0 = [rng.randrange(n) for _ in range(3)]
            rhs = matmul_vec(mat, x0, n)
            x = zmod.solve(mat, rhs, n)
            assert x is not None
            assert matmul_vec(mat, x, n) == rhs


def test_solve_unsolvable():
    # 2x = 1 has no solution mod 4
    assert zmod.solve([[2]], [1], 4) is None


def test_howell_canonical():
    # canonical: same row module -> identical Howell rows
    rows1 = [[8, 5, 5], [0, 9, 8], [0, 0, 10]]
    rows2 = [[8, 5, 5], [8, 14, 13], [0, 9, 8], [0, 0, 10]]
    h1 = zmod.howell(rows1, 12)
    h2 = zmod.howell(rows2, 12)
    assert h1.rows == h2.rows


def test_prime_power():
    assert zmod.prime_power(4) == (2, 2)
    assert zmod.prime_power(27) == (3, 3)
    assert zmod.prime_power(7) == (7, 1)
    assert zmod.prime_power(12) is None
    assert zmod.prime_power(1024) == (2, 10)


def test_is_prime_matches_trial_division():
    for n in range(-2, 2000):
        trial = n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))
        assert zmod.is_prime(n) == trial, n
