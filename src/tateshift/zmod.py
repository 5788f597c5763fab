"""Linear algebra over Z/N via the Howell (strong echelon) form.

Z/p^K is not a field, so naive Gaussian elimination is wrong: pivots may be
zero divisors.  The Howell form is the canonical strong echelon form for row
modules over Z/N; it supports membership tests, kernels and linear solving
with exact arithmetic.  All matrices are lists of lists of ints reduced into
[0, N).
"""

from __future__ import annotations

from math import gcd


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def is_unit_mod(a: int, n: int) -> bool:
    return gcd(a % n, n) == 1


def inv_mod(a: int, n: int) -> int:
    g, x, _ = xgcd(a % n, n)
    if g != 1:
        raise ZeroDivisionError(f"{a} is not invertible mod {n}")
    return x % n


def stab_unit(a: int, n: int) -> int:
    """A unit u mod n with u*a = gcd(a, n) mod n.

    Writes a = u^-1 * d with d | n, the normalization used for Howell pivots.
    """
    a %= n
    if a == 0:
        return 1
    d = gcd(a, n)
    nd = n // d
    u = inv_mod((a // d) % nd, nd) if nd > 1 else 1
    # lift u to a unit mod n; u is a unit mod n/d, adjust by multiples of n/d
    while gcd(u, n) != 1:
        u += nd
    return u % n


def gcd_transform(a: int, b: int, n: int) -> tuple[int, int, int, int, int]:
    """(g, s, t, u, v) with s*a + t*b = g, u*a + v*b = 0 mod n, s*v - t*u a unit."""
    a %= n
    b %= n
    g, s, t = xgcd(a, b)
    if g == 0:
        return 0, 1, 0, 0, 1
    return g % n, s % n, t % n, (-(b // g)) % n, (a // g) % n


class HowellForm:
    """Canonical Howell form of a row module over Z/N.

    ``rows`` has no zero rows; ``pivots`` lists (row, col, value) with values
    dividing N, and every entry above a pivot is reduced below its value.
    """

    __slots__ = ("n", "ncols", "rows", "pivots")

    def __init__(self, n, ncols, rows, pivots):
        self.n = n
        self.ncols = ncols
        self.rows = rows
        self.pivots = pivots

    def contains(self, vec: list[int]) -> bool:
        v = [x % self.n for x in vec]
        _reduce(self.rows, self.pivots, v, self.n)
        return not any(v)


def _echelon(work: list[list[int]], n: int, width: int) -> list[tuple[int, int, int]]:
    """Bring the rows of work into Howell-complete echelon form on columns < width.

    Rows are lists reduced into [0, n) and change in place; entries past width
    ride along.  Returns the pivots (row, col, value) with values dividing n;
    the rows after the last pivot are zero before width.  For every pivot
    value d > 1 the row (n/d) * pivot row is appended and eliminated too, so
    the rows that are zero before a column span every element of the module
    that is.  Entries above the pivots are left unreduced.

    The pivot of a column is an entry with the least gcd(x, n).  On a prime
    power n it divides every entry below it, so each row is cleared by one
    update r_i -= q * r_pivot; the 2x2 gcd transform runs only for entries
    the pivot does not divide, which takes a composite n.
    """
    pivots = []
    r = 0
    for c in range(width):
        best, least = None, n
        for i in range(r, len(work)):
            x = work[i][c]
            if x:
                g = gcd(x, n)
                if g < least:
                    best, least = i, g
                    if g == 1:
                        break
        if best is None:
            continue
        work[r], work[best] = work[best], work[r]
        # rows r and below are zero before column c, so updates start at c
        tail = work[r][c:]
        u = stab_unit(tail[0], n)
        if u != 1:
            tail = [u * x % n for x in tail]
        d = tail[0]
        for i in range(r + 1, len(work)):
            row = work[i]
            x = row[c]
            if not x:
                continue
            if x % d == 0:
                q = x // d
                row[c:] = [(a - q * b) % n for a, b in zip(row[c:], tail)]
            else:
                _, s, t, u, v = gcd_transform(d, x, n)
                other = row[c:]
                row[c:] = [(u * a + v * b) % n for a, b in zip(tail, other)]
                tail = [(s * a + t * b) % n for a, b in zip(tail, other)]
                d = tail[0]
        work[r][c:] = tail
        if d > 1:
            a = n // d
            work.append([0] * (c + 1) + [a * x % n for x in tail[1:]])
        pivots.append((r, c, d))
        r += 1
    return pivots


def _reduce(rows, pivots, vec: list[int], n: int) -> None:
    """Subtract multiples of the pivot rows from vec, in place.

    Each entry at a pivot column ends below its pivot value; on Howell-complete
    rows the result is zero exactly when vec lies in their span.
    """
    for r, c, d in pivots:
        q = vec[c] // d
        if q:
            vec[c:] = [(a - q * b) % n for a, b in zip(vec[c:], rows[r][c:])]


def _canonical(work: list[list[int]], n: int, ncols: int) -> HowellForm:
    """Howell form of the rows of work: echelon form, then back-reduction."""
    pivots = _echelon(work, n, ncols)
    for i in range(len(pivots)):
        _reduce(work, pivots[i + 1:], work[i], n)
    return HowellForm(n, ncols, work[: len(pivots)], pivots)


def howell(mat: list[list[int]], n: int) -> HowellForm:
    """The Howell form of the row module of mat over Z/n.

    Pivots are normalized to divisors of n, entries above them are reduced,
    and the rows are Howell-complete: every module element that is zero
    before a column lies in the span of the rows that are.
    """
    ncols = len(mat[0]) if mat else 0
    return _canonical([[x % n for x in row] for row in mat], n, ncols)


def solve_coset(mat: list[list[int]], rhs: list[int], n: int):
    """(x0, kernel): the solutions of mat @ x = rhs mod n are x0 + span(kernel).

    x0 is one solution, or None if there is none; kernel is the Howell row
    basis of {x : mat @ x = 0}.  One elimination of [mat^T | I] serves both:
    rhs is reduced against the rows whose left part has a pivot, whose right
    parts record the combination taken, and the right parts of the rows whose
    left part is zero span the kernel.
    """
    ncols = len(mat[0]) if mat else 0
    if not ncols:
        return (None if any(v % n for v in rhs) else []), []
    m = len(mat)
    work = [[x % n for x in col] + [int(i == j) for j in range(ncols)]
            for i, col in enumerate(zip(*mat))]
    pivots = _echelon(work, n, m)
    vec = [v % n for v in rhs] + [0] * ncols
    _reduce(work, pivots, vec, n)
    x0 = None if any(vec[:m]) else [-x % n for x in vec[m:]]
    kernel = _canonical([row[m:] for row in work[len(pivots):]], n, ncols)
    return x0, kernel.rows


def right_kernel(mat: list[list[int]], n: int) -> list[list[int]]:
    """Howell row basis of {x : mat @ x = 0 mod n}."""
    return solve_coset(mat, [0] * len(mat), n)[1]


def solve(mat: list[list[int]], rhs: list[int], n: int):
    """One solution x of mat @ x = rhs mod n, or None."""
    return solve_coset(mat, rhs, n)[0]


def is_prime(n: int) -> bool:
    """Exact for every n below 3.3e24 (see ``prime_power``)."""
    return prime_power(n) == (n, 1)


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, k) with n = p^k and p prime, or None.

    Trial division covers practical moduli; a perfect-power check with a
    Miller-Rabin test handles large prime powers.
    """
    if n < 2:
        return None
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            return (p, k) if n == 1 else None
    # n has no small factors; test n = p^k by integer roots
    for k in range(n.bit_length(), 0, -1):
        root = _iroot(n, k)
        if root ** k == n:
            if _is_probable_prime(root):
                return (root, k)
            if k == 1:
                return None
    return None


def _iroot(n: int, k: int) -> int:
    if k == 1:
        return n
    hi = 1 << ((n.bit_length() + k - 1) // k + 1)
    lo = 0
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if mid ** k <= n:
            lo = mid
        else:
            hi = mid
    return lo


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # deterministic for n < 3.3e24 with these bases
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
