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


def ann_gen(a: int, n: int) -> int:
    """Generator of the annihilator ideal of a in Z/n: n // gcd(a, n)."""
    a %= n
    if a == 0:
        return 1
    return n // gcd(a, n)


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
    """Canonical Howell form H of a row module, with transform U (U*M = H).

    ``rows`` has no zero rows; ``pivots`` lists (row, col, value) with values
    dividing N.  ``kernel_rows`` spans the left kernel {u : u*M = 0}.
    """

    __slots__ = ("n", "ncols", "rows", "pivots", "transform", "kernel_rows")

    def __init__(self, n, ncols, rows, pivots, transform, kernel_rows):
        self.n = n
        self.ncols = ncols
        self.rows = rows
        self.pivots = pivots
        self.transform = transform
        self.kernel_rows = kernel_rows

    def reduce_vector(self, vec: list[int]) -> tuple[list[int], list[int]]:
        """Reduce vec against the form; returns (residual, combination).

        residual == 0 iff vec lies in the row module; combination c satisfies
        vec = c . rows + residual.
        """
        n = self.n
        v = [x % n for x in vec]
        coeffs = [0] * len(self.rows)
        for r, c, d in self.pivots:
            if v[c] % d == 0:
                q = (v[c] // d) % n
            else:
                continue
            if q:
                row = self.rows[r]
                for j in range(c, self.ncols):
                    v[j] = (v[j] - q * row[j]) % n
                coeffs[r] = q
        return v, coeffs

    def contains(self, vec: list[int]) -> bool:
        residual, _ = self.reduce_vector(vec)
        return not any(residual)


def howell(mat: list[list[int]], n: int) -> HowellForm:
    """Compute the Howell form of mat over Z/n.

    Column-by-column gcd elimination; pivots are normalized to divisors of n
    and an annihilator row is appended for every zero-divisor pivot so that
    the row set is Howell-complete (every module element with leading zeros
    lies in the span of the rows with leading zeros).
    """
    ncols = len(mat[0]) if mat else 0
    work = [[x % n for x in row] for row in mat]
    nrows = len(work)
    trans = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]

    def combine(i1, i2, s, t, u, v):
        for m in (work, trans):
            r1, r2 = m[i1], m[i2]
            for j in range(len(r1)):
                a, b = r1[j], r2[j]
                r1[j] = (s * a + t * b) % n
                r2[j] = (u * a + v * b) % n

    r = 0
    for c in range(ncols):
        j = r
        while j < len(work) and work[j][c] == 0:
            j += 1
        if j == len(work):
            continue
        if j > r:
            work[r], work[j] = work[j], work[r]
            trans[r], trans[j] = trans[j], trans[r]
        for i in range(r + 1, len(work)):
            if work[i][c]:
                g, s, t, u, v = gcd_transform(work[r][c], work[i][c], n)
                combine(r, i, s, t, u, v)
        # normalize the pivot to the canonical divisor of n
        u = stab_unit(work[r][c], n)
        if u != 1:
            for m in (work, trans):
                m[r] = [(u * x) % n for x in m[r]]
        d = work[r][c]
        # reduce the entries above the pivot below it
        for i in range(r):
            q = work[i][c] // d
            if q:
                for m in (work, trans):
                    ri, rr = m[i], m[r]
                    for jj in range(len(ri)):
                        ri[jj] = (ri[jj] - q * rr[jj]) % n
        # Howell completion: append the annihilator multiple of this row
        a = ann_gen(d, n)
        if a % n != 0:
            work.append([(a * x) % n for x in work[r]])
            trans.append([(a * x) % n for x in trans[r]])
        r += 1

    rows, pivots, transform, kernel_rows = [], [], [], []
    for i, row in enumerate(work):
        if any(row):
            c = next(j for j, x in enumerate(row) if x)
            pivots.append((len(rows), c, row[c]))
            rows.append(row)
            transform.append(trans[i])
        else:
            if any(trans[i]):
                kernel_rows.append(trans[i])
    return HowellForm(n, ncols, rows, pivots, transform, kernel_rows)


def left_kernel(mat: list[list[int]], n: int) -> list[list[int]]:
    """Generators of {u : u*mat = 0 mod n} (rows of length len(mat))."""
    if not mat:
        return []
    return howell(mat, n).kernel_rows


def right_kernel(mat: list[list[int]], n: int) -> list[list[int]]:
    """Generators of {x : mat*x = 0 mod n} as row vectors."""
    if not mat or not mat[0]:
        # zero columns: kernel is everything / nothing
        ncols = len(mat[0]) if mat else 0
        return [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    transposed = [list(col) for col in zip(*mat)]
    return left_kernel(transposed, n)


def solve(mat: list[list[int]], rhs: list[int], n: int):
    """One solution x of mat @ x = rhs mod n, or None.

    Works through the Howell form of mat^T: rhs must lie in the column span.
    """
    if not mat:
        return None if any(v % n for v in rhs) else []
    ncols = len(mat[0])
    if ncols == 0:
        return None if any(v % n for v in rhs) else []
    transposed = [list(col) for col in zip(*mat)]
    hf = howell(transposed, n)
    residual, coeffs = hf.reduce_vector(rhs)
    if any(residual):
        return None
    x = [0] * ncols
    for ci, trow in zip(coeffs, hf.transform):
        if ci:
            for j in range(ncols):
                x[j] = (x[j] + ci * trow[j]) % n
    return x


def matmul_vec(mat: list[list[int]], x: list[int], n: int) -> list[int]:
    return [sum(a * b for a, b in zip(row, x)) % n for row in mat]


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
