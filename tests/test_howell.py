"""The single Howell elimination behind rows, solve and kernels.

The transform-carrying Howell form below is the earlier algorithm, kept as
the oracle: it eliminated M^T alone, carried the transform U with U*M^T = H,
read solutions off U and the left kernel off the rows of U whose H row is
zero.  The library eliminates [M^T | I] once instead and returns kernels as
Howell bases.  Brute force checks both at small moduli.
"""

import itertools
import time

from hypothesis import given, settings, strategies as st

from tateshift import classifying, tate_blueshift, zmod

from oracles import matmul_vec

MODULI = (2, 3, 4, 6, 8, 9, 12, 16, 27, 30, 36, 49)


# -- oracle: the transform-carrying Howell form ---------------------------------


def oracle_howell(mat, n):
    """(rows, transform, kernel_rows) with transform * mat = rows."""
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
                _, s, t, u, v = zmod.gcd_transform(work[r][c], work[i][c], n)
                combine(r, i, s, t, u, v)
        u = zmod.stab_unit(work[r][c], n)
        if u != 1:
            for m in (work, trans):
                m[r] = [(u * x) % n for x in m[r]]
        d = work[r][c]
        for i in range(r):
            q = work[i][c] // d
            if q:
                for m in (work, trans):
                    ri, rr = m[i], m[r]
                    for jj in range(len(ri)):
                        ri[jj] = (ri[jj] - q * rr[jj]) % n
        a = n // d
        if a % n:
            work.append([(a * x) % n for x in work[r]])
            trans.append([(a * x) % n for x in trans[r]])
        r += 1
    rows, transform, kernel_rows = [], [], []
    for i, row in enumerate(work):
        if any(row):
            rows.append(row)
            transform.append(trans[i])
        elif any(trans[i]):
            kernel_rows.append(trans[i])
    return rows, transform, kernel_rows


def oracle_right_kernel(mat, n):
    if not mat or not mat[0]:
        return []
    return oracle_howell([list(c) for c in zip(*mat)], n)[2]


def oracle_solve(mat, rhs, n):
    if not mat or not mat[0]:
        return None if any(v % n for v in rhs) else []
    ncols = len(mat[0])
    rows, transform, _ = oracle_howell([list(c) for c in zip(*mat)], n)
    v = [x % n for x in rhs]
    x = [0] * ncols
    for row, trow in zip(rows, transform):
        c = next(j for j, e in enumerate(row) if e)
        if v[c] % row[c]:
            return None
        q = v[c] // row[c]
        v = [(a - q * b) % n for a, b in zip(v, row)]
        x = [(a + q * b) % n for a, b in zip(x, trow)]
    return None if any(v) else x


# -- brute force ------------------------------------------------------------------


def brute_span(rows, n, width):
    span = {(0,) * width}
    for row in rows:
        span = {tuple((a + k * b) % n for a, b in zip(v, row))
                for v in span for k in range(n)}
    return span


def brute_solutions(mat, rhs, n):
    width = len(mat[0])
    return [x for x in itertools.product(range(n), repeat=width)
            if matmul_vec(mat, list(x), n) == [v % n for v in rhs]]


# -- strategies -------------------------------------------------------------------


@st.composite
def systems(draw, moduli=MODULI, max_rows=5, max_cols=5):
    """(n, mat, rhs) with rhs in the column span about half the time."""
    n = draw(st.sampled_from(moduli))
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    size = nrows * ncols
    # about a third of the entries zero, so sparse columns and rows occur
    flat = draw(st.lists(st.integers(-n // 2, n - 1), min_size=size, max_size=size))
    mat = [[max(x, 0) for x in flat[i:i + ncols]] for i in range(0, size, ncols)]
    entries = st.lists(st.integers(0, n - 1), min_size=ncols, max_size=ncols)
    if draw(st.booleans()):
        rhs = matmul_vec(mat, draw(entries), n)
    else:
        rhs = draw(st.lists(st.integers(0, n - 1), min_size=nrows, max_size=nrows))
    return n, mat, rhs


@settings(max_examples=150, deadline=None, derandomize=True)
@given(systems())
def test_rows_kernel_and_solve_match_oracle(system):
    n, mat, rhs = system
    hf = zmod.howell(mat, n)
    assert hf.rows == oracle_howell(mat, n)[0]
    for r, c, d in hf.pivots:
        assert hf.rows[r][c] == d and n % d == 0
        assert not any(hf.rows[r][:c])
    x0, kernel = zmod.solve_coset(mat, rhs, n)
    expected = oracle_right_kernel(mat, n)
    assert kernel == (zmod.howell(expected, n).rows if expected else [])
    assert (x0 is None) == (oracle_solve(mat, rhs, n) is None)
    if x0 is not None:
        assert matmul_vec(mat, x0, n) == [v % n for v in rhs]
    assert zmod.solve(mat, rhs, n) == x0
    assert zmod.right_kernel(mat, n) == kernel


@settings(max_examples=80, deadline=None, derandomize=True)
@given(systems(moduli=(2, 3, 4, 5, 6), max_rows=3, max_cols=3))
def test_membership_solve_kernel_brute_force(system):
    n, mat, rhs = system
    width = len(mat[0])
    hf = zmod.howell(mat, n)
    span = brute_span(mat, n, width)
    for v in itertools.product(range(n), repeat=width):
        assert hf.contains(list(v)) == (v in span)
    x0, kernel = zmod.solve_coset(mat, rhs, n)
    solutions = brute_solutions(mat, rhs, n)
    assert (x0 is None) == (not solutions)
    kernel_span = brute_span(kernel, n, width)
    assert kernel_span == set(brute_solutions(mat, [0] * len(mat), n))
    if x0 is not None:
        coset = {tuple((a + b) % n for a, b in zip(x0, k)) for k in kernel_span}
        assert coset == set(solutions)


def test_degenerate_shapes():
    assert zmod.solve_coset([], [], 4) == ([], [])
    assert zmod.solve_coset([[], []], [0, 1], 4) == (None, [])
    assert zmod.right_kernel([[0, 0]], 4) == [[1, 0], [0, 1]]
    assert zmod.howell([[0, 0], [0, 0]], 4).rows == []


@settings(max_examples=60, deadline=None, derandomize=True)
@given(systems(moduli=(2, 4, 8, 9, 16, 27, 49)))
def test_prime_power_needs_no_gcd_transform(system):
    """The least-gcd pivot divides its column on prime-power moduli."""
    n, mat, rhs = system
    original = zmod.gcd_transform

    def refuse(*args):
        raise AssertionError(f"2x2 transform on prime power modulus {n}")

    zmod.gcd_transform = refuse
    try:
        zmod.howell(mat, n)
        zmod.solve_coset(mat, rhs, n)
    finally:
        zmod.gcd_transform = original


def test_composite_modulus_uses_gcd_transform(monkeypatch):
    calls = []
    original = zmod.gcd_transform

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(zmod, "gcd_transform", counting)
    # neither 2 nor 3 divides the other mod 6; together they generate 1
    assert zmod.howell([[2, 1], [3, 0]], 6).rows == oracle_howell([[2, 1], [3, 0]], 6)[0]
    assert calls


def test_euler_class_solve_and_kernel_fast():
    """Solve plus kernel for the 256x256 pair matrices of Honda p=2, n=2, A=(Z/4)^2."""
    law = tate_blueshift.build_law("honda", 2, n=2, exponents=[2, 2])
    cr = classifying.build_classifying_ring(law, classifying.AbelianPGroup(2, [2, 2]))
    alg = cr.algebra
    u = (3, 2)
    systems_ = []
    for d in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 2), (1, 2), (3, 1)):
        w = tuple((a - b) % 4 for a, b in zip(u, d))
        s = cr.euler_class(d).value
        rhs = cr.euler_class(u).value - cr.euler_class(w).value
        systems_.append((s, alg.mul_matrix(s), list(rhs.coords)))
    assert alg.rank == 256
    start = time.perf_counter()
    answers = [zmod.solve_coset(mat, rhs, alg.base.n) for _, mat, rhs in systems_]
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, f"8 solve-plus-kernel calls took {elapsed:.2f} s"
    for (s, mat, rhs), (x0, kernel) in zip(systems_, answers):
        assert list((s * alg.from_coords(x0)).coords) == rhs
        assert kernel and all((s * alg.from_coords(k)).is_zero() for k in kernel[:4])
