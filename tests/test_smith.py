"""Smith normal form data of ideal lattices, against sympy as the oracle.

``_smith_divisors(rows, n, k)`` describes Z^k / L for the lattice L spanned
by the rows and N*I, as ``_quotient_algebra`` builds it from ideal rows.
Random integer rows, negative ones included, give every such lattice through
many generating sets.
"""

from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors

from tateshift.ring_core import _smith_divisors


@st.composite
def lattices(draw):
    """(rows, n, k): a few random rows over Z, N and the width k."""
    n = draw(st.sampled_from((2, 4, 6, 8, 9, 12, 16, 27, 30, 36)))
    k = draw(st.integers(1, 5))
    nrows = draw(st.integers(0, 5))
    entry = st.integers(-2 * n, 2 * n)
    rows = [draw(st.lists(entry, min_size=k, max_size=k)) for _ in range(nrows)]
    return rows, n, k


@settings(max_examples=80, deadline=None, derandomize=True)
@given(lattices())
def test_smith_divisors_match_sympy(lattice):
    rows, n, k = lattice
    divisors, v, vinv = _smith_divisors(rows, n, k)
    lattice = Matrix(rows + [[n if i == j else 0 for j in range(k)] for i in range(k)])
    assert divisors == [int(d) for d in invariant_factors(lattice, domain=ZZ)]
    # V is unimodular with inverse Vinv
    assert Matrix(v) * Matrix(vinv) == Matrix.eye(k)
    assert abs(Matrix(v).det()) == 1
    # L.V lies in sum d_i Z e_i; equal indices make the two lattices equal
    image = lattice * Matrix(v)
    assert all(image[i, j] % divisors[j] == 0
               for i in range(image.rows) for j in range(k))
