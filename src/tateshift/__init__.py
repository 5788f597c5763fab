"""tateshift: exact computer algebra for formal group laws, finite-ring
localization, Tate vanishing certificates, and blue-shift number bounds.

Everything is exact arithmetic over Z, Q, or Z/N; there are no floats and no
tolerances.  All values are immutable after construction and every operation
is a pure function of its inputs, so concurrent use is safe and results are
byte-stable.
"""

from .ring_core import (
    BaseModulus,
    CertificateNotFound,
    ExactPolyRing,
    FiniteAlgebra,
    PolyElement,
    RingElement,
    ZERO_RING,
    annihilator,
    is_unit,
    localize_by_saturation,
    zero_product_certificate,
)
from .series import TruncatedSeries, ZModDomain, QQ, eval_at, reversion, substitute
from .fgl import (
    FormalGroupLaw,
    WeierstrassFactorization,
    build_honda,
    build_multiplicative,
    weierstrass_divide,
    weierstrass_prepare,
)
from .ring_linalg import (
    NTuple,
    RootCoeffResult,
    VanishingVerdict,
    gaussian_nzd_solve,
    is_ntuple,
    roots_to_coeffs,
    vanishing_condition,
    verify_localized_tuple,
    verify_tuple,
)
from .classifying import (
    AbelianPGroup,
    ClassifyingRing,
    SubgroupSpec,
    build_classifying_ring,
)
from .tate_blueshift import (
    BlueShiftReport,
    TateRingResult,
    blueshift_bounds,
    nonabelian_lower_bound,
    tate_ring,
    tate_ring_exact,
)

__version__ = "0.1.0"
