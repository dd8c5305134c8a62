"""Exact-arithmetic toolkit for bounded-variation matrix domains.

Lazy infinite triangle matrices and sequences over exact rationals, the
Cesaro/weighted/Riesz mean constructions and their composed domain matrices,
Schauder-basis columns, alpha/beta/gamma dual testers, matrix-class
characterization transforms, and truncation-based membership diagnostics.
"""

__version__ = "0.1.0"
# the names of the verify suites, which the CLI offers without loading them
VERIFY_SUITES = ("identities", "bases", "duals", "matclass", "all")

from .core import (
    BandedMatrix,
    InvalidWeightsError,
    Seq,
    SingularMatrixError,
    Triangle,
    apply,
    compose,
    identity,
    invert,
    rat,
    transform_seq,
    truncate,
)
from .builders import (
    Domain,
    RieszWeights,
    WeightPair,
    basis_column,
    cesaro,
    cesaro_domain,
    cesaro_inverse,
    delta,
    gamma,
    phi,
    riesz,
    riesz_domain,
    sigma_riesz,
    sigma_sum,
    weighted_domain,
    weighted_mean,
)
from .spaces import (
    MembershipReport,
    SpaceId,
    bvA_norm_prefix,
    bv_norm_prefix,
    classical_dual,
    domain_membership,
    membership,
)
from .duals import DualReport, alpha_assoc, beta_assoc, dual_test
from .matclass import (
    ClassReport,
    UnsupportedClassError,
    class_test_from_domain,
    class_test_into_domain,
)
