"""Contraction analysis on reductive homogeneous spaces with invariant metrics.

Certify contraction of vector fields via left-invariant-frame
linearizations and matrix measures, test the periodic-loop obstruction,
and propagate contraction-based reachable tubes on SO(3).
"""

from .connection import SpaceClassification, classify, compute_alpha
from .contraction import (
    ContractionCertificate,
    LoopReport,
    certify_region,
    find_period,
    generator_box_samples,
    loop_obstruction_check,
    matrix_measure,
    sphere_cap_grid,
)
from .fields import (
    HorizontalField,
    constant_field,
    coset_consistency_check,
    euclidean_linear,
    linearize,
    sphere_height_gradient,
    tabulated_field,
)
from .liealg import (
    ReductiveDecomposition,
    adjoint,
    check_ad_invariance,
    orthonormalize_basis,
)
from .reach import ReachTube, distance, integrate, reach_tube
from .spaces import (
    Space,
    make_circle,
    make_euclidean,
    make_so3_biinvariant,
    make_so3_left_invariant,
    make_sphere2,
)

__version__ = "0.1.0"
