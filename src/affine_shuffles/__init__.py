"""Exact-arithmetic affine k-shuffle measures on the symmetric and
hyperoctahedral groups, the matching finite-field factorization-type
distributions, physical card-shuffling models, and a verification harness
that checks every identity relating them by exact equality at desk scale.
"""

from .perm import (
    ClassMeasure,
    CycleType,
    GroupAlgebraElement,
    GroupKind,
    Permutation,
    SignedCycleType,
    SignedPermutation,
    all_permutations,
    all_signed_permutations,
    convolve,
    cycle_type,
    descent_histograms,
    invert_element,
    type_a_stats,
    type_c_stats,
)
from .numth import (
    IntPolynomial,
    aperiodic_necklaces_with_sum,
    bounded_partition_count,
    mobius,
    q_binomial,
    ramanujan_sum,
    von_sterneck,
)
from .cellini import (
    RootSystem,
    a_k_I,
    alcove_points,
    verify_cellini_properties,
    wall_set,
    x_k_generic,
    x_k_type_a_lattice,
)
from .closed_forms import (
    x_k_measure_type_a,
    x_k_measure_type_c,
    x_k_type_a,
    x_k_type_c,
)
from .fq import (
    Factorization,
    FieldContext,
    FqPoly,
    conjugate_poly,
    count_irreducibles,
    count_self_conjugate_irreducibles,
    factor,
    make_field,
    sl_class_measure,
    sp_class_measure,
)
from .series import (
    TruncatedSeries,
    reiner_identity_check,
    rhs_type_c_product,
    rhs_unimodal_product,
)
from .shuffles import (
    affine_a_2shuffle_distribution,
    affine_a_2shuffle_sample,
    affine_c_shuffle_distribution,
    affine_c_shuffle_sample,
    riffle_distribution,
    riffle_sample,
    theorem_tv_check,
    total_variation,
)
from .unimodal import (
    CycleShape,
    cycle_shape,
    enumerate_unimodal,
    eta_map,
    gannon_histogram,
    is_unimodal,
    transitive_unimodal_count,
)
from .harness import verify_all, verify_dmp, verify_reciprocity
from .report import VerificationReport

__version__ = "0.1.0"
