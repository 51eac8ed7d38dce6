"""Exact-arithmetic invariants of divisor classes on blow-ups of P^n.

The package computes positivity and speciality data for classes
d*H - sum(m_i E_i) on the blow-up of projective space at points in very
general position: intersection numbers, virtual dimensions, Weyl-group
reduction and the (-1)-class orbit, nef screening, genus bounds on
orthogonal complements, an asymptotic-speciality classifier with
certificates, and a finite-field interpolation oracle for h^0 of
fat-point linear systems.
"""

from .lattice import (
    BlowupContext,
    CurveClass,
    DivisorClass,
    QuadraticNumber,
    arithmetic_genus,
    canonical_class,
    class_from_json,
    class_to_json,
    curve_e,
    curve_h,
    divisor_to_curve,
    curve_to_divisor,
    edim,
    exceptional,
    gram_matrix,
    hyperplane,
    in_positive_cone,
    line_through,
    minus_k,
    pair,
    pair_div_curve,
    primitive_integer_model,
    rr_certifies_effective,
    vdim,
    vdim_quadratic,
)
from .weyl import (
    ReductionReport,
    ReductionStatus,
    Root,
    StandardClassKind,
    blocking_divisor,
    cremona_root,
    difference_root,
    fundamental_roots,
    is_minus_one_class,
    minus_one_orbit,
    minus_one_orbit_representatives,
    reduce_class,
    reflect,
    standard_class_kind,
)
from .positivity import (
    ConeMembership,
    Effectivity,
    EffectivityReport,
    GramBasis,
    NefScreenReport,
    OrthogonalGenusReport,
    OrthogonalGenusVerdict,
    QuadraticFamilyReport,
    ScreeningError,
    SpecialityTag,
    SpecialityVerdict,
    classify_asymptotic,
    effectivity_verdict,
    is_nef_few_points,
    nef_cone_membership,
    null_class_extension,
    orthogonal_genus_candidates,
    orthogonal_genus_upper,
    orthogonal_gram,
    screen_nef_surface,
    speciality_witness,
)
from .oracle import (
    InterpolationResult,
    OracleBudget,
    PointConfig,
    conditions_matrix,
    h0_at_config,
    linear_system_dimension,
    p4_quadric_table,
    rank_mod_p,
    sample_cubic_torsion,
    sample_general,
    sample_nodal_quartic,
    torsion_parity_table,
)

__version__ = "0.1.0"
