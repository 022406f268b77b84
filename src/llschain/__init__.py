"""Combinatorics of refined limit linear series on chains of elliptic curves.

Vanishing tables, their tensor squares, unimaginative multidegrees, the
section-dropping independence certificate, and exhaustive or sampled
verification of whole (g, r, d) families with defect budget at most 2.
"""

from .chain import (
    ChainCurve,
    ChainError,
    build_elliptic_chain,
    is_left_weighted,
    left_weighted_weights,
)
from .drop import (
    DropCertificate,
    DropContext,
    DropResult,
    MalformedCertificate,
    drop_all,
    replay_certificate,
)
from .enumeration import (
    EnumerationError,
    TableEnumerator,
    count_small_oracle,
)
from .fixtures import g22_example
from .multidegree import (
    MultidegreeError,
    ThresholdNotAttained,
    TwistVector,
    component_degrees,
    default_multidegree,
    default_threes,
    degree_three_columns,
    gamma_profile,
    is_unimaginative,
    twist_from_threes,
    twist_vanishing_components,
)
from .table import (
    CanonicalOrderViolation,
    DegeneracyClass,
    DuplicateVanishing,
    GenericityViolation,
    InvalidSeries,
    LambdaSequence,
    NegativeOrder,
    RefinednessViolation,
    RhoBreakdown,
    SumExceedsD,
    Swap,
    TableError,
    VanishingTable,
    classify_degeneracy,
    exceptional_rows,
    find_swaps,
    lambda_sequence,
    rho_accounting,
    table_from_columns,
    table_from_lambda,
    validate_table,
)
from .tensor import (
    PotentialSection,
    TensorTable,
    build_tensor_table,
    extract_potential_sections,
    pair_list,
)
from .verify import (
    FamilyConfig,
    Report,
    Verdict,
    verify_family,
    verify_table,
)

__version__ = "0.1.0"
