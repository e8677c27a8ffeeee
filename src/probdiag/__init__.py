"""Commutative diagrams of finite probability spaces: entropy distances,
coupling witnesses, randomized arrow contraction and arrow expansion."""

__version__ = "0.1.0"

from .categories import (
    ANCESTORS,
    DESCENDANTS,
    IndexingCategory,
    SubCategory,
    build_category,
    collapse_object_pair,
    cone_members,
    least_common_ancestor,
    standard_category,
)
from .spaces import (
    ProbSpace,
    Reduction,
    dirac,
    entropy,
    lambda_space,
    pushforward,
    special_space,
    tensor_spaces,
    tv_distance,
    uniform,
)
from .diagrams import (
    CoordMeta,
    Diagram,
    FanClassification,
    FanIndices,
    FanOfDiagrams,
    arrow_collapse,
    classify_fan,
    condition_diagram,
    cone_diagram,
    constant_diagram,
    coordinate_diagram,
    coupling_fan,
    diagonal_fan,
    entropy_vector,
    joint_space,
    make_diagram,
    sub_diagram,
    tensor_diagrams,
    tensor_fan,
)
from .automorphisms import AnalyzeReport, analyze, diagram_isomorphic, find_diagram_morphism
from .distances import (
    CouplingWitness,
    DistributionOnSetDiagram,
    IkdBounds,
    LocalDecomposition,
    LocalEstimate,
    SetDiagram,
    entropy_gap,
    ikd_bounds,
    kd_of_fan,
    local_decomposition,
    local_estimate_bound,
    local_estimate_witness,
    min_entropy_coupling,
    slicing_rhs,
)
from .contraction import (
    ContractionParams,
    ContractionRun,
    ExtendedFan,
    TailBound,
    TailCheck,
    contract_once,
    default_parameters,
    extend_admissible_fan,
    monte_carlo_tails,
    recover_collapsed_diagram,
    tail_bounds,
)
from .expansion import (
    ExpansionReport,
    ExpansionSpec,
    expand_diagram,
    strip_expansion,
    verify_expansion,
)
from .tropical_bounds import (
    EpsilonSchedule,
    TropicalBoundParams,
    aep_rate,
    chain_cone_check,
    contraction_epsilons,
    min_n_for_epsilon,
    normalized_power_entropy,
    phi_defect,
    phi_dominance_threshold,
    phi_dominates_rate_term,
)
from . import errors, fixtures, jsonio, sampling
