"""Sequential three-way group decision-making for double hierarchy
hesitant fuzzy linguistic evaluations."""

from .linguistic import (
    DHHFLE,
    DHLT,
    DHLTScale,
    HFEValue,
    LengthMismatchError,
    ScaleRangeError,
    add,
    complement,
    euclid_distance,
    f_inverse,
    f_scalar,
    from_hfe,
    linguistic_expected_value,
    mirror,
    single,
    superior_gradus,
    superior_gradus_array,
    superior_gradus_term,
    to_hfe,
)
from .syntax import CodeBook, TermSyntaxError, format_dhhfle, format_term, parse_dhhfle
from .tables import (
    AttributeSpec,
    ExpertDecisionTable,
    FusedDecisionTable,
    NestedSubsets,
    build_nested_subsets,
    extract,
    fuse_dhhflmwa,
    make_table,
    orient_to_concept,
    renormalize_weights,
)
from .neighborhood import (
    ConceptMembership,
    NeighborhoodGranule,
    SimilarityMatrix,
    build_similarity_matrix,
    concept_membership,
    conditional_probability,
    cut_granules,
    granule_statistics,
    kernel_rows,
    kernel_similarity,
    membership_degrees,
    shared_granule_statistics,
    similarity_blocks,
)
from .regret import (
    CellValues,
    comprehensive_utilities,
    comprehensive_utility,
    direct_simplified_gains,
    perceived_utility_units,
    regret_rejoice,
    utility,
)
from .engine import (
    DecisionReport,
    EngineParams,
    GranularLevel,
    LevelConfig,
    SweepMemo,
    baseline_full_fusion,
    classify,
    expected_perceived_utility,
    rank,
    run_level,
    run_sequential,
    sweep_outcomes,
    walk,
)
from .caseio import CaseFile, CaseFormatError, ParamsFile, load_case, load_params

__all__ = [name for name in dir() if not name.startswith("_")]
