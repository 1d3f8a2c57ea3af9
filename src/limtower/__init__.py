"""Limits and derived limits of towers of finitely generated abelian groups.

The tower layer computes transfinite image filtrations, Mittag-Leffler
status, lim and lim1, locality, and the epimorphic/limitless decomposition,
all read from the one `Filtration` that `stabilize` returns.
The walker layer rewrites elements of the bounded-height modules D'_alpha
and certifies their transfinite height filtration.
"""

from .groups import (
    FgAbGroup,
    GroupMap,
    Subgroup,
    TRIVIAL_GROUP,
    direct_sum,
    fg_group,
    identity_map,
    image,
    image_of_subgroup,
    kernel,
    multiplication_map,
    quotient_by_subgroup,
    smith_normal_form,
    zero_map,
)
from .ordinals import (
    OMEGA,
    ONE,
    ZERO,
    DegLexIndex,
    OrdinalCNF,
    deglex_compare,
    ord_add,
    ord_compare,
    ord_from_int,
    parse_ordinal,
)
from .towers import (
    AnalysisReport,
    ConstantEndo,
    DEFAULT_HORIZON,
    Decomposition,
    Filtration,
    FiltrationStage,
    LengthValue,
    Lim1Status,
    MLStatus,
    Tower,
    TowerMorphism,
    ZeroTail,
    analyze,
    constant_tower,
    image_tower,
    is_epimorphic_tower,
    is_null_tower,
    iterate_image,
    limit_of_towers,
    multiplication_tower,
    null_extension,
    null_tower,
    quotient_tower,
    shift,
    stabilize,
    subtower,
    truncated_constant_tower,
    truncation_adjunction_check,
    window_difference_map,
    window_shift_map,
    zero_tower,
)
from .walker import (
    WalkerContext,
    WalkerElement,
    add,
    format_element,
    height,
    in_p_beta,
    in_relations,
    mul_by_p,
    mul_p_height_step,
    normalize,
    parse_element,
    relation_element,
    scalar_mul,
    ulm_probe,
)
from .serialize import (
    SCHEMA_VERSION,
    analysis_report_to_json,
    tower_from_json,
    tower_to_json,
)

__version__ = "0.1.0"
