"""List-coloring toolkit for 2-colorable (and arbitrary) hypergraphs."""

from .choosability import (
    ChoosabilityVerdict,
    choice_number,
    chromatic_number,
    color_from_lists,
    is_f_choosable,
)
from .core import (
    Hypergraph,
    ListAssignment,
    Metrics,
    bipartition_is_valid,
    find_bipartition,
    gen_complete,
    gen_fano,
    gen_k_regular_k_uniform,
    is_proper,
    metrics,
    orientation_is_valid,
    parse_hypergraph,
    serialize_hypergraph,
    validate,
    vertex_counts,
)
from .degree_constrained import (
    build_selection,
    list_color_gk,
)
from .dense import (
    DenseExperimentReport,
    complete_proper_exists,
    cond_corollary,
    cond_ert_upper,
    expected_counts,
    feasibility_margin,
    lower_bound_experiment,
    random_split_color_report,
    split_experiment,
    split_probability,
)
from .density import (
    Bounds,
    bound_gk,
    bounds,
    density_exact,
    density_flow,
)
from .errors import (
    GuardExceededError,
    InputError,
    PreconditionError,
    TheoremContradictionError,
)
from .nullstellensatz import (
    coefficient_count,
    crossing_tree,
    monomial_coefficient,
)
from .orientation import (
    hall_orientation,
    list_color_sparse,
    min_orientation,
    reduce_to_pairgraph,
)

__version__ = "0.1.0"
