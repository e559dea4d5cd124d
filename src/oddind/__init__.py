"""Exact toolkit for odd independence and strong odd coloring of graphs."""

from .graphs import (
    BadParam,
    Graph,
    IndexOutOfRange,
    SelfLoop,
    TooLarge,
    VertexSet,
    cartesian_product,
    complement,
    disjoint_union,
    from_edge_list,
    join,
    square,
    subdivide_all_edges,
    t_copies,
)
from .formats import MalformedGraph6, parse_dimacs, parse_graph6, to_dimacs, to_graph6
from .results import BudgetExceeded, SolveResult, default_budget
from .independence import (
    PairClassification,
    alpha,
    alpha_od,
    alpha_od_bounded,
    alpha_od_bruteforce,
    alpha_square,
    is_independent,
    is_odd_independent,
    odd_profile,
    pair_classification,
)
from .coloring import (
    AlphaTooLarge,
    Coloring,
    chi_so_alpha2,
    chi_so_exact,
    chi_so_upper_from_partition,
    chi_square,
    chromatic_number,
    cube_chi_so,
    is_proper_coloring,
    is_strong_odd_coloring,
)
from .matching import Matching, has_augmenting_path, is_valid_matching, maximum_matching
from .bounds import (
    BoundEntry,
    BoundReport,
    NotTriangleFree,
    bound_report,
    classify_cotrianglefree,
    cubic_census,
    kneser_alpha_criterion,
    moore_exclusion_check,
    random_connected_graph,
)
from .constructions import (
    BadAutomorphism,
    BadH,
    NotOIS,
    construct_gk2_ois,
    construct_mu_ois,
    cube_layer_ois,
    extend_to_equal,
    flip_last_coordinate,
    hs_15_ois,
    hs_rotation_classes,
    q8_112_ois,
    q8_turan_ois,
)
from . import generators

__version__ = "0.1.0"
