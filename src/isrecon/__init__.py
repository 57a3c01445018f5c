"""Independent-set reconfiguration on cographs and chordal compositions.

Public surface: the graph/cotree types, the polynomial decision procedure
(`decide`, `tj_decide`), witness construction (`build_witness`), and the
brute-force oracle for verification on small instances.
"""

from .chordal import (EliminationOrdering, alpha_chordal, chordality,
                      is_dominating, leaf_reachable, leaf_ris_table)
from .cotree import Cotree, CotreeNode, build_maximal_cotree, is_cograph, realize
from .engine import (Decision, compute_freedom, compute_ris_tables, decide,
                     ris_join, ris_union, tj_decide)
from .errors import (InputError, InternalError, OracleCapacityError,
                     ReconError, UnreachableError, UnsupportedGraphClassError)
from .graph import Graph, VertexSet, is_independent
from .oracle import (gen_chordal, gen_cograph, gen_composed, oracle_accessible,
                     oracle_diameter, oracle_freedom, oracle_reach, oracle_ris)
from .witness import (TarSequence, accessible_subgraph, bridge_max_sets,
                      build_su_sequence, build_witness, sequence_to_max,
                      validate_tar_sequence)

__all__ = [
    "Graph", "VertexSet", "is_independent",
    "Cotree", "CotreeNode", "build_maximal_cotree", "realize", "is_cograph",
    "EliminationOrdering", "chordality", "alpha_chordal", "is_dominating",
    "leaf_reachable", "leaf_ris_table",
    "Decision", "ris_union", "ris_join",
    "compute_ris_tables", "compute_freedom", "decide", "tj_decide",
    "TarSequence", "accessible_subgraph", "build_su_sequence",
    "sequence_to_max", "bridge_max_sets", "build_witness",
    "validate_tar_sequence",
    "oracle_reach", "oracle_freedom", "oracle_ris", "oracle_accessible",
    "oracle_diameter", "gen_cograph", "gen_chordal", "gen_composed",
    "ReconError", "InputError", "UnreachableError", "UnsupportedGraphClassError",
    "InternalError", "OracleCapacityError",
]

__version__ = "0.1.0"
