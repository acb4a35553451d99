"""Mostar, edge-Mostar and Wiener indices of polymer and cactus-chain graphs."""

from .errors import (DegenerateHandles, DuplicateEdge, EdgeNotInGraph,
                     GraphError, MismatchedConstruction, NotATree,
                     NotConnected, SelfLoop, TooFewMonomers,
                     UnsupportedCombination, VertexOutOfRange)
from .families import (CHAIN_FAMILIES, FAMILY_NAMES, FamilyGraph, FamilySpec,
                       family_counts, generate)
from .formats import (dump_graph, emit_edge_list, emit_graph_json,
                      parse_edge_list, parse_graph, parse_graph_json)
from .formulas import (BOUND_KINDS, BoundsReport, MonomerStats, check_bounds,
                       formula_value, has_formula, lower_bound_link2,
                       lower_bound_link_chain, superadditive_bound,
                       upper_bound_bouquet, upper_bound_chain,
                       upper_bound_circuit, upper_bound_link)
from .graphs import (Blocks, Graph, blocks, complete_graph, cycle_graph,
                     distance_rows, from_edge_list, is_connected, path_graph)
from .indices import (EDGE_MOSTAR, INDEX_NAMES, MOSTAR, WIENER,
                      EdgeOrientationCounts, IndexReport, OrientationCounts,
                      edge_mostar_index, edge_orientation, index_report,
                      index_reports, mostar_index, vertex_orientation,
                      wiener_index)
from .polymer import (KINDS, CompositionResult, MonomerHandle, PolymerSpec,
                      compose, spec_from_dict, spec_from_json, spec_to_dict)

__version__ = "0.1.0"
