"""Mostar, edge-Mostar and Wiener indices of polymer and cactus-chain graphs."""

from .errors import (DegenerateHandles, DuplicateEdge, EdgeNotInGraph,
                     GraphError, MismatchedConstruction, NotATree,
                     NotConnected, SelfLoop, TooFewMonomers,
                     UnsupportedCombination, VertexOutOfRange)
from .families import (CHAIN_FAMILIES, FAMILY_NAMES, FamilyGraph, FamilySpec,
                       family_counts, generate)
from .formats import dump_graph, parse_graph
from .formulas import (BOUND_KINDS, BoundsReport, check_bounds, formula_value,
                       has_formula)
from .graphs import (Blocks, blocks, complete_graph, cycle_graph, distance_rows,
                     from_edge_list, is_connected, path_graph)
from .indices import (EDGE_MOSTAR, INDEX_NAMES, MOSTAR, WIENER,
                      EdgeOrientationCounts, IndexReport, OrientationCounts,
                      edge_orientation, index_report, index_reports,
                      vertex_orientation)
from .polymer import (KINDS, CompositionResult, MonomerHandle, PolymerSpec,
                      compose, spec_from_json, spec_to_dict)

__version__ = "0.1.0"
