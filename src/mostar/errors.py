"""Exception hierarchy shared by every module of the package."""

import sys


def quote(value, fmt=repr) -> str:
    """``fmt(value)`` for an error message, cut to its first 60 characters
    and ``...``, so a line that quotes an input stays short; an int with
    more digits than ``str`` converts is named by that limit."""
    try:
        text = fmt(value)
    except ValueError:  # an int beyond sys.get_int_max_str_digits()
        return f"<an integer of more than {sys.get_int_max_str_digits()} digits>"
    return text if len(text) <= 60 else text[:60] + "..."


class GraphError(ValueError):
    """Base class for graph construction and validation failures."""


class SelfLoop(GraphError):
    def __init__(self, vertex: int):
        super().__init__(f"self-loop at vertex {quote(vertex, str)}")
        self.vertex = vertex


class DuplicateEdge(GraphError):
    def __init__(self, u: int, v: int):
        super().__init__(f"duplicate edge ({quote(u, str)}, {quote(v, str)})")
        self.edge = (u, v)


class VertexOutOfRange(GraphError):
    def __init__(self, vertex: int, n: int):
        super().__init__(f"vertex {quote(vertex, str)} out of range for n={quote(n, str)}")
        self.vertex = vertex
        self.n = n


class EdgeNotInGraph(GraphError):
    def __init__(self, u: int, v: int):
        super().__init__(f"edge ({quote(u, str)}, {quote(v, str)}) not in graph")
        self.edge = (u, v)


class NotConnected(GraphError):
    """Raised when an operation that assumes connectivity meets a disconnected graph."""


class DegenerateHandles(GraphError):
    """Raised when an interior chain monomer has identical attachment vertices."""


class TooFewMonomers(GraphError):
    """Raised when a circuit is requested with fewer than three monomers."""


class NotATree(GraphError):
    """Raised when tree-attachment edges do not form a tree over the monomers."""


class UnsupportedCombination(GraphError):
    """Raised when no closed form exists for a family/index combination."""


class MismatchedConstruction(GraphError):
    """Raised when a bound is checked against an incompatible composition kind."""
