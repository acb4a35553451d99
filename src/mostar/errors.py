"""Exception hierarchy shared by every module of the package."""


class GraphError(ValueError):
    """Base class for graph construction and validation failures."""


class SelfLoop(GraphError):
    def __init__(self, vertex: int):
        super().__init__(f"self-loop at vertex {vertex}")
        self.vertex = vertex


class DuplicateEdge(GraphError):
    def __init__(self, u: int, v: int):
        super().__init__(f"duplicate edge ({u}, {v})")
        self.edge = (u, v)


class VertexOutOfRange(GraphError):
    def __init__(self, vertex: int, n: int):
        super().__init__(f"vertex {vertex} out of range for n={n}")
        self.vertex = vertex
        self.n = n


class EdgeNotInGraph(GraphError):
    def __init__(self, u: int, v: int):
        super().__init__(f"edge ({u}, {v}) not in graph")
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
