"""Exception and warning types shared by all modules."""


class GraphrotheError(Exception):
    """Base class for all library errors."""


# -- graph construction / domains ------------------------------------------

class NonPositiveWeight(GraphrotheError):
    pass


class NonPositiveMeasure(GraphrotheError):
    pass


class SelfLoop(GraphrotheError):
    pass


class DuplicateEdge(GraphrotheError):
    pass


class IsolatedVertex(GraphrotheError):
    pass


class DisconnectedGraph(GraphrotheError):
    pass


class InvalidGraphData(GraphrotheError):
    """Structurally malformed graph input (unknown vertex, bad record, ...)."""


class EmptyScope(GraphrotheError):
    pass


class EmptyOmega(GraphrotheError):
    pass


class EmptyInterior(GraphrotheError):
    """Raised when an operation requires a nonempty interior."""


class EmptyInteriorWarning(UserWarning):
    """A domain with empty interior was built; it cannot pose a problem."""


class SeedOutsideDomain(GraphrotheError):
    pass


class UnmaterializedNeighbor(GraphrotheError):
    """A vertex with a truncated neighborhood was used in a local operator."""


# -- calculus ---------------------------------------------------------------

class InvalidQ(GraphrotheError):
    pass


class NotDirichletAdmissible(GraphrotheError):
    """Field does not vanish identically outside the domain interior."""


class DomainMismatch(GraphrotheError):
    pass


# -- solvers ----------------------------------------------------------------

class NonConvergence(GraphrotheError):
    """Iteration budget exhausted before reaching the residual target."""


class SolverBreakdown(GraphrotheError):
    pass


class StiffnessFailure(GraphrotheError):
    """Explicit integrator step size underflowed its budget."""


class TimeOutOfRange(GraphrotheError):
    pass


class AmbiguousTable(GraphrotheError):
    """Two tabulated forcing times match one time."""


class InsufficientSamples(GraphrotheError):
    pass


class GraphMismatch(GraphrotheError):
    pass


# -- CLI --------------------------------------------------------------------

class ConfigError(GraphrotheError):
    """Invalid run configuration (exit code 2)."""


class SolveError(GraphrotheError):
    """A solver failed during an orchestrated run (exit code 3)."""


class IoError(GraphrotheError):
    """Missing or unreadable/unwritable file (exit code 4)."""
