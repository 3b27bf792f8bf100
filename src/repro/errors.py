"""Exception hierarchy shared across the repro package.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch library failures without also swallowing programming errors
such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ModelError(ReproError):
    """Raised when an optimisation model is built or used incorrectly.

    Examples include adding a variable twice, referencing a variable that
    belongs to a different model, or requesting the value of a variable
    before the model has been solved.
    """


class SolverError(ReproError):
    """Raised when the HiGHS solver fails unexpectedly.

    This covers failures around the bundled HiGHS binding (the binding is
    missing, an option is unknown, or HiGHS rejects the options or the
    model), not ordinary infeasible or unbounded outcomes, which are
    reported through the solution status instead.
    """


class InfeasibleModelError(SolverError):
    """Raised when a caller requires a feasible solution but none exists."""


class GeometryError(ReproError):
    """Raised for invalid geometric objects or operations.

    Examples include rectangles with negative dimensions or paths with
    fewer than two points.
    """


class NetlistError(ReproError):
    """Raised when a circuit netlist is malformed or inconsistent.

    Examples include microstrips referencing unknown devices or pins,
    duplicate device names, or non-positive target lengths.
    """


class TechnologyError(ReproError):
    """Raised when technology / design-rule parameters are invalid."""


class LayoutError(ReproError):
    """Raised when a layout object is inconsistent.

    Examples include routed microstrips whose nets are not part of the
    netlist, or placements referring to unknown devices.
    """


class RoutingError(ReproError):
    """Raised when a router cannot produce a legal routing."""


class RFError(ReproError):
    """Raised for invalid RF network operations.

    Examples include cascading networks with mismatched reference
    impedances or requesting S-parameters at non-positive frequencies.
    """


class ExperimentError(ReproError):
    """Raised when an experiment harness is misconfigured."""


class ConfigurationError(ReproError):
    """Raised when user-supplied configuration values are invalid."""
