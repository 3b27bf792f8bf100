"""The MILP solver: HiGHS on SciPy's bundled binding."""

from repro.ilp.backends.highs import HighsBackend

__all__ = ["HighsBackend"]
