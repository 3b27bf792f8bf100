"""Unit tests for the unit conversion and the exception hierarchy."""

import pytest

from repro import errors, units


class TestUnits:
    def test_microns_to_meters(self):
        assert units.microns_to_meters(1500.0) == pytest.approx(1.5e-3)

    def test_free_space_impedance(self):
        assert units.ETA_0 == pytest.approx(376.73, abs=0.01)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exception",
        [
            errors.ModelError,
            errors.SolverError,
            errors.InfeasibleModelError,
            errors.GeometryError,
            errors.NetlistError,
            errors.TechnologyError,
            errors.LayoutError,
            errors.RoutingError,
            errors.RFError,
            errors.ExperimentError,
            errors.ConfigurationError,
        ],
    )
    def test_all_derive_from_repro_error(self, exception):
        assert issubclass(exception, errors.ReproError)
        with pytest.raises(errors.ReproError):
            raise exception("boom")

    def test_infeasible_is_a_solver_error(self):
        assert issubclass(errors.InfeasibleModelError, errors.SolverError)
