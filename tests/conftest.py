"""Shared fixtures for the test-suite.

The expensive fixtures (anything that invokes the MILP solver on a full
flow) are session-scoped so the cost is paid once; all assertions about the
resulting layouts reuse the same solved object.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.circuit import (
    LayoutArea,
    MicrostripNet,
    Netlist,
    Terminal,
    make_capacitor,
    make_dc_pad,
    make_rf_pad,
    make_transistor,
    netlist_to_dict,
)
from repro.core import PILPConfig
from repro.core.config import PhaseSettings
from repro.geometry import ManhattanPath, Point
from repro.layout import Layout, Placement, RoutedMicrostrip
from repro.tech import CMOS90


# --------------------------------------------------------------------------- #
# netlists
# --------------------------------------------------------------------------- #


def write_netlist(netlist: Netlist, path: Path) -> Path:
    """Write ``netlist`` as the JSON document ``load_netlist`` reads."""
    path.write_text(json.dumps(netlist_to_dict(netlist)), encoding="utf-8")
    return path


def build_tiny_netlist(area: LayoutArea | None = None) -> Netlist:
    """Two pads, one transistor, two microstrips — the smallest real circuit."""
    devices = [
        make_rf_pad("P_IN"),
        make_rf_pad("P_OUT"),
        make_transistor("M1"),
    ]
    nets = [
        MicrostripNet(
            "ms_in", Terminal("P_IN", "SIG"), Terminal("M1", "G"), target_length=250.0
        ),
        MicrostripNet(
            "ms_out", Terminal("M1", "D"), Terminal("P_OUT", "SIG"), target_length=300.0
        ),
    ]
    return Netlist(
        "tiny",
        devices,
        nets,
        area or LayoutArea(400.0, 300.0),
        technology=CMOS90,
        operating_frequency_ghz=94.0,
    )


def build_small_netlist(area: LayoutArea | None = None) -> Netlist:
    """A five-net, six-device single-stage circuit with a bias branch."""
    devices = [
        make_rf_pad("P_IN"),
        make_rf_pad("P_OUT"),
        make_dc_pad("P_VDD"),
        make_transistor("M1"),
        make_transistor("M2"),
        make_capacitor("C1"),
    ]
    nets = [
        MicrostripNet("ms1", Terminal("P_IN", "SIG"), Terminal("M1", "G"), target_length=260.0),
        MicrostripNet("ms2", Terminal("M1", "D"), Terminal("C1", "P1"), target_length=180.0),
        MicrostripNet("ms3", Terminal("C1", "P2"), Terminal("M2", "G"), target_length=200.0),
        MicrostripNet("ms4", Terminal("M2", "D"), Terminal("P_OUT", "SIG"), target_length=280.0),
        MicrostripNet("ms5", Terminal("P_VDD", "SIG"), Terminal("M1", "D"), target_length=220.0),
    ]
    return Netlist(
        "small5",
        devices,
        nets,
        area or LayoutArea(600.0, 450.0),
        technology=CMOS90,
        operating_frequency_ghz=60.0,
    )


@pytest.fixture
def tiny_netlist() -> Netlist:
    return build_tiny_netlist()


@pytest.fixture
def small_netlist() -> Netlist:
    return build_small_netlist()


@pytest.fixture(scope="session")
def session_tiny_netlist() -> Netlist:
    return build_tiny_netlist()


@pytest.fixture(scope="session")
def session_small_netlist() -> Netlist:
    return build_small_netlist()


# --------------------------------------------------------------------------- #
# configurations
# --------------------------------------------------------------------------- #


def build_test_config() -> PILPConfig:
    """A configuration small enough for CI: short limits, few iterations."""
    return PILPConfig.fast().with_updates(
        phase1=PhaseSettings(time_limit=16.0, mip_gap=0.1),
        phase2=PhaseSettings(time_limit=16.0, mip_gap=0.1),
        phase3=PhaseSettings(time_limit=12.0, mip_gap=0.1),
        exact=PhaseSettings(time_limit=25.0, mip_gap=0.05),
        max_refinement_iterations=3,
    )


@pytest.fixture
def test_config() -> PILPConfig:
    return build_test_config()


@pytest.fixture(scope="session")
def session_config() -> PILPConfig:
    return build_test_config()


# --------------------------------------------------------------------------- #
# solved flows (session scoped — these invoke the MILP solver)
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="session")
def exact_tiny_result(session_tiny_netlist, session_config):
    """The exact (Section 4) flow solved once on the tiny circuit."""
    from repro.core import ExactLayoutGenerator

    return ExactLayoutGenerator(session_config).generate(session_tiny_netlist)


@pytest.fixture(scope="session")
def pilp_small_result(session_small_netlist, session_config):
    """The progressive flow solved once on the five-net circuit."""
    from repro.core import PILPLayoutGenerator

    return PILPLayoutGenerator(session_config).generate(session_small_netlist)


@pytest.fixture(scope="session")
def manual_small_result(session_small_netlist):
    """The manual-like baseline run once on the five-net circuit."""
    from repro.baselines import AnnealingConfig, ManualLikeFlow

    return ManualLikeFlow(AnnealingConfig(iterations=2500)).generate(session_small_netlist)


# --------------------------------------------------------------------------- #
# hand-built layouts (no solver involved)
# --------------------------------------------------------------------------- #


@pytest.fixture
def hand_layout(tiny_netlist) -> Layout:
    """A hand-constructed, DRC-relevant layout of the tiny netlist."""
    layout = Layout(tiny_netlist)
    layout.set_placement(Placement("P_IN", Point(30.0, 150.0)))
    layout.set_placement(Placement("P_OUT", Point(370.0, 150.0)))
    layout.set_placement(Placement("M1", Point(200.0, 150.0)))
    gate = layout.pin_position("M1", "G")
    drain = layout.pin_position("M1", "D")
    pad_in = layout.pin_position("P_IN", "SIG")
    pad_out = layout.pin_position("P_OUT", "SIG")
    layout.set_route(
        RoutedMicrostrip(
            "ms_in",
            ManhattanPath([pad_in, Point(gate.x, pad_in.y), gate], width=10.0),
        )
    )
    layout.set_route(
        RoutedMicrostrip(
            "ms_out",
            ManhattanPath([drain, Point(pad_out.x, drain.y), pad_out], width=10.0),
        )
    )
    return layout


# --------------------------------------------------------------------------- #
# structured log capture
# --------------------------------------------------------------------------- #


@pytest.fixture
def log_lines():
    """Capture the structured log; yields a reader of the parsed lines."""
    from repro.obs.logging import LOG

    sink = io.StringIO()
    LOG.configure(stream=sink)
    yield lambda: [json.loads(line) for line in sink.getvalue().splitlines()]
    LOG.disable()
