"""Technology description: the design rules driving layout generation.

The paper's problem statement (Section 3) fixes, per technology:

* the ground-plane distance ``t`` (about 5 µm in 90 nm CMOS), which sets the
  microstrip-to-anything spacing rule of ``2t``,
* the microstrip width,
* the equivalent-length compensation ``δ`` of a smoothed bend,
* the layout area available for the circuit.

:class:`Technology` bundles these values together with a few parameters used
by the RF substrate (substrate permittivity, metal conductivity) so that the
same object drives both the layout optimiser and the S-parameter simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from repro.errors import TechnologyError


@dataclass(frozen=True)
class Technology:
    """Design rules and physical parameters of a thin-film microstrip process.

    Attributes
    ----------
    name:
        Identifier of the process (e.g. ``"cmos90"``).
    ground_plane_distance:
        Dielectric thickness ``t`` between the microstrip metal and the
        Metal-1 ground plane, in micrometres.  The paper quotes ~5 µm for a
        90 nm CMOS back end.
    microstrip_width:
        Default microstrip width in micrometres.
    bend_compensation:
        Equivalent-length change ``δ`` of a smoothed (diagonal) 90° bend in
        micrometres.  Positive values mean the smoothed bend is electrically
        longer than the corner-to-corner Manhattan length.
    spacing_factor:
        The spacing rule expressed as a multiple of ``ground_plane_distance``
        (the paper uses 2: microstrips further apart than ``2t`` do not
        couple appreciably).
    min_segment_length:
        Minimum usable segment length in micrometres; shorter segments are
        treated as degenerate by the routing model.
    substrate_permittivity:
        Relative permittivity of the SiO2 inter-metal dielectric (RF model).
    metal_conductivity:
        Conductivity of the microstrip metal in S/m (RF model).
    metal_thickness:
        Thickness of the top (microstrip) metal in micrometres (RF model).
    loss_tangent:
        Dielectric loss tangent of the SiO2 stack (RF model).
    """

    name: str = "cmos90"
    ground_plane_distance: float = 5.0
    microstrip_width: float = 10.0
    bend_compensation: float = -4.0
    spacing_factor: float = 2.0
    min_segment_length: float = 1.0
    substrate_permittivity: float = 4.0
    metal_conductivity: float = 3.0e7
    metal_thickness: float = 3.0
    loss_tangent: float = 0.004

    def __post_init__(self) -> None:
        if self.ground_plane_distance <= 0:
            raise TechnologyError("ground_plane_distance must be positive")
        if self.microstrip_width <= 0:
            raise TechnologyError("microstrip_width must be positive")
        if self.spacing_factor <= 0:
            raise TechnologyError("spacing_factor must be positive")
        if self.min_segment_length < 0:
            raise TechnologyError("min_segment_length must be non-negative")
        if self.substrate_permittivity < 1.0:
            raise TechnologyError("substrate_permittivity must be >= 1")
        if self.metal_conductivity <= 0:
            raise TechnologyError("metal_conductivity must be positive")
        if self.metal_thickness <= 0:
            raise TechnologyError("metal_thickness must be positive")
        if self.loss_tangent < 0:
            raise TechnologyError("loss_tangent must be non-negative")

    # ------------------------------------------------------------------ #

    @property
    def spacing(self) -> float:
        """Required clear distance between microstrips/devices (``2t``)."""
        return self.spacing_factor * self.ground_plane_distance

    @property
    def clearance(self) -> float:
        """Bounding-box expansion per side.

        Expanding each outline by ``t`` on every side (Figure 2(a)) makes two
        expanded boxes overlap exactly when the original outlines are closer
        than ``2t``, so the spacing rule becomes plain non-overlap.
        """
        return self.spacing / 2.0

    def equivalent_length(self, geometric_length: float, bends: int) -> float:
        """Equivalent electrical length for a path with ``bends`` corners."""
        if bends < 0:
            raise TechnologyError(f"bend count must be non-negative, got {bends}")
        return geometric_length + bends * self.bend_compensation

    def with_updates(self, **changes) -> "Technology":
        """Return a copy with selected fields replaced."""
        return replace(self, **changes)

    def as_dict(self) -> Dict[str, float | str]:
        """Serialise to a plain dictionary (JSON-friendly)."""
        return {
            "name": self.name,
            "ground_plane_distance": self.ground_plane_distance,
            "microstrip_width": self.microstrip_width,
            "bend_compensation": self.bend_compensation,
            "spacing_factor": self.spacing_factor,
            "min_segment_length": self.min_segment_length,
            "substrate_permittivity": self.substrate_permittivity,
            "metal_conductivity": self.metal_conductivity,
            "metal_thickness": self.metal_thickness,
            "loss_tangent": self.loss_tangent,
        }

    @staticmethod
    def from_dict(data: Dict[str, float | str]) -> "Technology":
        """Deserialise from :meth:`as_dict` output."""
        known = {
            "name",
            "ground_plane_distance",
            "microstrip_width",
            "bend_compensation",
            "spacing_factor",
            "min_segment_length",
            "substrate_permittivity",
            "metal_conductivity",
            "metal_thickness",
            "loss_tangent",
        }
        unknown = set(data) - known
        if unknown:
            raise TechnologyError(f"unknown technology fields: {sorted(unknown)}")
        return Technology(**data)  # type: ignore[arg-type]


#: The 90 nm CMOS thin-film microstrip technology the paper's circuits use.
CMOS90 = Technology(name="cmos90")

#: A denser 65 nm-flavoured variant used by some tests and examples to show
#: that the flow is technology-agnostic.
CMOS65 = Technology(
    name="cmos65",
    ground_plane_distance=4.0,
    microstrip_width=8.0,
    bend_compensation=-3.2,
    metal_thickness=2.5,
)


def default_technology() -> Technology:
    """Return the default (90 nm CMOS) technology."""
    return CMOS90
