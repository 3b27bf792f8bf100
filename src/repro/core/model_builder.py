"""The concurrent placement-and-routing ILP model (Section 4 of the paper).

:class:`RficModelBuilder` translates a netlist into a mixed integer linear
program following the paper's formulation:

* chain-point coordinates and four direction binaries per segment
  (equations (1)-(5)),
* linearised segment lengths (equation (6)) and geometric lengths (7),
* bend detection at chain points (equations (8)-(11)), plus the valid AND
  rows of :meth:`RficModelBuilder.add_bend_and_rows` in the exact model,
* equivalent length with the per-bend compensation δ (12) matched exactly
  (13) or softly via unmatched-length variables (23)-(25),
* pin connections (14) and pad boundary placement (15),
* pairwise non-overlap of expanded bounding boxes (16)-(20), relaxed by
  penalised overlap slack whenever lengths are soft,
* the bend-count objective (21) extended with the penalty terms (26).

The same builder serves the exact model (and its chain-point relaxations)
and all three phases of the progressive flow; :class:`BuildOptions` selects
which abstractions apply: blurred devices (Phase 1), soft length and overlap
together (the model (26) of Phases 1 and 2 and of the soft Phase-3
iterations), confinement windows and rotation freedom.

The large constraint families — segment bounding boxes, no-reversal rows,
bend detection and above all the pairwise non-overlap disjunctions, which
grow quadratically with block count — are emitted through the batched
compile path (:class:`repro.ilp.compile.ConstraintBatch`): rows are
accumulated as COO triplets and ingested in bulk, skipping the per-term
dictionary merges of the expression API.  The model stores both kinds as
the same compiled rows, and a batch row equals the row the expression API
lowers for the same constraint (a property test pins this down).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import ModelError
from repro.circuit.device import Device, Rotation
from repro.circuit.microstrip_net import MicrostripNet
from repro.circuit.netlist import Netlist
from repro.core.config import PILPConfig
from repro.geometry.path import ManhattanPath
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.ilp.compile import ColumnExpr, ConstraintBatch
from repro.ilp.expr import LinExpr, Variable, lin_sum
from repro.ilp.linearize import add_equal_if_rows, equal_if, exactly_one
from repro.ilp.model import Model
from repro.ilp.solution import Solution
from repro.layout.layout import Layout
from repro.layout.placement import Placement
from repro.layout.routing import RoutedMicrostrip

#: Directions in the order used throughout the module.
DIRECTIONS = ("u", "d", "l", "r")

#: Coordinate snapping tolerance when turning LP values into rectilinear
#: geometry (micrometres).
SNAP_TOL = 1.0e-3


# --------------------------------------------------------------------------- #
# options and variable bundles
# --------------------------------------------------------------------------- #


@dataclass
class BuildOptions:
    """Switches selecting which abstraction of the model to build.

    Every field is one that some phase sets to more than one value; the
    defaults build the exact Section-4 model.

    Attributes
    ----------
    blurred_devices:
        Phase-1 mode: devices are dimensionless points, microstrip ends
        attach to the device point, device outlines do not participate in
        the non-overlap constraints, and length targets are grown per
        equation (23).
    exact_lengths:
        Enforce equation (13) and the non-overlap rows (16)-(19) as hard
        constraints.  When ``False`` the model is the soft one of (26): the
        unmatched-length variables of (24)-(25) are created and every
        spacing pair gets overlap slack, both penalised in the objective.
    chain_point_counts:
        Number of chain points per microstrip; nets not listed fall back to
        the configuration default.
    device_windows:
        Per-device confinement rectangles for the device centre (τ_d windows
        of Phases 2/3).
    chain_windows:
        Per-(net, chain-point-index) confinement rectangles.
    rotatable_devices:
        Devices whose orientation the model may choose (Phase 3).
    fixed_rotations:
        Orientation to use for devices that are not free to rotate.
    extra_segment_margin:
        Additional bounding-box expansion applied to every segment (the
        aggressive reservation for blurred devices, Figure 8).
    forced_spacing_pairs:
        Pairs of *net names* whose mutual spacing exemption is revoked.
        Used by Phase-3 refinement to untangle nets whose centre lines were
        found crossing: the pair's segments get (softly slacked) separation
        rows even where the shared-terminal rule would normally exempt
        them, so the escalating overlap penalty pushes the crossing apart.
    """

    blurred_devices: bool = False
    exact_lengths: bool = True
    chain_point_counts: Mapping[str, int] = field(default_factory=dict)
    device_windows: Mapping[str, Rect] = field(default_factory=dict)
    chain_windows: Mapping[Tuple[str, int], Rect] = field(default_factory=dict)
    rotatable_devices: Set[str] = field(default_factory=set)
    fixed_rotations: Mapping[str, Rotation] = field(default_factory=dict)
    extra_segment_margin: float = 0.0
    forced_spacing_pairs: Set[frozenset] = field(default_factory=set)


@dataclass
class DeviceVars:
    """Decision variables describing one device."""

    name: str
    x: Variable
    y: Variable
    half_width: LinExpr
    half_height: LinExpr
    rotation_vars: Dict[Rotation, Variable] = field(default_factory=dict)
    fixed_rotation: Rotation = Rotation.R0
    boundary_sides: Dict[str, Variable] = field(default_factory=dict)

    @property
    def center(self) -> Tuple[LinExpr, LinExpr]:
        return (LinExpr.from_value(self.x), LinExpr.from_value(self.y))


@dataclass
class SegmentVars:
    """Decision variables describing one microstrip segment."""

    net_name: str
    index: int
    length: Variable
    directions: Dict[str, Variable]
    box_xl: Variable
    box_xr: Variable
    box_yl: Variable
    box_yu: Variable


@dataclass
class NetVars:
    """Decision variables describing one microstrip net."""

    name: str
    xs: List[Variable]
    ys: List[Variable]
    segments: List[SegmentVars]
    bend_vars: List[Variable]
    geometric_length: LinExpr = field(default_factory=LinExpr)
    equivalent_length: LinExpr = field(default_factory=LinExpr)
    bend_count: LinExpr = field(default_factory=LinExpr)
    length_slack: Optional[Variable] = None
    target_length: float = 0.0


@dataclass
class SpacingPairVars:
    """Decision variables of one pairwise non-overlap disjunction.

    Kept on the build result so warm starts can reconstruct consistent
    selector/slack values for a known geometric arrangement.
    """

    first: "_Block"
    second: "_Block"
    selectors: List[Variable]
    slack_h: Optional[Variable] = None
    slack_v: Optional[Variable] = None
    big_m: float = 0.0


@dataclass
class BuildResult:
    """The assembled model plus everything needed to read a layout back."""

    model: Model
    netlist: Netlist
    options: BuildOptions
    devices: Dict[str, DeviceVars]
    nets: Dict[str, NetVars]
    overlap_slacks: List[Variable] = field(default_factory=list)
    max_bend_var: Optional[Variable] = None
    max_length_slack_var: Optional[Variable] = None
    num_spacing_pairs: int = 0
    spacing_pairs: List[SpacingPairVars] = field(default_factory=list)

    # -- solution extraction -------------------------------------------------- #

    def extract_layout(self, solution: Solution, metadata: Optional[dict] = None) -> Layout:
        """Turn a feasible solution into a :class:`Layout`.

        Chain-point coordinates are snapped to the rectilinear skeleton the
        direction binaries describe, so tiny LP round-off never produces a
        non-Manhattan path.
        """
        if not solution.is_feasible:
            raise ModelError(
                f"cannot extract a layout from a {solution.status.value} solution"
            )
        layout = Layout(self.netlist, metadata=metadata or {})
        for name, device_vars in self.devices.items():
            center = Point(solution.value(device_vars.x), solution.value(device_vars.y))
            rotation = device_vars.fixed_rotation
            if device_vars.rotation_vars:
                for candidate, var in device_vars.rotation_vars.items():
                    if solution.value(var) > 0.5:
                        rotation = candidate
                        break
            layout.set_placement(Placement(name, center, rotation))

        for name, net_vars in self.nets.items():
            points = self._extract_points(solution, net_vars)
            width = self.netlist.microstrip_width(name)
            path = ManhattanPath(points, width=width)
            layout.set_route(RoutedMicrostrip(name, path))
        return layout

    def _extract_points(self, solution: Solution, net_vars: NetVars) -> List[Point]:
        """Read chain points and snap them onto the solved directions."""
        raw = [
            (solution.value(x), solution.value(y))
            for x, y in zip(net_vars.xs, net_vars.ys)
        ]
        snapped: List[Tuple[float, float]] = [raw[0]]
        for index, segment in enumerate(net_vars.segments):
            x_prev, y_prev = snapped[-1]
            x_next, y_next = raw[index + 1]
            direction = self._solved_direction(solution, segment)
            if direction in ("l", "r"):
                snapped.append((x_next, y_prev))
            elif direction in ("u", "d"):
                snapped.append((x_prev, y_next))
            else:  # pragma: no cover - defensive, direction always exists
                snapped.append((x_next, y_next))
        return [Point(x, y) for x, y in snapped]

    @staticmethod
    def _solved_direction(solution: Solution, segment: SegmentVars) -> str:
        for direction, var in segment.directions.items():
            if solution.value(var) > 0.5:
                return direction
        return "r"

    def length_errors(self, solution: Solution) -> Dict[str, float]:
        """Signed equivalent-length errors per net under a solution."""
        errors = {}
        for name, net_vars in self.nets.items():
            errors[name] = (
                solution.value(net_vars.equivalent_length) - net_vars.target_length
            )
        return errors

    def bend_counts(self, solution: Solution) -> Dict[str, int]:
        """Bend counts per net under a solution."""
        return {
            name: int(round(solution.value(net_vars.bend_count)))
            for name, net_vars in self.nets.items()
        }

    def total_overlap(self, solution: Solution) -> float:
        """Total residual overlap slack (zero when overlap is forbidden)."""
        return sum((solution.value(slack) for slack in self.overlap_slacks), 0.0)


# --------------------------------------------------------------------------- #
# internal helper describing one block that takes part in spacing constraints
# --------------------------------------------------------------------------- #


@dataclass
class _Block:
    """A rectangle (device outline or segment box) for non-overlap pairs."""

    label: str
    xl: LinExpr
    xr: LinExpr
    yl: LinExpr
    yu: LinExpr
    kind: str  # "device" or "segment"
    net_name: str = ""
    segment_index: int = -1
    device_name: str = ""
    #: Conservative static bounds used for pair pruning (None = unbounded).
    static_bounds: Optional[Rect] = None
    #: Lazily lowered edge expressions for the batched spacing-pair path.
    _lowered: Optional[Tuple[ColumnExpr, ColumnExpr, ColumnExpr, ColumnExpr]] = None

    def lowered_edges(self) -> Tuple[ColumnExpr, ColumnExpr, ColumnExpr, ColumnExpr]:
        """Return ``(xl, xr, yl, yu)`` pre-lowered to column/coefficient form."""
        if self._lowered is None:
            self._lowered = (
                ColumnExpr.lower(self.xl),
                ColumnExpr.lower(self.xr),
                ColumnExpr.lower(self.yl),
                ColumnExpr.lower(self.yu),
            )
        return self._lowered


# --------------------------------------------------------------------------- #
# the builder
# --------------------------------------------------------------------------- #


class RficModelBuilder:
    """Builds the concurrent placement-and-routing MILP for a netlist."""

    def __init__(
        self,
        netlist: Netlist,
        config: Optional[PILPConfig] = None,
        options: Optional[BuildOptions] = None,
        name: str = "",
    ) -> None:
        self.netlist = netlist
        self.config = config or PILPConfig()
        self.options = options or BuildOptions()
        self.model = Model(name or f"rfic[{netlist.name}]")
        area = netlist.area
        #: Big-M for coordinate / length disjunctions: nothing in the model is
        #: ever farther apart than the half-perimeter of the layout area plus
        #: the largest device, so this is safely large yet well-conditioned.
        largest_device = max(
            (max(d.width, d.height) for d in netlist.devices), default=0.0
        )
        self.big_m = area.width + area.height + 2.0 * largest_device + 100.0

        self._devices: Dict[str, DeviceVars] = {}
        self._nets: Dict[str, NetVars] = {}
        self._blocks: List[_Block] = []
        self._overlap_slacks: List[Variable] = []
        self._num_pairs = 0
        self._spacing_pairs: List[SpacingPairVars] = []

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def build(self) -> BuildResult:
        """Create all variables, constraints and the objective."""
        for device in self.netlist.devices:
            self._devices[device.name] = self._build_device(device)
        for net in self.netlist.microstrips:
            self._nets[net.name] = self._build_net(net)
        self._build_connections()
        self._collect_blocks()
        self._build_spacing_pairs()
        max_bend, max_slack = self._build_objective()
        return BuildResult(
            model=self.model,
            netlist=self.netlist,
            options=self.options,
            devices=self._devices,
            nets=self._nets,
            overlap_slacks=self._overlap_slacks,
            max_bend_var=max_bend,
            max_length_slack_var=max_slack,
            num_spacing_pairs=self._num_pairs,
            spacing_pairs=self._spacing_pairs,
        )

    # ------------------------------------------------------------------ #
    # devices
    # ------------------------------------------------------------------ #

    def _device_window(self, device: Device) -> Rect:
        """Bounds for the device centre: confinement window clipped to the area."""
        area = self.netlist.area
        window = self.options.device_windows.get(device.name)
        full = Rect(0.0, 0.0, area.width, area.height)
        if window is None:
            return full
        clipped = window.intersection(full)
        return clipped if clipped is not None else full

    def _build_device(self, device: Device) -> DeviceVars:
        options = self.options
        area = self.netlist.area
        window = self._device_window(device)

        x = self.model.add_continuous(f"dev[{device.name}].x", lb=window.xl, ub=window.xr)
        y = self.model.add_continuous(f"dev[{device.name}].y", lb=window.yl, ub=window.yu)

        fixed_rotation = options.fixed_rotations.get(device.name, Rotation.R0)
        rotation_vars: Dict[Rotation, Variable] = {}

        if options.blurred_devices:
            # Phase 1: the device is a point; no outline, no rotation.
            half_width = LinExpr({}, 0.0)
            half_height = LinExpr({}, 0.0)
        elif device.name in options.rotatable_devices and device.rotatable:
            for rotation in Rotation:
                rotation_vars[rotation] = self.model.add_binary(
                    f"dev[{device.name}].rot{rotation.degrees}"
                )
            exactly_one(
                self.model,
                list(rotation_vars.values()),
                name=f"dev[{device.name}].one_rotation",
            )
            half_width = LinExpr.sum(
                rotation_vars[r] * (device.dimensions(r)[0] / 2.0) for r in Rotation
            )
            half_height = LinExpr.sum(
                rotation_vars[r] * (device.dimensions(r)[1] / 2.0) for r in Rotation
            )
        else:
            width, height = device.dimensions(fixed_rotation)
            half_width = LinExpr({}, width / 2.0)
            half_height = LinExpr({}, height / 2.0)

        device_vars = DeviceVars(
            name=device.name,
            x=x,
            y=y,
            half_width=half_width,
            half_height=half_height,
            rotation_vars=rotation_vars,
            fixed_rotation=fixed_rotation,
        )

        if device.is_pad:
            self._add_pad_boundary_constraints(device, device_vars)
        elif not options.blurred_devices:
            # Keep the outline inside the layout area.
            self.model.add_constraint(
                x - half_width >= 0, name=f"dev[{device.name}].in_left"
            )
            self.model.add_constraint(
                x + half_width <= area.width, name=f"dev[{device.name}].in_right"
            )
            self.model.add_constraint(
                y - half_height >= 0, name=f"dev[{device.name}].in_bottom"
            )
            self.model.add_constraint(
                y + half_height <= area.height, name=f"dev[{device.name}].in_top"
            )
        return device_vars

    def _add_pad_boundary_constraints(self, device: Device, dv: DeviceVars) -> None:
        """Pads sit with one edge on the layout boundary (equation (15)).

        The paper aligns the pad centre with the boundary; we keep the pad
        outline inside the area and require one of its edges to coincide with
        a boundary edge, which is the same feasible set up to the half pad
        size and keeps every outline inside the area rectangle.  One binary
        per side selects which edge the pad is attached to.
        """
        area = self.netlist.area
        sides = {}
        for side in ("left", "right", "bottom", "top"):
            sides[side] = self.model.add_binary(f"pad[{device.name}].{side}")
        exactly_one(self.model, list(sides.values()), name=f"pad[{device.name}].one_side")

        equal_if(
            self.model, sides["left"], dv.x, dv.half_width, big_m=self.big_m,
            name=f"pad[{device.name}].at_left",
        )
        equal_if(
            self.model, sides["right"], dv.x,
            LinExpr({}, area.width) - dv.half_width, big_m=self.big_m,
            name=f"pad[{device.name}].at_right",
        )
        equal_if(
            self.model, sides["bottom"], dv.y, dv.half_height, big_m=self.big_m,
            name=f"pad[{device.name}].at_bottom",
        )
        equal_if(
            self.model, sides["top"], dv.y,
            LinExpr({}, area.height) - dv.half_height, big_m=self.big_m,
            name=f"pad[{device.name}].at_top",
        )
        # Whatever side is chosen, the outline must not leave the area.
        self.model.add_constraint(dv.x - dv.half_width >= 0, name=f"pad[{device.name}].in_l")
        self.model.add_constraint(
            dv.x + dv.half_width <= area.width, name=f"pad[{device.name}].in_r"
        )
        self.model.add_constraint(dv.y - dv.half_height >= 0, name=f"pad[{device.name}].in_b")
        self.model.add_constraint(
            dv.y + dv.half_height <= area.height, name=f"pad[{device.name}].in_t"
        )
        dv.boundary_sides = sides

    # ------------------------------------------------------------------ #
    # nets
    # ------------------------------------------------------------------ #

    def _chain_point_count(self, net: MicrostripNet) -> int:
        from_options = self.options.chain_point_counts.get(net.name)
        if from_options is not None:
            return max(2, int(from_options))
        if net.max_chain_points is not None:
            return max(2, net.max_chain_points)
        return self.config.chain_points_per_microstrip

    def _net_target(self, net: MicrostripNet) -> float:
        if self.options.blurred_devices:
            # Equation (23): grow the target by the centre-to-boundary runs of
            # the two terminal devices that disappear in the blurred model.
            grow = 0.0
            for terminal in net.terminals:
                device = self.netlist.device(terminal.device)
                grow += self.config.blur_length_factor * (device.width + device.height) / 2.0
            return net.target_length + grow
        return net.target_length

    def _chain_window(self, net_name: str, index: int) -> Optional[Rect]:
        return self.options.chain_windows.get((net_name, index))

    def _build_net(self, net: MicrostripNet) -> NetVars:
        area = self.netlist.area
        width = self.netlist.microstrip_width(net)
        half_width = width / 2.0
        count = self._chain_point_count(net)
        delta = self.netlist.technology.bend_compensation

        xs: List[Variable] = []
        ys: List[Variable] = []
        # In the blurred (Phase-1) model microstrip ends coincide with device
        # points, which may sit directly on the boundary, so the metal-width
        # margin is only enforced once real device geometry is present.
        floor_margin = 0.0 if self.options.blurred_devices else half_width
        for index in range(count):
            window = self._chain_window(net.name, index)
            if window is None:
                lb_x, ub_x = floor_margin, area.width - floor_margin
                lb_y, ub_y = floor_margin, area.height - floor_margin
            else:
                lb_x = max(window.xl, floor_margin)
                ub_x = min(window.xr, area.width - floor_margin)
                lb_y = max(window.yl, floor_margin)
                ub_y = min(window.yu, area.height - floor_margin)
                if lb_x > ub_x or lb_y > ub_y:
                    lb_x, ub_x = floor_margin, area.width - floor_margin
                    lb_y, ub_y = floor_margin, area.height - floor_margin
            xs.append(
                self.model.add_continuous(f"net[{net.name}].x[{index}]", lb=lb_x, ub=ub_x)
            )
            ys.append(
                self.model.add_continuous(f"net[{net.name}].y[{index}]", lb=lb_y, ub=ub_y)
            )

        segments = [
            self._build_segment(net, index, xs, ys, half_width)
            for index in range(count - 1)
        ]
        self._add_no_reversal_constraints(net, segments)
        bend_vars = self._build_bends(net, segments)

        geometric_length = LinExpr.sum(segment.length for segment in segments)
        bend_count = LinExpr.sum(bend_vars) if bend_vars else LinExpr()
        equivalent_length = geometric_length + bend_count * delta

        target = self._net_target(net)
        net_vars = NetVars(
            name=net.name,
            xs=xs,
            ys=ys,
            segments=segments,
            bend_vars=bend_vars,
            geometric_length=geometric_length,
            equivalent_length=equivalent_length,
            bend_count=bend_count,
            target_length=target,
        )

        if self.options.exact_lengths:
            self.model.add_constraint(
                equivalent_length == target, name=f"net[{net.name}].exact_length"
            )
        else:
            slack = self.model.add_continuous(
                f"net[{net.name}].length_slack", lb=0.0, ub=self.big_m
            )
            self.model.add_constraint(
                slack >= LinExpr({}, target) - equivalent_length,
                name=f"net[{net.name}].under",
            )
            self.model.add_constraint(
                slack >= equivalent_length - target, name=f"net[{net.name}].over"
            )
            net_vars.length_slack = slack
        return net_vars

    def _build_segment(
        self,
        net: MicrostripNet,
        index: int,
        xs: Sequence[Variable],
        ys: Sequence[Variable],
        half_width: float,
    ) -> SegmentVars:
        """Direction binaries, length linearisation and the expanded box."""
        model = self.model
        area = self.netlist.area
        x_a, y_a = xs[index], ys[index]
        x_b, y_b = xs[index + 1], ys[index + 1]
        prefix = f"net[{net.name}].seg[{index}]"

        directions = {
            direction: model.add_binary(f"{prefix}.s_{direction}")
            for direction in DIRECTIONS
        }
        # Every row of the segment goes through one batch, in the order the
        # expression API would add them (the direction choice, equation (6),
        # then the box cover), so the standard form is the same either way.
        rows = ConstraintBatch()
        rows.add_eq(
            1.0,
            [(direction, 1.0) for direction in directions.values()],
            name=f"{prefix}.one_direction",
        )

        # The segment can never be longer than the spread of its two chain
        # points' variable bounds; using that spread as the length bound and
        # deriving the big-M of the conditional equalities from it keeps the
        # LP relaxation tight, which matters enormously for solver
        # performance in the window-confined phases.  A deactivated length
        # equality must tolerate |length - (coordinate difference)|, which is
        # at most the length bound plus the coordinate spread, hence the
        # factor of two.
        span_x = max(x_a.ub, x_b.ub) - min(x_a.lb, x_b.lb)
        span_y = max(y_a.ub, y_b.ub) - min(y_a.lb, y_b.lb)
        length_bound = min(area.width + area.height, span_x + span_y)
        local_m = min(self.big_m, 2.0 * (span_x + span_y) + 1.0)

        length = model.add_continuous(f"{prefix}.len", lb=0.0, ub=length_bound)

        # Equation (6), linearised with conditional equalities: the selected
        # direction fixes which coordinate difference the length equals and
        # forces the perpendicular coordinates to coincide.
        for direction, delta, straight in (
            ("r", [(x_b, 1.0), (x_a, -1.0)], (y_b, y_a)),
            ("l", [(x_a, 1.0), (x_b, -1.0)], (y_b, y_a)),
            ("u", [(y_b, 1.0), (y_a, -1.0)], (x_b, x_a)),
            ("d", [(y_a, 1.0), (y_b, -1.0)], (x_b, x_a)),
        ):
            switch = directions[direction]
            add_equal_if_rows(
                rows, switch, length, delta, local_m, f"{prefix}.len_{direction}"
            )
            add_equal_if_rows(
                rows, switch, *straight, local_m, f"{prefix}.straight_{direction}"
            )

        # Expanded bounding box of the segment (Figure 2(a) plus the optional
        # Phase-1 reservation margin of Figure 8).  The box is constrained to
        # *cover* the segment; spacing constraints only push boxes apart, so
        # at any optimum the box hugs the segment.
        margin = half_width + self.netlist.technology.clearance + self.options.extra_segment_margin
        slack_extent = margin + 10.0
        box_xl = model.add_continuous(
            f"{prefix}.box_xl", lb=-slack_extent, ub=area.width + slack_extent
        )
        box_xr = model.add_continuous(
            f"{prefix}.box_xr", lb=-slack_extent, ub=area.width + slack_extent
        )
        box_yl = model.add_continuous(
            f"{prefix}.box_yl", lb=-slack_extent, ub=area.height + slack_extent
        )
        box_yu = model.add_continuous(
            f"{prefix}.box_yu", lb=-slack_extent, ub=area.height + slack_extent
        )
        # Cover rows: box <= point -+ margin per coordinate and chain point.
        for side, point, sign, tag in (
            (box_xl, x_a, -1.0, "box_xl_a"),
            (box_xl, x_b, -1.0, "box_xl_b"),
            (box_xr, x_a, 1.0, "box_xr_a"),
            (box_xr, x_b, 1.0, "box_xr_b"),
            (box_yl, y_a, -1.0, "box_yl_a"),
            (box_yl, y_b, -1.0, "box_yl_b"),
            (box_yu, y_a, 1.0, "box_yu_a"),
            (box_yu, y_b, 1.0, "box_yu_b"),
        ):
            if sign < 0:
                # box_min <= point - margin
                rows.add_le(
                    -margin, [(side, 1.0), (point, -1.0)], name=f"{prefix}.{tag}"
                )
            else:
                # box_max >= point + margin
                rows.add_ge(
                    margin, [(side, 1.0), (point, -1.0)], name=f"{prefix}.{tag}"
                )
        model.add_linear_batch(rows)

        return SegmentVars(
            net_name=net.name,
            index=index,
            length=length,
            directions=directions,
            box_xl=box_xl,
            box_xr=box_xr,
            box_yl=box_yl,
            box_yu=box_yu,
        )

    def _add_no_reversal_constraints(
        self, net: MicrostripNet, segments: Sequence[SegmentVars]
    ) -> None:
        """Equations (2)-(5): a segment may not fold back onto its predecessor."""
        batch = ConstraintBatch()
        for previous, current in zip(segments, segments[1:]):
            prefix = f"net[{net.name}].rev[{previous.index}]"
            for a, b in (("u", "d"), ("d", "u"), ("l", "r"), ("r", "l")):
                batch.add_le(
                    1.0,
                    [(previous.directions[a], 1.0), (current.directions[b], 1.0)],
                    name=f"{prefix}.{a}{b}",
                )
        self.model.add_linear_batch(batch)

    def _build_bends(
        self, net: MicrostripNet, segments: Sequence[SegmentVars]
    ) -> List[Variable]:
        """Equations (8)-(10): bend indicators at the interior chain points."""
        model = self.model
        bend_vars: List[Variable] = []
        batch = ConstraintBatch()
        for previous, current in zip(segments, segments[1:]):
            prefix = f"net[{net.name}].bend[{current.index}]"
            t_hv = model.add_binary(f"{prefix}.t_hv")
            u_hv = model.add_binary(f"{prefix}.u_hv")
            t_vh = model.add_binary(f"{prefix}.t_vh")
            u_vh = model.add_binary(f"{prefix}.u_vh")
            bend = model.add_binary(f"{prefix}.t")

            batch.add_eq(
                0.0,
                [
                    (previous.directions["r"], 1.0),
                    (previous.directions["l"], 1.0),
                    (current.directions["u"], 1.0),
                    (current.directions["d"], 1.0),
                    (t_hv, -2.0),
                    (u_hv, -1.0),
                ],
                name=f"{prefix}.hv",
            )
            batch.add_eq(
                0.0,
                [
                    (previous.directions["u"], 1.0),
                    (previous.directions["d"], 1.0),
                    (current.directions["r"], 1.0),
                    (current.directions["l"], 1.0),
                    (t_vh, -2.0),
                    (u_vh, -1.0),
                ],
                name=f"{prefix}.vh",
            )
            batch.add_eq(
                0.0,
                [(bend, 1.0), (t_hv, -1.0), (t_vh, -1.0)],
                name=f"{prefix}.sum",
            )
            bend_vars.append(bend)
        model.add_linear_batch(batch)
        return bend_vars

    def add_bend_and_rows(self) -> None:
        """Add the AND lower bounds of the bend indicators; call after :meth:`build`.

        With ``h = s_r + s_l`` and ``v = s_u + s_d``, every integer point of
        rows (8)-(10) has ``t_hv = h_prev AND v_cur`` and ``t_vh = v_prev
        AND h_cur``, so the rows ``h_prev + v_cur - t_hv <= 1`` and ``v_prev
        + h_cur - t_vh <= 1`` cut off no integer point.  They do cut off the
        LP points with ``t_hv = 0`` at a turn, which (8)-(10) alone allow.
        Two rows per interior chain point, appended as one batch after every
        other row: emitted next to rows (8)-(10) instead, they cost the tiny
        exact solve more nodes (row order steers HiGHS).
        """
        batch = ConstraintBatch()
        for net_vars in self._nets.values():
            segments = net_vars.segments
            for previous, current in zip(segments, segments[1:]):
                prefix = f"net[{net_vars.name}].bend[{current.index}]"
                for turn, before, after in (("hv", "rl", "ud"), ("vh", "ud", "rl")):
                    batch.add_le(
                        1.0,
                        [(previous.directions[d], 1.0) for d in before],
                        [(current.directions[d], 1.0) for d in after],
                        [(self.model.get_var(f"{prefix}.t_{turn}"), -1.0)],
                        name=f"{prefix}.{turn}_and",
                    )
        self.model.add_linear_batch(batch)

    # ------------------------------------------------------------------ #
    # connections (equation (14))
    # ------------------------------------------------------------------ #

    def _build_connections(self) -> None:
        for net in self.netlist.microstrips:
            net_vars = self._nets[net.name]
            endpoints = (
                (net.start, net_vars.xs[0], net_vars.ys[0]),
                (net.end, net_vars.xs[-1], net_vars.ys[-1]),
            )
            for terminal, x_var, y_var in endpoints:
                device = self.netlist.device(terminal.device)
                device_vars = self._devices[terminal.device]
                if self.options.blurred_devices:
                    offset_x = LinExpr({}, 0.0)
                    offset_y = LinExpr({}, 0.0)
                elif device_vars.rotation_vars:
                    pin = device.pin(terminal.pin)
                    offset_x = LinExpr.sum(
                        device_vars.rotation_vars[r] * pin.offset(r).x for r in Rotation
                    )
                    offset_y = LinExpr.sum(
                        device_vars.rotation_vars[r] * pin.offset(r).y for r in Rotation
                    )
                else:
                    offset = device.pin(terminal.pin).offset(device_vars.fixed_rotation)
                    offset_x = LinExpr({}, offset.x)
                    offset_y = LinExpr({}, offset.y)
                name = f"conn[{net.name}->{terminal.device}.{terminal.pin}]"
                self.model.add_constraint(
                    LinExpr.from_value(x_var) == device_vars.x + offset_x,
                    name=f"{name}.x",
                )
                self.model.add_constraint(
                    LinExpr.from_value(y_var) == device_vars.y + offset_y,
                    name=f"{name}.y",
                )

    # ------------------------------------------------------------------ #
    # spacing / non-overlap (equations (16)-(20))
    # ------------------------------------------------------------------ #

    def _collect_blocks(self) -> None:
        clearance = self.netlist.technology.clearance
        area = self.netlist.area

        for net in self.netlist.microstrips:
            net_vars = self._nets[net.name]
            for segment in net_vars.segments:
                bounds = self._segment_static_bounds(net.name, segment.index)
                self._blocks.append(
                    _Block(
                        label=f"net:{net.name}[{segment.index}]",
                        xl=LinExpr.from_value(segment.box_xl),
                        xr=LinExpr.from_value(segment.box_xr),
                        yl=LinExpr.from_value(segment.box_yl),
                        yu=LinExpr.from_value(segment.box_yu),
                        kind="segment",
                        net_name=net.name,
                        segment_index=segment.index,
                        static_bounds=bounds,
                    )
                )

        if self.options.blurred_devices:
            return
        for device in self.netlist.devices:
            device_vars = self._devices[device.name]
            window = self._device_window(device)
            max_half = max(device.width, device.height) / 2.0 + clearance
            bounds = Rect(
                window.xl - max_half,
                window.yl - max_half,
                min(window.xr + max_half, area.width + max_half),
                min(window.yu + max_half, area.height + max_half),
            )
            self._blocks.append(
                _Block(
                    label=f"dev:{device.name}",
                    xl=device_vars.x - device_vars.half_width - clearance,
                    xr=device_vars.x + device_vars.half_width + clearance,
                    yl=device_vars.y - device_vars.half_height - clearance,
                    yu=device_vars.y + device_vars.half_height + clearance,
                    kind="device",
                    device_name=device.name,
                    static_bounds=bounds,
                )
            )

    def _segment_static_bounds(self, net_name: str, index: int) -> Optional[Rect]:
        """Conservative reachable region of a segment box (for pair pruning)."""
        window_a = self._chain_window(net_name, index)
        window_b = self._chain_window(net_name, index + 1)
        if window_a is None or window_b is None:
            return None
        net = self.netlist.microstrip(net_name)
        margin = (
            self.netlist.microstrip_width(net) / 2.0
            + self.netlist.technology.clearance
            + self.options.extra_segment_margin
        )
        return Rect(
            min(window_a.xl, window_b.xl) - margin,
            min(window_a.yl, window_b.yl) - margin,
            max(window_a.xr, window_b.xr) + margin,
            max(window_a.yu, window_b.yu) + margin,
        )

    def _spacing_exempt(self, first: _Block, second: _Block) -> bool:
        """Pairs that are electrically joined and therefore allowed to touch."""
        if first.kind == "segment" and second.kind == "segment":
            if self._pair_forced(first, second):
                return False
            if first.net_name == second.net_name:
                return True
            return self._segments_share_terminal(first, second)
        if {first.kind, second.kind} == {"segment", "device"}:
            segment = first if first.kind == "segment" else second
            device = first if first.kind == "device" else second
            return self._segment_terminates_on_device(segment, device)
        return False

    def _pair_forced(self, first: _Block, second: _Block) -> bool:
        """Whether this segment pair's spacing exemption has been revoked."""
        if first.kind != "segment" or second.kind != "segment":
            return False
        if first.net_name == second.net_name:
            return False
        return (
            frozenset((first.net_name, second.net_name))
            in self.options.forced_spacing_pairs
        )

    def _segments_share_terminal(self, first: _Block, second: _Block) -> bool:
        """End segments of two nets meeting at the same device may touch.

        Pins of a single device are routinely closer together than the
        inter-line spacing rule (a transistor's drain and source, say), so
        the last segments of the lines landing there are allowed to approach
        each other; everywhere else the full spacing applies.
        """
        net_a = self.netlist.microstrip(first.net_name)
        net_b = self.netlist.microstrip(second.net_name)
        ends_a = self._end_terminals(net_a, first.segment_index)
        ends_b = self._end_terminals(net_b, second.segment_index)
        if not ends_a or not ends_b:
            return False
        devices_a = {terminal.device for terminal in ends_a}
        devices_b = {terminal.device for terminal in ends_b}
        return bool(devices_a & devices_b)

    def _end_terminals(self, net: MicrostripNet, segment_index: int) -> List:
        """Terminals adjacent to a segment if it is the first or last one."""
        count = self._chain_point_count(net)
        terminals = []
        if segment_index == 0:
            terminals.append(net.start)
        if segment_index == count - 2:
            terminals.append(net.end)
        return terminals

    def _segment_terminates_on_device(self, segment: _Block, device: _Block) -> bool:
        net = self.netlist.microstrip(segment.net_name)
        terminals = self._end_terminals(net, segment.segment_index)
        return any(terminal.device == device.device_name for terminal in terminals)

    def _pairs_can_interact(self, first: _Block, second: _Block) -> bool:
        """Static pruning: skip pairs whose reachable regions cannot overlap."""
        if first.static_bounds is None or second.static_bounds is None:
            return True
        return first.static_bounds.overlaps(second.static_bounds)

    def _build_spacing_pairs(self) -> None:
        """Equations (16)-(20), emitted through the batched fast path.

        This is the hottest constraint family (quadratic in block count);
        every row is accumulated as COO triplets against pre-lowered block
        edges and ingested with a single :meth:`Model.add_linear_batch`.
        """
        model = self.model
        allow_overlap = not self.options.exact_lengths
        batch = ConstraintBatch()
        for first, second in itertools.combinations(self._blocks, 2):
            if self._spacing_exempt(first, second):
                continue
            if not self._pairs_can_interact(first, second):
                continue
            self._num_pairs += 1
            prefix = f"pair[{first.label}|{second.label}]"
            pair_m = self._pair_big_m(first, second)
            selectors = [model.add_binary(f"{prefix}.u{k}") for k in range(4)]
            slack_h: Optional[Variable] = None
            slack_v: Optional[Variable] = None
            slack_h_terms: List[Tuple[Variable, float]] = []
            slack_v_terms: List[Tuple[Variable, float]] = []
            # Forced (exemption-revoked) pairs are always soft: their
            # segments legitimately meet at a shared pin, so hard
            # separation could be infeasible — the penalised slack merely
            # pushes the crossing apart as far as the geometry allows.
            if allow_overlap or self._pair_forced(first, second):
                slack_h = model.add_continuous(f"{prefix}.dh", lb=0.0, ub=self.big_m)
                slack_v = model.add_continuous(f"{prefix}.dv", lb=0.0, ub=self.big_m)
                self._overlap_slacks.extend([slack_h, slack_v])
                slack_h_terms = [(slack_h, -1.0)]
                slack_v_terms = [(slack_v, -1.0)]

            first_xl, first_xr, first_yl, first_yu = first.lowered_edges()
            second_xl, second_xr, second_yl, second_yu = second.lowered_edges()

            # Equations (16)-(19) with the soft model's overlap slack:
            # each row reads ``edge_a - edge_b - M u_k - slack <= 0``.
            batch.add_le(
                0.0,
                first_xr,
                ColumnExpr.lower(second_xl, -1.0),
                [(selectors[0], -pair_m)],
                slack_h_terms,
                name=f"{prefix}.left_of",
            )
            batch.add_le(
                0.0,
                second_yu,
                ColumnExpr.lower(first_yl, -1.0),
                [(selectors[1], -pair_m)],
                slack_v_terms,
                name=f"{prefix}.below",
            )
            batch.add_le(
                0.0,
                second_xr,
                ColumnExpr.lower(first_xl, -1.0),
                [(selectors[2], -pair_m)],
                slack_h_terms,
                name=f"{prefix}.right_of",
            )
            batch.add_le(
                0.0,
                first_yu,
                ColumnExpr.lower(second_yl, -1.0),
                [(selectors[3], -pair_m)],
                slack_v_terms,
                name=f"{prefix}.above",
            )
            # Equation (20): at least one separation direction must hold.
            batch.add_le(
                3.0,
                [(selector, 1.0) for selector in selectors],
                name=f"{prefix}.disjunction",
            )
            self._spacing_pairs.append(
                SpacingPairVars(
                    first=first,
                    second=second,
                    selectors=selectors,
                    slack_h=slack_h,
                    slack_v=slack_v,
                    big_m=pair_m,
                )
            )
        model.add_linear_batch(batch)

    def _pair_big_m(self, first: _Block, second: _Block) -> float:
        """Tightest safe big-M for a pair's disjunctive separation constraints.

        The relaxation slack a deactivated constraint needs is bounded by how
        far the two blocks' reachable regions can possibly inter-penetrate,
        which the static window bounds give directly.  Pairs without windows
        (Phase 1, the exact model) fall back to the global constant.
        """
        if first.static_bounds is None or second.static_bounds is None:
            return self.big_m
        a, b = first.static_bounds, second.static_bounds
        reach = max(
            a.xr - b.xl,
            b.xr - a.xl,
            a.yu - b.yl,
            b.yu - a.yl,
        )
        return min(self.big_m, max(reach, 1.0) + 1.0)

    # ------------------------------------------------------------------ #
    # objective (equations (21) and (26))
    # ------------------------------------------------------------------ #

    def _build_objective(self) -> Tuple[Optional[Variable], Optional[Variable]]:
        model = self.model
        weights = self.config.weights

        max_bend = model.add_continuous(
            "obj.max_bends", lb=0.0, ub=float(self.config.max_chain_points)
        )
        total_bends = LinExpr()
        for net_vars in self._nets.values():
            model.add_constraint(
                max_bend >= net_vars.bend_count, name=f"obj.max_bends>={net_vars.name}"
            )
            total_bends += net_vars.bend_count

        objective = weights.alpha * max_bend + weights.beta * total_bends

        max_slack: Optional[Variable] = None
        if not self.options.exact_lengths:
            max_slack = model.add_continuous("obj.max_length_slack", lb=0.0, ub=self.big_m)
            total_slack = LinExpr()
            for net_vars in self._nets.values():
                if net_vars.length_slack is None:
                    continue
                model.add_constraint(
                    max_slack >= net_vars.length_slack,
                    name=f"obj.max_slack>={net_vars.name}",
                )
                total_slack += net_vars.length_slack
            objective = objective + weights.gamma * max_slack + weights.zeta * total_slack

        if self._overlap_slacks:
            objective = objective + weights.eta * lin_sum(self._overlap_slacks)

        model.set_objective(objective, sense="min")
        return max_bend, max_slack
