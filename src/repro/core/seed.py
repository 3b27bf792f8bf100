"""Seed placement used to confine the Phase-1 search space.

The paper solves the Phase-1 model over the whole layout area.  With Gurobi
and half-hour budgets that is viable; with the open-source solvers available
to this reproduction the completely unconfined model converges too slowly to
be practical.  We therefore compute a cheap *seed placement* — a
force-directed (spring) embedding of the device connectivity graph, scaled
into the layout area, with pads projected onto the boundary — and hand
Phase 1 generous confinement corridors centred on the seed.  The ILP still
places devices and routes microstrips *concurrently*; the corridors only
bound how far the concurrent optimisation may wander, exactly like the τ_d
windows the paper itself uses from Phase 2 onwards.  The deviation is
documented in DESIGN.md.

The seed also fixes how Phase 1 starts routing: every net becomes an
L-shaped route between its two terminals' seed points, and
:func:`choose_l_orientations` picks for each net whether the L runs
horizontal-first or vertical-first so that as few net pairs cross as it
can find.  Phase 1 is planar routing (Section 5.1) and keeps the discrete
choices of this warm start, so these orientations decide whether it starts
without crossings.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import networkx as nx

from repro.circuit.netlist import Netlist
from repro.geometry.point import GEOM_TOL, Point
from repro.geometry.segment import Segment

#: ``table[(i, j)][vertical_i][vertical_j]``: whether the L routes of nets
#: ``i < j`` cross when each runs vertical-first or not.
CrossingTable = Dict[Tuple[int, int], Tuple[Tuple[bool, bool], Tuple[bool, bool]]]


def seed_placement(netlist: Netlist, seed: int = 2016) -> Dict[str, Point]:
    """Compute a deterministic rough placement of every device.

    The device connectivity graph is embedded so that the geometric distance
    between connected devices approximates the microstrip's *required*
    length (Kamada-Kawai layout over target-length graph distances, falling
    back to a spring layout for degenerate graphs), scaled into the layout
    area, pads projected onto the nearest boundary edge, and finally relaxed
    so that no two device outlines overlap.  The resulting seed is only used
    to centre the Phase-1 confinement corridors; the ILP does the actual
    placement.
    """
    area = netlist.area
    graph = nx.Graph()
    graph.add_nodes_from(netlist.device_names)
    for net in netlist.microstrips:
        length = max(net.target_length, 1.0)
        if graph.has_edge(net.start.device, net.end.device):
            existing = graph[net.start.device][net.end.device]["length"]
            graph[net.start.device][net.end.device]["length"] = min(existing, length)
        else:
            graph.add_edge(net.start.device, net.end.device, length=length)

    if graph.number_of_nodes() == 0:
        return {}
    if graph.number_of_nodes() == 1:
        only = next(iter(graph.nodes))
        return {only: Point(area.width / 2.0, area.height / 2.0)}

    positions = _embed_graph(graph, netlist, seed)

    xs = [pos[0] for pos in positions.values()]
    ys = [pos[1] for pos in positions.values()]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    span_x = max(max_x - min_x, 1e-9)
    span_y = max(max_y - min_y, 1e-9)

    # Keep a margin of the largest device half-dimension so outlines fit.
    margin = max(
        (max(device.width, device.height) / 2.0 for device in netlist.devices),
        default=0.0,
    )
    margin = min(margin, 0.25 * min(area.width, area.height))
    usable_w = area.width - 2.0 * margin
    usable_h = area.height - 2.0 * margin

    seeds: Dict[str, Point] = {}
    for name, (raw_x, raw_y) in positions.items():
        x = margin + (raw_x - min_x) / span_x * usable_w
        y = margin + (raw_y - min_y) / span_y * usable_h
        seeds[name] = Point(x, y)

    for pad in netlist.pads():
        seeds[pad.name] = _project_to_boundary(seeds[pad.name], netlist, pad.name)
    return relax_seed_overlaps(seeds, netlist)


def _embed_graph(graph: nx.Graph, netlist: Netlist, seed: int) -> Dict[str, tuple]:
    """Embed the connectivity graph in the plane.

    Kamada-Kawai over target-length graph distances makes connected devices
    land roughly one required-length apart, which is exactly the geometry a
    fixed-length router wants to start from.  Disconnected components each
    get their own embedding and are then handled by the overlap relaxation.
    """
    diameter_guess = (netlist.area.width + netlist.area.height) / 2.0
    try:
        distances: Dict[str, Dict[str, float]] = {}
        lengths = dict(nx.all_pairs_dijkstra_path_length(graph, weight="length"))
        for source in graph.nodes:
            distances[source] = {}
            for target in graph.nodes:
                if target in lengths.get(source, {}):
                    distances[source][target] = max(lengths[source][target], 1.0)
                else:
                    distances[source][target] = diameter_guess
        return nx.kamada_kawai_layout(graph, dist=distances)
    except Exception:  # pragma: no cover - networkx numerical corner cases
        return nx.spring_layout(graph, seed=seed, iterations=200)


def relax_seed_overlaps(
    seeds: Dict[str, Point],
    netlist: Netlist,
    iterations: int = 150,
) -> Dict[str, Point]:
    """Push overlapping device seeds apart until outlines clear each other.

    A simple pairwise repulsion: whenever two devices are closer than the sum
    of their half-extents plus the spacing rule, both are moved apart along
    the line between them (pads only slide along their boundary edge).  This
    guarantees the Phase-1 corridors are centred on a physically plausible
    arrangement.
    """
    area = netlist.area
    spacing = netlist.technology.spacing
    current = dict(seeds)
    devices = [netlist.device(name) for name in current]

    def required_gap(a, b) -> float:
        return (
            max(a.width, a.height) / 2.0 + max(b.width, b.height) / 2.0 + spacing
        )

    for _ in range(iterations):
        moved = False
        for index, first in enumerate(devices):
            for second in devices[index + 1 :]:
                p1, p2 = current[first.name], current[second.name]
                gap = required_gap(first, second)
                dx, dy = p2.x - p1.x, p2.y - p1.y
                distance = (dx * dx + dy * dy) ** 0.5
                if distance >= gap:
                    continue
                moved = True
                if distance < 1e-6:
                    # Coincident seeds: separate along x deterministically.
                    dx, dy, distance = 1.0, 0.0, 1.0
                push = 0.5 * (gap - distance) / distance
                shift_x, shift_y = dx * push, dy * push
                current[first.name] = _clamp_seed(
                    Point(p1.x - shift_x, p1.y - shift_y), first, netlist
                )
                current[second.name] = _clamp_seed(
                    Point(p2.x + shift_x, p2.y + shift_y), second, netlist
                )
        if not moved:
            break
    return current


def _clamp_seed(point: Point, device, netlist: Netlist) -> Point:
    """Keep a seed inside the area; pads stay glued to their boundary edge."""
    area = netlist.area
    half_w = device.width / 2.0
    half_h = device.height / 2.0
    x = min(max(point.x, half_w), area.width - half_w)
    y = min(max(point.y, half_h), area.height - half_h)
    clamped = Point(x, y)
    if device.is_pad:
        return _project_to_boundary(clamped, netlist, device.name)
    return clamped


def _project_to_boundary(point: Point, netlist: Netlist, device_name: str) -> Point:
    """Move a pad seed onto the nearest boundary edge (outline kept inside)."""
    area = netlist.area
    device = netlist.device(device_name)
    half_w = device.width / 2.0
    half_h = device.height / 2.0
    candidates = [
        Point(half_w, min(max(point.y, half_h), area.height - half_h)),
        Point(area.width - half_w, min(max(point.y, half_h), area.height - half_h)),
        Point(min(max(point.x, half_w), area.width - half_w), half_h),
        Point(min(max(point.x, half_w), area.width - half_w), area.height - half_h),
    ]
    return min(candidates, key=point.euclidean_distance)


def spread_boundary_pads(
    seeds: Dict[str, Point], netlist: Netlist, minimum_gap: Optional[float] = None
) -> Dict[str, Point]:
    """Nudge pads sharing a boundary edge apart so their seeds do not collide.

    The spring embedding can put several pads on the same spot of the same
    edge; Phase 1 would then start from heavily overlapping corridors.  Pads
    on each edge are re-spaced evenly while keeping their relative order.
    """
    area = netlist.area
    pads = [device for device in netlist.pads() if device.name in seeds]
    if not pads:
        return dict(seeds)
    if minimum_gap is None:
        minimum_gap = max(max(p.width, p.height) for p in pads) + netlist.technology.spacing

    adjusted = dict(seeds)
    edges: Dict[str, list] = {"left": [], "right": [], "bottom": [], "top": []}
    for pad in pads:
        point = seeds[pad.name]
        distances = {
            "left": abs(point.x - pad.width / 2.0),
            "right": abs(area.width - pad.width / 2.0 - point.x),
            "bottom": abs(point.y - pad.height / 2.0),
            "top": abs(area.height - pad.height / 2.0 - point.y),
        }
        edge = min(distances, key=distances.get)
        edges[edge].append(pad)

    for edge, edge_pads in edges.items():
        if len(edge_pads) < 2:
            continue
        horizontal = edge in ("bottom", "top")
        extent = area.width if horizontal else area.height
        ordered = sorted(
            edge_pads,
            key=lambda pad: seeds[pad.name].x if horizontal else seeds[pad.name].y,
        )
        pitch = extent / (len(ordered) + 1)
        for index, pad in enumerate(ordered, start=1):
            coordinate = pitch * index
            old = adjusted[pad.name]
            if horizontal:
                adjusted[pad.name] = Point(coordinate, old.y)
            else:
                adjusted[pad.name] = Point(old.x, coordinate)
    return adjusted


def l_corner(start: Point, end: Point, vertical_first: bool = False) -> Point:
    """The corner of the L-shaped route from ``start`` to ``end``."""
    return Point(start.x, end.y) if vertical_first else Point(end.x, start.y)


def choose_l_orientations(
    netlist: Netlist, seeds: Mapping[str, Point]
) -> Dict[str, bool]:
    """Choose each net's L orientation so the fewest net pairs cross.

    Returns ``True`` for every net whose L route between its terminals'
    seed points runs vertical-first.  The search starts from all
    horizontal-first and sweeps the nets in netlist order, first flipping
    single nets and, when no single flip helps, pairs of nets whose routes
    can cross each other.  A move is kept only if it strictly lowers the
    number of crossing pairs, and the search stops when no move does; a
    seed that no move improves therefore stays all horizontal-first.
    Crossings are counted with :meth:`Segment.crosses`, the design-rule
    checker's predicate, so two routes that leave a shared device along the
    same line count as crossing.  Nets with a terminal missing from
    ``seeds`` stay horizontal-first.
    """
    names, terminals = _seeded_terminals(netlist, seeds)
    table = _crossing_table(terminals)
    partners: List[List[int]] = [[] for _ in names]
    for first, second in table:
        partners[first].append(second)
        partners[second].append(first)
    vertical = [False] * len(names)

    def touching(moved: Sequence[int]) -> int:
        pairs = {
            (min(net, other), max(net, other))
            for net in moved
            for other in partners[net]
        }
        return sum(
            table[pair][vertical[pair[0]]][vertical[pair[1]]] for pair in pairs
        )

    def improves(moved: Sequence[int]) -> bool:
        before = touching(moved)
        for net in moved:
            vertical[net] = not vertical[net]
        if touching(moved) < before:
            return True
        for net in moved:
            vertical[net] = not vertical[net]
        return False

    while True:
        moved = [improves((net,)) for net in range(len(names))]
        if not any(moved):
            moved = [improves(pair) for pair in sorted(table)]
        if not any(moved):
            break
    return dict(zip(names, vertical))


def seed_crossings(
    netlist: Netlist,
    seeds: Mapping[str, Point],
    vertical_first: Optional[Mapping[str, bool]] = None,
) -> int:
    """Number of net pairs whose L routes cross (all horizontal-first by default)."""
    vertical_first = vertical_first or {}
    names, terminals = _seeded_terminals(netlist, seeds)
    vertical = [vertical_first.get(name, False) for name in names]
    return sum(
        crossing[vertical[first]][vertical[second]]
        for (first, second), crossing in _crossing_table(terminals).items()
    )


def _seeded_terminals(
    netlist: Netlist, seeds: Mapping[str, Point]
) -> Tuple[List[str], List[Tuple[Point, Point]]]:
    """Names and terminal seed points of the nets whose terminals are seeded."""
    names: List[str] = []
    terminals: List[Tuple[Point, Point]] = []
    for net in netlist.microstrips:
        start, end = seeds.get(net.start.device), seeds.get(net.end.device)
        if start is not None and end is not None:
            names.append(net.name)
            terminals.append((start, end))
    return names, terminals


def _crossing_table(terminals: Sequence[Tuple[Point, Point]]) -> CrossingTable:
    """Crossings of every orientation pair, for the pairs that can cross at all.

    Both L routes of a net stay inside the box its terminals span, so pairs
    with disjoint boxes never cross and are left out.
    """
    routes = [
        [
            (Segment(start, corner), Segment(corner, end))
            for corner in (l_corner(start, end, False), l_corner(start, end, True))
        ]
        for start, end in terminals
    ]
    table: CrossingTable = {}
    for first, second in combinations(range(len(terminals)), 2):
        if not _boxes_touch(terminals[first], terminals[second]):
            continue
        crossing = tuple(
            tuple(
                any(
                    a.crosses(b)
                    for a in routes[first][v_first]
                    for b in routes[second][v_second]
                )
                for v_second in (False, True)
            )
            for v_first in (False, True)
        )
        if any(any(row) for row in crossing):
            table[(first, second)] = crossing
    return table


def _boxes_touch(first: Tuple[Point, Point], second: Tuple[Point, Point]) -> bool:
    (a, b), (c, d) = first, second
    return (
        min(a.x, b.x) <= max(c.x, d.x) + GEOM_TOL
        and min(c.x, d.x) <= max(a.x, b.x) + GEOM_TOL
        and min(a.y, b.y) <= max(c.y, d.y) + GEOM_TOL
        and min(c.y, d.y) <= max(a.y, b.y) + GEOM_TOL
    )
