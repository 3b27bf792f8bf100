"""Simulated-annealing device floorplanner (baseline placement).

This is the placement half of the *manual-like* baseline flow: devices are
placed first (ignoring the routing detail), then the router of
:mod:`repro.baselines.greedy_router` connects them.  The optimiser is a
plain simulated annealer over device centres:

* cost = estimated half-perimeter wirelength of all microstrips
  (weighted by how far each net's target length is from the pin distance)
  + a heavy penalty for outline overlaps and boundary violations,
* moves = translate a device, swap two devices, rotate a device,
* pads are restricted to the layout boundary throughout.

It is intentionally conventional — the point of the baseline is to represent
the separate place-then-route practice the paper argues against.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.circuit.device import Device, Rotation
from repro.circuit.netlist import Netlist
from repro.core.seed import seed_placement, spread_boundary_pads
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.layout.layout import Layout
from repro.layout.placement import Placement


@dataclass
class AnnealingConfig:
    """Tuning knobs of the simulated-annealing placer."""

    iterations: int = 6000
    initial_temperature: float = 300.0
    final_temperature: float = 0.5
    move_fraction: float = 0.25
    overlap_weight: float = 40.0
    boundary_weight: float = 60.0
    length_mismatch_weight: float = 0.4
    seed: int = 2016


class AnnealingPlacer:
    """Simulated-annealing floorplanner for RFIC devices."""

    def __init__(self, config: Optional[AnnealingConfig] = None) -> None:
        self.config = config or AnnealingConfig()

    # ------------------------------------------------------------------ #

    def place(self, netlist: Netlist) -> Tuple[Dict[str, Placement], float]:
        """Place all devices; returns the placements and the runtime."""
        start_time = time.perf_counter()
        config = self.config
        rng = random.Random(config.seed)

        placements = self._initial_placements(netlist)
        cost = self._cost(netlist, placements)
        best = dict(placements)
        best_cost = cost

        iterations = max(1, config.iterations)
        for iteration in range(iterations):
            temperature = self._temperature(iteration, iterations)
            candidate = self._propose(netlist, placements, rng, temperature)
            if candidate is None:
                continue
            candidate_cost = self._cost(netlist, candidate)
            accept = candidate_cost <= cost or rng.random() < math.exp(
                -(candidate_cost - cost) / max(temperature, 1e-9)
            )
            if accept:
                placements = candidate
                cost = candidate_cost
                if cost < best_cost:
                    best = dict(placements)
                    best_cost = cost

        runtime = time.perf_counter() - start_time
        return best, runtime

    def place_layout(self, netlist: Netlist) -> Layout:
        """Convenience wrapper returning a :class:`Layout` with placements only."""
        placements, runtime = self.place(netlist)
        layout = Layout(netlist, placements.values(), metadata={"placer": "annealing", "runtime_s": runtime})
        return layout

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _temperature(self, iteration: int, iterations: int) -> float:
        config = self.config
        progress = iteration / max(1, iterations - 1)
        ratio = config.final_temperature / config.initial_temperature
        return config.initial_temperature * (ratio**progress)

    def _initial_placements(self, netlist: Netlist) -> Dict[str, Placement]:
        seeds = spread_boundary_pads(seed_placement(netlist, self.config.seed), netlist)
        placements: Dict[str, Placement] = {}
        for device in netlist.devices:
            center = seeds.get(
                device.name,
                Point(netlist.area.width / 2.0, netlist.area.height / 2.0),
            )
            placements[device.name] = Placement(
                device.name, self._clamp_center(netlist, device, center), Rotation.R0
            )
        return placements

    def _clamp_center(self, netlist: Netlist, device: Device, center: Point) -> Point:
        area = netlist.area
        half_w = device.width / 2.0
        half_h = device.height / 2.0
        x = min(max(center.x, half_w), area.width - half_w)
        y = min(max(center.y, half_h), area.height - half_h)
        if device.is_pad:
            # Snap the pad onto the nearest boundary edge.
            distances = {
                "left": x - half_w,
                "right": area.width - half_w - x,
                "bottom": y - half_h,
                "top": area.height - half_h - y,
            }
            edge = min(distances, key=distances.get)
            if edge == "left":
                x = half_w
            elif edge == "right":
                x = area.width - half_w
            elif edge == "bottom":
                y = half_h
            else:
                y = area.height - half_h
        return Point(x, y)

    def _propose(
        self,
        netlist: Netlist,
        placements: Dict[str, Placement],
        rng: random.Random,
        temperature: float,
    ) -> Optional[Dict[str, Placement]]:
        candidate = dict(placements)
        devices = netlist.devices
        if not devices:
            return None
        move = rng.random()
        if move < 0.65:
            device = rng.choice(devices)
            placement = candidate[device.name]
            # Move amplitude shrinks as the annealer cools.
            reach = max(
                10.0,
                self.config.move_fraction
                * min(netlist.area.width, netlist.area.height)
                * (temperature / self.config.initial_temperature),
            )
            shifted = Point(
                placement.center.x + rng.uniform(-reach, reach),
                placement.center.y + rng.uniform(-reach, reach),
            )
            candidate[device.name] = placement.moved_to(
                self._clamp_center(netlist, device, shifted)
            )
        elif move < 0.85 and len(devices) >= 2:
            first, second = rng.sample(devices, 2)
            if first.is_pad != second.is_pad:
                return None
            first_placement = candidate[first.name]
            second_placement = candidate[second.name]
            candidate[first.name] = Placement(
                first.name,
                self._clamp_center(netlist, first, second_placement.center),
                first_placement.rotation,
            )
            candidate[second.name] = Placement(
                second.name,
                self._clamp_center(netlist, second, first_placement.center),
                second_placement.rotation,
            )
        else:
            rotatable = [device for device in devices if device.rotatable and not device.is_pad]
            if not rotatable:
                return None
            device = rng.choice(rotatable)
            placement = candidate[device.name]
            new_rotation = Rotation((int(placement.rotation) + rng.choice((1, 2, 3))) % 4)
            candidate[device.name] = placement.rotated(new_rotation)
        return candidate

    def _cost(self, netlist: Netlist, placements: Dict[str, Placement]) -> float:
        config = self.config
        area = netlist.area
        clearance = netlist.technology.clearance

        wirelength = 0.0
        mismatch = 0.0
        for net in netlist.microstrips:
            start_device = netlist.device(net.start.device)
            end_device = netlist.device(net.end.device)
            start = placements[net.start.device].pin_position(start_device, net.start.pin)
            end = placements[net.end.device].pin_position(end_device, net.end.pin)
            distance = start.manhattan_distance(end)
            wirelength += distance
            # A pin distance longer than the required length is unroutable at
            # that length; shorter only costs detours.
            if distance > net.target_length:
                mismatch += (distance - net.target_length) * 12.0
            else:
                mismatch += (net.target_length - distance) * 0.1

        overlap = 0.0
        outlines: List[Tuple[str, Rect]] = []
        for device in netlist.devices:
            outlines.append(
                (device.name, placements[device.name].outline(device).expanded(clearance))
            )
        for index, (name_a, rect_a) in enumerate(outlines):
            for name_b, rect_b in outlines[index + 1 :]:
                intersection = rect_a.intersection(rect_b)
                if intersection is not None:
                    overlap += min(intersection.width, intersection.height)

        boundary = 0.0
        area_rect = area.rect
        for device in netlist.devices:
            outline = placements[device.name].outline(device)
            if not area_rect.contains_rect(outline):
                boundary += 1.0

        return (
            wirelength
            + config.length_mismatch_weight * mismatch
            + config.overlap_weight * overlap
            + config.boundary_weight * boundary
        )
