"""Deterministic synthetic design generation.

The ICCAD2019 contest designs cannot be redistributed, so benchmarks are
generated with the structural features that drive a global router's
behaviour:

* **pin-count distribution** — dominated by 2–3-pin nets with a
  geometric tail up to ``max_pins`` (fan-out nets);
* **locality** — most nets are short (pins clustered around a centre
  with a log-uniform spread), a small fraction span the die;
* **congestion hotspots** — net centres are drawn from a mixture of a
  uniform background and a few Gaussian clusters, so demand piles up in
  predictable regions and the rip-up-and-reroute stage has real work;
* **layer-limited pins** — pins sit on the lowest metals, as standard
  cells do;
* **blockages** — rectangular capacity reductions stand in for macros;
* **unusable M1** — the lowest metal carries pins but almost no routing
  capacity.

Everything is derived from a single seed via SHA-256, so a named
benchmark is bit-identical across runs and machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.grid.graph import GridGraph
from repro.grid.layers import Direction, LayerStack
from repro.netlist.delta import NetlistDelta
from repro.netlist.design import Design
from repro.netlist.net import Net, Netlist, Pin
from repro.utils.rng import make_rng


@dataclass
class DesignSpec:
    """Parameters of a synthetic design."""

    name: str
    nx: int
    ny: int
    n_layers: int
    n_nets: int
    wire_capacity: float = 8.0
    via_capacity: float = 24.0
    max_pins: int = 12
    extra_pin_p: float = 0.45  # geometric tail: P(one more pin beyond 2)
    local_fraction: float = 0.92  # nets whose spread is local
    # None = scale with design size (one hotspot per ~400 nets), so the
    # per-hotspot overload stays constant across the suite.
    n_hotspots: Optional[int] = None
    hotspot_fraction: float = 0.35  # nets whose centre comes from a hotspot
    n_blockages: int = 4
    blockage_capacity_fraction: float = 0.25
    m1_capacity: float = 0.0
    first_direction: Direction = Direction.VERTICAL
    seed: int = 0
    pin_layer_weights: Tuple[float, ...] = (0.6, 0.3, 0.1)

    def __post_init__(self) -> None:
        if self.n_layers < 2:
            raise ValueError("need at least two layers")
        if self.nx < 4 or self.ny < 4:
            raise ValueError("grid too small for a meaningful design")
        if not 0 <= self.local_fraction <= 1:
            raise ValueError("local_fraction must be in [0, 1]")


def _draw_pin_counts(spec: DesignSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw the pin count of every net: 2 + geometric tail, capped."""
    extra = rng.geometric(1.0 - spec.extra_pin_p, size=spec.n_nets) - 1
    return np.minimum(2 + extra, spec.max_pins)


def _n_hotspots(spec: DesignSpec) -> int:
    """Resolve the hotspot count (scales with design size when unset)."""
    if spec.n_hotspots is not None:
        return spec.n_hotspots
    return max(3, spec.n_nets // 400)


def _draw_centres(spec: DesignSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw net centres from a uniform/hotspot mixture; shape (n, 2)."""
    centres = np.column_stack(
        [
            rng.uniform(0, spec.nx, size=spec.n_nets),
            rng.uniform(0, spec.ny, size=spec.n_nets),
        ]
    )
    n_hotspots = _n_hotspots(spec)
    if n_hotspots > 0 and spec.hotspot_fraction > 0:
        hot_xy = np.column_stack(
            [
                rng.uniform(0.15 * spec.nx, 0.85 * spec.nx, size=n_hotspots),
                rng.uniform(0.15 * spec.ny, 0.85 * spec.ny, size=n_hotspots),
            ]
        )
        sigma = 0.08 * min(spec.nx, spec.ny)
        in_hot = rng.random(spec.n_nets) < spec.hotspot_fraction
        which = rng.integers(0, n_hotspots, size=spec.n_nets)
        jitter = rng.normal(0.0, sigma, size=(spec.n_nets, 2))
        centres[in_hot] = hot_xy[which[in_hot]] + jitter[in_hot]
    return centres


def _draw_spreads(spec: DesignSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw per-net pin spread (log-uniform local, die-scale global)."""
    span = max(spec.nx, spec.ny)
    local_hi = max(3.0, span / 8.0)
    spreads = np.exp(rng.uniform(np.log(1.0), np.log(local_hi), size=spec.n_nets))
    is_global = rng.random(spec.n_nets) >= spec.local_fraction
    spreads[is_global] = rng.uniform(span / 4.0, span / 1.5, size=int(is_global.sum()))
    return spreads


def _layer_weights(spec: DesignSpec) -> np.ndarray:
    """The (truncated, renormalised) pin-layer weights of ``spec``."""
    weights = np.array(spec.pin_layer_weights[: spec.n_layers], dtype=float)
    weights /= weights.sum()
    return weights


def generate_design(spec: DesignSpec) -> Design:
    """Generate the deterministic design described by ``spec``."""
    rng = make_rng((spec.name, spec.seed))
    stack = LayerStack(spec.n_layers, spec.first_direction)
    graph = GridGraph(
        spec.nx,
        spec.ny,
        stack,
        wire_capacity=spec.wire_capacity,
        via_capacity=spec.via_capacity,
    )
    # M1 carries pins, not wires.
    graph.wire_capacity[0][:] = spec.m1_capacity
    _apply_blockages(spec, rng, graph)

    pin_counts = _draw_pin_counts(spec, rng)
    centres = _draw_centres(spec, rng)
    spreads = _draw_spreads(spec, rng)

    nets: List[Net] = []
    weights = _layer_weights(spec)
    for i in range(spec.n_nets):
        pins = _make_net_pins(
            spec, weights, rng, centres[i], spreads[i], int(pin_counts[i])
        )
        nets.append(Net(f"net{i}", pins))
    design = Design(
        spec.name,
        graph,
        Netlist(nets),
        metadata={"spec": spec, "seed": spec.seed},
    )
    design.validate()
    return design


def _make_net_pins(
    spec: DesignSpec,
    layer_weights: np.ndarray,
    rng: np.random.Generator,
    centre: np.ndarray,
    spread: float,
    n_pins: int,
) -> List[Pin]:
    """Scatter ``n_pins`` pins around ``centre`` with Laplace offsets.

    Duplicate grid locations are redrawn a few times, then accepted (two
    pins in the same G-cell are legal — the router connects them with
    vias only).
    """
    pins: List[Pin] = []
    taken = set()
    layers = rng.choice(len(layer_weights), size=n_pins, p=layer_weights)
    for k in range(n_pins):
        for _attempt in range(8):
            offset = rng.laplace(0.0, spread / 2.0, size=2)
            x = min(max(round(centre[0] + offset[0]), 0), spec.nx - 1)
            y = min(max(round(centre[1] + offset[1]), 0), spec.ny - 1)
            if (x, y) not in taken:
                break
        taken.add((x, y))
        pins.append(Pin(x, y, int(layers[k])))
    return pins


def _apply_blockages(
    spec: DesignSpec, rng: np.random.Generator, graph: GridGraph
) -> None:
    """Reduce wire capacity inside random rectangles (macro stand-ins).

    Blockages affect the lower routing layers (macros rarely block the
    top metals), mirroring how contest designs lose capacity over macros.
    """
    if spec.n_blockages <= 0:
        return
    blocked_layers = range(1, min(4, graph.n_layers))
    for _ in range(spec.n_blockages):
        w = int(rng.integers(max(2, spec.nx // 10), max(3, spec.nx // 4)))
        h = int(rng.integers(max(2, spec.ny // 10), max(3, spec.ny // 4)))
        x0 = int(rng.integers(0, spec.nx - w))
        y0 = int(rng.integers(0, spec.ny - h))
        for layer in blocked_layers:
            cap = graph.wire_capacity[layer]
            if graph.stack.is_horizontal(layer):
                region = cap[max(x0, 0) : x0 + w, y0 : y0 + h]
            else:
                region = cap[x0 : x0 + w, max(y0, 0) : y0 + h]
            region *= spec.blockage_capacity_fraction


# --------------------------------------------------------------------- #
# ECO perturbations
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class PerturbSpec:
    """Parameters of a reproducible ECO perturbation.

    Fractions are of the base design's net count; each resolves to at
    least one net when positive.  Moved nets are re-scattered around a
    jittered centre (a placement tweak); added nets are fresh local
    nets drawn like the generator's.
    """

    name: str = "custom"
    move_fraction: float = 0.02
    add_fraction: float = 0.01
    remove_fraction: float = 0.01
    max_shift: float = 4.0  # G-cells a moved net's centre may drift
    max_pins: int = 4  # pin cap of added nets

    def __post_init__(self) -> None:
        for attr in ("move_fraction", "add_fraction", "remove_fraction"):
            value = getattr(self, attr)
            if not 0 <= value <= 1:
                raise ValueError(f"{attr} must be in [0, 1], got {value}")


#: Named ECO workloads, smallest to largest.
ECO_PRESETS: dict = {
    "tiny": PerturbSpec("tiny", 0.01, 0.005, 0.005),
    "small": PerturbSpec("small", 0.02, 0.01, 0.01),
    "medium": PerturbSpec("medium", 0.05, 0.025, 0.025),
}


def _resolve_count(fraction: float, n_nets: int) -> int:
    """Resolve a fraction of the netlist to a count (>=1 when positive)."""
    if fraction <= 0:
        return 0
    return max(1, int(round(fraction * n_nets)))


def perturb_design(
    design: Design, spec: PerturbSpec, seed: int = 0
) -> NetlistDelta:
    """Draw a deterministic ECO delta for ``design``.

    Everything derives from ``(design.name, spec.name, seed)`` via the
    same SHA-256 seeding as the generator, so a named workload is
    bit-identical across runs and machines.  Moved, removed, and added
    nets are disjoint; added net names are unique
    (``eco{seed}_net{i}``).
    """
    rng = make_rng((design.name, "eco", spec.name, seed))
    nets = list(design.netlist)
    nx, ny = design.graph.nx, design.graph.ny
    n_layers = design.graph.n_layers

    n_move = _resolve_count(spec.move_fraction, len(nets))
    n_remove = _resolve_count(spec.remove_fraction, len(nets))
    if n_move + n_remove > len(nets):
        raise ValueError("perturbation edits more nets than the design has")
    picked = rng.choice(len(nets), size=n_move + n_remove, replace=False)
    moved_idx, removed_idx = picked[:n_move], picked[n_move:]

    pin_weights = DesignSpec(
        name="_eco", nx=nx, ny=ny, n_layers=n_layers, n_nets=1
    )
    layer_weights = _layer_weights(pin_weights)

    moved: List[Net] = []
    for i in sorted(int(j) for j in moved_idx):
        net = nets[i]
        shift = rng.uniform(-spec.max_shift, spec.max_shift, size=2)
        centre = np.array(
            [
                (net.bbox.xlo + net.bbox.xhi) / 2.0 + shift[0],
                (net.bbox.ylo + net.bbox.yhi) / 2.0 + shift[1],
            ]
        )
        spread = max(1.0, max(net.bbox.width, net.bbox.height) / 2.0)
        pins = _make_net_pins(
            pin_weights, layer_weights, rng, centre, spread, net.n_pins
        )
        moved.append(Net(net.name, pins))

    removed = tuple(nets[i].name for i in sorted(int(j) for j in removed_idx))

    added: List[Net] = []
    span = max(nx, ny)
    for i in range(_resolve_count(spec.add_fraction, len(nets))):
        centre = np.array(
            [rng.uniform(0, nx), rng.uniform(0, ny)]
        )
        spread = float(np.exp(rng.uniform(np.log(1.0), np.log(max(3.0, span / 8.0)))))
        n_pins = int(rng.integers(2, max(3, spec.max_pins + 1)))
        pins = _make_net_pins(pin_weights, layer_weights, rng, centre, spread, n_pins)
        added.append(Net(f"eco{seed}_net{i}", pins))

    return NetlistDelta(removed=removed, added=tuple(added), moved=tuple(moved))


__all__ = [
    "DesignSpec",
    "generate_design",
    "PerturbSpec",
    "ECO_PRESETS",
    "perturb_design",
]
