"""The three network variants over a 16-channel electrode grid.

All variants share one time-axis schedule: six conv blocks whose pools
shrink 3000 samples to a single one (5*5*5*4*3*2 = 3000), feature maps
widening 16, 32, 32, 64, 64, 128.  They differ only in how the 16
channels are laid out spatially and whether kernels may mix them:

  nv1x16   input (16, 3000); channels stay independent until the head
  nv4x4    input (4, 4, 3000) as strip x contact; kernels span contacts
  nv2x2x4  input (2, 2, 4, 3000) as hemisphere x strip x contact; the
           contact, strip and hemisphere axes are merged in that order

Each block is conv -> batch norm -> max pool -> ReLU, preceded by a
batch norm on the raw input and followed by a shared dense head
(dropout 0.2, 64 hidden units, dropout 0.5, sigmoid output).  Counting
everything except the flatten reshape gives 31 layers.  Pooling before
the ReLU gives the same values and gradients as ReLU before pooling,
because max pooling commutes with a monotone function and both
orders pass no gradient through a window whose maximum is <= 0; the ReLU
then runs on a tensor the pool has already shrunk 2 to 10 times.

Each topology is one row of GRIDS: its spatial grid ahead of the time
axis, the ElectrodeLayout coordinates that index that grid, outermost
first, and a block column holding each block's spatial (kernel, pool)
extents, to which TIME_BLOCKS appends the time axis.  Sorting the
channels by those coordinates puts them in grid order: nv1x16 uses none
and ignores the layout, nv4x4 sorts by strip and contact, and nv2x2x4 by
hemisphere, strip and contact.  Each hemisphere holds two whole strips,
so the sort ranks a strip within its hemisphere.  The builder derives the
rest: the layer stack from the block column and the dense input width
from the grid cells the pools leave.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LayoutError
from .layers import (BatchNorm, Conv, Dense, Dropout, Flatten, MaxPool,
                     Network, ReLU, Sigmoid)
from .tensor import RngStream, Tensor, check_fields, load_json, save_json

N_CHANNELS = 16
SEGMENT_SAMPLES = 3000

#: per topology: (spatial grid ahead of time, layout coordinates indexing it,
#: the spatial (kernel, pool) extents of blocks 1..6)
GRIDS = {
    "nv1x16": ((N_CHANNELS,), (), (
        ((1,), (1,)), ((1,), (1,)), ((1,), (1,)),
        ((1,), (1,)), ((1,), (1,)), ((1,), (1,)))),
    "nv4x4": ((4, 4), ("strips", "contacts"), (
        ((1, 2), (1, 1)), ((1, 2), (1, 2)), ((1, 2), (1, 2)),
        ((1, 1), (1, 1)), ((1, 1), (1, 1)), ((1, 1), (1, 1)))),
    "nv2x2x4": ((2, 2, 4), ("hemispheres", "strips", "contacts"), (
        ((1, 1, 2), (1, 1, 2)), ((1, 1, 2), (1, 1, 2)), ((1, 2, 1), (1, 2, 1)),
        ((2, 1, 1), (2, 1, 1)), ((1, 1, 1), (1, 1, 1)), ((1, 1, 1), (1, 1, 1)))),
}
TOPOLOGIES = tuple(GRIDS)

#: per block: (time kernel extent, time pool extent, feature maps out)
TIME_BLOCKS = ((5, 5, 16), (5, 5, 32), (5, 5, 32), (4, 4, 64), (3, 3, 64), (2, 2, 128))

HIDDEN_UNITS = 64
DROPOUT_FLAT = 0.2
DROPOUT_HIDDEN = 0.5


def input_grid(topology: str) -> tuple[int, ...]:
    """Spatial input shape (time last) for one topology."""
    if topology not in GRIDS:
        raise ConfigError(f"unknown topology {topology!r}, expected one of {TOPOLOGIES}")
    return GRIDS[topology][0] + (SEGMENT_SAMPLES,)


class ElectrodeLayout:
    """Maps each of the 16 channels to its position on the electrode grid.

    Every channel gets a global strip 0..3 and a contact 0..3; the 16
    (strip, contact) pairs must cover the full 4x4 grid.  Hemisphere
    assignments (0 or 1 per channel) are optional because not every
    recording documents them.  When present, each hemisphere must hold
    exactly two strips and all contacts of a strip must sit on the same
    hemisphere.
    """

    def __init__(self, strips, contacts, hemispheres=None):
        self.strips = tuple(int(s) for s in strips)
        self.contacts = tuple(int(c) for c in contacts)
        self.hemispheres = None if hemispheres is None else tuple(int(h) for h in hemispheres)
        self._validate()

    def _validate(self) -> None:
        if len(self.strips) != N_CHANNELS or len(self.contacts) != N_CHANNELS:
            raise LayoutError(f"layout must assign all {N_CHANNELS} channels")
        if any(s not in range(4) for s in self.strips):
            raise LayoutError("strip indices must be 0..3")
        if any(c not in range(4) for c in self.contacts):
            raise LayoutError("contact indices must be 0..3")
        pairs = set(zip(self.strips, self.contacts))
        if len(pairs) != N_CHANNELS:
            raise LayoutError("(strip, contact) pairs must cover the 4x4 grid exactly once")
        if self.hemispheres is None:
            return
        if len(self.hemispheres) != N_CHANNELS:
            raise LayoutError("hemisphere must be assigned to all channels or none")
        if any(h not in (0, 1) for h in self.hemispheres):
            raise LayoutError("hemisphere indices must be 0 or 1")
        strip_hemi: dict[int, int] = {}
        for strip, hemi in zip(self.strips, self.hemispheres):
            if strip_hemi.setdefault(strip, hemi) != hemi:
                raise LayoutError(f"strip {strip} spans both hemispheres")
        for hemi in (0, 1):
            n = sum(1 for h in strip_hemi.values() if h == hemi)
            if n != 2:
                raise LayoutError(f"hemisphere {hemi} has {n} strips, expected 2")

    @classmethod
    def default(cls) -> "ElectrodeLayout":
        """Channel c sits at strip c//4, contact c%4, hemisphere c//8."""
        chans = range(N_CHANNELS)
        return cls([c // 4 for c in chans], [c % 4 for c in chans], [c // 8 for c in chans])

    @classmethod
    def from_mapping(cls, obj) -> "ElectrodeLayout":
        """Read a layout document: channel keys "0".."15", each mapping to
        its strip, contact and optional hemisphere."""
        channels = [str(ch) for ch in range(N_CHANNELS)]
        check_fields(obj, dict.fromkeys(channels, dict), channels, "layout", LayoutError)
        # JSON integers only: int() would truncate 1.5 and parse "2"
        position = dict.fromkeys(("strip", "contact", "hemisphere"), int)
        entries = [check_fields(obj[ch], position, ["strip", "contact"], f"channel {ch}",
                                LayoutError) for ch in channels]
        # some channels without a hemisphere fail _validate's all-or-none check
        hemis = [e["hemisphere"] for e in entries if "hemisphere" in e]
        return cls([e["strip"] for e in entries], [e["contact"] for e in entries],
                   hemis or None)

    def to_mapping(self) -> dict:
        out: dict[str, dict] = {}
        for ch in range(N_CHANNELS):
            entry = {"strip": self.strips[ch], "contact": self.contacts[ch]}
            if self.hemispheres is not None:
                entry["hemisphere"] = self.hemispheres[ch]
            out[str(ch)] = entry
        return out

    @classmethod
    def load(cls, path) -> "ElectrodeLayout":
        return cls.from_mapping(load_json(path, "layout file", LayoutError))

    def save(self, path) -> None:
        save_json(path, self.to_mapping())

    def content_hash(self) -> str:
        canonical = json.dumps(self.to_mapping(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def channel_order(topology: str, layout: ElectrodeLayout | None) -> np.ndarray | None:
    """Channel index occupying each grid cell, flattened row-major: the
    channels sorted by the topology's layout coordinates, outermost first.
    None for a grid no coordinate indexes, which keeps the channel order."""
    coords = GRIDS[topology][1]
    if not coords:
        return None
    if layout is None:
        raise LayoutError(f"{topology} needs an electrode layout")
    if layout.hemispheres is None and "hemispheres" in coords:
        raise LayoutError(f"{topology} needs hemisphere assignments in the layout")
    return np.lexsort([getattr(layout, c) for c in reversed(coords)])


def reshape_batch(segments: Tensor, topology: str,
                  layout: ElectrodeLayout | None = None) -> Tensor:
    """Arrange (n, 16, 3000) segments onto the topology's input grid.

    Values are only permuted, never altered; nv1x16 returns the input
    unchanged whatever the layout.
    """
    segments = np.asarray(segments)
    if segments.ndim != 3 or segments.shape[1:] != (N_CHANNELS, SEGMENT_SAMPLES):
        raise ValueError(
            f"expected (n, {N_CHANNELS}, {SEGMENT_SAMPLES}) segments, got {segments.shape}")
    grid = input_grid(topology)
    order = channel_order(topology, layout)
    if order is None:
        return segments
    return segments[:, order, :].reshape((segments.shape[0],) + grid)


@dataclass(frozen=True)
class LayerDesc:
    """One layer of a built network: its name, its kind (the lowercased
    class name) and whichever shape settings that kind has."""
    name: str
    kind: str
    kernel: tuple[int, ...] | None = None
    pool: tuple[int, ...] | None = None
    maps: int | None = None
    rate: float | None = None
    units: int | None = None

    @classmethod
    def of(cls, layer) -> "LayerDesc":
        return cls(layer.name, type(layer).__name__.lower(),
                   kernel=getattr(layer, "extents", None),
                   pool=getattr(layer, "window", None),
                   maps=getattr(layer, "maps_out", getattr(layer, "maps", None)),
                   rate=getattr(layer, "rate", None),
                   units=getattr(layer, "n_out", None))


@dataclass(frozen=True)
class ParamInfo:
    shape: tuple[int, ...]
    trainable: bool
    regularized: bool


@dataclass(frozen=True)
class ModelSpec:
    topology: str
    input_grid: tuple[int, ...]
    layers: tuple[LayerDesc, ...]
    manifest: dict[str, ParamInfo]
    n_layers: int


def _block_geometry(topology: str) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """(kernel extents, pool extents, feature maps) per block, time axis last."""
    return [(kernel + (kt,), pool + (pt,), maps)
            for (kernel, pool), (kt, pt, maps) in zip(GRIDS[topology][2], TIME_BLOCKS)]


def build_topology(topology: str, layout: ElectrodeLayout | None,
                   rng: RngStream) -> tuple[ModelSpec, Network]:
    """Construct one topology with freshly initialized parameters.

    Kernels are Glorot-uniform, biases zero, batch norm starts at the
    identity with running statistics (0, 1).  The parameter manifest in
    the returned ModelSpec depends only on the topology, never on the
    seed or layout.
    """
    grid = input_grid(topology)
    channel_order(topology, layout)  # raises on a layout this grid cannot use
    init = rng.split("init")

    layers: list = [BatchNorm(1, name="bn_in")]
    blocks = _block_geometry(topology)
    maps_in = 1
    for i, (kernel, pool, maps) in enumerate(blocks, start=1):
        layers += [
            Conv(maps_in, maps, kernel, init.split(f"conv{i}"), name=f"conv{i}"),
            BatchNorm(maps, name=f"bn{i}"),
            MaxPool(pool, name=f"pool{i}"),
            ReLU(name=f"act{i}"),
        ]
        maps_in = maps
    # the dense head reads every grid cell the pools leave
    cells = np.array(grid) // np.prod([pool for _, pool, _ in blocks], axis=0)
    flat = maps_in * int(cells.prod())

    layers += [
        Flatten(name="flatten"),
        Dropout(DROPOUT_FLAT, name="drop1"),
        Dense(flat, HIDDEN_UNITS, init.split("dense1"), name="dense1"),
        ReLU(name="act7"),
        Dropout(DROPOUT_HIDDEN, name="drop2"),
        Dense(HIDDEN_UNITS, 1, init.split("dense2"), name="dense2"),
        Sigmoid(name="out"),
    ]

    network = Network(layers, input_grid=grid)
    trainable = set(network.params())
    regularized = set(network.regularized_names())
    manifest = {name: ParamInfo(tuple(arr.shape), name in trainable, name in regularized)
                for name, arr in network.state().items()}
    # the flatten reshape is not counted as a layer
    spec = ModelSpec(topology, grid, tuple(LayerDesc.of(layer) for layer in layers), manifest,
                     n_layers=len(layers) - 1)
    return spec, network
