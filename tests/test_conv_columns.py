"""Conv's im2col against the pad-then-slice im2col it replaced.

``Conv`` copies each tap's window straight from its input into the
column array and zeroes the cells that would read the padding; backward
adds each tap's column gradient straight into the input gradient.
``PadThenSliceConv`` keeps the earlier form: pad a copy of the input,
slice every tap's window from the copy, and crop a padded gradient.
Both must give the same bits, and Conv must leave its input, which it
now caches without a copy, untouched.
"""

import numpy as np
import pytest

from seizurecnn import training
from seizurecnn.layers import INFER, TRAIN, Conv, Network
from seizurecnn.tensor import seeded_rng
from seizurecnn.topologies import (TOPOLOGIES, ElectrodeLayout, _block_geometry,
                                   build_topology, input_grid)

DTYPES = (np.float32, np.float64)
MODES = (TRAIN, INFER)


class PadThenSliceConv(Conv):
    """Conv as one im2col GEMM over a zero-padded copy of its input."""

    def _windows(self, spatial):
        for offs in np.ndindex(*self.extents):
            yield (slice(None), slice(None)) + tuple(
                slice(o, o + s) for o, s in zip(offs, spatial))

    def _padded_columns(self, padded, spatial):
        cols = np.empty((padded.shape[0], self.maps_in, self._taps) + spatial, dtype=padded.dtype)
        for t, window in enumerate(self._windows(spatial)):
            cols[:, :, t] = padded[window]
        return cols.reshape(padded.shape[0], self.maps_in * self._taps, -1)

    def forward(self, x, mode=TRAIN, rng=None):
        spatial = x.shape[2:]
        padded = np.pad(x, ((0, 0), (0, 0)) + self._pads)
        out = np.matmul(self.kernel.reshape(self.maps_out, -1),
                        self._padded_columns(padded, spatial))
        out += self.bias[:, None]
        return self._keep(mode, out.reshape((x.shape[0], self.maps_out) + spatial), padded)

    def backward(self, upstream):
        padded, = self._kept(upstream)
        spatial = upstream.shape[2:]
        up = upstream.reshape(upstream.shape[0], self.maps_out, -1)
        self.g_bias = up.sum(axis=2).sum(axis=0)
        cols = self._padded_columns(padded, spatial)
        self.g_kernel = np.matmul(up, cols.transpose(0, 2, 1)).sum(axis=0).reshape(
            self.kernel.shape)
        d_cols = np.matmul(self.kernel.reshape(self.maps_out, -1).T, up).reshape(
            (up.shape[0], self.maps_in, self._taps) + spatial)
        d_padded = np.zeros_like(padded)
        for t, window in enumerate(self._windows(spatial)):
            d_padded[window] += d_cols[:, :, t]
        crop = (slice(None), slice(None)) + tuple(
            slice(lo, d_padded.shape[2 + i] - hi) for i, (lo, hi) in enumerate(self._pads))
        return np.ascontiguousarray(d_padded[crop])


def topology_convs():
    """(maps_in, maps_out, extents, spatial) of every conv layer of every topology."""
    cases = []
    for topology in TOPOLOGIES:
        spatial = np.array(input_grid(topology))
        maps_in = 1
        for kernel, pool, maps in _block_geometry(topology):
            cases.append(pytest.param((maps_in, maps, kernel, tuple(int(s) for s in spatial)),
                                      id=f"{topology}-{kernel}"))
            spatial //= np.array(pool)
            maps_in = maps
    return cases


def short_axes():
    """Every kernel extent 1..5 over axes of 1..5 cells, and axes shorter
    than the kernel next to longer ones."""
    cases = [pytest.param((2, 3, (e,), (s,)), id=f"e{e}-s{s}")
             for e in range(1, 6) for s in range(1, 6)]
    for extents, spatial in [((5, 2), (2, 7)), ((4, 3, 1), (1, 2, 6)), ((2, 5, 3), (3, 4, 1))]:
        cases.append(pytest.param((2, 3, extents, spatial), id=f"{extents}-{spatial}"))
    return cases


def conv_pair(maps_in, maps_out, extents, dtype):
    """A Conv and its pad-then-slice reference with the same parameters."""
    convs = [cls(maps_in, maps_out, extents, seeded_rng(1).split("conv"), dtype=dtype)
             for cls in (Conv, PadThenSliceConv)]
    bias = seeded_rng(2).normal(size=maps_out).astype(dtype)
    for conv in convs:
        conv.bias[...] = bias
    return convs


def assert_same_bits(a, b, what):
    assert (a.dtype, a.shape) == (b.dtype, b.shape), what
    assert a.tobytes() == b.tobytes(), what


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("case", topology_convs() + short_axes())
def test_matches_pad_then_slice(case, dtype, mode):
    maps_in, maps_out, extents, spatial = case
    conv, reference = conv_pair(maps_in, maps_out, extents, dtype)
    x = seeded_rng(3).normal(size=(2, maps_in) + spatial).astype(dtype)
    before = x.copy()
    out = conv.forward(x, mode)
    assert_same_bits(out, reference.forward(x, mode), "output")
    if mode == TRAIN:
        up = seeded_rng(4).normal(size=out.shape).astype(dtype)
        assert_same_bits(conv.backward(up), reference.backward(up), "input gradient")
        assert_same_bits(conv.g_kernel, reference.g_kernel, "g_kernel")
        assert_same_bits(conv.g_bias, reference.g_bias, "g_bias")
    assert_same_bits(x, before, "input")


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
def test_caches_its_input_and_returns_a_fresh_gradient(dtype):
    conv = Conv(3, 4, (2, 5), seeded_rng(5), dtype=dtype)
    # a transposed view: neither C- nor F-contiguous once sliced
    x = seeded_rng(6).normal(size=(9, 3, 2, 4)).astype(dtype).transpose(2, 1, 0, 3)[:, :, ::2]
    out = conv.forward(x, TRAIN)
    cached, = conv._cache[1]
    assert np.shares_memory(cached, x)
    up = seeded_rng(7).normal(size=out.shape).astype(dtype)
    dx = conv.backward(up)
    assert dx.flags.c_contiguous and dx.flags.owndata
    assert dx.shape == x.shape and dx.dtype == x.dtype
    assert not np.shares_memory(dx, x) and not np.shares_memory(dx, up)


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_training_step_leaves_conv_inputs_alone(topology, monkeypatch):
    inputs = []
    forward = Conv.forward

    def recording(self, x, *args, **kwargs):
        inputs.append((self.name, x, x.copy()))
        return forward(self, x, *args, **kwargs)

    monkeypatch.setattr(Conv, "forward", recording)
    _, net = build_topology(topology, ElectrodeLayout.default(), seeded_rng(8))
    x = seeded_rng(9).normal(size=(3,) + input_grid(topology)).astype(np.float32)
    training.batch_loss_and_grads(net, x, np.array([0, 1, 1]), 2.0, 0.5,
                                  training.L1_PENALTY, training.L2_PENALTY,
                                  seeded_rng(10).split("dropout"))
    assert [name for name, _, _ in inputs] == [f"conv{i}" for i in range(1, 7)]
    for name, kept, copy in inputs:
        assert_same_bits(kept, copy, f"{name} input")


def network_in(topology, dtype):
    """A topology's network with every array and the input cast to ``dtype``."""
    _, net = build_topology(topology, ElectrodeLayout.default(), seeded_rng(11))
    for layer in net.layers:
        for key in layer.param_keys + layer.buffer_keys:
            setattr(layer, key, getattr(layer, key).astype(dtype))
        for key in layer.param_keys:
            setattr(layer, "g_" + key, getattr(layer, "g_" + key).astype(dtype))
    return Network(net.layers, net.input_grid, dtype=dtype)


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_stack_keeps_its_dtype(topology, dtype):
    net = network_in(topology, dtype)
    x = seeded_rng(12).normal(size=(3,) + input_grid(topology)).astype(dtype)
    rng = seeded_rng(13)
    for mode in (INFER, TRAIN):
        # each layer's own forward, then, after the TRAIN one, its backward
        h = x.reshape((3, 1) + net.input_grid)
        for layer in net.layers:
            h = layer.forward(h, mode, rng)
            assert h.dtype == dtype, f"{layer.name} {mode} forward"
    for layer in reversed(net.layers):
        h = layer.backward(h)
        assert h.dtype == dtype, f"{layer.name} backward"
    # the fused TRAIN path through Network
    out = net.forward(x, TRAIN, rng)
    assert out.dtype == dtype
    assert net.backward(np.ones_like(out)).dtype == dtype
    for key, value in {**net.state(), **net.grads()}.items():
        assert value.dtype == dtype, key
