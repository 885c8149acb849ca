"""Conv's per-segment im2col against a full-batch, pad-then-slice im2col,
and MaxPool's per-segment backward against a full-batch scatter.

``Conv`` copies each tap's window straight from one segment of its input
into one column scratch, zeroes the cells that would read the padding
once, and runs each product as one GEMM per segment; backward adds each
tap's column gradient straight into the input gradient.
``PadThenSliceConv`` keeps the earlier form: pad a copy of the input,
slice every tap's window of the whole batch from the copy, one batched
GEMM per product, and crop a padded gradient.  ``flat_then_transpose``
is MaxPool's earlier backward.  Each pair must give the same bits,
signed zeros included, Conv must leave its input, which it caches
without a copy, untouched, and neither may hold a batch-sized scratch.
"""

import tracemalloc

import numpy as np
import pytest

from seizurecnn import training
from seizurecnn.layers import INFER, TRAIN, Conv, MaxPool, Network
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


def with_signed_zeros(a):
    """``a`` with every fifth entry ``-0.0`` and every seventh ``+0.0``."""
    flat = a.reshape(-1)
    flat[::5] = -0.0
    flat[::7] = 0.0
    return a


@pytest.mark.parametrize("batch", (1, 2, 3))
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("case", topology_convs())
def test_segments_match_batched_gemm(case, dtype, batch):
    maps_in, maps_out, extents, spatial = case
    conv, reference = conv_pair(maps_in, maps_out, extents, dtype)
    x = with_signed_zeros(seeded_rng(14).normal(size=(batch, maps_in) + spatial).astype(dtype))
    out = conv.forward(x, TRAIN)
    assert_same_bits(out, reference.forward(x, TRAIN), "output")
    up = with_signed_zeros(seeded_rng(15).normal(size=out.shape).astype(dtype))
    up[0, 0] = -0.0  # a map whose every upstream cell is -0.0
    assert_same_bits(conv.backward(up), reference.backward(up), "input gradient")
    assert_same_bits(conv.g_kernel, reference.g_kernel, "g_kernel")
    assert_same_bits(conv.g_bias, reference.g_bias, "g_bias")


def flat_then_transpose(pool, argmax, upstream, in_shape):
    """MaxPool's earlier backward: scatter the whole batch into a
    ``(..., window cells)`` array, then transpose it back into place."""
    rank = len(pool.window)
    flat = np.zeros(upstream.shape + (int(np.prod(pool.window)),), dtype=upstream.dtype)
    np.put_along_axis(flat, argmax[..., None], upstream[..., None], axis=-1)
    perm = (0, 1) + tuple(a for i in range(rank) for a in (2 + i, 2 + rank + i))
    return flat.reshape(upstream.shape + pool.window).transpose(perm).reshape(in_shape)


def topology_windows():
    return sorted({pool for topology in TOPOLOGIES
                   for _, pool, _ in _block_geometry(topology)}, key=lambda w: (len(w), w))


@pytest.mark.parametrize("batch", (1, 2, 3))
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("window", topology_windows(), ids=str)
def test_pool_backward_matches_flat_then_transpose(window, dtype, batch):
    pool = MaxPool(window)
    shape = (batch, 3) + tuple(w * n for w, n in zip(window, (3, 2, 2, 3)[-len(window):]))
    # few distinct values, so most windows hold ties, and zeros of both signs
    x = seeded_rng(16).integers(-2, 3, size=shape).astype(dtype)
    x[seeded_rng(17).uniform(size=shape) < 0.5] *= -1
    out = pool.forward(x, TRAIN)
    argmax = pool._cache[1][0]
    up = with_signed_zeros(seeded_rng(18).normal(size=out.shape).astype(dtype))
    assert_same_bits(pool.backward(up), flat_then_transpose(pool, argmax, up, x.shape),
                     "input gradient")


def traced_peak(call):
    """What ``call`` returns, and the peak of what it allocates meanwhile."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# index tuples, views, and numpy's fixed-size ufunc buffers (8192 items per operand)
SLACK = 256 * 1024


def check_conv_peaks(threads):
    """Bound the traced peaks of a Conv's forward and backward at batch 8
    on ``threads`` threads: what one thread holds, plus what each further
    thread holds."""
    batch, maps_in, extents, spatial = 8, 16, (1, 2, 5), (4, 4, 120)
    conv = Conv(maps_in, 32, extents, seeded_rng(19))
    x = seeded_rng(20).normal(size=(batch, maps_in) + spatial).astype(np.float32)
    segment = maps_in * conv._taps * int(np.prod(spatial)) * x.itemsize  # one segment's columns
    out, forward = traced_peak(lambda: conv.forward(x, TRAIN))
    assert forward <= out.nbytes + segment + (threads - 1) * segment + SLACK
    up = seeded_rng(21).normal(size=out.shape).astype(np.float32)
    dx, backward = traced_peak(lambda: conv.backward(up))
    # the columns and their gradient, one segment each; each further thread
    # its columns and kernel-gradient term, and every share but the first
    # its segments' kernel-gradient terms
    kernel = conv.kernel.nbytes
    later = batch - batch // threads if threads > 1 else 0
    assert backward <= (dx.nbytes + 2 * segment + (threads - 1) * (segment + kernel)
                        + later * kernel + SLACK)
    # the batch's columns would be ``batch`` segments
    assert max(forward, backward) < batch * segment / 2


def test_conv_holds_segment_columns_only(pretend_cores):
    pretend_cores(1)
    check_conv_peaks(1)


def test_conv_holds_segment_columns_per_thread(pretend_cores, one_blas_thread):
    pretend_cores(2)
    check_conv_peaks(2)


@pytest.mark.parametrize("window,windows", [((1, 5), (4, 600)), ((1, 1, 2, 5), (2, 2, 2, 300)),
                                            ((2, 1, 1, 4), (2, 2, 4, 300))], ids=str)
def test_pool_backward_holds_segment_indices_only(window, windows):
    batch = 8
    pool = MaxPool(window)
    shape = (batch, 16) + tuple(w * n for w, n in zip(window, windows))
    out = pool.forward(seeded_rng(22).normal(size=shape).astype(np.float32), TRAIN)
    up = seeded_rng(23).normal(size=out.shape).astype(np.float32)
    dx, peak = traced_peak(lambda: pool.backward(up))
    # one segment's flat indices: each window's first cell, its argmax cell,
    # and numpy's intp copy of the uint8 argmax while it indexes
    indices = 3 * np.dtype(np.intp).itemsize * (out.size // batch)
    assert peak <= dx.nbytes + indices + SLACK
