"""The fused path of a conv block against the layers run one by one.

``Network.forward`` runs every ``Conv -> BatchNorm -> MaxPool -> ReLU``
run of its layer list through one block function. In TRAIN it works over
the conv output in place; these tests hold it to the layer forwards bit
for bit: the output, every cache and the running statistics, then the
gradients and parameters of a whole training step. In INFER it pools the
raw GEMM output of each segment before the bias, BatchNorm's affine and
the ReLU; its output must have the layers' bits too, also where gamma is
negative, zero or minus zero.

``Network.backward`` runs each block's backward one segment at a time,
so neither the pool's nor BatchNorm's input gradient exists at full
resolution; its gradients must have the bits of the four layer backwards,
also over tied pool windows and signed zeros.

With OpenBLAS on one thread, the block and the layers share a batch's
segments over threads. On 1, 2 and 4 threads both must give the bytes the
layers give on one, no thread may outlive a step, and each further thread
may hold one segment's scratch more.
"""

import sys
import threading

import numpy as np
import pytest

from gradcheck import FD_TOL, check_network
from seizurecnn import training
from seizurecnn.layers import (INFER, TRAIN, BatchNorm, Conv, Dense, Flatten, MaxPool,
                               Network, ReLU, Sigmoid)
from seizurecnn.tensor import seeded_rng
from seizurecnn.topologies import (TOPOLOGIES, ElectrodeLayout, _block_geometry,
                                   build_topology, input_grid)
from test_conv_columns import SLACK, traced_peak

DTYPES = (np.float32, np.float64)


class LayerByLayer(Network):
    """A Network whose forward and backward call each layer's own."""

    def forward(self, x, mode=TRAIN, rng=None):
        x = np.asarray(x, dtype=self.dtype)
        if self.input_grid is not None:
            x = x.reshape((x.shape[0], 1) + self.input_grid)
        for layer in self.layers:
            x = layer.forward(x, mode, rng)
        return x

    def backward(self, upstream):
        up = np.asarray(upstream, dtype=self.dtype)
        for layer in reversed(self.layers):
            up = layer.backward(up)
        if self.input_grid is not None:
            up = up.reshape((up.shape[0],) + self.input_grid)
        return up


def assert_same_bits(a, b, what):
    """Equal arrays by their bytes, so signed zeros count; tuples item by item."""
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray), what
        assert (a.dtype, a.shape) == (b.dtype, b.shape), what
        assert a.tobytes() == b.tobytes(), what
    elif isinstance(a, tuple):
        assert isinstance(b, tuple) and len(a) == len(b), what
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same_bits(x, y, f"{what}[{i}]")
    else:
        assert a == b, what


def randomize_batchnorm(layers, rng):
    """Mixed-sign gamma with a zero (an all-tie map for the pool), any
    beta, and running statistics away from (0, 1)."""
    for layer in layers:
        if isinstance(layer, BatchNorm):
            dtype = layer.gamma.dtype
            layer.gamma[...] = rng.normal(size=layer.maps).astype(dtype)
            layer.gamma[0] = 0
            layer.beta[...] = rng.normal(size=layer.maps).astype(dtype)
            layer.running_mean[...] = rng.normal(size=layer.maps).astype(dtype)
            layer.running_var[...] = rng.uniform(0.5, 2.0, size=layer.maps).astype(dtype)


def signed_zero_batchnorm(layers):
    """On top of ``randomize_batchnorm``: a third of gamma 0, a fifth -0,
    beta +0 and -0 by turns, and some running means -0."""
    for layer in layers:
        if isinstance(layer, BatchNorm):
            layer.gamma[::3] = 0
            layer.gamma[1::5] = -0.0
            layer.beta[::4] = 0
            layer.beta[2::4] = -0.0
            layer.running_mean[1::3] = -0.0


def block_networks(topology, block, dtype, batch=3):
    """Two identical networks of one topology block, its input shape."""
    geometry = _block_geometry(topology)
    kernel, pool, maps = geometry[block]
    maps_in = geometry[block - 1][2] if block else 1
    spatial = np.array(input_grid(topology))
    for _, earlier, _ in geometry[:block]:
        spatial //= np.array(earlier)
    nets = []
    for cls in (Network, LayerByLayer):
        init = seeded_rng(block)
        layers = [Conv(maps_in, maps, kernel, init.split("conv"), name="conv", dtype=dtype),
                  BatchNorm(maps, name="bn", dtype=dtype),
                  MaxPool(pool, name="pool"),
                  ReLU(name="act")]
        randomize_batchnorm(layers, seeded_rng(100 + block))
        nets.append(cls(layers, dtype=dtype))
    return nets, (batch, maps_in) + tuple(int(s) for s in spatial)


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("block", range(6))
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_block_forward_matches_layers(topology, block, dtype):
    (fused, reference), shape = block_networks(topology, block, dtype)
    x = seeded_rng(7).normal(size=shape).astype(dtype)
    out = fused.forward(x, TRAIN)
    expected = reference.forward(x, TRAIN)
    assert_same_bits(out, expected, "output")
    for mine, theirs in zip(fused.layers, reference.layers):
        assert_same_bits(mine._cache, theirs._cache, f"{mine.name} cache")
        for key, value in mine.state().items():
            assert_same_bits(value, theirs.state()[key], f"{mine.name}.{key}")
    up = seeded_rng(8).normal(size=out.shape).astype(dtype)
    assert_same_bits(fused.backward(up), reference.backward(up), "input gradient")
    for key, grad in fused.grads().items():
        assert_same_bits(grad, reference.grads()[key], key)


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("block", range(6))
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_block_backward_matches_layers(topology, block, dtype):
    (fused, reference), shape = block_networks(topology, block, dtype)
    for net in (fused, reference):
        signed_zero_batchnorm(net.layers)
        net.layers[0].kernel[-1] = 0  # a constant conv output map: every window ties
    assert np.signbit(fused.layers[1].gamma[1]) and fused.layers[1].gamma[1] == 0
    x = seeded_rng(7).normal(size=shape).astype(dtype)
    up = seeded_rng(8).normal(size=fused.forward(x, TRAIN).shape).astype(dtype)
    up.reshape(-1)[::5] = -0.0
    up[:, 1] = -0.0  # a map whose every upstream cell is -0.0
    # then an upstream of -0.0 only, so every gradient is a sum of signed zeros
    for upstream in (up, np.full_like(up, -0.0)):
        for net in (fused, reference):
            net.forward(x, TRAIN)
        assert_same_bits(fused.backward(upstream), reference.backward(upstream),
                         "input gradient")
        for key, grad in fused.grads().items():
            assert_same_bits(grad, reference.grads()[key], key)
    for layer in fused.layers:
        assert layer._cache is None, layer.name
    with pytest.raises(RuntimeError):
        fused.backward(up)


def test_block_backward_checks_the_upstream_shape():
    (fused, _), shape = block_networks("nv4x4", 1, np.float32)
    out = fused.forward(seeded_rng(9).normal(size=shape).astype(np.float32), TRAIN)
    with pytest.raises(ValueError, match="upstream shape"):
        fused.backward(np.ones(out.shape[:-1] + (out.shape[-1] + 1,), np.float32))


def test_block_backward_skips_the_layer_backwards(monkeypatch):
    fused, _ = topology_networks("nv2x2x4")
    calls = []
    for cls in (Conv, BatchNorm, MaxPool):
        original = cls.backward
        monkeypatch.setattr(cls, "backward", lambda self, *a, _f=original, **k: (
            calls.append(self.name), _f(self, *a, **k))[1])
    x = seeded_rng(10).normal(size=(3,) + input_grid("nv2x2x4")).astype(np.float32)
    out = fused.forward(x, TRAIN, seeded_rng(11))
    fused.backward(np.ones_like(out))
    assert calls == ["bn_in"]  # the standalone BatchNorm runs its own backward


def check_block_backward_peak(topology, threads):
    """Bound the traced peak of one block's backward at batch 8 on
    ``threads`` threads: what one thread holds, plus what each further
    thread holds."""
    batch = 8
    (fused, _), shape = block_networks(topology, 0, np.float32, batch)
    conv = fused.layers[0]
    out = fused.forward(seeded_rng(12).normal(size=shape).astype(np.float32), TRAIN)
    up = seeded_rng(13).normal(size=out.shape).astype(np.float32)
    dx, peak = traced_peak(lambda: fused.backward(up))
    cells = int(np.prod(shape[2:]))
    segment = conv.maps_out * cells * 4  # BatchNorm's input gradient of one segment
    columns = conv.maps_in * conv._taps * cells * 4
    pooled = out.size // batch
    intp = np.dtype(np.intp).itemsize
    # the ReLU's pooled gradient, each window's first cell, and one segment's
    # two intp scratches for the argmax and its cells
    pooled_arrays = up.nbytes + 3 * pooled * intp
    bound = dx.nbytes + segment + 2 * columns + pooled_arrays + SLACK
    # each further thread: its segment, columns, two intp scratches and
    # kernel-gradient term; and the kernel-gradient terms of every share but
    # the first
    kernel = conv.kernel.nbytes
    bound += (threads - 1) * (segment + columns + 2 * pooled * intp + kernel)
    bound += (batch - batch // threads) * kernel if threads > 1 else 0
    assert peak <= bound
    # the pool's input gradient at full resolution alone would be the batch's segments
    assert peak < batch * segment


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_block_backward_holds_no_full_resolution_gradient(topology, pretend_cores):
    pretend_cores(1)
    check_block_backward_peak(topology, 1)


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_block_backward_holds_a_segment_per_thread(topology, pretend_cores, one_blas_thread):
    pretend_cores(2)
    check_block_backward_peak(topology, 2)


def topology_networks(topology):
    """Two identical networks of one topology: fused, and layer by layer."""
    nets = []
    for _ in range(2):
        _, net = build_topology(topology, ElectrodeLayout.default(), seeded_rng(11))
        randomize_batchnorm(net.layers, seeded_rng(12))
        nets.append(net)
    return nets[0], LayerByLayer(nets[1].layers, nets[1].input_grid)


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_training_step_matches_layers(topology):
    fused, reference = topology_networks(topology)
    x = seeded_rng(13).normal(size=(4,) + input_grid(topology)).astype(np.float32)
    y = np.array([0, 1, 1, 0])
    cfg = training.TrainConfig(topology=topology)
    results = []
    for net in (fused, reference):
        loss, grads = training.batch_loss_and_grads(
            net, x, y, 2.0, 0.5, training.L1_PENALTY, training.L2_PENALTY,
            seeded_rng(14).split("dropout"))
        training.adam_step(net.params(), grads, training.AdamState(net.params()), cfg)
        results.append((loss, grads))
    (loss, grads), (expected_loss, expected_grads) = results
    assert loss == expected_loss
    for key, grad in grads.items():
        assert_same_bits(grad, expected_grads[key], f"grad {key}")
    for key, value in fused.state().items():
        assert_same_bits(value, reference.state()[key], key)


def test_train_forward_skips_the_block_forwards(monkeypatch):
    (fused, _), shape = block_networks("nv4x4", 1, np.float32)
    calls = []
    for cls in (BatchNorm, MaxPool):
        original = cls.forward
        monkeypatch.setattr(cls, "forward", lambda self, *a, _f=original, **k: (
            calls.append(self.name), _f(self, *a, **k))[1])
    x = seeded_rng(9).normal(size=shape).astype(np.float32)
    fused.forward(x, TRAIN)
    assert calls == []
    fused.forward(x, INFER)
    assert calls == []


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("block", range(6))
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_infer_block_matches_layers(topology, block, dtype):
    (fused, reference), shape = block_networks(topology, block, dtype)
    for net in (fused, reference):
        signed_zero_batchnorm(net.layers)
    assert (fused.layers[1].gamma < 0).any()
    x = seeded_rng(7).normal(size=shape).astype(dtype)
    before = x.copy()
    assert_same_bits(fused.forward(x, INFER), reference.forward(x, INFER), "output")
    assert_same_bits(x, before, "caller's input")


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_infer_network_matches_layers(topology):
    fused, reference = topology_networks(topology)
    for net in (fused, reference):
        signed_zero_batchnorm(net.layers)
    x = seeded_rng(17).normal(size=(5,) + input_grid(topology)).astype(np.float32)
    assert_same_bits(fused.forward(x, INFER), reference.forward(x, INFER), "output")


def test_infer_block_drops_the_train_caches():
    (fused, _), shape = block_networks("nv1x16", 0, np.float64)
    x = seeded_rng(18).normal(size=shape)
    out = fused.forward(x, TRAIN)
    fused.forward(x, INFER)
    for layer in fused.layers:
        assert layer._cache is None, layer.name
    with pytest.raises(RuntimeError):
        fused.backward(np.ones_like(out))


def test_infer_block_keeps_the_conv_checks():
    (fused, _), shape = block_networks("nv4x4", 1, np.float32)
    with pytest.raises(ValueError, match="input maps"):
        fused.forward(np.zeros((2, shape[1] + 1) + shape[2:], np.float32), INFER)
    with pytest.raises(ValueError, match="rank"):
        fused.forward(np.zeros(shape[:-1], np.float32), INFER)


def test_fused_stack_gradients():
    init = seeded_rng(900).split("init")
    net = Network([
        Conv(1, 2, (3,), init.split("conv"), name="conv", dtype=np.float64),
        BatchNorm(2, name="bn", dtype=np.float64),
        MaxPool((2,), name="pool"),
        ReLU(name="act"),
        Flatten(name="flat"),
        Dense(12, 1, init.split("dense"), name="dense", dtype=np.float64),
        Sigmoid(name="out"),
    ], input_grid=(12,), dtype=np.float64)
    base = seeded_rng(901)
    x = base.split("data").normal(size=(4, 12))
    assert check_network(net, x, base.split("proj")) < FD_TOL


def test_caller_input_never_written():
    init = seeded_rng(3)
    net = Network([BatchNorm(1, name="bn0", dtype=np.float64),
                   MaxPool((2,), name="pool0"),
                   ReLU(name="act0"),
                   Conv(1, 2, (3,), init.split("conv"), name="conv", dtype=np.float64),
                   BatchNorm(2, name="bn1", dtype=np.float64),
                   MaxPool((2,), name="pool1"),
                   ReLU(name="act1")], dtype=np.float64)
    x = seeded_rng(4).normal(size=(3, 1, 16))
    before = x.copy()
    out = net.forward(x, TRAIN)
    net.backward(np.ones_like(out))
    assert_same_bits(x, before, "caller's input")


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_returned_arrays_survive_the_next_step(topology):
    fused, _ = topology_networks(topology)
    data = seeded_rng(15)
    returned = []
    for _ in range(2):
        x = data.normal(size=(3,) + input_grid(topology)).astype(np.float32)
        out = fused.forward(x, TRAIN, seeded_rng(16))
        dx = fused.backward(data.normal(size=out.shape).astype(np.float32))
        returned.append([(a, a.copy()) for a in (x, out, dx)])
    for kept, copy in returned[0]:
        assert_same_bits(kept, copy, "a step-1 array after step 2")


def block_run(net, x, up):
    """Every array a TRAIN forward, its backward and an INFER forward of
    ``net`` give: outputs, caches, state and gradients."""
    arrays = [net.forward(x, TRAIN)]
    arrays += [layer._cache for layer in net.layers]
    arrays += [net.backward(up)]
    arrays += list(net.state().values()) + list(net.grads().values())
    return arrays + [net.forward(x, INFER)]


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("block", range(6))
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_threads_give_the_same_bytes(topology, block, dtype, pretend_cores, one_blas_thread):
    """The block and the layers' own methods on 1, 2 and 4 threads against
    the layers' own methods on one: five segments give 4 threads 1 or 2."""
    runs = []
    for threads in (1, 2, 4):
        pretend_cores(threads)
        nets, shape = block_networks(topology, block, dtype, batch=5)
        x = seeded_rng(7).normal(size=shape).astype(dtype)
        up = seeded_rng(8).normal(size=nets[0].forward(x, INFER).shape).astype(dtype)
        up.reshape(-1)[::5] = -0.0
        for net in nets:
            signed_zero_batchnorm(net.layers)
            runs.append((threads, type(net).__name__, block_run(net, x, up)))
    _, _, expected = runs[1]  # the layers' own methods on one thread
    for threads, name, arrays in runs:
        assert len(arrays) == len(expected)
        for i, (a, b) in enumerate(zip(arrays, expected)):
            assert_same_bits(a, b, f"{name} on {threads} threads, array {i}")


def test_repeated_threaded_blocks_agree(pretend_cores, one_blas_thread):
    """Four threads, more than the cores here, switching every microsecond,
    against one thread; each run on a fresh block, as a TRAIN forward
    moves the running statistics."""
    (_, reference), shape = block_networks("nv4x4", 1, np.float32, batch=9)
    x = seeded_rng(7).normal(size=shape).astype(np.float32)
    up = seeded_rng(8).normal(size=reference.forward(x, INFER).shape).astype(np.float32)
    pretend_cores(1)
    expected = block_run(reference, x, up)
    pretend_cores(4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            (fused, _), _ = block_networks("nv4x4", 1, np.float32, batch=9)
            for a, b in zip(block_run(fused, x, up), expected):
                assert_same_bits(a, b, "a threaded block run")
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_threaded_step_leaves_no_thread(topology, pretend_cores, one_blas_thread):
    pretend_cores(4)
    fused, reference = topology_networks(topology)
    x = seeded_rng(13).normal(size=(6,) + input_grid(topology)).astype(np.float32)
    before = threading.active_count()
    losses = [training.batch_loss_and_grads(net, x, np.array([0, 1] * 3), 2.0, 0.5,
                                            training.L1_PENALTY, training.L2_PENALTY,
                                            seeded_rng(14).split("dropout"))[0]
              for net in (fused, reference)]
    assert threading.active_count() == before
    assert losses[0] == losses[1]


def test_batchnorm_backward_matches_the_formula():
    layer = BatchNorm(3, name="bn", dtype=np.float32)
    randomize_batchnorm([layer], seeded_rng(20))
    x = seeded_rng(21).normal(size=(4, 3, 50)).astype(np.float32)
    up = seeded_rng(22).normal(size=x.shape).astype(np.float32)
    layer.forward(x, TRAIN)
    xhat, inv_std = (a.copy() for a in layer._cache[1])
    dx = layer.backward(up)
    count = xhat.shape[0] * xhat.shape[2]
    expected = xhat * (-layer.g_gamma / count)[:, None]
    expected += up
    expected -= (layer.g_beta / count)[:, None]
    expected *= (layer.gamma * inv_std)[:, None]
    assert_same_bits(dx, expected, "dx")
