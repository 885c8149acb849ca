"""The fused TRAIN path of a conv block against the layers run one by one.

In TRAIN mode ``Network.forward`` runs every ``Conv -> BatchNorm ->
MaxPool -> ReLU`` run of its layer list through one function that works
over the conv output in place. These tests hold it to the three layer
forwards bit for bit: the output, every cache and the running
statistics, then the gradients and parameters of a whole training step.
"""

import numpy as np
import pytest

from gradcheck import FD_TOL, check_network
from seizurecnn import training
from seizurecnn.layers import (TRAIN, BatchNorm, Conv, Dense, Flatten, MaxPool,
                               Network, ReLU, Sigmoid)
from seizurecnn.tensor import seeded_rng
from seizurecnn.topologies import (TOPOLOGIES, ElectrodeLayout, _block_geometry,
                                   build_topology, input_grid)

DTYPES = (np.float32, np.float64)


class LayerByLayer(Network):
    """A Network whose forward calls each layer's own forward."""

    def forward(self, x, mode=TRAIN, rng=None):
        x = np.asarray(x, dtype=self.dtype)
        if self.input_grid is not None:
            x = x.reshape((x.shape[0], 1) + self.input_grid)
        for layer in self.layers:
            x = layer.forward(x, mode, rng)
        return x


def assert_same_bits(a, b, what):
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


def block_networks(topology, block, dtype):
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
    return nets, (3, maps_in) + tuple(int(s) for s in spatial)


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
    fused.forward(x, "infer")
    assert calls == ["bn", "pool"]


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
