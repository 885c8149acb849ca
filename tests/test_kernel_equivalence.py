"""The GEMM convolution and two-pass batch norm agree with their references.

Every conv and batch-norm layer of each topology is run at its real input
shape, batch 4, in float32, on the activations a forward pass of the
freshly built network feeds it.  Forward output, input gradient and
parameter gradients must each lie within ``REL_TOL * max|reference|`` of
the tap-loop and three-pass references in ``reference_layers``.
"""

import numpy as np
import pytest

from reference_layers import TapLoopConv, ThreePassBatchNorm
from seizurecnn.layers import INFER, TRAIN, BatchNorm, Conv, Flatten
from seizurecnn.tensor import seeded_rng
from seizurecnn.topologies import TOPOLOGIES, ElectrodeLayout, build_topology

REL_TOL = 1e-5
BATCH = 4


def assert_close(new, ref, what):
    new = np.asarray(new, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    assert new.shape == ref.shape, what
    bound = REL_TOL * np.abs(ref).max()
    err = np.abs(new - ref).max()
    assert err <= bound, f"{what}: max abs error {err:.3g} exceeds {bound:.3g}"


def reference_for(layer):
    if isinstance(layer, Conv):
        ref = TapLoopConv(layer.maps_in, layer.maps_out, layer.extents,
                          seeded_rng(0), name=layer.name, dtype=layer.kernel.dtype)
    else:
        ref = ThreePassBatchNorm(layer.maps, name=layer.name, dtype=layer.gamma.dtype)
    ref.set_state(layer.state())
    return ref


def trunk_inputs(topology):
    """(layer, input) for every conv and batch norm, fed by a TRAIN forward pass."""
    _, net = build_topology(topology, ElectrodeLayout.default(), seeded_rng(3))
    x = seeded_rng(4).normal(size=(BATCH,) + net.input_grid).astype(np.float32)
    x = x.reshape((BATCH, 1) + net.input_grid)
    out = []
    for layer in net.layers:
        if isinstance(layer, Flatten):
            break
        if isinstance(layer, (Conv, BatchNorm)):
            out.append((layer, x))
        x = layer.forward(x, TRAIN)
    return out


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_matches_reference_kernels(topology):
    upstream_rng = seeded_rng(5)
    for layer, x in trunk_inputs(topology):
        ref = reference_for(layer)
        out_ref = ref.forward(x, TRAIN)
        out = layer.forward(x, TRAIN)
        assert out.dtype == np.float32
        assert_close(out, out_ref, f"{topology} {layer.name} forward")
        up = upstream_rng.split(layer.name).normal(size=out.shape).astype(np.float32)
        assert_close(layer.backward(up), ref.backward(up), f"{topology} {layer.name} input grad")
        grads, ref_grads = layer.grads(), ref.grads()
        for key in grads:
            assert_close(grads[key], ref_grads[key], f"{topology} {layer.name} {key} grad")
        if isinstance(layer, BatchNorm):
            for key in ("running_mean", "running_var"):
                assert_close(layer.state()[key], ref.state()[key], f"{layer.name} {key}")


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_folded_batchnorm_inference(topology):
    stats = seeded_rng(6)
    for layer, x in trunk_inputs(topology):
        if not isinstance(layer, BatchNorm):
            continue
        draw = stats.split(layer.name)
        layer.gamma[...] = draw.uniform(0.5, 1.5, size=layer.maps)
        layer.beta[...] = draw.normal(size=layer.maps)
        layer.running_mean[...] = draw.normal(size=layer.maps)
        layer.running_var[...] = draw.uniform(0.2, 3.0, size=layer.maps)
        ref = reference_for(layer)
        assert_close(layer.forward(x, INFER), ref.forward(x, INFER),
                     f"{topology} {layer.name} infer")
