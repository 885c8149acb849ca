import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seizurecnn.layers import (INFER, TRAIN, BatchNorm, Conv, Dense, Dropout,
                               Flatten, MaxPool, Network, ReLU, Sigmoid)
from seizurecnn.tensor import seeded_rng
from seizurecnn.topologies import TIME_BLOCKS, TOPOLOGIES, _block_geometry


def conv_oracle(x, kernel, bias):
    """Nested-loop cross-correlation with zero padding, the slow way."""
    batch, maps_in = x.shape[:2]
    spatial = x.shape[2:]
    maps_out = kernel.shape[0]
    extents = kernel.shape[2:]
    offsets = tuple((e - 1) // 2 for e in extents)
    out = np.zeros((batch, maps_out) + spatial, dtype=x.dtype)
    for b in range(batch):
        for f in range(maps_out):
            for pos in np.ndindex(*spatial):
                acc = bias[f]
                for g in range(maps_in):
                    for tap in np.ndindex(*extents):
                        src = tuple(p + d - o for p, d, o in zip(pos, tap, offsets))
                        if all(0 <= s < n for s, n in zip(src, spatial)):
                            acc += kernel[(f, g) + tap] * x[(b, g) + src]
                out[(b, f) + pos] = acc
    return out


def make_conv(maps_in, maps_out, extents, seed=0, dtype=np.float64):
    return Conv(maps_in, maps_out, extents, seeded_rng(seed).split("k"), dtype=dtype)


class TestConv:
    def test_identity_kernel(self):
        conv = make_conv(1, 1, (3,))
        conv.kernel[...] = np.array([[[0.0, 1.0, 0.0]]])
        conv.bias[...] = 0.0
        out = conv.forward(np.array([[[1.0, 2.0, 3.0]]]))
        assert np.allclose(out, [[[1.0, 2.0, 3.0]]])

    def test_edge_detector_kernel(self):
        conv = make_conv(1, 1, (3,))
        conv.kernel[...] = np.array([[[1.0, 0.0, -1.0]]])
        conv.bias[...] = 0.0
        out = conv.forward(np.array([[[1.0, 2.0, 3.0]]]))
        assert np.allclose(out, [[[-2.0, -2.0, 2.0]]])

    def test_same_padding_shape(self):
        conv = make_conv(2, 3, (1, 5))
        out = conv.forward(seeded_rng(1).normal(size=(4, 2, 4, 10)))
        assert out.shape == (4, 3, 4, 10)

    @given(st.integers(0, 10**6), st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_matches_loop_oracle(self, seed, e1, e2):
        rng = seeded_rng(seed)
        conv = make_conv(2, 2, (e1, e2), seed=seed)
        x = rng.split("x").normal(size=(2, 2, 4, 5))
        assert np.allclose(conv.forward(x), conv_oracle(x, conv.kernel, conv.bias),
                           atol=1e-10)

    def test_even_extent_anchoring(self):
        # extent 2: taps at offsets 0 and +1, so out[i] = k0*x[i] + k1*x[i+1]
        conv = make_conv(1, 1, (2,))
        conv.kernel[...] = np.array([[[1.0, 10.0]]])
        conv.bias[...] = 0.0
        out = conv.forward(np.array([[[1.0, 2.0, 3.0]]]))
        assert np.allclose(out, [[[21.0, 32.0, 3.0]]])

    def test_extent_bounds(self):
        with pytest.raises(ValueError):
            make_conv(1, 1, (6,))
        with pytest.raises(ValueError):
            make_conv(1, 1, (0,))

    def test_rank_and_map_mismatch(self):
        conv = make_conv(2, 3, (3,))
        with pytest.raises(ValueError):
            conv.forward(np.zeros((1, 2, 4, 4)))
        with pytest.raises(ValueError):
            conv.forward(np.zeros((1, 3, 4)))

    def test_backward_requires_forward(self):
        conv = make_conv(1, 1, (3,))
        with pytest.raises(RuntimeError):
            conv.backward(np.zeros((1, 1, 4)))

    def test_upstream_shape_checked(self):
        conv = make_conv(1, 1, (3,))
        conv.forward(np.zeros((1, 1, 4)))
        with pytest.raises(ValueError):
            conv.backward(np.zeros((1, 1, 5)))

    @given(st.integers(0, 10**6), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_shape_preserved_any_extent(self, seed, extent):
        conv = make_conv(1, 2, (extent,), seed=seed)
        shape = (2, 1, 7)
        assert conv.forward(np.zeros(shape)).shape == (2, 2, 7)


class TestMaxPool:
    def test_window_two(self):
        out = MaxPool((2,)).forward(np.array([[[1.0, 3.0, 2.0, 5.0, 4.0, 0.0]]]))
        assert np.array_equal(out, [[[3.0, 5.0, 4.0]]])

    def test_window_three(self):
        out = MaxPool((3,)).forward(np.array([[[1.0, 3.0, 2.0, 5.0, 4.0, 0.0]]]))
        assert np.array_equal(out, [[[3.0, 5.0]]])

    def test_window_one_identity(self):
        x = seeded_rng(0).normal(size=(2, 3, 6))
        assert np.array_equal(MaxPool((1,)).forward(x), x)

    def test_non_divisible_rejected(self):
        with pytest.raises(ValueError):
            MaxPool((4,)).forward(np.zeros((1, 1, 6)))

    def test_tie_routes_to_first(self):
        pool = MaxPool((2,))
        pool.forward(np.array([[[2.0, 2.0]]]))
        grad = pool.backward(np.array([[[1.0]]]))
        assert np.array_equal(grad, [[[1.0, 0.0]]])

    def test_backward_support_size(self):
        rng = seeded_rng(3)
        pool = MaxPool((2, 5))
        x = rng.normal(size=(2, 3, 4, 10))
        out = pool.forward(x)
        grad = pool.backward(np.ones_like(out))
        assert int((grad != 0).sum()) == out.size

    def test_infer_matches_train(self):
        x = seeded_rng(4).normal(size=(2, 3, 4, 2, 10))
        pool = MaxPool((2, 1, 5))
        assert np.array_equal(pool.forward(x, INFER), pool.forward(x, TRAIN))

    def test_two_axis_pooling(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = MaxPool((2, 2)).forward(x)
        assert np.array_equal(out[0, 0], [[5.0, 7.0], [13.0, 15.0]])


def tile_pool_oracle(x, window, upstream):
    """The tiles/argmax max pool that the running maximum replaced: the
    output, the argmax and the input gradient of ``upstream``."""
    rank = len(window)
    outs = tuple(s // w for s, w in zip(x.shape[2:], window))
    inter: list[int] = []
    for o, w in zip(outs, window):
        inter += [o, w]
    perm = (0, 1) + tuple(2 + 2 * i for i in range(rank)) + tuple(3 + 2 * i for i in range(rank))
    tiles = x.reshape(x.shape[:2] + tuple(inter)).transpose(perm)
    tiles = tiles.reshape(x.shape[:2] + outs + (-1,))
    argmax = tiles.argmax(axis=-1)
    out = np.take_along_axis(tiles, argmax[..., None], axis=-1)[..., 0]
    flat = np.zeros(upstream.shape + (int(np.prod(window)),), dtype=upstream.dtype)
    np.put_along_axis(flat, argmax[..., None], upstream[..., None], axis=-1)
    grad = flat.reshape(upstream.shape + window).transpose(np.argsort(perm)).reshape(x.shape)
    return out, argmax, grad


#: every pool window of the three topologies, plus 1-D windows; the
#: 300-cell window needs a uint16 argmax
POOL_WINDOWS = sorted({pool for topology in TOPOLOGIES
                       for _, pool, _ in _block_geometry(topology)}
                      | {(pt,) for _, pt, _ in TIME_BLOCKS} | {(1,), (7,), (300,)})


class TestMaxPoolOracle:
    @pytest.mark.parametrize("window", POOL_WINDOWS, ids=str)
    @pytest.mark.parametrize("rounded", [False, True], ids=["random", "rounded"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_tile_oracle(self, window, rounded, dtype):
        rng = seeded_rng(len(window) * 100 + sum(window)).split("pool")
        x = rng.normal(size=(3, 2) + tuple(3 * w for w in window)).astype(dtype)
        if rounded:
            x = np.round(x)  # many ties, and -0.0 beside +0.0
        pool = MaxPool(window)
        out = pool.forward(x, TRAIN)
        argmax = pool._cache[1][0]
        upstream = rng.normal(size=out.shape).astype(dtype)
        grad = pool.backward(upstream)
        want_out, want_argmax, want_grad = tile_pool_oracle(x, window, upstream)
        assert argmax.dtype == (np.uint8 if np.prod(window) <= 256 else np.uint16)
        assert np.array_equal(argmax, want_argmax)
        assert out.tobytes() == want_out.tobytes()
        assert grad.tobytes() == want_grad.tobytes()
        assert pool.forward(x, INFER).tobytes() == want_out.tobytes()


class TestBatchNorm:
    def test_symmetric_standardization(self):
        bn = BatchNorm(1, dtype=np.float64)
        out = bn.forward(np.array([[[0.0]], [[2.0]]]))
        assert np.allclose(out.ravel(), [-1.0, 1.0], atol=1e-4)

    def test_affine_scale_shift(self):
        bn = BatchNorm(1, dtype=np.float64)
        bn.gamma[...] = 2.0
        bn.beta[...] = 1.0
        out = bn.forward(np.array([[[0.0]], [[2.0]]]))
        assert np.allclose(out.ravel(), [-1.0, 3.0], atol=1e-4)

    def test_infer_unit_stats_identity(self):
        bn = BatchNorm(2, dtype=np.float64)
        x = seeded_rng(0).normal(size=(1, 2, 5))
        # epsilon shifts the unit running variance, so identity is approximate
        assert np.allclose(bn.forward(x, INFER), x, atol=1e-4)

    def test_train_normalizes_per_map(self):
        bn = BatchNorm(3, dtype=np.float64)
        x = seeded_rng(1).normal(size=(8, 3, 10)) * 4.0 + 2.0
        out = bn.forward(x)
        for m in range(3):
            vals = out[:, m, :]
            assert abs(vals.mean()) < 1e-10
            assert abs(vals.var() - 1.0) < 1e-4  # epsilon shrinks variance slightly

    def test_train_normalizes_float32(self):
        bn = BatchNorm(2, dtype=np.float32)
        x = seeded_rng(2).normal(size=(16, 2, 20)).astype(np.float32)
        out = bn.forward(x)
        for m in range(2):
            assert abs(float(out[:, m].mean())) < 1e-5

    def test_running_stats_update(self):
        bn = BatchNorm(1, dtype=np.float64)
        x = np.full((4, 1, 2), 3.0)
        bn.forward(x)
        assert np.allclose(bn.running_mean, 0.9 * 0.0 + 0.1 * 3.0)
        assert np.allclose(bn.running_var, 0.9 * 1.0 + 0.1 * 0.0)

    def test_single_sample_train_rejected(self):
        bn = BatchNorm(1)
        with pytest.raises(ValueError):
            bn.forward(np.zeros((1, 1, 4)), TRAIN)
        bn.forward(np.zeros((1, 1, 4)), INFER)  # inference is fine

    def test_backward_needs_train_forward(self):
        bn = BatchNorm(1, dtype=np.float64)
        bn.forward(np.zeros((2, 1, 4)), INFER)
        with pytest.raises(RuntimeError):
            bn.backward(np.zeros((2, 1, 4)))

    def test_state_includes_running_stats(self):
        bn = BatchNorm(2)
        assert set(bn.state()) == {"gamma", "beta", "running_mean", "running_var"}
        assert set(bn.params()) == {"gamma", "beta"}


class TestDropout:
    def test_rate_zero_identity(self):
        x = seeded_rng(0).normal(size=(4, 5))
        assert np.array_equal(Dropout(0.0).forward(x, TRAIN, seeded_rng(1)), x)

    def test_infer_identity(self):
        x = seeded_rng(0).normal(size=(4, 5))
        assert np.array_equal(Dropout(0.9).forward(x, INFER), x)

    def test_inverted_scaling_expectation(self):
        x = np.ones((1000, 100))
        out = Dropout(0.5).forward(x, TRAIN, seeded_rng(7).split("mc"))
        assert abs(out.mean() - 1.0) < 0.02

    def test_survivors_scaled(self):
        x = np.ones((10, 10))
        out = Dropout(0.25).forward(x, TRAIN, seeded_rng(3))
        kept = out[out != 0]
        assert np.allclose(kept, 1.0 / 0.75)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)

    def test_train_needs_rng(self):
        with pytest.raises(ValueError):
            Dropout(0.5).forward(np.ones((2, 2)), TRAIN, None)

    def test_rate_zero_train_needs_rng(self):
        with pytest.raises(ValueError, match="train mode needs an RNG stream"):
            Dropout(0.0).forward(np.ones((2, 2)), TRAIN, None)

    def test_backward_reuses_mask(self):
        drop = Dropout(0.5)
        x = np.ones((6, 6))
        out = drop.forward(x, TRAIN, seeded_rng(9))
        grad = drop.backward(np.ones_like(out))
        assert np.array_equal(grad != 0, out != 0)


class TestDenseAndActivations:
    def test_identity_weights(self):
        dense = Dense(3, 3, seeded_rng(0), dtype=np.float64)
        dense.weights[...] = np.eye(3)
        dense.bias[...] = 0.0
        x = np.array([[1.0, -2.0, 3.0]])
        assert np.allclose(dense.forward(x), x)

    def test_sigmoid_midpoint(self):
        out = Sigmoid().forward(np.array([[0.0]]))
        assert out[0, 0] == 0.5

    def test_dense_relu_hand_case(self):
        dense = Dense(2, 1, seeded_rng(0), dtype=np.float64)
        dense.weights[...] = np.array([[1.0, -1.0]])
        dense.bias[...] = 0.5
        pre = dense.forward(np.array([[2.0, 3.0]]))
        out = ReLU().forward(pre)
        assert np.allclose(out, [[0.0]])

    def test_dense_weight_grad_is_input(self):
        dense = Dense(4, 1, seeded_rng(1), dtype=np.float64)
        x = seeded_rng(2).normal(size=(1, 4))
        dense.forward(x)
        dense.backward(np.ones((1, 1)))
        assert np.allclose(dense.g_weights, x)

    def test_dense_length_mismatch(self):
        dense = Dense(4, 2, seeded_rng(0))
        with pytest.raises(ValueError):
            dense.forward(np.zeros((1, 5)))

    def test_sigmoid_extreme_inputs_stable(self):
        out = Sigmoid().forward(np.array([[-1000.0, 1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] == 0.0 and out[0, 1] == 1.0

    def test_relu_backward_mask(self):
        relu = ReLU()
        x = np.array([[-1.0, 2.0, -3.0, 4.0]])
        relu.forward(x)
        grad = relu.backward(np.ones((1, 4)))
        assert np.array_equal(grad, [[0.0, 1.0, 0.0, 1.0]])

    def test_backward_requires_forward(self):
        for layer in (Dense(2, 2, seeded_rng(0)), ReLU(), Sigmoid(), Flatten()):
            with pytest.raises(RuntimeError):
                layer.backward(np.zeros((1, 2)))


EVERY_LAYER = pytest.mark.parametrize("make, shape", [
    pytest.param(lambda: make_conv(1, 2, (3,)), (2, 1, 6), id="conv"),
    pytest.param(lambda: MaxPool((2,)), (2, 1, 6), id="maxpool"),
    pytest.param(lambda: BatchNorm(1, dtype=np.float64), (2, 1, 6), id="batchnorm"),
    pytest.param(lambda: Dropout(0.5), (2, 6), id="dropout"),
    pytest.param(lambda: Flatten(), (2, 1, 6), id="flatten"),
    pytest.param(lambda: Dense(6, 3, seeded_rng(0), dtype=np.float64), (2, 6), id="dense"),
    pytest.param(lambda: ReLU(), (2, 6), id="relu"),
    pytest.param(lambda: Sigmoid(), (2, 6), id="sigmoid"),
])


@EVERY_LAYER
def test_backward_after_infer_forward_raises(make, shape):
    # an INFER forward drops the cache an earlier TRAIN forward left behind
    layer = make()
    x = seeded_rng(0).normal(size=shape)
    layer.forward(x, TRAIN, seeded_rng(1))
    out = layer.forward(x, INFER)
    with pytest.raises(RuntimeError, match="train-mode forward"):
        layer.backward(np.ones_like(out))


@EVERY_LAYER
def test_backward_again_raises(make, shape):
    # backward lets go of the cache it has read
    layer = make()
    out = layer.forward(seeded_rng(0).normal(size=shape), TRAIN, seeded_rng(1))
    layer.backward(np.ones_like(out))
    with pytest.raises(RuntimeError, match="train-mode forward"):
        layer.backward(np.ones_like(out))


class TestNetwork:
    def _small_net(self, seed=0):
        rng = seeded_rng(seed)
        return Network([
            Conv(1, 2, (3,), rng.split("c"), name="conv", dtype=np.float64),
            ReLU(name="act"),
            MaxPool((2,), name="pool"),
            Flatten(name="flat"),
            Dense(6, 1, rng.split("d"), name="dense", dtype=np.float64),
            Sigmoid(name="out"),
        ], input_grid=(6,), dtype=np.float64)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Network([ReLU(name="a"), Sigmoid(name="a")])

    def test_input_grid_validation(self):
        net = self._small_net()
        with pytest.raises(ValueError):
            net.forward(np.zeros((2, 7)))

    def test_forward_scalar_output(self):
        net = self._small_net()
        out = net.forward(seeded_rng(1).normal(size=(3, 6)))
        assert out.shape == (3, 1)
        assert np.all((out > 0) & (out < 1))

    def test_state_round_trip(self):
        net = self._small_net(seed=0)
        other = self._small_net(seed=5)
        state = {k: v.copy() for k, v in net.state().items()}
        other.load_state(state)
        x = seeded_rng(2).normal(size=(2, 6))
        assert np.array_equal(net.forward(x, INFER), other.forward(x, INFER))

    def test_load_state_validates_names(self):
        net = self._small_net()
        state = dict(net.state())
        state.pop("conv.kernel")
        with pytest.raises(ValueError):
            net.load_state(state)
        state = dict(net.state())
        state["bogus"] = np.zeros(1)
        with pytest.raises(ValueError):
            net.load_state(state)

    def test_load_state_validates_shapes(self):
        net = self._small_net()
        state = {k: v.copy() for k, v in net.state().items()}
        state["dense.bias"] = np.zeros(7)
        with pytest.raises(ValueError):
            net.load_state(state)

    def test_load_state_rejects_non_finite_and_wrong_dtype(self):
        net = self._small_net()
        before = {k: v.copy() for k, v in net.state().items()}
        for key, bad in [("dense.weights", np.nan), ("conv.bias", np.inf)]:
            state = {k: v.copy() for k, v in net.state().items()}
            state[key].flat[0] = bad
            with pytest.raises(ValueError, match=key):
                net.load_state(state)
        state = {k: v.copy() for k, v in net.state().items()}
        state["conv.kernel"] = state["conv.kernel"].astype(np.float32)
        with pytest.raises(ValueError, match="conv.kernel"):
            net.load_state(state)
        for key, value in net.state().items():
            assert np.array_equal(value, before[key])

    def test_regularized_names(self):
        net = self._small_net()
        assert net.regularized_names() == ["conv.kernel", "dense.weights"]

    def test_prefixed_params(self):
        net = self._small_net()
        assert "conv.kernel" in net.params()
        assert "dense.weights" in net.params()
