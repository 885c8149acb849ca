
import numpy as np
import pytest

from seizurecnn.errors import ConfigError, DataError, TrainingDivergedError
from seizurecnn.layers import (BatchNorm, Conv, Dense, Dropout, Flatten,
                               MaxPool, Network, ReLU, Sigmoid)
from seizurecnn.tensor import seeded_rng
from seizurecnn.training import (AdamState, RunHistory, TrainConfig,
                                 adam_step, batch_loss_and_grads,
                                 class_weights, fit, regularization,
                                 weighted_bce)

LN2 = 0.6931471805599453


class TestClassWeights:
    def test_minority_preictal(self):
        # 24 preictal against 480 interictal hours
        assert class_weights(24, 480) == (10.5, 0.525)

    def test_balanced_classes(self):
        assert class_weights(50, 50) == (1.0, 1.0)

    def test_weight_ratio_matches_count_ratio(self):
        w_pos, w_neg = class_weights(222, 1836)
        assert w_pos / w_neg == pytest.approx(1836 / 222, rel=1e-12)

    def test_total_weight_equals_count(self):
        w_pos, w_neg = class_weights(7, 13)
        assert 7 * w_pos + 13 * w_neg == pytest.approx(20.0, rel=1e-12)

    def test_missing_class_rejected(self):
        with pytest.raises(DataError, match="needs both classes, got 0 preictal"):
            class_weights(0, 100)
        with pytest.raises(DataError, match="needs both classes, got 100 preictal"):
            class_weights(100, 0)


class TestWeightedBce:
    def test_coin_flip(self):
        assert weighted_bce(0.5, 1.0, 1.0, 1.0) == pytest.approx(LN2, abs=1e-15)
        assert weighted_bce(0.5, 0.0, 1.0, 1.0) == pytest.approx(LN2, abs=1e-15)

    def test_positive_weight_scales(self):
        assert weighted_bce(0.5, 1.0, 2.0, 1.0) == pytest.approx(2 * LN2, abs=1e-15)

    def test_confident_mistake(self):
        loss = weighted_bce(0.9, 0.0, 1.0, 1.0)
        assert loss == pytest.approx(2.3025850929940455, abs=1e-12)

    def test_clamp_keeps_loss_finite(self):
        assert np.isfinite(weighted_bce(0.0, 1.0, 1.0, 1.0))
        assert np.isfinite(weighted_bce(1.0, 0.0, 1.0, 1.0))
        assert weighted_bce(0.0, 1.0, 1.0, 1.0) == pytest.approx(-np.log(1e-7))

    def test_vectorized(self):
        p = np.array([0.5, 0.5])
        y = np.array([1.0, 0.0])
        out = weighted_bce(p, y, 3.0, 1.0)
        assert np.allclose(out, [3 * LN2, LN2])


class TestRegularization:
    def test_zero_coefficients(self):
        params = {"w": np.array([1.0, -2.0])}
        penalty, grads = regularization(params, ["w"], 0.0, 0.0)
        assert penalty == 0.0
        assert np.array_equal(grads["w"], [0.0, 0.0])

    def test_hand_computed(self):
        params = {"w": np.array([2.0, -3.0]), "b": np.array([100.0])}
        penalty, grads = regularization(params, ["w"], 1e-3, 1e-4)
        assert penalty == pytest.approx(1e-3 * 5 + 1e-4 * 13, rel=1e-12)
        assert np.allclose(grads["w"], [1e-3 + 4e-4, -1e-3 - 6e-4])
        assert "b" not in grads  # unregularized arrays contribute nothing

    def test_penalty_even_in_sign(self):
        params_a = {"w": np.array([1.0, -2.0, 3.0])}
        params_b = {"w": -params_a["w"]}
        pa, _ = regularization(params_a, ["w"], 1e-3, 1e-4)
        pb, _ = regularization(params_b, ["w"], 1e-3, 1e-4)
        assert pa == pytest.approx(pb, rel=1e-15)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradient_keeps_weight_dtype(self, dtype):
        # batch_loss_and_grads adds these gradients without a cast
        params = {"w": np.array([2.0, -3.0, 0.0], dtype=dtype)}
        _, grads = regularization(params, ["w"], 1e-9, 1e-9)
        assert grads["w"].dtype == dtype


class TestAdam:
    def cfg(self, **kw):
        return TrainConfig(**kw)

    def test_zero_gradient_is_noop(self):
        params = {"w": np.array([1.0, 2.0])}
        state = AdamState(params)
        adam_step(params, {"w": np.zeros(2)}, state, self.cfg())
        assert np.array_equal(params["w"], [1.0, 2.0])
        assert state.t == 1

    def test_first_step_size(self):
        params = {"w": np.array([0.0])}
        state = AdamState(params)
        adam_step(params, {"w": np.array([0.1])}, state, self.cfg())
        # bias correction makes the first step almost exactly -lr
        assert params["w"][0] == pytest.approx(-0.00099999990000001, abs=1e-18)

    def test_step_bounded_by_twice_lr(self):
        rng = seeded_rng(42).split("grads")
        params = {"w": rng.normal(size=20)}
        state = AdamState(params)
        cfg = self.cfg()
        for _ in range(50):
            before = params["w"].copy()
            grads = {"w": rng.normal(size=20) * 10.0 ** rng.integers(-3, 4)}
            adam_step(params, grads, state, cfg)
            assert np.all(np.abs(params["w"] - before) <= 2 * cfg.learning_rate)

    def test_descends_on_quadratic(self):
        params = {"w": np.array([5.0])}
        state = AdamState(params)
        cfg = self.cfg(learning_rate=0.1)
        for _ in range(200):
            adam_step(params, {"w": 2 * params["w"]}, state, cfg)
        assert abs(params["w"][0]) < 1.0


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig().validate()
        assert cfg.topology == "nv1x16"
        assert cfg.epochs == 50
        assert cfg.batch_size == 32

    @pytest.mark.parametrize("kw", [
        {"epochs": 0},
        {"batch_size": 1},
        {"learning_rate": 0.0},
        {"learning_rate": -1e-3},
        {"epochs": -3},
        {"batch_size": 0},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"topology": ""},
        {"topology": "nv16"},
        {"seed": 2 ** 64},
        {"seed": -1},
    ])
    def test_invalid_values(self, kw):
        with pytest.raises(ConfigError):
            TrainConfig(**kw).validate()

    @pytest.mark.parametrize("kw", [
        {"epochs": 2.5},
        {"epochs": True},
        {"batch_size": 32.0},
        {"batch_size": "32"},
        {"seed": 1.0},
        {"seed": False},
        {"learning_rate": 10 ** 400},
        {"learning_rate": "0.001"},
        {"learning_rate": True},
        {"learning_rate": None},
        {"learning_rate": 1j},
    ], ids=repr)
    def test_invalid_types(self, kw):
        with pytest.raises(ConfigError):
            TrainConfig(**kw).validate()

    @pytest.mark.parametrize("kw", [{"learning_rate": 1}, {"learning_rate": np.float32(0.01)},
                                    {"seed": 2 ** 64 - 1}, {"seed": np.int64(3)},
                                    {"epochs": np.uint8(2)}], ids=repr)
    def test_valid_types(self, kw):
        TrainConfig(**kw).validate()

    def test_replace_revalidates(self):
        with pytest.raises(ConfigError):
            TrainConfig().replace(epochs=-1)


def toy_network(seed=0, dropout=0.0, batchnorm=False, dtype=np.float32):
    """Small stack over the nv1x16 input grid, cheap enough for unit tests."""
    init = seeded_rng(seed).split("init")
    layers = [
        Conv(1, 2, (1, 3), init.split("conv"), name="conv", dtype=dtype),
    ]
    if batchnorm:
        layers.append(BatchNorm(2, name="bn", dtype=dtype))
    layers += [
        ReLU(name="act"),
        MaxPool((1, 750), name="pool"),
        Flatten(name="flat"),
    ]
    if dropout:
        layers.append(Dropout(dropout, name="drop"))
    layers += [
        Dense(2 * 16 * 4, 1, init.split("dense"), name="dense", dtype=dtype),
        Sigmoid(name="out"),
    ]
    return Network(layers, input_grid=(16, 3000), dtype=dtype)


class FakeBatch:
    def __init__(self, segments, labels):
        self.segments = segments
        self.labels = labels


def separable_batch(n=8, seed=0):
    """Sine bursts on half the segments, plain noise on the rest."""
    rng = seeded_rng(seed).split("segments")
    t = np.arange(3000) / 200.0
    segments = rng.normal(size=(n, 16, 3000)).astype(np.float32)
    labels = np.zeros(n, dtype=np.uint8)
    labels[: n // 2] = 1
    segments[: n // 2] += 2.0 * np.sin(2 * np.pi * 20.0 * t).astype(np.float32)
    return FakeBatch(segments, labels)


class TestBatchLossAndGrads:
    def test_weighting_equals_duplication(self):
        # w_pos=3 must reproduce each positive segment appearing three times;
        # exact only without batch norm and dropout, which see the batch itself
        net_a = toy_network(seed=3, dtype=np.float64)
        net_b = toy_network(seed=3, dtype=np.float64)
        batch = separable_batch(n=6, seed=4)
        x = batch.segments.astype(np.float64)
        y = batch.labels
        pos = np.nonzero(y == 1)[0]
        x_dup = np.concatenate([x, x[pos], x[pos]])
        y_dup = np.concatenate([y, y[pos], y[pos]])

        loss_w, grads_w = batch_loss_and_grads(net_a, x.reshape(6, 16, 3000),
                                               y, 3.0, 1.0, 0.0, 0.0, None)
        loss_d, grads_d = batch_loss_and_grads(net_b, x_dup.reshape(-1, 16, 3000),
                                               y_dup, 1.0, 1.0, 0.0, 0.0, None)
        assert loss_w == pytest.approx(loss_d, rel=1e-6)
        for name in grads_w:
            denom = max(np.abs(grads_d[name]).max(), 1e-12)
            assert np.abs(grads_w[name] - grads_d[name]).max() / denom < 1e-6

    def test_balanced_weights_give_plain_mean(self):
        net = toy_network(seed=5, dtype=np.float64)
        batch = separable_batch(n=6, seed=6)
        y = batch.labels
        w_pos, w_neg = class_weights(int((y == 1).sum()), int((y == 0).sum()))
        loss, _ = batch_loss_and_grads(net, batch.segments.astype(np.float64),
                                       y, w_pos, w_neg, 0.0, 0.0, None)
        p = net.forward(batch.segments.astype(np.float64))[:, 0]
        expected = weighted_bce(p, y, w_pos, w_neg).mean()
        assert loss == pytest.approx(float(expected), rel=1e-12)

    def test_regularization_enters_loss(self):
        net = toy_network(seed=7, dtype=np.float64)
        batch = separable_batch(n=4, seed=8)
        loss_plain, _ = batch_loss_and_grads(net, batch.segments, batch.labels,
                                             1.0, 1.0, 0.0, 0.0, None)
        loss_reg, _ = batch_loss_and_grads(net, batch.segments, batch.labels,
                                           1.0, 1.0, 1e-3, 1e-3, None)
        assert loss_reg > loss_plain


class TestFit:
    def cfg(self, **kw):
        base = dict(topology="nv1x16", epochs=1, batch_size=4, seed=0)
        base.update(kw)
        return TrainConfig(**base).validate()

    def test_history_length_matches_epochs(self):
        net = toy_network()
        _, history = fit(net, separable_batch(), self.cfg(epochs=3),
                         seeded_rng(0).split("fit"))
        assert len(history.mean_loss) == 3

    def test_single_class_rejected(self):
        batch = separable_batch()
        batch.labels[:] = 1
        with pytest.raises(DataError, match="training set needs both classes"):
            fit(toy_network(), batch, self.cfg(), seeded_rng(0).split("fit"))

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_detected(self):
        net = toy_network(batchnorm=True)
        cfg = self.cfg(learning_rate=1e30, epochs=5)
        with pytest.raises(TrainingDivergedError):
            fit(net, separable_batch(), cfg, seeded_rng(0).split("fit"))

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_in_the_last_update_detected(self):
        # one batch, one epoch: no later loss or gradient would show it
        cfg = self.cfg(learning_rate=1e39, epochs=1, batch_size=8)
        with pytest.raises(TrainingDivergedError, match="after the update at epoch 1, batch 1"):
            fit(toy_network(batchnorm=True), separable_batch(), cfg, seeded_rng(0).split("fit"))

    def test_deterministic_given_seed(self):
        states = []
        for _ in range(2):
            net = toy_network(seed=1, dropout=0.2)
            state, history = fit(net, separable_batch(), self.cfg(epochs=2),
                                 seeded_rng(9).split("fit"))
            states.append((state, history.mean_loss))
        assert states[0][1] == states[1][1]
        for key, value in states[0][0].items():
            assert np.array_equal(value, states[1][0][key])

    def test_short_final_batch_dropped(self):
        net = toy_network()
        calls = []
        original = net.forward
        net.forward = lambda *a, **k: (calls.append(1), original(*a, **k))[1]
        batch = separable_batch(n=5)
        fit(net, batch, self.cfg(batch_size=4), seeded_rng(0).split("fit"))
        # 5 segments at batch size 4: the trailing singleton cannot batch-normalize
        assert len(calls) == 1

    def test_arranges_one_batch_at_a_time(self, monkeypatch):
        from seizurecnn import training
        lengths = []
        original = training.reshape_batch

        def recording(segments, *args, **kwargs):
            lengths.append(len(segments))
            return original(segments, *args, **kwargs)

        monkeypatch.setattr(training, "reshape_batch", recording)
        fit(toy_network(), separable_batch(n=16), self.cfg(batch_size=4),
            seeded_rng(0).split("fit"))
        assert lengths == [4, 4, 4, 4]

    def test_loss_decreases_on_separable_data(self):
        net = toy_network(seed=2)
        batch = separable_batch(n=8, seed=3)
        cfg = self.cfg(epochs=50, batch_size=8, learning_rate=0.01)
        _, history = fit(net, batch, cfg, seeded_rng(4).split("fit"))
        assert history.mean_loss[-1] < history.mean_loss[0]


class TestRunHistory:
    def test_round_trip_plain(self, tmp_path):
        history = RunHistory([0.7, 0.30000000000000004, 1e-7])
        path = tmp_path / "history.csv"
        history.to_csv(path)
        back = RunHistory.from_csv(path)
        assert back.mean_loss == history.mean_loss
        assert path.read_text().splitlines()[0] == "epoch,mean_loss"

    def test_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            RunHistory.from_csv(path)
