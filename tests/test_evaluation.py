import dataclasses
import json

import numpy as np
import pytest

from seizurecnn.data import generate_synthetic
from seizurecnn.errors import DataError
from seizurecnn.evaluation import (ClipPrediction, EvaluationReport,
                                   RunAggregate, aggregate_clip,
                                   aggregate_runs, evaluate_subject,
                                   predict_segments, roc_auc, roc_curve)
from seizurecnn.layers import (INFER, Conv, Dense, Flatten, MaxPool, Network,
                               ReLU, Sigmoid)
from seizurecnn.tensor import seeded_rng
from seizurecnn.topologies import (TOPOLOGIES, ElectrodeLayout, build_topology,
                                   reshape_batch)
from seizurecnn.data import SegmentBatch


def pair_count_auc(scores, labels):
    """Mann-Whitney with half credit for ties; the independent route."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0
               for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def toy_network(seed=0):
    init = seeded_rng(seed).split("init")
    return Network([
        Conv(1, 2, (1, 3), init.split("conv"), name="conv", dtype=np.float32),
        ReLU(name="act"),
        MaxPool((1, 750), name="pool"),
        Flatten(name="flat"),
        Dense(128, 1, init.split("dense"), name="dense", dtype=np.float32),
        Sigmoid(name="out"),
    ], input_grid=(16, 3000), dtype=np.float32)


class BandpowerNet:
    """Stand-in scorer exposing the forward contract: mean 18-24 Hz power,
    squashed to (0, 1) by a fixed increasing map so ranking is preserved."""

    def forward(self, x, mode=None, rng=None):
        x = np.asarray(x, dtype=np.float64)
        freqs = np.fft.rfftfreq(x.shape[-1], d=1.0 / 200.0)
        power = np.abs(np.fft.rfft(x, axis=-1)) ** 2
        sel = (freqs >= 18.0) & (freqs <= 24.0)
        score = power[..., sel].mean(axis=(1, 2))
        return (score / (1.0 + score))[:, None]


class TestAggregateClip:
    def test_mean(self):
        assert aggregate_clip([0.2, 0.4, 0.9]) == pytest.approx(0.5, abs=1e-15)

    def test_single(self):
        assert aggregate_clip([0.7]) == 0.7

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            aggregate_clip([])


class TestRocCurve:
    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_perfectly_wrong(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0

    def test_all_tied_is_chance(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 1, 0, 0]) == 0.5

    def test_interleaved(self):
        assert roc_auc([0.8, 0.4, 0.6, 0.2], [1, 1, 0, 0]) == 0.75

    def test_curve_endpoints_and_monotonicity(self):
        rng = seeded_rng(0).split("scores")
        scores = rng.uniform(size=30)
        labels = (rng.uniform(size=30) > 0.5).astype(int)
        labels[:2] = [0, 1]  # force both classes
        fpr, tpr, thresholds = roc_curve(scores, labels)
        assert (fpr[0], tpr[0]) == (0.0, 0.0)
        assert (fpr[-1], tpr[-1]) == (1.0, 1.0)
        assert thresholds[0] == np.inf
        assert np.all(np.diff(fpr) >= 0) and np.all(np.diff(tpr) >= 0)
        assert np.all(np.diff(thresholds) < 0)

    def test_ties_collapse_to_one_point(self):
        fpr, tpr, thresholds = roc_curve([0.5, 0.5, 0.3], [1, 0, 1])
        assert len(thresholds) == 3  # inf plus two distinct scores

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="ROC needs both classes"):
            roc_curve([0.1, 0.9], [1, 1])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            roc_curve([0.1, 0.9], [1, 0, 1])

    @pytest.mark.parametrize("seed", range(60))
    def test_trapezoid_equals_pair_counting(self, seed):
        rng = seeded_rng(seed).split("roc")
        n_pos = int(rng.integers(1, 26))
        n_neg = int(rng.integers(1, 26))
        scores = rng.uniform(size=n_pos + n_neg)
        if rng.uniform() < 0.5:
            scores = np.round(scores, 1)  # heavy ties
        labels = np.array([1] * n_pos + [0] * n_neg)
        assert abs(roc_auc(scores, labels) - pair_count_auc(scores, labels)) < 1e-10

    def test_monotone_transform_invariance(self):
        rng = seeded_rng(77).split("scores")
        scores = np.round(rng.uniform(size=40), 2)
        labels = np.array([1] * 20 + [0] * 20)
        base = roc_auc(scores, labels)
        assert roc_auc(2.0 * scores + 1.0, labels) == base
        assert roc_auc(1.0 / (1.0 + np.exp(-scores)), labels) == base

    def test_label_flip_complements(self):
        rng = seeded_rng(78).split("scores")
        scores = np.round(rng.uniform(size=30), 1)
        labels = np.array([1] * 10 + [0] * 20)
        a = roc_auc(scores, labels)
        b = roc_auc(scores, 1 - labels)
        assert abs(a + b - 1.0) < 1e-12

    def test_permutation_invariance(self):
        rng = seeded_rng(79).split("scores")
        scores = rng.uniform(size=25)
        labels = np.array([1] * 10 + [0] * 15)
        perm = seeded_rng(80).split("perm").permutation(25)
        assert roc_auc(scores[perm], labels[perm]) == roc_auc(scores, labels)


class TestPredictSegments:
    def batch(self, n=7, seed=0):
        segs = seeded_rng(seed).normal(size=(n, 16, 3000)).astype(np.float32)
        return SegmentBatch(segs, np.zeros(n))

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_default_chunk_matches_whole_batch(self, topology):
        layout = ElectrodeLayout.default()
        _, net = build_topology(topology, layout, seeded_rng(2).split("model"))
        batch = self.batch(40, seed=3)
        whole = net.forward(reshape_batch(batch.segments, topology, layout), INFER)[:, 0]
        chunked = predict_segments(net, topology, batch, layout)
        # BLAS blocking differs with batch shape, so only near-equality holds
        assert np.allclose(chunked, whole, rtol=0, atol=1e-6)

    def test_output_shape_and_range(self):
        probs = predict_segments(toy_network(), "nv1x16", self.batch(5))
        assert probs.shape == (5,)
        assert np.all((probs > 0) & (probs < 1))


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    return generate_synthetic(root, train_clips=2, test_clips=2, seed=21)


class TestEvaluateSubject:
    def test_indifferent_model_scores_half(self, dataset):
        net = toy_network()
        net.params()["dense.weights"][...] = 0.0
        net.params()["dense.bias"][...] = 0.0
        report = evaluate_subject(net, "nv1x16", dataset, "synth01", seed=4)
        assert report.auc == 0.5
        assert report.n_preictal == 2 and report.n_interictal == 2
        assert all(p.clip_probability == 0.5 for p in report.predictions)
        assert report.seed == 4

    def test_bandpower_model_separates(self, dataset):
        report = evaluate_subject(BandpowerNet(), "nv1x16", dataset, "synth01")
        assert report.auc >= 0.95

    def test_report_is_self_consistent(self, dataset):
        report = evaluate_subject(BandpowerNet(), "nv1x16", dataset, "synth01")
        scores = [p.clip_probability for p in report.predictions]
        labels = [p.label for p in report.predictions]
        assert roc_auc(scores, labels) == report.auc
        for p in report.predictions:
            assert p.clip_probability == aggregate_clip(p.segment_probabilities)

    def test_missing_split_rejected(self, dataset):
        with pytest.raises(DataError):
            evaluate_subject(toy_network(), "nv1x16", dataset, "synth01",
                             split="validation")

    def test_unknown_subject_rejected(self, dataset):
        with pytest.raises(DataError):
            evaluate_subject(toy_network(), "nv1x16", dataset, "synth99")

    def test_unlabeled_clip_rejected(self, dataset):
        from seizurecnn.data import Manifest
        records = [dataclasses.replace(r, label="unknown")
                   for r in dataset.select(split="test")]
        blind = Manifest(records, dataset.layouts, dataset.base)
        with pytest.raises(DataError):
            evaluate_subject(toy_network(), "nv1x16", blind, "synth01")

    def test_unlabeled_clip_rejected_before_scoring(self, dataset, monkeypatch):
        from seizurecnn import evaluation
        from seizurecnn.data import Manifest
        records = dataset.select(split="test")
        records[-1] = dataclasses.replace(records[-1], label="unknown")
        blind = Manifest(records, dataset.layouts, dataset.base)
        scored = []
        monkeypatch.setattr(evaluation, "score_clip", lambda *a: scored.append(a))
        with pytest.raises(DataError, match="unlabeled"):
            evaluate_subject(toy_network(), "nv1x16", blind, "synth01")
        assert scored == []


class TestEvaluationReport:
    def make_report(self, dataset):
        return evaluate_subject(BandpowerNet(), "nv1x16", dataset, "synth01", seed=1)

    def test_file_round_trip_exact(self, dataset, tmp_path):
        report = self.make_report(dataset)
        path = tmp_path / "report.json"
        report.save(path)
        back = EvaluationReport.load(path)
        assert back.auc == report.auc
        assert back.roc_thresholds == report.roc_thresholds
        assert [p.clip_probability for p in back.predictions] == \
            [p.clip_probability for p in report.predictions]
        scores = [p.clip_probability for p in back.predictions]
        labels = [p.label for p in back.predictions]
        assert roc_auc(scores, labels) == back.auc

    def test_save_is_deterministic(self, dataset, tmp_path):
        report = self.make_report(dataset)
        report.save(tmp_path / "a.json")
        report.save(tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_roc_csv(self, dataset, tmp_path):
        report = self.make_report(dataset)
        path = tmp_path / "roc.csv"
        report.roc_to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "fpr,tpr,threshold"
        assert len(lines) == 1 + len(report.roc_fpr)
        first = lines[1].split(",")
        assert float(first[0]) == report.roc_fpr[0]
        assert float(first[2]) == np.inf

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            EvaluationReport.load(tmp_path / "absent.json")

    def test_load_malformed(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"subject": "s1"}))
        with pytest.raises(DataError):
            EvaluationReport.load(path)
        path.write_text("not json")
        with pytest.raises(DataError):
            EvaluationReport.load(path)


def report_with_auc(auc, subject="s1", topology="nv1x16"):
    return EvaluationReport(subject, topology, None,
                            [ClipPrediction("c0", 1, [auc], auc),
                             ClipPrediction("c1", 0, [0.0], 0.0)],
                            auc, 1, 1)


class TestAggregateRuns:
    def test_decile_grid(self):
        reports = [report_with_auc(v) for v in
                   [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]]
        agg = aggregate_runs(reports)
        assert agg.mean == pytest.approx(0.55, abs=1e-15)
        assert agg.median == pytest.approx(0.55, abs=1e-15)
        assert agg.q1 == pytest.approx(0.325, abs=1e-15)
        assert agg.q3 == pytest.approx(0.775, abs=1e-15)
        assert agg.min == 0.1 and agg.max == 1.0
        assert agg.quartile_method == "linear"

    def test_single_run(self):
        agg = aggregate_runs([report_with_auc(0.83)])
        assert (agg.mean, agg.min, agg.q1, agg.median, agg.q3, agg.max) == \
            (0.83,) * 6

    def test_order_statistics_permutation_invariant(self):
        values = [0.4, 0.9, 0.1, 0.7, 0.6]
        a = aggregate_runs([report_with_auc(v) for v in values])
        b = aggregate_runs([report_with_auc(v) for v in reversed(values)])
        assert (a.min, a.q1, a.median, a.q3, a.max) == \
            (b.min, b.q1, b.median, b.q3, b.max)
        assert a.mean == pytest.approx(b.mean, rel=1e-15)

    def test_mixed_groups_rejected(self):
        with pytest.raises(DataError):
            aggregate_runs([report_with_auc(0.5, subject="s1"),
                            report_with_auc(0.6, subject="s2")])
        with pytest.raises(DataError):
            aggregate_runs([report_with_auc(0.5, topology="nv1x16"),
                            report_with_auc(0.6, topology="nv4x4")])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            aggregate_runs([])
