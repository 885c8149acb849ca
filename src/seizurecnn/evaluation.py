"""Clip-level scoring: probability aggregation, ROC/AUC, reports.

Scoring granularity is the 10-minute clip. A trained network emits one
probability per 15 s segment; a clip's probability is the plain mean of
its segments. The ROC is built over clip probabilities with thresholds
at the distinct scores, ties grouped, so the trapezoidal area equals the
Mann-Whitney statistic with half credit for tied pairs.

Reports are JSON documents that carry enough to recompute their own AUC,
plus a flat CSV of ROC points for plotting. Aggregates over repeated
seeds record the five-number summary with linear-interpolation quartiles.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .data import LABEL_CODES, Clip, Manifest, SegmentBatch, preprocess_clip
from .errors import DataError, SingleClassError
from .layers import INFER, Network
from .tensor import load_json, save_json
from .topologies import ElectrodeLayout, reshape_batch

QUARTILE_METHOD = "linear"


def aggregate_clip(segment_probs) -> float:
    """Arithmetic mean of a clip's segment probabilities."""
    probs = np.asarray(segment_probs, dtype=np.float64)
    if probs.size == 0:
        raise DataError("cannot aggregate an empty probability list")
    return float(probs.mean())


def roc_curve(scores, labels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ROC points over all distinct thresholds, from (0, 0) to (1, 1).

    Returns (fpr, tpr, thresholds); the leading point gets threshold
    +inf. Tied scores collapse into one point.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError(
            f"ROC needs both classes, got {n_pos} positive and {n_neg} negative")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    # keep only the last index of each tie group
    last = np.nonzero(np.append(s[:-1] != s[1:], True))[0]
    tps = np.cumsum(y == 1)[last]
    fps = np.cumsum(y == 0)[last]
    tpr = np.concatenate([[0.0], tps / n_pos])
    fpr = np.concatenate([[0.0], fps / n_neg])
    thresholds = np.concatenate([[np.inf], s[last]])
    return fpr, tpr, thresholds


def roc_auc(scores, labels) -> float:
    fpr, tpr, _ = roc_curve(scores, labels)
    return float(np.trapezoid(tpr, fpr))


@dataclass
class ClipPrediction:
    clip_id: str
    label: int | None
    segment_probabilities: list[float]
    clip_probability: float


@dataclass
class EvaluationReport:
    """Everything one evaluation produced, self-consistent by design:
    recomputing the AUC from the stored predictions gives the stored AUC."""
    subject: str
    topology: str
    seed: int | None
    predictions: list[ClipPrediction]
    auc: float
    n_preictal: int
    n_interictal: int
    roc_fpr: list[float] = field(default_factory=list)
    roc_tpr: list[float] = field(default_factory=list)
    roc_thresholds: list[float] = field(default_factory=list)

    def to_mapping(self) -> dict:
        return {
            "subject": self.subject,
            "topology": self.topology,
            "seed": self.seed,
            "auc": self.auc,
            "n_preictal": self.n_preictal,
            "n_interictal": self.n_interictal,
            "clips": [{"clip_id": p.clip_id, "label": p.label,
                       "clip_probability": p.clip_probability,
                       "segment_probabilities": p.segment_probabilities}
                      for p in self.predictions],
            "roc": {"fpr": self.roc_fpr, "tpr": self.roc_tpr,
                    "thresholds": [repr(t) for t in self.roc_thresholds]},
        }

    def save(self, path) -> None:
        save_json(path, self.to_mapping())

    @classmethod
    def from_mapping(cls, obj: dict) -> "EvaluationReport":
        preds = [ClipPrediction(c["clip_id"], c["label"], c["segment_probabilities"],
                                c["clip_probability"]) for c in obj["clips"]]
        roc = obj.get("roc", {})
        return cls(obj["subject"], obj["topology"], obj.get("seed"), preds,
                   obj["auc"], obj["n_preictal"], obj["n_interictal"],
                   roc.get("fpr", []), roc.get("tpr", []),
                   [float(t) for t in roc.get("thresholds", [])])

    @classmethod
    def load(cls, path) -> "EvaluationReport":
        obj = load_json(path, "report", DataError)
        try:
            return cls.from_mapping(obj)
        except (KeyError, TypeError) as exc:
            raise DataError(f"report {path} is malformed: {exc}") from exc

    def roc_to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["fpr", "tpr", "threshold"])
            for f, t, thr in zip(self.roc_fpr, self.roc_tpr, self.roc_thresholds):
                writer.writerow([repr(f), repr(t), repr(thr)])


INFER_CHUNK = 4


def predict_segments(network: Network, topology: str, batch: SegmentBatch,
                     layout: ElectrodeLayout | None = None) -> np.ndarray:
    """Inference-mode probabilities for a batch of segments, forwarded
    ``INFER_CHUNK`` segments at a time so each layer's output stays small
    enough to fit in cache."""
    x = reshape_batch(batch.segments, topology, layout)
    parts = [network.forward(x[i:i + INFER_CHUNK], INFER)[:, 0]
             for i in range(0, x.shape[0], INFER_CHUNK)]
    return np.concatenate(parts).astype(np.float64)


def score_clip(network: Network, topology: str, clip: Clip,
               layout: ElectrodeLayout | None = None) -> tuple[np.ndarray, float]:
    """A raw or cooked clip's segment probabilities and their mean, the
    clip probability."""
    probs = predict_segments(network, topology, preprocess_clip(clip), layout)
    return probs, aggregate_clip(probs)


def evaluate_subject(network: Network, topology: str, manifest: Manifest,
                     subject: str, split: str = "test",
                     layout: ElectrodeLayout | None = None,
                     seed: int | None = None) -> EvaluationReport:
    """Score every labeled clip of one subject/split and build the report.

    Each clip is preprocessed, forward-passed in inference mode (running
    batch-norm statistics, dropout off), its segment probabilities
    averaged, and the ROC taken over clip probabilities. An unlabeled
    clip in the split is rejected before any clip is scored.
    """
    records = manifest.labeled_split(subject, split)
    if layout is None:
        layout = manifest.layout_for(subject)
    predictions = []
    for rec in records:
        probs, clip_prob = score_clip(network, topology, manifest.load_record(rec), layout)
        predictions.append(ClipPrediction(rec.path, LABEL_CODES[rec.label],
                                          [float(p) for p in probs], clip_prob))
    scores = [p.clip_probability for p in predictions]
    labels = [p.label for p in predictions]
    fpr, tpr, thr = roc_curve(scores, labels)
    auc = float(np.trapezoid(tpr, fpr))
    return EvaluationReport(
        subject, topology, seed, predictions, auc,
        n_preictal=sum(1 for y in labels if y == 1),
        n_interictal=sum(1 for y in labels if y == 0),
        roc_fpr=[float(v) for v in fpr], roc_tpr=[float(v) for v in tpr],
        roc_thresholds=[float(v) for v in thr])


@dataclass
class RunAggregate:
    """Distribution of AUCs over repeated runs of one subject/topology."""
    subject: str
    topology: str
    aucs: list[float]
    mean: float
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    quartile_method: str = QUARTILE_METHOD

    def to_mapping(self) -> dict:
        return {"subject": self.subject, "topology": self.topology,
                "aucs": self.aucs, "mean": self.mean,
                "min": self.minimum, "q1": self.q1, "median": self.median,
                "q3": self.q3, "max": self.maximum,
                "quartile_method": self.quartile_method}


def aggregate_runs(reports: list[EvaluationReport]) -> RunAggregate:
    """Five-number summary plus mean of the reports' AUCs."""
    if not reports:
        raise DataError("cannot aggregate zero evaluation reports")
    subjects = {r.subject for r in reports}
    topologies = {r.topology for r in reports}
    if len(subjects) != 1 or len(topologies) != 1:
        raise DataError(f"reports must share one subject and topology, "
                        f"got subjects {sorted(subjects)}, topologies {sorted(topologies)}")
    aucs = [float(r.auc) for r in reports]
    lo, q1, med, q3, hi = (float(v) for v in
                           np.percentile(aucs, [0, 25, 50, 75, 100],
                                         method=QUARTILE_METHOD))
    return RunAggregate(reports[0].subject, reports[0].topology, aucs,
                        float(np.mean(aucs)), lo, q1, med, q3, hi)
