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
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import LABEL_CODES, SPLITS, Clip, Manifest, SegmentBatch, preprocess_clip
from .errors import DataError
from .layers import INFER, Network
from .tensor import check_fields, load_json, one_blas_thread, save_json
from .topologies import TOPOLOGIES, ElectrodeLayout, reshape_batch

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
        raise DataError(f"ROC needs both classes, got {n_pos} positive and {n_neg} negative")
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


#: report.json keys and their kinds (see tensor.check_fields): the report's,
#: its roc's and each clip row's; a clip row needs every one of its keys
REPORT_KINDS = {"subject": str, "topology": str, "seed": (int, None), "split": str,
                "auc": float, "n_preictal": int, "n_interictal": int, "clips": list,
                "roc": dict}
REPORT_REQUIRED = ["subject", "topology", "auc", "n_preictal", "n_interictal", "clips"]
ROC_KINDS = dict.fromkeys(("fpr", "tpr", "thresholds"), list)
PREDICTION_KINDS = {"clip_id": str, "label": (int, None), "segment_probabilities": list,
                    "clip_probability": float}


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
    split: str = "test"

    def to_mapping(self) -> dict:
        return {
            "subject": self.subject,
            "topology": self.topology,
            "seed": self.seed,
            "split": self.split,
            "auc": self.auc,
            "n_preictal": self.n_preictal,
            "n_interictal": self.n_interictal,
            "clips": [asdict(p) for p in self.predictions],
            "roc": {"fpr": self.roc_fpr, "tpr": self.roc_tpr,
                    "thresholds": [repr(t) for t in self.roc_thresholds]},
        }

    def save(self, path) -> None:
        save_json(path, self.to_mapping())

    @classmethod
    def from_mapping(cls, obj, where: str = "report") -> "EvaluationReport":
        """Read a report document; a missing, unknown or mistyped field
        raises a DataError naming ``where``."""
        check_fields(obj, REPORT_KINDS, REPORT_REQUIRED, where, DataError)
        topology, auc = obj["topology"], obj["auc"]
        split = obj.get("split", "test")  # reports written before splits were recorded
        if topology not in TOPOLOGIES:
            raise DataError(f"{where}: topology must be one of {TOPOLOGIES}, got {topology!r}")
        if not 0 <= auc <= 1:
            raise DataError(f"{where}: auc must be a number in [0, 1], got {auc!r}")
        if split not in SPLITS:
            raise DataError(f"{where}: split must be one of {SPLITS}, got {split!r}")
        preds = [ClipPrediction(**check_fields(c, PREDICTION_KINDS, list(PREDICTION_KINDS),
                                               f"{where} clip {i}", DataError))
                 for i, c in enumerate(obj["clips"])]
        roc = check_fields(obj.get("roc", {}), ROC_KINDS, [], f"{where} roc", DataError)
        return cls(obj["subject"], topology, obj.get("seed"), preds,
                   auc, obj["n_preictal"], obj["n_interictal"],
                   roc.get("fpr", []), roc.get("tpr", []),
                   [float(t) for t in roc.get("thresholds", [])], split)

    @classmethod
    def load(cls, path) -> "EvaluationReport":
        obj = load_json(path, "report", DataError)
        try:
            return cls.from_mapping(obj, f"report {path}")
        except (TypeError, ValueError) as exc:  # a threshold float() cannot read
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
    enough to fit in cache.

    OpenBLAS runs one thread for the call, so that a ``Network`` shares the
    chunks over every core (``Network.forward_chunks``); any other scorer's
    ``forward`` is called once per chunk. Chunks stay at 4 on any core
    count: ``dense1``'s GEMM takes a different OpenBLAS path by its row
    count, so its bits follow the chunk length."""
    x = reshape_batch(batch.segments, topology, layout)
    with one_blas_thread():
        if isinstance(network, Network):
            out = network.forward_chunks(x, INFER_CHUNK)
        else:
            out = np.concatenate([network.forward(x[i:i + INFER_CHUNK], INFER)
                                  for i in range(0, x.shape[0], INFER_CHUNK)])
    return out[:, 0].astype(np.float64)


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
        roc_thresholds=[float(v) for v in thr], split=split)


@dataclass
class RunAggregate:
    """Distribution of AUCs over repeated runs of one subject/topology."""
    subject: str
    topology: str
    aucs: list[float]
    mean: float
    min: float
    q1: float
    median: float
    q3: float
    max: float
    quartile_method: str = QUARTILE_METHOD


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
