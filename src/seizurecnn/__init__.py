"""Offline seizure-prediction experiments on 16-channel recordings.

Train the three convolutional topologies (nv1x16, nv4x4, nv2x2x4) from
scratch on raw clips, then score them clip by clip with ROC/AUC. The
layer engine, optimizer and evaluation all live here; the ``seizurecnn``
command wires them together.
"""

__version__ = "0.1.0"

from .data import (Clip, ClipRecord, Manifest, SegmentBatch, bandpower_score,
                   decimate, generate_synthetic, load_clip, preprocess_clip,
                   save_clip, segment, split_train_validation, znormalize)
from .errors import (ConfigError, DataError, LayoutError, SeizureCnnError,
                     TrainingDivergedError)
from .evaluation import (EvaluationReport, RunAggregate, aggregate_clip,
                         aggregate_runs, evaluate_subject, roc_auc, roc_curve)
from .tensor import RngStream, glorot_uniform, seeded_rng
from .topologies import (TOPOLOGIES, ElectrodeLayout, ModelSpec, build_topology,
                         reshape_batch)
from .training import (RunHistory, TrainConfig, adam_step, class_weights, fit,
                       weighted_bce)

__all__ = [
    "Clip", "ClipRecord", "Manifest", "SegmentBatch", "bandpower_score",
    "decimate", "generate_synthetic", "load_clip", "preprocess_clip",
    "save_clip", "segment", "split_train_validation", "znormalize",
    "ConfigError", "DataError", "LayoutError", "SeizureCnnError",
    "TrainingDivergedError",
    "EvaluationReport", "RunAggregate", "aggregate_clip", "aggregate_runs",
    "evaluate_subject", "roc_auc", "roc_curve",
    "RngStream", "glorot_uniform", "seeded_rng",
    "TOPOLOGIES", "ElectrodeLayout", "ModelSpec", "build_topology",
    "reshape_batch",
    "RunHistory", "TrainConfig", "adam_step", "class_weights", "fit",
    "weighted_bce",
    "__version__",
]
