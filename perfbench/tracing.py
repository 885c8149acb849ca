"""What the traced run wraps in the program, and the per-layer metrics
derived from the spans it records.

The layers are the program's modules: ``cli``, ``data``, ``topologies``,
``layers``, ``training``, ``evaluation`` and ``tensor``. ``errors`` does
no work and is not traced. Harness operations open root spans named
``bench.<operation>`` whose tags (``topology``, ``pass_index``) every
span inside them inherits.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

import seizurecnn
from seizurecnn import cli, data, evaluation, layers, tensor, topologies, training

from spans import Target, Tracer, self_rss_growth_kb, self_times, tail, wrapped_sites

MODULES = ("cli", "data", "topologies", "layers", "training", "evaluation", "tensor")
IMPORT_SITES = (seizurecnn, cli, data, evaluation, layers, tensor, topologies, training)
LAYER_CLASSES = (layers.Conv, layers.BatchNorm, layers.MaxPool, layers.ReLU,
                 layers.Dropout, layers.Dense, layers.Sigmoid)
LAYER_KINDS = tuple(cls.__name__.lower() for cls in LAYER_CLASSES)
INFER_KINDS = tuple(k for k in LAYER_KINDS if k != "dropout")  # dropout is the identity in INFER
BLOCK1 = ("conv1", "bn1", "act1", "pool1")
CLI_COMMANDS = ("train", "evaluate", "report", "preprocess")
DATA_CALLS = ("load_clip", "decimate", "znormalize", "segment", "save_clip")


def _tag_layer_forward(tracer, span, args, kwargs, result):
    span.tags["layer"] = args[0].name
    span.tags["mode"] = args[2] if len(args) > 2 else kwargs.get("mode", layers.TRAIN)


def _tag_layer_backward(tracer, span, args, kwargs, result):
    span.tags["layer"] = args[0].name
    span.tags["mode"] = layers.TRAIN


def _tag_load_clip(tracer, span, args, kwargs, result):
    path = os.fspath(args[0])
    span.tags["bytes"] = os.path.getsize(path)
    # later preprocessing of this Clip object is attributed to its file
    tracer.state.setdefault("sources", {})[id(result)] = path


def _tag_save_clip(tracer, span, args, kwargs, result):
    span.tags["bytes"] = os.path.getsize(args[1])


def _tag_clip_source(tracer, span, args, kwargs, result):
    span.tags["clip"] = tracer.state.get("sources", {}).get(id(args[0]))


def _tag_reshape(tracer, span, args, kwargs, result):
    copied = result is not args[0] and not np.may_share_memory(result, args[0])
    span.tags["bytes"] = int(result.nbytes) if copied else 0


def targets() -> list[Target]:
    out = [Target(cli, f"cmd_{c}", f"cli.{c}") for c in CLI_COMMANDS]
    out += [
        Target(data, "load_clip", "data.load_clip", _tag_load_clip),
        Target(data, "save_clip", "data.save_clip", _tag_save_clip),
        Target(data, "decimate", "data.decimate", _tag_clip_source),
        Target(data, "znormalize", "data.znormalize"),
        Target(data, "segment", "data.segment"),
        Target(data, "preprocess_clip", "data.preprocess_clip", _tag_clip_source),
        Target(data, "load_split_segments", "data.load_split_segments"),
        Target(topologies, "build_topology", "topologies.build_topology"),
        Target(topologies, "reshape_batch", "topologies.reshape_batch", _tag_reshape),
    ]
    for cls, kind in zip(LAYER_CLASSES, LAYER_KINDS):
        out.append(Target(cls, "forward", f"layers.{kind}.fwd", _tag_layer_forward))
        out.append(Target(cls, "backward", f"layers.{kind}.bwd", _tag_layer_backward))
    out += [
        Target(training, "fit", "training.fit"),
        Target(training, "batch_loss_and_grads", "training.batch_loss_and_grads"),
        Target(training, "adam_step", "training.adam_step"),
        Target(evaluation, "predict_segments", "evaluation.predict_segments"),
        Target(evaluation, "evaluate_subject", "evaluation.evaluate_subject"),
        Target(evaluation, "roc_curve", "evaluation.roc"),
        Target(evaluation, "aggregate_runs", "evaluation.aggregate_runs"),
        Target(evaluation, "aggregate_clip", "evaluation.aggregate_clip"),
        Target(tensor, "save_arrays", "tensor.save_arrays"),
        Target(tensor, "load_arrays", "tensor.load_arrays"),
        Target(tensor.RngStream, "uniform", "tensor.rng"),
    ]
    return out


TARGETS = targets()


def install(tracer: Tracer) -> None:
    tracer.install(TARGETS, IMPORT_SITES)


def wrapped() -> list[str]:
    return wrapped_sites(TARGETS, IMPORT_SITES)


def catalog() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    out = []
    topos = topologies.TOPOLOGIES
    for kind in LAYER_KINDS:
        for phase in ("fwd", "bwd"):
            out += [(f"layers.{kind}.{phase}_ms.{t}", "ms", "lower") for t in topos]
    for kind in INFER_KINDS:
        out += [(f"layers.{kind}.infer_ms.{t}", "ms", "lower") for t in topos]
    for phase in ("fwd", "bwd", "infer"):
        out += [(f"layers.conv1.{phase}_ms.{t}", "ms", "lower") for t in topos]
    out += [(f"layers.block1_share.{t}", "1", "lower") for t in topos]
    out += [("layers.calls", "count", "lower")]
    for stat in ("step_p50_ms", "step_tail_ms", "adam_ms"):
        out += [(f"training.{stat}.{t}", "ms", "lower") for t in topos]
    out += [("training.loss_self_ms", "ms", "lower"), ("training.steps", "count", "higher")]
    out += [(f"data.{c}_ms", "ms", "lower") for c in DATA_CALLS]
    out += [("data.bytes_read", "bytes", "lower"), ("data.bytes_written", "bytes", "lower"),
            ("data.preprocess_calls", "count", "lower"),
            ("data.distinct_clips", "count", "higher"),
            ("data.preprocess_reuse_ratio", "1", "higher")]
    out += [("topologies.build_ms", "ms", "lower"), ("topologies.reshape_batch_ms", "ms", "lower"),
            ("topologies.reshape_bytes", "bytes", "lower")]
    out += [(f"evaluation.{c}_ms", "ms", "lower")
            for c in ("predict_segments", "evaluate_subject", "roc", "aggregate_runs")]
    out += [(f"tensor.{c}_ms", "ms", "lower") for c in ("save_arrays", "load_arrays", "rng")]
    out += [(f"cli.{c}_self_ms", "ms", "lower") for c in CLI_COMMANDS]
    out += [(f"{m}.rss_growth_mb", "MB", "lower") for m in MODULES]
    out += [(f"{m}.self_share", "1", "lower") for m in MODULES]
    out += [("trace.overhead_pct", "%", "lower")]
    return out


def _median_ms(seconds) -> float:
    return 1e3 * statistics.median(seconds) if seconds else 0.0


def layer_metrics(spans, n_passes: int) -> dict[str, float]:
    """Per-layer metrics of one traced run; absent work reads 0.

    Times are medians per call in ms. Layer times are the summed self
    time of every layer of that kind within one training step (forward
    or backward) or one ``predict_segments`` call (infer), medianed over
    steps or calls. Counts and bytes are per pass. ``self_share`` is a
    module's self time over the time of all harness operations.
    """
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    growth = self_rss_growth_kb(spans)

    def ancestor(span, names):
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name in names:
                return span
        return None

    def named(name):
        return [s for s in spans if s.name == name]

    out = {name: 0.0 for name, _, _ in catalog()}

    # training steps: one batch_loss_and_grads followed by its adam_step
    step_of: dict[int, float] = {}   # batch_loss_and_grads id -> step seconds
    last_grads: dict[int | None, object] = {}
    adam_by_topo: dict[str, list[float]] = {}
    for s in sorted(spans, key=lambda s: s.start):
        if s.name == "training.batch_loss_and_grads":
            last_grads[s.parent] = s
        elif s.name == "training.adam_step" and s.parent in last_grads:
            grads = last_grads.pop(s.parent)
            step_of[grads.id] = s.end - grads.start
            adam_by_topo.setdefault(s.tags.get("topology"), []).append(s.duration)

    # per-group sums of layer self time: (group id, key) -> seconds
    group_sum: dict[tuple[int, str], float] = {}
    group_topo: dict[int, str] = {}
    group_kind: dict[int, str] = {}   # "train" or "infer"
    n_layer_calls = 0
    for s in spans:
        if s.module != "layers":
            continue
        n_layer_calls += 1
        group = ancestor(s, ("training.batch_loss_and_grads", "evaluation.predict_segments"))
        if group is None:
            continue
        kind, phase = s.name.split(".")[1:]
        is_train = group.name == "training.batch_loss_and_grads"
        group_topo[group.id] = s.tags.get("topology")
        group_kind[group.id] = "train" if is_train else "infer"
        phase = phase if is_train else "infer"
        keys = [f"{kind}.{phase}"]
        if s.tags.get("layer") == "conv1":
            keys.append(f"conv1.{phase}")
        if s.tags.get("layer") in BLOCK1:
            keys.append("block1")
        for key in keys:
            group_sum[group.id, key] = group_sum.get((group.id, key), 0.0) + own[s.id]

    def per_group(topo, kind, key):
        return [group_sum.get((g, key), 0.0) for g, t in group_topo.items()
                if t == topo and group_kind[g] == kind]

    for topo in topologies.TOPOLOGIES:
        for kind in LAYER_KINDS:
            for phase in ("fwd", "bwd"):
                out[f"layers.{kind}.{phase}_ms.{topo}"] = _median_ms(
                    per_group(topo, "train", f"{kind}.{phase}"))
        for kind in INFER_KINDS:
            out[f"layers.{kind}.infer_ms.{topo}"] = _median_ms(
                per_group(topo, "infer", f"{kind}.infer"))
        for phase, kind in (("fwd", "train"), ("bwd", "train"), ("infer", "infer")):
            out[f"layers.conv1.{phase}_ms.{topo}"] = _median_ms(
                per_group(topo, kind, f"conv1.{phase}"))
        # share of a training step when there are steps, else of a predict call
        shares = [group_sum.get((g, "block1"), 0.0) / step_of[g]
                  for g, t in group_topo.items() if t == topo and g in step_of]
        if not shares:
            shares = [group_sum.get((g, "block1"), 0.0) / by_id[g].duration
                      for g, t in group_topo.items()
                      if t == topo and group_kind[g] == "infer"]
        out[f"layers.block1_share.{topo}"] = statistics.median(shares) if shares else 0.0

        steps = [sec for g, sec in step_of.items() if by_id[g].tags.get("topology") == topo]
        out[f"training.step_p50_ms.{topo}"] = _median_ms(steps)
        out[f"training.step_tail_ms.{topo}"] = 1e3 * tail(steps)[0] if steps else 0.0
        out[f"training.adam_ms.{topo}"] = _median_ms(adam_by_topo.get(topo, []))
    out["layers.calls"] = n_layer_calls / n_passes
    out["training.loss_self_ms"] = _median_ms(
        [own[s.id] for s in named("training.batch_loss_and_grads")])
    out["training.steps"] = len(step_of) / n_passes

    for call in DATA_CALLS:
        out[f"data.{call}_ms"] = _median_ms([s.duration for s in named(f"data.{call}")])
    out["data.bytes_read"] = sum(s.tags["bytes"] for s in named("data.load_clip")) / n_passes
    out["data.bytes_written"] = sum(s.tags["bytes"] for s in named("data.save_clip")) / n_passes
    # a clip is preprocessed by preprocess_clip, or by decimate called on its own
    preprocess = named("data.preprocess_clip") + [
        s for s in named("data.decimate") if ancestor(s, ("data.preprocess_clip",)) is None]
    distinct = {(s.tags.get("pass_index"), s.tags.get("clip")) for s in preprocess}
    out["data.preprocess_calls"] = len(preprocess) / n_passes
    out["data.distinct_clips"] = len(distinct) / n_passes
    out["data.preprocess_reuse_ratio"] = len(distinct) / len(preprocess) if preprocess else 0.0

    out["topologies.build_ms"] = _median_ms([s.duration for s in named("topologies.build_topology")])
    reshapes = named("topologies.reshape_batch")
    out["topologies.reshape_batch_ms"] = _median_ms([s.duration for s in reshapes])
    out["topologies.reshape_bytes"] = sum(s.tags["bytes"] for s in reshapes) / n_passes

    for call in ("predict_segments", "evaluate_subject", "roc", "aggregate_runs"):
        out[f"evaluation.{call}_ms"] = _median_ms(
            [s.duration for s in named(f"evaluation.{call}")])
    for call in ("save_arrays", "load_arrays"):
        out[f"tensor.{call}_ms"] = _median_ms([s.duration for s in named(f"tensor.{call}")])
    out["tensor.rng_ms"] = _median_ms(
        [s.duration for s in named("tensor.rng")
         if s.parent is not None and by_id[s.parent].name == "layers.dropout.fwd"])
    for command in CLI_COMMANDS:
        out[f"cli.{command}_self_ms"] = _median_ms([own[s.id] for s in named(f"cli.{command}")])

    harness = sum(s.duration for s in spans if s.parent is None)
    for module in MODULES:
        mine = [s for s in spans if s.module == module]
        out[f"{module}.rss_growth_mb"] = sum(growth[s.id] for s in mine) / 1024
        out[f"{module}.self_share"] = sum(own[s.id] for s in mine) / harness if harness else 0.0
    return out
