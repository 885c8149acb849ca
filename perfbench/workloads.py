"""The three benchmark workloads.

Each workload runs in one process as a closed loop with one client: an
operation starts only after the previous one has returned. A workload
generates its inputs from the seed (in a child process, see ``run.py``),
sets the program up, runs whole passes over its inputs, and checks the
outputs after the timed region.

* ``train_sweep``: the paper's experiment on 1-minute clips. Per pass,
  every topology trains two seeds at batch 32 through ``cli.main``, then
  each run is evaluated and one report covers them all.
* ``score_clips``: predict requests over 10-minute clips, each
  ``load_clip -> preprocess_clip -> predict_segments -> aggregate_clip``.
  A pass is one request per topology; clips rotate across passes.
* ``ingest``: one ``preprocess`` subcommand per pass over four
  10-minute 400 Hz clips.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from seizurecnn import cli, data, evaluation, tensor, topologies, training
from seizurecnn.data import TARGET_RATE_HZ
from seizurecnn.topologies import N_CHANNELS, SEGMENT_SAMPLES

from spans import tail

SUBJECT = "synth01"
SEGMENTS_PER_MINUTE = int(60 * TARGET_RATE_HZ) // SEGMENT_SAMPLES


@dataclass
class Pass:
    """One complete pass over a workload's inputs.

    ``segments`` 15-second segments went through the workload's main
    operations (train runs, predict requests, preprocess calls) in
    ``busy`` seconds; ``ops`` holds the latency of each predict request.
    """
    seconds: float = 0.0
    ops: list[float] = field(default_factory=list)
    segments: int = 0
    busy: float = 0.0
    attempted: int = 0
    failed: int = 0


def _request(tracer, name, **context):
    return tracer.request(name, **context) if tracer is not None else contextlib.nullcontext()


def _call_cli(tracer, argv, **context) -> tuple[bool, str, float]:
    """Run one subcommand in-process; (succeeded, stdout, seconds)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with _request(tracer, argv[0], **context), contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception:  # an unexpected crash is one failed operation
        traceback.print_exc()
        code = 1
    return code == 0, out.getvalue(), time.perf_counter() - start


class TrainSweep:
    name = "train_sweep"
    TRAIN_CLIPS = 4   # per class: 8 one-minute clips, 32 segments, one batch
    TEST_CLIPS = 2    # per class
    EPOCHS = 1

    @classmethod
    def generate(cls, root: Path, seed: int) -> None:
        data.generate_synthetic(root / "data", train_clips=cls.TRAIN_CLIPS,
                                test_clips=cls.TEST_CLIPS, minutes=1, seed=seed)

    def __init__(self, root: Path, seed: int):
        self.manifest_path = root / "data" / "manifest.json"
        self.runs = root / "runs"
        self.summary = root / "summary"
        self.seeds = (seed, seed + 1)
        self.train_segments = 2 * self.TRAIN_CLIPS * SEGMENTS_PER_MINUTE
        self.run_dirs: list[Path] = []
        self.aucs: list[float] = []
        self.losses: list[float] = []

    def setup(self) -> None:
        manifest = data.Manifest.load(self.manifest_path)
        manifest.layout_for(SUBJECT)

    def run_pass(self, index: int, tracer=None) -> Pass:
        p = Pass()
        start = time.perf_counter()
        trained = []
        for topo in topologies.TOPOLOGIES:
            for seed in self.seeds:
                ok, out, seconds = _call_cli(
                    tracer, ["train", "--manifest", str(self.manifest_path),
                             "--subject", SUBJECT, "--topology", topo,
                             "--epochs", str(self.EPOCHS), "--seed", str(seed),
                             "--out", str(self.runs)],
                    topology=topo, pass_index=index)
                p.busy += seconds
                p.segments += self.train_segments * self.EPOCHS
                p.attempted += 1
                if ok:
                    trained.append((topo, Path(out.split()[-1])))
                else:
                    p.failed += 1
        for topo, run_dir in trained:
            ok, _, _ = _call_cli(tracer, ["evaluate", "--run", str(run_dir)],
                                 topology=topo, pass_index=index)
            p.attempted += 1
            p.failed += not ok
        ok, _, _ = _call_cli(tracer, ["report", *(str(d) for _, d in trained),
                                      "--out", str(self.summary)], pass_index=index)
        p.attempted += 1
        p.failed += not ok
        p.seconds = time.perf_counter() - start
        self.run_dirs = [d for _, d in trained]
        return p

    def check(self) -> list[str]:
        problems = []
        expected = len(topologies.TOPOLOGIES) * len(self.seeds)
        if len(self.run_dirs) != expected:
            problems.append(f"{len(self.run_dirs)} run directories, expected {expected}")
        self.aucs, self.losses = [], []
        for run_dir in self.run_dirs:
            missing = [f for f in (cli.PARAMS_FILE, cli.HISTORY_FILE, cli.RUN_FILE,
                                   cli.REPORT_FILE) if not (run_dir / f).is_file()]
            if missing:
                problems.append(f"{run_dir.name}: missing {missing}")
                continue
            losses = training.RunHistory.from_csv(run_dir / cli.HISTORY_FILE).mean_loss
            if len(losses) != self.EPOCHS or not all(math.isfinite(v) for v in losses):
                problems.append(f"{run_dir.name}: losses {losses}")
            report = evaluation.EvaluationReport.load(run_dir / cli.REPORT_FILE)
            auc = evaluation.roc_auc([c.clip_probability for c in report.predictions],
                                     [c.label for c in report.predictions])
            if auc != report.auc:
                problems.append(f"{run_dir.name}: report AUC {report.auc}, recomputed {auc}")
            self.aucs.append(report.auc)
            self.losses.append(losses[-1])
        for name in ("aggregates.json", "auc_table.csv"):
            if not (self.summary / name).is_file():
                problems.append(f"report wrote no {name}")
        return problems

    def own_metrics(self, passes: list[Pass]) -> list[tuple[str, float, str]]:
        return [
            ("sweep_s", float(np.median([p.seconds for p in passes])), "s"),
            ("train_segments_per_s", sum(p.segments for p in passes)
             / sum(p.busy for p in passes), "seg/s"),
            ("test_auc", float(np.mean(self.aucs)) if self.aucs else math.nan, "1"),
            ("final_loss", float(np.mean(self.losses)) if self.losses else math.nan, "1"),
        ]


class ScoreClips:
    name = "score_clips"
    MINUTES = 10
    PARAMS = "{}.npz"

    @classmethod
    def generate(cls, root: Path, seed: int) -> None:
        manifest = data.generate_synthetic(root / "data", train_clips=1, test_clips=1,
                                           minutes=cls.MINUTES, seed=seed)
        layout = manifest.layout_for(SUBJECT)
        for topo in topologies.TOPOLOGIES:
            _, network = topologies.build_topology(
                topo, layout, tensor.seeded_rng(seed).split(f"bench/{topo}"))
            tensor.save_arrays(root / cls.PARAMS.format(topo), network.state())

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.manifest_path = root / "data" / "manifest.json"
        self.scores: list[tuple[str, str, float]] = []   # (topology, clip path, probability)

    def setup(self) -> None:
        self.manifest = data.Manifest.load(self.manifest_path)
        self.layout = self.manifest.layout_for(SUBJECT)
        self.records = self.manifest.select(subject=SUBJECT, split="test")
        self.networks = {}
        for topo in topologies.TOPOLOGIES:
            _, network = topologies.build_topology(topo, self.layout,
                                                   tensor.seeded_rng(0).split("shape"))
            network.load_state(tensor.load_arrays(self.root / self.PARAMS.format(topo)))
            self.networks[topo] = network

    def run_pass(self, index: int, tracer=None) -> Pass:
        p = Pass()
        start = time.perf_counter()
        n_topo = len(topologies.TOPOLOGIES)
        for j, topo in enumerate(topologies.TOPOLOGIES):
            record = self.records[(index * n_topo + j) % len(self.records)]
            t0 = time.perf_counter()
            p.attempted += 1
            try:
                with _request(tracer, "predict", topology=topo, pass_index=index):
                    clip = data.load_clip(self.manifest.clip_path(record))
                    segs = data.preprocess_clip(clip)
                    probs = evaluation.predict_segments(self.networks[topo], topo, segs,
                                                        self.layout)
                    prob = evaluation.aggregate_clip(probs)
            except Exception:  # an unexpected crash is one failed request
                traceback.print_exc()
                p.failed += 1
                continue
            seconds = time.perf_counter() - t0
            p.ops.append(seconds)
            p.busy += seconds
            p.segments += len(segs)
            self.scores.append((topo, record.path, prob))
        p.seconds = time.perf_counter() - start
        return p

    def check(self) -> list[str]:
        problems = []
        references = {}
        for topo in sorted({t for t, _, _ in self.scores}):
            report = evaluation.evaluate_subject(self.networks[topo], topo, self.manifest,
                                                 SUBJECT, split="test", layout=self.layout)
            for pred in report.predictions:
                references[topo, pred.clip_id] = pred.clip_probability
        for topo, path, prob in self.scores:
            if not (math.isfinite(prob) and 0.0 <= prob <= 1.0):
                problems.append(f"{topo} {path}: probability {prob}")
            elif abs(prob - references[topo, path]) > 1e-9:
                problems.append(f"{topo} {path}: probability {prob}, "
                                f"evaluate_subject gives {references[topo, path]}")
        return problems

    def own_metrics(self, passes: list[Pass]) -> list[tuple[str, float, str]]:
        ops = [s for p in passes for s in p.ops]
        value, percentile, n = tail(ops)
        return [
            ("score_segments_per_s", sum(p.segments for p in passes)
             / sum(p.busy for p in passes), "seg/s"),
            ("predict_p50_ms", 1e3 * float(np.median(ops)), "ms"),
            ("predict_tail_ms", 1e3 * value, f"ms (p{percentile:g} of n={n})"),
        ]


class Ingest:
    name = "ingest"
    MINUTES = 10

    @classmethod
    def generate(cls, root: Path, seed: int) -> None:
        data.generate_synthetic(root / "data", train_clips=1, test_clips=1,
                                minutes=cls.MINUTES, seed=seed)

    def __init__(self, root: Path, seed: int):
        self.manifest_path = root / "data" / "manifest.json"
        self.out = root / "cooked"
        self.clips = 0

    def setup(self) -> None:
        manifest = data.Manifest.load(self.manifest_path)
        manifest.layout_for(SUBJECT)
        self.clips = len(manifest.clips)

    def run_pass(self, index: int, tracer=None) -> Pass:
        ok, _, seconds = _call_cli(tracer, ["preprocess", "--manifest", str(self.manifest_path),
                                            "--out", str(self.out)], pass_index=index)
        return Pass(seconds=seconds,
                    segments=self.clips * self.MINUTES * SEGMENTS_PER_MINUTE,
                    busy=seconds, attempted=self.clips, failed=0 if ok else self.clips)

    def check(self) -> list[str]:
        problems = []
        manifest = data.Manifest.load(self.out / "manifest.json")
        if len(manifest.clips) != self.clips:
            problems.append(f"{len(manifest.clips)} cooked clips, expected {self.clips}")
        expected_samples = int(self.MINUTES * 60 * TARGET_RATE_HZ)
        for record in manifest.clips:
            clip = manifest.load_record(record)
            x = clip.samples.astype(np.float64)
            if (clip.sample_rate_hz, clip.n_channels, clip.n_samples) != \
                    (TARGET_RATE_HZ, N_CHANNELS, expected_samples):
                problems.append(f"{record.path}: {clip.sample_rate_hz} Hz, "
                                f"shape {clip.samples.shape}")
            elif np.abs(x.mean(axis=1)).max() > 1e-4 or np.abs(x.std(axis=1) - 1).max() > 1e-4:
                problems.append(f"{record.path}: channels not z-normalised")
        return problems

    def own_metrics(self, passes: list[Pass]) -> list[tuple[str, float, str]]:
        return [("preprocess_clips_per_s", sum(p.attempted for p in passes)
                 / sum(p.busy for p in passes), "clip/s")]


WORKLOADS = {w.name: w for w in (TrainSweep, ScoreClips, Ingest)}

