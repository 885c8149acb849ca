"""Command-line entry point.

Subcommands cover the whole experiment cycle: synth, preprocess, split,
train, evaluate, predict, report. Exit codes: 0 success, 2 bad
configuration or flags, 3 data problems (missing subjects, malformed
files, layout mismatches); anything else that goes wrong exits 1.

A training run writes a self-describing directory
``{subject}_{topology}_s{seed:04d}/`` holding parameters.npz,
history.csv and run.json; evaluate adds roc.csv and then report.json
beside them, so a report never stands beside a missing or stale roc.csv.
run.json records the resolved config, the data manifest path, the
layout content hash and the toolkit and RNG identifiers, so a run can be
re-evaluated long after the fact and a stale layout is caught instead of
silently mis-gridding channels. A run is written into a fresh hidden
``*.tmp`` directory and swapped in whole, so a retrain replaces every
file of an earlier run and a failed one leaves the earlier run as it was.

Training several seeds at once honors SEIZURECNN_WORKERS (default 1)
with one process per seed. Every seed runs even when another fails: each
finished run directory is printed, each failure gets its own error line,
and the exit code is that of the first failed seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import shutil
import sys
import tempfile
import zipfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from multiprocessing import get_context
from pathlib import Path

from . import __version__
from .data import (Manifest, cook, generate_synthetic, load_clip,
                   load_split_segments, save_clip, split_train_validation)
# unused here; kept importable from cli because perfbench/tests/test_spans.py
# checks that tracing wraps cli.preprocess_clip along with data's
from .data import preprocess_clip  # noqa: F401
from .errors import (ConfigError, DataError, LayoutError, SeizureCnnError,
                     UnknownSubjectError)
from .evaluation import (EvaluationReport, aggregate_runs, evaluate_subject,
                         score_clip)
from .tensor import (RNG_ALGORITHM_ID, load_arrays, load_json, save_arrays,
                     save_json, seeded_rng)
from .topologies import TOPOLOGIES, build_topology
from .training import TrainConfig, fit

WORKERS_ENV = "SEIZURECNN_WORKERS"

RUN_FILE = "run.json"
PARAMS_FILE = "parameters.npz"
HISTORY_FILE = "history.csv"
REPORT_FILE = "report.json"
ROC_FILE = "roc.csv"


@dataclass
class RunManifest:
    """Contents of run.json: everything needed to re-evaluate the run."""
    subject: str
    topology: str
    seed: int
    config: dict
    data_manifest: str
    layout_sha256: str | None
    artifacts: dict
    toolkit_version: str = __version__
    rng_algorithm: str = RNG_ALGORITHM_ID

    def save(self, path) -> None:
        save_json(path, self.__dict__)

    @classmethod
    def load(cls, path) -> "RunManifest":
        obj = load_json(path, "run manifest", DataError)
        # earlier versions recorded the decimation method; only FIR is applied now
        legacy = obj.pop("decimation", "fir") if isinstance(obj, dict) else "fir"
        if legacy != "fir":
            raise DataError(f"run manifest {path} records {legacy!r} decimation; "
                            f"only FIR decimation can re-score it")
        try:
            return cls(**obj)
        except TypeError as exc:
            raise DataError(f"run manifest {path} is malformed: {exc}") from exc


def _load_config(args) -> TrainConfig:
    """Config file plus flag overrides, validated fail-closed."""
    keys: dict = {}
    if getattr(args, "config", None):
        obj = load_json(args.config, "config", ConfigError)
        if not isinstance(obj, dict):
            raise ConfigError(f"config {args.config} must be a JSON mapping")
        keys.update(obj)
    if getattr(args, "topology", None):
        keys["topology"] = args.topology
    if getattr(args, "epochs", None) is not None:
        keys["epochs"] = args.epochs
    if getattr(args, "seed", None) is not None:
        keys["seed"] = args.seed
    return TrainConfig.from_mapping(keys)


def _require_subject(manifest: Manifest, subject: str) -> None:
    if subject not in manifest.subjects():
        raise UnknownSubjectError(
            f"unknown subject {subject!r}; manifest has {manifest.subjects()}")


def _parse_seeds(args, seed: int) -> list[int]:
    """The ``--seeds`` range, else the one configured seed."""
    if args.seeds:
        lo, sep, hi = args.seeds.partition("..")
        if not sep or not lo.isdigit() or not hi.isdigit():
            raise ConfigError(f"--seeds wants the form A..B, got {args.seeds!r}")
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ConfigError(f"--seeds range is empty: {args.seeds}")
        return list(range(lo, hi + 1))
    return [seed]


def _worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ConfigError(f"{WORKERS_ENV} must be >= 1, got {workers}")
    return workers


def _run_dir(out: Path, subject: str, topology: str, seed: int) -> Path:
    return out / f"{subject}_{topology}_s{seed:04d}"


def _train_one(cfg_mapping: dict, manifest_path: str, subject: str, out: str) -> str:
    """One complete training run; safe to call in a spawned worker."""
    cfg = TrainConfig.from_mapping(cfg_mapping)
    manifest = Manifest.load(manifest_path)
    layout = manifest.layout_for(subject)
    train_batch, _ = load_split_segments(manifest, subject, "train")

    run_rng = seeded_rng(cfg.seed)
    _, network = build_topology(cfg.topology, layout, run_rng.split("model"))
    state, history = fit(network, train_batch, cfg, run_rng.split("fit"), layout=layout)

    run_dir = _run_dir(Path(out), subject, cfg.topology, cfg.seed)
    run_dir.parent.mkdir(parents=True, exist_ok=True)
    # hidden and ending in .tmp, so no run directory name can match it
    work = Path(tempfile.mkdtemp(prefix=f".{run_dir.name}-", suffix=".tmp",
                                 dir=run_dir.parent))
    try:
        new = work / "new"
        new.mkdir()
        save_arrays(new / PARAMS_FILE, state)
        history.to_csv(new / HISTORY_FILE)
        RunManifest(
            subject=subject, topology=cfg.topology, seed=cfg.seed,
            config=cfg.to_mapping(), data_manifest=str(manifest_path),
            layout_sha256=layout.content_hash() if layout is not None else None,
            artifacts={"parameters": PARAMS_FILE, "history": HISTORY_FILE,
                       "report": REPORT_FILE, "roc": ROC_FILE},
        ).save(new / RUN_FILE)
        # os.replace cannot overwrite a non-empty directory: move the old run aside
        if run_dir.exists():
            os.replace(run_dir, work / "old")
        os.replace(new, run_dir)
    finally:
        shutil.rmtree(work)
    return str(run_dir)


def _print_run(run) -> int:
    """Print the run directory ``run()`` returns, or its error line, and
    return the exit code ``main`` would give for it."""
    try:
        print(run())
    except SeizureCnnError as exc:
        return _error_exit(exc)
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    manifest = Manifest.load(args.manifest)
    _require_subject(manifest, args.subject)
    jobs = [(cfg.replace(seed=s).to_mapping(), str(args.manifest), args.subject,
             str(args.out)) for s in _parse_seeds(args, cfg.seed)]
    workers = min(_worker_count(), len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=get_context("spawn")) as pool:
            futures = [pool.submit(_train_one, *job) for job in jobs]
            codes = [_print_run(f.result) for f in futures]
    else:
        codes = [_print_run(partial(_train_one, *job)) for job in jobs]
    return next((code for code in codes if code), 0)


def _load_trained(run_dir: Path, manifest_path: str | None):
    """Rebuild the network of a run directory with its stored parameters,
    against ``manifest_path`` or else the data manifest run.json records."""
    run = RunManifest.load(run_dir / RUN_FILE)
    manifest = Manifest.load(manifest_path or run.data_manifest)
    layout = manifest.layout_for(run.subject)
    stored = layout.content_hash() if layout is not None else None
    if stored != run.layout_sha256:
        raise LayoutError(
            f"layout for {run.subject} does not match the one used in training "
            f"({stored} vs {run.layout_sha256})")
    _, network = build_topology(run.topology, layout, seeded_rng(0).split("shape"))
    try:
        network.load_state(load_arrays(run_dir / PARAMS_FILE))
    except FileNotFoundError as exc:
        raise DataError(f"{run_dir} has no {PARAMS_FILE}") from exc
    except (zipfile.BadZipFile, ValueError, KeyError) as exc:
        raise DataError(f"{run_dir}/{PARAMS_FILE} is corrupt: {exc}") from exc
    return run, manifest, layout, network


def cmd_evaluate(args) -> int:
    run_dir = Path(args.run)
    run, manifest, layout, network = _load_trained(run_dir, args.manifest)
    report = evaluate_subject(network, run.topology, manifest, run.subject,
                              split=args.split, layout=layout, seed=run.seed)
    # report.json goes last: a crash before it leaves no report for `report` to read
    (run_dir / REPORT_FILE).unlink(missing_ok=True)
    report.roc_to_csv(run_dir / ROC_FILE)
    report.save(run_dir / REPORT_FILE)
    print(f"{report.subject} {report.topology} seed={run.seed} "
          f"{args.split} AUC={report.auc:.6f}")
    return 0


def cmd_predict(args) -> int:
    run, _, layout, network = _load_trained(Path(args.run), args.manifest)
    _, probability = score_clip(network, run.topology, load_clip(args.clip), layout)
    print(f"{args.clip} probability={probability:.6f}")
    return 0


def cmd_synth(args) -> int:
    manifest = generate_synthetic(args.out, n_subjects=args.subjects,
                                  train_clips=args.clips, test_clips=args.test_clips,
                                  minutes=args.minutes, seed=args.seed)
    print(Path(args.out) / "manifest.json")
    print(f"{len(manifest.clips)} clips for {len(manifest.subjects())} subject(s)")
    return 0


def cmd_split(args) -> int:
    manifest = Manifest.load(args.manifest)
    train_m, val_m = split_train_validation(manifest, args.fraction, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train_path = out / "train_manifest.json"
    val_path = out / "validation_manifest.json"
    train_m.save(train_path)
    val_m.save(val_path)
    n_val = len(val_m.clips)
    print(train_path)
    print(val_path)
    print(f"{n_val} clips moved to validation, {len(train_m.clips)} remain")
    return 0


def _cooked_names(folder: str, sources: list[Path]) -> list[str]:
    """``folder/<file name>`` for each source file, or a DataError naming
    two different sources that would be written to one name."""
    names = [f"{folder}/{src.name}" for src in sources]
    taken: dict[str, Path] = {}
    for src, rel in zip(sources, names):
        if taken.setdefault(rel, src) != src:
            raise DataError(f"{taken[rel]} and {src} would both be preprocessed to {rel}")
    return names


def cmd_preprocess(args) -> int:
    manifest = Manifest.load(args.manifest)
    out = Path(args.out)
    # name every output before the first write, so a collision changes nothing
    clip_names = _cooked_names("clips", [manifest.clip_path(r) for r in manifest.clips])
    layout_names = _cooked_names("layouts", [manifest.base / p
                                             for p in manifest.layouts.values()])
    (out / "clips").mkdir(parents=True, exist_ok=True)
    (out / "layouts").mkdir(parents=True, exist_ok=True)
    # an earlier manifest must not vouch for a mix of old and new clips
    (out / "manifest.json").unlink(missing_ok=True)
    records = []
    for rec, rel in zip(manifest.clips, clip_names):
        save_clip(cook(manifest.load_record(rec)), out / rel)
        records.append(dataclasses.replace(rec, path=rel))
    layouts = {}
    for subject, rel in zip(manifest.layouts, layout_names):
        manifest.layout_for(subject).save(out / rel)
        layouts[subject] = rel
    Manifest(records, layouts, base=out).save(out / "manifest.json")
    print(out / "manifest.json")
    print(f"{len(records)} clips preprocessed to {out}")
    return 0


def cmd_report(args) -> int:
    reports: dict[tuple[str, str], list[EvaluationReport]] = {}
    skipped: list[str] = []
    for run in args.runs:
        path = Path(run) / REPORT_FILE
        if not path.exists():
            skipped.append(str(run))
            continue
        report = EvaluationReport.load(path)
        reports.setdefault((report.subject, report.topology), []).append(report)
    if not reports:
        raise DataError("no evaluation reports found in the given run directories")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    groups = {key: aggregate_runs(group) for key, group in sorted(reports.items())}
    save_json(out / "aggregates.json", {"groups": [g.to_mapping() for g in groups.values()],
                                        "skipped": sorted(skipped)})

    # mean-AUC grid, subjects down, topologies across
    subjects = sorted({s for s, _ in reports})
    with open(out / "auc_table.csv", "w") as fh:
        fh.write("subject," + ",".join(TOPOLOGIES) + "\n")
        for subject in subjects:
            cells = [f"{groups[subject, t].mean:.6f}" if (subject, t) in groups else ""
                     for t in TOPOLOGIES]
            fh.write(subject + "," + ",".join(cells) + "\n")

    for g in groups.values():
        print(f"{g.subject} {g.topology}: n={len(g.aucs)} mean={g.mean:.4f} "
              f"min={g.minimum:.4f} q1={g.q1:.4f} median={g.median:.4f} "
              f"q3={g.q3:.4f} max={g.maximum:.4f}")
    if skipped:
        print("skipped (no report):")
        for s in sorted(skipped):
            print(f"  {s}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seizurecnn",
        description="Seizure-prediction experiments on 16-channel clips")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--subjects", type=int, default=1)
    p.add_argument("--clips", type=int, default=80, help="train clips per class")
    p.add_argument("--test-clips", type=int, default=20, help="test clips per class")
    p.add_argument("--minutes", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="cache 200 Hz, normalized clips")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("split", help="carve out a validation set")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fraction", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train one subject/topology over seeds")
    p.add_argument("--config", help="JSON file of TrainConfig keys")
    p.add_argument("--manifest", required=True)
    p.add_argument("--subject", required=True)
    p.add_argument("--topology", choices=TOPOLOGIES)
    p.add_argument("--epochs", type=int, help="override the configured epoch count")
    p.add_argument("--seed", type=int,
                   help="override the config file's seed (default: that seed, else 0)")
    p.add_argument("--seeds", help="inclusive range A..B, one run per seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a trained run on a labeled split")
    p.add_argument("--run", required=True, help="run directory from train")
    p.add_argument("--manifest", help="defaults to the manifest recorded in run.json")
    p.add_argument("--split", choices=("train", "test", "validation"), default="test")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="probability for one clip file")
    p.add_argument("--run", required=True)
    p.add_argument("--manifest", help="defaults to the manifest recorded in run.json")
    p.add_argument("clip")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("report", help="aggregate evaluated runs")
    p.add_argument("runs", nargs="+", help="run directories")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_report)

    return parser


def _error_exit(exc: SeizureCnnError) -> int:
    """Print ``exc`` as an error line and return its exit code: 2 for
    configuration, 3 for data, 1 for anything else."""
    print(f"error: {exc}", file=sys.stderr)
    if isinstance(exc, ConfigError):
        return 2
    if isinstance(exc, DataError):
        return 3
    return 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SeizureCnnError as exc:
        return _error_exit(exc)


if __name__ == "__main__":
    sys.exit(main())
