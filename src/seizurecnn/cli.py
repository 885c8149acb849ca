"""Command-line entry point.

Subcommands cover the whole experiment cycle: synth, preprocess, split,
train, evaluate, predict, report. Exit codes: 0 success, 2 bad
configuration or flags, 3 data problems (missing subjects, malformed
files, layout mismatches); anything else that goes wrong exits 1.

A training run writes a self-describing directory
``{subject}_{topology}_s{seed:04d}/`` holding parameters.npz,
history.csv and run.json; evaluate adds roc.csv and report.json beside
them. run.json records the five training settings, one per ``train``
flag, the data manifest's absolute path, the layout content hash and the
toolkit and RNG identifiers, so a run can be re-evaluated long after the
fact and from any directory, and a stale layout is caught instead of
silently mis-gridding channels. Every command but synth writes its files
through ``_commit``, so a failed command leaves its earlier output as it
was and a reader never finds new files beside stale ones; a failed write
is one ``error:`` line and exit code 1.

``train --seed A..B`` preprocesses the training split once and then
trains one seed after another in this process. Every seed runs even when
another fails: each finished run directory is printed, each failure gets
its own error line, and the exit code is that of the first failed seed.
Seeds run in parallel as one ``train`` process per seed range.

A command runs with numpy's OpenBLAS on one thread, its earlier count
restored after; the conv blocks and decimation share their work over the
cores the process may run on themselves.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import os
import sys
import warnings
import zipfile
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .data import (SPLITS, Manifest, cook, generate_synthetic, load_clip,
                   load_split_segments, save_clip, split_train_validation)
# unused here; kept importable from cli because perfbench/tests/test_spans.py
# checks that tracing wraps cli.preprocess_clip along with data's
from .data import preprocess_clip  # noqa: F401
from .errors import ConfigError, DataError, LayoutError, SeizureCnnError
from .evaluation import (EvaluationReport, aggregate_runs, evaluate_subject,
                         score_clip)
from .tensor import (RNG_ALGORITHM_ID, check_fields, load_arrays, load_json,
                     one_blas_thread, save_arrays, save_json, seeded_rng)
from .topologies import TOPOLOGIES, build_topology
from .training import TrainConfig, fit

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

    #: run.json keys and their kinds (see tensor.check_fields); config's
    #: contents stay unchecked, so runs written with older config keys load.
    #: Earlier versions also recorded the decimation method.
    KINDS = {"subject": str, "topology": str, "seed": int, "config": dict,
             "data_manifest": str, "layout_sha256": (str, None), "artifacts": dict,
             "toolkit_version": str, "rng_algorithm": str, "decimation": str}

    def save(self, path) -> None:
        save_json(path, self.__dict__)

    @classmethod
    def load(cls, path) -> "RunManifest":
        required = [f.name for f in dataclasses.fields(cls)
                    if f.default is dataclasses.MISSING]
        obj = check_fields(load_json(path, "run manifest", DataError), cls.KINDS, required,
                           f"run manifest {path}", DataError)
        legacy = obj.pop("decimation", "fir")  # only FIR is applied now
        if legacy != "fir":
            raise DataError(f"run manifest {path} records {legacy!r} decimation; "
                            f"only FIR decimation can re-score it")
        run = cls(**obj)
        if run.topology not in TOPOLOGIES:
            raise DataError(f"run manifest {path} names unknown topology {run.topology!r}")
        return run


def _seeds(text: str, ranges: bool = False) -> range:
    """The seeds a ``--seed`` names: one seed S or, with ``ranges``, an
    inclusive range A..B. Each is ASCII digits with a value below 2**64."""
    ends = text.split("..", 1) if ranges else [text]
    if not all(e.isascii() and e.isdigit() for e in ends):
        form = "a seed S or a range A..B" if ranges else "one seed S"
        raise ConfigError(f"--seed wants {form} of digits 0-9, got {text!r}")
    # a longer end is past the limit, and int() may refuse to read it
    if any(len(e) > 20 or int(e) >= 2**64 for e in ends):
        raise ConfigError(f"--seed must be at most {2**64 - 1}")
    seeds = range(int(ends[0]), int(ends[-1]) + 1)
    if not seeds:
        raise ConfigError(f"--seed range is empty: {text}")
    return seeds


def _commit(directory: Path, files: dict) -> None:
    """Write ``files``, an ordered map from a path under ``directory`` to a
    writer ``f(path)`` or to None (delete the file), whole or not at all.
    Each writer stages a hidden ``.<name>.tmp`` beside its target. Once all
    have returned, the last name is deleted and each file moved into place
    or deleted in order, so a reader that finds the last file finds the set
    written with it. If a writer raises, ``directory`` is left as it was;
    an OSError becomes a SeizureCnnError. Each staged file is synced to
    disk before the first move and each changed directory after the last,
    so a power loss cannot leave the last file beside a short one."""
    targets = {Path(directory) / rel: write for rel, write in files.items()}
    staged = {t: t.with_name(f".{t.name}.tmp") for t, w in targets.items() if w is not None}
    made: list[Path] = []
    try:
        for target, tmp in staged.items():
            for d in reversed(target.parents):
                if not d.is_dir():
                    with contextlib.suppress(FileExistsError):  # another train process made it first
                        d.mkdir()
                        made.append(d)
            targets[target](tmp)
            _fsync(tmp)
        list(targets)[-1].unlink(missing_ok=True)
        for target in targets:
            if target in staged:
                os.replace(staged[target], target)
            else:
                target.unlink(missing_ok=True)
        for folder in dict.fromkeys([t.parent for t in targets] + [d.parent for d in made]):
            _fsync(folder)
    except BaseException as exc:
        for tmp in staged.values():
            with contextlib.suppress(OSError):  # its folder may be what could not be made
                tmp.unlink(missing_ok=True)
        for d in reversed(made):
            with contextlib.suppress(OSError):  # another train process wrote into it
                d.rmdir()
        if isinstance(exc, OSError):
            raise SeizureCnnError(f"cannot write {directory}: {exc}") from exc
        raise


def _fsync(path: Path) -> None:
    """Flush a file's data, or a directory's entries, to disk."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _train_one(cfg: TrainConfig, manifest_path: str, subject: str, layout,
               train_batch, out: str) -> str:
    """One complete training run over the loaded training segments."""
    run_rng = seeded_rng(cfg.seed)
    _, network = build_topology(cfg.topology, layout, run_rng.split("model"))
    state, history = fit(network, train_batch, cfg, run_rng.split("fit"), layout=layout)

    run_dir = Path(out) / f"{subject}_{cfg.topology}_s{cfg.seed:04d}"
    run = RunManifest(
        subject=subject, topology=cfg.topology, seed=cfg.seed,
        config=dataclasses.asdict(cfg), data_manifest=os.path.abspath(manifest_path),
        layout_sha256=layout.content_hash() if layout is not None else None,
        artifacts={"parameters": PARAMS_FILE, "history": HISTORY_FILE,
                   "report": REPORT_FILE, "roc": ROC_FILE})
    # an earlier report and ROC no longer describe the new parameters
    _commit(run_dir, {PARAMS_FILE: lambda path: save_arrays(path, state),
                      HISTORY_FILE: history.to_csv, REPORT_FILE: None, ROC_FILE: None,
                      RUN_FILE: run.save})
    return str(run_dir)


def cmd_train(args) -> int:
    cfg = TrainConfig(topology=args.topology, epochs=args.epochs, batch_size=args.batch_size,
                      learning_rate=args.learning_rate).validate()
    seeds = _seeds(args.seed, ranges=True)
    manifest = Manifest.load(args.manifest)
    layout = manifest.layout_for(args.subject)
    train_batch, _ = load_split_segments(manifest, args.subject, "train")
    code = 0
    for seed in seeds:
        try:
            print(_train_one(cfg.replace(seed=seed), args.manifest, args.subject, layout,
                             train_batch, args.out))
        except SeizureCnnError as exc:
            failed = _error_exit(exc)  # printed for every failed seed
            code = code or failed
    return code


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
    except OSError as exc:  # a directory in its place, no read permission
        raise DataError(f"cannot read {run_dir / PARAMS_FILE}: {exc}") from exc
    except (zipfile.BadZipFile, ValueError, KeyError) as exc:
        raise DataError(f"{run_dir}/{PARAMS_FILE} is corrupt: {exc}") from exc
    return run, manifest, layout, network


def cmd_evaluate(args) -> int:
    run_dir = Path(args.run)
    run, manifest, layout, network = _load_trained(run_dir, args.manifest)
    report = evaluate_subject(network, run.topology, manifest, run.subject,
                              split=args.split, layout=layout, seed=run.seed)
    _commit(run_dir, {ROC_FILE: report.roc_to_csv, REPORT_FILE: report.save})
    print(f"{report.subject} {report.topology} seed={run.seed} "
          f"{args.split} AUC={report.auc:.6f}")
    return 0


def cmd_predict(args) -> int:
    run, _, layout, network = _load_trained(Path(args.run), args.manifest)
    _, probability = score_clip(network, run.topology, load_clip(args.clip), layout)
    print(f"{args.clip} probability={probability:.6f}")
    return 0


def cmd_synth(args) -> int:
    seed = _seeds(args.seed)[0]
    try:
        manifest = generate_synthetic(args.out, train_clips=args.clips,
                                      test_clips=args.test_clips, minutes=args.minutes, seed=seed)
    except OSError as exc:  # synth writes in place, not through _commit
        raise SeizureCnnError(f"cannot write {args.out}: {exc}") from exc
    print(Path(args.out) / "manifest.json")
    print(f"{len(manifest.clips)} clips for {len(manifest.subjects())} subject(s)")
    return 0


def cmd_split(args) -> int:
    seed = _seeds(args.seed)[0]
    manifest = Manifest.load(args.manifest)
    train_m, val_m = split_train_validation(manifest, args.fraction, seed)
    out = Path(args.out)
    _commit(out, {"train_manifest.json": train_m.save,
                  "validation_manifest.json": val_m.save})
    print(out / "train_manifest.json")
    print(out / "validation_manifest.json")
    print(f"{len(val_m.clips)} clips moved to validation, "
          f"{len(train_m.select(split='train'))} train clips remain")
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
    files, records = {}, []
    for rec, rel in zip(manifest.clips, clip_names):
        # each writer cooks its own clip, so one cooked clip is held at a time
        files[rel] = lambda path, rec=rec: save_clip(cook(manifest.load_record(rec)), path)
        records.append(dataclasses.replace(rec, path=rel))
    layouts = dict(zip(manifest.layouts, layout_names))
    files.update((rel, manifest.layout_for(s).save) for s, rel in layouts.items())
    files["manifest.json"] = Manifest(records, layouts, base=out).save
    _commit(out, files)
    print(out / "manifest.json")
    print(f"{len(records)} clips preprocessed to {out}")
    return 0


def cmd_report(args) -> int:
    reports: dict[tuple[str, str], list[EvaluationReport]] = {}
    skipped: list[str] = []
    runs: dict[Path, str] = {}  # a run directory once, however it is spelled
    for run in args.runs:
        runs.setdefault(Path(run).resolve(), run)
    for run in runs.values():
        path = Path(run) / REPORT_FILE
        if not path.exists():
            skipped.append(str(run))
            continue
        report = EvaluationReport.load(path)
        reports.setdefault((report.subject, report.topology), []).append(report)
    if not reports:
        raise DataError("no evaluation reports found in the given run directories")
    splits = sorted({r.split for group in reports.values() for r in group})
    if len(splits) > 1:
        raise DataError(f"reports were evaluated on different splits {splits}; "
                        f"report pools one split at a time")

    groups = {key: aggregate_runs(group) for key, group in sorted(reports.items())}
    aggregates = {"groups": [dataclasses.asdict(g) for g in groups.values()],
                  "skipped": sorted(skipped), "split": splits[0]}

    def write_table(path):
        """Mean-AUC grid, subjects down, topologies across."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["subject", *TOPOLOGIES])
            for subject in sorted({s for s, _ in reports}):
                writer.writerow([subject] + [f"{groups[subject, t].mean:.6f}"
                                             if (subject, t) in groups else ""
                                             for t in TOPOLOGIES])

    _commit(Path(args.out), {"auc_table.csv": write_table,
                             "aggregates.json": lambda path: save_json(path, aggregates)})

    for g in groups.values():
        print(f"{g.subject} {g.topology}: n={len(g.aucs)} mean={g.mean:.4f} "
              f"min={g.min:.4f} q1={g.q1:.4f} median={g.median:.4f} "
              f"q3={g.q3:.4f} max={g.max:.4f}")
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
    p.add_argument("--clips", type=int, default=80, help="train clips per class")
    p.add_argument("--test-clips", type=int, default=20, help="test clips per class")
    p.add_argument("--minutes", type=int, default=1)
    p.add_argument("--seed", default="0")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="cache 200 Hz, normalized clips")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("split", help="carve out a validation set")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fraction", type=float, default=0.2)
    p.add_argument("--seed", default="0")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train one subject/topology over seeds")
    p.add_argument("--manifest", required=True)
    p.add_argument("--subject", required=True)
    p.add_argument("--topology", choices=TOPOLOGIES, default=TrainConfig.topology)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs,
                   help="passes over the training segments")
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--seed", default="0", help="one seed S, or an inclusive range A..B "
                   "with one run per seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a trained run on a labeled split")
    p.add_argument("--run", required=True, help="run directory from train")
    p.add_argument("--manifest", help="defaults to the manifest recorded in run.json")
    p.add_argument("--split", choices=SPLITS, default="test")
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
    with warnings.catch_warnings():
        # a library warning reads like the tool's other messages
        warnings.showwarning = lambda message, *_: print(f"warning: {message}",
                                                         file=sys.stderr)
        try:
            with one_blas_thread():
                return args.func(args)
        except SeizureCnnError as exc:
            return _error_exit(exc)


if __name__ == "__main__":
    sys.exit(main())
