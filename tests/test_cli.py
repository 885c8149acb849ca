"""End-to-end command tests driving cli.main with in-process argv."""

import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from seizurecnn import cli, evaluation, training
from seizurecnn.data import (CLIP_MAGIC, CLIP_VERSION, _HEADER, Manifest, load_clip,
                             load_split_segments, save_clip)
from seizurecnn.errors import TrainingDivergedError
from seizurecnn.evaluation import ClipPrediction, EvaluationReport
from seizurecnn.tensor import load_arrays, save_arrays
from seizurecnn.topologies import ElectrodeLayout


@pytest.fixture(autouse=True)
def no_temporary_left(tmp_path_factory):
    """No command, finished or crashed, leaves a staged ``.*.tmp`` behind."""
    yield
    assert list(tmp_path_factory.getbasetemp().rglob(".*.tmp")) == []


def _without(dataset_dir, out, split, label) -> Path:
    """A copy of the dataset's manifest, written to ``out``, that lacks the
    ``split`` clips labeled ``label``."""
    manifest = Manifest.load(dataset_dir / "manifest.json")
    Manifest([r for r in manifest.clips if (r.split, r.label) != (split, label)],
             manifest.layouts, manifest.base).save(out)
    return out


def _write_fails(argv, capsys, cause) -> None:
    """``argv`` exits 1 with one error line: a failed write and its cause."""
    assert cli.main(argv) == 1
    err = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
    assert len(err) == 1 and err[0].startswith("error: cannot write ") and cause in err[0], err


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    assert cli.main(["synth", "--out", str(root), "--clips", "2",
                     "--test-clips", "2", "--seed", "31"]) == 0
    return root


@pytest.fixture(scope="module")
def runs_dir(tmp_path_factory, dataset_dir):
    out = tmp_path_factory.mktemp("cli_runs")
    code = cli.main(["train", "--manifest", str(dataset_dir / "manifest.json"),
                     "--subject", "synth01", "--topology", "nv1x16",
                     "--epochs", "1", "--seed", "0", "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def run_dir(runs_dir):
    return runs_dir / "synth01_nv1x16_s0000"


@pytest.fixture(scope="module")
def poisoned_dir(tmp_path_factory, dataset_dir):
    """The dataset with one NaN sample in its first train and first test clip."""
    root = tmp_path_factory.mktemp("poisoned")
    shutil.copytree(dataset_dir, root, dirs_exist_ok=True)
    manifest = Manifest.load(root / "manifest.json")
    for split in ("train", "test"):
        path = manifest.clip_path(manifest.select(split=split)[0])
        clip = load_clip(path)
        clip.samples[3, 100] = np.nan
        save_clip(clip, path)
    return root


class TestSynth:
    def test_reports_counts(self, dataset_dir, capsys):
        # the fixture already ran the command; run again into a fresh dir
        out = dataset_dir.parent / "resynth"
        assert cli.main(["synth", "--out", str(out), "--clips", "1",
                         "--test-clips", "0", "--seed", "5"]) == 0
        stdout = capsys.readouterr().out
        assert "2 clips for 1 subject(s)" in stdout
        assert Manifest.load(out / "manifest.json").subjects() == ["synth01"]

    def test_out_names_a_file(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("x")
        assert cli.main(["synth", "--out", str(out), "--clips", "1", "--test-clips", "0"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot write {out}: ")
        assert out.read_text() == "x"

    @pytest.mark.parametrize("flag, count, message", [
        ("--test-clips", "-1", "test clips per class cannot be negative, got -1"),
        ("--clips", "0", "need at least one training clip per class, got 0"),
    ])
    def test_bad_clip_count(self, flag, count, message, tmp_path, capsys):
        assert cli.main(["synth", "--out", str(tmp_path / "d"), flag, count]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "0..1"])
    @pytest.mark.parametrize("command", [
        ["synth", "--clips", "1", "--test-clips", "0"],
        ["split", "--manifest", "manifest.json"],  # read after the seed, and missing
    ], ids=["synth", "split"])
    def test_bad_single_seed(self, command, seed, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(command + ["--out", "d", "--seed", seed]) == 2
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --seed ")


class TestTrain:
    def test_run_directory_contents(self, run_dir):
        assert (run_dir / "parameters.npz").exists()
        assert (run_dir / "history.csv").exists()
        run = json.loads((run_dir / "run.json").read_text())
        assert run["subject"] == "synth01"
        assert run["topology"] == "nv1x16"
        assert run["seed"] == 0
        assert run["config"]["epochs"] == 1
        assert "decimation" not in run
        assert run["toolkit_version"]
        assert run["rng_algorithm"].startswith("philox")
        assert run["artifacts"]["parameters"] == "parameters.npz"

    def test_layout_hash_recorded(self, run_dir, dataset_dir):
        run = json.loads((run_dir / "run.json").read_text())
        layout = ElectrodeLayout.load(dataset_dir / "layouts" / "synth01.json")
        assert run["layout_sha256"] == layout.content_hash()

    def test_non_finite_gradient_writes_no_run(self, dataset_dir, tmp_path,
                                                monkeypatch, capsys):
        # one epoch over 16 segments is a single batch, so the poisoned
        # gradient belongs to the last update and no later loss can expose it
        original = training.batch_loss_and_grads

        def poisoned(*args, **kwargs):
            loss, grads = original(*args, **kwargs)
            grads["dense2.bias"] = np.full_like(grads["dense2.bias"], np.nan)
            return loss, grads

        monkeypatch.setattr(training, "batch_loss_and_grads", poisoned)
        code = cli.main(["train", "--manifest", str(dataset_dir / "manifest.json"),
                         "--subject", "synth01", "--epochs", "1", "--seed", "0",
                         "--out", str(tmp_path)])
        assert code == 1
        assert "non-finite gradient for dense2.bias" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_subject(self, dataset_dir, tmp_path, capsys):
        code = cli.main(["train", "--manifest", str(dataset_dir / "manifest.json"),
                         "--subject", "synth99", "--epochs", "1",
                         "--out", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: no train clips for subject 'synth99'; manifest has ['synth01']"]

    def test_one_class_split_fails_once_before_any_work(self, dataset_dir, tmp_path,
                                                        monkeypatch, capsys):
        manifest = _without(dataset_dir, tmp_path / "manifest.json", "train", "preictal")
        read = []
        monkeypatch.setattr(Manifest, "load_record", lambda self, r: read.append(r))
        code = cli.main(["train", "--manifest", str(manifest), "--subject", "synth01",
                         "--epochs", "1", "--seed", "0..1", "--out", str(tmp_path / "runs")])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: no preictal train clips for subject 'synth01'; "
            "a labeled split needs both classes"]
        assert read == []
        assert not (tmp_path / "runs").exists()

    def test_seed_range_trains_each(self, dataset_dir, tmp_path, capsys):
        code = cli.main(["train", "--manifest", str(dataset_dir / "manifest.json"),
                         "--subject", "synth01", "--epochs", "1",
                         "--seed", "1..2", "--out", str(tmp_path)])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 2
        assert (tmp_path / "synth01_nv1x16_s0001" / "run.json").exists()
        assert (tmp_path / "synth01_nv1x16_s0002" / "run.json").exists()

    def test_failed_seed_does_not_hide_the_others(self, dataset_dir, tmp_path,
                                                  monkeypatch, capsys):
        original = cli.fit

        def diverge_on_seed_one(network, train, cfg, *args, **kwargs):
            if cfg.seed == 1:
                raise TrainingDivergedError("non-finite loss nan at epoch 1, batch 1")
            return original(network, train, cfg, *args, **kwargs)

        monkeypatch.setattr(cli, "fit", diverge_on_seed_one)
        code = cli.main(["train", "--manifest", str(dataset_dir / "manifest.json"),
                         "--subject", "synth01", "--epochs", "1",
                         "--seed", "0..2", "--out", str(tmp_path)])
        assert code == 1
        finished = ["synth01_nv1x16_s0000", "synth01_nv1x16_s0002"]
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [str(tmp_path / name) for name in finished]
        assert captured.err.splitlines() == ["error: non-finite loss nan at epoch 1, batch 1"]
        assert sorted(p.name for p in tmp_path.iterdir()) == finished
        for name in finished:
            assert (tmp_path / name / "run.json").exists()

    @pytest.mark.parametrize("seeds", ["3..", "5..2", "a..b", "..", "²..3", "-1", "+3", "1_0",
                                       "٣", ""])
    def test_bad_seed_ranges(self, tmp_path, capsys, seeds):
        # the flag is read before the manifest, which does not exist here
        code = cli.main(["train", "--manifest", str(tmp_path / "manifest.json"),
                         "--subject", "synth01", "--epochs", "1",
                         "--seed", seeds, "--out", str(tmp_path / "runs")])
        assert code == 2
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --seed ")

    @pytest.mark.parametrize("seeds", ["0..18446744073709551616", "0.." + "9" * 5000],
                             ids=["past-2**64", "5000-digits"])
    def test_seed_range_past_the_seed_limit(self, tmp_path, capsys, seeds):
        code = cli.main(["train", "--manifest", str(tmp_path / "manifest.json"),
                         "--subject", "synth01", "--epochs", "1",
                         "--seed", seeds, "--out", str(tmp_path / "runs")])
        assert code == 2
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --seed ")

    def test_seeds_flag_is_gone(self, dataset_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--manifest", str(dataset_dir / "manifest.json"),
                      "--subject", "synth01", "--seeds", "0..1", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_config_flag_is_gone(self, dataset_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--config", str(cfg),
                      "--manifest", str(dataset_dir / "manifest.json"),
                      "--subject", "synth01", "--out", str(tmp_path / "runs")])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == [cfg]

    def test_parser_defaults_are_the_config_defaults(self):
        args = cli.build_parser().parse_args(["train", "--manifest", "m.json",
                                              "--subject", "s", "--out", "o"])
        defaults = training.TrainConfig()
        assert cli._seeds(args.seed, ranges=True) == range(defaults.seed, defaults.seed + 1)
        for field in dataclasses.fields(defaults):
            if field.name != "seed":
                assert getattr(args, field.name) == getattr(defaults, field.name)

    def test_batch_size_and_learning_rate_flags(self, dataset_dir, tmp_path):
        assert cli.main(["train", "--manifest", str(dataset_dir / "manifest.json"),
                         "--subject", "synth01", "--epochs", "1", "--batch-size", "8",
                         "--learning-rate", "0.002", "--out", str(tmp_path)]) == 0
        run = json.loads((tmp_path / "synth01_nv1x16_s0000" / "run.json").read_text())
        assert run["config"] == {"topology": "nv1x16", "seed": 0, "epochs": 1,
                                 "batch_size": 8, "learning_rate": 0.002}

    def test_integer_learning_rate_recorded_as_float(self, dataset_dir, tmp_path):
        assert cli.main(["train", "--manifest", str(dataset_dir / "manifest.json"),
                         "--subject", "synth01", "--epochs", "1", "--learning-rate", "1",
                         "--out", str(tmp_path)]) == 0
        text = (tmp_path / "synth01_nv1x16_s0000" / "run.json").read_text()
        assert '"learning_rate": 1.0' in text

    @pytest.mark.parametrize("flag, value", [
        ("--batch-size", "1"), ("--learning-rate", "0"), ("--learning-rate", "nan"),
        ("--learning-rate", "inf"), ("--learning-rate", "1e400")])
    def test_bad_setting_writes_nothing(self, flag, value, tmp_path, capsys):
        # the settings are checked before the manifest, which does not exist here
        code = cli.main(["train", "--manifest", str(tmp_path / "manifest.json"),
                         "--subject", "synth01", flag, value, "--out", str(tmp_path / "runs")])
        assert code == 2
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("rate, code", [
        ("1e39", 1), ("1e308", 1),  # the first ADAM update overflows float32
        ("1e400", 2), ("Infinity", 2), ("1" + "0" * 400, 2)])
    def test_learning_rate_that_cannot_train(self, rate, code, dataset_dir, tmp_path, capsys):
        assert cli.main(["train", "--learning-rate", rate, "--epochs", "1",
                         "--manifest", str(dataset_dir / "manifest.json"),
                         "--subject", "synth01", "--out", str(tmp_path / "runs")]) == code
        err = capsys.readouterr().err.splitlines()
        assert len([line for line in err if line.startswith("error: ")]) == 1, err
        assert not (tmp_path / "runs").exists()

    def test_run_json_records_the_five_settings(self, run_dir):
        run = json.loads((run_dir / "run.json").read_text())
        assert set(run["config"]) == {"topology", "seed", "epochs", "batch_size",
                                      "learning_rate"}

    @pytest.mark.parametrize("key", ["beta1", "beta2", "adam_epsilon", "l1", "l2",
                                     "class_weighting"])
    def test_config_file_with_fixed_setting(self, key, dataset_dir, tmp_path):
        # the ADAM, penalty and class-weighting values are constants: neither a
        # config file nor a flag sets them
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 0.9}))
        for setting in (["--config", str(cfg)], [f"--{key.replace('_', '-')}", "0.9"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(["train", *setting, "--manifest", str(dataset_dir / "manifest.json"),
                          "--subject", "synth01", "--out", str(tmp_path / "runs")])
            assert exc.value.code == 2
        assert not (tmp_path / "runs").exists()

    def trained_and_evaluated(self, dataset_dir, out):
        assert cli.main(["train", "--manifest", str(dataset_dir / "manifest.json"),
                         "--subject", "synth01", "--epochs", "1", "--seed", "0",
                         "--out", str(out)]) == 0
        run = out / "synth01_nv1x16_s0000"
        assert cli.main(["evaluate", "--run", str(run)]) == 0
        return run

    def retrain_args(self, dataset_dir, tmp_path):
        """A retrain of seed 0 with another batch size, so its parameters differ."""
        return ["train", "--batch-size", "8", "--manifest", str(dataset_dir / "manifest.json"),
                "--subject", "synth01", "--epochs", "1", "--seed", "0",
                "--out", str(tmp_path / "runs")]

    def test_retrain_replaces_run_directory(self, dataset_dir, tmp_path):
        run = self.trained_and_evaluated(dataset_dir, tmp_path / "runs")
        old_params = (run / "parameters.npz").read_bytes()
        assert cli.main(self.retrain_args(dataset_dir, tmp_path)) == 0
        assert sorted(p.name for p in run.iterdir()) == [
            "history.csv", "parameters.npz", "run.json"]
        assert (run / "parameters.npz").read_bytes() != old_params
        assert [p.name for p in (tmp_path / "runs").iterdir()] == [run.name]

    def test_failed_retrain_keeps_earlier_run(self, dataset_dir, tmp_path, monkeypatch,
                                              capsys):
        run = self.trained_and_evaluated(dataset_dir, tmp_path / "runs")
        before = {p.name: p.read_bytes() for p in run.iterdir()}

        def full_disk(self, path):
            raise OSError("no space left on device")

        monkeypatch.setattr(training.RunHistory, "to_csv", full_disk)
        _write_fails(self.retrain_args(dataset_dir, tmp_path), capsys, "no space left")
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before
        assert [p.name for p in (tmp_path / "runs").iterdir()] == [run.name]

    def test_failed_first_train_leaves_no_directory(self, dataset_dir, tmp_path,
                                                    monkeypatch, capsys):
        def full_disk(self, path):
            raise OSError("no space left on device")

        monkeypatch.setattr(training.RunHistory, "to_csv", full_disk)
        _write_fails(["train", "--manifest", str(dataset_dir / "manifest.json"),
                      "--subject", "synth01", "--epochs", "1", "--seed", "0",
                      "--out", str(tmp_path / "runs")], capsys, "no space left")
        assert list(tmp_path.iterdir()) == []

    def test_out_that_is_a_file_fails_each_seed(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "runs"
        out.write_text("not a directory")
        assert cli.main(["train", "--manifest", str(dataset_dir / "manifest.json"),
                         "--subject", "synth01", "--epochs", "1", "--seed", "0..1",
                         "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err and captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 2 and all(line.startswith("error: cannot write ") for line in err)
        assert "_s0000" in err[0] and "_s0001" in err[1]
        assert out.read_text() == "not a directory"

    def test_relative_manifest_recorded_absolute(self, dataset_dir, tmp_path, monkeypatch):
        monkeypatch.chdir(dataset_dir.parent)
        assert cli.main(["train", "--manifest", f"{dataset_dir.name}/manifest.json",
                         "--subject", "synth01", "--epochs", "1",
                         "--out", str(tmp_path / "runs")]) == 0
        run = tmp_path / "runs" / "synth01_nv1x16_s0000"
        recorded = Path(json.loads((run / "run.json").read_text())["data_manifest"])
        assert recorded.is_absolute() and recorded.samefile(dataset_dir / "manifest.json")
        monkeypatch.chdir(tmp_path)
        assert cli.main(["evaluate", "--run", str(run)]) == 0

    @pytest.mark.parametrize("mutate", [
        lambda doc: doc.update(clips=5),
        lambda doc: doc["clips"][0].update(path=5),
        lambda doc: doc["clips"][0].update(subject=["synth01"]),
        lambda doc: doc["layouts"].update(synth01=7),
    ], ids=["clips", "path", "subject", "layout"])
    def test_malformed_manifest(self, dataset_dir, tmp_path, capsys, mutate):
        doc = json.loads((dataset_dir / "manifest.json").read_text())
        mutate(doc)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["train", "--manifest", str(path), "--subject", "synth01",
                         "--epochs", "1", "--out", str(tmp_path / "runs")])
        assert code == 3
        assert str(path) in capsys.readouterr().err

    def test_seed_range_preprocesses_once(self, dataset_dir, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return load_split_segments(*args, **kwargs)

        monkeypatch.setattr(cli, "load_split_segments", counted)
        assert cli.main(["train", "--manifest", str(dataset_dir / "manifest.json"),
                         "--subject", "synth01", "--epochs", "1",
                         "--seed", "0..2", "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_concurrent_processes_match_one(self, dataset_dir, tmp_path):
        # two train processes may commit into one --out at once
        one, two = tmp_path / "one", tmp_path / "two"
        args = ["train", "--manifest", str(dataset_dir / "manifest.json"),
                "--subject", "synth01", "--epochs", "1"]
        assert cli.main(args + ["--seed", "4..5", "--out", str(one)]) == 0
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        procs = [subprocess.Popen([sys.executable, "-m", "seizurecnn.cli", *args,
                                   "--seed", seed, "--out", str(two)], env=env,
                                  stdout=subprocess.DEVNULL)
                 for seed in ("4", "5")]
        assert [proc.wait() for proc in procs] == [0, 0]
        assert _tree(two) == _tree(one)
        assert len(_tree(one)) == 8  # two run directories of three files


class TestEvaluate:
    def test_writes_report_and_prints_auc(self, run_dir, capsys):
        assert cli.main(["evaluate", "--run", str(run_dir)]) == 0
        stdout = capsys.readouterr().out
        assert "AUC=" in stdout
        assert (run_dir / "report.json").exists()
        assert (run_dir / "roc.csv").exists()
        report = EvaluationReport.load(run_dir / "report.json")
        assert report.subject == "synth01"
        assert report.n_preictal == 2 and report.n_interictal == 2

    def test_repeat_evaluation_is_identical(self, run_dir):
        assert cli.main(["evaluate", "--run", str(run_dir)]) == 0
        first = (run_dir / "report.json").read_bytes()
        assert cli.main(["evaluate", "--run", str(run_dir)]) == 0
        assert (run_dir / "report.json").read_bytes() == first

    def test_explicit_manifest_matches_default(self, run_dir, dataset_dir):
        assert cli.main(["evaluate", "--run", str(run_dir)]) == 0
        default = (run_dir / "report.json").read_bytes()
        assert cli.main(["evaluate", "--run", str(run_dir),
                         "--manifest", str(dataset_dir / "manifest.json")]) == 0
        assert (run_dir / "report.json").read_bytes() == default

    def test_train_split_evaluation(self, run_dir, capsys):
        assert cli.main(["evaluate", "--run", str(run_dir),
                         "--split", "train"]) == 0
        assert "train AUC=" in capsys.readouterr().out

    def test_report_records_split(self, run_dir):
        for split in ("train", "test"):
            assert cli.main(["evaluate", "--run", str(run_dir), "--split", split]) == 0
            assert json.loads((run_dir / "report.json").read_text())["split"] == split

    def test_one_class_split_rejected_before_scoring(self, run_dir, dataset_dir, tmp_path,
                                                     monkeypatch, capsys):
        manifest = _without(dataset_dir, tmp_path / "manifest.json", "test", "interictal")
        scored = []
        monkeypatch.setattr(evaluation, "score_clip", lambda *a: scored.append(a))
        code = cli.main(["evaluate", "--run", str(run_dir), "--manifest", str(manifest)])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: no interictal test clips"), err
        assert scored == []

    def test_layout_change_detected(self, run_dir, dataset_dir):
        layout_path = dataset_dir / "layouts" / "synth01.json"
        original = layout_path.read_bytes()
        chans = range(16)
        ElectrodeLayout([c // 4 for c in chans], [3 - c % 4 for c in chans],
                        [c // 8 for c in chans]).save(layout_path)
        try:
            assert cli.main(["evaluate", "--run", str(run_dir)]) == 3
        finally:
            layout_path.write_bytes(original)
        assert cli.main(["evaluate", "--run", str(run_dir)]) == 0

    @pytest.mark.parametrize("make, message", [
        (None, "has no parameters.npz"),
        (Path.mkdir, "cannot read"),
    ], ids=["absent", "directory"])
    def test_missing_parameters_file(self, make, message, run_dir, tmp_path, capsys):
        clone = tmp_path / "clone"
        clone.mkdir()
        (clone / "run.json").write_bytes((run_dir / "run.json").read_bytes())
        if make is not None:
            make(clone / "parameters.npz")
        assert cli.main(["evaluate", "--run", str(clone)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]

    def test_corrupt_run_manifest(self, run_dir, tmp_path):
        clone = tmp_path / "clone"
        clone.mkdir()
        (clone / "run.json").write_text(json.dumps({"subject": "synth01"}))
        assert cli.main(["evaluate", "--run", str(clone)]) == 3

    def test_non_finite_parameters_rejected(self, run_dir, tmp_path):
        clone = tmp_path / "clone"
        clone.mkdir()
        (clone / "run.json").write_bytes((run_dir / "run.json").read_bytes())
        arrays = load_arrays(run_dir / "parameters.npz")
        arrays["dense2.weights"][0, 0] = np.nan
        save_arrays(clone / "parameters.npz", arrays)
        assert cli.main(["evaluate", "--run", str(clone)]) == 3
        assert not (clone / "report.json").exists()

    def test_legacy_decimation_key(self, run_dir, tmp_path, capsys):
        assert cli.main(["evaluate", "--run", str(run_dir)]) == 0
        expected = (run_dir / "report.json").read_bytes()
        run = json.loads((run_dir / "run.json").read_text())
        for method, code in (("fir", 0), ("naive", 3)):
            clone = tmp_path / method
            clone.mkdir()
            (clone / "parameters.npz").write_bytes((run_dir / "parameters.npz").read_bytes())
            (clone / "run.json").write_text(json.dumps({**run, "decimation": method}))
            assert cli.main(["evaluate", "--run", str(clone)]) == code
        assert (tmp_path / "fir" / "report.json").read_bytes() == expected
        assert not (tmp_path / "naive" / "report.json").exists()
        assert str(tmp_path / "naive" / "run.json") in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_unknown_topology_in_run_manifest(self, command, run_dir, dataset_dir,
                                              tmp_path, capsys):
        clone = tmp_path / "clone"
        clone.mkdir()
        (clone / "parameters.npz").write_bytes((run_dir / "parameters.npz").read_bytes())
        run = json.loads((run_dir / "run.json").read_text())
        (clone / "run.json").write_text(json.dumps({**run, "topology": "nv9"}))
        manifest = Manifest.load(dataset_dir / "manifest.json")
        clip = str(manifest.clip_path(manifest.select(split="test")[0]))
        argv = {"evaluate": [], "predict": [clip]}[command]
        assert cli.main([command, "--run", str(clone), *argv]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "'nv9'" in err[0]
        assert sorted(p.name for p in clone.iterdir()) == ["parameters.npz", "run.json"]

    @pytest.mark.parametrize("mutate", [
        lambda run: run.update(data_manifest=5),
        lambda run: run.update(subject=["x"]),
        lambda run: run.update(seed="abc"),
        lambda run: run.update(config="x"),
        lambda run: run.pop("data_manifest"),
        lambda run: run.update(notes="extra"),
    ], ids=["data_manifest", "subject", "seed", "config", "missing", "extra"])
    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_malformed_run_manifest(self, command, mutate, run_dir, dataset_dir,
                                    tmp_path, capsys):
        clone = tmp_path / "clone"
        clone.mkdir()
        (clone / "parameters.npz").write_bytes((run_dir / "parameters.npz").read_bytes())
        run = json.loads((run_dir / "run.json").read_text())
        mutate(run)
        (clone / "run.json").write_text(json.dumps(run))
        manifest = Manifest.load(dataset_dir / "manifest.json")
        clip = str(manifest.clip_path(manifest.select(split="test")[0]))
        argv = {"evaluate": ["--manifest", str(dataset_dir / "manifest.json")],
                "predict": [clip]}[command]
        capsys.readouterr()
        assert cli.main([command, "--run", str(clone), *argv]) == 3
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(clone / "run.json") in err[0] and captured.out == ""
        assert sorted(p.name for p in clone.iterdir()) == ["parameters.npz", "run.json"]

    def test_missing_run_dir(self, tmp_path):
        assert cli.main(["evaluate", "--run", str(tmp_path / "nope")]) == 3

    def test_report_written_last(self, run_dir, tmp_path, monkeypatch, capsys):
        clone = tmp_path / "clone"
        clone.mkdir()
        for name in ("run.json", "parameters.npz"):
            (clone / name).write_bytes((run_dir / name).read_bytes())
        assert cli.main(["evaluate", "--run", str(clone)]) == 0

        before = _tree(clone)

        def crash(self, path):
            raise OSError("disk full")

        monkeypatch.setattr(EvaluationReport, "save", crash)
        _write_fails(["evaluate", "--run", str(clone), "--split", "train"], capsys, "disk full")
        # the earlier report and the roc.csv it vouches for stay as they were
        assert _tree(clone) == before


class TestPredict:
    def test_prints_probability(self, run_dir, dataset_dir, capsys):
        manifest = Manifest.load(dataset_dir / "manifest.json")
        clip_path = manifest.clip_path(manifest.select(split="test")[0])
        assert cli.main(["predict", "--run", str(run_dir), str(clip_path)]) == 0
        stdout = capsys.readouterr().out
        assert "probability=" in stdout
        value = float(stdout.rsplit("probability=", 1)[1])
        assert 0.0 < value < 1.0

    def test_missing_clip(self, run_dir, tmp_path):
        assert cli.main(["predict", "--run", str(run_dir),
                         str(tmp_path / "ghost.clip")]) == 3

    def test_matches_evaluate_report(self, run_dir, dataset_dir, capsys):
        assert cli.main(["evaluate", "--run", str(run_dir)]) == 0
        report = EvaluationReport.load(run_dir / "report.json")
        capsys.readouterr()
        for p in report.predictions:
            path = dataset_dir / p.clip_id
            assert cli.main(["predict", "--run", str(run_dir), str(path)]) == 0
            assert capsys.readouterr().out == f"{path} probability={p.clip_probability:.6f}\n"


class TestSplit:
    def test_writes_partition(self, dataset_dir, tmp_path, capsys):
        code = cli.main(["split", "--manifest", str(dataset_dir / "manifest.json"),
                         "--out", str(tmp_path), "--fraction", "0.5"])
        assert code == 0
        train_m = Manifest.load(tmp_path / "train_manifest.json")
        val_m = Manifest.load(tmp_path / "validation_manifest.json")
        # both preictal train clips share a group tag, and moving it would
        # leave train without a preictal clip, so it stays
        moved = val_m.select(split="validation")
        assert [r.label for r in moved] == ["interictal"]
        assert len(train_m.select(split="train", label="preictal")) == 2
        assert len(train_m.select(split="train")) == 3
        # rebased paths must resolve from the new directory
        clip = val_m.load_record(moved[0])
        assert clip.n_channels == 16
        captured = capsys.readouterr()
        assert "1 clips moved to validation, 3 train clips remain" in captured.out
        assert captured.err == ("warning: synth01: validation receives no preictal clips "
                                "at fraction 0.5\n")

    def test_failed_rerun_keeps_earlier_output(self, dataset_dir, tmp_path, monkeypatch,
                                               capsys):
        args = ["split", "--manifest", str(dataset_dir / "manifest.json"),
                "--out", str(tmp_path / "split")]
        assert cli.main(args + ["--fraction", "0.5"]) == 0
        before = _tree(tmp_path / "split")
        original = Manifest.save

        def full_disk(self, path):
            if "validation" in Path(path).name:
                raise OSError("disk full")
            original(self, path)

        monkeypatch.setattr(Manifest, "save", full_disk)
        # at fraction 0.2 no clip moves, so a new train manifest would differ
        _write_fails(args + ["--fraction", "0.2"], capsys, "disk full")
        assert _tree(tmp_path / "split") == before

    def test_bad_fraction(self, dataset_dir, tmp_path):
        code = cli.main(["split", "--manifest", str(dataset_dir / "manifest.json"),
                         "--out", str(tmp_path), "--fraction", "1.5"])
        assert code == 2


class TestPreprocess:
    def test_caches_cooked_clips(self, dataset_dir, tmp_path, capsys):
        code = cli.main(["preprocess", "--manifest", str(dataset_dir / "manifest.json"),
                         "--out", str(tmp_path)])
        assert code == 0
        cooked = Manifest.load(tmp_path / "manifest.json")
        assert len(cooked.clips) == 8
        clip = cooked.load_record(cooked.clips[0])
        assert clip.sample_rate_hz == 200.0
        assert clip.n_samples == 12000
        x = clip.samples.astype(np.float64)
        assert np.max(np.abs(x.mean(axis=1))) < 1e-6
        assert cooked.layout_for("synth01") is not None
        assert "8 clips preprocessed" in capsys.readouterr().out

    def test_recooks_cooked_clips(self, dataset_dir, tmp_path):
        once, twice = tmp_path / "once", tmp_path / "twice"
        for source, out in ((dataset_dir, once), (once, twice)):
            assert cli.main(["preprocess", "--manifest", str(source / "manifest.json"),
                             "--out", str(out)]) == 0
        first = Manifest.load(once / "manifest.json")
        second = Manifest.load(twice / "manifest.json")
        assert len(second.clips) == 8
        for a, b in zip(first.clips, second.clips):
            clip = second.load_record(b)
            assert (clip.sample_rate_hz, clip.n_samples) == (200.0, 12000)
            x = clip.samples.astype(np.float64)
            assert np.max(np.abs(x.mean(axis=1))) < 1e-6
            assert np.max(np.abs(x.std(axis=1) - 1.0)) < 1e-5
            assert np.max(np.abs(clip.samples - first.load_record(a).samples)) < 1e-5


    def test_failed_rerun_keeps_earlier_output(self, dataset_dir, tmp_path):
        out = tmp_path / "cooked"
        assert cli.main(["preprocess", "--manifest", str(dataset_dir / "manifest.json"),
                         "--out", str(out)]) == 0
        before = _tree(out)
        source = tmp_path / "source"
        shutil.copytree(dataset_dir, source)
        manifest = Manifest.load(source / "manifest.json")
        assert len(manifest.clips) == 8
        path = manifest.clip_path(manifest.clips[3])
        clip = load_clip(path)
        clip.samples[0, 0] = np.nan
        save_clip(clip, path)
        assert cli.main(["preprocess", "--manifest", str(source / "manifest.json"),
                         "--out", str(out)]) == 3
        # neither a mix of old and new clips nor a manifest vouching for one
        assert _tree(out) == before


def _tree(root):
    """Every file under ``root`` with its bytes, and every directory."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


class TestCommit:
    def test_syncs_files_before_the_moves_and_directories_after(self, tmp_path,
                                                                monkeypatch):
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", Path(dst).name))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        out = tmp_path / "out"
        cli._commit(out, {"a.txt": lambda path: Path(path).write_text("a"),
                          "sub/b.txt": lambda path: Path(path).write_text("b")})
        inode = {p: p.stat().st_ino for p in (out / "a.txt", out / "sub" / "b.txt",
                                              out, out / "sub", tmp_path)}
        # the moved files keep the inodes they were staged and synced under
        assert events == [("fsync", inode[out / "a.txt"]),
                          ("fsync", inode[out / "sub" / "b.txt"]),
                          ("replace", "a.txt"), ("replace", "b.txt"),
                          ("fsync", inode[out]), ("fsync", inode[out / "sub"]),
                          ("fsync", inode[tmp_path])]


class TestPreprocessNameCollisions:
    """Two different source files that would get one cooked name exit 3
    before anything in the output directory changes."""

    #: channel c at the grid cell of channel 15 - c, unlike the default layout
    REVERSED = ElectrodeLayout([(15 - c) // 4 for c in range(16)],
                               [(15 - c) % 4 for c in range(16)])

    @pytest.fixture
    def source(self, dataset_dir, tmp_path):
        root = tmp_path / "source"
        shutil.copytree(dataset_dir, root)
        return root

    @pytest.fixture
    def earlier(self, dataset_dir, tmp_path):
        out = tmp_path / "cooked"
        assert cli.main(["preprocess", "--manifest", str(dataset_dir / "manifest.json"),
                         "--out", str(out)]) == 0
        return out

    @staticmethod
    def rewrite(source, edit):
        doc = json.loads((source / "manifest.json").read_text())
        edit(doc)
        (source / "manifest.json").write_text(json.dumps(doc))

    def preprocess(self, source, out):
        return cli.main(["preprocess", "--manifest", str(source / "manifest.json"),
                         "--out", str(out)])

    def test_clip_file_names(self, source, earlier, capsys):
        def edit(doc):
            for folder, row in zip(("a", "b"), doc["clips"]):
                (source / folder).mkdir()
                os.replace(source / row["path"], source / folder / "x.clip")
                row["path"] = f"{folder}/x.clip"
        self.rewrite(source, edit)
        before = _tree(earlier)
        assert self.preprocess(source, earlier) == 3
        err = capsys.readouterr().err
        assert "a/x.clip" in err and "b/x.clip" in err and "clips/x.clip" in err
        assert _tree(earlier) == before

    def test_layout_file_names(self, source, earlier, capsys):
        for folder, layout in (("a", ElectrodeLayout.default()), ("b", self.REVERSED)):
            (source / folder).mkdir()
            layout.save(source / folder / "layout.json")
        self.rewrite(source, lambda doc: doc.update(
            layouts={"synth01": "a/layout.json", "synth02": "b/layout.json"}))
        before = _tree(earlier)
        assert self.preprocess(source, earlier) == 3
        err = capsys.readouterr().err
        assert "a/layout.json" in err and "b/layout.json" in err
        assert _tree(earlier) == before

    def test_shared_layout_file(self, source, tmp_path):
        (source / "shared").mkdir()
        self.REVERSED.save(source / "shared" / "layout.json")
        self.rewrite(source, lambda doc: doc.update(
            layouts={"synth01": "shared/layout.json", "synth02": "./shared/layout.json"}))
        out = tmp_path / "out"
        assert self.preprocess(source, out) == 0
        cooked = Manifest.load(out / "manifest.json")
        assert cooked.layouts == {"synth01": "layouts/layout.json",
                                  "synth02": "layouts/layout.json"}
        assert cooked.layout_for("synth02").to_mapping() == self.REVERSED.to_mapping()


class TestNonFiniteSamples:
    """A NaN sample is a data error (exit 3) for every command that reads it."""

    def test_evaluate(self, run_dir, poisoned_dir, tmp_path, capsys):
        clone = tmp_path / "clone"
        clone.mkdir()
        for name in ("run.json", "parameters.npz"):
            (clone / name).write_bytes((run_dir / name).read_bytes())
        assert cli.main(["evaluate", "--run", str(clone),
                         "--manifest", str(poisoned_dir / "manifest.json")]) == 3
        assert "NaN or infinite sample" in capsys.readouterr().err
        assert not (clone / "report.json").exists()

    def test_predict(self, run_dir, poisoned_dir, capsys):
        manifest = Manifest.load(poisoned_dir / "manifest.json")
        path = manifest.clip_path(manifest.select(split="test")[0])
        assert cli.main(["predict", "--run", str(run_dir), str(path)]) == 3
        assert capsys.readouterr().out == ""

    def test_train(self, poisoned_dir, tmp_path, capsys):
        # the data error stops a seed range once, before its first seed
        code = cli.main(["train", "--manifest", str(poisoned_dir / "manifest.json"),
                         "--subject", "synth01", "--epochs", "1", "--seed", "0..2",
                         "--out", str(tmp_path)])
        assert code == 3
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "NaN or infinite sample" in err[0]

    def test_train_over_every_seed(self, poisoned_dir, tmp_path, capsys):
        # all 2**64 seeds: the range is walked, never built, so the data error comes first
        code = cli.main(["train", "--manifest", str(poisoned_dir / "manifest.json"),
                         "--subject", "synth01", "--epochs", "1",
                         "--seed", "0..18446744073709551615", "--out", str(tmp_path)])
        assert code == 3
        assert list(tmp_path.iterdir()) == []
        assert "NaN or infinite sample" in capsys.readouterr().err

    def test_preprocess(self, poisoned_dir, tmp_path):
        code = cli.main(["preprocess", "--manifest", str(poisoned_dir / "manifest.json"),
                         "--out", str(tmp_path)])
        assert code == 3
        assert not (tmp_path / "manifest.json").exists()


class TestEmptyClip:
    """A clip whose header claims no samples is a data error (exit 3) for
    every command that reads it, not a crash inside preprocessing."""

    @pytest.fixture(scope="class")
    def empty_dir(self, tmp_path_factory, dataset_dir):
        root = tmp_path_factory.mktemp("empty")
        shutil.copytree(dataset_dir, root, dirs_exist_ok=True)
        manifest = Manifest.load(root / "manifest.json")
        for split in ("train", "test"):
            record = manifest.select(split=split, label="interictal")[0]
            manifest.clip_path(record).write_bytes(
                _HEADER.pack(CLIP_MAGIC, CLIP_VERSION, 16, 0, 400.0, 0, 0))
        return root

    @pytest.mark.parametrize("command", ["preprocess", "train", "evaluate", "predict"])
    def test_exits_3(self, command, empty_dir, run_dir, tmp_path, capsys):
        manifest = str(empty_dir / "manifest.json")
        clone = tmp_path / "clone"
        clone.mkdir()
        for name in ("run.json", "parameters.npz"):
            (clone / name).write_bytes((run_dir / name).read_bytes())
        test_clip = Manifest.load(manifest).select(split="test", label="interictal")[0]
        argv = {"preprocess": ["--manifest", manifest, "--out", str(tmp_path / "out")],
                "train": ["--manifest", manifest, "--subject", "synth01", "--epochs", "1",
                          "--out", str(tmp_path / "out")],
                "evaluate": ["--run", str(clone), "--manifest", manifest],
                "predict": ["--run", str(clone), str(empty_dir / test_clip.path)]}[command]
        assert cli.main([command, *argv]) == 3
        assert "empty clip" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert sorted(p.name for p in clone.iterdir()) == ["parameters.npz", "run.json"]


class TestNonIntegerLayout:
    """A layout position that is not a JSON integer is a layout error (exit
    3) before anything is written, not truncated into another layout."""

    @pytest.mark.parametrize("value", [1.5, "2", True], ids=["float", "string", "bool"])
    @pytest.mark.parametrize("key", ["strip", "contact", "hemisphere"])
    @pytest.mark.parametrize("command", ["train", "preprocess"])
    def test_exits_3(self, command, key, value, dataset_dir, tmp_path, capsys):
        root = tmp_path / "data"
        shutil.copytree(dataset_dir, root)
        layout_path = root / "layouts" / "synth01.json"
        doc = json.loads(layout_path.read_text())
        doc["5"][key] = value
        layout_path.write_text(json.dumps(doc))
        argv = {"train": ["--subject", "synth01", "--topology", "nv2x2x4", "--epochs", "1"],
                "preprocess": []}[command]
        out = tmp_path / "out"
        assert cli.main([command, "--manifest", str(root / "manifest.json"), *argv,
                         "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: channel 5: {key} must be an integer, got {value!r}\n")
        assert not out.exists()


class TestReport:
    def fabricate_run(self, root, subject, topology, seed, auc, split="test"):
        run = root / f"{subject}_{topology}_s{seed:04d}"
        run.mkdir(parents=True)
        report = EvaluationReport(subject, topology, seed, [], auc,
                                  n_preictal=1, n_interictal=1, split=split)
        report.save(run / "report.json")
        return run

    def test_grid_and_box_stats(self, tmp_path, capsys):
        runs = []
        for seed, auc in enumerate([0.8, 0.9, 1.0]):
            runs.append(self.fabricate_run(tmp_path, "s1", "nv1x16", seed, auc))
        runs.append(self.fabricate_run(tmp_path, "s1", "nv4x4", 0, 0.7))
        empty = tmp_path / "empty_run"
        empty.mkdir()
        runs.append(empty)
        out = tmp_path / "summary"
        code = cli.main(["report"] + [str(r) for r in runs] + ["--out", str(out)])
        assert code == 0

        table = (out / "auc_table.csv").read_text().splitlines()
        assert table[0] == "subject,nv1x16,nv4x4,nv2x2x4"
        assert table[1] == "s1,0.900000,0.700000,"

        agg = json.loads((out / "aggregates.json").read_text())
        assert agg["skipped"] == [str(empty)]
        groups = {(g["subject"], g["topology"]): g for g in agg["groups"]}
        box = groups[("s1", "nv1x16")]
        assert box["min"] == 0.8 and box["max"] == 1.0 and box["median"] == 0.9
        assert set(box) >= {"mean", "min", "q1", "median", "q3", "max", "aucs"}

        stdout = capsys.readouterr().out
        assert "s1 nv1x16: n=3" in stdout
        assert "skipped" in stdout

    def test_subject_with_comma(self, tmp_path):
        runs = [self.fabricate_run(tmp_path, "dog,1", "nv4x4", 0, 0.7),
                self.fabricate_run(tmp_path, "s1", "nv1x16", 0, 0.8)]
        out = tmp_path / "summary"
        assert cli.main(["report", *map(str, runs), "--out", str(out)]) == 0
        with open(out / "auc_table.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["subject", "nv1x16", "nv4x4", "nv2x2x4"],
                        ["dog,1", "", "0.700000", ""],
                        ["s1", "0.800000", "", ""]]

    @pytest.mark.parametrize("auc", ["high", None, True, 1.5, -0.1])
    def test_auc_not_a_probability(self, auc, tmp_path, capsys):
        good = self.fabricate_run(tmp_path, "s1", "nv1x16", 0, 0.8)
        out = tmp_path / "summary"
        assert cli.main(["report", str(good), "--out", str(out)]) == 0
        before = _tree(out)
        bad = self.fabricate_run(tmp_path, "s1", "nv1x16", 1, auc)
        capsys.readouterr()
        assert cli.main(["report", str(good), str(bad), "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "auc" in err[0]
        assert _tree(out) == before

    @pytest.mark.parametrize("field,value", [("subject", ["x"]), ("subject", 7),
                                             ("topology", "nv9"), ("topology", ["nv1x16"]),
                                             ("split", "holdout"), ("seed", "abc"),
                                             ("n_preictal", "x"), ("notes", "extra")])
    def test_bad_subject_or_topology(self, field, value, tmp_path, capsys):
        good = self.fabricate_run(tmp_path, "s1", "nv1x16", 0, 0.8)
        out = tmp_path / "summary"
        assert cli.main(["report", str(good), "--out", str(out)]) == 0
        before = _tree(out)
        bad = self.fabricate_run(tmp_path, "s1", "nv1x16", 1, 0.7)
        doc = json.loads((bad / "report.json").read_text())
        doc[field] = value
        (bad / "report.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["report", str(good), str(bad), "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and field in err[0]
        assert _tree(out) == before

    @pytest.mark.parametrize("mutate", [
        lambda doc: doc["clips"][0].update(clip_id=5),
        lambda doc: doc["clips"][0].update(extra=1),
        lambda doc: doc["clips"][0].pop("label"),
        lambda doc: doc["roc"]["thresholds"].append("abc"),
        lambda doc: doc.update(roc=[]),
        lambda doc: doc["roc"].update(fpr=0.5),
    ], ids=["clip_id", "clip_extra", "clip_missing", "threshold", "roc_list", "roc_fpr"])
    def test_malformed_clip_row_or_roc(self, mutate, tmp_path, capsys):
        good = self.fabricate_run(tmp_path, "s1", "nv1x16", 0, 0.8)
        out = tmp_path / "summary"
        assert cli.main(["report", str(good), "--out", str(out)]) == 0
        before = _tree(out)
        bad = tmp_path / "bad"
        bad.mkdir()
        report = EvaluationReport("s1", "nv1x16", 1, [ClipPrediction("c0", 1, [0.7], 0.7),
                                                       ClipPrediction("c1", 0, [0.2], 0.2)],
                                  1.0, 1, 1, [0.0, 0.0, 1.0], [0.0, 1.0, 1.0],
                                  [np.inf, 0.7, 0.2])
        doc = report.to_mapping()
        mutate(doc)
        (bad / "report.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["report", str(good), str(bad), "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(bad / "report.json") in err[0]
        assert _tree(out) == before

    def test_run_counted_once_however_spelled(self, tmp_path, capsys):
        run = self.fabricate_run(tmp_path, "s1", "nv1x16", 0, 0.8)
        spellings = [str(run), f"{run.parent}/./{run.name}", str(run)]
        out = tmp_path / "summary"
        assert cli.main(["report", *spellings, "--out", str(out)]) == 0
        assert "s1 nv1x16: n=1 " in capsys.readouterr().out
        assert json.loads((out / "aggregates.json").read_text())["groups"][0]["aucs"] == [0.8]

    def test_mixed_splits_rejected(self, tmp_path, capsys):
        test_run = self.fabricate_run(tmp_path, "s1", "nv1x16", 0, 1.0)
        out = tmp_path / "summary"
        assert cli.main(["report", str(test_run), "--out", str(out)]) == 0
        before = _tree(out)
        val_run = self.fabricate_run(tmp_path, "s1", "nv1x16", 1, 0.8, split="validation")
        capsys.readouterr()
        assert cli.main(["report", str(test_run), str(val_run), "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "splits" in err[0]
        assert _tree(out) == before

    def test_aggregates_record_split(self, tmp_path):
        run = self.fabricate_run(tmp_path, "s1", "nv1x16", 0, 0.8, split="validation")
        out = tmp_path / "summary"
        assert cli.main(["report", str(run), "--out", str(out)]) == 0
        assert json.loads((out / "aggregates.json").read_text())["split"] == "validation"

    def test_report_without_split_reads_as_test(self, tmp_path):
        old = self.fabricate_run(tmp_path, "s1", "nv1x16", 0, 0.8)
        doc = json.loads((old / "report.json").read_text())
        del doc["split"]
        (old / "report.json").write_text(json.dumps(doc))
        new = self.fabricate_run(tmp_path, "s1", "nv1x16", 1, 0.9)
        out = tmp_path / "summary"
        assert cli.main(["report", str(old), str(new), "--out", str(out)]) == 0
        agg = json.loads((out / "aggregates.json").read_text())
        assert agg["split"] == "test" and agg["groups"][0]["aucs"] == [0.8, 0.9]

    def test_failed_rerun_keeps_earlier_output(self, tmp_path, monkeypatch, capsys):
        runs = [self.fabricate_run(tmp_path, "s1", "nv1x16", 0, 0.8)]
        out = tmp_path / "summary"
        assert cli.main(["report", str(runs[0]), "--out", str(out)]) == 0
        before = _tree(out)
        runs.append(self.fabricate_run(tmp_path, "s1", "nv4x4", 0, 0.7))
        real_open = open

        def full_disk(file, *args, **kwargs):
            if "auc_table.csv" in str(file):
                raise OSError("disk full")
            return real_open(file, *args, **kwargs)

        # Path.write_text opens through io.open, the built-in open is another name
        monkeypatch.setattr("builtins.open", full_disk)
        monkeypatch.setattr("io.open", full_disk)
        _write_fails(["report", *map(str, runs), "--out", str(out)], capsys, "disk full")
        monkeypatch.undo()
        assert _tree(out) == before

    def test_out_under_a_file(self, tmp_path, capsys):
        run = self.fabricate_run(tmp_path, "s1", "nv1x16", 0, 0.8)
        (tmp_path / "file").write_text("")
        assert cli.main(["report", str(run), "--out", str(tmp_path / "file" / "x")]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err and captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write ")

    def test_no_reports_anywhere(self, tmp_path):
        empty = tmp_path / "run"
        empty.mkdir()
        assert cli.main(["report", str(empty), "--out", str(tmp_path)]) == 3


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip()
