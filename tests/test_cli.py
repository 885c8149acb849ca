"""End-to-end command tests driving cli.main with in-process argv."""

import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from seizurecnn import cli, training
from seizurecnn.data import Manifest, load_clip, save_clip
from seizurecnn.errors import TrainingDivergedError
from seizurecnn.evaluation import EvaluationReport
from seizurecnn.tensor import load_arrays, save_arrays
from seizurecnn.topologies import ElectrodeLayout


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

    def test_unknown_subject(self, dataset_dir, tmp_path):
        code = cli.main(["train", "--manifest", str(dataset_dir / "manifest.json"),
                         "--subject", "synth99", "--epochs", "1",
                         "--out", str(tmp_path)])
        assert code == 3

    def test_seed_range_trains_each(self, dataset_dir, tmp_path, capsys):
        code = cli.main(["train", "--manifest", str(dataset_dir / "manifest.json"),
                         "--subject", "synth01", "--epochs", "1",
                         "--seeds", "1..2", "--out", str(tmp_path)])
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
                         "--seeds", "0..2", "--out", str(tmp_path)])
        assert code == 1
        finished = ["synth01_nv1x16_s0000", "synth01_nv1x16_s0002"]
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [str(tmp_path / name) for name in finished]
        assert captured.err.splitlines() == ["error: non-finite loss nan at epoch 1, batch 1"]
        assert sorted(p.name for p in tmp_path.iterdir()) == finished
        for name in finished:
            assert (tmp_path / name / "run.json").exists()

    @pytest.mark.parametrize("seeds", ["3", "5..2", "a..b", ".."])
    def test_bad_seed_ranges(self, dataset_dir, tmp_path, seeds):
        code = cli.main(["train", "--manifest", str(dataset_dir / "manifest.json"),
                         "--subject", "synth01", "--epochs", "1",
                         "--seeds", seeds, "--out", str(tmp_path)])
        assert code == 2

    def test_config_file_with_unknown_key(self, dataset_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, "weight_decay": 0.1}))
        code = cli.main(["train", "--config", str(cfg),
                         "--manifest", str(dataset_dir / "manifest.json"),
                         "--subject", "synth01", "--out", str(tmp_path)])
        assert code == 2

    def test_flag_overrides_config_file(self, dataset_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 500, "batch_size": 8}))
        code = cli.main(["train", "--config", str(cfg),
                         "--manifest", str(dataset_dir / "manifest.json"),
                         "--subject", "synth01", "--epochs", "1",
                         "--out", str(tmp_path)])
        assert code == 0
        run = json.loads((tmp_path / "synth01_nv1x16_s0000" / "run.json").read_text())
        assert run["config"]["epochs"] == 1
        assert run["config"]["batch_size"] == 8

    def test_config_seed_used_without_flag(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "epochs": 1}))
        args = ["train", "--config", str(cfg), "--manifest", str(dataset_dir / "manifest.json"),
                "--subject", "synth01", "--out", str(tmp_path / "runs")]
        assert cli.main(args) == 0
        assert cli.main(args + ["--seed", "2"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            str(tmp_path / "runs" / "synth01_nv1x16_s0005"),
            str(tmp_path / "runs" / "synth01_nv1x16_s0002")]
        run = json.loads((tmp_path / "runs" / "synth01_nv1x16_s0005" / "run.json").read_text())
        assert run["seed"] == 5

    def trained_and_evaluated(self, dataset_dir, out):
        assert cli.main(["train", "--manifest", str(dataset_dir / "manifest.json"),
                         "--subject", "synth01", "--epochs", "1", "--seed", "0",
                         "--out", str(out)]) == 0
        run = out / "synth01_nv1x16_s0000"
        assert cli.main(["evaluate", "--run", str(run)]) == 0
        return run

    def retrain_args(self, dataset_dir, tmp_path):
        """A retrain of seed 0 with another config, so its parameters differ."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"batch_size": 8}))
        return ["train", "--config", str(cfg), "--manifest", str(dataset_dir / "manifest.json"),
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

    def test_failed_retrain_keeps_earlier_run(self, dataset_dir, tmp_path, monkeypatch):
        run = self.trained_and_evaluated(dataset_dir, tmp_path / "runs")
        before = {p.name: p.read_bytes() for p in run.iterdir()}

        def full_disk(self, path):
            raise OSError("no space left on device")

        monkeypatch.setattr(training.RunHistory, "to_csv", full_disk)
        with pytest.raises(OSError, match="no space left"):
            cli.main(self.retrain_args(dataset_dir, tmp_path))
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before
        assert [p.name for p in (tmp_path / "runs").iterdir()] == [run.name]

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

    def test_invalid_worker_env(self, dataset_dir, tmp_path, monkeypatch):
        for bad in ("zero?", "0"):
            monkeypatch.setenv(cli.WORKERS_ENV, bad)
            code = cli.main(["train", "--manifest", str(dataset_dir / "manifest.json"),
                             "--subject", "synth01", "--epochs", "1",
                             "--out", str(tmp_path)])
            assert code == 2

    def test_parallel_seed_runs(self, dataset_dir, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.WORKERS_ENV, "2")
        code = cli.main(["train", "--manifest", str(dataset_dir / "manifest.json"),
                         "--subject", "synth01", "--epochs", "1",
                         "--seeds", "7..8", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "synth01_nv1x16_s0007" / "parameters.npz").exists()
        assert (tmp_path / "synth01_nv1x16_s0008" / "parameters.npz").exists()

    def test_parallel_matches_serial(self, dataset_dir, tmp_path, monkeypatch):
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        args = ["train", "--manifest", str(dataset_dir / "manifest.json"),
                "--subject", "synth01", "--epochs", "1", "--seeds", "4..5"]
        monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
        assert cli.main(args + ["--out", str(serial)]) == 0
        monkeypatch.setenv(cli.WORKERS_ENV, "2")
        assert cli.main(args + ["--out", str(parallel)]) == 0
        for seed in (4, 5):
            name = f"synth01_nv1x16_s{seed:04d}/parameters.npz"
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()


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

    def test_missing_parameters_file(self, run_dir, tmp_path):
        clone = tmp_path / "clone"
        clone.mkdir()
        (clone / "run.json").write_bytes((run_dir / "run.json").read_bytes())
        assert cli.main(["evaluate", "--run", str(clone)]) == 3

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

    def test_missing_run_dir(self, tmp_path):
        assert cli.main(["evaluate", "--run", str(tmp_path / "nope")]) == 3

    def test_report_written_last(self, run_dir, tmp_path, monkeypatch):
        clone = tmp_path / "clone"
        clone.mkdir()
        for name in ("run.json", "parameters.npz"):
            (clone / name).write_bytes((run_dir / name).read_bytes())
        assert cli.main(["evaluate", "--run", str(clone)]) == 0

        def crash(self, path):
            raise OSError("disk full")

        monkeypatch.setattr(EvaluationReport, "roc_to_csv", crash)
        with pytest.raises(OSError, match="disk full"):
            cli.main(["evaluate", "--run", str(clone)])
        # neither the earlier report nor a new one may vouch for roc.csv
        assert not (clone / "report.json").exists()


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
        # both preictal train clips share a group tag, so they move together
        moved = val_m.select(split="validation")
        assert len([r for r in moved if r.label == "interictal"]) == 1
        assert len([r for r in moved if r.label == "preictal"]) == 2
        assert len(train_m.select(split="train")) == 1
        # rebased paths must resolve from the new directory
        clip = val_m.load_record(moved[0])
        assert clip.n_channels == 16
        assert "3 clips moved" in capsys.readouterr().out

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


    def test_failed_rerun_leaves_no_manifest(self, dataset_dir, tmp_path):
        out = tmp_path / "cooked"
        assert cli.main(["preprocess", "--manifest", str(dataset_dir / "manifest.json"),
                         "--out", str(out)]) == 0
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
        assert not (out / "manifest.json").exists()


def _tree(root):
    """Every file under ``root`` with its bytes, and every directory."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


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

    def test_train(self, poisoned_dir, tmp_path):
        code = cli.main(["train", "--manifest", str(poisoned_dir / "manifest.json"),
                         "--subject", "synth01", "--epochs", "1", "--out", str(tmp_path)])
        assert code == 3
        assert list(tmp_path.iterdir()) == []

    def test_preprocess(self, poisoned_dir, tmp_path):
        code = cli.main(["preprocess", "--manifest", str(poisoned_dir / "manifest.json"),
                         "--out", str(tmp_path)])
        assert code == 3
        assert not (tmp_path / "manifest.json").exists()


class TestReport:
    def fabricate_run(self, root, subject, topology, seed, auc):
        run = root / f"{subject}_{topology}_s{seed:04d}"
        run.mkdir(parents=True)
        report = EvaluationReport(subject, topology, seed, [], auc,
                                  n_preictal=1, n_interictal=1)
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
