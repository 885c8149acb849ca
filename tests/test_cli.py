"""End-to-end command tests driving cli.main with in-process argv."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from seizurecnn import cli, training
from seizurecnn.data import Manifest, load_clip
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
        assert run["decimation"] == "fir"
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

    def test_missing_run_dir(self, tmp_path):
        assert cli.main(["evaluate", "--run", str(tmp_path / "nope")]) == 3


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
