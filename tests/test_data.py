import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve, firwin

from seizurecnn import tensor
from seizurecnn.data import (ANTIALIAS_TAPS, CLIP_MAGIC, CLIP_VERSION, STD_FLOOR, Clip,
                             ClipRecord, Manifest, SegmentBatch, bandpower_score, cook, decimate,
                             generate_synthetic, load_clip, load_split_segments,
                             preprocess_clip, save_clip, segment, split_train_validation,
                             znormalize, _HEADER, _burst_envelope, _colored_noise)
from seizurecnn.errors import ClipFormatError, ConfigError, DataError, ManifestError
from seizurecnn.tensor import seeded_rng


def noise_clip(n_samples=6000, rate=400.0, label="interictal", seed=0, channels=16):
    samples = seeded_rng(seed).split("clip").normal(size=(channels, n_samples))
    return Clip(samples.astype(np.float32), rate, label)


def one_channel_loop(clip):
    """The single-threaded decimation loop that ``decimate`` must equal
    bit for bit: pad, two FFTs, multiply-add, inverse FFT, per channel."""
    half = (len(ANTIALIAS_TAPS) - 1) // 2
    n_out = clip.n_samples // 2
    nfft = 1 << (n_out + half - 1).bit_length()
    even = np.conj(np.fft.rfft(ANTIALIAS_TAPS[0::2], nfft))
    odd = np.conj(np.fft.rfft(ANTIALIAS_TAPS[1::2], nfft))
    out = np.empty((clip.n_channels, n_out), dtype=np.float32)
    for c, row in enumerate(clip.samples):
        padded = np.pad(row.astype(np.float64), half, mode="symmetric")
        spectrum = np.fft.rfft(padded[0::2], nfft) * even + np.fft.rfft(padded[1::2], nfft) * odd
        out[c] = np.fft.irfft(spectrum, nfft)[:n_out]
    return out


class TestClipIO:
    @pytest.mark.parametrize("label", ["interictal", "preictal", "unknown"])
    def test_round_trip(self, tmp_path, label):
        clip = noise_clip(label=label)
        path = tmp_path / "a.clip"
        save_clip(clip, path)
        back = load_clip(path)
        assert np.array_equal(back.samples, clip.samples)
        assert back.sample_rate_hz == clip.sample_rate_hz
        assert back.label == label

    def test_short_file(self, tmp_path):
        path = tmp_path / "a.clip"
        path.write_bytes(b"ICL")
        with pytest.raises(ClipFormatError):
            load_clip(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "a.clip"
        save_clip(noise_clip(), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"PLCI"
        path.write_bytes(bytes(raw))
        with pytest.raises(ClipFormatError, match="bad magic b'PLCI'"):
            load_clip(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "a.clip"
        save_clip(noise_clip(), path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(ClipFormatError, match="unsupported clip version 99"):
            load_clip(path)

    def test_unknown_label_code(self, tmp_path):
        path = tmp_path / "a.clip"
        save_clip(noise_clip(), path)
        raw = bytearray(path.read_bytes())
        raw[16] = 7  # the label byte follows magic, version, shape, and rate
        path.write_bytes(bytes(raw))
        with pytest.raises(ClipFormatError):
            load_clip(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "a.clip"
        save_clip(noise_clip(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ClipFormatError, match="payload holds 383992"):
            load_clip(path)

    def test_oversized_payload(self, tmp_path):
        path = tmp_path / "a.clip"
        save_clip(noise_clip(), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
        with pytest.raises(ClipFormatError, match="payload holds 384004"):
            load_clip(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_clip(tmp_path / "absent.clip")

    def test_payload_shrinks_while_read(self, tmp_path, monkeypatch):
        path = tmp_path / "a.clip"
        save_clip(noise_clip(), path)
        real_fstat = os.fstat

        def fstat_then_truncate(fd):
            stat = real_fstat(fd)
            os.truncate(path, stat.st_size - 8)
            return stat

        monkeypatch.setattr(os, "fstat", fstat_then_truncate)
        with pytest.raises(ClipFormatError, match="payload holds 383992"):
            load_clip(path)

    @pytest.mark.parametrize("channels,samples", [(16, 0), (0, 6000), (0, 0)])
    def test_empty_clip(self, tmp_path, channels, samples):
        path = tmp_path / "a.clip"
        path.write_bytes(_HEADER.pack(CLIP_MAGIC, CLIP_VERSION, channels, samples, 400.0, 0, 0))
        with pytest.raises(ClipFormatError, match="a.clip"):
            load_clip(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample(self, tmp_path, bad):
        clip = noise_clip()
        clip.samples[7, 1234] = bad
        path = tmp_path / "a.clip"
        save_clip(clip, path)
        with pytest.raises(ClipFormatError, match="a.clip"):
            load_clip(path)

    def test_clip_validation(self):
        with pytest.raises(DataError):
            Clip(np.zeros(10), 400.0)
        with pytest.raises(DataError):
            Clip(np.zeros((2, 10)), 400.0, label="ictal")
        for empty in [(16, 0), (0, 6000)]:
            with pytest.raises(DataError, match="no samples"):
                Clip(np.zeros(empty), 400.0)


class TestDecimate:
    def test_halves_length_and_rate(self):
        out = decimate(noise_clip(6000))
        assert out.n_samples == 3000
        assert out.sample_rate_hz == 200.0
        assert out.label == "interictal"

    def test_dc_preserved(self):
        clip = Clip(np.full((16, 4000), 3.25, dtype=np.float32), 400.0)
        out = decimate(clip)
        assert np.max(np.abs(out.samples - 3.25)) / 3.25 < 1e-4

    def test_passband_tone_preserved(self):
        t = np.arange(8000) / 400.0
        tone = np.sin(2 * np.pi * 10.0 * t)[None, :].repeat(16, axis=0)
        out = decimate(Clip(tone.astype(np.float32), 400.0))
        mid = out.samples[:, 400:-400].astype(np.float64)
        ref = tone[:, ::2][:, 400:-400]
        assert np.sqrt(np.mean((mid - ref) ** 2)) < 0.02

    def test_stopband_tone_suppressed(self):
        t = np.arange(8000) / 400.0
        tone = np.sin(2 * np.pi * 150.0 * t)[None, :].repeat(16, axis=0)
        out = decimate(Clip(tone.astype(np.float32), 400.0))
        mid = out.samples[:, 400:-400].astype(np.float64)
        in_rms = np.sqrt(np.mean(tone ** 2))
        assert np.sqrt(np.mean(mid ** 2)) < 0.05 * in_rms

    def test_odd_length_rejected(self):
        with pytest.raises(DataError):
            decimate(noise_clip(5999))

    def test_wrong_rate_rejected(self):
        with pytest.raises(DataError):
            decimate(noise_clip(rate=200.0))

    def test_taps_match_firwin(self):
        assert np.max(np.abs(ANTIALIAS_TAPS - firwin(101, 80.0, fs=400.0))) < 1e-15

    @pytest.mark.parametrize("n_samples", [240000, 6000])
    def test_matches_scipy_filter(self, n_samples):
        # the earlier path: full-rate FFT convolution of the edge-padded
        # clip with scipy's taps, then every second sample
        clip = noise_clip(n_samples)
        padded = np.pad(clip.samples, ((0, 0), (50, 50)), mode="symmetric")
        ref = fftconvolve(padded, firwin(101, 80.0, fs=400.0)[None, :], mode="valid")[:, ::2]
        out = decimate(clip).samples
        assert out.dtype == np.float32
        assert np.max(np.abs(out - ref)) < 5e-7 * np.max(np.abs(ref))

    @pytest.mark.parametrize("channels,n_samples", [(16, 240000), (16, 24000), (3, 6002),
                                                    (1, 6000)])
    def test_matches_one_channel_loop(self, channels, n_samples, pretend_cores,
                                      one_blas_thread):
        clip = noise_clip(n_samples, channels=channels)
        ref = one_channel_loop(clip).tobytes()
        for cores in (1, 2, 3, 64):
            pretend_cores(cores)
            assert decimate(clip).samples.tobytes() == ref, cores

    def test_one_core_writes_same_bytes(self, tmp_path, pretend_cores, one_blas_thread):
        save_clip(noise_clip(240000), tmp_path / "raw.clip")
        code = ("import os, sys; from seizurecnn.data import decimate, load_clip, save_clip; "
                "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
                "assert len(os.sched_getaffinity(0)) == 1; "
                "save_clip(decimate(load_clip(sys.argv[1])), sys.argv[2])")
        subprocess.run([sys.executable, "-c", code, str(tmp_path / "raw.clip"),
                        str(tmp_path / "one_core.clip")], check=True)
        pretend_cores(4)
        save_clip(decimate(load_clip(tmp_path / "raw.clip")), tmp_path / "four_cores.clip")
        assert (tmp_path / "one_core.clip").read_bytes() == \
            (tmp_path / "four_cores.clip").read_bytes()

    def test_repeated_threaded_calls_agree(self, pretend_cores, one_blas_thread):
        clip = noise_clip(6002, channels=16)
        ref = one_channel_loop(clip).tobytes()
        pretend_cores(64)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(30):
                assert decimate(clip).samples.tobytes() == ref
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cores", [1, 64])
    def test_no_thread_outlives_the_call(self, cores, monkeypatch, pretend_cores,
                                         one_blas_thread):
        pretend_cores(cores)
        workers = set()
        real_irfft = np.fft.irfft

        def irfft(*args, **kwargs):
            workers.add(threading.get_ident())
            return real_irfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", irfft)
        before = set(threading.enumerate())
        decimate(noise_clip(6000))
        assert set(threading.enumerate()) == before
        assert threading.get_ident() in workers
        if cores == 1:
            assert len(workers) == 1
        elif tensor.blas_threads() != 1:
            pytest.skip("numpy's OpenBLAS cannot be set to one thread here, so decimate "
                        "runs serially")
        else:
            assert len(workers) > 1


class TestZnormalize:
    def test_unit_statistics(self):
        clip = noise_clip(24000)
        clip.samples[:] = clip.samples * 7.0 + 3.0
        out = znormalize(clip)
        x = out.samples.astype(np.float64)
        assert np.max(np.abs(x.mean(axis=1))) < 1e-6
        assert np.max(np.abs(x.std(axis=1) - 1.0)) < 1e-5

    def test_constant_channel_maps_to_zero(self):
        samples = np.ones((16, 3000), dtype=np.float32) * 5.0
        out = znormalize(Clip(samples, 200.0))
        assert np.array_equal(out.samples, np.zeros((16, 3000), dtype=np.float32))

    def test_idempotent(self):
        once = znormalize(noise_clip(12000))
        twice = znormalize(once)
        assert np.max(np.abs(twice.samples - once.samples)) < 1e-6

    def test_metadata_preserved(self):
        clip = Clip(np.ones((16, 3000)), 200.0, "preictal")
        out = znormalize(clip)
        assert (out.label, out.sample_rate_hz) == ("preictal", 200.0)

    @pytest.mark.parametrize("n_samples", [3000, 6001])
    def test_rows_match_whole_clip_statistics(self, n_samples):
        clip = noise_clip(n_samples)
        clip.samples[:] = clip.samples * 7.0 + 3.0
        clip.samples[5] = 2.5
        x = clip.samples.astype(np.float64)
        whole = (x - x.mean(axis=1, keepdims=True)) / np.maximum(x.std(axis=1, keepdims=True),
                                                                 STD_FLOOR)
        assert np.array_equal(znormalize(clip).samples, whole.astype(np.float32))


class TestSegment:
    def test_minute_of_target_rate(self):
        clip = Clip(np.zeros((16, 120000), dtype=np.float32), 200.0, "preictal")
        batch = segment(clip)
        assert len(batch) == 40
        assert batch.segments.shape == (40, 16, 3000)
        assert np.all(batch.labels == 1)

    def test_values_match_source(self):
        clip = noise_clip(9000, rate=200.0)
        batch = segment(clip)
        for k in range(3):
            assert np.array_equal(batch.segments[k],
                                  clip.samples[:, k * 3000:(k + 1) * 3000])

    def test_remainder_dropped_with_warning(self):
        clip = noise_clip(7500, rate=200.0)
        with pytest.warns(UserWarning, match="trailing"):
            batch = segment(clip)
        assert len(batch) == 2

    def test_too_short(self):
        with pytest.warns(UserWarning):
            with pytest.raises(DataError):
                segment(noise_clip(2999, rate=200.0))

    def test_wrong_channel_count(self):
        with pytest.raises(DataError):
            segment(noise_clip(3000, rate=200.0, channels=15))


class TestSegmentBatch:
    def test_shape_validation(self):
        with pytest.raises(DataError):
            SegmentBatch(np.zeros((2, 15, 3000)), np.zeros(2))
        with pytest.raises(DataError):
            SegmentBatch(np.zeros((2, 16, 3000)), np.zeros(3))


class TestPreprocessClip:
    def test_composition_order(self):
        clip = noise_clip(24000)
        direct = preprocess_clip(clip)
        manual = segment(znormalize(decimate(clip)))
        assert np.array_equal(cook(clip).samples, znormalize(decimate(clip)).samples)
        assert np.array_equal(direct.segments, manual.segments)
        assert np.array_equal(direct.labels, manual.labels)

    def test_target_rate_skips_decimation(self):
        clip = noise_clip(6000, rate=200.0)
        direct = preprocess_clip(clip)
        manual = segment(znormalize(clip))
        assert np.array_equal(cook(clip).samples, znormalize(clip).samples)
        assert np.array_equal(direct.segments, manual.segments)

    def test_unsupported_rate(self):
        with pytest.raises(DataError):
            preprocess_clip(noise_clip(rate=500.0))

    def test_peak_memory_below_twice_input(self):
        clip = noise_clip(240000)
        tracemalloc.start()
        try:
            preprocess_clip(clip)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * clip.samples.nbytes

    def test_peak_memory_below_twice_input_on_many_cores(self, pretend_cores, one_blas_thread):
        # every decimation thread has its own scratch, so the thread cap
        # keeps this bound however many cores the machine has
        pretend_cores(64)
        clip = noise_clip(240000)
        tracemalloc.start()
        try:
            preprocess_clip(clip)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * clip.samples.nbytes


def test_runtime_imports_no_scipy():
    code = ("import sys, seizurecnn, seizurecnn.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def toy_manifest(tmp_path, n_train=4, n_test=2):
    records = []
    for i in range(n_train):
        label = "preictal" if i % 2 else "interictal"
        rel = f"train_{i}.clip"
        save_clip(noise_clip(6000, label=label, seed=10 + i), tmp_path / rel)
        records.append(ClipRecord(rel, "s1", label, "train"))
    for i in range(n_test):
        rel = f"test_{i}.clip"
        save_clip(noise_clip(6000, label="unknown", seed=20 + i), tmp_path / rel)
        records.append(ClipRecord(rel, "s1", "unknown", "test"))
    return Manifest(records, base=tmp_path)


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = toy_manifest(tmp_path)
        path = tmp_path / "manifest.json"
        manifest.save(path)
        back = Manifest.load(path)
        assert back.clips == manifest.clips
        assert back.base == tmp_path

    def test_saved_elsewhere_resolves_same_files(self, tmp_path):
        manifest = generate_synthetic(tmp_path / "data", train_clips=1, test_clips=1, seed=5)
        path = tmp_path / "elsewhere" / "deeper" / "manifest.json"
        path.parent.mkdir(parents=True)
        manifest.save(path)
        back = Manifest.load(path)
        assert [r.path for r in back.clips] == \
            [f"../../data/{r.path}" for r in manifest.clips]
        for ours, theirs in zip(back.clips, manifest.clips):
            assert back.clip_path(ours).resolve() == manifest.clip_path(theirs).resolve()
            assert back.load_record(ours).samples.tobytes() == \
                manifest.load_record(theirs).samples.tobytes()
        assert back.layout_for("synth01").to_mapping() == \
            manifest.layout_for("synth01").to_mapping()

    def test_duplicate_paths(self):
        rec = ClipRecord("a.clip", "s1", "preictal", "train")
        with pytest.raises(ManifestError):
            Manifest([rec, rec])

    def test_bad_label_and_split(self):
        with pytest.raises(ManifestError):
            Manifest([ClipRecord("a.clip", "s1", "ictal", "train")])
        with pytest.raises(ManifestError):
            Manifest([ClipRecord("a.clip", "s1", "preictal", "holdout")])

    def test_train_must_be_labeled(self):
        with pytest.raises(ManifestError):
            Manifest([ClipRecord("a.clip", "s1", "unknown", "train")])

    def test_unknown_row_keys(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"clips": [
            {"path": "a.clip", "subject": "s1", "label": "preictal",
             "split": "train", "channel": 3}]}))
        with pytest.raises(ManifestError):
            Manifest.load(path)

    def test_missing_clips_key(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{}")
        with pytest.raises(ManifestError):
            Manifest.load(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("][")
        with pytest.raises(ManifestError):
            Manifest.load(path)

    @pytest.mark.parametrize("raw", [b"\x80", b"[" * 100_000], ids=["utf8", "nesting"])
    def test_undecodable_file(self, tmp_path, raw):
        path = tmp_path / "manifest.json"
        path.write_bytes(raw)
        with pytest.raises(ManifestError, match="not valid JSON"):
            Manifest.load(path)

    def test_select_filters(self, tmp_path):
        manifest = toy_manifest(tmp_path)
        assert len(manifest.select(split="train")) == 4
        assert len(manifest.select(split="train", label="preictal")) == 2
        assert manifest.select(subject="nobody") == []

    def test_label_mismatch_on_load(self, tmp_path):
        save_clip(noise_clip(6000, label="interictal"), tmp_path / "a.clip")
        manifest = Manifest([ClipRecord("a.clip", "s1", "preictal", "train")],
                            base=tmp_path)
        with pytest.raises(ManifestError):
            manifest.load_record(manifest.clips[0])

    def test_paths_relative_to_manifest_dir(self, tmp_path):
        sub = tmp_path / "data"
        sub.mkdir()
        save_clip(noise_clip(6000), sub / "a.clip")
        Manifest([ClipRecord("a.clip", "s1", "interictal", "train")],
                 base=sub).save(sub / "manifest.json")
        back = Manifest.load(sub / "manifest.json")
        clip = back.load_record(back.clips[0])
        assert clip.n_samples == 6000

    def test_layout_for_absent_subject(self, tmp_path):
        assert toy_manifest(tmp_path).layout_for("s1") is None


# fuzzing: a parser returns a well-formed value or raises its own error,
# never anything else; the temporary file is rewritten for every example
FUZZ = settings(max_examples=300, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=12)

def valid_manifest_doc() -> dict:
    return {"clips": [
        {"path": "a.clip", "subject": "s1", "label": "preictal", "split": "train",
         "group": "g1"},
        {"path": "b.clip", "subject": "s1", "label": "unknown", "split": "test"}],
        "layouts": {"s1": "layouts/s1.json"}}


def field_paths(doc) -> list[tuple]:
    """Every key path into ``doc``: top-level keys, row fields, layout entries."""
    paths = [(key,) for key in doc]
    paths += [("clips", i, key) for i, row in enumerate(doc["clips"]) for key in row]
    paths += [("layouts", subject) for subject in doc["layouts"]]
    return paths


class TestParserFuzz:
    def check_clip(self, path):
        try:
            clip = load_clip(path)
        except DataError:
            return
        assert math.isfinite(clip.sample_rate_hz) and clip.sample_rate_hz > 0
        assert clip.samples.size > 0
        assert np.isfinite(clip.samples).all()

    def check_manifest(self, path):
        try:
            manifest = Manifest.load(path)
        except ManifestError:
            return
        for r in manifest.clips:
            assert all(isinstance(v, str) for v in (r.path, r.subject, r.label, r.split))
            assert r.group is None or isinstance(r.group, str)
        assert all(isinstance(p, str) for p in manifest.layouts.values())

    @FUZZ
    @given(raw=st.binary(max_size=64))
    def test_clip_arbitrary_bytes(self, tmp_path, raw):
        path = tmp_path / "fuzz.clip"
        path.write_bytes(raw)
        self.check_clip(path)

    @FUZZ
    @given(magic=st.sampled_from([CLIP_MAGIC, b"PLCI"]),
           version=st.sampled_from([CLIP_VERSION, 0, 2, 65535]),
           channels=st.integers(0, 65535), samples=st.integers(0, 2 ** 32 - 1),
           rate=st.floats(width=32), label=st.integers(0, 255),
           reserved=st.integers(0, 255), payload=st.sampled_from([0, 4, 16, 64]))
    def test_clip_mutated_header(self, tmp_path, magic, version, channels, samples,
                                 rate, label, reserved, payload):
        body = np.linspace(-1.0, 1.0, payload, dtype="<f4").tobytes()
        path = tmp_path / "fuzz.clip"
        path.write_bytes(_HEADER.pack(magic, version, channels, samples, rate, label,
                                      reserved) + body)
        self.check_clip(path)

    @FUZZ
    @given(raw=st.binary(max_size=64))
    def test_manifest_arbitrary_bytes(self, tmp_path, raw):
        path = tmp_path / "manifest.json"
        path.write_bytes(raw)
        self.check_manifest(path)

    @FUZZ
    @given(value=JSON_VALUES)
    def test_manifest_arbitrary_json(self, tmp_path, value):
        path = tmp_path / "manifest.json"
        for doc in (value, {"clips": value}, {"clips": [value]}):
            path.write_text(json.dumps(doc))
            self.check_manifest(path)

    @FUZZ
    @given(data=st.data())
    def test_manifest_single_field_mutation(self, tmp_path, data):
        doc = valid_manifest_doc()
        *parents, key = data.draw(st.sampled_from(field_paths(doc)))
        target = doc
        for step in parents:
            target = target[step]
        if data.draw(st.booleans()):
            del target[key]
        else:
            target[key] = data.draw(JSON_VALUES)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        self.check_manifest(path)


def counts_manifest(n_interictal, n_preictal, subject="s1", group_size=None):
    records = []
    for i in range(n_interictal):
        records.append(ClipRecord(f"i_{i}.clip", subject, "interictal", "train"))
    for i in range(n_preictal):
        group = f"{subject}-seq{i // group_size:03d}" if group_size else None
        records.append(ClipRecord(f"p_{i}.clip", subject, "preictal", "train", group))
    return Manifest(records)


class TestSplitTrainValidation:
    def test_stratified_counts(self):
        train, val = split_train_validation(counts_manifest(500, 42), fraction=0.2)
        assert len(val.select(label="interictal")) == 100
        assert len(val.select(label="preictal")) == 8
        assert len(train.clips) == 542 - 108

    def test_partition_exact(self):
        manifest = counts_manifest(30, 10)
        train, val = split_train_validation(manifest, fraction=0.2, seed=3)
        train_paths = {r.path for r in train.clips}
        val_paths = {r.path for r in val.clips}
        assert train_paths.isdisjoint(val_paths)
        assert train_paths | val_paths == {r.path for r in manifest.clips}
        assert all(r.split == "validation" for r in val.clips)
        assert all(r.split == "train" for r in train.clips)

    def test_small_stratum_floor(self):
        train, val = split_train_validation(counts_manifest(5, 5), fraction=0.2)
        assert len(val.select(label="interictal")) == 1
        assert len(val.select(label="preictal")) == 1

    def test_groups_move_whole(self):
        manifest = counts_manifest(20, 12, group_size=3)
        _, val = split_train_validation(manifest, fraction=0.25, seed=1)
        moved = {r.group for r in val.select(label="preictal")}
        for group in moved:
            members = [r for r in manifest.clips if r.group == group]
            chosen = [r for r in val.clips if r.group == group]
            assert len(members) == len(chosen)

    def test_zero_target_warns(self):
        with pytest.warns(UserWarning, match="receives no"):
            train, val = split_train_validation(counts_manifest(40, 3), fraction=0.2)
        assert val.select(label="preictal") == []
        assert len(val.select(label="interictal")) == 8

    def test_one_group_per_class_stays_in_train(self):
        manifest = counts_manifest(8, 4, group_size=4)
        with pytest.warns(UserWarning, match="receives no preictal"):
            train, val = split_train_validation(manifest, fraction=0.5)
        assert len(val.select(label="interictal")) == 4
        assert val.select(label="preictal") == []
        assert len(train.select(label="preictal")) == 4

    def test_deterministic(self):
        manifest = counts_manifest(30, 10)
        _, val_a = split_train_validation(manifest, fraction=0.2, seed=5)
        _, val_b = split_train_validation(manifest, fraction=0.2, seed=5)
        assert [r.path for r in val_a.clips] == [r.path for r in val_b.clips]

    def test_fraction_validated(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ConfigError):
                split_train_validation(counts_manifest(10, 10), fraction=bad)

    def test_test_split_untouched(self, tmp_path):
        manifest = toy_manifest(tmp_path)
        train, val = split_train_validation(manifest, fraction=0.5)
        assert len(train.select(split="test")) == 2
        assert len(val.select(split="test")) == 0


class TestSyntheticData:
    def test_counts_and_files(self, tmp_path):
        manifest = generate_synthetic(tmp_path, train_clips=3, test_clips=2)
        assert len(manifest.select(split="train")) == 6
        assert len(manifest.select(split="test")) == 4
        assert (tmp_path / "manifest.json").exists()
        assert manifest.layout_for("synth01") is not None
        for record in manifest.clips:
            assert manifest.clip_path(record).exists()

    def test_deterministic_bytes(self, tmp_path):
        generate_synthetic(tmp_path / "a", train_clips=2, test_clips=1, seed=11)
        generate_synthetic(tmp_path / "b", train_clips=2, test_clips=1, seed=11)
        for rel in sorted(p.relative_to(tmp_path / "a")
                          for p in (tmp_path / "a").rglob("*.clip")):
            assert (tmp_path / "a" / rel).read_bytes() == \
                (tmp_path / "b" / rel).read_bytes()

    def test_seed_changes_data(self, tmp_path):
        ma = generate_synthetic(tmp_path / "a", train_clips=1, test_clips=0, seed=1)
        mb = generate_synthetic(tmp_path / "b", train_clips=1, test_clips=0, seed=2)
        a = ma.load_record(ma.clips[0]).samples
        b = mb.load_record(mb.clips[0]).samples
        assert not np.array_equal(a, b)

    def test_preictal_groups_of_six(self, tmp_path):
        manifest = generate_synthetic(tmp_path, train_clips=8, test_clips=0)
        groups = [r.group for r in manifest.select(label="preictal", split="train")]
        assert groups == ["synth01-train-seq000"] * 6 + ["synth01-train-seq001"] * 2
        assert all(r.group is None for r in manifest.select(label="interictal"))

    def test_invalid_arguments(self, tmp_path):
        with pytest.raises(ConfigError):
            generate_synthetic(tmp_path, minutes=0)
        with pytest.raises(ConfigError):
            generate_synthetic(tmp_path, minutes=1.5)
        with pytest.raises(ConfigError):
            generate_synthetic(tmp_path, train_clips=0)
        with pytest.raises(ValueError, match="seed"):
            generate_synthetic(tmp_path, seed=-1)
        assert list(tmp_path.iterdir()) == []

    def test_bandpower_separates_classes(self, tmp_path):
        manifest = generate_synthetic(tmp_path, train_clips=6, test_clips=0, seed=3)
        scores = {"interictal": [], "preictal": []}
        for record in manifest.select(split="train"):
            scores[record.label].append(bandpower_score(manifest.load_record(record)))
        wins = sum(p > i for p in scores["preictal"] for i in scores["interictal"])
        assert wins / 36 >= 0.9  # planted bursts dominate the 18-24 Hz band


class TestSignalHelpers:
    def test_colored_noise_statistics(self):
        x = _colored_noise(seeded_rng(0).split("n"), 4, 8192)
        assert np.allclose(x.std(axis=1), 1.0, atol=1e-6)
        assert np.allclose(x.mean(axis=1), 0.0, atol=1e-6)  # no DC component

    def test_colored_noise_is_red(self):
        x = _colored_noise(seeded_rng(1).split("n"), 2, 16384)
        spectrum = np.abs(np.fft.rfft(x, axis=1)) ** 2
        low = spectrum[:, 1:100].mean()
        high = spectrum[:, -100:].mean()
        assert low > 10 * high

    def test_burst_envelope_ramps(self):
        env = _burst_envelope(100, 10)
        assert env[0] < 0.2
        assert np.all(env[10:90] == 1.0)
        assert np.array_equal(env[:10], env[:-11:-1])

    def test_bandpower_score_on_pure_tones(self):
        t = np.arange(3000) / 200.0
        in_band = Clip(np.sin(2 * np.pi * 20.0 * t)[None].repeat(16, 0), 200.0)
        out_band = Clip(np.sin(2 * np.pi * 50.0 * t)[None].repeat(16, 0), 200.0)
        assert bandpower_score(in_band) > 100 * bandpower_score(out_band)


class TestLoadSplitSegments:
    def test_loads_and_labels(self, tmp_path):
        manifest = generate_synthetic(tmp_path, train_clips=1, test_clips=1, seed=5)
        batch, records = load_split_segments(manifest, "synth01", "train")
        # one minute at 400 Hz becomes 12000 samples, i.e. 4 segments per clip
        assert len(batch) == 8
        assert [r.label for r in records] == ["interictal", "preictal"]
        # clip after clip in manifest order, each segment labeled as its clip
        assert batch.labels.tolist() == [0] * 4 + [1] * 4
        first = preprocess_clip(manifest.load_record(records[0]))
        assert np.array_equal(batch.segments[:4], first.segments)

    def test_unlabeled_split_rejected(self, tmp_path):
        manifest = toy_manifest(tmp_path)
        with pytest.raises(DataError, match="unlabeled"):
            load_split_segments(manifest, "s1", "test")

    def test_missing_split(self, tmp_path):
        manifest = generate_synthetic(tmp_path, train_clips=1, test_clips=0, seed=5)
        with pytest.raises(DataError):
            load_split_segments(manifest, "synth01", "validation")
