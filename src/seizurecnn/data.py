"""Clip files, manifests, preprocessing, splits, and synthetic data.

A clip is one 10-minute (or, for synthetic data, shorter) 16-channel
recording with a single label. Clips live in a small binary format of
our own; manifests are JSON documents listing clip files with subject,
label, split and an optional seizure-group tag, plus one electrode
layout file per subject.

Preprocessing runs per clip in a fixed order, which ``cook`` and
``preprocess_clip`` alone encode: decimate 400 Hz to 200 Hz, z-normalize
each channel over the whole clip, then cut non-overlapping 3000-sample
segments. Nothing crosses clip boundaries, so train and test data can
never contaminate each other through statistics.

The synthetic generator exists because the real recordings cannot be
bundled. Interictal clips are 1/f colored noise; preictal clips add
narrowband 18-24 Hz bursts on at least half the channels, strong enough
that mean bandpower in that band separates the classes almost perfectly.
That oracle is the sanity bar any trained network has to clear.
"""

from __future__ import annotations

import dataclasses
import math
import os
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ClipFormatError, ConfigError, DataError, ManifestError
from .tensor import (FLOAT32, RngStream, Tensor, check_fields, in_threads, load_json,
                     one_blas_thread, save_json, seeded_rng)
from .topologies import N_CHANNELS, SEGMENT_SAMPLES, ElectrodeLayout

INGEST_RATE_HZ = 400.0
TARGET_RATE_HZ = 200.0

LABEL_CODES = {"interictal": 0, "preictal": 1, "unknown": 255}
LABELS = tuple(LABEL_CODES)
CODE_LABELS = {code: label for label, code in LABEL_CODES.items()}

SPLITS = ("train", "test", "validation")

CLIP_MAGIC = b"ICLP"
CLIP_VERSION = 1
_HEADER = struct.Struct("<4sHHIfBB")


@dataclass
class Clip:
    """One labeled multichannel recording window, channel-major samples."""
    samples: Tensor
    sample_rate_hz: float
    label: str = "unknown"

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=FLOAT32)
        if self.samples.ndim != 2:
            raise DataError(f"clip samples must be 2-D (channels, samples), got {self.samples.shape}")
        if 0 in self.samples.shape:
            raise DataError(f"clip has no samples: shape {self.samples.shape}")
        if self.label not in LABELS:
            raise DataError(f"clip label must be one of {LABELS}, got {self.label!r}")
        self.sample_rate_hz = float(self.sample_rate_hz)

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]


def save_clip(clip: Clip, path) -> None:
    header = _HEADER.pack(CLIP_MAGIC, CLIP_VERSION, clip.n_channels, clip.n_samples,
                          clip.sample_rate_hz, LABEL_CODES[clip.label], 0)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(clip.samples, dtype="<f4"))


def load_clip(path) -> Clip:
    """Read one clip file; no channels or no samples, a NaN or infinite
    sample, or a sample rate that is not positive and finite, is a format
    error. The payload is read straight into the sample array."""
    try:
        with open(path, "rb") as fh:
            header = fh.read(_HEADER.size)
            if len(header) < _HEADER.size:
                raise ClipFormatError(f"{path}: file shorter than the clip header")
            magic, version, n_channels, n_samples, rate, label_code, _ = \
                _HEADER.unpack(header)
            if magic != CLIP_MAGIC:
                raise ClipFormatError(f"{path}: bad magic {magic!r}")
            if version != CLIP_VERSION:
                raise ClipFormatError(f"{path}: unsupported clip version {version}")
            if label_code not in CODE_LABELS:
                raise ClipFormatError(f"{path}: unknown label code {label_code}")
            if not (math.isfinite(rate) and rate > 0):
                raise ClipFormatError(f"{path}: sample rate {rate} Hz is not positive and finite")
            if n_channels == 0 or n_samples == 0:
                raise ClipFormatError(f"{path}: header claims an empty clip "
                                      f"({n_channels}x{n_samples} samples)")
            expected = n_channels * n_samples * 4
            payload_bytes = os.fstat(fh.fileno()).st_size - _HEADER.size
            if payload_bytes == expected:
                samples = np.empty((n_channels, n_samples), "<f4")
                payload_bytes = fh.readinto(samples)
            if payload_bytes != expected:
                raise ClipFormatError(
                    f"{path}: header claims {n_channels}x{n_samples} samples "
                    f"({expected} bytes) but payload holds {payload_bytes}")
    except OSError as exc:
        raise DataError(f"cannot read clip file {path}: {exc}") from exc
    if not np.isfinite(samples).all():
        raise ClipFormatError(f"{path}: payload holds a NaN or infinite sample")
    return Clip(samples, rate, CODE_LABELS[label_code])


# 101-tap Hamming-windowed sinc lowpass, cutoff 80 Hz at 400 Hz (0.4 of
# Nyquist), scaled to unit DC gain
ANTIALIAS_TAPS = np.sinc(0.4 * np.arange(-50, 51)) * np.hamming(101)
ANTIALIAS_TAPS /= ANTIALIAS_TAPS.sum()
ANTIALIAS_TAPS.flags.writeable = False


def _mirror(index: np.ndarray, n: int) -> np.ndarray:
    """The sample of an n-sample row that each index of its symmetric
    (edge-repeating) extension reads, as np.pad's "symmetric" mode does."""
    folded = index % (2 * n)
    return np.where(folded < n, folded, 2 * n - 1 - folded)


def decimate(clip: Clip) -> Clip:
    """Halve the sample rate from 400 Hz to 200 Hz.

    Zero-phase anti-alias filtering (the symmetric FIR over a
    symmetrically edge-padded signal), keeping every second sample
    starting at index 0. Only the kept outputs are computed, one channel
    at a time in polyphase form: output k is sum_j taps[j] * padded[2k + j],
    the even taps over the even samples plus the odd taps over the odd
    ones, each correlation an FFT product in 64-bit.

    The body decimates one channel; ``tensor.in_threads`` runs it over the
    channels, shared out over threads (np.fft releases the GIL). Every
    channel takes the same steps on any thread count, so the output bytes
    do not depend on it.
    """
    if clip.sample_rate_hz != INGEST_RATE_HZ:
        raise DataError(f"decimate expects a {INGEST_RATE_HZ:g} Hz clip, "
                        f"got {clip.sample_rate_hz:g} Hz")
    if clip.n_samples % 2 != 0:
        raise DataError(f"decimate needs an even sample count, got {clip.n_samples}")
    half = (len(ANTIALIAS_TAPS) - 1) // 2
    n_channels, n_samples = clip.samples.shape
    n_out = n_samples // 2
    # each phase holds n_out + half samples; an FFT at least that long
    # computes every kept output without circular wrap-around
    nfft = 1 << (n_out + half - 1).bit_length()
    # these also put the length-nfft plan in pocketfft's plan cache, which
    # numpy builds without a lock, before any worker runs: the workers only
    # look the plan up
    even = np.conj(np.fft.rfft(ANTIALIAS_TAPS[0::2], nfft))
    odd = np.conj(np.fft.rfft(ANTIALIAS_TAPS[1::2], nfft))
    left = _mirror(np.arange(-half, 0), n_samples)
    right = _mirror(np.arange(n_samples, n_samples + half), n_samples)
    out = np.empty((n_channels, n_out), dtype=FLOAT32)

    def scratch():
        # the padded row, which also takes the inverse FFT once both phases
        # are transformed (nfft < n_samples + 2 * half), and the two spectra
        return (np.empty(n_samples + 2 * half), np.empty(nfft // 2 + 1, np.complex128),
                np.empty(nfft // 2 + 1, np.complex128))

    def work(c, buffers) -> None:
        padded, spectrum, odd_spectrum = buffers
        row = clip.samples[c]
        padded[half:half + n_samples] = row
        padded[:half] = row[left]
        padded[half + n_samples:] = row[right]
        np.fft.rfft(padded[0::2], nfft, out=spectrum)
        np.fft.rfft(padded[1::2], nfft, out=odd_spectrum)
        np.multiply(spectrum, even, out=spectrum)
        np.multiply(odd_spectrum, odd, out=odd_spectrum)
        np.add(spectrum, odd_spectrum, out=spectrum)
        series = np.fft.irfft(spectrum, nfft, out=padded[:nfft])
        out[c] = series[:n_out]

    in_threads(n_channels, work, scratch)
    return Clip(out, TARGET_RATE_HZ, clip.label)


STD_FLOOR = 1e-8


def znormalize(clip: Clip) -> Clip:
    """Center and scale each channel over the whole clip.

    Statistics are computed in 64-bit; constant channels map to zero via
    the variance floor.
    """
    out = np.empty_like(clip.samples)
    for c, row in enumerate(clip.samples):
        x = row.astype(np.float64)
        out[c] = (x - x.mean()) / max(x.std(), STD_FLOOR)
    return Clip(out, clip.sample_rate_hz, clip.label)


@dataclass
class SegmentBatch:
    """Preprocessed 15 s units: (n, 16, 3000) segments, each with the label
    of the clip it was cut from."""
    segments: Tensor
    labels: Tensor

    def __post_init__(self):
        self.segments = np.asarray(self.segments, dtype=FLOAT32)
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        if self.segments.ndim != 3 or self.segments.shape[1:] != (N_CHANNELS, SEGMENT_SAMPLES):
            raise DataError(f"segments must be (n, {N_CHANNELS}, {SEGMENT_SAMPLES}), "
                            f"got {self.segments.shape}")
        if self.labels.shape != (self.segments.shape[0],):
            raise DataError("labels must have one entry per segment")

    def __len__(self) -> int:
        return self.segments.shape[0]


def segment(clip: Clip) -> SegmentBatch:
    """Cut a clip into consecutive non-overlapping 3000-sample segments.

    A trailing remainder (possible only on nonstandard clip lengths) is
    dropped with a warning.
    """
    if clip.n_channels != N_CHANNELS:
        raise DataError(f"expected {N_CHANNELS} channels, got {clip.n_channels}")
    n_seg, remainder = divmod(clip.n_samples, SEGMENT_SAMPLES)
    if remainder:
        warnings.warn(f"dropping {remainder} trailing samples of a "
                      f"{clip.n_samples}-sample clip", stacklevel=2)
    if n_seg == 0:
        raise DataError(f"clip with {clip.n_samples} samples is shorter than one segment")
    x = clip.samples[:, :n_seg * SEGMENT_SAMPLES]
    segs = x.reshape(N_CHANNELS, n_seg, SEGMENT_SAMPLES).transpose(1, 0, 2)
    return SegmentBatch(np.ascontiguousarray(segs),
                        np.full(n_seg, LABEL_CODES[clip.label], dtype=np.uint8))


def cook(clip: Clip) -> Clip:
    """decimate -> znormalize; a 200 Hz clip is only normalized.

    The result is the 200 Hz clip the networks see; already-cooked clips
    come out re-normalized. Any other sample rate is rejected.
    """
    if clip.sample_rate_hz == INGEST_RATE_HZ:
        clip = decimate(clip)
    elif clip.sample_rate_hz != TARGET_RATE_HZ:
        raise DataError(f"cannot preprocess a {clip.sample_rate_hz:g} Hz clip")
    return znormalize(clip)


def preprocess_clip(clip: Clip) -> SegmentBatch:
    """cook -> segment, with OpenBLAS on one thread for the call, so that
    ``decimate`` shares the channels over every core."""
    with one_blas_thread():
        return segment(cook(clip))


@dataclass(frozen=True)
class ClipRecord:
    """One manifest row; path is relative to the manifest's directory."""
    path: str
    subject: str
    label: str
    split: str
    group: str | None = None


class Manifest:
    """The experiment's table of contents: clip records plus per-subject
    electrode layout files."""

    def __init__(self, clips: list[ClipRecord], layouts: dict[str, str] | None = None,
                 base="."):
        self.clips = list(clips)
        self.layouts = dict(layouts or {})
        self.base = Path(base)
        self._validate()

    def _validate(self) -> None:
        paths = [r.path for r in self.clips]
        if len(set(paths)) != len(paths):
            dupes = sorted({p for p in paths if paths.count(p) > 1})
            raise ManifestError(f"duplicate clip paths in manifest: {dupes}")
        for r in self.clips:
            if r.label not in LABELS:
                raise ManifestError(f"{r.path}: bad label {r.label!r}")
            if r.split not in SPLITS:
                raise ManifestError(f"{r.path}: bad split {r.split!r}")
            if r.split == "train" and r.label == "unknown":
                raise ManifestError(f"{r.path}: train clips must be labeled")

    def subjects(self) -> list[str]:
        return sorted({r.subject for r in self.clips})

    def select(self, subject: str | None = None, split: str | None = None,
               label: str | None = None) -> list[ClipRecord]:
        out = self.clips
        if subject is not None:
            out = [r for r in out if r.subject == subject]
        if split is not None:
            out = [r for r in out if r.split == split]
        if label is not None:
            out = [r for r in out if r.label == label]
        return list(out)

    def layout_for(self, subject: str) -> ElectrodeLayout | None:
        if subject not in self.layouts:
            return None
        return ElectrodeLayout.load(self.base / self.layouts[subject])

    def clip_path(self, record: ClipRecord) -> Path:
        return self.base / record.path

    def load_record(self, record: ClipRecord) -> Clip:
        clip = load_clip(self.clip_path(record))
        if clip.label != record.label:
            raise ManifestError(
                f"{record.path}: file label {clip.label!r} contradicts "
                f"manifest label {record.label!r}")
        return clip

    def labeled_split(self, subject: str, split: str) -> list[ClipRecord]:
        """The subject's records in ``split``; a DataError when there are
        none, one of them is unlabeled or a class has none of them."""
        records = self.select(subject=subject, split=split)
        if not records:
            raise DataError(f"no {split} clips for subject {subject!r}; "
                            f"manifest has {self.subjects()}")
        for r in records:
            if r.label == "unknown":
                raise DataError(f"{r.path}: {split} clip is unlabeled")
        for label in ("preictal", "interictal"):
            if all(r.label != label for r in records):
                raise DataError(f"no {label} {split} clips for subject {subject!r}; "
                                f"a labeled split needs both classes")
        return records

    def save(self, path) -> None:
        """Write the manifest with every clip and layout path relative to
        ``path``'s directory, the base ``load`` resolves them from."""
        out_dir = Path(path).parent

        def rel(p: str) -> str:
            return os.path.relpath(self.base / p, out_dir)

        clips = []
        for r in self.clips:
            row = dataclasses.asdict(r) | {"path": rel(r.path)}
            if r.group is None:  # load reads a missing group as None
                del row["group"]
            clips.append(row)
        save_json(path, {"clips": clips,
                         "layouts": {s: rel(p) for s, p in sorted(self.layouts.items())}})

    @classmethod
    def load(cls, path) -> "Manifest":
        path = Path(path)
        obj = check_fields(load_json(path, "manifest", ManifestError),
                           {"clips": list, "layouts": dict}, ["clips"],
                           f"manifest {path}", ManifestError)
        fields = dataclasses.fields(ClipRecord)
        row_kinds = {f.name: str for f in fields}
        row_required = [f.name for f in fields if f.default is dataclasses.MISSING]
        records = [ClipRecord(**check_fields(row, row_kinds, row_required,
                                             f"manifest {path} clip {i}", ManifestError))
                   for i, row in enumerate(obj["clips"])]
        layouts = obj.get("layouts", {})
        check_fields(layouts, dict.fromkeys(layouts, str), [], f"manifest {path} layouts",
                     ManifestError)
        return cls(records, layouts, base=path.parent)


def split_train_validation(manifest: Manifest, fraction: float = 0.2,
                           seed: int = 0) -> tuple[Manifest, Manifest]:
    """Carve a validation set out of the train-split clips.

    Stratified per subject and class: floor(fraction * n) clips move to
    validation, chosen uniformly by the seed. Where seizure-group tags
    exist, whole groups move together and the per-class count is matched
    as closely as the group sizes allow, short of moving every train clip
    of a class. Records that stay keep their split; moved records are
    relabeled "validation". The two returned manifests partition the
    input exactly.
    """
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"validation fraction must be in (0, 1), got {fraction}")
    rng = seeded_rng(seed).split("validation-split")
    chosen: set[str] = set()
    for subject in manifest.subjects():
        for label in ("interictal", "preictal"):
            stratum = manifest.select(subject, "train", label)
            if not stratum:
                continue
            target = math.floor(fraction * len(stratum))
            # indivisible units, a seizure group or an untagged clip, in manifest order
            by_unit: dict[tuple[str, str], list[ClipRecord]] = {}
            for r in stratum:
                key = ("clip", r.path) if r.group is None else ("group", r.group)
                by_unit.setdefault(key, []).append(r)
            units = list(by_unit.values())
            order = rng.split(f"{subject}/{label}").permutation(len(units))
            taken = 0
            for i in order:
                if taken >= target:
                    break
                size = len(units[i])
                if taken + size < len(stratum) and \
                        abs(taken + size - target) <= abs(taken - target):
                    chosen.update(r.path for r in units[i])
                    taken += size
            if taken == 0:
                warnings.warn(f"{subject}: validation receives no {label} clips "
                              f"at fraction {fraction}", stacklevel=2)
    train_records = [r for r in manifest.clips if r.path not in chosen]
    val_records = [dataclasses.replace(r, split="validation")
                   for r in manifest.clips if r.path in chosen]
    return (Manifest(train_records, manifest.layouts, manifest.base),
            Manifest(val_records, manifest.layouts, manifest.base))


def load_split_segments(manifest: Manifest, subject: str,
                        split: str) -> tuple[SegmentBatch, list[ClipRecord]]:
    """Preprocess every clip of one subject and split into a single batch,
    clip after clip in manifest order, and return it with those records."""
    records = manifest.labeled_split(subject, split)
    batches = [preprocess_clip(manifest.load_record(r)) for r in records]
    return SegmentBatch(np.concatenate([b.segments for b in batches]),
                        np.concatenate([b.labels for b in batches])), records


BURST_BAND_HZ = (18.0, 24.0)
BURST_SECONDS = (1.0, 3.0)
BURST_GAP_SECONDS = (3.5, 5.8)  # with 1-3 s bursts this sets duty near 30%
BURST_RAMP_SECONDS = 0.1
BURST_AMPLITUDE = math.sqrt(2.0)  # unit burst power, so 0 dB against the noise
MIN_BURST_CHANNELS = 8


def bandpower_score(clip: Clip) -> float:
    """Mean periodogram power over channels inside ``BURST_BAND_HZ``.

    This is the fixed oracle for synthetic data: no training involved,
    just the physics of the planted bursts.
    """
    x = clip.samples.astype(np.float64)
    freqs = np.fft.rfftfreq(x.shape[1], d=1.0 / clip.sample_rate_hz)
    power = np.abs(np.fft.rfft(x, axis=1)) ** 2
    sel = (freqs >= BURST_BAND_HZ[0]) & (freqs <= BURST_BAND_HZ[1])
    if not sel.any():
        raise DataError(f"clip too short to resolve the {BURST_BAND_HZ} Hz band")
    return float(power[:, sel].mean())


def _colored_noise(rng: RngStream, n_channels: int, n_samples: int) -> np.ndarray:
    """Per-channel noise with a 1/f power spectrum, unit variance, zero DC."""
    white = rng.normal(size=(n_channels, n_samples))
    spectrum = np.fft.rfft(white, axis=1)
    freqs = np.fft.rfftfreq(n_samples)
    scale = np.zeros_like(freqs)
    scale[1:] = 1.0 / np.sqrt(freqs[1:])
    shaped = np.fft.irfft(spectrum * scale, n=n_samples, axis=1)
    std = shaped.std(axis=1, keepdims=True)
    return shaped / np.maximum(std, STD_FLOOR)


def _burst_envelope(n: int, ramp: int) -> np.ndarray:
    env = np.ones(n)
    r = min(ramp, n // 2)
    if r > 0:
        up = 0.5 * (1.0 - np.cos(np.pi * (np.arange(r) + 1) / (r + 1)))
        env[:r] = up
        env[n - r:] = up[::-1]
    return env


def _burst_signal(rng: RngStream, n_channels: int, n_samples: int,
                  rate_hz: float) -> np.ndarray:
    """Synchronized narrowband bursts on a random subset of channels."""
    out = np.zeros((n_channels, n_samples))
    n_active = int(rng.integers(MIN_BURST_CHANNELS, n_channels + 1))
    active = rng.choice(n_channels, size=n_active, replace=False)
    ramp = int(round(BURST_RAMP_SECONDS * rate_hz))
    t = 0
    while t < n_samples:
        length = int(round(rng.uniform(*BURST_SECONDS) * rate_hz))
        length = min(length, n_samples - t)
        if length > 2 * ramp:
            freq = rng.uniform(*BURST_BAND_HZ)
            phases = rng.uniform(0.0, 2.0 * np.pi, size=n_active)
            times = np.arange(t, t + length) / rate_hz
            env = _burst_envelope(length, ramp)
            waves = BURST_AMPLITUDE * env * np.sin(
                2.0 * np.pi * freq * times[None, :] + phases[:, None])
            out[active, t:t + length] += waves
        t += length + int(round(rng.uniform(*BURST_GAP_SECONDS) * rate_hz))
    return out


def generate_synthetic(out_dir, train_clips: int = 80, test_clips: int = 20,
                       minutes: int = 1, seed: int = 0) -> Manifest:
    """Write a synthetic dataset of one subject, synth01; return its manifest.

    ``train_clips`` clips per class in the train split and ``test_clips``
    per class in the test split, each ``minutes`` long at 400 Hz, plus a
    default electrode layout. Preictal train clips carry group tags in
    runs of six so group-aware validation splits have something to
    respect. Everything is a pure function of the seed.
    """
    if not (isinstance(minutes, int) and minutes >= 1):
        raise ConfigError(f"clip duration must be a whole number of minutes >= 1, got {minutes}")
    if train_clips < 1:
        raise ConfigError(f"need at least one training clip per class, got {train_clips}")
    if test_clips < 0:
        raise ConfigError(f"test clips per class cannot be negative, got {test_clips}")
    subject = "synth01"
    srng = seeded_rng(seed).split("synthetic").split(subject)  # a bad seed fails before any write
    root = Path(out_dir)
    (root / "clips").mkdir(parents=True, exist_ok=True)
    (root / "layouts").mkdir(parents=True, exist_ok=True)
    n_samples = int(minutes * 60 * INGEST_RATE_HZ)
    layout_rel = f"layouts/{subject}.json"
    ElectrodeLayout.default().save(root / layout_rel)
    records: list[ClipRecord] = []
    for split, per_class in (("train", train_clips), ("test", test_clips)):
        for label in ("interictal", "preictal"):
            for i in range(per_class):
                crng = srng.split(f"{split}/{label}/{i}")
                x = _colored_noise(crng.split("noise"), N_CHANNELS, n_samples)
                if label == "preictal":
                    x = x + _burst_signal(crng.split("bursts"), N_CHANNELS,
                                          n_samples, INGEST_RATE_HZ)
                rel = f"clips/{subject}_{split}_{label}_{i:04d}.clip"
                save_clip(Clip(x, INGEST_RATE_HZ, label), root / rel)
                group = f"{subject}-{split}-seq{i // 6:03d}" if label == "preictal" else None
                records.append(ClipRecord(rel, subject, label, split, group))
    manifest = Manifest(records, {subject: layout_rel}, base=root)
    manifest.save(root / "manifest.json")
    return manifest
