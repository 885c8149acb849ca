"""Dense arrays, seeded randomness, parameter initialization, the array
and JSON file codecs, and the one way work is shared over threads.

Arrays throughout the toolkit are plain ``numpy`` ndarrays in C order:
the first axis varies slowest, reshape never reorders memory, and the
clip file format stores samples in exactly this order so ingestion is
copy-free.  Training numerics run in 32-bit floats; gradient-check
suites rebuild layers in 64-bit.

Randomness is fully deterministic given a run seed.  A stream is a
Philox counter-based generator keyed by SHA-256 over the seed and the
labels of every split on the path from the root, so child streams are
independent of their parent and of each other.  Draw sequences are
reproducible across runs of the same build; bit-equality across numpy
versions is not promised.

JSON documents (manifests, layouts, run records, reports) are written
indented with sorted keys and a trailing newline, so equal contents give
equal bytes. Every reader checks a document's keys and value types with
one function, ``check_fields``.

``in_threads`` runs a per-item body over a call's items, cut by ``shares``
into contiguous shares, one per core the process may run on, but only
while numpy's OpenBLAS runs one thread (``one_blas_thread``, as every
command sets it): BLAS threads beside ours would compete for the same
cores, and a float64 dot's bits follow the BLAS thread count. So a library
caller that leaves BLAS as it is runs on its own thread alone. How items
are cut into shares is known here alone; a caller says only what happens
to item ``i``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import zipfile
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Mapping

import numpy as np

Tensor = np.ndarray

FLOAT32 = np.float32
DEFAULT_DTYPE = np.float32

RNG_ALGORITHM_ID = "philox4x64-10/sha256-keyed-splits"


def _stream_key(seed: int, path: tuple[str, ...]) -> int:
    material = str(int(seed)).encode("ascii")
    for label in path:
        material += b"/" + label.encode("utf-8")
    # Philox takes a 128-bit key; use the low half of the digest
    return int.from_bytes(hashlib.sha256(material).digest()[:16], "little")


class RngStream:
    """Deterministic random stream with labelled child splitting.

    Identical ``(seed, path)`` pairs produce identical draw sequences;
    ``split`` derives an independent child stream for a named purpose.
    """

    algorithm_id = RNG_ALGORITHM_ID

    def __init__(self, seed: int, path: tuple[str, ...] = ()):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        self.seed = seed
        self.path = tuple(path)
        self._gen = np.random.Generator(np.random.Philox(key=_stream_key(seed, self.path)))

    def split(self, label: str) -> "RngStream":
        """Derive an independent child stream identified by ``label``."""
        return RngStream(self.seed, self.path + (str(label),))

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None) -> Tensor:
        return self._gen.uniform(low, high, size=size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None) -> Tensor:
        return self._gen.normal(loc, scale, size=size)

    def integers(self, low: int, high: int, size=None) -> Tensor:
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> Tensor:
        return self._gen.permutation(n)

    def choice(self, n: int, size: int, replace: bool = False) -> Tensor:
        return self._gen.choice(n, size=size, replace=replace)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, path={self.path!r})"


def seeded_rng(seed: int) -> RngStream:
    """Root stream for one run; every random decision derives from it."""
    return RngStream(seed)


def glorot_uniform(shape, fan_in: int, fan_out: int, rng: RngStream,
                   dtype=DEFAULT_DTYPE) -> Tensor:
    """Uniform draws in [-L, L] with L = sqrt(6 / (fan_in + fan_out))."""
    if fan_in < 1 or fan_out < 1:
        raise ValueError("fan_in and fan_out must be at least 1")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def save_arrays(path, arrays: Mapping[str, Tensor]) -> None:
    """Write named arrays as an uncompressed ``.npz`` with pinned zip metadata.

    Timestamps are fixed so identical arrays produce byte-identical files,
    which keeps repeated runs of the same seed comparable at the file level.
    """
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name, array in arrays.items():
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            with zf.open(info, "w") as fh:
                np.lib.format.write_array(fh, np.ascontiguousarray(array), version=(1, 0))


def load_arrays(path) -> dict[str, Tensor]:
    """Read arrays written by :func:`save_arrays` (any valid ``.npz`` works)."""
    with np.load(path) as npz:
        return {name: npz[name] for name in npz.files}


def save_json(path, obj) -> None:
    """Write one JSON document, indented, keys sorted, newline-terminated;
    a NaN or infinity, which JSON cannot hold, raises ValueError."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def load_json(path, what: str, error_cls: type[Exception]):
    """Parse one JSON document; an unreadable file or invalid JSON raises
    ``error_cls`` naming ``what`` and the path."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise error_cls(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, nesting too deep
        raise error_cls(f"{what} {path} is not valid JSON: {exc}") from exc


#: per field kind: its name in messages and the JSON value types it accepts
_KINDS = {int: ("an integer", (int,)), float: ("a number", (int, float)),
          str: ("a string", (str,)), list: ("a list", (list,)),
          dict: ("a mapping", (dict,)), None: ("null", (type(None),))}


def check_fields(obj, kinds: Mapping, required, where: str,
                 error_cls: type[Exception]) -> dict:
    """Return ``obj``, a parsed JSON document, once it is a mapping whose
    every key is in ``kinds``, every key of ``required`` present, and every
    value of its key's kind: a type or a tuple of types, None meaning null.
    A bool is never an int; an int serves where a float is wanted. Raises
    ``error_cls`` naming ``where`` otherwise."""
    if not isinstance(obj, dict):
        raise error_cls(f"{where} must be a mapping")
    unknown = set(obj) - set(kinds)
    if unknown:
        raise error_cls(f"unknown {where} keys: {sorted(unknown)}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise error_cls(f"{where}: missing keys {missing}")
    for key, value in obj.items():
        want = kinds[key] if isinstance(kinds[key], tuple) else (kinds[key],)
        if not any(type(value) in _KINDS[k][1] for k in want):
            names = " or ".join(_KINDS[k][0] for k in want)
            raise error_cls(f"{where}: {key} must be {names}, got {value!r}")
    return obj


#: the most threads one call shares its items over
MAX_THREADS = 4


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def _openblas():
    """numpy's OpenBLAS thread-count getter and setter, or None where numpy
    ships no scipy-openblas library that exports them."""
    import ctypes  # at first use, so that importing the package does not load it
    import glob
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        lib = ctypes.CDLL(path)  # the copy numpy loaded: dlopen finds it by its file
        try:
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def blas_threads() -> int | None:
    """How many threads numpy's OpenBLAS runs, or None where it cannot tell."""
    blas = _openblas()
    return None if blas is None else blas[0]()


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread, then restore its
    earlier count, also when the body raises; a no-op where it cannot be set."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def shares(n: int) -> list[range]:
    """``range(n)`` cut into contiguous shares of near-equal length, one per
    thread to run them on: one per usable core, at most ``n`` and
    ``MAX_THREADS``, while OpenBLAS runs exactly one thread, else one."""
    threads = max(1, min(_usable_cores(), n, MAX_THREADS))
    if threads > 1 and blas_threads() != 1:
        threads = 1
    bounds = [n * t // threads for t in range(threads + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def in_threads(n: int, work: Callable, scratch: Callable = tuple) -> None:
    """Call ``work(i, buffers)`` for each ``i`` of ``range(n)``, each share
    of ``shares(n)`` on a thread of its own, its items in order: the
    calling thread takes the first share, a pool of one thread fewer than
    there are shares the others. Every thread has ended on return, which
    raises what an item raised.

    ``scratch()`` makes each share's ``buffers``, which all its items get;
    it runs here, in the calling thread, so no worker allocates a large
    array. Items of different shares must not write the same memory."""
    parts = shares(n)
    buffers = [scratch() for _ in parts]

    def walk(part: range, buffers) -> None:
        for i in part:
            work(i, buffers)

    if len(parts) == 1:
        walk(parts[0], buffers[0])
        return
    with ThreadPoolExecutor(len(parts) - 1) as pool:
        rest = pool.map(walk, parts[1:], buffers[1:])
        walk(parts[0], buffers[0])
        list(rest)
