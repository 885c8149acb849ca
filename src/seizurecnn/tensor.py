"""Dense arrays, seeded randomness, parameter initialization, and the
array and JSON file codecs.

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
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from typing import Mapping

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
