"""Versioned binary container for datasets and model parameters.

Layout (little-endian):

    magic   5 bytes  b"ILOS1"
    version 1 byte
    u32     length of the metadata JSON block
    bytes   metadata JSON (UTF-8, sorted keys)
    u32     length of the array-index JSON block
    bytes   index JSON: list of {name, dtype, shape} in payload order
    bytes   raw C-order array payloads, concatenated in index order

Writes are byte-deterministic for identical inputs, which the
reproducibility checks rely on, and atomic: :func:`atomic_write` fills a
temporary file beside the target and moves it into place only once it is
complete, so an interrupted write leaves the previous artifact intact.
``read_json`` reads the JSON artifacts that sit beside containers (model
metadata, tree ensembles, scores) with the same error mapping, and
``write_json`` writes them; ``write_csv`` writes every CSV artifact.
"""

from __future__ import annotations

import csv
import json
import os
import secrets
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, DataError, MissingArtifactError, SchemaError

MAGIC = b"ILOS1"
VERSION = 1

# dtypes allowed in the payload; anything else must be stored in metadata
_ALLOWED_DTYPES = {"float64", "float32", "int64", "int32", "int8", "uint8", "bool"}


@contextmanager
def atomic_write(path: str | Path, mode: str = "wb", **open_kwargs) -> Iterator[IO]:
    """Open a temporary file beside ``path`` for writing; when the block
    completes, move it onto ``path``, and when the block raises, delete it.

    ``mode`` and ``open_kwargs`` are those of :func:`open`.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(temp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, obj) -> None:
    """Write a JSON artifact (sorted keys, indent 2) atomically."""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2))


def write_csv(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence],
    lineterminator: str = "\r\n",
) -> None:
    """Write a header row and ``rows`` as UTF-8 CSV atomically."""
    with atomic_write(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows(rows)


def write_container(
    path: str | Path, arrays: dict[str, np.ndarray], meta: dict | None = None
) -> None:
    """Write named arrays plus a JSON metadata dict to ``path``."""
    index = []
    payloads = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype.name not in _ALLOWED_DTYPES:
            raise DataError(f"array {name!r} has unsupported dtype {arr.dtype}")
        index.append({"name": name, "dtype": arr.dtype.name, "shape": list(arr.shape)})
        payloads.append(arr.tobytes())

    meta_blob = json.dumps(meta or {}, sort_keys=True).encode("utf-8")
    index_blob = json.dumps(index, sort_keys=True).encode("utf-8")

    with atomic_write(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<B", VERSION))
        fh.write(struct.pack("<I", len(meta_blob)))
        fh.write(meta_blob)
        fh.write(struct.pack("<I", len(index_blob)))
        fh.write(index_blob)
        for blob in payloads:
            fh.write(blob)


def _read_exact(fh, n: int, path: Path, what: str) -> bytes:
    # A length past the end of the file is checked before reading, so a
    # corrupt length never asks for a buffer of that size.
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise DataError(f"{path}: truncated {what}")
    return fh.read(n)


def _read_json_block(fh, path: Path, what: str, kind: type):
    (length,) = struct.unpack("<I", _read_exact(fh, 4, path, f"{what} length"))
    return _decode_json(_read_exact(fh, length, path, what), path, what, kind)


def _decode_json(blob: bytes, path: Path, what: str, kind: type):
    try:
        value = json.loads(blob.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise DataError(f"{path}: undecodable {what}: {exc}") from None
    if not isinstance(value, kind):
        raise DataError(f"{path}: {what} is not a JSON {kind.__name__}")
    return value


def read_container(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a container written by :func:`write_container`.

    Returns ``(arrays, meta)``. Raises :class:`MissingArtifactError` when
    the file does not exist and :class:`DataError` on a bad magic, version
    or index, undecodable JSON, or a file truncated anywhere.
    """
    path = Path(path)
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise MissingArtifactError(f"missing artifact {path}") from None
    with fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise DataError(f"{path}: not an ILOS1 container (magic {magic!r})")
        (version,) = struct.unpack("<B", _read_exact(fh, 1, path, "header"))
        if version != VERSION:
            raise DataError(f"{path}: unsupported container version {version}")
        meta = _read_json_block(fh, path, "metadata", dict)
        index = _read_json_block(fh, path, "array index", list)

        arrays: dict[str, np.ndarray] = {}
        for entry in index:
            try:
                name, dtype_name = entry["name"], entry["dtype"]
                shape = tuple(int(n) for n in entry["shape"])
                ok = dtype_name in _ALLOWED_DTYPES
            except (KeyError, TypeError, ValueError):
                ok = False
            if not ok:
                raise DataError(f"{path}: bad array index entry {entry!r}")
            dtype = np.dtype(dtype_name)
            nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
            blob = _read_exact(fh, nbytes, path, f"payload for array {name!r}")
            arrays[name] = np.frombuffer(blob, dtype=dtype).reshape(shape).copy()
    return arrays, meta


def require_keys(obj: dict, keys: tuple[str, ...], path: str | Path, what: str = "JSON") -> dict:
    """Return ``obj``; raise :class:`DataError` naming the keys it lacks."""
    missing = [key for key in keys if key not in obj]
    if missing:
        raise DataError(f"{path}: {what} is missing key(s) {', '.join(map(repr, missing))}")
    return obj


@contextmanager
def decoding(path: str | Path, what: str) -> Iterator[None]:
    """Run a block that builds ``what`` from the contents of ``path``; a
    missing key or a wrong-typed or out-of-range value in them becomes a
    :class:`DataError` naming ``path``."""
    try:
        yield
    except KeyError as exc:
        raise DataError(f"{path}: malformed {what}: missing key {exc}") from None
    except (TypeError, ValueError, IndexError, OverflowError, ConfigError, SchemaError) as exc:
        raise DataError(f"{path}: malformed {what}: {exc}") from None


def read_json(path: str | Path, required: tuple[str, ...] = ()) -> dict:
    """Read a JSON object artifact that holds at least the ``required`` keys.

    Raises :class:`MissingArtifactError` when the file does not exist and
    :class:`DataError` when it is not UTF-8 JSON holding an object or lacks
    a required key.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        raise MissingArtifactError(f"missing artifact {path}") from None
    return require_keys(_decode_json(blob, path, "JSON", dict), required, path)
