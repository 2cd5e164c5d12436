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
reproducibility checks rely on. ``read_json`` reads the JSON artifacts
that sit beside containers (model metadata, tree ensembles, scores) with
the same error mapping.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import DataError, MissingArtifactError

MAGIC = b"ILOS1"
VERSION = 1

# dtypes allowed in the payload; anything else must be stored in metadata
_ALLOWED_DTYPES = {"float64", "float32", "int64", "int32", "int8", "uint8", "bool"}


def write_container(
    path: str | Path, arrays: dict[str, np.ndarray], meta: dict | None = None
) -> None:
    """Write named arrays plus a JSON metadata dict to ``path``."""
    path = Path(path)
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

    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<B", VERSION))
        fh.write(struct.pack("<I", len(meta_blob)))
        fh.write(meta_blob)
        fh.write(struct.pack("<I", len(index_blob)))
        fh.write(index_blob)
        for blob in payloads:
            fh.write(blob)


def _read_exact(fh, n: int, path: Path, what: str) -> bytes:
    blob = fh.read(n)
    if len(blob) != n:
        raise DataError(f"{path}: truncated {what}")
    return blob


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

    Returns ``(arrays, meta)``. Raises :class:`DataError` on a bad magic,
    version or index, undecodable JSON, or a file truncated anywhere.
    """
    path = Path(path)
    with open(path, "rb") as fh:
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


def read_json(path: str | Path) -> dict:
    """Read a JSON object artifact.

    Raises :class:`MissingArtifactError` when the file does not exist and
    :class:`DataError` when it is not UTF-8 JSON holding an object.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        raise MissingArtifactError(f"missing artifact {path}") from None
    return _decode_json(blob, path, "JSON", dict)
