"""Parse long-format PM telemetry and merge it into per-port daily series.

Input is a long-format CSV with header
``network_id,port_id,facility_type,date,pm_name,pm_value`` and ISO dates.
Several facilities may report the same PM on the same port and day; the
merge keeps the per-day maximum. Days between a port's first and last
observation are filled with all-absent rows so every series is gap-free.
"""

from __future__ import annotations

import csv
import io
from collections import defaultdict
from dataclasses import dataclass, replace
from datetime import date
from itertools import count
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .container import decoding, read_container, require_keys, write_container
from .errors import DataError, IngestError, SchemaError
from .schema import HCCS, UAS, FeatureSchema

CSV_HEADER = ["network_id", "port_id", "facility_type", "date", "pm_name", "pm_value"]


#: The arrays a saved series block holds; its metadata holds the schema
#: and the network and port ids.
_SERIES_ARRAYS = ("start_day", "n_days", "values", "onehot")


@dataclass(frozen=True)
class PortSeries:
    """Gap-free daily rows of every port of one network, as one block.

    Ports are in (network_id, port_id) order. ``network_id``/``port_id``
    are (P,) object arrays, ``start_day`` (P,) int64 date ordinals and
    ``n_days`` (P,) int64 day counts, each at least 1. ``values`` is
    (sum of n_days, n_numeric) float64 holding each port's rows in turn,
    with NaN marking absent entries; ``onehot`` is (P, n_onehot), each
    port's facility flags (1.0 where the facility reported on any day).
    """

    network_id: np.ndarray
    port_id: np.ndarray
    start_day: np.ndarray
    n_days: np.ndarray
    values: np.ndarray
    onehot: np.ndarray

    def __len__(self) -> int:
        return self.n_days.size

    def save(self, path: str | Path, schema: FeatureSchema) -> None:
        ids = {"networks": self.network_id.tolist(), "ports": self.port_id.tolist()}
        arrays = {name: getattr(self, name) for name in _SERIES_ARRAYS}
        write_container(path, arrays, {"schema": schema.to_dict(), **ids})

    @classmethod
    def load(cls, path: str | Path) -> tuple[FeatureSchema, "PortSeries"]:
        """The schema and block saved at ``path``; :class:`DataError` naming
        the file when its arrays disagree or it holds an older layout."""
        arrays, meta = read_container(path)
        if "values_00000" in arrays:
            raise DataError(f"{path}: per-port series layout of an older version; re-run ingest")
        require_keys(meta, ("schema", "networks", "ports"), path, "metadata")
        with decoding(path, "series container"):
            schema = FeatureSchema.from_dict(meta["schema"])
            ids = (np.array(meta[key], dtype=object) for key in ("networks", "ports"))
            series = cls(*ids, *(arrays[name] for name in _SERIES_ARRAYS))
        n_days, start_day = series.n_days, series.start_day
        if n_days.ndim != 1 or {n_days.dtype.kind, start_day.dtype.kind} != {"i"}:
            raise DataError(f"{path}: n_days and start_day are not 1-D integer arrays")
        if (n_days < 1).any():
            raise DataError(f"{path}: n_days holds a count below 1")
        ports = (n_days.size,)
        shapes = {
            "network_id": ports,
            "port_id": ports,
            "start_day": ports,
            "values": (int(n_days.sum()), schema.n_numeric),
            "onehot": (*ports, schema.n_onehot),
        }
        for name, expected in shapes.items():
            shape = getattr(series, name).shape
            if shape != expected:
                raise DataError(f"{path}: {name} has shape {shape}, not {expected}")
        if not all(isinstance(i, str) for i in [*series.network_id.tolist(), *series.port_id.tolist()]):
            raise DataError(f"{path}: a network or port id is not a string")
        if ((start_day < 1) | (start_day > date.max.toordinal() - n_days + 1)).any():
            raise DataError(f"{path}: start_day holds a day outside the calendar")
        return schema, series


@dataclass(frozen=True)
class PmColumns:
    """PM rows as columns, in input order.

    ``network``, ``port``, ``facility`` and ``pm`` are int64 codes into the
    name tables ``networks``, ``ports``, ``facilities`` and ``pm_names``;
    ``day`` holds date ordinals and ``value`` the float64 PM values.
    """

    networks: tuple[str, ...]
    ports: tuple[str, ...]
    facilities: tuple[str, ...]
    pm_names: tuple[str, ...]
    network: np.ndarray
    port: np.ndarray
    facility: np.ndarray
    pm: np.ndarray
    day: np.ndarray
    value: np.ndarray

    def __len__(self) -> int:
        return self.value.size

    def take(self, rows: np.ndarray) -> "PmColumns":
        """The selected rows (boolean mask or indices) over the same name tables."""
        return replace(self, **{name: getattr(self, name)[rows] for name in _ROW_FIELDS})

    @classmethod
    def concat(cls, parts: list["PmColumns"]) -> "PmColumns":
        """The rows of every part in order, recoded into merged name tables;
        ``parts`` holds at least one part."""
        fields = {}
        for table, code in _CODED_FIELDS:
            merged: dict[str, int] = {}
            recoded = []
            for part in parts:
                lookup = [merged.setdefault(name, len(merged)) for name in getattr(part, table)]
                recoded.append(np.array(lookup, dtype=np.int64)[getattr(part, code)])
            fields[table] = tuple(merged)
            fields[code] = np.concatenate(recoded)
        for name in ("day", "value"):
            fields[name] = np.concatenate([getattr(part, name) for part in parts])
        return cls(**fields)


#: (name table, code array) of each string column.
_CODED_FIELDS = (
    ("networks", "network"),
    ("ports", "port"),
    ("facilities", "facility"),
    ("pm_names", "pm"),
)
_ROW_FIELDS = ("network", "port", "facility", "pm", "day", "value")


def _factorize(strings: Sequence) -> tuple[tuple, np.ndarray]:
    """The distinct strings in first-seen order, and each entry's code."""
    # A string's first lookup inserts it with the next code.
    index = defaultdict(count().__next__)
    codes = np.fromiter(map(index.__getitem__, strings), dtype=np.int64, count=len(strings))
    return tuple(index), codes


#: The header line as bytes.
_HEADER_LINE = ",".join(CSV_HEADER).encode()
#: ``_WORD_MASK[n]`` keeps the first n bytes of a little-endian 8-byte word.
_WORD_MASK = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)

#: One string column: its name table and each row's code.
_Coded = tuple[tuple[str, ...], np.ndarray]
#: What :func:`_columns` returns.
_Columns = tuple[np.ndarray, np.ndarray, list[_Coded], list[str]]


def _line_bounds(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    r"""The start and end offsets in ``data`` of each line, its line end
    left out, when cutting ``data`` at line ends and commas cuts it as
    ``csv.reader`` does, else None: a quote, a NUL, a ``\r`` outside
    ``\r\n`` or a line longer than ``csv.field_size_limit()`` bytes is left
    to ``csv.reader``."""
    if b'"' in data or b"\0" in data:
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    line_end = np.flatnonzero(buf == ord("\n"))
    # The byte before each \n; clipped, a \n at offset 0 reads itself.
    crlf = np.take(buf, line_end - 1, mode="clip") == ord("\r")
    if np.count_nonzero(buf == ord("\r")) != np.count_nonzero(crlf):
        return None
    starts = np.append(0, line_end + 1)
    ends = np.append(line_end - crlf, len(data))
    if starts[-1] == len(data):
        starts, ends = starts[:-1], ends[:-1]  # a final line end starts no record
    if (ends - starts).max() > csv.field_size_limit():
        return None
    return starts, ends


def _bad_header(path: Path, header: list[str]) -> IngestError:
    return IngestError(f"{path}: bad header {header!r}, expected {CSV_HEADER!r}")


def _code_fields(data: bytes, words: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> _Coded:
    """The distinct fields ``data[starts[i]:ends[i]]``, decoded in
    first-seen order, and each field's code.

    ``words[j]`` is the little-endian word of the 8 bytes at offset j of
    ``data`` padded with zero bytes, and ``data`` holds no NUL. A field of
    at most 16 bytes is then keyed by its one or two words masked to its
    length: a shorter field ends in a zero byte where a longer one has a
    nonzero byte, so equal keys mean equal fields. A column with a longer
    field is coded by a dict over its byte slices.
    """
    lengths = ends - starts
    longest = lengths.max(initial=0)
    if longest > 16:
        table, codes = _factorize([data[s:e] for s, e in zip(starts.tolist(), ends.tolist())])
        return tuple(name.decode() for name in table), codes
    key = words[starts] & _WORD_MASK[np.minimum(lengths, 8)]
    if longest > 8:
        # Code each word on its own, then key the field by the pair of codes.
        _, low = np.unique(key, return_inverse=True)
        high_words = words[starts + 8] & _WORD_MASK[np.clip(lengths - 8, 0, 8)]
        high_table, high = np.unique(high_words, return_inverse=True)
        key = low * high_table.size + high
    # return_index sorts stably, so it gives each key's first row.
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    first = first[order]
    names = tuple(data[s:e].decode() for s, e in zip(starts[first].tolist(), ends[first].tolist()))
    return names, rank[inverse]


def _byte_columns(path: Path, data: bytes, text: str, starts: np.ndarray, ends: np.ndarray) -> _Columns:
    """:func:`_columns` of the lines of ``data`` (decoded: ``text``) at
    ``starts``/``ends``, cut at the commas found in one pass."""
    header = data[starts[0] : ends[0]]
    if header != _HEADER_LINE:
        raise _bad_header(path, header.decode().split(",") if header else [])
    buf = np.frombuffer(data, dtype=np.uint8)
    commas = np.flatnonzero(buf == ord(","))
    # A line's commas lie before the next line's start.
    widths = np.diff(np.searchsorted(commas, np.append(starts[1:], len(data)))) + 1
    linenos = np.arange(2, starts.size + 1)
    nonblank = ends[1:] > starts[1:]
    linenos, widths, starts, ends = (a[nonblank] for a in (linenos, widths, starts[1:], ends[1:]))
    (wrong_width,) = np.nonzero(widths != len(CSV_HEADER))
    n_rows = wrong_width[0] if wrong_width.size else widths.size
    # The header's five commas come first, then five of each line kept.
    cuts = commas[5 : 5 * (n_rows + 1)].reshape(n_rows, 5)
    field_starts = [starts[:n_rows], *(cuts + 1).T]
    field_ends = [*cuts.T, ends[:n_rows]]

    padded = data + bytes(16)
    words = np.ndarray((len(data) + 9,), dtype="<u8", buffer=padded, strides=(1,))
    coded = [_code_fields(data, words, *bounds) for bounds in zip(field_starts[:5], field_ends[:5])]
    # float() takes text that float() on bytes rejects, such as "\u0661".
    value_fields = zip(field_starts[5].tolist(), field_ends[5].tolist())
    if len(text) == len(data):  # ASCII: a byte offset is a character offset
        value_text = [text[s:e] for s, e in value_fields]
    else:
        value_text = [data[s:e].decode() for s, e in value_fields]
    return linenos, widths, coded, value_text


def _reader_columns(path: Path, text: str) -> _Columns:
    """:func:`_columns` of ``text`` cut by ``csv.reader``."""
    try:
        records = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    if records[0] != CSV_HEADER:
        raise _bad_header(path, records[0])
    rows = records[1:]
    linenos = np.arange(2, len(rows) + 2)
    if not all(rows):
        linenos = linenos[np.fromiter(map(bool, rows), dtype=bool, count=len(rows))]
        rows = [row for row in rows if row]
    widths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    (wrong_width,) = np.nonzero(widths != len(CSV_HEADER))
    if wrong_width.size:
        rows = rows[: wrong_width[0]]
    columns = [list(map(itemgetter(k), rows)) for k in range(len(CSV_HEADER))]
    return linenos, widths, [_factorize(column) for column in columns[:5]], columns[5]


def _columns(path: Path) -> _Columns:
    """The line numbers and field counts of the non-blank records after the
    checked header; and, of the records before the first one with another
    field count, the five string columns coded in first-seen order and the
    value texts."""
    try:
        data = path.read_bytes()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    if not data:
        raise IngestError(f"{path}: empty file")
    bounds = _line_bounds(data)
    if bounds is None:
        return _reader_columns(path, text)
    return _byte_columns(path, data, text, *bounds)


def _unusable_network_id(name: str) -> bool:
    """Whether ``name`` cannot be a network's directory in a workspace: it
    would leave ``ingest/`` or name no directory of its own, or it is
    ``mega``, the mega-dataset's scope."""
    return name in ("", ".", "..", "mega") or any(c in name for c in "/\\\0")


def _to_float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _ordinal(text: str) -> int:
    """The date ordinal of an ISO date string, -1 when it is malformed."""
    try:
        return date.fromisoformat(text).toordinal()
    except ValueError:
        return -1


def read_pm_csv(path: str | Path) -> PmColumns:
    """Parse a long-format PM CSV into columns in one pass.

    A bad line raises :class:`IngestError` naming the file and the 1-based
    line number; the first bad line in file order is reported. Within a
    line the checks run in this order: field count, date, numeric value,
    empty ``pm_name``, finite value, ``network_id`` usable as a directory
    name. Blank lines are skipped but counted. Each distinct date string is
    parsed once.
    """
    path = Path(path)
    linenos, widths, coded, value_text = _columns(path)
    (networks, network), (ports, port), (facilities, facility), (day_table, day_code), (pm_names, pm) = coded
    # Only the rows before the first wrong-width one can hold an earlier error.
    n_rows = len(value_text)

    day = np.array([_ordinal(text) for text in day_table], dtype=np.int64)[day_code]
    try:
        value = np.fromiter(map(float, value_text), dtype=np.float64, count=n_rows)
        not_numeric = np.zeros(n_rows, dtype=bool)
    except ValueError:
        parsed = [_to_float(text) for text in value_text]
        not_numeric = np.array([v is None for v in parsed], dtype=bool)
        value = np.array([np.nan if v is None else v for v in parsed], dtype=np.float64)
    empty_pm = np.array([not name for name in pm_names], dtype=bool)[pm]
    bad_network = np.array([_unusable_network_id(name) for name in networks], dtype=bool)[network]

    # (failing rows, message) per check, in the order a line is checked.
    checks = [
        (day < 0, lambda i: f"malformed date {day_table[day_code[i]]!r}"),
        (not_numeric, lambda i: f"non-numeric value {value_text[i]!r} for {pm_names[pm[i]]}"),
        (empty_pm, lambda i: "pm_name must be non-empty"),
        (
            ~np.isfinite(value),
            lambda i: f"pm_value for {pm_names[pm[i]]} on {date.fromordinal(int(day[i]))} is not finite",
        ),
        (bad_network, lambda i: f"network_id {networks[network[i]]!r} cannot name a workspace directory"),
    ]
    (bad,) = np.nonzero(np.logical_or.reduce([failing for failing, _ in checks]))
    if bad.size:
        i = bad[0]
        message = next(explain(i) for failing, explain in checks if failing[i])
        raise IngestError(f"{path}:{linenos[i]}: {message}")
    if n_rows < len(widths):
        raise IngestError(
            f"{path}:{linenos[n_rows]}: expected {len(CSV_HEADER)} fields, got {widths[n_rows]}"
        )

    return PmColumns(
        networks=networks,
        ports=ports,
        facilities=facilities,
        pm_names=pm_names,
        network=network,
        port=port,
        facility=facility,
        pm=pm,
        day=day,
        value=value,
    )


def _first_seen(codes: np.ndarray) -> list[int]:
    """The distinct codes in the order of their first row."""
    distinct, first_row = np.unique(codes, return_index=True)
    return distinct[np.argsort(first_row)].tolist()


def build_schema(cols: PmColumns, protocol_indicators: Iterable[str] = ()) -> FeatureSchema:
    """Derive a schema from observed rows.

    Numeric features are the sorted union of observed PM names with the
    label sources auto-included; one-hot columns are the sorted distinct
    facility types. Indicators must be part of the numeric union.
    """
    if not len(cols):
        raise SchemaError("cannot build a schema from an empty record stream")
    pm_names = {cols.pm_names[c] for c in np.unique(cols.pm).tolist()}
    pm_names.update((UAS, HCCS))
    facilities = {cols.facilities[c] for c in np.unique(cols.facility).tolist()}
    return FeatureSchema(
        numeric_features=tuple(sorted(pm_names)),
        onehot_features=tuple(sorted(facilities)),
        protocol_indicators=tuple(protocol_indicators),
    )


def merge_to_port_level(cols: PmColumns, schema: FeatureSchema) -> PortSeries:
    """Max-merge facility rows into one block of gap-free per-port daily series.

    Per (port, day, feature) the merged value is the maximum over all
    facility instances reporting it that day; among equal maxima (0.0 and
    -0.0 compare equal) the first row wins. Entries nobody reported stay
    absent (NaN). Merging is total: duplicates and conflicts never error.
    Ports are sorted by (network_id, port_id).
    """
    n_numeric = schema.n_numeric
    column_of = np.zeros(len(cols.pm_names), dtype=np.int64)
    for code in _first_seen(cols.pm):
        column_of[code] = schema.numeric_index(cols.pm_names[code])
    onehot_of = np.zeros(len(cols.facilities), dtype=np.int64)
    for code in _first_seen(cols.facility):
        name = cols.facilities[code]
        if name not in schema.onehot_features:
            raise SchemaError(f"facility {name!r} not covered by the schema")
        onehot_of[code] = schema.onehot_features.index(name)

    # Number ports by (network_id, port_id) order.
    key = cols.network * len(cols.ports) + cols.port
    keys, port_of_row = np.unique(key, return_inverse=True)
    names = [(cols.networks[k // len(cols.ports)], cols.ports[k % len(cols.ports)]) for k in keys.tolist()]
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    port_of_row = rank[port_of_row]
    names = [names[i] for i in order]

    start = np.full(len(names), np.iinfo(np.int64).max)
    np.minimum.at(start, port_of_row, cols.day)
    end = np.full(len(names), np.iinfo(np.int64).min)
    np.maximum.at(end, port_of_row, cols.day)
    n_days = end - start + 1
    offset = np.concatenate([[0], np.cumsum(n_days * n_numeric)])
    cell = (
        offset[port_of_row]
        + (cols.day - start[port_of_row]) * n_numeric
        + column_of[cols.pm]
    )
    # Sorted by cell, then by descending value; lexsort is stable, so the
    # first row of each cell is its first-seen maximum.
    by_cell = np.lexsort((-cols.value, cell))
    sorted_cell = cell[by_cell]
    first = np.ones(sorted_cell.size, dtype=bool)
    first[1:] = sorted_cell[1:] != sorted_cell[:-1]
    values = np.full(offset[-1], np.nan, dtype=np.float64)
    values[sorted_cell[first]] = cols.value[by_cell[first]]
    onehot = np.zeros((len(names), schema.n_onehot), dtype=np.float64)
    onehot[port_of_row, onehot_of[cols.facility]] = 1.0

    return PortSeries(
        network_id=np.array([network_id for network_id, _ in names], dtype=object),
        port_id=np.array([port_id for _, port_id in names], dtype=object),
        start_day=start,
        n_days=n_days,
        values=values.reshape(-1, n_numeric),
        onehot=onehot,
    )
