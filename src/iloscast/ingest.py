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
from itertools import count, repeat
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


def _factorize(strings: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct strings in first-seen order, and each entry's code."""
    # A string's first lookup inserts it with the next code.
    index = defaultdict(count().__next__)
    codes = np.fromiter(map(index.__getitem__, strings), dtype=np.int64, count=len(strings))
    return tuple(index), codes


def _plain_lines(text: str) -> list[str] | None:
    r"""The lines of ``text`` when splitting it at line ends and commas cuts
    it as ``csv.reader`` does, else None: a quote, a NUL, a ``\r`` outside
    ``\r\n`` or a line longer than ``csv.field_size_limit()`` is left to
    ``csv.reader``."""
    if '"' in text or "\0" in text:
        return None
    crlf = text.count("\r\n")
    if text.count("\r") != crlf:
        return None
    if crlf and crlf != text.count("\n"):
        # Both \r\n and \n end lines.
        text, crlf = text.replace("\r\n", "\n"), 0
    lines = text.split("\r\n" if crlf else "\n")
    if not lines[-1]:
        lines.pop()  # a final line end starts no record
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    return lines


def _read_records(path: Path) -> tuple[list, bool]:
    """Every record after the checked header, and whether they are text
    lines (a plain split) or ``csv.reader`` rows. Blank records are empty."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    if not text:
        raise IngestError(f"{path}: empty file")
    lines = _plain_lines(text)
    if lines is None:
        try:
            records = list(csv.reader(io.StringIO(text, newline="")))
        except csv.Error as exc:
            raise IngestError(f"cannot read {path}: {exc}") from exc
        header = records[0]
    else:
        records = lines
        header = lines[0].split(",") if lines[0] else []
    if header != CSV_HEADER:
        raise IngestError(f"{path}: bad header {header!r}, expected {CSV_HEADER!r}")
    return records[1:], lines is not None


def _columns(path: Path) -> tuple[np.ndarray, np.ndarray, list[list[str]]]:
    """The line numbers and field counts of the non-blank records after the
    header, and the six columns of the records before the first one with
    another field count."""
    rows, plain = _read_records(path)
    linenos = np.arange(2, len(rows) + 2)
    if not all(rows):
        nonblank = np.fromiter(map(bool, rows), dtype=bool, count=len(rows))
        linenos = linenos[nonblank]
        rows = [row for row in rows if row]

    n_fields = len(CSV_HEADER)
    if plain:
        widths = np.fromiter(map(str.count, rows, repeat(",")), dtype=np.int64, count=len(rows)) + 1
    else:
        widths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    (wrong_width,) = np.nonzero(widths != n_fields)
    if wrong_width.size:
        rows = rows[: wrong_width[0]]
    if not plain:
        return linenos, widths, [list(map(itemgetter(k), rows)) for k in range(n_fields)]
    # Every line left has n_fields fields, so field k of line j is flat[j * n_fields + k].
    flat = ",".join(rows).split(",") if rows else []
    return linenos, widths, [flat[k::n_fields] for k in range(n_fields)]


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
    linenos, widths, columns = _columns(path)
    network, port, facility, day_text, pm_name, value_text = columns
    # Only the rows before the first wrong-width one can hold an earlier error.
    n_rows = len(network)

    day_table, day_code = _factorize(day_text)
    ordinals = np.array([_ordinal(text) for text in day_table], dtype=np.int64)
    day = ordinals[day_code]
    try:
        value = np.fromiter(map(float, value_text), dtype=np.float64, count=n_rows)
        not_numeric = np.zeros(n_rows, dtype=bool)
    except ValueError:
        parsed = [_to_float(text) for text in value_text]
        not_numeric = np.array([v is None for v in parsed], dtype=bool)
        value = np.array([np.nan if v is None else v for v in parsed], dtype=np.float64)
    network_table, network_code = _factorize(network)
    facility_table, facility_code = _factorize(facility)
    pm_table, pm_code = _factorize(pm_name)

    empty_pm = np.array([not name for name in pm_table], dtype=bool)[pm_code]
    bad_network = np.array([_unusable_network_id(name) for name in network_table], dtype=bool)[network_code]

    # (failing rows, message) per check, in the order a line is checked.
    checks = [
        (day < 0, lambda i: f"malformed date {day_text[i]!r}"),
        (not_numeric, lambda i: f"non-numeric value {value_text[i]!r} for {pm_name[i]}"),
        (empty_pm, lambda i: "pm_name must be non-empty"),
        (
            ~np.isfinite(value),
            lambda i: f"pm_value for {pm_name[i]} on {date.fromordinal(int(day[i]))} is not finite",
        ),
        (bad_network, lambda i: f"network_id {network[i]!r} cannot name a workspace directory"),
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

    port_table, port_code = _factorize(port)
    return PmColumns(
        networks=network_table,
        ports=port_table,
        facilities=facility_table,
        pm_names=pm_table,
        network=network_code,
        port=port_code,
        facility=facility_code,
        pm=pm_code,
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
