"""Parse long-format PM telemetry and merge it into per-port daily series.

Input is a long-format CSV with header
``network_id,port_id,facility_type,date,pm_name,pm_value`` and ISO dates.
Several facilities may report the same PM on the same port and day; the
merge keeps the per-day maximum. Days between a port's first and last
observation are filled with all-absent rows so every series is gap-free.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from datetime import date, timedelta
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import IngestError, SchemaError
from .schema import FeatureSchema, PmRecord

CSV_HEADER = ["network_id", "port_id", "facility_type", "date", "pm_name", "pm_value"]


@dataclass(frozen=True)
class PortSeries:
    """Gap-free daily rows for one port.

    ``values`` is (n_days, n_numeric) float64 with NaN marking absent
    entries; ``onehot`` is the port's constant facility flags (1.0 where the
    facility reported on any day of the ingest window).
    """

    network_id: str
    port_id: str
    start_day: date
    values: np.ndarray
    onehot: np.ndarray

    @property
    def n_days(self) -> int:
        return self.values.shape[0]

    def day(self, row: int) -> date:
        return self.start_day + timedelta(days=row)


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
    def from_records(cls, records: Iterable[PmRecord]) -> "PmColumns":
        records = list(records)
        tables = {}
        for table, code, attr in _CODED_FIELDS:
            tables[table], tables[code] = _factorize([getattr(r, attr) for r in records])
        return cls(
            **tables,
            day=np.array([r.day.toordinal() for r in records], dtype=np.int64),
            value=np.array([r.pm_value for r in records], dtype=np.float64),
        )

    @classmethod
    def concat(cls, parts: list["PmColumns"]) -> "PmColumns":
        """The rows of every part in order, recoded into merged name tables."""
        if not parts:
            return cls.from_records([])
        fields = {}
        for table, code, _ in _CODED_FIELDS:
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

    def records(self) -> Iterator[PmRecord]:
        rows = zip(*(getattr(self, name).tolist() for name in _ROW_FIELDS))
        for network, port, facility, pm, day, value in rows:
            yield PmRecord(
                self.networks[network],
                self.ports[port],
                self.facilities[facility],
                date.fromordinal(day),
                self.pm_names[pm],
                value,
            )


#: (name table, code array, PmRecord attribute) of each string column.
_CODED_FIELDS = (
    ("networks", "network", "network_id"),
    ("ports", "port", "port_id"),
    ("facilities", "facility", "facility_type"),
    ("pm_names", "pm", "pm_name"),
)
_ROW_FIELDS = ("network", "port", "facility", "pm", "day", "value")


def _factorize(strings: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct strings in first-seen order, and each entry's code."""
    index = {s: i for i, s in enumerate(dict.fromkeys(strings))}
    codes = np.fromiter(map(index.__getitem__, strings), dtype=np.int64, count=len(strings))
    return tuple(index), codes


def _read_rows(path: Path) -> list[list[str]]:
    """Every row after the checked header; blank lines are empty rows."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise IngestError(f"{path}: empty file")
            if header != CSV_HEADER:
                raise IngestError(f"{path}: bad header {header!r}, expected {CSV_HEADER!r}")
            return list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc


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


def read_pm_csv(path: str | Path, schema_hint: FeatureSchema | None = None) -> PmColumns:
    """Parse a long-format PM CSV into columns in one pass.

    A bad line raises :class:`IngestError` naming the file and the 1-based
    line number; the first bad line in file order is reported. Within a
    line the checks run in this order: field count, date, numeric value,
    facility (only with ``schema_hint``: facilities outside its one-hot
    list are rejected), empty ``pm_name``, finite value. Blank lines are
    skipped but counted. Each distinct date string is parsed once.
    """
    path = Path(path)
    rows = _read_rows(path)
    linenos = np.arange(2, len(rows) + 2)
    if not all(rows):
        nonblank = np.fromiter(map(bool, rows), dtype=bool, count=len(rows))
        linenos = linenos[nonblank]
        rows = [row for row in rows if row]

    widths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    (wrong_width,) = np.nonzero(widths != len(CSV_HEADER))
    if wrong_width.size:
        # Only the rows before the first wrong-width one can hold an earlier error.
        rows = rows[: wrong_width[0]]
    network, port, facility, day_text, pm_name, value_text = (
        list(map(itemgetter(i), rows)) for i in range(len(CSV_HEADER))
    )

    day_table, day_code = _factorize(day_text)
    ordinals = np.array([_ordinal(text) for text in day_table], dtype=np.int64)
    day = ordinals[day_code]
    try:
        value = np.fromiter(map(float, value_text), dtype=np.float64, count=len(rows))
        not_numeric = np.zeros(len(rows), dtype=bool)
    except ValueError:
        parsed = [_to_float(text) for text in value_text]
        not_numeric = np.array([v is None for v in parsed], dtype=bool)
        value = np.array([np.nan if v is None else v for v in parsed], dtype=np.float64)
    facility_table, facility_code = _factorize(facility)
    pm_table, pm_code = _factorize(pm_name)

    unknown_facility = np.array(
        [schema_hint is not None and f not in schema_hint.onehot_features for f in facility_table],
        dtype=bool,
    )[facility_code]
    empty_pm = np.array([not name for name in pm_table], dtype=bool)[pm_code]

    # (failing rows, message) per check, in the order a line is checked.
    checks = [
        (day < 0, lambda i: f"malformed date {day_text[i]!r}"),
        (not_numeric, lambda i: f"non-numeric value {value_text[i]!r} for {pm_name[i]}"),
        (unknown_facility, lambda i: f"unknown facility {facility[i]!r}"),
        (empty_pm, lambda i: "pm_name must be non-empty"),
        (
            ~np.isfinite(value),
            lambda i: f"pm_value for {pm_name[i]} on {date.fromordinal(int(day[i]))} is not finite",
        ),
    ]
    (bad,) = np.nonzero(np.logical_or.reduce([failing for failing, _ in checks]))
    if bad.size:
        i = bad[0]
        message = next(explain(i) for failing, explain in checks if failing[i])
        raise IngestError(f"{path}:{linenos[i]}: {message}")
    if wrong_width.size:
        i = wrong_width[0]
        raise IngestError(
            f"{path}:{linenos[i]}: expected {len(CSV_HEADER)} fields, got {widths[i]}"
        )

    network_table, network_code = _factorize(network)
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


def parse_pm_csv(
    path: str | Path, schema_hint: FeatureSchema | None = None
) -> Iterator[PmRecord]:
    """Yield :class:`PmRecord` in file order.

    A record view of :func:`read_pm_csv`, which parses and checks the file
    and raises its :class:`IngestError` on the first ``next()``.
    """
    yield from read_pm_csv(path, schema_hint).records()


def _columns(records: PmColumns | Iterable[PmRecord]) -> PmColumns:
    return records if isinstance(records, PmColumns) else PmColumns.from_records(records)


def _first_seen(codes: np.ndarray) -> list[int]:
    """The distinct codes in the order of their first row."""
    distinct, first_row = np.unique(codes, return_index=True)
    return distinct[np.argsort(first_row)].tolist()


def build_schema(
    records: PmColumns | Iterable[PmRecord], protocol_indicators: Iterable[str] = ()
) -> FeatureSchema:
    """Derive a schema from observed records.

    Numeric features are the sorted union of observed PM names with the
    label sources auto-included; one-hot columns are the sorted distinct
    facility types. Indicators must be part of the numeric union.
    """
    cols = _columns(records)
    if not len(cols):
        raise SchemaError("cannot build a schema from an empty record stream")
    pm_names = {cols.pm_names[c] for c in np.unique(cols.pm).tolist()}
    pm_names.update(("UAS", "HCCS"))
    facilities = {cols.facilities[c] for c in np.unique(cols.facility).tolist()}
    return FeatureSchema(
        numeric_features=tuple(sorted(pm_names)),
        onehot_features=tuple(sorted(facilities)),
        protocol_indicators=tuple(protocol_indicators),
    )


def merge_to_port_level(
    records: PmColumns | Iterable[PmRecord], schema: FeatureSchema
) -> list[PortSeries]:
    """Max-merge facility records into gap-free per-port daily series.

    Per (port, day, feature) the merged value is the maximum over all
    facility instances reporting it that day; among equal maxima (0.0 and
    -0.0 compare equal) the first record wins. Entries nobody reported stay
    absent (NaN). Merging is total: duplicates and conflicts never error.
    Output is sorted by (network_id, port_id).
    """
    cols = _columns(records)
    if not len(cols):
        return []
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

    return [
        PortSeries(
            network_id,
            port_id,
            date.fromordinal(int(start[p])),
            values[offset[p] : offset[p + 1]].reshape(int(n_days[p]), n_numeric),
            onehot[p],
        )
        for p, (network_id, port_id) in enumerate(names)
    ]


def series_to_arrays(series: list[PortSeries]) -> tuple[dict[str, np.ndarray], dict]:
    """Pack series into container arrays plus a manifest dict."""
    arrays: dict[str, np.ndarray] = {}
    manifest_ports = []
    for i, s in enumerate(series):
        arrays[f"values_{i:05d}"] = s.values
        arrays[f"onehot_{i:05d}"] = s.onehot
        manifest_ports.append(
            {
                "network_id": s.network_id,
                "port_id": s.port_id,
                "start_day": s.start_day.isoformat(),
                "n_days": s.n_days,
            }
        )
    return arrays, {"ports": manifest_ports}


def series_from_arrays(
    arrays: dict[str, np.ndarray], meta: dict
) -> list[PortSeries]:
    out = []
    for i, p in enumerate(meta["ports"]):
        out.append(
            PortSeries(
                network_id=p["network_id"],
                port_id=p["port_id"],
                start_day=date.fromisoformat(p["start_day"]),
                values=arrays[f"values_{i:05d}"],
                onehot=arrays[f"onehot_{i:05d}"],
            )
        )
    return out
