from __future__ import annotations

from dataclasses import fields
from datetime import date

import numpy as np
import pytest

from iloscast.ingest import PortSeries
from iloscast.schema import FeatureSchema


@pytest.fixture
def schema() -> FeatureSchema:
    """Five numeric features (incl. the label sources and one indicator)
    plus two one-hot facility columns."""
    return FeatureSchema(
        numeric_features=("HCCS", "QAVG", "TRAFFIC", "UAS", "X1"),
        onehot_features=("ETH", "OTM"),
        protocol_indicators=("TRAFFIC",),
    )


def make_series(
    schema: FeatureSchema,
    n_days: int,
    network_id: str = "net1",
    port_id: str = "p1",
    start: date = date(2024, 1, 1),
    fill: dict[str, list[float | None]] | None = None,
    onehot: tuple[float, ...] | None = None,
) -> PortSeries:
    """A one-port series block from per-feature day lists (None = absent).

    Features not named in ``fill`` stay absent everywhere.
    """
    values = np.full((n_days, schema.n_numeric), np.nan)
    for name, column in (fill or {}).items():
        j = schema.numeric_index(name)
        for day, v in enumerate(column):
            if v is not None:
                values[day, j] = v
    oh = np.asarray(onehot if onehot is not None else (0.0, 1.0), dtype=np.float64)
    return one_port(network_id, port_id, start, values, oh)


def one_port(
    network_id: str, port_id: str, start: date, values: np.ndarray, onehot: np.ndarray
) -> PortSeries:
    """The block of one port with (n_days, n_numeric) ``values``."""
    return PortSeries(
        network_id=np.array([network_id], dtype=object),
        port_id=np.array([port_id], dtype=object),
        start_day=np.array([start.toordinal()], dtype=np.int64),
        n_days=np.array([len(values)], dtype=np.int64),
        values=values,
        onehot=np.asarray(onehot, dtype=np.float64)[None],
    )


def stack_series(blocks: list[PortSeries]) -> PortSeries:
    """The ports of ``blocks`` in turn, as one block."""
    return PortSeries(*(np.concatenate([getattr(b, f.name) for b in blocks]) for f in fields(PortSeries)))


def port_rows(series: PortSeries, p: int) -> np.ndarray:
    """The (n_days, n_numeric) rows of port ``p`` of a block."""
    first = int(series.n_days[:p].sum())
    return series.values[first : first + int(series.n_days[p])]


def start_date(series: PortSeries, p: int = 0) -> date:
    """The first day of port ``p`` of a block."""
    return date.fromordinal(int(series.start_day[p]))


def healthy_fill(schema: FeatureSchema, n_days: int) -> dict[str, list[float]]:
    """Traffic-carrying, fully observed benign values for every numeric
    feature except the counters (left at zero/absent by callers)."""
    return {
        "QAVG": [13.0] * n_days,
        "TRAFFIC": [1.0] * n_days,
        "X1": [5.0] * n_days,
    }
