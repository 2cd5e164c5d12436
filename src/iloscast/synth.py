"""Seeded synthetic PM telemetry emulating the production data regime.

Healthy ports report stable signal quality with zero-suppressed counters;
a configurable fraction of ports degrades (signal quality drifts down,
instability up, transient error-seconds spike) before an outage day, and a
further share of outages appears with no precursor at all, which is what
bounds achievable recall. Whole port-days are dropped at random to reach a
target missing rate. Every stream of randomness derives from
(seed, network, port), so one config always writes the same bytes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date, timedelta
from itertools import chain
from pathlib import Path
from typing import Iterator

import numpy as np

from .container import text_cells, write_csv
from .errors import ConfigError, DataError
from .ingest import CSV_HEADER

START_DATE = date(2024, 1, 1)

#: Core PM vocabulary every synthetic network reports. QAVG/QSTDEV carry
#: the degradation signature; UAS/HCCS are the label sources; TRAFFIC is
#: the protocol indicator; the rest are benign context metrics.
CORE_PMS = ("QAVG", "QSTDEV", "UAS", "HCCS", "CV", "OPR", "OPT", "INFRAMES", "TRAFFIC")
COUNTER_PMS = ("UAS", "HCCS", "CV")
PROTOCOL_INDICATORS = ("TRAFFIC",)
#: Facility types and their weights as a port's primary facility.
FACILITY_MIX = (("OTM", 0.55), ("ETH", 0.45))
#: Inclusive range of a precursor's degradation ramp, in days.
DEGRADATION_DAYS = (12, 40)

#: Columns of a port's value matrix: counters are zero-suppressed and
#: emitted by the primary facility only; secondary facilities report the
#: shifted columns 0.3 lower so dual-facility ports exercise the max-merge.
_COUNTER_COLS = [CORE_PMS.index(pm) for pm in COUNTER_PMS]
_SHIFTED_COLS = [CORE_PMS.index(pm) for pm in ("QAVG", "OPR", "OPT")]


@dataclass(frozen=True)
class GenConfig:
    seed: int
    ports_per_network: tuple[int, ...] = (150, 110, 40)
    days: int = 120
    dual_facility_prob: float = 0.15
    extra_features_per_network: int = 4
    feature_overlap: float = 0.5
    target_missing_rate: float = 0.75
    degrade_fraction: float = 0.62
    unpredictable_fraction: float = 0.3
    benign_dip_fraction: float = 0.12
    zero_suppression: bool = True

    def __post_init__(self) -> None:
        if self.days < 14:
            raise ConfigError("need at least 14 days to form one window")
        for name in (
            "dual_facility_prob",
            "feature_overlap",
            "target_missing_rate",
            "degrade_fraction",
            "unpredictable_fraction",
            "benign_dip_fraction",
        ):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        if not self.ports_per_network:
            raise ConfigError("ports_per_network must list at least one network")
        if min(self.ports_per_network) < 1:
            raise ConfigError(
                f"ports_per_network must be at least 1 per network, got {list(self.ports_per_network)}"
            )


@dataclass(frozen=True)
class OutageEvent:
    network_id: str
    port_id: str
    outage_day: int  # 0-based day index
    has_precursor: bool

    def outage_date(self) -> date:
        return START_DATE + timedelta(days=self.outage_day)


@dataclass
class GenResult:
    csv_paths: list[Path]
    truth_path: Path
    events: list[OutageEvent]
    summary: dict


def network_vocabulary(cfg: GenConfig, net_idx: int) -> tuple[str, ...]:
    """Core PMs plus extras; a ``feature_overlap`` share of the extras is
    common to all networks, the rest is network-specific."""
    n_shared = round(cfg.feature_overlap * cfg.extra_features_per_network)
    shared = [f"PMS{j:02d}" for j in range(n_shared)]
    unique = [
        f"PMU{net_idx}{j:02d}" for j in range(cfg.extra_features_per_network - n_shared)
    ]
    return CORE_PMS + tuple(shared) + tuple(unique)


def _port_events(cfg: GenConfig, rng: np.random.Generator) -> str | None:
    """Draw the port's event kind: precursor outage, bare outage, or none."""
    if cfg.unpredictable_fraction >= 1.0:
        bare_share = 0.0 if cfg.degrade_fraction == 0 else 1.0 - cfg.degrade_fraction
        return "bare" if rng.random() < bare_share else None
    # Share of ports with a precursor-free outage, chosen so the requested
    # fraction of all outages lacks a precursor.
    bare_share = (
        cfg.degrade_fraction
        * cfg.unpredictable_fraction
        / (1.0 - cfg.unpredictable_fraction)
    )
    u = rng.random()
    if u < cfg.degrade_fraction:
        return "precursor"
    if u < cfg.degrade_fraction + bare_share:
        return "bare"
    return None


@dataclass
class _PortDraft:
    """Pre-drop values plus bookkeeping for pass two."""

    network_id: str
    port_id: str
    facilities: list[str]
    values: np.ndarray  # (days, len(vocab)) in vocabulary order; NaN = not emitted
    exempt_days: list[int]
    event: OutageEvent | None


def _synthesize_port(
    cfg: GenConfig, net_idx: int, port_idx: int, vocab: tuple[str, ...]
) -> _PortDraft:
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, net_idx, port_idx, 1]))
    days = cfg.days
    network_id = f"net{net_idx + 1}"
    port_id = f"p{port_idx:04d}"

    names = [f for f, _ in FACILITY_MIX]
    weights = np.array([w for _, w in FACILITY_MIX], dtype=np.float64)
    weights /= weights.sum()
    primary = str(rng.choice(names, p=weights))
    facilities = [primary]
    if rng.random() < cfg.dual_facility_prob:
        others = [f for f in names if f != primary]
        facilities.append(str(rng.choice(others)))

    qavg_base = rng.normal(13.0, 0.5)
    qstdev_base = rng.uniform(0.2, 0.4)
    opr_base = rng.normal(-5.0, 0.8)
    opt_base = rng.normal(-2.0, 0.5)
    frames_base = rng.uniform(1e6, 5e7)

    qavg = qavg_base + rng.normal(0.0, 0.15, size=days)
    qstdev = qstdev_base + np.abs(rng.normal(0.0, 0.03, size=days))
    opr = opr_base + rng.normal(0.0, 0.1, size=days)
    opt = opt_base + rng.normal(0.0, 0.1, size=days)
    inframes = frames_base * rng.uniform(0.8, 1.2, size=days)
    traffic = np.ones(days)
    cv = np.where(rng.random(days) < 0.03, rng.integers(1, 50, size=days).astype(float), 0.0)
    uas = np.zeros(days)
    hccs = np.zeros(days)

    exempt = [0, days - 1]
    event: OutageEvent | None = None
    kind = _port_events(cfg, rng)
    if kind is not None and days >= 30:
        outage = int(rng.integers(20, days - 7))
        uas[outage] = float(rng.integers(3600, 40000))
        exempt.append(outage)
        event = OutageEvent(network_id, port_id, outage, has_precursor=(kind == "precursor"))
        if kind == "precursor":
            ramp_len = int(rng.integers(DEGRADATION_DAYS[0], DEGRADATION_DAYS[1] + 1))
            ramp_len = min(ramp_len, outage - 1)
            start = outage - ramp_len
            progress = np.arange(1, ramp_len + 1) / ramp_len
            amp_q = rng.uniform(1.5, 3.5)
            amp_s = rng.uniform(0.5, 1.4)
            qavg[start:outage] -= amp_q * progress
            qstdev[start:outage] += amp_s * progress
            # Transient error-seconds with rising probability near the outage.
            spike_span = min(14, ramp_len)
            for k in range(spike_span):
                day = outage - spike_span + k
                p_spike = 0.12 + 0.38 * (k + 1) / spike_span
                if rng.random() < p_spike:
                    hccs[day] = float(rng.integers(1, 61))
            hccs[outage] = float(rng.integers(30, 61))
            qavg[outage] = qavg_base - amp_q - 1.0
            # Witness day: one clean pre-outage present day is always
            # collectable so the outage has at least one usable window.
            witness = outage - 4
            hccs[witness] = 0.0
            exempt.append(witness)

    if kind is None and rng.random() < cfg.benign_dip_fraction and days >= 40:
        # Degradation-shaped transient that recovers without an outage:
        # the hard negatives that keep precision away from a free ceiling.
        dip_len = int(rng.integers(6, 14))
        dip_start = int(rng.integers(10, days - dip_len - 10))
        dip_amp = rng.uniform(0.8, 2.2)
        shape = np.sin(np.linspace(0.0, np.pi, dip_len))
        qavg[dip_start : dip_start + dip_len] -= dip_amp * shape
        qstdev[dip_start : dip_start + dip_len] += 0.4 * dip_amp * shape

    extras = [
        rng.normal(50.0, 10.0) + rng.normal(0.0, 2.0, size=days)
        for _ in vocab[len(CORE_PMS) :]
    ]
    values = np.column_stack([qavg, qstdev, uas, hccs, cv, opr, opt, inframes, traffic, *extras])
    if cfg.zero_suppression:
        counters = values[:, _COUNTER_COLS]
        values[:, _COUNTER_COLS] = np.where(counters > 0, counters, np.nan)

    return _PortDraft(
        network_id=network_id,
        port_id=port_id,
        facilities=facilities,
        values=values,
        exempt_days=exempt,
        event=event,
    )


def _apply_day_drops(cfg: GenConfig, drafts: list[list[_PortDraft]]) -> float:
    """Drop whole port-days at random to close the gap to the target
    missing rate; returns the drop probability used."""
    ports = [draft for net_drafts in drafts for draft in net_drafts]
    total_cells = sum(draft.values.size for draft in ports)
    observed = sum(int(np.count_nonzero(~np.isnan(draft.values))) for draft in ports)
    intrinsic = 1.0 - observed / total_cells
    if intrinsic > cfg.target_missing_rate:
        raise DataError(
            f"target missing rate {cfg.target_missing_rate:.2f} infeasible: "
            f"zero-suppression alone leaves {intrinsic:.2f} missing"
        )
    drop_p = (cfg.target_missing_rate - intrinsic) / (1.0 - intrinsic)
    for net_idx, net_drafts in enumerate(drafts):
        for port_idx, draft in enumerate(net_drafts):
            rng = np.random.default_rng(
                np.random.SeedSequence([cfg.seed, net_idx, port_idx, 2])
            )
            dropped = rng.random(cfg.days) < drop_p
            dropped[draft.exempt_days] = False
            draft.values[dropped] = np.nan
    return drop_p


TRUTH_HEADER = ("network_id", "port_id", "outage_date", "has_precursor")


def _pm_lines(
    cfg: GenConfig, net_drafts: list[_PortDraft], vocab: tuple[str, ...]
) -> Iterator[list[str]]:
    """One network's PM CSV lines, a list per port: the observed cells in
    day × facility × PM order."""
    # Each line joins a "network,port,facility," head, a "date,pm," middle
    # and the value; heads and middles are built once.
    dates = [(START_DATE + timedelta(days=day)).isoformat() for day in range(cfg.days)]
    pm_cells = text_cells(vocab)
    middles = np.array([f"{d},{pm}," for d in dates for pm in pm_cells], dtype=object).reshape(cfg.days, -1)
    # Row f is added to facility f's values. The primary's 0.0 also turns
    # a -0.0 into 0.0, which would otherwise print as "-0".
    offsets = np.zeros((len(FACILITY_MIX), len(vocab)))
    offsets[1:, _SHIFTED_COLS] = -0.3
    for draft in net_drafts:
        emit = np.repeat(~np.isnan(draft.values)[:, None, :], len(draft.facilities), axis=1)
        emit[:, 1:, _COUNTER_COLS] = False
        day, fac, pm = np.nonzero(emit)
        values = draft.values[day, pm] + offsets[fac, pm]
        net, port, *facilities = text_cells([draft.network_id, draft.port_id, *draft.facilities])
        heads = np.array([f"{net},{port},{f}," for f in facilities], dtype=object)
        columns = (heads[fac].tolist(), middles[day, pm].tolist(), values.tolist())
        yield [f"{h}{m}{v:.6g}" for h, m, v in zip(*columns)]


def generate(cfg: GenConfig, out_dir: str | Path) -> GenResult:
    """Write one ingest CSV per network plus the ground-truth event log.

    Output is byte-identical across runs with the same config: per-port
    randomness derives from (seed, network, port).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    vocabs = [network_vocabulary(cfg, i) for i in range(len(cfg.ports_per_network))]
    drafts = [
        [_synthesize_port(cfg, net_idx, p, vocab) for p in range(n_ports)]
        for net_idx, (vocab, n_ports) in enumerate(zip(vocabs, cfg.ports_per_network))
    ]
    events = [d.event for net_drafts in drafts for d in net_drafts if d.event is not None]

    drop_p = _apply_day_drops(cfg, drafts)

    csv_paths: list[Path] = []
    for net_idx, (net_drafts, vocab) in enumerate(zip(drafts, vocabs)):
        path = out_dir / f"net{net_idx + 1}.csv"
        write_csv(path, CSV_HEADER, chain.from_iterable(_pm_lines(cfg, net_drafts, vocab)))
        csv_paths.append(path)

    truth_path = out_dir / "ground_truth.csv"
    truth = sorted(events, key=lambda e: (e.network_id, e.port_id))
    ids = text_cells(name for ev in truth for name in (ev.network_id, ev.port_id))
    write_csv(
        truth_path,
        TRUTH_HEADER,
        (
            f"{net},{port},{ev.outage_date().isoformat()},{int(ev.has_precursor)}"
            for ev, net, port in zip(truth, ids[0::2], ids[1::2])
        ),
    )

    summary = {
        "networks": len(cfg.ports_per_network),
        "ports": sum(cfg.ports_per_network),
        "days": cfg.days,
        "outages": len(events),
        "precursor_outages": sum(1 for e in events if e.has_precursor),
        "day_drop_probability": drop_p,
    }
    return GenResult(csv_paths=csv_paths, truth_path=truth_path, events=events, summary=summary)


def load_ground_truth(path: str | Path) -> list[OutageEvent]:
    """Read ``ground_truth.csv``; :class:`DataError` names the path of a
    file that cannot be read, and the line of a bad header, date, precursor
    flag or unreadable field."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = fh.readlines()
    except OSError as exc:  # a directory in its place, say
        raise DataError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    reader = csv.DictReader(lines)
    try:
        if tuple(reader.fieldnames or ()) != TRUTH_HEADER:
            raise DataError(f"{path}:1: header {reader.fieldnames} is not {list(TRUTH_HEADER)}")
        events = []
        for row in reader:
            where = f"{path}:{reader.line_num}"
            try:
                outage = date.fromisoformat(row["outage_date"])
            except (TypeError, ValueError):
                raise DataError(f"{where}: bad outage_date {row['outage_date']!r}") from None
            if row["has_precursor"] not in ("0", "1"):
                raise DataError(f"{where}: has_precursor {row['has_precursor']!r} is not 0 or 1")
            events.append(
                OutageEvent(
                    network_id=row["network_id"],
                    port_id=row["port_id"],
                    outage_day=(outage - START_DATE).days,
                    has_precursor=row["has_precursor"] == "1",
                )
            )
    except csv.Error as exc:  # a field longer than csv.field_size_limit(), say
        # DictReader.line_num is the last row read; its reader's counts the failing one.
        raise DataError(f"{path}:{reader.reader.line_num}: {exc}") from None
    return events


def dataset_stats(dataset) -> dict:
    """Table-style summary: per network and merged counts, missing rate
    over numeric window entries, and positive sample rate."""
    k = dataset.schema.n_numeric

    def block(idx: np.ndarray) -> dict:
        x = dataset.x[idx][:, :, :k]
        day_lo = int(dataset.present_day[idx].min())
        day_hi = int(dataset.present_day[idx].max())
        return {
            "samples": int(idx.size),
            "ports": int(len(set(zip(dataset.network[idx], dataset.port[idx])))),
            "days": day_hi - day_lo + 1,
            "features": k,
            "missing_rate": float(np.isnan(x).mean()),
            "positive_rate": float(dataset.label[idx].mean()),
        }

    out = {"networks": {}, "merged": block(np.arange(dataset.n))}
    for net in dataset.networks:
        out["networks"][net] = block(dataset.indices(network=net))
    return out
