from __future__ import annotations

import numpy as np
import pytest

from iloscast.errors import ConfigError, DataError
from iloscast.pipeline import build_network_datasets, ingest_csvs
from iloscast.synth import (
    GenConfig,
    dataset_stats,
    generate,
    load_ground_truth,
    network_vocabulary,
)
from iloscast.transfer import build_mega_dataset

SMALL = dict(ports_per_network=(12, 8, 6), days=90)


def test_generation_deterministic_bytes(tmp_path):
    cfg = GenConfig(seed=7, **SMALL)
    r1 = generate(cfg, tmp_path / "a")
    r2 = generate(cfg, tmp_path / "b")
    for p1, p2 in zip(r1.csv_paths, r2.csv_paths):
        assert p1.read_bytes() == p2.read_bytes()
    assert r1.truth_path.read_bytes() == r2.truth_path.read_bytes()


def test_distinct_seeds_differ(tmp_path):
    r1 = generate(GenConfig(seed=7, **SMALL), tmp_path / "a")
    r2 = generate(GenConfig(seed=8, **SMALL), tmp_path / "b")
    assert r1.csv_paths[0].read_bytes() != r2.csv_paths[0].read_bytes()


def test_no_events_means_no_positives(tmp_path):
    cfg = GenConfig(
        seed=7, degrade_fraction=0.0, unpredictable_fraction=0.0, benign_dip_fraction=0.0, **SMALL
    )
    result = generate(cfg, tmp_path)
    assert result.events == []
    ingested = ingest_csvs([str(p) for p in result.csv_paths])
    datasets, _ = build_network_datasets(ingested)
    assert all(ds.label.sum() == 0 for ds in datasets.values())


def test_infeasible_missing_rate_reported(tmp_path):
    cfg = GenConfig(seed=7, target_missing_rate=0.05, **SMALL)
    with pytest.raises(DataError, match="infeasible"):
        generate(cfg, tmp_path)


def test_config_validation():
    with pytest.raises(ConfigError, match="14 days"):
        GenConfig(seed=1, days=10)
    with pytest.raises(ConfigError, match="degrade_fraction"):
        GenConfig(seed=1, degrade_fraction=1.5)


GOLDEN_SHA256 = [
    (
        GenConfig(seed=7, ports_per_network=(20, 12, 8), days=90),
        {
            "net1.csv": "edd88afa0b3c5dad9fbbe1f4044c7d63b16f4f10449cc79527dd6a6424658251",
            "net2.csv": "fadd0378e68fc72cd6b9bcab075096bbfa9dff13cb49b5b576e1cf1faf47a2e6",
            "net3.csv": "e20c16aafe4fa45e1245fe4db1a3043e476f7589622cc4c7315d8bf5b6a5a57c",
            "ground_truth.csv": "03877e1f3368a4b2000a753bb89af9bd891833aeefcade9c0765596d2b7a816c",
        },
    ),
    (
        GenConfig(
            seed=3,
            ports_per_network=(30, 20),
            zero_suppression=False,
            target_missing_rate=0.5,
            dual_facility_prob=0.9,
        ),
        {
            "net1.csv": "1632fc3c51f76ef493cc4bc96debe5598514f1494640b88f88e8d79bb76dc308",
            "net2.csv": "877be7229a7b85b95fa00d407a44391edc6a417672290a48d61b6cdd944cbf48",
            "ground_truth.csv": "504cb8bb4101cf6b95e35d10f2b07a605b51f6197ce91967e0ffb9e761dc8676",
        },
    ),
]


@pytest.mark.parametrize("cfg, digests", GOLDEN_SHA256, ids=["default-regime", "dense-dual"])
def test_generated_bytes_match_recorded_sha256(tmp_path, cfg, digests):
    import hashlib

    result = generate(cfg, tmp_path)
    files = [*result.csv_paths, result.truth_path]
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
    assert got == digests


def test_ground_truth_round_trip(tmp_path):
    result = generate(GenConfig(seed=7, **SMALL), tmp_path)
    events = load_ground_truth(result.truth_path)
    assert len(events) == len(result.events)
    assert {(e.network_id, e.port_id) for e in events} == {
        (e.network_id, e.port_id) for e in result.events
    }
    header = result.truth_path.read_text().splitlines()[0]
    assert header == "network_id,port_id,outage_date,has_precursor"


def test_vocabulary_overlap_controls_union():
    cfg = GenConfig(seed=1, extra_features_per_network=4, feature_overlap=0.5)
    vocabs = [set(network_vocabulary(cfg, i)) for i in range(3)]
    union = set().union(*vocabs)
    core = 9
    assert len(vocabs[0]) == core + 4
    assert len(union) == core + 2 + 3 * 2  # 2 shared + 2 unique per network


def test_zero_suppression_toggle(tmp_path):
    on = generate(GenConfig(seed=7, **SMALL), tmp_path / "on")
    off = generate(GenConfig(seed=7, zero_suppression=False, **SMALL), tmp_path / "off")
    text_on = on.csv_paths[0].read_text()
    text_off = off.csv_paths[0].read_text()
    assert text_off.count(",UAS,0\n") > 0  # explicit zeros emitted
    assert text_on.count(",UAS,0\n") == 0  # suppressed


def pipeline_datasets(tmp_path, cfg):
    result = generate(cfg, tmp_path)
    ingested = ingest_csvs([str(p) for p in result.csv_paths])
    datasets, audits = build_network_datasets(ingested)
    return result, ingested, datasets, audits


def test_every_precursor_outage_yields_overlapping_positive_window(tmp_path):
    cfg = GenConfig(seed=11, **SMALL)
    result, ingested, datasets, _ = pipeline_datasets(tmp_path, cfg)
    from iloscast.synth import START_DATE

    for event in result.events:
        if not event.has_precursor:
            continue
        ds = datasets[event.network_id]
        idx = np.flatnonzero(
            (ds.network == event.network_id) & (ds.port == event.port_id) & (ds.label == 1)
        )
        outage_ord = START_DATE.toordinal() + event.outage_day
        # at least one kept positive window whose input days reach into the
        # degradation ramp (present day within 7 days before the outage)
        close = [i for i in idx if 0 < outage_ord - ds.present_day[i] <= 7]
        assert close, (event.network_id, event.port_id, event.outage_day)


def test_unpredictable_positives_exist_and_look_healthy(tmp_path):
    cfg = GenConfig(seed=11, **SMALL)
    result, _, datasets, _ = pipeline_datasets(tmp_path, cfg)
    from iloscast.synth import START_DATE

    bare = [e for e in result.events if not e.has_precursor]
    assert bare
    found = 0
    for event in bare:
        ds = datasets[event.network_id]
        idx = np.flatnonzero(
            (ds.network == event.network_id) & (ds.port == event.port_id) & (ds.label == 1)
        )
        found += idx.size
    assert found > 0


def test_stats_bookkeeping_matches_audit(tmp_path):
    cfg = GenConfig(seed=11, **SMALL)
    _, _, datasets, audits = pipeline_datasets(tmp_path, cfg)
    for net, ds in datasets.items():
        kept = int(audits[net].kept.sum())
        assert dataset_stats(ds)["merged"]["samples"] == kept == ds.n


def test_merged_stats_reflect_union(tmp_path):
    cfg = GenConfig(seed=11, **SMALL)
    _, _, datasets, _ = pipeline_datasets(tmp_path, cfg)
    mega = build_mega_dataset(list(datasets.values()))
    st = dataset_stats(mega)
    per_net_rates = [b["missing_rate"] for b in st["networks"].values()]
    # union adds empty columns for single networks inside the mega view
    assert st["merged"]["features"] == mega.schema.n_numeric
    union_vocab = set().union(
        *(set(ds.schema.numeric_features) for ds in datasets.values())
    )
    assert mega.schema.n_numeric == len(union_vocab)
    assert st["merged"]["missing_rate"] >= min(per_net_rates)


def test_rates_near_targets(tmp_path):
    # the shipped defaults are calibrated against the 10% positive and 75%
    # missing regime; a small replica should stay in the broad bands
    cfg = GenConfig(seed=20240801, ports_per_network=(40, 30, 15), days=120)
    _, _, datasets, _ = pipeline_datasets(tmp_path, cfg)
    mega = build_mega_dataset(list(datasets.values()))
    st = dataset_stats(mega)["merged"]
    assert 0.07 <= st["positive_rate"] <= 0.13
    assert 0.70 <= st["missing_rate"] <= 0.80


def test_split_proportions_on_generated_data(tmp_path):
    cfg = GenConfig(seed=20240801, ports_per_network=(40, 30, 15), days=120)
    _, _, datasets, _ = pipeline_datasets(tmp_path, cfg)
    mega = build_mega_dataset(list(datasets.values()))
    n = mega.n
    fractions = [(mega.split == k).sum() / n for k in (0, 1, 2)]
    for got, want in zip(fractions, (0.70, 0.10, 0.20)):
        assert abs(got - want) <= 0.02
