"""Seeded end-to-end benchmark on the synthetic generator's defaults.

Runs the full pipeline (generate, ingest, build, merge, train the
sparsity-aware booster and the recurrent model, evaluate) and returns the
headline truncated PR-AUC scores. Every number is a pure function of the
seed, which the reproducibility gate exploits by running it twice.
"""

from __future__ import annotations

import tempfile
from functools import partial
from pathlib import Path

from . import fits
from .pipeline import (
    DEFAULT_GRID,
    build_network_datasets,
    evaluate_model,
    ingest_csvs,
    precursor_mask,
    train_brits_model,
    train_tree_model,
)
from .rits import TrainSchedule
from .synth import GenConfig, dataset_stats, generate
from .transfer import build_mega_dataset

BENCH_SEED = 20240801

#: Training settings frozen for the benchmark: desk-scale recurrent model
#: (hidden 96, batch 256) and the standard desk grid for the booster.
BENCH_BRITS = TrainSchedule(
    hidden_size=96,
    batch_size=256,
    max_epochs_phase1=8,
    max_epochs_phase2=12,
)


def run_benchmark(seed: int = BENCH_SEED) -> dict:
    """Full-pipeline benchmark; returns scores and dataset statistics.

    The result dict carries, per model, the overall mega-test score, the
    per-network scores, and the precursor-only subset score, plus the
    single-network-trained recurrent model's score on the smallest network
    for the transfer comparison. The generated CSVs live in a temporary
    directory until they are ingested. The three fits go to
    :func:`fits.run`; evaluation runs here.
    """
    with tempfile.TemporaryDirectory() as out_dir:
        result = generate(GenConfig(seed=seed), Path(out_dir))
        ingested = ingest_csvs([str(p) for p in result.csv_paths])
    datasets, _ = build_network_datasets(ingested)
    mega = build_mega_dataset(list(datasets.values()))
    stats = dataset_stats(mega)["merged"]
    mask = precursor_mask(mega, result.events)

    smallest = min(datasets, key=lambda net: datasets[net].n)
    booster, brits, brits_single = fits.run(
        [
            ("booster on mega", partial(train_tree_model, mega, "booster", "mega", grid=DEFAULT_GRID, seed=seed)),
            ("brits on mega", partial(train_brits_model, mega, "mega", BENCH_BRITS, seed=seed)),
            (f"brits on {smallest}", partial(train_brits_model, datasets[smallest], smallest, BENCH_BRITS, seed=seed)),
        ]
    )
    booster_report = evaluate_model(booster, mega, extra_masks={"precursor_only": mask})
    brits_report = evaluate_model(brits, mega, extra_masks={"precursor_only": mask})
    single_report = evaluate_model(brits_single, datasets[smallest])

    return {
        "seed": seed,
        "stats": {
            "samples": stats["samples"],
            "missing_rate": stats["missing_rate"],
            "positive_rate": stats["positive_rate"],
        },
        "booster": {
            "overall": booster_report["overall"],
            "per_network": booster_report["per_network"],
            "precursor_only": booster_report["subsets"]["precursor_only"],
            "best_tree_count": booster.model.config.n_trees,
        },
        "brits": {
            "overall": brits_report["overall"],
            "per_network": brits_report["per_network"],
            "precursor_only": brits_report["subsets"]["precursor_only"],
        },
        "smallest_network": smallest,
        "brits_mega_on_smallest": brits_report["per_network"][smallest],
        "brits_single_on_smallest": single_report["per_network"][smallest],
    }
