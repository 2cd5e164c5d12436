"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
status lines. The end-to-end benchmark (criteria 7-9) runs the full
pipeline twice on the shipped seed; everything is deterministic.
"""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from iloscast.benchmark import BENCH_SEED, run_benchmark
from iloscast.missing import compute_time_gaps
from iloscast.metrics import pr_auc_truncated, pr_curve
from iloscast.pipeline import build_network_datasets, ingest_csvs
from iloscast.rits import CLASSIFIER_BLOCKS, TrainSchedule, init_brits
from iloscast.schema import FeatureSchema
from iloscast.synth import GenConfig, generate
from iloscast.trees import BoosterConfig, train_gbdt
from iloscast.windows import TRAIN, label_window, slide_windows

from conftest import make_series, start_date
from rits_reference import finite_difference_block_errors
from test_metrics import oracle_truncated_area
from test_trees import audit_booster_splits


def report(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion}: {message}")


# ---------------------------------------------------------------------------
# 1. Labeling oracle


def test_criterion_1_labeling_oracle():
    t0 = time.time()
    schema = FeatureSchema(
        numeric_features=("HCCS", "QAVG", "UAS"),
        onehot_features=("OTM",),
    )
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(1000):
        n_days = int(rng.integers(14, 19))
        # raw table: rows x {UAS, HCCS, QAVG}, sparse, zero-heavy
        table = {}
        for name in ("UAS", "HCCS", "QAVG"):
            col = []
            for _day in range(n_days):
                if rng.random() < 0.5:
                    col.append(None)
                else:
                    col.append(float(rng.integers(0, 3)))
            table[name] = col
        series = make_series(schema, n_days, fill=table, onehot=(1.0,))
        for w in slide_windows(series, schema):
            got = label_window(w).label
            # independent oracle: scan the raw future-day table directly
            p = (w.present_day - start_date(series)).days
            expect = 0
            for day in range(p + 1, p + 8):
                for name in ("UAS", "HCCS"):
                    v = table[name][day]
                    if v is not None and v > 0:
                        expect = 1
            assert got == expect
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"labeling oracle took {elapsed:.1f}s"
    report(1, f"{checked} window labels match the brute-force future scan ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. Time-gap recurrence vs closed form, all 128 mask columns


def test_criterion_2_time_gap_exhaustive():
    t0 = time.time()
    for bits in itertools.product((0, 1), repeat=7):
        mask = np.asarray(bits, dtype=np.float64).reshape(-1, 1)
        got = compute_time_gaps(mask)[:, 0].astype(int).tolist()
        expect = []
        for t in range(7):
            if t == 0:
                expect.append(0)
                continue
            gap = t  # capped by the window start
            for back in range(t - 1, -1, -1):
                if bits[back] == 1:
                    gap = t - back
                    break
            expect.append(gap)
        assert got == expect, bits
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(2, f"recurrence equals closed-form gaps on all 128 mask columns ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 3. Booster split oracle


def test_criterion_3_booster_split_oracle():
    t0 = time.time()
    rng = np.random.default_rng(303)
    cfg = BoosterConfig(n_trees=2, max_depth=3, min_child_hessian=0.5)
    splits_checked = 0
    defaults_checked = 0
    for trial in range(50):
        n = int(rng.integers(60, 201))
        d = int(rng.integers(3, 11))
        rows = rng.normal(size=(n, d))
        labels = (rows[:, 0] + 0.7 * rng.normal(size=n) > 0).astype(float)
        if trial % 2 == 1:
            rows[rng.random((n, d)) < 0.3] = np.nan  # induced absences
        model = train_gbdt(rows, labels, cfg)
        for f, thr, default_left, chosen, flipped, oracle in audit_booster_splits(
            model, rows, labels
        ):
            assert oracle is not None
            of, othr, _odef, ogain = oracle
            # the chosen split must attain the exhaustive optimum; on exact
            # gain ties between distinct splits either choice is optimal
            if (f, thr) != (of, othr):
                assert chosen == pytest.approx(ogain, rel=1e-9), (trial, f, thr, of, othr)
            else:
                assert chosen == pytest.approx(ogain, rel=1e-9)
            splits_checked += 1
            if np.isnan(rows).any():
                assert chosen >= flipped  # learned default direction is gain-optimal
                defaults_checked += 1
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"split oracle took {elapsed:.1f}s"
    report(
        3,
        f"{splits_checked} splits match exhaustive enumeration, "
        f"{defaults_checked} default directions gain-optimal ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 4. Gradient check


def test_criterion_4_gradient_check():
    t0 = time.time()
    F, H = 5, 8
    rng = np.random.default_rng(404)
    model = init_brits(F, hidden_size=H, seed=404)
    jit = np.random.default_rng(405)
    for d in (model.fwd, model.bwd):
        for arr in d.values():
            arr += jit.uniform(0.01, 0.08, size=arr.shape) * jit.choice(
                [-1.0, 1.0], size=arr.shape
            )
        np.fill_diagonal(d["feat_W"], 0.0)
    mask = (rng.random((2, 7, F)) > 0.4).astype(np.float64)
    x = np.where(mask == 1, rng.normal(size=(2, 7, F)), 0.0)
    delta = compute_time_gaps(mask)
    y = np.array([1.0, 0.0])

    worst = 0.0
    n_blocks = 0
    for phase in (1, 2):
        errors = finite_difference_block_errors(model, x, mask, delta, y, phase=phase)
        n_blocks = len(errors)
        worst = max(worst, max(errors.values()))
        assert max(errors.values()) < 1e-5, errors
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
    report(
        4,
        f"all {n_blocks} parameter blocks pass central finite differences, "
        f"worst relative error {worst:.2e} ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 5. Metric oracle


def test_criterion_5_metric_oracle():
    t0 = time.time()
    rng = np.random.default_rng(505)
    for _ in range(100):
        n = int(rng.integers(5, 80))
        scores = np.round(rng.random(n), 2)
        labels = (rng.random(n) < rng.uniform(0.1, 0.6)).astype(int)
        if labels.sum() == 0:
            labels[int(rng.integers(0, n))] = 1
        d = pr_auc_truncated(pr_curve(scores, labels))
        assert d == pytest.approx(oracle_truncated_area(scores, labels), abs=1e-12)

    # perfect classifier scores the full cap exactly
    perfect = pr_auc_truncated(
        pr_curve(np.array([0.9, 0.8, 0.3, 0.1]), np.array([1, 1, 0, 0]))
    )
    assert perfect == 0.1

    # invariance under strictly monotone score transforms
    scores = rng.random(60)
    labels = (rng.random(60) < 0.3).astype(int)
    labels[0] = 1
    base = pr_auc_truncated(pr_curve(scores, labels))
    for transform in (lambda s: 10 * s - 3, np.exp, lambda s: np.arctan(s) + s):
        assert pr_auc_truncated(pr_curve(transform(scores), labels)) == base
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(
        5,
        "truncated PR-AUC matches the integration oracle at 1e-12 on 100 "
        f"sets; perfect classifier = 0.1; monotone-transform invariant ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 6. Freeze exactness


def test_criterion_6_freeze_exactness(tmp_path):
    t0 = time.time()
    result = generate(GenConfig(seed=606, ports_per_network=(16, 10), days=90), tmp_path)
    ingested = ingest_csvs([str(p) for p in result.csv_paths])
    datasets, _ = build_network_datasets(ingested)
    from iloscast.transfer import build_mega_dataset, finetune_classifier_only

    mega = build_mega_dataset(list(datasets.values()))
    pretrained = init_brits(mega.schema.width, hidden_size=8, seed=606)

    train_idx = mega.indices(split=TRAIN, network="net1")
    n_batches = -(-train_idx.size // 16)
    epochs_needed = -(-100 // n_batches)  # >= 100 optimizer steps
    schedule = TrainSchedule(
        batch_size=16, max_epochs_phase2=epochs_needed, patience=10**6, seed=606
    )
    tuned, history = finetune_classifier_only(pretrained, mega, "net1", schedule)
    steps = len(history) * n_batches
    assert steps >= 100

    frozen_blocks = 0
    for d in ("fwd", "bwd"):
        for k in pretrained.fwd:
            before = getattr(pretrained, d)[k]
            after = getattr(tuned, d)[k]
            if k in CLASSIFIER_BLOCKS:
                assert not np.array_equal(before, after)
            else:
                assert before.tobytes() == after.tobytes()  # bit-identical
                frozen_blocks += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"freeze check took {elapsed:.1f}s"
    report(
        6,
        f"{frozen_blocks} non-classifier blocks bit-identical after "
        f"{steps} classifier-only steps ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 7-9. Seeded end-to-end benchmark, transfer direction, determinism


@pytest.fixture(scope="module")
def benchmark_first_run():
    t0 = time.time()
    result = run_benchmark(BENCH_SEED)
    result["_elapsed"] = time.time() - t0
    return result


def test_criterion_7_synthetic_benchmark(benchmark_first_run):
    r = benchmark_first_run
    elapsed = r["_elapsed"]
    assert elapsed < 15 * 60, f"benchmark took {elapsed:.0f}s"
    assert r["booster"]["overall"] >= 0.05
    assert r["brits"]["overall"] >= 0.05
    assert r["booster"]["precursor_only"] >= 0.07
    assert r["brits"]["precursor_only"] >= 0.07
    report(
        7,
        f"booster D={r['booster']['overall']:.4f} (precursor {r['booster']['precursor_only']:.4f}), "
        f"recurrent D={r['brits']['overall']:.4f} (precursor {r['brits']['precursor_only']:.4f}), "
        f"missing={r['stats']['missing_rate']:.3f}, positive={r['stats']['positive_rate']:.3f} "
        f"({elapsed:.0f}s)",
    )


def test_criterion_8_transfer_direction(benchmark_first_run):
    r = benchmark_first_run
    mega_d = r["brits_mega_on_smallest"]
    single_d = r["brits_single_on_smallest"]
    assert mega_d >= single_d - 0.005
    report(
        8,
        f"on {r['smallest_network']}: mega-pretrained D={mega_d:.4f} vs "
        f"single-network D={single_d:.4f} (margin holds)",
    )


def test_criterion_9_bitwise_determinism(benchmark_first_run):
    first = {k: v for k, v in benchmark_first_run.items() if not k.startswith("_")}
    second = run_benchmark(BENCH_SEED)
    assert first == second  # float equality, bit for bit
    report(9, "second full run reproduces every reported score bit-for-bit")
