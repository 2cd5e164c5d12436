"""The three benchmark workloads: their set-up, timed operation and checks.

Every workload is closed loop: one caller, and the next operation starts
when the previous one returns. Settings come from the acceptance run in
``iloscast.benchmark`` (``BENCH_SEED``, ``BENCH_BRITS``) and from
``iloscast.pipeline.DEFAULT_GRID``; only the number of boosting rounds and
recurrent epochs is cut, so that one operation fits in a run.

The program's functions are always called through their module (for
example ``pipeline.ingest_csvs``), so that a traced pass sees the timing
wrappers that ``spans.Tracer.patched`` puts there.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import shutil
from pathlib import Path

import numpy as np
import yaml

from iloscast import cli, pipeline, synth, transfer, trees
from iloscast.benchmark import BENCH_BRITS
from iloscast.metrics import pr_curve
from iloscast.rits import TrainSchedule
from iloscast.windows import TEST, TRAIN

#: Boosting rounds are DEFAULT_GRID divided by this: (1, 2, 3, 4, 5).
#: Every round still grows a depth-6 tree over all 6.6 k training rows, so
#: the node-size mix of split search is that of the full 500-round fit.
ROUND_DIVISOR = 100
BOOSTER_GRID = tuple(k // ROUND_DIVISOR for k in pipeline.DEFAULT_GRID)

#: The acceptance run's recurrent settings cut to one epoch of the full
#: objective; early stopping (patience 5) never triggers, so every
#: operation does the same number of steps.
BRITS = dataclasses.replace(BENCH_BRITS, max_epochs_phase1=0, max_epochs_phase2=1)

#: csv_to_scores runs the generator at half the default ports per network,
#: which halves each CLI pass and keeps every network's validation split
#: supplied with positives.
CSV_PORTS = tuple(p // 2 for p in synth.GenConfig(seed=0).ports_per_network)

#: Floors of acceptance criterion 7 on the truncated PR-AUC D.
D_OVERALL_FLOOR = 0.05
D_PRECURSOR_FLOOR = 0.07


@dataclasses.dataclass
class Data:
    seed: int
    events: list
    datasets: dict
    mega: object


def make_data(seed: int, work: Path) -> Data:
    """synth -> ingest_csvs -> build_network_datasets -> build_mega_dataset."""
    gen = synth.generate(synth.GenConfig(seed=seed), work / "synth")
    ingested = pipeline.ingest_csvs([str(p) for p in gen.csv_paths])
    datasets, _ = pipeline.build_network_datasets(ingested)
    mega = transfer.build_mega_dataset(list(datasets.values()))
    return Data(seed=seed, events=gen.events, datasets=datasets, mega=mega)


def average_precision(scores: np.ndarray, labels: np.ndarray) -> tuple[float, int]:
    """Average precision over the whole PR curve, and the positive count.

    Unlike D, which stops at recall 0.1, this does not saturate.
    """
    curve = pr_curve(scores, labels)
    gained = np.diff(np.concatenate([[0.0], curve.recalls]))
    return float(np.sum(gained * curve.precisions)), curve.n_pos


def d_values(report: dict) -> dict:
    """D on the mega test split, and on its precursor-only subset."""
    return {"d_overall": report["overall"], "d_precursor": report["subsets"]["precursor_only"]}


def fit_quality(trained, data: Data, report: dict) -> dict:
    """D values, AP and the test positives AP rests on, on mega test."""
    idx = data.mega.indices(split=TEST)
    ap, n_pos = average_precision(trained.predictor(data.mega)(idx), data.mega.label[idx])
    return d_values(report) | {"ap_overall": ap, "test_positives": n_pos}


def floor_failures(q: dict) -> list[str]:
    out = []
    if not q["d_overall"] >= D_OVERALL_FLOOR:
        out.append(f"d_overall {q['d_overall']} below {D_OVERALL_FLOOR}")
    if not q["d_precursor"] >= D_PRECURSOR_FLOOR:
        out.append(f"d_precursor {q['d_precursor']} below {D_PRECURSOR_FLOOR}")
    return out


def split_hash(ensemble) -> str:
    """sha256 over every tree's (feature, threshold, default_left) arrays."""
    digest = hashlib.sha256()
    for tree in ensemble.trees:
        for arr in (tree.feature, tree.threshold, tree.default_left):
            digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


@contextlib.contextmanager
def keep_returns(owner, attr: str):
    """Record what ``owner.attr`` returns while the block runs."""
    original = vars(owner)[attr]
    returned: list = []

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        returned.append(result)
        return result

    setattr(owner, attr, recording)
    try:
        yield returned
    finally:
        setattr(owner, attr, original)


class Workload:
    name = ""
    #: unit of the work counted by ``work_per_s``
    work_unit = ""

    def setup(self, seed: int, work: Path, tracer=None):
        """Build the operation's inputs; ``tracer`` opens CLI stage spans."""
        raise NotImplementedError

    def op(self, state, tracer=None):
        """The timed operation; returns what the checks need."""
        raise NotImplementedError

    def work(self, state, result) -> float:
        raise NotImplementedError

    def describe(self, state) -> dict:
        """The input size the operation ran at."""
        raise NotImplementedError

    def check(self, state, result, reference: dict) -> list[str]:
        """Failed checks of one operation, computed untimed."""
        raise NotImplementedError

    def quality(self, state, result) -> dict:
        """Quality figures of one operation, printed but not bounded.

        Computed once per run, from the last operation, because the
        recurrent model's AP needs another pass over the test windows.
        """
        return {}


def describe_data(data: Data) -> dict:
    mega = data.mega
    return {
        "ports": len(set(zip(mega.network.tolist(), mega.port.tolist()))),
        "days": synth.GenConfig(seed=data.seed).days,
        "windows": mega.n,
        "train_rows": int(mega.indices(split=TRAIN).size),
        "columns": mega.schema.width * mega.past_days,
        "absent_share": float(np.isnan(mega.x[..., : mega.schema.n_numeric]).mean()),
    }


class BoosterFit(Workload):
    name = "booster_fit"
    work_unit = "boosting rounds"

    def setup(self, seed, work, tracer=None):
        return make_data(seed, work)

    def op(self, data, tracer=None):
        with keep_returns(trees, "train_gbdt") as fitted:
            trained = pipeline.train_tree_model(
                data.mega, "booster", "mega", grid=BOOSTER_GRID, seed=data.seed
            )
        mask = pipeline.precursor_mask(data.mega, data.events)
        report = pipeline.evaluate_model(
            trained, data.mega, extra_masks={"precursor_only": mask}
        )
        return trained, fitted[0], report

    def work(self, data, result):
        return len(result[1].trees)

    def describe(self, data):
        return describe_data(data) | {"rounds": BOOSTER_GRID[-1]}

    def check(self, data, result, reference):
        trained, full, report = result
        failures = floor_failures(d_values(report))
        expected = reference.get("booster_fit", {}).get(str(data.seed))
        got = split_hash(full)
        if got != expected:
            failures.append(f"split hash {got} != recorded {expected}")
        return failures

    def quality(self, data, result):
        trained, _, report = result
        return fit_quality(trained, data, report)


class BritsFit(Workload):
    name = "brits_fit"
    work_unit = "training sample-steps"

    def setup(self, seed, work, tracer=None):
        return make_data(seed, work)

    def op(self, data, tracer=None):
        mega = data.mega
        trained = pipeline.train_brits_model(mega, "mega", BRITS, seed=data.seed)
        smallest = min(data.datasets, key=lambda net: data.datasets[net].n)
        schedule = TrainSchedule(
            batch_size=BRITS.batch_size,
            max_epochs_phase2=BRITS.max_epochs_phase2,
            patience=BRITS.patience,
            min_delta=BRITS.min_delta,
            seed=data.seed,
        )
        model, history = transfer.finetune_classifier_only(
            trained.model, mega, smallest, schedule
        )
        tuned = pipeline.TrainedModel(
            name=f"brits_mega_ft-classifier_only_{smallest}",
            kind="brits",
            scope=smallest,
            model=model,
            history=history,
        )
        mask = pipeline.precursor_mask(mega, data.events)
        report = pipeline.evaluate_model(trained, mega, extra_masks={"precursor_only": mask})
        own = mega.subset(mega.indices(network=smallest))
        tuned_report = pipeline.evaluate_model(tuned, own)
        return trained, tuned, report, tuned_report

    def work(self, data, result):
        trained, tuned, _, _ = result
        mega = data.mega
        steps = len(trained.history) * mega.indices(split=TRAIN).size
        steps += len(tuned.history) * mega.indices(split=TRAIN, network=tuned.scope).size
        return steps

    def describe(self, data):
        return describe_data(data) | {
            "epochs": [BRITS.max_epochs_phase1, BRITS.max_epochs_phase2],
            "hidden_size": BRITS.hidden_size,
        }

    def check(self, data, result, reference):
        trained, tuned, report, tuned_report = result
        failures = floor_failures(d_values(report))
        for model in (trained, tuned):
            if not model.history:
                failures.append(f"{model.name}: no training epochs ran")
            for row in model.history:
                bad = [k for k, v in row.items() if not math.isfinite(v)]
                if bad:
                    failures.append(f"{model.name} epoch {row['epoch']}: non-finite {bad}")
        if not math.isfinite(tuned_report["overall"]):
            failures.append(f"{tuned.name}: non-finite D")
        return failures

    def quality(self, data, result):
        trained, _, report, _ = result
        return fit_quality(trained, data, report)


@dataclasses.dataclass
class Workspace:
    seed: int
    root: Path
    config: Path
    csv_rows: int


class CsvToScores(Workload):
    """The operator's CLI path over a workspace, run in-process.

    Set-up trains with a short config: the booster keeps BOOSTER_GRID[-1]
    trees of the default depth and the recurrent model keeps the acceptance
    run's hidden size at its initial weights. Scoring cost depends on tree
    count, depth and hidden size, not on how well the models fit.
    """

    name = "csv_to_scores"
    work_unit = "PM CSV rows"

    def _cli(self, ws: Workspace, stage: str, tracer) -> None:
        span = tracer.span(f"cli.{stage}") if tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(io.StringIO()):
            code = cli.cli_entry([stage, "--config", str(ws.config)])
        if code != 0:
            raise RuntimeError(f"iloscast {stage} exited with code {code}")

    def setup(self, seed, work, tracer=None):
        root = work / "workspace"
        if root.exists():
            shutil.rmtree(root)
        root.mkdir(parents=True)
        config = work / "run.yaml"
        config.write_text(
            yaml.safe_dump(
                {
                    "seed": seed,
                    "workspace": str(root),
                    "synth": {"ports_per_network": list(CSV_PORTS)},
                    "train": {
                        "models": ["booster", "brits"],
                        "grid": [BOOSTER_GRID[-1]],
                        "brits": {
                            "hidden_size": BENCH_BRITS.hidden_size,
                            "batch_size": BENCH_BRITS.batch_size,
                            "max_epochs_phase1": 0,
                            "max_epochs_phase2": 0,
                        },
                    },
                }
            ),
            encoding="utf-8",
        )
        ws = Workspace(seed=seed, root=root, config=config, csv_rows=0)
        for stage in ("synth", "ingest", "build", "train"):
            self._cli(ws, stage, tracer)
        for path in sorted((root / "synth").glob("net*.csv")):
            with open(path, "rb") as fh:
                ws.csv_rows += sum(1 for _ in fh) - 1
        return ws

    def op(self, ws, tracer=None):
        for stage in ("ingest", "build", "evaluate"):
            self._cli(ws, stage, tracer)
        return None

    def work(self, ws, result):
        return ws.csv_rows

    def describe(self, ws):
        return {
            "csv_rows": ws.csv_rows,
            "ports": sum(CSV_PORTS),
            "scored_trees": BOOSTER_GRID[-1],
            "tree_depth": trees.BoosterConfig().max_depth,
            "hidden_size": BENCH_BRITS.hidden_size,
        }

    def check(self, ws, result, reference):
        failures = []
        expected = reference.get("csv_to_scores", {}).get(str(ws.seed), {})
        got = windows_hashes(ws.root)
        if got != expected:
            failures.append(f"windows.ilos sha256 {got} != recorded {expected}")
        predictions = sorted((ws.root / "eval").glob("*/predictions.csv"))
        if not predictions:
            failures.append("no predictions written")
        for path in predictions:
            try:
                scores = read_scores(path)
            except ValueError as exc:
                failures.append(f"{path.parent.name}: {exc}")
                continue
            if scores.size == 0 or not np.all(np.isfinite(scores) & (scores >= 0) & (scores <= 1)):
                failures.append(f"{path.parent.name}: scores not all finite in [0, 1]")
        return failures


def read_scores(path: Path) -> np.ndarray:
    """The score column of a predictions.csv.

    Under numpy 2 the evaluate stage writes each score as the repr of a
    numpy scalar, ``np.float64(0.25)``, instead of ``0.25``. That format is
    a defect of the evaluate stage, not of the score, so both spellings
    are read here; anything else raises ValueError.
    """
    out = []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            text = line.rstrip("\n").rsplit(",", 1)[1]
            if text.startswith("np.float64(") and text.endswith(")"):
                text = text[len("np.float64(") : -1]
            out.append(float(text))
    return np.asarray(out)


def windows_hashes(root: Path) -> dict[str, str]:
    out = {}
    for path in sorted((root / "build").glob("*/windows.ilos")):
        out[path.parent.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


WORKLOADS = {w.name: w for w in (BoosterFit(), BritsFit(), CsvToScores())}
