"""The fit-level runner: independent fits on pinned forked children give
the bytes, order and errors of fitting them one after the other here."""

from __future__ import annotations

import json
import os
import shutil
import signal
import time
from pathlib import Path

import pytest

from iloscast import cli, fits, rits
from iloscast.cli import RunConfig, cli_entry, run_stage
from iloscast.cpus import usable_cpus
from iloscast.errors import DataError, IloscastError, NumericError

needs_two_cpus = pytest.mark.skipif(usable_cpus() < 2, reason="the runner forks only with two usable CPUs")


@pytest.fixture(autouse=True)
def pinned_blas(monkeypatch):
    """The runner forks only where BLAS is pinned to one thread."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


def assert_no_child() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def small_config(root: Path) -> RunConfig:
    """Every model kind through ``finetune``, at sizes that fit in seconds."""
    return RunConfig(
        seed=20240801,
        workspace=str(root),
        synth={"ports_per_network": [20, 12, 8], "days": 90},
        train={
            "models": ["booster", "forest", "brits"],
            "grid": [5, 10],
            "brits": {"hidden_size": 4, "batch_size": 64, "max_epochs_phase1": 1, "max_epochs_phase2": 1},
        },
    )


def run_through_finetune(root: Path) -> None:
    cfg = small_config(root)
    for stage in ("synth", "ingest", "build", "train", "pretrain", "finetune"):
        run_stage(stage, cfg)


def relative_outputs(root: Path) -> list[list[str]]:
    lines = (root / "runlog.jsonl").read_text(encoding="utf-8").splitlines()
    return [[str(Path(p).relative_to(root)) for p in json.loads(line)["outputs"]] for line in lines]


def model_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted((root / "models").rglob("*")) if p.is_file()}


@needs_two_cpus
def test_runner_gives_the_bytes_and_order_of_one_cpu(tmp_path, monkeypatch):
    """A workspace built through ``finetune`` on one usable CPU, where every
    fit runs in-process with neither the split worker nor the step
    thread, and one built with the runner's children, forked while the
    step thread is alive, hold the same ``models/*`` bytes, and their run
    logs list the outputs in the same order."""
    forks = []
    real_fork = os.fork
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        patch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        run_through_finetune(tmp_path / "one")
    assert not forks
    # The runner forks while the parent's step thread is alive.
    rits._both_directions(lambda: None, lambda: None)
    assert rits._worker is not None
    with monkeypatch.context() as patch:
        patch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        run_through_finetune(tmp_path / "runner")
    # 9 train fits, 3 pretrain fits, 6 fine-tunes, each in its own child.
    assert len(forks) == 9 + 3 + 6
    one, runner = model_bytes(tmp_path / "one"), model_bytes(tmp_path / "runner")
    assert len(one) == 9 + 3 + 6 + 3 + 1 + 6  # every model.ilos, and each recurrent history.csv
    assert one == runner
    assert relative_outputs(tmp_path / "one") == relative_outputs(tmp_path / "runner")
    assert_no_child()


@pytest.fixture(scope="module")
def built_ws(tmp_path_factory) -> Path:
    """A built three-network workspace with no models."""
    root = tmp_path_factory.mktemp("fits") / "ws"
    cfg = small_config(root)
    for stage in ("synth", "ingest", "build"):
        run_stage(stage, cfg)
    return root


def train_args(built_ws: Path, tmp_path: Path) -> tuple[Path, list[str]]:
    """A private copy of ``built_ws``, and ``train`` arguments that fit one
    booster per network."""
    ws = tmp_path / "ws"
    shutil.copytree(built_ws, ws)
    cfg = small_config(ws)
    cfg.train["models"] = ["booster"]
    config = tmp_path / "run.yaml"
    cfg.dump(config)
    return ws, ["train", "--config", str(config)]


def failing_on(net: str, fail):
    """``cli.train_model`` that calls ``fail()`` instead of fitting ``net``."""
    real = cli.train_model

    def train_model(dataset, kind, scope, **options):
        if scope == net:
            fail()
        return real(dataset, kind, scope, **options)

    return train_model


@needs_two_cpus
@pytest.mark.parametrize("error, code", [(NumericError, 4), (DataError, 1)], ids=["numeric", "data"])
def test_error_in_a_child_exits_as_in_process(built_ws, tmp_path, capsys, monkeypatch, error, code):
    """A fit that raises in its child ends ``train`` with that error's exit
    code and message and no traceback; the models of the jobs before it
    are written and none after it."""
    ws, args = train_args(built_ws, tmp_path)

    def fail():
        raise error("net2 went wrong in a child")

    monkeypatch.setattr(cli, "train_model", failing_on("net2", fail))
    assert cli_entry(args) == code
    err = capsys.readouterr().err
    assert "net2 went wrong in a child" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in (ws / "models").iterdir()) == ["booster_net1"]
    assert_no_child()


@needs_two_cpus
def test_child_killed_by_a_signal_exits_1_naming_the_job(built_ws, tmp_path, capsys, monkeypatch):
    parent = os.getpid()

    def die():
        assert os.getpid() != parent, "the fit ran in the test process"
        os.kill(os.getpid(), signal.SIGKILL)

    ws, args = train_args(built_ws, tmp_path)
    monkeypatch.setattr(cli, "train_model", failing_on("net2", die))
    assert cli_entry(args) == 1
    err = capsys.readouterr().err
    assert "fit 'booster on net2'" in err
    assert "was killed by SIGKILL" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in (ws / "models").iterdir()) == ["booster_net1"]
    assert_no_child()


@needs_two_cpus
def test_results_come_in_job_order():
    """Later jobs that finish first are still taken after earlier ones."""
    jobs = [(str(k), lambda k=k: time.sleep(0.05 * (4 - k)) or k * k) for k in range(5)]
    taken = []
    assert fits.run(jobs, taken.append) == [0, 1, 4, 9, 16]
    assert taken == [0, 1, 4, 9, 16]
    assert_no_child()


@needs_two_cpus
def test_other_error_in_a_child_carries_its_traceback():
    with pytest.raises(RuntimeError, match=r"(?s)fit 'b' failed in its child process \d+:\n.*ZeroDivisionError"):
        fits.run([("a", lambda: 1), ("b", lambda: 1 / 0)])
    assert_no_child()


@needs_two_cpus
def test_interrupt_kills_and_reaps_every_child():
    """A ``KeyboardInterrupt`` while a job still runs (here, from the first
    result's ``take``) leaves no child behind."""

    def interrupt(_):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        fits.run([("quick", lambda: 1), ("slow", lambda: time.sleep(60))], interrupt)
    assert_no_child()


def raising(exc: Exception):
    def job():
        raise exc

    return job


def test_one_job_one_cpu_or_blas_threads_run_in_process(monkeypatch):
    parent = os.getpid()
    jobs = [("a", os.getpid), ("b", os.getpid)]
    assert fits.run(jobs[:1]) == [parent]
    with monkeypatch.context() as patch:
        patch.setattr(fits, "usable_cpus", lambda: 1)
        assert fits.run(jobs) == [parent, parent]
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert fits.run(jobs) == [parent, parent]
    with pytest.raises(DataError, match="raised here"):
        fits.run([("a", raising(DataError("raised here")))])


def test_child_error_keeps_class_and_message():
    """An error of a subclass re-raises as that subclass, whether the job
    ran in a child or here."""
    with pytest.raises(NumericError, match="^not finite$") as info:
        fits.run([("a", lambda: 0), ("b", raising(NumericError("not finite")))])
    assert type(info.value) is NumericError and isinstance(info.value, IloscastError)
    assert_no_child()
