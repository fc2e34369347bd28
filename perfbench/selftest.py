"""Self-tests of the benchmark: outcome checks, sensitivity, layer
coverage, determinism, the stall guard and the missing-program guard.

Run from the repository root (about three minutes on a 2-core machine)::

    python3 -m pytest perfbench/selftest.py -q

The file name matches no test pattern, so a plain ``pytest`` run of the
repository never collects these slow, subprocess-heavy checks.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers  # noqa: E402
from perfbench.workloads import PolicyMix, WriteChurn, check  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUND = {metric["name"]: metric["bound"] for metric in SPEC["end_to_end"]}
# Fixed work per run: enough calls for a steady median, few enough to be quick.
CALLS = {"policy-mix": 220, "fleet-64": 30, "write-churn": 300}


@functools.lru_cache(maxsize=None)
def bench(workload: str, seed: int = 1, trace: int = 0, delay: str = "",
          repeat: int = 0) -> tuple:
    """Run the benchmark once per distinct argument set (``repeat`` forces a
    fresh run); returns (result dict, output lines)."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
               "--setup-reps", "1", "--calls", str(CALLS[workload])]
    if delay:
        command += ["--inject-delay", delay]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def value(workload: str, metric: str, **kwargs) -> float:
    return bench(workload, **kwargs)[0]["metrics"][metric]["value"]


def change(workload: str, metric: str, delay: str) -> float:
    """Relative change of ``metric`` when ``delay`` is injected."""
    base = value(workload, metric)
    return (value(workload, metric, delay=delay) - base) / base


# -- outcome checks ------------------------------------------------------------

@pytest.mark.parametrize("workload", ["policy-mix", "fleet-64", "write-churn"])
def test_every_outcome_is_checked_and_matches(workload):
    result, lines = bench(workload)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= CALLS[workload] * (64 if workload == "fleet-64" else 0.8)
    assert set(result["metrics"]) == set(BOUND)
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_write_churn_observes_denies_after_writes():
    line = next(line for line in bench("write-churn")[1] if line.startswith("failed_ratio"))
    denies = int(line.split("; ")[1].split()[0])
    assert denies > 0


def test_checker_catches_a_wrong_outcome(tmp_path):
    """A read the model expects to be denied (the client is marked suspended
    without the registry being told) is granted by the program, and the
    op's check reports it."""
    workload = WriteChurn(seed=3, scratch=tmp_path)
    workload.setup()
    try:
        assert workload.run(("read", 2, 1)).failed == 0
        workload.suspended[2] = None
        outcome = workload.run(("read", 2, 1))
        assert outcome.failed == 1 and "expected deny" in outcome.problems[0]
    finally:
        workload.teardown()


def test_checker_rejects_a_wrong_literal():
    class Result:
        granted = True
        failure_kind = ""
        goal = "borrow(book1, \"Client1\")"
        answers = [("borrow(book2, \"Client1\")", {})]

    assert check(Result(), ['borrow(book1, "Client1")'])
    assert check(Result(), None)


# -- sensitivity ---------------------------------------------------------------
# A fixed delay on one layer's entry points must move the metric that layer
# predicts past its bound on the predicted workload.  Where a workload
# bypasses the layer, the same delay must move it less.

def test_solver_delay_moves_policy_mix_calls():
    delay = "datalog.solve=0.1"
    assert change("policy-mix", "call_p50_ms", delay) > BOUND["call_p50_ms"]
    assert -change("policy-mix", "neg_per_s", delay) > BOUND["neg_per_s"] / 2
    # fleet-64 is not a bypass: each pair still runs ~8 solver calls.
    assert change("fleet-64", "call_p50_ms", delay) > BOUND["call_p50_ms"]


def test_event_loop_delay_moves_fleet_rounds():
    delay = "runtime.loop=50"
    assert change("fleet-64", "call_p50_ms", delay) > BOUND["call_p50_ms"]
    assert -change("fleet-64", "neg_per_s", delay) > BOUND["neg_per_s"] / 2


def test_store_write_delay_moves_write_churn_only():
    delay = "storage.write=0.02"
    assert -change("write-churn", "neg_per_s", delay) > BOUND["neg_per_s"]
    assert change("write-churn", "call_p90_ms", delay) > BOUND["call_p90_ms"]
    # policy-mix has no stores: the delay never fires there.
    assert abs(change("policy-mix", "neg_per_s", delay)) < BOUND["neg_per_s"]


def test_keygen_delay_moves_fleet_setup_most():
    # 40 ms, not less: the busy-wait is fixed wall time while set-up time
    # grows with host load, and 20 ms moved a loaded run by only 22%.
    delay = "crypto.keygen=40"
    fleet = value("fleet-64", "setup_s", delay=delay) - value("fleet-64", "setup_s")
    mix = value("policy-mix", "setup_s", delay=delay) - value("policy-mix", "setup_s")
    assert change("fleet-64", "setup_s", delay) > BOUND["setup_s"]
    # ~190 keys against ~55: the absolute move on policy-mix is far smaller.
    assert mix < fleet / 2


# -- layer coverage ------------------------------------------------------------

def test_every_layer_is_reached_by_some_workload():
    seen = set()
    for workload in CALLS:
        result, lines = bench(workload, trace=1)
        assert result["correct"], lines
        calls = json.loads(next(line for line in lines
                                if line.startswith("layer calls in timed phase: "))
                           .split(": ", 1)[1])
        seen |= {layer for layer, count in calls.items() if count}
        assert "unattributed_ms_per_neg" in result["metrics"]
    assert seen == set(layers.LAYERS)


def test_missing_layer_is_reported():
    table = {"datalog.solve": [3, 3, 10, 10], "net.encode": [0, 0, 0, 0]}
    assert layers.missing_layers(table, ("datalog", "net", "storage")) == ["net", "storage"]


# -- determinism ---------------------------------------------------------------

DETERMINISTIC = ("sim_ms_p50", "sim_ms_p90", "bytes_per_neg", "msgs_per_neg")
COUNTED = ("crypto.verify_calls_per_neg", "datalog.solve_calls_per_neg",
           "net.transmissions_per_neg", "net.retries_per_neg",
           "runtime.events_per_neg", "storage.writes_per_neg")


@pytest.mark.parametrize("workload", ["policy-mix", "fleet-64", "write-churn"])
def test_same_seed_same_simulated_outcome(workload):
    first = bench(workload, seed=5)[0]["metrics"]
    second = bench(workload, seed=5, repeat=1)[0]["metrics"]
    for metric in DETERMINISTIC:
        assert first[metric]["value"] == second[metric]["value"], metric
    traced = [bench(workload, seed=5, trace=1, repeat=repeat) for repeat in (0, 1)]
    for metric in COUNTED:
        assert (traced[0][0]["metrics"][metric]["value"]
                == traced[1][0]["metrics"][metric]["value"]), metric
    calls = [next(line for line in lines if line.startswith("layer calls"))
             for _result, lines in traced]
    assert calls[0] == calls[1]


def test_other_seed_other_op_order():
    def first(ops, count=40):
        return [next(ops) for _ in range(count)]

    assert first(PolicyMix(1, ROOT).ops()) == first(PolicyMix(1, ROOT).ops())
    assert first(PolicyMix(1, ROOT).ops()) != first(PolicyMix(2, ROOT).ops())
    assert first(WriteChurn(1, ROOT).ops()) != first(WriteChurn(2, ROOT).ops())


# -- guards ----------------------------------------------------------------------

def test_stall_dumps_a_stack_and_fails():
    script = (
        "import sys, time; sys.path[:0] = ['src', '.']\n"
        "import perfbench.run as run, perfbench.workloads as w\n"
        "run.STALL_SECONDS = 1\n"
        "w.PolicyMix.setup = lambda self: time.sleep(30)\n"
        "run.main(['--workload', 'policy-mix', '--seconds', '1'])\n")
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "Timeout" in done.stderr and "{" not in done.stdout
    assert time.monotonic() - start < 20


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(SPEC["command"] + ["--workload", "policy-mix", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
