"""PeerTrust negotiation benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload policy-mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One invocation runs one workload in its own process, so process-wide caches
(key cache, signature cache, intern tables) start cold and ``peak_rss_mb``
belongs to that workload; ``--workload all`` runs each in a child process.
Set-up is measured ``--setup-reps`` times, in fresh processes, and the
median is reported.  The timed phase is a closed loop: the next op starts
when the previous one returns.  Every op checks its outcome.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps each
layer's entry points (see ``layers.py``) and prints per-layer metrics
instead.  The last line of standard output is one JSON object.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import faulthandler  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"

# A run that has not finished by then dumps every thread's stack and exits.
STALL_SECONDS = 170
# Minimum calls per timed phase, so p90 has at least ten samples beyond it.
MIN_CALLS = 100
MIN_TRACED_CALLS = 20

END_TO_END = (
    ("setup_s", "s"), ("neg_per_s", "1/s"),
    ("call_p50_ms", "ms"), ("call_p90_ms", "ms"),
    ("sim_ms_p50", "ms"), ("sim_ms_p90", "ms"),
    ("bytes_per_neg", "bytes"), ("msgs_per_neg", "count"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("crypto.keygen_s", "s"), ("crypto.sign_calls", "count"),
    ("crypto.verify_calls_per_neg", "count"), ("crypto.sig_cache_hit_ratio", "ratio"),
    ("credentials.verify_ms_per_neg", "ms"),
    ("datalog.parse_ms", "ms"), ("datalog.solve_self_ms_per_neg", "ms"),
    ("datalog.solve_calls_per_neg", "count"), ("datalog.table_reuse_ratio", "ratio"),
    ("negotiation.self_ms_per_neg", "ms"),
    ("net.transmissions_per_neg", "count"), ("net.encode_ms_per_neg", "ms"),
    ("net.retries_per_neg", "count"),
    ("runtime.self_ms_per_neg", "ms"), ("runtime.events_per_neg", "count"),
    ("runtime.max_queue_depth", "count"),
    ("obs.flightrec_ms_per_neg", "ms"),
    ("storage.writes_per_neg", "count"), ("storage.write_ms_per_neg", "ms"),
    ("storage.journal_bytes_per_neg", "bytes"), ("storage.recover_ms_p50", "ms"),
    ("unattributed_ms_per_neg", "ms"), ("trace_overhead_ratio", "ratio"),
)
WORKLOAD_NAMES = ("policy-mix", "fleet-64", "write-churn")

# Machine-speed normalisation.  A shared host's speed drifts by tens of
# percent over minutes, which would swamp a regression bound.  A fixed
# pure-Python kernel, independent of the program, runs between ops (after at
# every PROBE_EVERY_S of op time); every timed-phase wall time is scaled by
# KERNEL_REFERENCE_S / (mean kernel time in its window), i.e. reported at a
# reference machine speed.  Raw values are printed too.  Set-up is reported
# raw: it is mostly native big-integer arithmetic (keygen), which the kernel
# does not track, and normalising it widened its spread.
KERNEL_REFERENCE_S = 0.0005
PROBE_EVERY_S = 0.01
WINDOW_S = 1.0
_KERNEL_KEYS = tuple(f"key{i}" for i in range(97))
_KERNEL_TABLE = dict.fromkeys(_KERNEL_KEYS, 0)


def speed_probe() -> float:
    """Seconds the fixed kernel takes now.  It allocates no tracked objects
    and runs with the collector off, so the program's heap cannot leak
    into it."""
    enabled = gc.isenabled()
    gc.disable()
    table, keys = _KERNEL_TABLE, _KERNEL_KEYS
    start = time.perf_counter()
    total = 0
    for i in range(1500):
        key = keys[i % 97]
        table[key] = (table[key] + i) & 0xFFFF
        total += len(key) + (i >> 3)
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def speed_scale(samples) -> float:
    """Machine slowness against the reference (>1: slower than reference)."""
    return statistics.fmean(samples) / KERNEL_REFERENCE_S


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-reps", type=int, default=3,
                        help="set-ups measured (fresh processes); the median is reported")
    parser.add_argument("--calls", type=int, default=0,
                        help="run exactly this many ops instead of --seconds "
                             "(fixed work, for the determinism self-test)")
    parser.add_argument("--inject-delay", action="append", default=[],
                        metavar="POINT=MS",
                        help="add a fixed delay to one layer's entry points "
                             "(sensitivity self-test); POINT is one of "
                             "datalog.solve, runtime.loop, storage.write, crypto.keygen")
    parser.add_argument("--setup-only", action="store_true",
                        help="measure one set-up, print it, exit (internal)")
    return parser.parse_args(argv)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def quantile(values, q: float) -> float:
    """Inclusive-method quantile (q in (0, 1))."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def child_command(args, workload: str, *extra: str) -> list[str]:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    for delay in args.inject_delay:
        command += ["--inject-delay", delay]
    return command + list(extra)


def run_child(command: list[str]) -> dict:
    """Run one child to completion (killing it on overrun) and return the
    JSON object on its last line of output."""
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=STALL_SECONDS + 5)
    except subprocess.TimeoutExpired:
        fail(f"child overran its time limit: {' '.join(command)}")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"child exited with {done.returncode}: {' '.join(command)}")
    lines = done.stdout.strip().splitlines()
    return {"lines": lines[:-1], "result": json.loads(lines[-1])}


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------

class Phase:
    """Accounting for one timed phase.

    Op times are grouped into windows of WINDOW_S wall seconds; each
    window's times are divided by the machine-speed scale measured by the
    probes that ran inside it, so a burst of host contention is corrected
    where it happened."""

    def __init__(self) -> None:
        self.raw_call_ms: list[float] = []
        self.call_ms: list[float] = []      # machine-normalised
        self.sim_ms: list[float] = []
        self.negotiations = 0
        self.attempted = 0
        self.failed = 0
        self.denied = 0
        self.problems: list[str] = []
        self.wall_s = 0.0
        self.busy_s = 0.0                   # sum of op times, no probes
        self.norm_busy_s = 0.0              # the same, machine-normalised
        self.probes = 0
        self._window: list[tuple[float, bool]] = []
        self._kernel: list[float] = []

    def record(self, seconds: float, is_call: bool) -> None:
        self.busy_s += seconds
        if is_call:
            self.raw_call_ms.append(seconds * 1000.0)
        self._window.append((seconds, is_call))

    def probe(self) -> None:
        self._kernel.append(speed_probe())

    def close_window(self) -> None:
        if not self._window:
            return
        if not self._kernel:
            self.probe()
        scale = speed_scale(self._kernel)
        self.probes += len(self._kernel)
        for seconds, is_call in self._window:
            self.norm_busy_s += seconds / scale
            if is_call:
                self.call_ms.append(seconds * 1000.0 / scale)
        self._window, self._kernel = [], []


def timed_phase(workload, ops, seconds: float, min_calls: int, fixed_ops: int,
                tracer=None) -> Phase:
    phase = Phase()
    index = 0
    start = window_start = time.perf_counter()
    since_probe = 0.0
    for op in ops:
        now = time.perf_counter()
        if fixed_ops:
            if index >= fixed_ops:
                break
        elif (now - start >= seconds and len(phase.raw_call_ms) >= min_calls) \
                or now - start >= STALL_SECONDS - 40:
            break
        if now - window_start >= WINDOW_S:
            phase.close_window()
            window_start = now
        if tracer is not None:
            tracer.request = index
        op_start = time.perf_counter()
        try:
            outcome = workload.run(op)
        except Exception as error:  # noqa: BLE001 - counted as a failed op
            from perfbench.workloads import Outcome

            outcome = Outcome(negotiations=0, failed=1,
                              problems=[f"{op}: {type(error).__name__}: {error}"])
            phase.attempted += 1
        elapsed = time.perf_counter() - op_start
        if tracer is not None:
            tracer.request = -1
        phase.record(elapsed, outcome.is_call)
        # One probe per PROBE_EVERY_S of op time, so long ops (a fleet
        # round) get as dense a speed estimate as short ones.
        since_probe += elapsed
        while since_probe >= PROBE_EVERY_S:
            phase.probe()
            since_probe -= PROBE_EVERY_S
        phase.negotiations += outcome.negotiations
        phase.attempted += outcome.negotiations
        phase.failed += outcome.failed
        phase.denied += outcome.denied
        phase.sim_ms.extend(outcome.sim_ms)
        phase.problems.extend(outcome.problems)
        index += 1
    phase.close_window()
    phase.wall_s = time.perf_counter() - start
    return phase


def transport_totals(workload) -> dict:
    totals = {"messages": 0, "bytes": 0, "retries": 0, "events": 0, "queue": 0}
    for transport in workload.transports:
        stats = transport.stats
        totals["messages"] += stats.messages
        totals["bytes"] += stats.bytes
        totals["retries"] += stats.retries
        totals["events"] += stats.events_processed
        totals["queue"] = max(totals["queue"], stats.max_queue_depth)
    return totals


def build(args, scratch: Path, tracer=None):
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, scratch)
    workload.setup()
    if tracer is not None:
        tracer.begin_phase("warmup")
    problems = workload.warm_up()
    if problems:
        fail("warm-up outcome check failed: " + "; ".join(problems[:5]))
    return workload, time.perf_counter() - _T0


def run_workload(args) -> None:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    scratch = TMP_DIR / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        from perfbench import layers

        for spec in args.inject_delay:
            point, _, milliseconds = spec.partition("=")
            if point not in layers.DELAY_POINTS:
                fail(f"unknown delay point {point!r}")
            layers.install_delay(point, float(milliseconds))
        tracer = layers.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        workload, setup_s = build(args, scratch, tracer)
        try:
            if args.setup_only:
                print(json.dumps({"setup_s": setup_s}))
            elif tracer is None:
                measure_end_to_end(args, workload, setup_s)
            else:
                measure_layers(args, workload, tracer, layers)
        finally:
            workload.teardown()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def finish(phase: Phase, metrics: dict, correct: bool) -> None:
    for problem in phase.problems[:10]:
        print(f"mismatch: {problem}")
    ratio = phase.failed / phase.attempted if phase.attempted else 1.0
    print(f"failed_ratio {ratio:.6f} ratio  (failed {phase.failed} of {phase.attempted} "
          f"attempted; {phase.denied} expected denies observed)")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": bool(correct and phase.failed == 0 and phase.attempted > 0),
        "attempted": max(phase.attempted, 1),
        "failed": phase.failed if phase.attempted else 1,
        "metrics": metrics,
    }))


def measure_end_to_end(args, workload, setup_s: float) -> None:
    before = transport_totals(workload)
    phase = timed_phase(workload, workload.ops(), args.seconds, MIN_CALLS, args.calls)
    after = transport_totals(workload)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s]
    for _ in range(args.setup_reps - 1):
        probe = run_child(child_command(args, args.workload, "--setup-only"))
        setups.append(probe["result"]["setup_s"])
    negotiations = max(phase.negotiations, 1)
    raw = {
        "neg_per_s": phase.negotiations / phase.busy_s,
        "call_p50_ms": quantile(phase.raw_call_ms, 0.5),
        "call_p90_ms": quantile(phase.raw_call_ms, 0.9),
    }
    values = {
        "setup_s": statistics.median(setups),
        "neg_per_s": phase.negotiations / phase.norm_busy_s,
        "call_p50_ms": quantile(phase.call_ms, 0.5),
        "call_p90_ms": quantile(phase.call_ms, 0.9),
        "sim_ms_p50": quantile(phase.sim_ms, 0.5),
        "sim_ms_p90": quantile(phase.sim_ms, 0.9),
        "bytes_per_neg": (after["bytes"] - before["bytes"]) / negotiations,
        "msgs_per_neg": (after["messages"] - before["messages"]) / negotiations,
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"workload {args.workload} seed {args.seed}: {len(phase.call_ms)} calls, "
          f"{phase.negotiations} negotiations in {phase.wall_s:.3f} s "
          f"({phase.busy_s:.3f} s in ops)")
    print(f"machine speed: {phase.probes} probes, mean scale "
          f"{phase.busy_s / phase.norm_busy_s:.4f}; set-ups "
          f"{', '.join(f'{value:.3f}' for value in setups)} s; raw " + ", ".join(
              f"{name} {value:.6g}" for name, value in raw.items()))
    finish(phase, {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}, correct=True)


def measure_layers(args, workload, tracer, layers) -> None:
    from repro.crypto.rsa import SIGNATURE_CACHE_STATS
    from repro.datalog.sld import _ENGINE_OPS

    ops = workload.ops()
    half = args.seconds / 2.0
    tracer.uninstall()
    untraced = timed_phase(workload, ops, half, MIN_TRACED_CALLS, args.calls)
    engine = {name: _ENGINE_OPS.labels(name).value
              for name in ("table_reuse", "resolutions")}
    sig = (SIGNATURE_CACHE_STATS.hits, SIGNATURE_CACHE_STATS.misses)
    before = transport_totals(workload)
    journal = workload.journal_bytes()
    recoveries = len(tracer.recover_ns)
    tracer.begin_phase("timed")
    tracer.install()
    phase = timed_phase(workload, ops, half, MIN_TRACED_CALLS, args.calls, tracer)
    tracer.uninstall()
    after = transport_totals(workload)
    hits = SIGNATURE_CACHE_STATS.hits - sig[0]
    misses = SIGNATURE_CACHE_STATS.misses - sig[1]
    reuse = _ENGINE_OPS.labels("table_reuse").value - engine["table_reuse"]
    resolutions = _ENGINE_OPS.labels("resolutions").value - engine["resolutions"]

    setup = tracer.point_stats("setup")
    timed = tracer.point_stats("timed")
    n = max(phase.negotiations, 1)

    def calls(table, point):
        return table.get(point, [0, 0, 0, 0])[0]

    def incl_ms(table, point):
        return table.get(point, [0, 0, 0, 0])[2] / 1e6

    def self_ms(table, prefix):
        return sum(entry[3] for point, entry in table.items()
                   if point.startswith(prefix)) / 1e6

    recover = [ns / 1e6 for ns in tracer.recover_ns[recoveries:]]
    untraced_rate = untraced.negotiations / untraced.norm_busy_s
    traced_rate = phase.negotiations / phase.norm_busy_s
    call_ms = sum(phase.raw_call_ms)
    values = {
        "crypto.keygen_s": incl_ms(setup, "crypto.keygen") / 1000.0,
        "crypto.sign_calls": calls(setup, "crypto.sign"),
        "crypto.verify_calls_per_neg": calls(timed, "crypto.verify") / n,
        "crypto.sig_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "credentials.verify_ms_per_neg": incl_ms(timed, "credentials.verify") / n,
        "datalog.parse_ms": incl_ms(setup, "datalog.parse") + incl_ms(timed, "datalog.parse"),
        "datalog.solve_self_ms_per_neg": self_ms(timed, "datalog.solve") / n,
        "datalog.solve_calls_per_neg": calls(timed, "datalog.solve") / n,
        "datalog.table_reuse_ratio": reuse / (reuse + resolutions) if reuse + resolutions else 0.0,
        "negotiation.self_ms_per_neg": self_ms(timed, "negotiation.") / n,
        "net.transmissions_per_neg": calls(timed, "net.transmit") / n,
        "net.encode_ms_per_neg": self_ms(timed, "net.encode") / n,
        "net.retries_per_neg": (after["retries"] - before["retries"]) / n,
        "runtime.self_ms_per_neg": self_ms(timed, "runtime.") / n,
        "runtime.events_per_neg": (after["events"] - before["events"]) / n,
        "runtime.max_queue_depth": after["queue"],
        "obs.flightrec_ms_per_neg": self_ms(timed, "obs.") / n,
        "storage.writes_per_neg": calls(timed, "storage.write") / n,
        "storage.write_ms_per_neg": incl_ms(timed, "storage.write") / n,
        "storage.journal_bytes_per_neg": (workload.journal_bytes() - journal) / n,
        "storage.recover_ms_p50": statistics.median(recover) if recover else 0.0,
        "unattributed_ms_per_neg": (call_ms - tracer.self_in_calls.get("timed", 0) / 1e6) / n,
        "trace_overhead_ratio": traced_rate / untraced_rate,
    }
    # Layer coverage: every layer this workload exercises must record calls.
    missing = layers.missing_layers(timed, workload.layers)
    print(f"workload {args.workload} seed {args.seed} (traced): {len(phase.call_ms)} calls, "
          f"{phase.negotiations} negotiations in {phase.wall_s:.3f} s; untraced "
          f"{untraced.negotiations} in {untraced.wall_s:.3f} s; {len(tracer.spans)} spans kept, "
          f"{tracer.spans_dropped} dropped")
    print("layer self ms per negotiation: " + ", ".join(
        f"{layer} {self_ms(timed, layer + '.') / n:.4f}" for layer in layers.LAYERS))
    print("layer calls in timed phase: " + json.dumps(layers.layer_calls(timed)))
    if missing:
        print(f"coverage: layers with zero calls in the timed phase: {', '.join(missing)}")
    OUT_DIR.mkdir(exist_ok=True)
    span_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
    tracer.write_spans(span_path)
    print(f"spans written to {span_path.relative_to(ROOT)}")
    phase.attempted += untraced.attempted
    phase.failed += untraced.failed
    phase.denied += untraced.denied
    phase.problems = untraced.problems + phase.problems
    finish(phase, {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in PER_LAYER}, correct=not missing)


# ---------------------------------------------------------------------------
# All workloads, one child process each
# ---------------------------------------------------------------------------

def run_all(args) -> None:
    merged = {}
    attempted = failed = 0
    correct = True
    for name in WORKLOAD_NAMES:
        extra = ["--setup-reps", str(args.setup_reps)]
        if args.calls:
            extra += ["--calls", str(args.calls)]
        child = run_child(child_command(args, name, *extra))
        result = child["result"]
        for line in child["lines"]:
            print(f"[{name}] {line}")
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        for metric, entry in result["metrics"].items():
            merged[f"{name}/{metric}"] = entry
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": merged}))


def main(argv=None) -> None:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no program source at {SRC / 'repro'}; run from a full checkout")
    if args.seconds <= 0 or args.setup_reps < 1:
        fail("--seconds and --setup-reps must be positive")
    if args.workload == "all":
        run_all(args)   # each child arms its own stall guard
        return
    faulthandler.dump_traceback_later(STALL_SECONDS, exit=True)
    try:
        run_workload(args)
    finally:
        faulthandler.cancel_dump_traceback_later()


if __name__ == "__main__":
    main()
