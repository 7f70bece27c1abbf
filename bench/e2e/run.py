#!/usr/bin/env python3
"""The end-to-end benchmark's one command (see bench/e2e/README.md).

Builds bench/e2e into build-e2e/ (a no-op when up to date), runs each named
workload in its own cip_e2e process, checks the samples, and prints every
metric BENCHMARK.json names for the mode as `workload metric value unit`
lines. The last line of stdout is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 they are its per_layer list, taken from a traced run whose spans
land in build-e2e/traces/<workload>.trace.json.

Usage:
  python3 bench/e2e/run.py [--workload NAME|all] [--seed N] [--seconds S]
                           [--trace 0|1]
  python3 bench/e2e/run.py --self-test

Exit codes: 0 all invocations correct; 1 a failed invocation, a metric-name
mismatch with BENCHMARK.json, or a build/run error; 2 a CIP_* environment
variable is set (it would measure a different program) or bad arguments.
"""

import argparse
import ctypes
import fcntl
import json
import mmap
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "cip_e2e"
WORKLOADS = ["cg-domore", "shadow-domore", "sigcheck-speccross",
             "rollback-speccross", "server-mix"]
DEFAULT_SEED = 1
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(msg, code=1):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")


def build():
    """Configures and builds cip_e2e under build-e2e/, serialized by a lock
    so concurrent invocations in one checkout do not race the build."""
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          *generator, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--target", "cip_e2e",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            try:
                proc = subprocess.run(cmd, stdout=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                die(f"build step {cmd[:2]} failed: {e}")
            if proc.returncode != 0:
                die(f"build step {' '.join(cmd[:2])} exited "
                    f"{proc.returncode}")


# --- fingerprint -------------------------------------------------------------

def git_commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def has_avx2():
    try:
        with open("/proc/cpuinfo") as f:
            return "yes" if " avx2" in f.read() else "no"
    except OSError:
        return "unknown"


def soft_dirty():
    """Kernels with CONFIG_MEM_SOFT_DIRTY report a freshly touched anonymous
    page as soft-dirty (pagemap bit 55); kernels without it never do."""
    try:
        page = mmap.mmap(-1, mmap.PAGESIZE)
        page[0] = 1
        addr = ctypes.addressof(ctypes.c_char.from_buffer(page))
        with open("/proc/self/pagemap", "rb") as f:
            f.seek(addr // mmap.PAGESIZE * 8)
            entry = int.from_bytes(f.read(8), "little")
    except (OSError, ValueError):
        return "unknown"
    return "yes" if entry >> 55 & 1 else "no"


def cmake_cache(key):
    try:
        with open(BUILD / "CMakeCache.txt") as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint():
    return (f"# cip-e2e commit={git_commit()} nproc={os.cpu_count()} "
            f"avx2={has_avx2()} soft_dirty={soft_dirty()} "
            f"telemetry={cmake_cache('CIP_TELEMETRY')} "
            f"build_type={cmake_cache('CMAKE_BUILD_TYPE')}")


# --- metrics -----------------------------------------------------------------

def median(xs):
    return statistics.median(xs) if xs else 0.0


def p90(xs):
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=10)[8]


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(run):
    samples = run["samples"]
    # server-mix latency is measured at the reference rate only.
    lat = [s["lat_ms"] for s in samples if s.get("phase", 0) == 0]
    return {
        "latency_ms_p50": median(lat),
        "throughput_rps": ratio(run["throughput_completed"],
                                run["throughput_window_s"]),
        "setup_s": median(run["setup_s"]),
        "peak_rss_mb": run["peak_rss_kib"] / 1024.0,
    }


def column(samples, key):
    return [s[key] for s in samples if key in s]


def total(samples, key):
    return sum(column(samples, key))


def trace_spans(path):
    """Self time of every span name, and how much of each invocation its
    children cover. A span's self time is its duration minus its children's
    durations (children of one span never overlap by construction)."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    child_us = defaultdict(float)
    for e in events:
        if e["args"]["parent"] >= 0:
            child_us[e["args"]["parent"]] += e["dur"]
    self_ms = defaultdict(list)
    root_ms = []
    coverage = []
    for e in events:
        covered = child_us[e["args"]["span"]]
        self_ms[e["name"]].append((e["dur"] - covered) / 1e3)
        if e["name"] == "invocation":
            root_ms.append(e["dur"] / 1e3)
            coverage.append(ratio(covered, e["dur"]) if e["dur"] else 1.0)
    return self_ms, root_ms, coverage


def per_layer(run, e2e, spans):
    samples = run["samples"]
    dom = [s for s in samples if "sync_conditions" in s]
    spec = [s for s in samples if "comparisons" in s]
    srv = [s for s in samples if "queue_ms" in s]
    timed = [s for s in samples if s.get("phase", 0) == 0]
    m = {}

    # The tail of end-to-end latency: demoted to a per-layer metric because
    # its run-to-run spread on server-mix exceeds any allowed bound.
    m["latency_ms_p90"] = p90(column(timed, "lat_ms"))

    m["domore.sched_busy_frac"] = median(
        [ratio(s["sched_busy_s"], s["region_s"]) for s in dom])
    m["domore.sync_per_iter"] = ratio(total(dom, "sync_conditions"),
                                      total(dom, "iterations"))
    m["domore.worker_wait_ms"] = median(column(dom, "worker_wait_ns")) / 1e6
    m["domore.queue_full_spins"] = median(column(dom, "queue_full_spins"))
    m["domore.queue_empty_spins"] = median(column(dom, "queue_empty_spins"))
    m["domore.dispatch_batch_mean"] = ratio(total(dom, "batch_sum"),
                                            total(dom, "batch_count"))

    m["speccross.comparisons_per_task"] = ratio(total(spec, "comparisons"),
                                                total(spec, "tasks"))
    m["speccross.check_us_p50"] = run["check_us_p50"] if spec else 0.0
    m["speccross.check_us_p90"] = run["check_us_p90"] if spec else 0.0
    m["speccross.checker_busy_frac"] = median(
        [ratio(s["checker_busy_ns"] / 1e9, s["region_s"]) for s in spec])
    m["speccross.throttle_wait_ms"] = median(
        column(spec, "worker_wait_ns")) / 1e6
    m["speccross.misspec_per_region"] = ratio(
        total(spec, "misspeculations"), len(spec))
    m["speccross.false_abort_frac"] = ratio(total(spec, "false_aborts"),
                                            total(spec, "aborts_recorded"))
    epochs = total(spec, "epochs")
    m["speccross.useful_epoch_frac"] = ratio(
        epochs, epochs + total(spec, "reexecuted_epochs"))

    snapshots = total(spec, "checkpoints")
    m["memory.ckpt_ms_per_region"] = median(column(spec, "checkpoint_s")) * 1e3
    m["memory.ckpt_ms_per_snapshot"] = ratio(
        total(spec, "checkpoint_s") * 1e3, snapshots)
    m["memory.bytes_copied_per_snapshot"] = ratio(
        total(spec, "ckpt_bytes_copied"), snapshots)
    m["memory.dirty_page_frac"] = ratio(
        total(spec, "dirty_pages"), total(spec, "checkpoint_bytes") / 4096)
    m["memory.recovery_ms_per_region"] = median(
        column(spec, "recovery_s")) * 1e3

    closed = dom + spec
    m["harness.call_overhead_ms_p50"] = median(
        [s["lat_ms"] - s["exec_ms"] for s in closed])

    by_tech = defaultdict(list)
    for s in srv:
        by_tech[s["technique"]].append(s)
    queue = column(srv, "queue_ms")
    m["server.queue_wait_ms_p50"] = median(queue)
    m["server.queue_wait_ms_p90"] = p90(queue)
    m["server.exec_ms_p50"] = median(column(srv, "exec_ms"))
    m["server.admit_us_p50"] = median(column(srv, "admit_ms")) * 1e3
    degraded = [s for s in srv if s["degraded"]]
    m["server.degraded_seq_frac"] = ratio(
        sum(s["technique"] == "sequential" for s in degraded), len(srv))
    m["server.degraded_narrow_frac"] = ratio(
        sum(s["technique"] != "sequential" for s in degraded), len(srv))
    m["server.granted_width_mean"] = ratio(total(srv, "granted"), len(srv))
    m["policy.adaptive_exec_ms_p50"] = median(
        column(by_tech["adaptive"], "exec_ms"))
    m["support.barrier_exec_ms_p50"] = median(
        column(by_tech["barrier"], "exec_ms"))

    m["workloads.seq_ms_p50"] = median(run["seq_ms"])
    m["workloads.speedup"] = ratio(m["workloads.seq_ms_p50"],
                                   e2e["latency_ms_p50"])

    m["bench.reset_ms_p50"] = median(column(samples, "reset_ms"))
    m["bench.verify_ms_p50"] = median(column(samples, "verify_ms"))
    m["bench.generator_lag_ms_p90"] = p90(column(timed, "lag_ms"))
    # Latency plus the time spent recording spans, traced rounds against
    # the untraced rounds in between (same inputs, same kinds).
    def cost(traced):
        return median([s["lat_ms"] + s["trace_ms"] for s in timed
                       if s["traced"] == traced])
    m["bench.trace_overhead_frac"] = ratio(cost(1) - cost(0), cost(0))
    m["bench.span_coverage_frac"] = median(spans[2])
    return m


# --- running -----------------------------------------------------------------

def run_workload(name, seed, seconds, trace, wrong_oracle):
    """Runs one cip_e2e process. Returns (exit code, parsed output or None,
    trace path or None)."""
    cmd = [str(BINARY), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds)]
    trace_path = None
    if trace:
        trace_path = BUILD / "traces" / f"{name}.trace.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-file", str(trace_path)]
    if wrong_oracle:
        cmd.append("--wrong-oracle")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"{name}: {e}")
    if proc.returncode not in (0, 1):
        die(f"{name}: cip_e2e exited {proc.returncode}",
            2 if proc.returncode == 2 else 1)
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        die(f"{name}: cip_e2e printed no result")
    for err in out["errors"]:
        print(f"error: {err}", file=sys.stderr)
    return proc.returncode, out, trace_path


def print_span_table(name, spans):
    self_ms, root_ms, coverage = spans
    whole = sum(root_ms)
    print(f"# {name} span self time over {len(root_ms)} traced invocations "
          f"(children cover {median(coverage):.4f} of each invocation)")
    for span in sorted(self_ms, key=lambda k: -sum(self_ms[k])):
        print(f"#   {span:24s} self p50 {median(self_ms[span]):10.4f} ms  "
              f"share {ratio(sum(self_ms[span]), whole):7.4f}")


def measure(name, seed, seconds, trace, wrong_oracle, spec):
    """Runs one workload and returns (metric values, attempted, failed,
    process ok)."""
    code, run, trace_path = run_workload(name, seed, seconds, trace,
                                         wrong_oracle)
    e2e = end_to_end(run)
    metrics = e2e
    if trace:
        spans = trace_spans(trace_path)
        print_span_table(name, spans)
        metrics = per_layer(run, e2e, spans)
    want = [m["name"] for m in spec]
    missing = sorted(set(want) - set(metrics))
    extra = sorted(set(metrics) - set(want))
    if missing or extra:
        die(f"metric names disagree with BENCHMARK.json: missing "
            f"{missing}, not listed {extra}")
    return metrics, run["attempted"], run["failed"], code == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--wrong-oracle", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()

    stray = sorted(k for k in os.environ if k.startswith("CIP_"))
    if stray:
        die(f"{', '.join(stray)} set: the benchmark measures the library "
            f"defaults; unset it", 2)
    if args.seed < 0:
        die("--seed must be non-negative", 2)
    if args.self_test:
        sys.exit(self_test())

    bench = load_benchmark()
    seconds = args.seconds if args.seconds else bench["run_seconds"]
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    build()
    print(fingerprint())

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    attempted = failed = 0
    correct = True
    for name in names:
        metrics, a, f, ok = measure(name, args.seed, seconds, args.trace,
                                    args.wrong_oracle, spec)
        attempted += a
        failed += f
        correct = correct and ok and f == 0
        for metric in units:
            print(f"{name} {metric} {metrics[metric]:.6g} {units[metric]}")
        # One workload keeps the contract's bare names; "all" prefixes them.
        prefix = "" if len(names) == 1 else f"{name}:"
        for metric, value in metrics.items():
            results[prefix + metric] = {"value": value, "unit": units[metric]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": results}))
    return 0 if correct else 1


def self_test():
    """Negative checks: a wrong oracle must fail the run, and a stray CIP_*
    knob must refuse to run."""
    me = [sys.executable, str(Path(__file__).resolve())]
    proc = subprocess.run(me + ["--workload", "cg-domore", "--seconds", "1",
                                "--wrong-oracle"],
                          stdout=subprocess.PIPE, text=True,
                          timeout=BUILD_TIMEOUT_S + RUN_TIMEOUT_S)
    try:
        last = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        last = {}
    wrong_ok = (proc.returncode == 1 and last.get("correct") is False
                and last.get("failed", 0) > 0)
    print(f"self-test wrong oracle: exit {proc.returncode}, failed "
          f"{last.get('failed')}/{last.get('attempted')} -> "
          f"{'PASS' if wrong_ok else 'FAIL'}")
    env = dict(os.environ, CIP_MAX_BATCH="1")
    proc = subprocess.run(me + ["--workload", "cg-domore", "--seconds", "1"],
                          env=env, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    knob_ok = proc.returncode == 2
    print(f"self-test CIP_MAX_BATCH=1: exit {proc.returncode} -> "
          f"{'PASS' if knob_ok else 'FAIL'}")
    return 0 if wrong_ok and knob_ok else 1


if __name__ == "__main__":
    sys.exit(main())
