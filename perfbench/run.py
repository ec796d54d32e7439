"""hamrom benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout.  Each repetition of the workload runs in a
fresh process (``child.py``), one at a time, with at most ``nproc`` and at
most 2 BLAS threads set in that process's environment.

``--trace 0`` repeats the workload while another repetition still fits in
``--seconds`` (at least one), tops set-up up to ``SETUP_SAMPLES`` samples
with set-up-only processes, and prints:

    wall_s                  wall time of the public call, median of repetitions
    setup_s                 process start until the call begins, median
    peak_rss_mb             ru_maxrss of the repetition's process, median
    rom_online_us_per_step  each run_rom call's time over its steps, median
    failed_share            failed ROM rows plus failed checks over attempted

The JSON result carries the first three.  ``rom_online_us_per_step`` is
printed but reported as a per-layer number: on a 2-vCPU host whose speed
drifts by up to 1.6x over tens of seconds its run-to-run spread reached
0.26, past any allowed regression bound.  ``failed_share`` is carried by
``failed`` and ``attempted``.

``--trace 1`` runs one untraced and one traced repetition and reports the
per-layer metrics of the traced one, ``rom_online_us_per_step`` of the
untraced one and the tracing overhead (traced minus untraced ``wall_s``).
Spans, hot-call aggregates, Picard histograms and self times go to
``.perfbench_runs/trace-<workload>-seed<n>.json``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 1 when an output check fails, 2 when the run cannot start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
WORKLOADS = ("kdv-table2-cold", "wave-table1-cold", "wave-musweep-warm")
WARM = {"wave-musweep-warm"}
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "rom_online_us_per_step": "us"}
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Runner:
    """Starts one child process per repetition under a common deadline."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.dir = RUNS / f"{workload}-seed{seed}-{os.getpid()}"
        self.count = 0

    def rep(self, mode: str) -> dict:
        """One repetition in a fresh process; returns the child's result."""
        self.count += 1
        work = self.dir / f"rep{self.count}-{mode}"
        work.mkdir(parents=True)
        spec = work / "spec.json"
        result = work / "result.json"
        spec.write_text(json.dumps({
            "root": str(ROOT), "workload": self.workload, "seed": self.seed,
            "mode": mode, "work": str(work), "result": str(result),
        }), encoding="utf-8")
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(work / "child.log", "wb") as log:
            t_spawn = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec), repr(t_spawn)],
                stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT,
                timeout=timeout, check=False,
            )
        if proc.returncode != 0 or not result.exists():
            tail = (work / "child.log").read_text(encoding="utf-8", errors="replace")[-3000:]
            raise RuntimeError(f"{mode} repetition exited with {proc.returncode}:\n{tail}")
        out = json.loads(result.read_text(encoding="utf-8"))
        shutil.rmtree(work)
        return out

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def high_percentile(values: list[float]) -> tuple[str, float | None]:
    """Highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    best = ("-", None)
    for p in PERCENTILES:
        if n * (1 - p / 100) >= 10:
            best = (f"p{p:g}", ordered[max(0, math.ceil(p / 100 * n) - 1)])
    return best


def layer_unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_bytes"):
        return "B-computed" if name == "linalg.fom_lu_solve_bytes" else "B"
    for suffix, unit in (("_us", "us"), ("_s", "s"), ("_calls", "count"), ("_hits", "count"),
                         ("_misses", "count"), ("_mean", "iters"), ("_max", "iters")):
        if name.endswith(suffix):
            return unit
    return "x"


def environment(reps: list[dict]) -> dict:
    env = dict(reps[0]["environment"])
    src = ROOT / "src" / "hamrom"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = digest.hexdigest()[:16]
    env["commit"] = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        env["commit"] = proc.stdout.strip() or "unknown"
    env["nproc"] = len(os.sched_getaffinity(0))
    env["blas_threads_set"] = BLAS_THREADS
    env["peak_rss_mb"] = max(r["peak_rss_mb"] for r in reps)
    return env


def collect_checks(reps: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    failures = []
    for rep in reps:
        attempted += rep["rows_attempted"] + len(rep["checks"])
        failed += rep["rows_failed"]
        if rep["rows_failed"]:
            failures.append(f"{rep['rows_failed']} failed ROM rows")
        for check in rep["checks"]:
            if not check["ok"]:
                failed += 1
                failures.append(f"{check['name']}: {check['detail']}")
    return attempted, failed, failures


def trace_checks(workload: str, layers: dict, self_total: float, wall: float) -> list[dict]:
    """Checks that the traced run measured the intended program."""
    if workload in WARM:
        checks = [
            ("warm: no cache miss", layers["experiments.cache_misses"] == 0),
            ("warm: cache hit", layers["experiments.cache_hits"] >= 1),
            ("warm: no FOM integration", layers["avf.fom_integrate_calls"] == 0),
        ]
    else:
        checks = [
            ("cold: cache miss", layers["experiments.cache_misses"] >= 1),
            ("cold: FOM integrated", layers["avf.fom_integrate_calls"] >= 1),
        ]
    # the child times the call around the root span, so the root is a bit shorter
    checks.append(("self times sum to the workload span",
                   0 < self_total <= wall and wall - self_total < 1e-2 * wall))
    return [{"name": name, "ok": bool(ok), "detail": ""} for name, ok in checks]


def measure(args) -> tuple[list[dict], list[float]]:
    """Run the repetitions; returns their results and the set-up samples."""
    runner = Runner(args.workload, args.seed, time.monotonic() + TIME_LIMIT_S)
    start = time.monotonic()
    try:
        if args.trace:
            return [runner.rep("timed"), runner.rep("traced")], []
        reps, longest = [], 0.0
        while True:
            t0 = time.monotonic()
            reps.append(runner.rep("timed"))
            longest = max(longest, time.monotonic() - t0)
            if time.monotonic() - start + longest > args.seconds:
                break
        setups = [r["setup_s"] for r in reps]
        while len(setups) < SETUP_SAMPLES:
            setups.append(runner.rep("setup")["setup_s"])
        return reps, setups
    finally:
        runner.close()


def report_trace(args, reps: list[dict], record: dict) -> tuple[dict, list[dict]]:
    untraced, traced = reps
    layers = dict(traced["layers"])
    layers["rom_online_us_per_step"] = statistics.median(untraced["rom_us_per_step"])
    layers["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    layers["setup.import_s"] = traced["import_s"]
    layers["setup.prepare_s"] = traced["prepare_s"]
    checks = trace_checks(args.workload, layers, sum(traced["layer_self_s"].values()),
                          traced["wall_s"])
    trace_path = RUNS / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({
        **record, "wall_s": {"untraced": untraced["wall_s"], "traced": traced["wall_s"]},
        "layers": layers, "layer_self_s": traced["layer_self_s"], "checks": checks,
        **traced["trace"],
    }), encoding="utf-8")
    print(f"{'layer metric':34s} {'unit':>10s} {'value':>14s}")
    for name, value in layers.items():
        print(f"{name:34s} {layer_unit(name):>10s} {value:14.6g}")
    print("self time by layer (s): " + ", ".join(
        f"{k}={v:.4f}" for k, v in sorted(traced["layer_self_s"].items())))
    if args.workload == "kdv-table2-cold":
        share = layers["avf.fom_integrate_s"] / traced["wall_s"]
        print(f"design: FOM integration is {share:.1%} of traced wall_s "
              f"(the workload was chosen for a share of at least 75%)")
    print(f"tracing overhead: {layers['trace.overhead_s']:.4f} s "
          f"({traced['wall_s']:.4f} traced vs {untraced['wall_s']:.4f} untraced)")
    print(f"trace written to {trace_path.relative_to(ROOT)}")
    metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in layers.items()}
    return metrics, checks


def report_timed(args, reps: list[dict], setups: list[float], failed_share: float,
                 record: dict) -> dict:
    samples = {
        "wall_s": [r["wall_s"] for r in reps],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "rom_online_us_per_step": [x for r in reps for x in r["rom_us_per_step"]],
    }
    record["samples"] = samples
    baseline_file = HERE / "baseline.json"
    baseline = {}
    if baseline_file.exists():
        baseline = json.loads(baseline_file.read_text(encoding="utf-8"))["workloads"]
    baseline = baseline.get(args.workload, {}).get("end_to_end", {})
    print(f"{'metric':24s} {'unit':>6s} {'median':>12s} {'n':>5s} {'high pct':>18s} "
          f"{'seed baseline':>14s}")
    metrics = {}
    for name, values in samples.items():
        median = statistics.median(values)
        label, value = high_percentile(values)
        pct = f"{label}={value:.6g}" if value is not None else label
        unit = UNITS[name]
        base = baseline.get(name, {}).get("median")
        vs = f"{base:.6g} ({median / base - 1:+.1%})" if base else "-"
        print(f"{name:24s} {unit:>6s} {median:12.6g} {len(values):5d} {pct:>18s} {vs:>14s}")
        if name in END_TO_END:
            metrics[name] = {"value": median, "unit": unit}
    print(f"{'failed_share':24s} {'ratio':>6s} {failed_share:12.6g}")
    return metrics


def run(args) -> int:
    reps, setups = measure(args)
    attempted, failed, failures = collect_checks(reps)
    env = environment(reps)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    record = {"workload": args.workload, "seed": args.seed, "environment": env}
    RUNS.mkdir(exist_ok=True)
    if args.trace:
        metrics, checks = report_trace(args, reps, record)
        attempted += len(checks)
        for check in checks:
            if not check["ok"]:
                failed += 1
                failures.append(check["name"])
    else:
        metrics = report_timed(args, reps, setups, failed / attempted, record)
    for line in reps[0]["info"]:
        print(line)
    print(f"checks: {attempted - failed} of {attempted} passed")
    for failure in failures:
        print(f"FAILED: {failure}")
    record.update(attempted=attempted, failed=failed, failures=failures, metrics=metrics)
    (RUNS / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "hamrom" / "__init__.py").is_file():
        print(f"error: no hamrom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        return run(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
