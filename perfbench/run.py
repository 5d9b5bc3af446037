"""macflow benchmark: time to a solution, set-up, step time and memory of
three fixed workloads, with a separate traced run for per-layer numbers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``patch-cli``, ``gyre2d-128``, ``swirl3d-12-graded`` or ``all``.
For S seconds the workload is run again and again, each time cold in a
fresh process (``workload.py``) with BLAS threads pinned to 1; a run is
only started when the runs so far say it will end in time.  With
``--trace 0`` the end-to-end metrics are medians over those runs.  With
``--trace 1`` runs alternate traced and untraced: the per-layer metrics
are medians over the traced runs, and ``trace.overhead_s`` is the
traced minus the untraced median ``total_s``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Results, environment and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("patch-cli", "gyre2d-128", "swirl3d-12-graded")
END_TO_END = {"total_s": "s", "setup_s": "s", "step_s": "s",
              "peak_rss_mib": "MiB"}
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
# What the benchmark needs from the checkout besides its own directory.
REQUIRED = [ROOT / "src" / "macflow" / "__init__.py",
            ROOT / "demos" / "configs" / "patch_run.yaml"]
# No run starts after this many seconds, and none outlives it by much:
# the whole command has to end within three minutes.
DEADLINE_S = 170.0


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    return "B" if "bytes" in name else "count"


def git_commit():
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_child(workload, seed, traced, index, timeout):
    """One cold run; returns its record, or one with an ``error`` key."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    if traced:
        cmd += ["--spans", str(OUT / f"spans-{workload}-seed{seed}-"
                                     f"{index}.json")]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ,
                                                  **BLAS_THREADS},
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s", "trace": traced,
                "wall_s": time.perf_counter() - start}
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit code {proc.returncode}: {tail[0]}",
                "trace": traced, "wall_s": wall}
    record = json.loads(lines[-1])
    record["wall_s"] = wall
    return record


def measure(workload, seed, seconds, trace):
    """Repeat cold runs for ``seconds``; returns every run's record."""
    records = []
    started = time.perf_counter()
    while True:
        traced = bool(trace) and len(records) % 2 == 0
        elapsed = time.perf_counter() - started
        records.append(run_child(workload, seed, traced, len(records),
                                 max(DEADLINE_S - elapsed, 1.0)))
        if "error" in records[-1]:
            break
        elapsed = time.perf_counter() - started
        typical = statistics.median(r["wall_s"] for r in records)
        if (len(records) >= (2 if trace else 1)
                and (elapsed + typical > seconds
                     or elapsed + typical > DEADLINE_S)):
            break
    return records, time.perf_counter() - started


def trace_consistent(layers):
    """Self times must add up to the root span."""
    root = layers["trace.root_s"]
    return abs(layers["trace.self_sum_s"] - root) <= 1e-9 * max(root, 1.0)


def summarize(workload, seed, trace, records, elapsed):
    ok = [r for r in records if "error" not in r]
    plain = [r for r in ok if not r["trace"]]
    traced = [r for r in ok if r["trace"]]
    if not plain or (trace and not traced):
        return None
    crashed = len(records) - len(ok)
    attempted = sum(r["attempted"] for r in ok) + crashed
    failed = sum(r["failed"] for r in ok) + crashed
    correct = (crashed == 0 and failed == 0
               and all(trace_consistent(r["layers"]) for r in traced))

    # Every end-to-end metric is a median over runs of a per-run value.
    # For step_s that value is the run's mean step: on a shared machine
    # single steps fall into fast and slow phases a few seconds long, and
    # a median over pooled steps jumps between the two.
    steps = [t for r in plain for t in r["step_s"]]
    end_to_end = {
        "total_s": statistics.median(r["total_s"] for r in plain),
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "step_s": statistics.median(statistics.fmean(r["step_s"])
                                    for r in plain if r["step_s"]),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
    }
    if trace:
        names = traced[0]["layers"]
        metrics = {name: {"value": statistics.median(r["layers"][name]
                                                     for r in traced),
                          "unit": layer_unit(name)} for name in names}
        metrics["trace.overhead_s"] = {
            "value": (statistics.median(r["total_s"] for r in traced)
                      - end_to_end["total_s"]),
            "unit": "s"}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in end_to_end.items()}

    versions = ok[0]["versions"]
    env = {"nproc": os.cpu_count(),
           "usable_cpus": len(os.sched_getaffinity(0)),
           "blas_threads": BLAS_THREADS, "versions": versions,
           "platform": platform.platform(), "git_commit": git_commit(),
           "workload": workload, "seed": seed, "trace": trace}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    print(f"macflow benchmark: {workload}, seed {seed}, {len(records)} cold "
          f"runs ({len(traced)} traced) in {elapsed:.1f} s")
    runs = f"median of {len(plain)} untraced runs"
    for name, value in end_to_end.items():
        note = runs
        if name == "step_s":
            note += (f" of the mean step, {len(steps)} steps; pooled "
                     f"median {statistics.median(steps):.6g} s")
            if len(steps) >= 20:
                high = sorted(steps)[len(steps) - 11]
                note += (f", p{100 * (len(steps) - 10) / len(steps):.0f} "
                         f"{high:.6g} s")
        print(f"  {name:<14}{value:>14.6g} {END_TO_END[name]:<4} {note}")
    print(f"  {'failed_frac':<14}{failed / attempted:>14.6g} {'ratio':<4} "
          f"{failed} failed of {attempted} attempted steps and runs")
    for r in records:
        for reason in [r["error"]] if "error" in r else r["failures"]:
            print(f"  FAILED: {reason}")
    if trace:
        for name, m in metrics.items():
            print(f"  {name:<34}{m['value']:>16.6g} {m['unit']}")
        print(f"  tracing overhead: {metrics['trace.overhead_s']['value']:.4g}"
              f" s on a {end_to_end['total_s']:.4g} s run")
    print(f"  env: nproc {env['nproc']}, BLAS threads 1, python "
          f"{versions['python']}, numpy {versions['numpy']}, scipy "
          f"{versions['scipy']}, commit {env['git_commit'][:12]}")

    path = OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps({**result, "environment": env,
                                "end_to_end": end_to_end, "runs": records},
                               indent=1))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"perfbench: the checkout lacks {', '.join(missing)}; run from "
              "the root of a macflow source tree", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        records, elapsed = measure(name, args.seed, args.seconds, args.trace)
        result = summarize(name, args.seed, args.trace, records, elapsed)
        if result is None:
            for r in records:
                print(f"perfbench: {name}: {r.get('error', 'no result')}",
                      file=sys.stderr)
            return 1
        results[name] = result

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": m
                        for name, r in results.items()
                        for metric, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
