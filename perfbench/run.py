"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload near-boundary --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Each run starts three fresh single-threaded processes, one after another:
a set-up-only process, an untraced process that times whole rounds for
--seconds, and a traced process that runs one round with spans.  Set-up time
is the median of the three.  With --trace 0 the result holds the end-to-end
metrics, with --trace 1 the per-layer ones; a readable report of both goes to
stderr.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("near-boundary", "nested-quadrature", "grid-reconstruct")
# All three processes of one workload together may take --seconds plus this:
# three set-ups, the round that straddles the end, its checks and the traced round.
RUN_ALLOWANCE_S = 145.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _spawn(workload, seed, seconds, mode, deadline) -> tuple[float, dict]:
    """Run one worker, killed at the deadline; returns (set-up seconds from
    process start, its summary)."""
    out = HERE / "out"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--workdir", str(out / "work" / f"{workload}-{mode}"),
           "--spans", str(out / f"spans-{workload}.npz")]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), cwd=ROOT, text=True)
    watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
    watchdog.start()
    setup_s, last = None, ""
    try:
        for line in proc.stdout:
            if line.strip() == "READY" and setup_s is None:
                setup_s = time.perf_counter() - t0
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or setup_s is None:
        raise BenchError(f"{mode} worker for {workload} exited with code {code}")
    return setup_s, json.loads(last)


def run_workload(workload, seed, seconds) -> dict:
    setups = []
    deadline = time.perf_counter() + seconds + RUN_ALLOWANCE_S
    for mode in ("setup", "measure", "trace"):
        setup_s, summary = _spawn(workload, seed, seconds, mode, deadline)
        setups.append(setup_s)
        if mode == "measure":
            measured = summary
        elif mode == "trace":
            traced = summary
    round_s = statistics.median(measured["round_s"])
    layer = dict(traced["metrics"])
    layer["tracing.overhead"] = (traced["round_s"] / round_s, "ratio")
    eval_points = layer["catalog.eval_points"][0] + layer["measures.density_points"][0]
    problems = []
    if not measured["deterministic"]:
        problems.append("round outputs differ between untraced rounds")
    if traced["digest"] != measured["digest"]:
        problems.append("traced outputs differ from untraced outputs")
    if not measured["failures_known_only"]:
        problems.append("an operation outside the known-fault points failed its check")
    return {
        "workload": workload,
        "correct": not problems,
        "problems": problems,
        # One round as checked: every round runs the same operations, so the
        # counts do not depend on how many rounds fit in --seconds.
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "failed_calls": measured["failed_calls"],
        "rounds": len(measured["round_s"]),
        "end_to_end": {
            "setup_s": (statistics.median(setups), "s"),
            "round_s": (round_s, "s"),
            "peak_rss_mb": (measured["peak_rss_mb"], "MB"),
            "eval_points": (eval_points, "count"),
        },
        "per_layer": layer,
    }


def _report(res) -> None:
    err = sys.stderr
    print(f"== {res['workload']}: {res['rounds']} timed rounds, operations attempted per round "
          f"{res['attempted']}, failed {res['failed']}, correct {res['correct']}", file=err)
    for name in res["problems"] + res["failed_calls"]:
        print(f"   failed: {name}", file=err)
    for group in ("end_to_end", "per_layer"):
        for name, (value, unit) in res[group].items():
            print(f"   {group:10s} {name:34s} {value:.6g} {unit}", file=err)


def _result_line(res, trace) -> str:
    group = res["per_layer" if trace else "end_to_end"]
    return json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                       "failed": res["failed"],
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in group.items()}})


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "herglotz" / "__init__.py").is_file():
        print(f"error: no herglotz sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for res in results:
        _report(res)
        line = _result_line(res, args.trace)
        print(line if len(results) == 1 else f"{res['workload']} {line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
