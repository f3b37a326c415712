"""One benchmark process: set up a workload, then time rounds or trace one.

Started by run.py with BLAS/OpenMP threads pinned to 1 and ``src`` on the
path.  Prints ``READY`` once its inputs are built and warmed up, so the parent
can time set-up from process start, and a JSON summary as its last line.

Modes:
  setup    stop after set-up.
  measure  untraced rounds until --seconds have passed, then check the
           outputs against the oracles.
  trace    one round with every layer wrapped in spans; spans go to --spans.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads


def digest(outputs) -> str:
    """sha256 over the exact bits of every output, in call order."""
    h = hashlib.sha256()

    def feed(obj):
        if isinstance(obj, bytes):
            h.update(obj)
        elif isinstance(obj, str):
            h.update(obj.encode())
        elif isinstance(obj, dict):
            for k, v in obj.items():
                feed(repr(k))
                feed(v)
        elif isinstance(obj, (list, tuple)):
            h.update(b"[")
            for v in obj:
                feed(v)
            h.update(b"]")
        elif dataclasses.is_dataclass(obj):
            feed(dataclasses.astuple(obj))
        elif obj is None:
            h.update(b"None")
        else:
            arr = np.asarray(obj)
            h.update(arr.dtype.str.encode())
            h.update(np.ascontiguousarray(arr).tobytes())

    feed(outputs)
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    wl = workloads.build(args.workload, args.seed, args.workdir)
    wl.warm_up()
    print("READY", flush=True)
    if args.mode == "setup":
        print(json.dumps({}))
        return 0

    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracing.install(tracer, extra_modules=[workloads])
        t0 = time.perf_counter()
        outputs = wl.run_round()
        round_s = time.perf_counter() - t0
        tracer.save(args.spans)
        print(json.dumps({"round_s": round_s, "digest": digest(outputs),
                          "metrics": tracer.metrics()}))
        return 0

    times, digests, outputs = [], [], None
    start = time.perf_counter()
    while not times or time.perf_counter() - start < args.seconds:
        outputs = None  # one round's outputs alive at a time, so peak memory is per round
        t0 = time.perf_counter()
        outputs = wl.run_round()
        times.append(time.perf_counter() - t0)
        digests.append(digest(outputs))
    # Read before the checks, which import scipy.integrate.  Every round gave the
    # same digest, so checking the last round checks them all.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({
        "round_s": times, "digest": digests[0],
        "deterministic": len(set(digests)) == 1,
        "peak_rss_mb": peak_rss_mb, **wl.check(outputs)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
