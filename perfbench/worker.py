"""One workload in one fresh process; started by run.py, not by hand.

Prints ``READY`` once qchain is imported and the inputs exist, then runs
the closed loop (one caller, the next op only after the previous one
returned) and prints one JSON record as its last line.

Untraced (``--trace 0``): whole cycles of the workload's ops run until
``--seconds`` have passed, so every run does each input equally often.

Traced (``--trace 1``): one cycle warms up, then each op of a second
cycle runs untraced and traced back to back.  The per-layer counts
repeat exactly for a seed, and the ratio of the two op-time totals is the
tracing overhead.

Either way the results digest covers the first cycle.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from collections import Counter
from typing import List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import qchain  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

# fallbacks for op_ms.tail when a run has too few samples for the
# workload's own percentile
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(preferred: float, n: int) -> float:
    """``preferred`` if at least ten of n samples lie beyond it, else the
    highest ladder percentile that has ten beyond (at worst the median)."""
    for p in (preferred,) + TAIL_LADDER:
        if p <= preferred and n * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile of the sorted values."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


class Loop:
    """Runs ops in the workload's cyclic order and keeps their outcomes."""

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.op_ms: List[float] = []
        self.passed = 0
        self.failed = 0
        self.unexpected: List[str] = []
        self.known: Counter = Counter()  # failures of documented defects
        self.digest = hashlib.sha256()

    def step(self, index: int, call=None) -> None:
        op = self.workload.ops[index % len(self.workload.ops)]
        run = op.run if call is None else (lambda: call(index, op.run))
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(sink):
                result = run()
            error = None
        except (Exception, SystemExit) as exc:  # an op that raises has failed
            error = exc
        self.op_ms.append((time.perf_counter() - start) * 1e3)
        if error is None:
            outcome = op.check(result)
        else:
            outcome = workloads.Check(False, f"raised {type(error).__name__}")
        if outcome.passed:
            self.passed += 1
        else:
            self.failed += 1
            if op.known_defect:
                self.known[op.known_defect] += 1
            else:
                self.unexpected.append(f"op {index} {op.kind} on {op.inputs}: {outcome.answer[:200]}")
        if index < len(self.workload.ops):
            self.digest.update(f"{index}|{op.kind}|{int(outcome.passed)}|{outcome.answer}\n".encode())


def timed_run(workload: workloads.Workload, seconds: float) -> dict:
    loop = Loop(workload)
    start = time.perf_counter()
    index = 0
    cycle = len(workload.ops)
    cycle_ends: List[Tuple[float, int]] = []  # (elapsed s, ops passed so far)
    while index % cycle or index == 0 or time.perf_counter() - start < seconds:
        loop.step(index)
        index += 1
        if index % cycle == 0:
            cycle_ends.append((time.perf_counter() - start, loop.passed))
    wall = time.perf_counter() - start
    tail_p = tail_percentile(workload.tail_percentile, len(loop.op_ms))
    metrics = {
        "ops_per_s": (loop.passed / wall, "1/s"),
        "op_ms.p50": (percentile(loop.op_ms, 50.0), "ms"),
        "op_ms.tail": (percentile(loop.op_ms, tail_p), "ms"),
    }
    return {
        "loop": loop,
        "metrics": metrics,
        "info": {
            "wall_s": wall,
            "tail_percentile": tail_p,
            "samples": len(loop.op_ms),
            "cycle_ends": cycle_ends,
            "op_ms": loop.op_ms,
        },
    }


def traced_run(workload: workloads.Workload, out_dir: str, label: str) -> dict:
    count = len(workload.ops)
    warm, plain, traced = Loop(workload), Loop(workload), Loop(workload)
    recorder = tracer.Tracer()
    for index in range(count):
        warm.step(index)
    # each op runs untraced and then traced, back to back, so that drifts
    # in the machine's speed drop out of the overhead ratio
    for index in range(count):
        plain.step(index)
        undo = tracer.install(recorder)
        try:
            traced.step(index, recorder.run_op)
        finally:
            undo()
    untraced_s, traced_s = sum(plain.op_ms) / 1e3, sum(traced.op_ms) / 1e3

    missing = [site for site in workload.must_reach if recorder.site_calls[site] == 0]
    if missing:
        raise SystemExit(
            f"traced pass never reached {', '.join(missing)}; a wrapper site was "
            "missed or the workload no longer calls it"
        )
    if plain.digest.hexdigest() != traced.digest.hexdigest():
        traced.unexpected.append("traced answers differ from untraced answers")
    spans_path = os.path.join(out_dir, f"spans-{label}.jsonl")
    with open(spans_path, "w", encoding="utf-8") as handle:
        for span_id, parent, name, op, start_s, end_s, own in recorder.spans:
            handle.write(json.dumps({
                "id": span_id, "parent": parent, "name": name, "op": op,
                "start": start_s, "end": end_s, "self": own,
            }) + "\n")
    return {
        "loop": traced,
        "metrics": recorder.metrics(count, untraced_s, traced_s),
        "info": {"traced_ops": count, "untraced_s": untraced_s, "traced_s": traced_s,
                 "spans": spans_path},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True, help="directory for spans and scratch files")
    args = parser.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out)
    try:
        workload = workloads.make(args.workload, args.seed, workdir)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        label = f"{args.workload}-s{args.seed}"
        if args.trace:
            result = traced_run(workload, args.out, label)
        else:
            result = timed_run(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    loop = result["loop"]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record = {
        "attempted": loop.passed + loop.failed,
        "failed": loop.failed,
        "unexpected_failures": loop.unexpected,
        "known_defect_failures": dict(loop.known),
        "digest": loop.digest.hexdigest(),
        "digest_ops": len(workload.ops),
        "metrics": result["metrics"],
        "info": result["info"],
        "peak_rss_mb": peak_kib / 1024.0,
        "qchain_file": qchain.__file__,
    }
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
