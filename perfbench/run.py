"""qchain benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 55 --trace 0

Run from the repository root.  Each workload runs in a fresh worker
process that imports qchain from ``src/``.  With ``--trace 0`` the last
line of standard output is the JSON result with the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced pass.
Every metric is also printed on its own line, with its unit, before the
JSON line, followed by the run metadata.  A record of the run is kept in
``perfbench/out/``.

Exit status is 0 when the run finished, and nonzero without a result
line when qchain is missing or a worker failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from typing import List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
REFERENCE_DIGESTS = os.path.join(HERE, "reference_digests.json")

# the names in workloads.py, which run.py does not import: it imports no qchain
WORKLOADS = ("sweep", "transfer_large", "closed_form", "cli_mix")
# setup_s is the median of the measured worker's start-up and this many
# set-up-only start-ups, half before and half after the measured run, so
# that one slow phase of a shared machine does not decide it
EXTRA_SETUPS = 4
# every worker of one run must end by then, counted from the start
RUN_DEADLINE_S = 170.0


def git_sha() -> str:
    """HEAD of the checkout from .git, or "unknown" outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def numpy_version() -> str:
    try:
        import numpy
    except ImportError:
        return "missing"
    return numpy.__version__


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    # one caller and no helper threads
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


class WorkerError(RuntimeError):
    pass


def run_worker(
    args: argparse.Namespace, setup_only: bool, deadline: float
) -> Tuple[float, Optional[dict]]:
    """Start one worker; returns (seconds until READY, its record)."""
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT,
    ]
    if setup_only:
        command.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - start))
        if not ready:
            raise subprocess.TimeoutExpired(command, RUN_DEADLINE_S)
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise WorkerError(f"worker exited with status {proc.returncode} during {args.workload}")
    if setup_only:
        return setup_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no record")
    return setup_s, json.loads(lines[-1])


def digest_status(workload: str, seed: int, digest: str) -> str:
    """Compare with the digests reference.py recorded for seeds 0-9."""
    try:
        with open(REFERENCE_DIGESTS, encoding="utf-8") as handle:
            reference = json.load(handle)
    except (OSError, ValueError):
        return "no reference file"
    expected = reference.get(f"{workload}:{seed}")
    if expected is None:
        return "no reference for this seed"
    return "matches reference" if expected == digest else "CHANGED from reference"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qchain", "__init__.py")):
        print(f"no qchain sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    load_at_start = os.getloadavg()

    try:
        deadline = time.perf_counter() + RUN_DEADLINE_S
        extra = 0 if args.trace else EXTRA_SETUPS
        setup_samples = [
            run_worker(args, True, deadline)[0] for _ in range(extra // 2)
        ]
        setup_s, record = run_worker(args, False, deadline)
        setup_samples.append(setup_s)
        setup_samples += [
            run_worker(args, True, deadline)[0] for _ in range(extra - extra // 2)
        ]
    except (WorkerError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    root = os.path.realpath(ROOT)
    if os.path.commonpath([root, os.path.realpath(record["qchain_file"])]) != root:
        print(f"worker imported qchain from {record['qchain_file']}, outside this checkout",
              file=sys.stderr)
        return 3

    metrics = dict(record["metrics"])
    attempted, failed = record["attempted"], record["failed"]
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setup_samples), "s")
        metrics["peak_rss_mb"] = (record["peak_rss_mb"], "MiB")
        # the complement of fail_ratio, which reads 0 on clean workloads
        metrics["pass_ratio"] = ((attempted - failed) / attempted, "ratio")

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_at_start": load_at_start,
        "setup_samples_s": setup_samples,
        "fail_ratio": failed / attempted,
        "digest": record["digest"],
        "digest_ops": record["digest_ops"],
        "digest_status": digest_status(args.workload, args.seed, record["digest"]),
        "known_defect_failures": record["known_defect_failures"],
        "unexpected_failures": record["unexpected_failures"],
        **record["info"],
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(f"fail_ratio = {meta['fail_ratio']} ratio ({failed} of {attempted} ops)")
    for key in ("tail_percentile", "samples"):
        if key in meta:
            print(f"op_ms.{key} = {meta[key]}")
    print(f"digest = {meta['digest']} over {meta['digest_ops']} ops ({meta['digest_status']})")
    for failure in meta["unexpected_failures"][:20]:
        print(f"UNEXPECTED FAILURE {failure}")
    for defect, count in meta["known_defect_failures"].items():
        print(f"KNOWN DEFECT ({count} failed ops): {defect}")
    print("meta = " + json.dumps({k: meta[k] for k in (
        "git_sha", "python", "numpy", "nproc", "cpu_model", "loadavg_at_start", "seed")}))

    stamp = time.strftime("%Y%m%dT%H%M%S")
    record_path = os.path.join(OUT, f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}.json")
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump({"meta": meta, "metrics": metrics}, handle, indent=1)

    result = {
        "correct": not meta["unexpected_failures"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
