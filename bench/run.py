"""graphda benchmark: training throughput, export and eval latency, memory.

    python3 bench/run.py --workload adapt-flat --seed 1 --seconds 38 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 38 --trace 1

Run from the root of a checkout; graphda is imported from ``src/``. The
seed makes the workload's input files. A run repeats rounds of four
operations on them until ``--seconds`` is used up: the full-method
``train`` call, the source-only floor arm on the same data, ``graphda
eval`` and ``graphda export`` on the full arm's final checkpoint. Each
operation's output is checked; a failed check, exception or nonzero exit
counts as a failed operation.

With ``--trace 0`` the metrics are end to end; with ``--trace 1`` the
public callables of every graphda module are wrapped and the metrics are
per layer (see layers.py). The last line of standard output is one JSON
object: correct, attempted, failed and metrics. Scratch files go under
``.bench_work/`` in the checkout; spans of a traced run are written to
``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"



def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name from workloads.py, or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p


# -- environment record ----------------------------------------------------------


def loadavg() -> list:
    try:
        return Path("/proc/loadavg").read_text().split(" ", 3)[:3]
    except OSError:
        return ["?"] * 3


def git_sha() -> str:
    """HEAD of a git checkout, read from the files; 'unknown' elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    with contextlib.suppress(Exception):  # show_config's dict form varies across numpy versions
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "loadavg_start": loadavg(),
    }


def code_digest() -> str:
    """Hash of the program and benchmark sources; keys the exact-count record."""
    h = hashlib.sha256()
    for path in sorted([*SRC.glob("graphda/*.py"), *BENCH.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def report(args, env: dict, result: dict) -> None:
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    one_minute = [float(env[k][0]) for k in ("loadavg_start", "loadavg_end") if env[k][0] != "?"]
    if one_minute and max(one_minute) > (env["nproc"] or 1):
        print("# warning: 1-minute load above nproc; the machine was shared, timings are suspect")
    units = result["units"]
    for name, (med, iqr, n) in sorted(result["metrics"].items()):
        print(f"{name:32s} {med:14.6g} {units[name]:10s} iqr {iqr:.4g} n {n}")
    for note in result["notes"]:
        print(f"# {note}")
    metrics = {name: {"value": med if math.isfinite(med) else None, "unit": units[name]}
               for name, (med, _, _) in sorted(result["metrics"].items())}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not (SRC / "graphda" / "__init__.py").is_file():
        print(f"error: no graphda sources under {SRC}; run from a checkout's root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in (*workloads.WORKLOADS, "all"):
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    if args.setup_only:
        workloads.setup(workloads.WORKLOADS[args.workload], args.seed, Path(args.setup_only))
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))

    import harness

    env = environment()
    WORK.mkdir(exist_ok=True)
    scratch = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    scratch.mkdir()
    try:
        result = harness.measure(args, Path(__file__).resolve(), scratch, WORK, code_digest())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    env["loadavg_end"] = loadavg()
    report(args, env, result)
    return 0


def run_all(args, names: list) -> int:
    """Every workload in its own process, one after another; prints each report."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
