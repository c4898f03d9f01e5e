"""One benchmark run: set-up, timed rounds, checks, exact counts, metrics."""

from __future__ import annotations

import json
import math
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

from graphda import DivergenceError, train

import layers
import workloads
from spans import Tracer, median_iqr

SETUP_SAMPLES = 5  # fresh processes timed for setup_s
EVAL_BUDGET_S = 0.1  # each burst of eval calls lasts at least this long ...
EVAL_REPEATS = 20  # ... unless it reaches this many calls first

END_TO_END = {
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "floor_samples_per_s": "samples/s",
    "export_s": "s",
    "eval_s": "s",
    "peak_rss_mb": "MB",
}


def plain_call(name, fn, *args, context=None, **kwargs):
    return fn(*args, **kwargs)


def time_setup(script: Path, workload: str, seed: int, scratch: Path) -> list:
    """Seconds from process start until set-up is done, over fresh child processes.

    Each child imports graphda, writes and reads the inputs, normalizes
    them and prints ``ready``; it runs alone, one after another.
    """
    samples = []
    for i in range(SETUP_SAMPLES):
        out = scratch / f"setup{i}"
        out.mkdir()
        cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
               "--seconds", "0", "--setup-only", str(out)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=script.parent.parent) as proc:
            line = proc.stdout.readline().strip()
            t1 = time.perf_counter()
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        shutil.rmtree(out)
        if line != "ready" or rc != 0:
            raise RuntimeError(f"set-up process exited {rc} without becoming ready")
        samples.append(t1 - t0)
    return samples


class Run:
    """Rounds of train (full), train (floor), eval and export on one input set.

    ``call(name, fn, *args, context=None, **kwargs)`` makes every
    top-level call into graphda; the traced run passes ``Tracer.call``.
    """

    def __init__(self, workload: workloads.Workload, inputs: workloads.Inputs, seed: int,
                 scratch: Path):
        self.workload = workload
        self.inputs = inputs
        self.full_cfg, self.floor_cfg = workload.arms(seed)
        self.scratch = scratch
        self.call = plain_call
        self.attempted = 0
        self.failed = 0
        self.samples = {"train_samples_per_s": [], "floor_samples_per_s": [],
                        "eval_s": [], "export_s": []}
        self.precisions = []

    def op(self, what: str, fn, *args):
        """Run one checked operation; returns its result, or None if it failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except (workloads.CheckFailed, DivergenceError) as exc:
            reason = f"{type(exc).__name__}: {exc}"
        except Exception:  # any crash is a failed operation, not a dead benchmark
            reason = traceback.format_exc()
        self.failed += 1
        print(f"FAILED {what}: {reason}", file=sys.stderr)
        return None

    def train(self, cfg, run_dir: Path, context: str) -> tuple:
        """One ``train`` call with a run directory; (samples per second, history)."""
        t0 = time.perf_counter()
        _, history = self.call("training.train", train, cfg, self.inputs.source,
                               self.inputs.target, eval_labels=self.inputs.truth,
                               run_dir=run_dir, context=context)
        wall = time.perf_counter() - t0
        workloads.check_train(cfg, self.inputs, run_dir, history)
        steps = len(workloads.data_rows(run_dir / "steps.csv"))
        return steps * cfg.batch_size / wall, history

    def evals(self, ckpt: Path, out_csv: Path, precision: float) -> None:
        """A burst of ``graphda eval`` calls appending to ``out_csv``."""
        args = workloads.eval_args(ckpt, self.inputs, out_csv)
        rows = len(workloads.data_rows(out_csv)) if out_csv.exists() else 0
        spent, calls = 0.0, 0
        while spent < EVAL_BUDGET_S and calls < EVAL_REPEATS:
            t0 = time.perf_counter()
            stdout = self.call("op.eval", workloads.run_cli, args)
            dt = time.perf_counter() - t0
            calls += 1
            workloads.check_eval(stdout, out_csv, rows + calls, precision)
            self.samples["eval_s"].append(dt)
            spent += dt

    def export(self, ckpt: Path, out_dir: Path) -> None:
        t0 = time.perf_counter()
        self.call("op.export", workloads.run_cli, workloads.export_args(ckpt, self.inputs, out_dir))
        dt = time.perf_counter() - t0
        workloads.check_export(self.inputs, out_dir, self.workload.epochs)
        self.samples["export_s"].append(dt)

    def round(self, index: int) -> bool:
        """One round of the four operations; False if the full arm failed.

        Eval is short, so its calls come in three bursts spread over the
        round rather than one, sampling more of the machine's state.
        """
        rdir = self.scratch / f"round{index}"
        rdir.mkdir()
        try:
            full = self.op("train full", self.train, self.full_cfg, rdir / "full", "train_full")
            if full is None:  # the rest of the round needs its checkpoint
                return False
            self.samples["train_samples_per_s"].append(full[0])
            precision = full[1][-1].precision
            self.precisions.append(precision)
            ckpt = rdir / "full" / "checkpoint_final.hdap"
            evals = (self.evals, ckpt, rdir / "eval.csv", precision)
            self.op("eval", *evals)
            floor = self.op("train floor", self.train, self.floor_cfg, rdir / "floor", "train_floor")
            if floor is not None:
                self.samples["floor_samples_per_s"].append(floor[0])
            self.op("eval", *evals)
            self.op("export", self.export, ckpt, rdir / "export")
            self.op("eval", *evals)
            return True
        finally:
            shutil.rmtree(rdir, ignore_errors=True)


def exact_record(path: Path, counts: dict) -> list:
    """Compare counts with those an earlier run recorded at ``path``.

    Returns the names that differ, and records any not yet recorded.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    earlier = json.loads(path.read_text()) if path.exists() else {}
    differ = [k for k, v in counts.items() if k in earlier and earlier[k] != v]
    path.write_text(json.dumps({**counts, **earlier}, sort_keys=True))
    return differ


def measure(args, script: Path, scratch: Path, work: Path, digest: str) -> dict:
    """Set up, run rounds for ``args.seconds``, check and summarize."""
    workload = workloads.WORKLOADS[args.workload]
    (scratch / "inputs").mkdir()
    inputs = workloads.setup(workload, args.seed, scratch / "inputs")
    setup_samples = time_setup(script, args.workload, args.seed, scratch)
    run = Run(workload, inputs, args.seed, scratch)
    notes = []

    deadline = time.perf_counter() + args.seconds
    untraced_sps = math.nan
    traced = []  # (tracer, exact counts) per round
    if args.trace:
        # tracing overhead baseline: the same full-arm train call, untraced
        base = run.op("train full (untraced)", run.train, run.full_cfg, scratch / "base", "train_full")
        if base is not None:
            untraced_sps = base[0]
    index = 0
    while True:
        t0 = time.perf_counter()
        if args.trace:
            tracer = Tracer(layers.CONTEXTS)
            layers.install(tracer)
            run.call = tracer.call
            try:
                ok = run.round(index)
            finally:
                tracer.restore()
            if ok:
                traced.append((tracer, layers.round_counts(tracer, run.precisions[-1])))
        else:
            run.round(index)
        index += 1
        now = time.perf_counter()
        if now + (now - t0) > deadline:  # another round would overrun
            break

    # exact-count self-check: every round, and any earlier run of this code and seed
    counts = [c for _, c in traced] or [{"training.target_precision": p} for p in run.precisions]
    differ = sorted({k for c in counts for k, v in c.items() if v != counts[0][k]})
    if counts:
        differ += exact_record(work / "counts" / f"{digest}-{args.workload}-seed{args.seed}.json",
                               counts[0])
    if differ:
        notes.append("exact-count mismatch between runs with the same seed: " + ", ".join(differ))

    if args.trace:
        units = layers.UNITS
        metrics = layers.metrics(traced, untraced_sps, workload.batch_size) if traced else {}
        if traced:
            path = work / "traces" / f"{args.workload}-seed{args.seed}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "columns": ["name", "start_s", "end_s", "parent", "context"],
                           "rounds": [{"counts": c, "spans": tr.rows()} for tr, c in traced]}, fh)
            notes.append(f"spans written to {path}")
    else:
        units = END_TO_END
        metrics = {name: median_iqr(v) for name, v in {"setup_s": setup_samples, **run.samples}.items()}
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
        metrics["peak_rss_mb"] = (rss, 0.0, 1)
        if run.precisions:
            notes.append(f"target_precision {run.precisions[-1]!r} (full arm, final epoch)")
    notes.append(f"error_rate {run.failed / max(run.attempted, 1)!r} "
                 f"({run.failed} of {run.attempted} operations failed)")
    complete = set(metrics) == set(units) and all(
        math.isfinite(med) and n > 0 for med, _, n in metrics.values())
    return {
        "correct": run.failed == 0 and not differ and complete,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,  # name -> (median, iqr, samples)
        "units": units,
        "notes": notes,
    }
