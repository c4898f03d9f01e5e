"""Workload inputs, the timed operations, and their correctness checks.

Every workload runs the same pipeline on its own inputs, as a user of
the ``graphda`` command would: train the full method, train the
source-only floor arm on the same data, score the full arm's final
checkpoint with ``graphda eval`` and export it with ``graphda export``.
The workloads differ in the data, which moves the cost between layers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from graphda import TrainConfig, cli
from graphda.datasets import (
    Dataset,
    Domain,
    normalize,
    read_dataset,
    read_label_file,
    write_dataset,
    write_label_file,
)
from graphda.model import load_checkpoint


@dataclass(frozen=True)
class Workload:
    name: str
    images: bool
    per_class: int  # per class per domain; two classes
    batch_size: int
    epochs: int
    warmup_epochs: int

    def arms(self, seed: int) -> tuple:
        """(full, floor) configs; the floor is criterion 6's source-only arm."""
        common = dict(
            batch_size=self.batch_size,
            epochs=self.epochs,
            warmup_epochs=self.warmup_epochs,
            threshold_percentile=50.0,
            hidden=64,
            phi_dim=64,
            backbone_hidden=64,
            epsilon=0.95,
            lg_features="backbone",
            seed=seed,
        )
        full = TrainConfig(**common)
        floor = TrainConfig(use_gnn=False, use_pseudo=False, loss_weights=(0.0, 0.0, 1.0), **common)
        return full, floor


WORKLOADS = {
    w.name: w
    for w in (
        # criterion-6 configuration; 9 epochs = 8 warmup + 1 with pseudo-labels
        Workload("adapt-flat", images=False, per_class=500, batch_size=128, epochs=9, warmup_epochs=8),
        # conv backbone with per-sample augmentation warps; 1 epoch keeps rounds short
        Workload("adapt-image", images=True, per_class=256, batch_size=64, epochs=1, warmup_epochs=0),
        # large pooled export graph: 4000 nodes, about 4.0M edges
        Workload("score-export", images=False, per_class=1000, batch_size=128, epochs=2, warmup_epochs=1),
    )
}

FILES = ("source.hda", "target.hda", "target_labels.hda")  # as graphda gen names them
IMAGE_SIDE = 16


# -- inputs --------------------------------------------------------------------


def stroke_images(rng: np.random.Generator, per_class: int, tilt_deg: float,
                  lift: float) -> tuple:
    """Two classes of noisy 16x16 strokes: class 0 horizontal, class 1 vertical.

    Each stroke gets a random offset and a small random tilt. The target
    domain turns every stroke by a further ``tilt_deg`` and lifts the
    background by ``lift``; that is the domain shift.
    """
    yy, xx = np.mgrid[0:IMAGE_SIDE, 0:IMAGE_SIDE].astype(np.float64)
    centre = (IMAGE_SIDE - 1) / 2.0
    images, labels = [], []
    for k in range(2):
        theta = np.deg2rad(90.0 * k + tilt_deg + rng.normal(0.0, 10.0, per_class))[:, None, None]
        cy = (centre + rng.normal(0.0, 1.5, per_class))[:, None, None]
        cx = (centre + rng.normal(0.0, 1.5, per_class))[:, None, None]
        dist = (yy - cy) * np.cos(theta) - (xx - cx) * np.sin(theta)
        img = np.exp(-0.5 * dist**2) + lift + rng.normal(0.0, 0.3, (per_class, IMAGE_SIDE, IMAGE_SIDE))
        images.append(img[:, None])
        labels.append(np.full(per_class, k, dtype=np.int64))
    return np.concatenate(images), np.concatenate(labels)


def write_inputs(workload: Workload, seed: int, out: Path) -> None:
    """Write source, target and the target truth sidecar for ``seed`` into ``out``."""
    if not workload.images:
        run_cli(["gen", "--out", str(out), "--per-class", str(workload.per_class),
                 "--sigma", "1.2", "--seed", str(seed)])
        return
    rng = np.random.default_rng(seed)
    xs, ys = stroke_images(rng, workload.per_class, 0.0, 0.0)
    xt, yt = stroke_images(rng, workload.per_class, 30.0, 0.3)
    write_dataset(out / FILES[0], Dataset(xs, ys, Domain.SOURCE, 2))
    write_dataset(out / FILES[1], Dataset(xt, np.full(len(yt), -1), Domain.TARGET, 2))
    write_label_file(out / FILES[2], yt, xt.shape[1:], 2)


@dataclass(frozen=True, eq=False)
class Inputs:
    dir: Path
    source: Dataset
    target: Dataset
    truth: np.ndarray
    norm: tuple  # (source NormStats, target NormStats)

    def path(self, i: int) -> str:
        return str(self.dir / FILES[i])


def setup(workload: Workload, seed: int, out: Path) -> Inputs:
    """The timed set-up: write the inputs, read them back, normalize."""
    write_inputs(workload, seed, out)
    source = read_dataset(out / FILES[0], Domain.SOURCE)
    target = read_dataset(out / FILES[1], Domain.TARGET)
    truth, _, _ = read_label_file(out / FILES[2])
    norm = (normalize(source)[1], normalize(target)[1])
    return Inputs(out, source, target, truth, norm)


# -- timed operations and their checks ------------------------------------------


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def data_rows(path: Path) -> list:
    return path.read_text(encoding="utf-8").splitlines()[1:]


def check_train(cfg: TrainConfig, inputs: Inputs, run_dir: Path, history: list) -> None:
    """Checks one ``train`` call made with ``run_dir``.

    Every epoch's losses are finite, metrics.csv has one row per epoch,
    steps.csv one row per optimizer step, and the final checkpoint
    records the normalization of exactly these inputs.
    """
    _require(len(history) == cfg.epochs, f"{len(history)} epochs of history, expected {cfg.epochs}")
    for em in history:
        losses = (em.l_mmd, em.l_g, em.l_ce, em.l_total)
        _require(all(math.isfinite(v) for v in losses), f"non-finite loss at epoch {em.epoch}: {losses}")
    rows = len(data_rows(run_dir / "metrics.csv"))
    _require(rows == cfg.epochs, f"metrics.csv has {rows} rows for {cfg.epochs} epochs")
    steps = cfg.epochs * math.ceil(max(len(inputs.source), len(inputs.target)) / (cfg.batch_size // 2))
    rows = len(data_rows(run_dir / "steps.csv"))
    _require(rows == steps, f"steps.csv has {rows} rows for {steps} steps")
    blob = load_checkpoint(run_dir / "checkpoint_final.hdap")
    src, tgt = inputs.norm
    same = all(np.array_equal(blob[k], v) for k, v in (
        ("norm/source_mean", src.mean), ("norm/source_std", src.std),
        ("norm/target_mean", tgt.mean), ("norm/target_std", tgt.std)))
    _require(same, "checkpoint normalization differs from the inputs' statistics")


def run_cli(args: list) -> str:
    """``graphda <args>`` in this process; returns stdout, raises on a nonzero exit."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(args)
    _require(rc == 0, f"graphda {args[0]} exited {rc}")
    return buf.getvalue()


def eval_args(checkpoint: Path, inputs: Inputs, out_csv: Path) -> list:
    return ["eval", "--checkpoint", str(checkpoint), "--target", inputs.path(1),
            "--labels", inputs.path(2), "--json", "--out", str(out_csv)]


def check_eval(stdout: str, out_csv: Path, calls: int, expected: float) -> None:
    """The JSON precision equals the trained final epoch's; one CSV row per call."""
    got = json.loads(stdout.strip().splitlines()[-1])["precision"]
    _require(got == expected, f"eval precision {got!r} differs from the final epoch's {expected!r}")
    rows = len(data_rows(out_csv))
    _require(rows == calls, f"{out_csv.name} has {rows} rows after {calls} eval calls")


def export_args(checkpoint: Path, inputs: Inputs, out_dir: Path) -> list:
    return ["export", "--checkpoint", str(checkpoint), "--source", inputs.path(0),
            "--target", inputs.path(1), "--labels", inputs.path(2), "--out", str(out_dir)]


def check_export(inputs: Inputs, out_dir: Path, epoch: int) -> None:
    """One embedding row per sample; right + wrong + unknown = total edges;
    and at percentile 50 the total is within 1% of half of all pairs."""
    n = len(inputs.source) + len(inputs.target)
    rows = len(data_rows(out_dir / f"embeddings_epoch{epoch:03d}.csv"))
    _require(rows == n, f"embeddings CSV has {rows} rows for {n} samples")
    (row,) = data_rows(out_dir / f"edges_epoch{epoch:03d}.csv")
    _, right, wrong, unknown, total = (int(v) for v in row.split(","))
    _require(right + wrong + unknown == total, f"edge counts {right}+{wrong}+{unknown} != {total}")
    half = n * (n - 1) / 4
    _require(abs(total - half) <= 0.01 * half, f"{total} edges, expected within 1% of {half:.0f}")
