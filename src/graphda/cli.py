"""Command-line front end: ``gen``, ``train``, ``eval``, ``export``.

One command per process. Every training run directory receives a
``manifest.txt`` before the first optimizer step: a flat, diffable
key=value file holding the fully resolved configuration, input file
digests, and the package version, so the run can be re-executed
bit-identically from the manifest alone.

Exit codes are part of the interface: 0 success, 2 usage error,
3 data-format error, 4 numerical divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from importlib import metadata
from pathlib import Path

import numpy as np

from .datasets import (
    DataFormatError,
    Dataset,
    Domain,
    ShiftConfig,
    _fmt,
    _write_atomic,
    gen_synthetic_shift,
    read_dataset,
    read_label_file,
    write_dataset,
    write_label_file,
)
from .graphs import EdgeStats, build_graph, edge_pass, edge_stats, pair_distances, percentile_threshold
from .model import Model, config_from_tensors, load_checkpoint, run_from_tensors
from .pseudo import _check_epsilon, assign_pseudo_labels
from .training import (
    DivergenceError,
    TrainConfig,
    _check_inputs,
    evaluate,
    export_embeddings,
    train,
)


class UsageError(Exception):
    """Bad arguments or preconditions; maps to exit code 2."""


def _version() -> str:
    try:
        return metadata.version("graphda")
    except metadata.PackageNotFoundError:
        return "0.0.0"


# -- config value round-trip ---------------------------------------------------
#
# Manifest and config-file values share one text form, ``_fmt``, so a manifest's
# config section can be fed back in as a config file unchanged.


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1"):
        return True
    if t in ("false", "0"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def _parse_floats(text: str) -> tuple:
    return tuple(float(p) for p in text.split(",") if p.strip())


def _parse_ints(text: str) -> tuple:
    return tuple(int(p) for p in text.split(",") if p.strip())


def _parse_optional_float(text: str):
    return None if text.strip().lower() == "none" else float(text)


# value parser per TrainConfig annotation, shared by flags and config files
_VALUE_PARSERS = {
    "bool": _parse_bool,
    "int": int,
    "float": float,
    "float | None": _parse_optional_float,
    "tuple[float, ...]": _parse_floats,
    "tuple[int, ...]": _parse_ints,
}
_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}

# Keys of removed options that older manifests still carry, each with the
# values that ran exactly as every run does now; the reader skips them, so
# such manifests replay. Any other value asked for a mode that no longer exists.
_RETIRED_KEYS = {
    "precision": ("f32", "f64"),  # both widths ran in float64
    "sticky_pseudo": ("false",),
    "pseudo_refresh": ("epoch",),
    "graph_features": ("pre_relu",),
    "augment": ("true",),
    "lg_features": ("backbone",),
}


def _read_config_file(path, lines=None) -> dict:
    """Flat key=value text; blank lines, # comments and retired keys at a
    kept value are skipped, and a repeated key is an error naming both
    lines. ``lines``, if given, receives each key's line number."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    out, where = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in where:
            raise UsageError(f"{path}:{lineno}: config key {key!r} repeats {path}:{where[key]}")
        where[key] = lineno
        if key in _RETIRED_KEYS:
            if val not in _RETIRED_KEYS[key]:
                kept = " or ".join(f"{key}={v}" for v in _RETIRED_KEYS[key])
                raise UsageError(f"{path}:{lineno}: option {key} was removed; "
                                 f"only {kept} still replays, got {val!r}")
            continue
        if key not in _CONFIG_FIELDS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[key] = _VALUE_PARSERS[_CONFIG_FIELDS[key].type](val)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}")
    if lines is not None:
        lines.update((key, where[key]) for key in out)
    return out


def _resolve_train_config(args) -> TrainConfig:
    """Defaults, then HDA_SEED, then the config file, then explicit flags."""
    values, lines = {}, {}
    env_seed = os.environ.get("HDA_SEED")
    if env_seed is not None:
        try:
            values["seed"] = int(env_seed)
        except ValueError:
            raise UsageError(f"HDA_SEED must be an integer, got {env_seed!r}")
    if args.config is not None:
        values.update(_read_config_file(args.config, lines))
    for name in _CONFIG_FIELDS:
        if hasattr(args, name):  # flags use SUPPRESS: present only when given
            values[name] = getattr(args, name)
            lines.pop(name, None)
    try:
        return TrainConfig(**values)
    except (TypeError, ValueError) as exc:
        for name, lineno in lines.items():  # blame a file line whose value fails alone
            try:
                TrainConfig(**{name: values[name]})
            except (TypeError, ValueError) as line_exc:
                raise UsageError(f"{args.config}:{lineno}: {line_exc}")
        raise UsageError(str(exc))


# -- shared helpers ------------------------------------------------------------


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(path, entries: dict) -> None:
    text = "".join(f"{key}={entries[key]}\n" for key in sorted(entries))
    _write_atomic(path, text.encode("utf-8"))


def _check_input_dims(model: Model, dataset: Dataset, path) -> None:
    if dataset.feature_dims != model.config.input_dims:
        raise DataFormatError(
            f"{path}: feature shape {dataset.feature_dims} does not match "
            f"checkpoint input dims {model.config.input_dims}"
        )


def _read_eval_labels(path, target: Dataset) -> np.ndarray:
    labels, dims, m = read_label_file(path)
    if (labels.shape[0], dims, m) != (len(target), target.feature_dims, target.num_classes):
        raise DataFormatError(
            f"{path}: {labels.shape[0]} labels of shape {dims} over {m} classes does not match "
            f"target file ({len(target)} samples of shape {target.feature_dims}, "
            f"{target.num_classes} classes)"
        )
    return labels


def _infer(model: Model, features, checkpoint) -> tuple:
    """``model.infer``, refused naming ``checkpoint`` when its weights overflow: a
    probability is not finite, or 4 times a phi row's squared norm, which bounds
    its squared distances, is not."""
    with np.errstate(over="ignore", invalid="ignore"):
        phi, probs = model.infer(features)
        if np.isfinite(probs).all() and np.isfinite(4.0 * np.einsum("ij,ij->i", phi, phi)).all():
            return phi, probs
    raise DataFormatError(f"{checkpoint}: the weights overflow at inference")


# -- subcommands ---------------------------------------------------------------


def cmd_gen(args) -> int:
    out = Path(args.out)
    if not out.is_dir():
        raise UsageError(f"output directory {out} does not exist")
    paths = {
        "source": out / "source.hda",
        "target": out / "target.hda",
        "eval_labels": out / "target_labels.hda",
        "manifest": out / "manifest.txt",
    }
    clashes = [str(p) for p in paths.values() if p.exists()]
    if clashes and not args.force:
        raise UsageError("refusing to overwrite " + ", ".join(clashes) + " (pass --force)")
    if args.seed < 0:
        raise UsageError(f"--seed must be nonnegative, got {args.seed}")
    try:
        cfg = ShiftConfig(
            num_classes=args.classes,
            per_class=args.per_class,
            dim=args.dim,
            radius=args.radius,
            noise_sigma=args.sigma,
            rotation_deg=args.rotate,
            translation=tuple(args.translate),
            cov_scale=args.cov_scale,
        )
        source, target, ev = gen_synthetic_shift(cfg, np.random.default_rng(args.seed))
    except ValueError as exc:
        raise UsageError(str(exc))
    write_dataset(paths["source"], source)
    write_dataset(paths["target"], target)
    write_label_file(paths["eval_labels"], ev, source.feature_dims, cfg.num_classes)
    entries = {"command": "gen", "version": _version(), "gen.seed": args.seed}
    for name in ("num_classes", "per_class", "dim", "radius", "noise_sigma",
                 "rotation_deg", "translation", "cov_scale"):
        entries[f"gen.{name}"] = _fmt(getattr(cfg, name))
    for name in ("source", "target", "eval_labels"):
        entries[f"files.{name}"] = paths[name].name
        entries[f"digest.{name}"] = _digest(paths[name])
    _write_manifest(paths["manifest"], entries)
    print(f"wrote {len(source)} source and {len(target)} target samples to {out}")
    return 0


def cmd_train(args) -> int:
    config = _resolve_train_config(args)
    run_dir = Path(args.out)
    if run_dir.is_dir() and any(run_dir.iterdir()) and not args.force:
        raise UsageError(f"refusing to overwrite {run_dir} (pass --force)")
    source = read_dataset(args.source, Domain.SOURCE)
    target = read_dataset(args.target, Domain.TARGET)
    eval_labels = _read_eval_labels(args.labels, target) if args.labels else None
    try:
        _check_inputs(config, source, target, names=(args.source, args.target))
    except DataFormatError:
        raise
    except ValueError as exc:
        raise UsageError(str(exc))

    run_dir.mkdir(parents=True, exist_ok=True)
    entries = {
        "command": "train",
        "version": _version(),
        "source": str(args.source),
        "target": str(args.target),
        "out": str(args.out),
        "digest.source": _digest(args.source),
        "digest.target": _digest(args.target),
    }
    if args.labels:
        entries["eval_labels"] = str(args.labels)
        entries["digest.eval_labels"] = _digest(args.labels)
    for name in _CONFIG_FIELDS:
        entries[f"config.{name}"] = _fmt(getattr(config, name))
    _write_manifest(run_dir / "manifest.txt", entries)

    _, history = train(config, source, target, eval_labels=eval_labels, run_dir=run_dir)
    last = history[-1]
    print(
        f"completed {config.epochs} epochs: l_total={_fmt(last.l_total)} "
        f"precision={_fmt(last.precision)} accuracy={_fmt(last.accuracy)}"
    )
    print(f"artifacts in {run_dir}")
    return 0


def cmd_eval(args) -> int:
    blob = load_checkpoint(args.checkpoint)
    model = Model.from_state(config_from_tensors(blob), blob)
    meta = run_from_tensors(blob, model.config)
    target = read_dataset(args.target, Domain.TARGET)
    _check_input_dims(model, target, args.target)
    if not len(target):
        raise DataFormatError(f"{args.target}: no samples; precision and accuracy need at least 1")
    labels = _read_eval_labels(args.labels, target)
    _, probs = _infer(model, meta.target_stats.apply(target.features), args.checkpoint)
    metrics = evaluate(probs, labels, positive_class=meta.positive_class)
    epoch = meta.epoch
    if args.json:
        print(json.dumps({
            "epoch": epoch,
            "precision": metrics.precision,
            "accuracy": metrics.accuracy,
            "precision_defined": metrics.precision_defined,
        }))
    else:
        print(f"epoch={epoch} precision={_fmt(metrics.precision)} "
              f"accuracy={_fmt(metrics.accuracy)}")
    row_path = Path(args.out)
    fresh = not row_path.exists()
    with open(row_path, "a", newline="\n") as fh:
        if fresh:
            fh.write("epoch,precision,accuracy\n")
        fh.write(f"{epoch},{_fmt(metrics.precision)},{_fmt(metrics.accuracy)}\n")
    return 0


def _audit_pooled(phi: np.ndarray, audit: np.ndarray, threshold, percentile) -> EdgeStats:
    """Edge counts of the pooled graph at the fixed ``threshold``, or at the ``percentile``
    of its distances when that is not None, in one pass over the Gram blocks (``edge_pass``,
    then the edges of the pairs it holds) of the rows ordered by audit label, which moves
    only bits of estimates that every decision is certified against."""
    order = np.argsort(audit, kind="stable")
    geom = pair_distances(phi[order], labels=np.asarray(audit)[order])
    if percentile is not None:
        threshold = percentile_threshold(geom, percentile)
    counted, held = edge_pass(geom, threshold)
    return counted + edge_stats(build_graph(geom, threshold, held), geom.labels)


def cmd_export(args) -> int:
    blob = load_checkpoint(args.checkpoint)
    model = Model.from_state(config_from_tensors(blob), blob)
    meta = run_from_tensors(blob, model.config)
    try:
        _check_epsilon(args.epsilon, model.config.num_classes)
    except ValueError as exc:
        raise UsageError(str(exc))
    source = read_dataset(args.source, Domain.SOURCE)
    target = read_dataset(args.target, Domain.TARGET)
    _check_input_dims(model, source, args.source)
    _check_input_dims(model, target, args.target)
    eval_labels = _read_eval_labels(args.labels, target) if args.labels else None
    # the projection needs a row, a percentile threshold a pair
    what, need = ("export", 1) if meta.percentile is None else ("a percentile threshold", 2)
    if len(source) + len(target) < need:
        raise DataFormatError(
            f"{args.source} and {args.target} hold {len(source) + len(target)} samples; "
            f"{what} needs at least {need}"
        )
    epoch = meta.epoch

    phi_s, _ = _infer(model, meta.source_stats.apply(source.features), args.checkpoint)
    phi_t, probs_t = _infer(model, meta.target_stats.apply(target.features), args.checkpoint)
    state = assign_pseudo_labels(probs_t, args.epsilon, epoch=epoch)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    emb_path = out / f"embeddings_epoch{epoch:03d}.csv"
    phi = export_embeddings(emb_path, phi_s, phi_t, source.labels, state.labels, epoch=epoch)
    del phi_s, phi_t  # freed before the audit makes its label-ordered copy of the pooled rows

    # Pooled graph at the stored threshold, audited against source truth
    # plus the eval sidecar when provided (-1 rows count as unknown).
    audit = np.concatenate([
        source.labels,
        eval_labels if eval_labels is not None else np.full(len(target), -1, dtype=np.int64),
    ])
    stats = _audit_pooled(phi, audit, meta.threshold, meta.percentile)
    edges_path = out / f"edges_epoch{epoch:03d}.csv"
    _write_atomic(edges_path, "epoch,right,wrong,unknown,total\n"
                  f"{epoch},{stats.right},{stats.wrong},{stats.unknown},{stats.total}\n".encode())
    print(f"wrote {emb_path.name} and {edges_path.name} to {out}")
    return 0


# -- argument parsing ----------------------------------------------------------


def _add_config_flags(parser) -> None:
    """One flag per TrainConfig field, spelled, parsed and documented as the field declares."""
    g = parser.add_argument_group("training configuration",
                                  "each help ends with the option's --config line at its default")
    defaults = TrainConfig()
    for name, f in _CONFIG_FIELDS.items():
        default = getattr(defaults, name)
        kw = {"dest": name, "default": argparse.SUPPRESS,
              "help": f"{f.metadata['help']} ({name}={_fmt(default)})"}
        if f.type == "bool":
            kw["action"] = "store_false" if default else "store_true"
        else:
            kw["type"] = _VALUE_PARSERS[f.type]
        g.add_argument(f.metadata["flag"] or "--" + name.replace("_", "-"), **kw)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphda",
        description="Unsupervised domain adaptation with batch graphs and pseudo-labels.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {_version()}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic source/target pair")
    gen.add_argument("--out", required=True, help="existing directory for the output files")
    gen.add_argument("--classes", type=int, default=2, help="class count (2)")
    gen.add_argument("--per-class", dest="per_class", type=int, default=500,
                     help="samples per class per domain (500)")
    gen.add_argument("--dim", type=int, default=2, help="feature dimensionality (2)")
    gen.add_argument("--radius", type=float, default=2.0,
                     help="distance of class means from the origin (2.0)")
    gen.add_argument("--sigma", type=float, default=1.0, help="class noise scale (1.0)")
    gen.add_argument("--rotate", type=float, default=45.0,
                     help="target-domain rotation in degrees (45)")
    gen.add_argument("--translate", type=_parse_floats, default=(),
                     help="comma vector added to target features")
    gen.add_argument("--cov-scale", dest="cov_scale", type=float, default=1.0,
                     help="target noise rescale (1.0)")
    gen.add_argument("--seed", type=int, default=0, help="generator seed (0)")
    gen.add_argument("--force", action="store_true", help="overwrite existing output files")
    gen.set_defaults(func=cmd_gen)

    tr = sub.add_parser("train", help="run the adaptation loop, writing all run artifacts")
    tr.add_argument("--source", required=True, help="labeled source dataset file")
    tr.add_argument("--target", required=True, help="unlabeled target dataset file")
    tr.add_argument("--labels", help="target ground-truth sidecar; metrics only, never trained on")
    tr.add_argument("--out", required=True, help="run directory (created if missing)")
    tr.add_argument("--force", action="store_true", help="write into a non-empty run directory")
    tr.add_argument("--config", help="flat key=value config file; flags override it")
    _add_config_flags(tr)
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="score a checkpoint on a labeled target set")
    ev.add_argument("--checkpoint", required=True, help="checkpoint file to score")
    ev.add_argument("--target", required=True, help="target dataset file")
    ev.add_argument("--labels", required=True, help="ground-truth sidecar for the target file")
    ev.add_argument("--out", default="eval.csv", help="CSV file the result row is appended to")
    ev.add_argument("--json", action="store_true", help="print the result as JSON")
    ev.set_defaults(func=cmd_eval)

    ex = sub.add_parser("export", help="dump per-sample embeddings and edge statistics")
    ex.add_argument("--checkpoint", required=True, help="checkpoint file to export from")
    ex.add_argument("--source", required=True, help="labeled source dataset file")
    ex.add_argument("--target", required=True, help="unlabeled target dataset file")
    ex.add_argument("--labels", help="optional target sidecar for edge auditing")
    ex.add_argument("--out", required=True, help="output directory (created if missing)")
    ex.add_argument("--epsilon", type=float, default=0.97,
                    help="confidence gate for the exported pseudo-labels (0.97)")
    ex.set_defaults(func=cmd_export)
    return parser


_EXIT_CODES = {UsageError: 2, DataFormatError: 3, DivergenceError: 4, OSError: 2}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed its message
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
