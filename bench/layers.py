"""Which graphda callables the traced run wraps, and the per-layer metrics.

Layers are graphda's modules. A span name is ``<module>.<part>``; the
metric for a span is its median time per call in one context (see
``CONTEXTS``). ``train_full`` and ``train_floor`` are the contexts
of the two ``train`` calls, ``cli.export`` and ``cli.eval`` those of the
two commands.
"""

from __future__ import annotations

import statistics

import graphda.cli as cli
import graphda.datasets as datasets
import graphda.graphs as graphs
import graphda.losses as losses
import graphda.model as model
import graphda.training as training

from spans import Tracer, median_iqr

LAYERS = ("graphs", "losses", "autodiff", "model", "datasets", "pseudo", "training", "cli")

# spans that start a new context for everything nested inside them
CONTEXTS = ("training.train", "pseudo.refresh", "training.evaluate", "cli.export", "cli.eval")

# metric -> (span, context or None for every context, self time only)
TIMINGS = {
    "graphs.threshold_ms": ("graphs.threshold", "train_full", False),
    "graphs.build_ms": ("graphs.build", "train_full", False),
    "graphs.adjacency_ms": ("graphs.adjacency", "train_full", False),
    "graphs.audit_ms": ("graphs.audit", "train_full", False),
    "graphs.pooled_threshold_ms": ("graphs.threshold", "cli.export", False),
    "graphs.pooled_build_ms": ("graphs.build", "cli.export", False),
    "graphs.pooled_audit_ms": ("graphs.audit", "cli.export", False),
    "losses.median_ms": ("losses.median", "train_full", False),
    "losses.mmd_ms": ("losses.mmd", "train_full", False),
    "losses.separation_ms": ("losses.separation", "train_full", False),
    "losses.ce_ms": ("losses.ce", "train_full", False),
    "autodiff.backward_ms": ("autodiff.backward", "train_full", False),
    "model.backbone_ms": ("model.backbone", "train_full", False),
    "model.gnn_ms": ("model.gnn", "train_full", False),
    "model.classify_ms": ("model.classify", "train_full", False),
    "model.load_checkpoint_ms": ("model.load_checkpoint", None, False),
    "model.save_checkpoint_ms": ("model.save_checkpoint", "train_full", False),
    "datasets.sample_batch_ms": ("datasets.sample_batch", "train_full", False),
    "datasets.warp_ms": ("datasets.warp", "train_full", False),
    "datasets.read_ms": ("datasets.read", None, False),
    "pseudo.refresh_ms": ("pseudo.refresh", None, False),
    "pseudo.write_csv_ms": ("pseudo.write_csv", "train_full", False),
    "training.adam_ms": ("training.adam", "train_full", False),
    "training.evaluate_ms": ("training.evaluate", "train_full", False),
    "training.export_embeddings_ms": ("training.export_embeddings", None, False),
    "cli.export_self_ms": ("cli.export", None, True),
    "cli.eval_self_ms": ("cli.eval", None, True),
}

# exact counts that two runs with the same seed must reproduce
EXACT = ("autodiff.nodes_per_step", "graphs.edges", "graphs.pair_passes",
         "datasets.warp_calls", "pseudo.coverage", "training.target_precision")

UNITS = {
    **{name: "ms" for name in TIMINGS},
    "training.step_self_ms": "ms",
    **{f"{layer}.self_ms_per_step": "ms" for layer in LAYERS[:-1]},
    "graphs.edges": "count",
    "graphs.edge_precision": "ratio",
    "graphs.pair_passes": "count/step",
    "autodiff.nodes_per_step": "count/step",
    "datasets.warp_calls": "count",
    "pseudo.coverage": "ratio",
    "training.target_precision": "ratio",
    "trace.overhead_pct": "%",
    "trace.gap_explained": "ratio",
}


def trace_size(loss) -> int:
    """Nodes reachable from ``loss``: what one backward pass visits."""
    seen, stack = set(), [loss]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            stack.extend(t._parents)
    return len(seen)


def install(tr: Tracer) -> None:
    """Wrap every traced callable at the name its caller looks up."""

    def counter(key):
        return lambda args: tr.count(key)

    def built(graph, args):
        tr.count("edges", graph.num_edges)

    def audited(st, args):
        tr.count("right", st.right)
        tr.count("wrong", st.wrong)

    def refreshed(state, args):
        tr.counts[f"{tr.context}:coverage"] = state.num_assigned / len(state.labels)

    for mod in (training, cli):
        tr.wrap(mod, "percentile_threshold", "graphs.threshold", before=counter("pair_passes"))
        tr.wrap(mod, "build_graph", "graphs.build", before=counter("pair_passes"), after=built)
        tr.wrap(mod, "edge_stats", "graphs.audit", after=audited)
        tr.wrap(mod, "assign_pseudo_labels", "pseudo.refresh", after=refreshed)
        tr.wrap(mod, "evaluate", "training.evaluate")
    tr.wrap(graphs.BatchGraph, "adjacency", "graphs.adjacency")
    tr.wrap(losses.KernelSpec, "from_median_heuristic", "losses.median",
            before=counter("pair_passes"))
    tr.wrap(training, "mmd_loss", "losses.mmd")
    tr.wrap(training, "feature_similarity_loss", "losses.separation")
    tr.wrap(training, "cross_entropy_loss", "losses.ce")
    tr.wrap(training, "backward", "autodiff.backward",
            before=lambda args: tr.count("nodes", trace_size(args[0])))
    tr.wrap(model.Model, "backbone_forward", "model.backbone")
    tr.wrap(model.Model, "gnn_forward", "model.gnn")
    tr.wrap(model.Model, "classify", "model.classify")
    tr.wrap(cli, "load_checkpoint", "model.load_checkpoint")
    tr.wrap(training, "save_checkpoint", "model.save_checkpoint")
    tr.wrap(datasets.TwoDomainSampler, "sample_batch", "datasets.sample_batch")
    tr.wrap(training, "_augment_batch", "datasets.warp")
    tr.wrap(training, "warp_image", None, before=counter("warp_calls"))
    tr.wrap(cli, "read_dataset", "datasets.read")
    tr.wrap(cli, "read_label_file", "datasets.read")
    tr.wrap(training, "write_pseudo_csv", "pseudo.write_csv")
    tr.wrap(training.Adam, "step", "training.adam", before=counter("steps"))
    tr.wrap(cli, "export_embeddings", "training.export_embeddings")
    tr.wrap(cli, "cmd_export", "cli.export")
    tr.wrap(cli, "cmd_eval", "cli.eval")


def _count(tr: Tracer, key: str, contexts) -> float:
    return sum(tr.counts.get(f"{ctx}:{key}", 0.0) for ctx in contexts)


def round_counts(tr: Tracer, target_precision: float) -> dict:
    """The exact counts of one traced round."""
    steps = _count(tr, "steps", ["train_full"])
    return {
        "autodiff.nodes_per_step": _count(tr, "nodes", ["train_full"]) / steps,
        "graphs.edges": _count(tr, "edges", ["train_full", "cli.export"]),
        "graphs.pair_passes": _count(tr, "pair_passes", ["train_full"]) / steps,
        "datasets.warp_calls": _count(tr, "warp_calls", ["train_full", "train_floor"]),
        "pseudo.coverage": tr.counts.get("train_full:coverage", 0.0),
        "training.target_precision": target_precision,
    }


def per_step(tr: Tracer, context: str) -> dict:
    """Seconds per optimizer step of the train call that opened ``context``:
    its wall time, self time by layer, the train span's own self time, and
    the kernel median's self time."""
    roots = tr.roots(context)
    steps = _count(tr, "steps", [context])
    selfs = tr.self_times()
    return {
        "wall": sum(tr.spans[i][2] - tr.spans[i][1] for i in roots) / steps,
        "layers": {k: v / steps for k, v in tr.self_by_layer(roots).items()},
        "loop": sum(selfs[i] for i in roots) / steps,
        "median": sum(tr.durations("losses.median", context, self_only=True)) / steps,
    }


def metrics(rounds: list, untraced_sps: float, batch_size: int) -> dict:
    """Per-layer metrics over traced rounds, as {name: (median, iqr, n)}.

    ``rounds`` holds (tracer, counts) per round. Timings pool every call
    across rounds; per-step figures and counts take the median over rounds.
    """
    out = {}
    for name, (span, ctx, self_only) in TIMINGS.items():
        out[name] = median_iqr([d * 1e3 for tr, _ in rounds
                                for d in tr.durations(span, ctx, self_only=self_only)])

    full = [per_step(tr, "train_full") for tr, _ in rounds]
    floor = [per_step(tr, "train_floor") for tr, _ in rounds]
    out["training.step_self_ms"] = median_iqr([f["loop"] * 1e3 for f in full])
    for layer in LAYERS[:-1]:
        out[f"{layer}.self_ms_per_step"] = median_iqr([f["layers"].get(layer, 0.0) * 1e3 for f in full])
    # share of the full-vs-floor step gap that graph construction and the kernel median explain
    out["trace.gap_explained"] = median_iqr([
        (f["layers"].get("graphs", 0.0) + f["median"] - b["layers"].get("graphs", 0.0) - b["median"])
        / (f["wall"] - b["wall"])
        for f, b in zip(full, floor)])
    traced_sps = statistics.median(batch_size / f["wall"] for f in full)
    out["trace.overhead_pct"] = median_iqr([100.0 * (untraced_sps / traced_sps - 1.0)])

    audits = [(_count(tr, "right", ["train_full", "cli.export"]),
               _count(tr, "wrong", ["train_full", "cli.export"])) for tr, _ in rounds]
    out["graphs.edge_precision"] = median_iqr([r / (r + w) if r + w else 0.0 for r, w in audits])
    for name in EXACT:
        out[name] = median_iqr([c[name] for _, c in rounds])
    return out
