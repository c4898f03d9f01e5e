"""End-to-end tests for the command-line interface.

Each test drives ``cli.main`` in-process with an argv list; exit codes
and emitted files are the assertions. A shared tiny dataset and one
short training run keep the suite fast.
"""

import dataclasses
import json
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import graphda
from graphda import cli, graphs
from graphda.cli import (
    _RETIRED_KEYS,
    _build_parser,
    _fmt,
    _read_config_file,
    _write_manifest,
    main,
)
from graphda.datasets import (
    Batch,
    Dataset,
    Domain,
    read_dataset,
    read_label_file,
    write_dataset,
    write_label_file,
)
from graphda.graphs import edge_stats
from graphda.losses import LossBreakdown
from graphda.model import Model, load_checkpoint, save_checkpoint
from graphda.pseudo import PseudoState, write_pseudo_csv
from graphda.training import TrainConfig, _dump_divergence, export_embeddings
from geometry import graph_of, threshold_of

scipy_stats = pytest.importorskip("scipy.stats")


# tiny but non-degenerate: 8-sample batches, 8-wide layers, 2 epochs
TINY_TRAIN = [
    "--epochs", "2", "--batch", "8", "--hidden", "8", "--phi-dim", "8",
    "--backbone-hidden", "8", "--threshold-percentile", "30", "--seed", "1",
]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    assert main(["gen", "--out", str(d), "--per-class", "30", "--seed", "7"]) == 0
    return d


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data_dir):
    d = tmp_path_factory.mktemp("run")
    code = main(["train", "--source", str(data_dir / "source.hda"),
                 "--target", str(data_dir / "target.hda"),
                 "--labels", str(data_dir / "target_labels.hda"),
                 "--out", str(d), *TINY_TRAIN])
    assert code == 0
    return d


def read_manifest(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, val = line.partition("=")
        out[key] = val
    return out


# -- gen -----------------------------------------------------------------------


def test_gen_writes_both_domains_and_sidecar(data_dir):
    source = read_dataset(data_dir / "source.hda", Domain.SOURCE)
    target = read_dataset(data_dir / "target.hda", Domain.TARGET)
    assert len(source) == 60 and len(target) == 60
    assert source.feature_dims == (2,)
    assert (target.labels == -1).all()
    manifest = read_manifest(data_dir / "manifest.txt")
    assert manifest["command"] == "gen"
    assert manifest["version"] == graphda.__version__
    assert manifest["gen.per_class"] == "30"
    assert len(manifest["digest.source"]) == 64


def test_gen_refuses_overwrite_without_force(data_dir, capsys):
    before = (data_dir / "source.hda").read_bytes()
    assert main(["gen", "--out", str(data_dir), "--per-class", "30"]) == 2
    assert "--force" in capsys.readouterr().err
    assert (data_dir / "source.hda").read_bytes() == before
    assert main(["gen", "--out", str(data_dir), "--per-class", "30",
                 "--seed", "8", "--force"]) == 0
    assert (data_dir / "source.hda").read_bytes() != before
    # restore the fixture's seed for the tests that share this directory
    assert main(["gen", "--out", str(data_dir), "--per-class", "30",
                 "--seed", "7", "--force"]) == 0


def test_train_refuses_non_empty_out_without_force(data_dir, tmp_path, capsys):
    def train(out, *flags):
        return main(["train", "--source", str(data_dir / "source.hda"),
                     "--target", str(data_dir / "target.hda"), "--out", str(out),
                     *TINY_TRAIN, *flags])

    out, empty = tmp_path / "run", tmp_path / "empty"
    out.mkdir()
    empty.mkdir()
    (out / "notes.txt").write_text("keep")
    assert train(out) == 2
    assert capsys.readouterr().err == f"error: refusing to overwrite {out} (pass --force)\n"
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]  # nothing written
    assert train(out, "--force") == 0
    assert (out / "manifest.txt").is_file() and (out / "notes.txt").read_text() == "keep"
    assert train(empty) == 0  # an empty directory is not refused


def test_gen_missing_output_dir_writes_nothing(tmp_path, capsys):
    missing = tmp_path / "not_created" / "deeper"
    assert main(["gen", "--out", str(missing)]) == 2
    assert "does not exist" in capsys.readouterr().err
    assert not missing.exists() and not (tmp_path / "not_created").exists()


def test_gen_rotate_zero_matches_distributions(tmp_path):
    d = tmp_path / "flat"
    d.mkdir()
    assert main(["gen", "--out", str(d), "--per-class", "300", "--rotate", "0",
                 "--seed", "3"]) == 0
    source = read_dataset(d / "source.hda", Domain.SOURCE)
    target = read_dataset(d / "target.hda", Domain.TARGET)
    for channel in range(2):
        _, p = scipy_stats.ks_2samp(source.features[:, channel],
                                    target.features[:, channel])
        assert p > 0.01


def test_gen_rotate_45_shifts_marginals(tmp_path):
    d = tmp_path / "rot"
    d.mkdir()
    assert main(["gen", "--out", str(d), "--per-class", "300", "--seed", "3"]) == 0
    source = read_dataset(d / "source.hda", Domain.SOURCE)
    target = read_dataset(d / "target.hda", Domain.TARGET)
    # the first channel's bimodal spread contracts under a 45 degree turn
    _, p = scipy_stats.ks_2samp(source.features[:, 0], target.features[:, 0])
    assert p < 0.01


def test_gen_rejects_bad_shape_args(tmp_path, capsys):
    d = tmp_path / "bad"
    d.mkdir()
    assert main(["gen", "--out", str(d), "--classes", "1"]) == 2
    capsys.readouterr()


# each once exited 1 with a traceback, or 0 with files that train then rejects
@pytest.mark.parametrize("args, message", [
    (["--seed", "-1"], "--seed"),
    (["--sigma", "nan"], "finite"),
    (["--radius", "inf"], "finite"),
    (["--rotate", "nan"], "finite"),
    (["--translate", "nan,0"], "finite"),
    (["--sigma", "1e300"], "overflow"),  # finite, but not in the files' float32
    (["--sigma", "1e308"], "overflow"),  # overflows float64 too
    (["--radius", "1e308", "--rotate", "30"], "overflow"),
    (["--translate", "1e308,1e308"], "overflow"),
], ids=["seed", "sigma-nan", "radius-inf", "rotate-nan", "translate-nan", "sigma-overflow",
        "sigma-overflow-64", "radius-rotated", "translate-huge"])
def test_gen_rejects_bad_numbers_and_writes_nothing(tmp_path, capsys, args, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["gen", "--out", str(tmp_path), *args]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# -- train ---------------------------------------------------------------------


def test_train_smoke_artifacts(run_dir):
    for name in ("manifest.txt", "metrics.csv", "steps.csv", "pseudo.csv",
                 "checkpoint_final.hdap"):
        assert (run_dir / name).exists(), name
    rows = (run_dir / "metrics.csv").read_text().splitlines()
    assert rows[0].startswith("epoch,precision,accuracy")
    assert len(rows) == 3


def test_manifest_written_with_resolved_config(run_dir):
    manifest = read_manifest(run_dir / "manifest.txt")
    assert manifest["command"] == "train"
    assert manifest["version"] == graphda.__version__
    assert manifest["config.epochs"] == "2"
    assert manifest["config.batch_size"] == "8"
    assert manifest["config.lr"] == "0.001"          # untouched default, materialized
    assert manifest["config.weight_decay"] == "1e-06"
    assert manifest["config.use_gnn"] == "true"
    assert len(manifest["digest.target"]) == 64
    assert manifest["digest.source"] != manifest["digest.target"]


def test_train_defaults_match_protocol(data_dir, tmp_path):
    # flag-free invocation must resolve to the published hyperparameters;
    # 0 epochs is invalid, so read them from the manifest of a 1-epoch run
    d = tmp_path / "defaults"
    code = main(["train", "--source", str(data_dir / "source.hda"),
                 "--target", str(data_dir / "target.hda"),
                 "--out", str(d), "--epochs", "1", "--batch", "8"])
    assert code == 0
    manifest = read_manifest(d / "manifest.txt")
    assert manifest["config.lr"] == "0.001"
    assert manifest["config.weight_decay"] == "1e-06"
    assert manifest["config.epsilon"] == "0.97"
    assert manifest["config.threshold"] == "150.0"
    assert manifest["config.epochs"] == "1"          # the only overrides
    assert manifest["config.batch_size"] == "8"


# --frobnicate never existed; the others are removed options
@pytest.mark.parametrize("flag", [["--frobnicate", "1"], ["--precision", "f64"], ["--sticky"],
                                  ["--pseudo-refresh", "batch"],
                                  ["--graph-features", "post_relu"], ["--no-augment"],
                                  ["--kernel-scales", "1.0"], ["--conv-channels", "8,16"],
                                  ["--checkpoint-every", "10"], ["--positive-class", "1"]],
                         ids=lambda flag: flag[0])
def test_unknown_flag_rejected(capsys, flag):
    assert main(["train", "--source", "a", "--target", "b", "--out", "c", *flag]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_malformed_magic_is_format_error(tmp_path, data_dir, capsys):
    bad = tmp_path / "bad.hda"
    bad.write_bytes(b"XXXXjunk")
    code = main(["train", "--source", str(bad),
                 "--target", str(data_dir / "target.hda"),
                 "--out", str(tmp_path / "run")])
    assert code == 3
    err = capsys.readouterr().err
    assert "byte 0" in err and "magic" in err
    assert not (tmp_path / "run").exists()


# dims whose product passes int64 (numpy read a negative width), and a C int
@pytest.mark.parametrize("dims", [(2**32 - 1,) * 8, (65536, 65536)], ids=["int64", "c-int"])
def test_header_dims_too_large_are_format_error(tmp_path, data_dir, capsys, dims):
    bad = tmp_path / "bad.hda"
    bad.write_bytes(b"HDA1" + np.array([1, 1, len(dims), *dims, 2], dtype="<u4").tobytes()
                    + bytes(16))
    code = main(["train", "--source", str(bad), "--target", str(data_dir / "target.hda"),
                 "--out", str(tmp_path / "run")])
    assert code == 3
    assert "byte 16" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_divergence_exit_code(data_dir, tmp_path, capsys):
    d = tmp_path / "blowup"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow IS the point
        code = main(["train", "--source", str(data_dir / "source.hda"),
                     "--target", str(data_dir / "target.hda"),
                     "--out", str(d), *TINY_TRAIN, "--lr", "1e100"])
    assert code == 4
    assert "non-finite loss" in capsys.readouterr().err
    assert (d / "divergence.txt").exists()


def test_no_gnn_flag_disables_graph(data_dir, tmp_path):
    d = tmp_path / "nognn"
    code = main(["train", "--source", str(data_dir / "source.hda"),
                 "--target", str(data_dir / "target.hda"),
                 "--labels", str(data_dir / "target_labels.hda"),
                 "--out", str(d), *TINY_TRAIN, "--no-gnn"])
    assert code == 0
    assert read_manifest(d / "manifest.txt")["config.use_gnn"] == "false"
    last = (d / "metrics.csv").read_text().splitlines()[-1].split(",")
    assert last[8] == "0" and last[9] == "0"  # edge columns stay empty


# -- config file and precedence --------------------------------------------------


def test_flag_beats_config_file_beats_default(data_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs=3\nseed=5\nmargin=4.0\n# comment\n\n")
    d = tmp_path / "prec"
    code = main(["train", "--source", str(data_dir / "source.hda"),
                 "--target", str(data_dir / "target.hda"),
                 "--out", str(d), "--config", str(cfg),
                 "--epochs", "1", "--batch", "8"])
    assert code == 0
    manifest = read_manifest(d / "manifest.txt")
    assert manifest["config.epochs"] == "1"      # flag wins
    assert manifest["config.seed"] == "5"        # file wins over default
    assert manifest["config.margin"] == "4.0"
    assert manifest["config.lr"] == "0.001"      # default survives


def test_hda_seed_is_not_read(data_dir, tmp_path, monkeypatch):
    # the seed comes from --seed or the config file only; earlier releases also read HDA_SEED
    monkeypatch.setenv("HDA_SEED", "9")
    d = tmp_path / "env"
    assert main(["train", "--source", str(data_dir / "source.hda"),
                 "--target", str(data_dir / "target.hda"),
                 "--epochs", "1", "--batch", "8", "--out", str(d)]) == 0
    assert read_manifest(d / "manifest.txt")["config.seed"] == "0"


@pytest.mark.parametrize("line", ["nonsense=1", "epochs", "epochs=x"])
def test_bad_config_file_is_usage_error(data_dir, tmp_path, line, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code = main(["train", "--source", str(data_dir / "source.hda"),
                 "--target", str(data_dir / "target.hda"),
                 "--out", str(tmp_path / "x"), "--config", str(cfg)])
    assert code == 2
    assert "bad.cfg:1" in capsys.readouterr().err


def test_repeated_config_key_is_usage_error(data_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs=1\n# the same key again, most likely an editing slip\nepochs=3\n")
    out = tmp_path / "x"
    code = main(["train", "--source", str(data_dir / "source.hda"),
                 "--target", str(data_dir / "target.hda"),
                 "--out", str(out), "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{cfg}:3: " in err and f"repeats {cfg}:1" in err and "epochs" in err
    assert not out.exists()


def test_non_utf8_config_is_usage_error(data_dir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xff\xfeepochs=1\n")
    code = main(["train", "--source", str(data_dir / "source.hda"),
                 "--target", str(data_dir / "target.hda"),
                 "--out", str(tmp_path / "x"), "--config", str(cfg)])
    assert code == 2
    assert "bad.cfg" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("line, field", [("epsilon=1.5", "epsilon"),
                                         ("batch_size=7", "batch_size"),
                                         ("backbone_hidden=0", "backbone_hidden")])
def test_config_value_failing_a_check_names_file_and_line(data_dir, tmp_path, capsys, line, field):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# tiny run\nepochs=1\n{line}\n")
    train = ["train", "--source", str(data_dir / "source.hda"),
             "--target", str(data_dir / "target.hda"), "--config", str(cfg)]
    assert main(train + ["--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:3: " in err and field in err
    assert not (tmp_path / "x").exists()
    # an explicit flag overrides the file's value, which is then never checked
    flag = ["--epsilon", "0.9"] if field == "epsilon" else ["--batch", "8"]
    assert main(train + TINY_TRAIN + flag + ["--out", str(tmp_path / "y")]) == 0


def test_non_finite_flag_is_usage_error(data_dir, tmp_path, capsys):
    out = tmp_path / "x"
    code = main(["train", "--source", str(data_dir / "source.hda"),
                 "--target", str(data_dir / "target.hda"), "--out", str(out),
                 "--threshold", "nan", "--threshold-percentile", "none"])
    assert code == 2
    assert "threshold" in capsys.readouterr().err
    assert not out.exists()


def _manifest_config(run_dir, path, first_line=""):
    """Writes the run's manifest config section as a config file, after
    ``first_line``; returns the manifest."""
    manifest = read_manifest(run_dir / "manifest.txt")
    path.write_text(f"{first_line}\n" + "".join(
        f"{k.removeprefix('config.')}={v}\n"
        for k, v in manifest.items() if k.startswith("config.")
    ))
    return manifest


def _replay(run_dir, tmp_path, first_line=""):
    """Trains again from the run's manifest alone and checks the bytes match."""
    cfg = tmp_path / "replay.cfg"
    manifest = _manifest_config(run_dir, cfg, first_line)
    d = tmp_path / "replay"
    code = main(["train", "--source", manifest["source"],
                 "--target", manifest["target"],
                 "--labels", manifest["eval_labels"],
                 "--out", str(d), "--config", str(cfg)])
    assert code == 0
    for name in ("metrics.csv", "checkpoint_final.hdap"):
        assert (d / name).read_bytes() == (run_dir / name).read_bytes(), name
    return d


def test_run_reproducible_from_manifest_alone(data_dir, run_dir, tmp_path):
    # feeding the manifest's config section back in must replay the run
    _replay(run_dir, tmp_path)


def test_manifest_with_a_one_layer_backbone_names_file_and_line(run_dir, tmp_path, capsys):
    # backbone_hidden=0 once selected a one-layer backbone, which no longer exists
    cfg = tmp_path / "old.cfg"
    manifest = _manifest_config(run_dir, cfg)
    lines = cfg.read_text().splitlines()
    lineno = lines.index("backbone_hidden=8") + 1
    lines[lineno - 1] = "backbone_hidden=0"
    cfg.write_text("\n".join(lines) + "\n")
    out = tmp_path / "old"
    code = main(["train", "--source", manifest["source"], "--target", manifest["target"],
                 "--out", str(out), "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{cfg}:{lineno}: " in err and "backbone_hidden" in err
    assert not out.exists()


# removed options, each at the only value that ran as every run does now
RETIRED_KEPT = ["precision=f32", "precision=f64", "sticky_pseudo=false",
                "pseudo_refresh=epoch", "graph_features=pre_relu", "augment=true",
                "lg_features=backbone", "kernel_scales=0.25,0.5,1.0,2.0,4.0",
                "conv_channels=8,16", "checkpoint_every=10", "positive_class=1"]
RETIRED_REMOVED = ["precision=f16", "sticky_pseudo=true", "pseudo_refresh=batch",
                   "graph_features=post_relu", "augment=false", "lg_features=gnn",
                   "kernel_scales=1.0", "conv_channels=4,8", "checkpoint_every=5",
                   "positive_class=0"]


@pytest.mark.parametrize("retired", RETIRED_KEPT)
def test_retired_key_replays_unchanged(data_dir, run_dir, tmp_path, retired):
    # manifests written before an option was removed carry its key; at the
    # value every run now takes, the reader skips it and the run replays
    replayed = read_manifest(_replay(run_dir, tmp_path, retired) / "manifest.txt")
    assert not any(k.removeprefix("config.") in _RETIRED_KEYS for k in replayed)


@pytest.mark.parametrize("retired", RETIRED_REMOVED)
def test_retired_key_at_a_removed_value_names_file_and_line(run_dir, data_dir, tmp_path,
                                                             capsys, retired):
    cfg = tmp_path / "old.cfg"
    _manifest_config(run_dir, cfg, retired)
    out = tmp_path / "x"
    assert main(["train", "--source", str(data_dir / "source.hda"),
                 "--target", str(data_dir / "target.hda"),
                 "--out", str(out), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:1: " in err and retired.partition("=")[0] in err
    assert not out.exists()


# every training flag, frozen: removed options stay gone and no spelling may change
TRAIN_CONFIG_FLAGS = [
    "--lr", "--weight-decay", "--batch", "--epochs", "--threshold",
    "--threshold-percentile", "--epsilon", "--margin",
    "--hidden", "--phi-dim", "--backbone-hidden", "--seed",
    "--no-gnn", "--no-pseudo", "--warmup", "--loss-weights",
]


def test_train_options_come_from_the_dataclass(data_dir, tmp_path, capsys):
    train_parser = _build_parser()._subparsers._group_actions[0].choices["train"]
    group, = [g for g in train_parser._action_groups if g.title == "training configuration"]
    assert [s for a in group._group_actions for s in a.option_strings] == TRAIN_CONFIG_FLAGS

    # one flag and one config-file key per field, each parsing its default's text
    names = [f.name for f in dataclasses.fields(TrainConfig)]
    assert [a.dest for a in group._group_actions] == names
    defaults = {name: _fmt(getattr(TrainConfig(), name)) for name in names}
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in defaults.items()))
    assert TrainConfig(**_read_config_file(cfg)) == TrainConfig()

    # --help shows each default as its config-file line
    assert main(["train", "--help"]) == 0
    shown = re.findall(r"\((\w+)=(\S*?)\)", " ".join(capsys.readouterr().out.split()))
    assert dict(shown) == defaults and len(shown) == len(names)

    # a removed option's flag is gone, even at its one kept value
    assert main(["train", "--source", str(data_dir / "source.hda"),
                 "--target", str(data_dir / "target.hda"), "--out", str(tmp_path / "x"),
                 "--lg-features", "backbone"]) == 2
    assert "unrecognized arguments: --lg-features" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# -- eval ------------------------------------------------------------------------


def test_eval_matches_final_metrics_row(run_dir, data_dir, tmp_path, capsys):
    out = tmp_path / "eval.csv"
    code = main(["eval", "--checkpoint", str(run_dir / "checkpoint_final.hdap"),
                 "--target", str(data_dir / "target.hda"),
                 "--labels", str(data_dir / "target_labels.hda"),
                 "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    last = (run_dir / "metrics.csv").read_text().splitlines()[-1].split(",")
    epoch, precision, accuracy = last[0], last[1], last[2]
    assert f"precision={precision}" in printed
    assert f"accuracy={accuracy}" in printed
    header, row = out.read_text().splitlines()
    assert header == "epoch,precision,accuracy"
    assert row == f"{epoch},{precision},{accuracy}"


def test_eval_json_carries_same_numbers(run_dir, data_dir, tmp_path, capsys):
    out = tmp_path / "eval.csv"
    code = main(["eval", "--checkpoint", str(run_dir / "checkpoint_final.hdap"),
                 "--target", str(data_dir / "target.hda"),
                 "--labels", str(data_dir / "target_labels.hda"),
                 "--out", str(out), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    _, row = out.read_text().splitlines()
    epoch, precision, accuracy = row.split(",")
    assert payload["epoch"] == int(epoch)
    assert payload["precision"] == float(precision)
    assert payload["accuracy"] == float(accuracy)
    assert isinstance(payload["precision_defined"], bool)


def test_eval_appends_rows(run_dir, data_dir, tmp_path):
    out = tmp_path / "eval.csv"
    args = ["eval", "--checkpoint", str(run_dir / "checkpoint_final.hdap"),
            "--target", str(data_dir / "target.hda"),
            "--labels", str(data_dir / "target_labels.hda"), "--out", str(out)]
    assert main(args) == 0 and main(args) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3 and lines[1] == lines[2]


def test_eval_corrupt_checkpoint_writes_nothing(data_dir, tmp_path, capsys):
    bad = tmp_path / "bad.hdap"
    bad.write_bytes(b"NOPE" + b"\0" * 16)
    out = tmp_path / "eval.csv"
    code = main(["eval", "--checkpoint", str(bad),
                 "--target", str(data_dir / "target.hda"),
                 "--labels", str(data_dir / "target_labels.hda"),
                 "--out", str(out)])
    assert code == 3
    assert "magic" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "export"])
def test_sidecar_of_another_feature_shape_is_format_error(run_dir, data_dir, tmp_path, capsys,
                                                          command):
    labels, _, m = read_label_file(data_dir / "target_labels.hda")
    bad = tmp_path / "labels.hda"
    write_label_file(bad, labels, (3,), m)
    out = tmp_path / "out"
    args = [command, "--checkpoint", str(run_dir / "checkpoint_final.hdap"),
            "--target", str(data_dir / "target.hda"), "--labels", str(bad), "--out", str(out)]
    if command == "export":
        args += ["--source", str(data_dir / "source.hda")]
    assert main(args) == 3
    assert "shape (3,)" in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize("command", ["eval", "export"])
def test_checkpoint_name_not_utf8_is_format_error(run_dir, data_dir, tmp_path, capsys, command):
    raw = bytearray((run_dir / "checkpoint_final.hdap").read_bytes())
    raw[16] = 0xFF  # the first tensor name's first byte
    bad = tmp_path / "bad.hdap"
    bad.write_bytes(bytes(raw))
    out = tmp_path / "out"
    args = {
        "eval": ["eval", "--checkpoint", str(bad), "--target", str(data_dir / "target.hda"),
                 "--labels", str(data_dir / "target_labels.hda"), "--out", str(out)],
        "export": ["export", "--checkpoint", str(bad), "--source", str(data_dir / "source.hda"),
                   "--target", str(data_dir / "target.hda"), "--out", str(out)],
    }[command]
    assert main(args) == 3
    assert "byte 16" in capsys.readouterr().err and not out.exists()


def test_eval_shape_mismatch_clear_error(run_dir, tmp_path, capsys):
    wide = tmp_path / "wide"
    wide.mkdir()
    assert main(["gen", "--out", str(wide), "--per-class", "10", "--dim", "5"]) == 0
    code = main(["eval", "--checkpoint", str(run_dir / "checkpoint_final.hdap"),
                 "--target", str(wide / "target.hda"),
                 "--labels", str(wide / "target_labels.hda"),
                 "--out", str(tmp_path / "e.csv")])
    assert code == 3
    assert "does not match checkpoint" in capsys.readouterr().err


def _drop_theta2(blob):
    del blob["theta2"]


def _nan_hidden(blob):
    blob["meta/hidden"] = np.asarray(np.nan)


def _nan_weight(blob):
    blob["theta1"] = blob["theta1"].copy()
    blob["theta1"][0, 0] = np.nan


def _drop_target_mean(blob):
    del blob["norm/target_mean"]


def _drop_positive_class(blob):
    del blob["meta/positive_class"]


def _nan_epoch(blob):
    blob["meta/epoch"] = np.asarray(np.nan)


def _positive_class_out_of_range(blob):
    blob["meta/positive_class"] = np.asarray(5.0)


def _one_layer_backbone(blob):
    blob["meta/backbone_hidden"] = np.asarray(0.0)


def _fractional_hidden(blob):
    blob["meta/hidden"] = blob["meta/hidden"] + 0.5


def _fractional_num_classes(blob):
    blob["meta/num_classes"] = np.asarray(2.9)


def _fractional_input_dims(blob):
    blob["meta/input_dims"] = np.asarray([2.7])


def _target_std_wrong_shape(blob):
    blob["norm/target_std"] = np.ones(blob["norm/target_std"].size + 1)


def _inf_threshold(blob):  # checked although a percentile sets this run's threshold
    blob["meta/threshold"] = np.asarray(np.inf)


def _threshold_wrong_shape(blob):
    blob["meta/threshold"] = blob["meta/threshold"][None]


@pytest.mark.parametrize("command", ["eval", "export"])
@pytest.mark.parametrize("mutate,message", [
    (_drop_theta2, "theta2"),
    (_nan_hidden, "architecture"),
    (_one_layer_backbone, "backbone_hidden"),
    (_nan_weight, "non-finite"),
    (_drop_target_mean, "norm/target_mean"),
    (_drop_positive_class, "meta/positive_class"),
    (_nan_epoch, "meta/epoch"),
    (_positive_class_out_of_range, "meta/positive_class"),
    (_target_std_wrong_shape, "norm/target_std"),
    (_inf_threshold, "meta/threshold"),
    (_threshold_wrong_shape, "meta/threshold"),
    (_fractional_hidden, "meta/hidden"),
    (_fractional_num_classes, "meta/num_classes"),
    (_fractional_input_dims, "meta/input_dims"),
])
def test_malformed_checkpoint_is_format_error(run_dir, data_dir, tmp_path, capsys,
                                              command, mutate, message):
    blob = load_checkpoint(run_dir / "checkpoint_final.hdap")
    mutate(blob)
    bad = tmp_path / "bad.hdap"
    save_checkpoint(bad, blob)
    out = tmp_path / "out"
    args = {
        "eval": ["eval", "--checkpoint", str(bad), "--target", str(data_dir / "target.hda"),
                 "--labels", str(data_dir / "target_labels.hda"), "--out", str(out)],
        "export": ["export", "--checkpoint", str(bad), "--source", str(data_dir / "source.hda"),
                   "--target", str(data_dir / "target.hda"), "--out", str(out)],
    }[command]
    assert main(args) == 3
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "export"])
@pytest.mark.parametrize("scale, code", [(1e300, 3), (1e152, 0)])
def test_weights_that_overflow_at_inference(run_dir, data_dir, tmp_path, capsys, command,
                                            scale, code):
    # at 1e300 eval exited 0, and export 0 with an all-zero edge row after an overflow
    # warning; at 1e152 phi's squared distances are finite, and both run without one
    blob = load_checkpoint(run_dir / "checkpoint_final.hdap")
    blob["backbone/w1"] = blob["backbone/w1"] * scale
    ckpt = tmp_path / "scaled.hdap"
    save_checkpoint(ckpt, blob)
    out = tmp_path / "out"
    args = {
        "eval": ["eval", "--checkpoint", str(ckpt), "--target", str(data_dir / "target.hda"),
                 "--labels", str(data_dir / "target_labels.hda"), "--out", str(out)],
        "export": ["export", "--checkpoint", str(ckpt), "--source", str(data_dir / "source.hda"),
                   "--target", str(data_dir / "target.hda"), "--out", str(out)],
    }[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == code
    err = capsys.readouterr().err
    assert (f"{ckpt}: the weights overflow" in err) == bool(code) and out.exists() != bool(code)


# -- export ----------------------------------------------------------------------


def test_export_layout_and_determinism(run_dir, data_dir, tmp_path):
    args = ["export", "--checkpoint", str(run_dir / "checkpoint_final.hdap"),
            "--source", str(data_dir / "source.hda"),
            "--target", str(data_dir / "target.hda"),
            "--labels", str(data_dir / "target_labels.hda")]
    d1, d2 = tmp_path / "e1", tmp_path / "e2"
    assert main(args + ["--out", str(d1)]) == 0
    assert main(args + ["--out", str(d2)]) == 0

    emb = d1 / "embeddings_epoch002.csv"
    edges = d1 / "edges_epoch002.csv"
    lines = emb.read_text().splitlines()
    assert len(lines) == 1 + 60 + 60  # header + N_s + N_t
    assert lines[0].startswith("epoch,id,domain,label,phi_0")
    assert all(line.startswith("2,") for line in lines[1:])

    header, row = edges.read_text().splitlines()
    assert header == "epoch,right,wrong,unknown,total"
    fields = [int(v) for v in row.split(",")]
    assert fields[0] == 2
    assert fields[3] == 0                       # sidecar given: nothing unknown
    assert fields[1] + fields[2] == fields[4]

    for name in (emb.name, edges.name):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_export_audit_ranges_change_no_count(run_dir, data_dir, tmp_path, monkeypatch):
    args = ["export", "--checkpoint", str(run_dir / "checkpoint_final.hdap"),
            "--source", str(data_dir / "source.hda"), "--target", str(data_dir / "target.hda")]
    assert main(args + ["--out", str(tmp_path / "whole")]) == 0
    ranges = []
    gram = graphs._gram
    monkeypatch.setattr(graphs, "_gram", lambda g, a, b: (ranges.append((a, b)), gram(g, a, b))[1])
    monkeypatch.setattr(graphs, "_GRAM_PAIRS", 50)  # 7140 pairs of 120 rows: 143 blocks
    assert main(args + ["--out", str(tmp_path / "ranged")]) == 0
    # the selection's bracket holds, and its one pass also counts the edges:
    # each block is made exactly once
    assert len(ranges) == 143 and ranges[0][0] == 0 and ranges[-1][1] == 119
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    for name in ("edges_epoch002.csv", "embeddings_epoch002.csv"):
        assert ((tmp_path / "whole" / name).read_bytes()
                == (tmp_path / "ranged" / name).read_bytes()), name


@pytest.mark.parametrize("percentile", [50.0, 90.0])
def test_pooled_audit_memory_is_bounded(percentile):
    # no structure of all N(N-1)/2 pairs: the stage holds the rows, one Gram
    # block and the selection's bracket, about P^(2/3) sqrt(ln P) of the P pairs.
    # At 1500 rows that is under a quarter of the condensed estimate vector, and
    # 2.7x the rows (7.1x the pairs) need under 3x the memory
    rng = np.random.default_rng(71)
    cli._audit_pooled(rng.normal(size=(50, 16)), np.zeros(50), None, percentile)  # first-call imports
    peaks = {}
    for n in (1500, 4000):
        phi = rng.normal(size=(n, 16))
        audit = rng.integers(-1, 2, size=n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            stats = cli._audit_pooled(phi, audit, None, percentile)
            peaks[n] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        if n == 1500:
            assert stats == edge_stats(graph_of(phi, threshold_of(phi, percentile)), audit)
    assert peaks[1500] < 0.25 * (8 * 1500 * 1499 // 2)
    assert peaks[4000] < 3 * peaks[1500]


def test_export_without_sidecar_counts_unknown(run_dir, data_dir, tmp_path):
    d = tmp_path / "e"
    code = main(["export", "--checkpoint", str(run_dir / "checkpoint_final.hdap"),
                 "--source", str(data_dir / "source.hda"),
                 "--target", str(data_dir / "target.hda"), "--out", str(d)])
    assert code == 0
    row = (d / "edges_epoch002.csv").read_text().splitlines()[1]
    assert int(row.split(",")[3]) > 0


def test_export_runs_each_sample_through_the_backbone_once(run_dir, data_dir, tmp_path,
                                                          monkeypatch):
    rows = []
    backbone = Model.backbone_forward
    monkeypatch.setattr(Model, "backbone_forward", lambda self, x: (
        rows.append(len(x)), backbone(self, x))[1])
    assert main(["export", "--checkpoint", str(run_dir / "checkpoint_final.hdap"),
                 "--source", str(data_dir / "source.hda"),
                 "--target", str(data_dir / "target.hda"), "--out", str(tmp_path / "e")]) == 0
    assert sum(rows) == 60 + 60  # N_s + N_t


@pytest.mark.parametrize("epsilon", ["0.3", "nan", "1.0"])
def test_export_bad_epsilon_writes_nothing(run_dir, data_dir, tmp_path, capsys, epsilon):
    out = tmp_path / "e"
    code = main(["export", "--checkpoint", str(run_dir / "checkpoint_final.hdap"),
                 "--source", str(data_dir / "source.hda"),
                 "--target", str(data_dir / "target.hda"), "--out", str(out),
                 "--epsilon", epsilon])
    assert code == 2
    assert "epsilon" in capsys.readouterr().err
    assert not out.exists()


def _write_head(path, dataset, n):
    """The first n samples of ``dataset`` as a dataset file (n may be 0)."""
    write_dataset(path, Dataset(dataset.features[:n], dataset.labels[:n],
                                dataset.domain, dataset.num_classes))
    return str(path)


@pytest.mark.parametrize("n_source,n_target", [(1, 0), (0, 1), (0, 0)])
def test_export_percentile_needs_two_samples(run_dir, data_dir, tmp_path, capsys,
                                              n_source, n_target):
    source = read_dataset(data_dir / "source.hda", Domain.SOURCE)
    target = read_dataset(data_dir / "target.hda", Domain.TARGET)
    out = tmp_path / "e"
    code = main(["export", "--checkpoint", str(run_dir / "checkpoint_final.hdap"),
                 "--source", _write_head(tmp_path / "s.hda", source, n_source),
                 "--target", _write_head(tmp_path / "t.hda", target, n_target),
                 "--out", str(out)])
    assert code == 3
    assert "at least 2" in capsys.readouterr().err
    assert not out.exists()


def test_export_fixed_threshold_needs_one_sample(run_dir, data_dir, tmp_path, capsys):
    blob = load_checkpoint(run_dir / "checkpoint_final.hdap")
    blob["meta/threshold_percentile"] = np.asarray(float("nan"))  # NaN marks a fixed threshold
    ckpt = tmp_path / "fixed.hdap"
    save_checkpoint(ckpt, blob)
    source = read_dataset(data_dir / "source.hda", Domain.SOURCE)
    target = read_dataset(data_dir / "target.hda", Domain.TARGET)
    args = ["export", "--checkpoint", str(ckpt)]
    out = tmp_path / "e"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args + ["--source", _write_head(tmp_path / "s.hda", source, 0),
                            "--target", _write_head(tmp_path / "t.hda", target, 0),
                            "--out", str(out)]) == 3
        assert "at least 1" in capsys.readouterr().err
        assert not out.exists()
        # one sample in all is enough without a percentile
        assert main(args + ["--source", _write_head(tmp_path / "s1.hda", source, 1),
                            "--target", str(tmp_path / "t.hda"), "--out", str(out)]) == 0
    capsys.readouterr()


def test_eval_empty_target_is_format_error(run_dir, data_dir, tmp_path, capsys):
    target = read_dataset(data_dir / "target.hda", Domain.TARGET)
    labels, dims, m = read_label_file(data_dir / "target_labels.hda")
    write_label_file(tmp_path / "labels.hda", labels[:0], dims, m)
    out = tmp_path / "eval.csv"
    code = main(["eval", "--checkpoint", str(run_dir / "checkpoint_final.hdap"),
                 "--target", _write_head(tmp_path / "t.hda", target, 0),
                 "--labels", str(tmp_path / "labels.hda"), "--out", str(out), "--json"])
    assert code == 3
    captured = capsys.readouterr()
    assert "t.hda: no samples" in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("empty", ["source", "target"])
def test_train_empty_domain_is_format_error(data_dir, tmp_path, capsys, empty):
    files = {name: str(data_dir / f"{name}.hda") for name in ("source", "target")}
    domain = Domain.SOURCE if empty == "source" else Domain.TARGET
    files[empty] = _write_head(tmp_path / f"{empty}.hda",
                               read_dataset(files[empty], domain), 0)
    out = tmp_path / "run"
    code = main(["train", "--source", files["source"], "--target", files["target"],
                 "--out", str(out), *TINY_TRAIN])
    assert code == 3
    assert f"{empty}.hda: no samples" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("gen", [["--dim", "3"], ["--classes", "3"], ["--dim", "3", "--classes", "3"]])
def test_train_mismatched_domains_is_format_error(data_dir, tmp_path, capsys, gen):
    other = tmp_path / "other"
    other.mkdir()
    assert main(["gen", "--out", str(other), "--per-class", "10", *gen]) == 0
    out = tmp_path / "run"
    code = main(["train", "--source", str(data_dir / "source.hda"),
                 "--target", str(other / "target.hda"), "--out", str(out), *TINY_TRAIN])
    assert code == 3
    assert "target.hda: " in capsys.readouterr().err
    assert not out.exists()  # nor, inside it, a manifest


@pytest.mark.parametrize("flags", [
    ["--hidden", "0"], ["--phi-dim", "-1"], ["--backbone-hidden", "-2"], ["--epsilon", "0.4"]])
def test_train_bad_width_or_positive_class_is_usage_error(data_dir, tmp_path, capsys, flags):
    out = tmp_path / "run"
    code = main(["train", "--source", str(data_dir / "source.hda"),
                 "--target", str(data_dir / "target.hda"),
                 "--labels", str(data_dir / "target_labels.hda"),
                 "--out", str(out), *TINY_TRAIN, *flags])
    assert code == 2
    assert flags[0][2:].replace("-", "_") in capsys.readouterr().err
    assert not out.exists()


def test_export_shape_mismatch_is_format_error(run_dir, tmp_path, capsys):
    wide = tmp_path / "wide"
    wide.mkdir()
    assert main(["gen", "--out", str(wide), "--per-class", "10", "--dim", "5"]) == 0
    code = main(["export", "--checkpoint", str(run_dir / "checkpoint_final.hdap"),
                 "--source", str(wide / "source.hda"),
                 "--target", str(wide / "target.hda"),
                 "--out", str(tmp_path / "e")])
    assert code == 3
    capsys.readouterr()


# -- entry point ------------------------------------------------------------------


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr() == (f"graphda {graphda.__version__}\n", "")


def test_main_calls_build_the_parser_once(monkeypatch, capsys):
    cli._build_parser.cache_clear()
    builds = []
    real = cli._add_config_flags
    monkeypatch.setattr(cli, "_add_config_flags", lambda parser: (builds.append(parser), real(parser)))
    assert main(["--version"]) == 0
    assert main([]) == 2
    assert len(builds) == 1
    capsys.readouterr()


def test_commands_are_looked_up_at_each_call(monkeypatch):
    cli._build_parser()  # built before the command is replaced, as when a tracer wraps it
    calls = []
    monkeypatch.setattr(cli, "cmd_eval", lambda args: calls.append(args.checkpoint) or 0)
    assert main(["eval", "--checkpoint", "c", "--target", "t", "--labels", "l"]) == 0
    assert calls == ["c"]


def test_importing_the_cli_reads_no_package_metadata():
    src = str(pathlib.Path(graphs.__file__).resolve().parents[1])
    code = "import sys, graphda.cli; print('importlib.metadata' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True,
                         timeout=60, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "False\n"


# -- crash-safe artifacts ------------------------------------------------------


ARTIFACT_WRITERS = {
    "checkpoint": lambda path, v: save_checkpoint(path, {"w": np.full(3, v)}),
    "pseudo_csv": lambda path, v: write_pseudo_csv(path, PseudoState(
        labels=np.array([-1]), confidence=np.array([v]), epoch=1, epsilon=0.97)),
    "manifest": lambda path, v: _write_manifest(path, {"config.lr": v}),
    "dataset": lambda path, v: write_dataset(path, Dataset(np.full((2, 3), v), np.zeros(2), Domain.SOURCE, 2)),
    "embeddings": lambda path, v: export_embeddings(path, np.full((3, 2), v), np.eye(2), [0, 1, 0], [-1, 1],
                                                    epoch=1),
    "divergence": lambda path, v: _dump_divergence(path, 1, 2, LossBreakdown(v, v, v, v),
                                                   Batch(np.zeros((2, 1)), np.zeros(2), np.arange(2), 1)),
}


@pytest.mark.parametrize("writer", sorted(ARTIFACT_WRITERS))
def test_failed_write_keeps_old_artifact(writer, tmp_path, monkeypatch):
    path = tmp_path / "artifact"
    write = ARTIFACT_WRITERS[writer]
    write(path, 0.5)
    old = path.read_bytes()
    real_open = pathlib.Path.open

    class HalfThenFail:
        """A file that writes half of what it is given, then fails as a full disk would."""

        def __init__(self, file):
            self.file = file

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.file.close()

        def writelines(self, chunks):
            data = b"".join(chunks)
            self.file.write(data[:len(data) // 2])
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(pathlib.Path, "open", lambda self, mode="r", *args, **kw: (
        HalfThenFail if "w" in mode else lambda f: f)(real_open(self, mode, *args, **kw)))
    with pytest.raises(OSError):
        write(path, 0.25)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
    monkeypatch.undo()
    write(path, 0.25)
    assert path.read_bytes() != old
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


# -- mutation fuzz -----------------------------------------------------------------


def _u32(raw, off):
    return int.from_bytes(raw[off:off + 4], "little")


def _header_fields(raw, name):
    """Byte offsets of the u32 header fields after the magic, with the
    ``.hda`` class count last."""
    if name.endswith(".hda"):
        return [4, 8, 12, *range(16, 20 + 4 * _u32(raw, 12), 4)]
    offsets, off = [4, 8], 12
    for _ in range(_u32(raw, 8)):
        offsets.append(off)  # name length
        off += 4 + _u32(raw, off)
        offsets.extend(range(off, off + 4 + 4 * _u32(raw, off), 4))  # rank and dims
        off += 4 + 4 * _u32(raw, off)
    return offsets


def _payload_slots(raw, name):
    """(byte offset, numpy type) of every real number in the payload that
    must be finite; a NaN ``meta/threshold_percentile`` marks a fixed threshold."""
    if name.endswith(".hda"):
        rank = _u32(raw, 12)
        start, width = 20 + 4 * rank, int(np.prod([_u32(raw, 16 + 4 * i) for i in range(rank)]))
        rows = (len(raw) - start) // (4 * width + 4)
        return [(start + r * (4 * width + 4) + 4 * j, np.float32)
                for r in range(rows) for j in range(width)]
    table, off = [], 12
    for _ in range(_u32(raw, 8)):
        nlen = _u32(raw, off)
        tensor = raw[off + 4:off + 4 + nlen].decode()
        off += 4 + nlen
        rank = _u32(raw, off)
        table.append((tensor, int(np.prod([_u32(raw, off + 4 + 4 * i) for i in range(rank)]))))
        off += 4 + 4 * rank
    slots = []
    for tensor, n in table:
        if tensor != "meta/threshold_percentile":
            slots += [(off + 8 * i, np.float64) for i in range(n)]
        off += 8 * n
    return slots


def _truncate(rng, raw, name):
    return raw[:rng.integers(len(raw))]


def _flip_bits(rng, raw, name):
    out = np.frombuffer(raw, dtype=np.uint8).copy()
    for bit in rng.choice(8 * len(raw), size=rng.integers(1, 9), replace=False):
        out[bit // 8] ^= 1 << (bit % 8)
    return out.tobytes()


def _edit_header(rng, raw, name):
    fields = _header_fields(raw, name)
    off = fields[rng.integers(len(fields))]
    old = _u32(raw, off)
    if name.endswith(".hda") and off == fields[-1]:
        values = [0, 1]  # the class count: any other value may be a valid count
    else:
        values = [v for v in (0, 1, old + 1, 8, 2**31, 2**32 - 1, int(rng.integers(2**32)))
                  if v != old]
    return raw[:off] + int(rng.choice(values)).to_bytes(4, "little") + raw[off + 4:]


def _non_finite(rng, raw, name):
    slots = _payload_slots(raw, name)
    off, kind = slots[rng.integers(len(slots))]
    value = kind(rng.choice([np.nan, np.inf, -np.inf])).tobytes()
    return raw[:off] + value + raw[off + len(value):]


def _wrong_shape(rng, path, name, out):
    """Writes the file of ``path`` again with one shape changed."""
    if name == "target_labels.hda":
        labels, dims, m = read_label_file(path)
        keep = rng.integers(len(labels))  # drop or repeat one label
        labels = np.delete(labels, keep) if rng.integers(2) else np.insert(labels, keep, 0)
        write_label_file(out, labels, dims, m)
    elif name.endswith(".hda"):
        ds = read_dataset(path, Domain.SOURCE if name == "source.hda" else Domain.TARGET)
        dims = [(1,), (3,), (2, 2), (1, 2, 2)][rng.integers(4)]
        feats = rng.normal(size=(len(ds), *dims))
        write_dataset(out, Dataset(feats, ds.labels, ds.domain, ds.num_classes))
    else:
        blob = load_checkpoint(path)
        tensor = sorted(blob)[rng.integers(len(blob))]
        blob[tensor] = np.append(blob[tensor], 1.0) if rng.integers(2) else blob[tensor][None]
        save_checkpoint(out, blob)


# each mutation with its trials per file kind and the exit codes it allows
FUZZ_MUTATIONS = [
    (_truncate, 4, {3}),
    (_edit_header, 8, {3}),
    (_non_finite, 4, {3}),
    (_wrong_shape, 4, {3}),
    (_flip_bits, 12, {0, 2, 3}),
]
FUZZ_FILES = ["source.hda", "target.hda", "target_labels.hda", "checkpoint.hdap"]


def test_mutated_inputs_exit_with_a_documented_code(run_dir, data_dir, tmp_path, capsys):
    """Seeded mutations of every file kind that ``eval`` and ``export`` read:
    each run exits 0, 2 or 3, and a mutation that breaks the format exits 3."""
    good = {"source.hda": data_dir / "source.hda", "target.hda": data_dir / "target.hda",
            "target_labels.hda": data_dir / "target_labels.hda",
            "checkpoint.hdap": run_dir / "checkpoint_final.hdap"}
    rng = np.random.default_rng(0)
    wrong = []
    for name in FUZZ_FILES:
        raw = good[name].read_bytes()
        for mutate, trials, allowed in FUZZ_MUTATIONS:
            for trial in range(trials):
                files = dict(good, **{name: tmp_path / f"{mutate.__name__}{trial}_{name}"})
                if mutate is _wrong_shape:
                    mutate(rng, good[name], name, files[name])
                else:
                    files[name].write_bytes(mutate(rng, raw, name))
                out = tmp_path / f"out_{name}_{mutate.__name__}{trial}"
                command = "export" if name == "source.hda" or trial % 2 else "eval"
                argv = [command, "--checkpoint", str(files["checkpoint.hdap"]),
                        "--target", str(files["target.hda"]),
                        "--labels", str(files["target_labels.hda"]), "--out", str(out)]
                if command == "export":
                    argv += ["--source", str(files["source.hda"])]
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)  # flipped weights overflow
                    code = main(argv)
                capsys.readouterr()
                if code not in allowed:
                    wrong.append((name, mutate.__name__, trial, command, code))
    assert wrong == [], wrong


# -- BLAS threads ------------------------------------------------------------------


def test_whole_run_does_not_depend_on_blas_threads(tmp_path):
    """Criterion 8's ``gen`` and ``train`` write the same bytes under
    OPENBLAS_NUM_THREADS=1 and =2. Written on a 2-CPU machine: higher
    thread counts are untested."""
    src = str(pathlib.Path(graphs.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    names = ("metrics.csv", "steps.csv", "pseudo.csv", "checkpoint_final.hdap")
    runs = []
    for threads in ("1", "2"):
        d = tmp_path / threads
        d.mkdir()
        for args in (["gen", "--out", d, "--per-class", "30", "--seed", "5"],
                     ["train", "--source", d / "source.hda", "--target", d / "target.hda",
                      "--labels", d / "target_labels.hda", "--epochs", "3", "--batch", "8",
                      "--hidden", "8", "--phi-dim", "8", "--backbone-hidden", "8",
                      "--threshold-percentile", "30", "--seed", "2", "--out", d / "run"]):
            subprocess.run([sys.executable, "-m", "graphda", *map(str, args)], check=True,
                           capture_output=True, timeout=300,
                           env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path})
        runs.append([(d / "run" / name).read_bytes() for name in names])
    assert runs[0] == runs[1]
