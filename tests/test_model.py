import numpy as np
import pytest

from graphda.autodiff import ShapeError, Tensor
from graphda.datasets import DataFormatError
from graphda.graphs import BatchGraph
from graphda.losses import KernelSpec, cross_entropy_loss, total_loss
from graphda.model import (
    Model,
    ModelConfig,
    config_from_tensors,
    config_to_tensors,
    load_checkpoint,
    save_checkpoint,
)
from graphda.training import evaluate
from geometry import graph_of, mmd_of, separation_of
from gradcheck import grad_check


def t(x):
    return Tensor(np.asarray(x, dtype=np.float64))


def _graph_from_edges(n, edges):
    pairs = sorted(edges)
    return BatchGraph(num_nodes=n, rows=[i for i, _ in pairs], cols=[j for _, j in pairs],
                      threshold=1.0)


def _small_model(d=3, m=2, hidden=4, phi=4, backbone_hidden=4, seed=0):
    cfg = ModelConfig(input_dims=(d,), num_classes=m, hidden=hidden,
                      phi_dim=phi, backbone_hidden=backbone_hidden)
    return Model.init(cfg, np.random.default_rng(seed))


def _softmax(logits):
    """The row-max-shifted softmax, as the reference for ``Model.infer``'s probabilities."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _zero(model):
    for _, p in model.parameters():
        p.data = np.zeros_like(p.data)
    return model


class TestBackbone:
    def test_zero_weights_zero_features(self):
        model = _zero(_small_model())
        phi = model.backbone_forward(np.ones((5, 3)))
        assert np.all(phi.data == 0.0)

    def test_single_linear_identity(self):
        # relu(x) - relu(-x) == x: the two layers pass any input through exactly
        cfg = ModelConfig(input_dims=(3,), num_classes=2, hidden=4, phi_dim=3,
                          backbone_hidden=6)
        model = Model.init(cfg, np.random.default_rng(0))
        model.params["backbone/w1"].data = np.hstack([np.eye(3), -np.eye(3)])
        model.params["backbone/b1"].data = np.zeros(6)
        model.params["backbone/w2"].data = np.vstack([np.eye(3), -np.eye(3)])
        model.params["backbone/b2"].data = np.zeros(3)
        x = np.random.default_rng(1).normal(size=(4, 3))
        assert np.array_equal(model.backbone_forward(x).data, x)

    def test_dim_mismatch_rejected(self):
        model = _small_model(d=3)
        with pytest.raises(ShapeError):
            model.backbone_forward(np.ones((2, 5)))

    def test_gradient_through_backbone(self):
        model = _small_model(seed=3)
        x0 = np.random.default_rng(4).normal(size=(4, 3))
        assert grad_check(lambda x: model.backbone_forward(x).sum(), t(x0)).passed

    def test_conv_backbone_shapes_and_gradient(self):
        cfg = ModelConfig(input_dims=(2, 4, 4), num_classes=3, hidden=5,
                          phi_dim=6, conv_channels=(3, 4))
        model = Model.init(cfg, np.random.default_rng(5))
        x0 = np.random.default_rng(6).normal(size=(2, 2, 4, 4))
        phi = model.backbone_forward(x0)
        assert phi.shape == (2, 6)
        assert grad_check(lambda x: model.backbone_forward(x).sum(), t(x0),
                          tol=1e-5).passed


class TestGnnForward:
    def test_empty_graph_is_self_branch_only(self):
        model = _small_model(seed=7)
        phi = t(np.random.default_rng(8).normal(size=(5, 4)))
        got = model.gnn_forward(phi, None)
        base = np.maximum(phi.data, 0.0) @ model.params["w"].data
        want = base @ model.params["theta1"].data
        assert np.array_equal(got.data, want)

    def test_single_edge_identity_weights_adds_neighbor(self):
        model = _small_model(d=4, m=2, hidden=4, phi=4)
        for name in ("w", "theta1", "theta2"):
            model.params[name].data = np.eye(4)
        phi = t([[1.0, 2.0, 0.5, 3.0], [4.0, 0.25, 1.0, 2.0]])  # nonnegative
        f = model.gnn_forward(phi, _graph_from_edges(2, [(0, 1)]))
        want = np.array([phi.data[0] + phi.data[1], phi.data[1] + phi.data[0]])
        assert np.array_equal(f.data, want)

    def test_node_count_mismatch(self):
        model = _small_model()
        phi = t(np.zeros((3, 4)))
        with pytest.raises(ShapeError):
            model.gnn_forward(phi, _graph_from_edges(5, []))

    def test_permutation_equivariance(self):
        model = _small_model(d=3, hidden=6, phi=5, seed=9)
        rng = np.random.default_rng(10)
        for trial in range(5):
            x = rng.normal(size=(12, 3))
            perm = rng.permutation(12)
            phi = model.backbone_forward(x)
            phi_p = model.backbone_forward(x[perm])
            f = model.gnn_forward(phi, graph_of(phi.data, 2.0))
            f_p = model.gnn_forward(phi_p, graph_of(phi_p.data, 2.0))
            assert np.allclose(f_p.data, f.data[perm], atol=1e-12)

    def test_locality_is_exact(self):
        model = _small_model(d=4, phi=4, seed=11)
        graph = _graph_from_edges(4, [(0, 1), (2, 3)])
        rng = np.random.default_rng(12)
        phi = rng.normal(size=(4, 4))
        f_before = model.gnn_forward(t(phi), graph).data
        moved = phi.copy()
        moved[3] = rng.normal(size=4) * 10  # node 3 is not in N(0) or N(1)
        f_after = model.gnn_forward(t(moved), graph).data
        assert np.array_equal(f_before[[0, 1]], f_after[[0, 1]])
        assert not np.array_equal(f_before[2], f_after[2])


class TestClassify:
    def test_returns_logits(self):
        model = _small_model(seed=12)
        f = np.random.default_rng(12).normal(size=(3, 4))
        w, b = model.params["fc2/w"].data, model.params["fc2/b"].data
        assert np.array_equal(model.classify(t(f)).data, f @ w + b)

    def test_zero_logits_uniform(self):
        model = _zero(_small_model(m=2))
        _, probs = model.infer(np.zeros((3, 3)))
        assert np.array_equal(probs, np.full((3, 2), 0.5))

    def test_extreme_logits_no_overflow(self):
        model = _zero(_small_model(m=2))
        model.params["fc2/b"].data = np.array([1000.0, 0.0])
        _, probs = model.infer(np.ones((1, 3)))
        assert np.isfinite(probs).all()
        assert probs[0, 0] == 1.0 and probs[0, 1] == 0.0

    def test_prob_rows_sum_to_one(self):
        model = _small_model(seed=13)
        rng = np.random.default_rng(14)
        for _ in range(100):
            _, p = model.infer(rng.normal(size=(4, 3)))
            assert np.all(p >= 0.0) and np.all(p <= 1.0)
            assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)


class TestInfer:
    def test_matches_empty_graph_training_path(self):
        model = _small_model(seed=15)
        x = np.random.default_rng(16).normal(size=(6, 3))
        empty = _graph_from_edges(6, [])
        phi = model.backbone_forward(x)
        f = model.gnn_forward(phi, empty)
        probs = _softmax(model.classify(f).data)
        phi_inf, probs_inf = model.infer(x)
        assert np.array_equal(f.data, model.gnn_forward(phi, None).data)
        assert np.array_equal(phi.data, phi_inf)
        assert np.array_equal(probs, probs_inf)

    @pytest.mark.parametrize("dims", [(3,), (2, 6, 6)])
    def test_bit_equal_to_traced_pass(self, dims):
        cfg = ModelConfig(input_dims=dims, num_classes=3, hidden=5, phi_dim=4,
                          backbone_hidden=4, conv_channels=(3, 4))
        model = Model.init(cfg, np.random.default_rng(19))
        x = np.random.default_rng(20).normal(size=(20, *dims))
        phi, probs = [], []
        for rows in model.chunks(20, 7):
            p = model.backbone_forward(x[rows])
            f = model.gnn_forward(p, None)
            phi.append(p.data)
            probs.append(_softmax(model.classify(f).data))
            assert p._parents and f._parents  # the reference pass is traced
        for got, want in zip(model.infer(x, 7), (np.concatenate(phi), np.concatenate(probs))):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_independent_of_batch_composition(self):
        model = _small_model(seed=17)
        x = np.random.default_rng(18).normal(size=(5, 3))
        _, whole = model.infer(x)
        rows = [model.infer(x[i:i + 1])[1][0] for i in range(5)]
        assert np.allclose(whole, np.stack(rows), atol=1e-12)

    def test_tie_breaks_to_lowest_class(self):
        model = _zero(_small_model(m=3, d=2, hidden=2, phi=2))
        x = np.ones((2, 2))

        def predicted():  # predictions per class, as evaluate counts them
            return evaluate(model.infer(x)[1], [0, 0]).confusion[0].tolist()

        assert predicted() == [2, 0, 0]  # all-way tie
        model.params["fc2/b"].data = np.array([-1.0, 5.0, 5.0])
        assert predicted() == [0, 2, 0]  # two-way tie


class TestEndToEndGradient:
    def test_loss_gradient_wrt_input_and_every_parameter(self):
        model = _small_model(d=3, m=3, hidden=4, phi=4, seed=19)
        rng = np.random.default_rng(20)
        x0 = rng.normal(size=(6, 3))
        labels = np.array([0, 1, 2, -1, 2, -1])
        graph = graph_of(model.backbone_forward(x0).data, 3.0)
        kernels = KernelSpec(bandwidths=(0.8, 1.6), weights=(0.5, 0.5))

        def loss_from(x):
            phi = model.backbone_forward(x)
            f = model.gnn_forward(phi, graph)
            logits = model.classify(f)
            l_mmd = mmd_of(phi, phi * 0.5 + 0.3, kernels)
            l_g = separation_of(f, labels)
            l_ce = cross_entropy_loss(logits, labels)
            return total_loss(l_mmd, l_g, l_ce)[0]

        assert grad_check(loss_from, t(x0), tol=1e-5).passed

        xt = t(x0)
        for name, original in model.parameters():
            def loss_from_param(p, name=name, original=original):
                model.params[name] = p
                try:
                    return loss_from(xt)
                finally:
                    model.params[name] = original

            rep = grad_check(loss_from_param, t(original.data.copy()), tol=1e-5)
            assert rep.passed, f"{name}: max rel err {rep.max_error}"


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = _small_model(seed=21)
        extra = {"meta/epoch": np.asarray(7.0), "norm/mean": np.arange(3.0)}
        blob = {**model.state(), **config_to_tensors(model.config), **extra}
        p = tmp_path / "model.hdap"
        save_checkpoint(p, blob)
        back = load_checkpoint(p)
        assert sorted(back) == sorted(blob)
        for k in blob:
            assert np.array_equal(np.asarray(blob[k], dtype=np.float64), back[k]), k
        clone = Model.from_state(config_from_tensors(back), back)
        x = np.random.default_rng(22).normal(size=(4, 3))
        for a, b in zip(clone.infer(x), model.infer(x)):
            assert np.array_equal(a, b)

    def test_save_is_byte_deterministic(self, tmp_path):
        model = _small_model(seed=23)
        a, b = tmp_path / "a.hdap", tmp_path / "b.hdap"
        save_checkpoint(a, model.state())
        save_checkpoint(b, dict(reversed(list(model.state().items()))))
        assert a.read_bytes() == b.read_bytes()

    def test_scalar_rank0_roundtrip(self, tmp_path):
        p = tmp_path / "s.hdap"
        save_checkpoint(p, {"meta/epoch": np.asarray(3.0)})
        back = load_checkpoint(p)
        assert back["meta/epoch"].shape == ()
        assert float(back["meta/epoch"]) == 3.0

    def test_corruption_detected(self, tmp_path):
        model = _small_model(seed=24)
        p = tmp_path / "c.hdap"
        save_checkpoint(p, model.state())
        raw = p.read_bytes()
        for bad in (b"XXXX" + raw[4:], raw[:-3], raw + b"zz"):
            p.write_bytes(bad)
            with pytest.raises(DataFormatError):
                load_checkpoint(p)

    def test_load_state_validation(self):
        model = _small_model()
        state = model.state()
        state.pop("theta1")
        with pytest.raises(ValueError, match="theta1"):
            model.load_state(state)
        state = model.state()
        state["theta2"] = np.zeros((2, 2))
        with pytest.raises(ValueError, match="shape"):
            model.load_state(state)

    def test_config_tensor_roundtrip(self):
        for cfg in (
            ModelConfig(input_dims=(7,), num_classes=4, hidden=16, phi_dim=8,
                        backbone_hidden=5),
            ModelConfig(input_dims=(3, 8, 8), num_classes=2, conv_channels=(4, 9)),
        ):
            assert config_from_tensors(config_to_tensors(cfg)) == cfg

    def test_parameters_listed_once(self):
        model = _small_model()
        names = [n for n, _ in model.parameters()]
        assert len(names) == len(set(names))
        assert set(names) == set(model.state())
