import tracemalloc

import numpy as np
import pytest

import graphda.autodiff
import graphda.losses
from graphda.autodiff import (
    ShapeError,
    Tensor,
    add,
    backward,
    conv3x3_relu,
    gaussian_mixture,
    matmul,
    nll,
    no_trace,
    pairwise_sqdist,
    pull_push,
    relu,
    _result,
)
from graphda.losses import MEDIAN_SCALES
from graphda.model import Model, ModelConfig
from geometry import kernels_of, mmd_of, separation_of
from gradcheck import GradCheckReport, grad_check


def t(data):
    return Tensor(np.asarray(data, dtype=np.float64))


class TestMatmul:
    def test_identity(self):
        a = t([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(a, t(np.eye(2)))
        assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_direct_arithmetic(self):
        out = matmul(t([[1.0, 2.0]]), t([[3.0], [4.0]]))
        assert np.array_equal(out.data, [[11.0]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(t(np.zeros((2, 3))), t(np.zeros((2, 3))))

    def test_backward_of_sum_is_bT_broadcast(self):
        rng = np.random.default_rng(0)
        a = t(rng.normal(size=(3, 4)))
        b = t(rng.normal(size=(4, 2)))
        loss = matmul(a, b).sum()
        backward(loss)
        # d sum(AB) / dA = 1 @ B^T = column sums of B broadcast over rows
        expected = np.broadcast_to(b.data.sum(axis=1), (3, 4))
        assert np.allclose(a.grad, expected, rtol=0, atol=1e-12)
        rep = grad_check(lambda x: matmul(x, b).sum(), a, tol=1e-6)
        assert rep.passed, rep.max_error


# signed zeros, NaN (one negative with a payload), infinities, subnormals, normals
SPECIALS = np.array([-0.0, 0.0, np.nan, np.uint64(0xFFF8_0000_0000_0003).view(np.float64), np.inf,
                     -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308, 1.5, -2.0])


def _bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


class TestRelu:
    def test_bits_equal_where(self):
        # the branch-free forward and backward keep np.where's bits: -0.0 and
        # NaN go to +0.0 forward, and a kept gradient keeps its sign and payload
        x = np.repeat(SPECIALS, SPECIALS.size)  # every value against every gradient
        g = np.tile(SPECIALS, SPECIALS.size)
        leaf = t(x)
        out = relu(leaf)
        assert _bits(out.data) == _bits(np.where(x > 0, x, 0.0))
        out._backward(g)
        assert _bits(leaf.grad) == _bits(np.where(x > 0, g, 0.0) + 0)  # a first gradient lands + 0
        assert _bits(graphda.autodiff._masked(g, x > 0)) == _bits(np.where(x > 0, g, 0.0))

    @pytest.mark.filterwarnings("ignore:invalid value")  # inf * 0
    def test_pull_push_bits_equal_where(self):
        rng = np.random.default_rng(5)
        d2 = np.repeat(SPECIALS, SPECIALS.size)
        same, diff = rng.integers(0, 2, size=(2, d2.size)).astype(float)
        for margin, g in ((1.0, 1.0), (0.0, -0.0), (2.0, np.nan), (1.0, -3.5)):
            gap = d2 * -1.0 + margin
            leaf = t(d2)
            out = pull_push(leaf, same, diff, margin)
            assert _bits(out.data) == _bits((d2 * same).sum() + (np.where(gap > 0, gap, 0) * diff).sum())
            out._backward(np.float64(g))
            want = np.where(gap > 0, g * diff, 0) * -1.0 + 0
            assert _bits(leaf.grad) == _bits(want + g * same), (margin, g)

    def test_definition(self):
        out = relu(t([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_all_positive_identity(self):
        x = np.array([0.5, 1.0, 7.25])
        assert np.array_equal(relu(t(x)).data, x)

    def test_gradient_sides(self):
        for val, g in [(-0.5, 0.0), (0.5, 1.0)]:
            x = t([val])
            backward(relu(x).sum())
            assert x.grad[0] == g
            rep = grad_check(lambda z: relu(z).sum(), t([val]))
            assert rep.passed

    def test_subgradient_zero_at_zero(self):
        x = t([0.0])
        backward(relu(x).sum())
        assert x.grad[0] == 0.0


class TestBackward:
    def test_product_rule(self):
        x, y = t(3.0), t(5.0)
        backward(x * y)
        assert x.grad == 5.0 and y.grad == 3.0

    def test_relu_sum(self):
        x = t([-1.0, 2.0])
        backward(relu(x).sum())
        assert np.array_equal(x.grad, [0.0, 1.0])

    def test_non_scalar_rejected(self):
        with pytest.raises(ShapeError):
            backward(t([1.0, 2.0]))

    def test_fanout_accumulation(self):
        x = t([1.5, -2.0])
        backward((x * x).sum())
        assert np.array_equal(x.grad, 2.0 * x.data)

    def test_first_gradient_lands_as_zeros_plus_g(self):
        x = t([1.0, 2.0, 3.0])
        g = np.array([-0.0, -1.5, 0.0])
        x._accum(g)
        assert not np.signbit(x.grad[0])  # zeros + g maps -0.0 to +0.0
        assert np.array_equal(x.grad.view(np.int64), (np.zeros(3) + g).view(np.int64))
        g[1] = 7.0
        assert x.grad[1] == -1.5  # the buffer is the tensor's own, not g

    def test_owned_first_gradient_lands_in_place(self):
        x = t([1.0, 2.0, 3.0])
        g = np.array([-0.0, -1.5, 0.0])
        x._accum(g, owned=True)
        assert x.grad is g and not np.signbit(g[0])  # same bits as zeros + g
        x._accum(np.ones(3), owned=True)  # a later gradient adds into it
        assert np.array_equal(x.grad, [1.0, -0.5, 1.0])
        y = t([[1.0, 2.0], [3.0, 4.0]])
        for g in (np.ones((2, 2), dtype=np.float32), np.ones(2)):  # other dtype or shape: copied
            y.zero_grad()
            y._accum(g, owned=True)
            assert y.grad is not g and y.grad.dtype == np.float64 and y.grad.shape == (2, 2)

    def test_three_layer_composition_vs_central_differences(self):
        rng = np.random.default_rng(7)
        w1 = t(rng.normal(size=(4, 5)))
        w2 = t(rng.normal(size=(5, 3)))
        w3 = t(rng.normal(size=(3, 1)))

        def f(x):
            h1 = relu(matmul(x, w1))
            h2 = relu(matmul(h1, w2))
            return matmul(h2, w3).sum()

        x0 = t(rng.normal(size=(2, 4)))
        rep = grad_check(f, x0, tol=1e-6)
        assert rep.passed, rep.max_error

    def test_rerun_bit_identical(self):
        def run():
            rng = np.random.default_rng(123)
            x = t(rng.normal(size=(3, 3)))
            w = t(rng.normal(size=(3, 2)))
            loss = relu(matmul(x, w)).mean()
            backward(loss)
            return loss.data.copy(), x.grad.copy(), w.grad.copy()

        a = run()
        b = run()
        for lhs, rhs in zip(a, b):
            assert np.array_equal(lhs, rhs)


def _reachable(loss):
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    return list(nodes.values())


def _image_step(model, x, labels):
    """One image step's CE loss, holding no reference to any node but the loss."""
    return nll(model.classify(model.gnn_forward(model.backbone_forward(x), None)), labels)


class TestBackwardFreesTrace:
    def test_non_leaf_nodes_cleared_and_leaves_keep_gradients(self):
        cfg = ModelConfig(input_dims=(2, 5, 5), num_classes=3, hidden=4, phi_dim=3,
                          conv_channels=(2, 3))
        model = Model.init(cfg, np.random.default_rng(30))
        rng = np.random.default_rng(31)
        x = t(rng.normal(size=(4, 2, 5, 5)))
        loss = _image_step(model, x, rng.integers(0, 3, 4))
        nodes = _reachable(loss)
        inner = [n for n in nodes if n._parents]
        leaves = [n for n in nodes if not n._parents]
        assert len(inner) > 10 and x in leaves
        backward(loss)
        for n in inner:
            assert n.grad is None and n._parents == () and n._backward is None
        for n in leaves:
            assert n.grad is not None and n.grad.shape == n.shape

    def test_backward_peak_above_forward_trace_is_bounded(self):
        # B=64 16x16 images through the default conv stack, on a fresh model: the
        # forward trace, the conv layers' patch buffers included, is 15.7 MB.
        # Backward's peak above it measured 4.0 MB when each node is freed as it
        # finishes, and 29.3 MB when every gradient was kept to the end (with the
        # unfused conv chain, whose forward trace was 23.1 MB)
        model = Model.init(ModelConfig(input_dims=(1, 16, 16), num_classes=2),
                           np.random.default_rng(32))
        rng = np.random.default_rng(33)
        x, labels = rng.normal(size=(64, 1, 16, 16)), rng.integers(0, 2, 64)
        tracemalloc.start()
        try:
            loss = _image_step(model, x, labels)
            forward = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert forward > 14 * 2 ** 20
        assert peak - forward < 10 * 2 ** 20


class TestNoTrace:
    def test_ops_record_no_parents_and_no_closure(self):
        a, b = t(np.ones((2, 3))), t(np.ones((3, 2)))
        with no_trace():
            outs = [matmul(a, b), relu(a), (a * 2.0 + 1.0).sum(), nll(a, [2, -1]),
                    conv3x3_relu(t(np.ones((1, 3, 3, 1))), t(np.ones((9, 2))), t(np.ones(2)), [])]
        for out in outs:
            assert out._parents == () and out._backward is None
        assert matmul(a, b)._parents == (a, b)  # tracing again after the block

    def test_mode_restored_after_exception(self):
        a = t(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            with no_trace():
                matmul(a, a)
        out = relu(a)
        assert out._parents == (a,) and out._backward is not None
        with no_trace():
            with no_trace():
                pass
            assert relu(a)._parents == ()  # a nested block restores the outer mode


class TestGradCheck:
    def test_quadratic_form(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(4, 4))
        sym = t((m + m.T) / 2)

        def f(x):
            col = reshape_col(x)
            return matmul(matmul(transpose_row(x), sym), col).sum()

        def reshape_col(x):
            return x.reshape((4, 1))

        def transpose_row(x):
            return x.reshape((1, 4))

        x0 = t(rng.normal(size=4))
        rep = grad_check(f, x0, tol=1e-6)
        assert rep.passed
        # analytic gradient of x^T A x is 2 A x for symmetric A
        assert np.allclose(rep.analytic, 2 * sym.data @ x0.data, atol=1e-10)

    def test_constant_function(self):
        rep = grad_check(lambda x: (x * 0.0).sum(), t([1.0, 2.0]))
        assert rep.passed
        assert np.array_equal(rep.analytic, [0.0, 0.0])
        assert np.array_equal(rep.numeric, [0.0, 0.0])

    def test_corrupted_backward_rule_fails(self):
        def broken_square(a):
            out = Tensor(a.data * a.data)
            out._parents = (a,)

            def bw(g):
                a._accum(g * 1.7 * a.data)  # wrong factor, should be 2

            out._backward = bw
            return out

        rep = grad_check(lambda x: broken_square(x).sum(), t([1.0, -2.0, 3.0]))
        assert not rep.passed

    def test_report_type(self):
        rep = grad_check(lambda x: (x * x).sum(), t([1.0]))
        assert isinstance(rep, GradCheckReport)
        assert rep.errors.shape == (1,)


def _rand(rng, shape):
    return t(rng.normal(size=shape))


def _weighted(build_const, apply_op):
    """Case factory. Constants are drawn once per trial, not inside f:
    grad_check evaluates f many times and the probes must all see the
    same function."""
    def build(rng, shape):
        c = build_const(rng)
        return lambda x: apply_op(x, c)
    return build


def _conv_case(arg):
    """The conv op's gradient in operand ``arg`` (0 input, 1 weight, 2 bias);
    the other two operands and the output weights are drawn once per trial."""
    shapes = ((2, 4, 4, 2), (18, 3), (3,))

    def build(rng, shape):
        ops, c = [_rand(rng, s) for s in shapes], _rand(rng, (2, 4, 4, 3))
        return lambda x: (conv3x3_relu(*ops[:arg], x, *ops[arg + 1:], []) * c).sum()

    return shapes[arg], build


# name -> (input shape, builder(rng, shape) -> f). f maps Tensor -> scalar Tensor.
OP_CASES = {
    "add": ((3, 4), _weighted(lambda rng: _rand(rng, (3, 4)), lambda x, c: (x + c).sum())),
    "add_broadcast": ((3, 4), _weighted(lambda rng: _rand(rng, (4,)), lambda x, c: (x + c).sum())),
    "mul": ((3, 4), _weighted(lambda rng: _rand(rng, (3, 4)), lambda x, c: (x * c).sum())),
    "mul_scalar": ((3, 4), lambda rng, shape: lambda x: (x * 2.5).sum()),
    "sub": ((2, 5), _weighted(lambda rng: _rand(rng, (2, 5)), lambda x, c: (x - c).sum())),
    "matmul_left": ((2, 4), _weighted(lambda rng: _rand(rng, (4, 3)), lambda x, c: matmul(x, c).sum())),
    "matmul_right": ((2, 4), _weighted(lambda rng: _rand(rng, (3, 2)), lambda x, c: matmul(c, x).sum())),
    "relu": ((3, 4), lambda rng, shape: lambda x: relu(x).sum()),
    "gaussian_mixture": ((3, 3), _weighted(lambda rng: _rand(rng, (3, 3)), lambda x, c: (
        gaussian_mixture(x, (-0.5, -2.0, 0.3), (0.5, 0.3, 0.2)) * c).sum())),
    "pull_push": ((4, 4), _weighted(lambda rng: rng.integers(0, 3, size=(4, 4)), lambda x, c: pull_push(
        x, (c == 1) * 1.0, (c == 2) * 1.0, 0.5))),
    "sum_all": ((3, 4), lambda rng, shape: lambda x: x.sum()),
    "sum_axis0": ((3, 4), _weighted(lambda rng: _rand(rng, (4,)), lambda x, c: (x.sum(axis=0) * c).sum())),
    "sum_axes": ((2, 3, 4), _weighted(lambda rng: _rand(rng, (2,)), lambda x, c: (x.sum(axis=(1, 2)) * c).sum())),
    "mean_all": ((4, 4), lambda rng, shape: lambda x: x.mean()),
    "mean_axis": ((2, 3, 2, 2), _weighted(lambda rng: _rand(rng, (2, 3)), lambda x, c: (x.mean(axis=(2, 3)) * c).sum())),
    "reshape": ((3, 4), _weighted(lambda rng: _rand(rng, (6, 2)), lambda x, c: (x.reshape((6, 2)) * c).sum())),
    "transpose": ((3, 4), _weighted(lambda rng: _rand(rng, (4, 3)), lambda x, c: (x.transpose((1, 0)) * c).sum())),
    "nll": ((4, 5), lambda rng, shape: lambda x: nll(x, [2, -1, 0, 4])),
    "pairwise_sqdist_self": ((4, 3), _weighted(lambda rng: _rand(rng, (4, 4)), lambda x, c: (pairwise_sqdist(x) * c).sum())),
    "conv3x3_relu_input": _conv_case(0),
    "conv3x3_relu_weight": _conv_case(1),
    "conv3x3_relu_bias": _conv_case(2),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_every_op_matches_central_differences(name):
    # 20+ random instances per op at 64-bit, relative tolerance 1e-5
    shape, build = OP_CASES[name]
    for trial in range(20):
        rng = np.random.default_rng(hash((name, trial)) % (2 ** 32))
        f = build(rng, shape)
        x0 = _rand(rng, shape)
        rep = grad_check(f, x0, tol=1e-5)
        assert rep.passed, f"{name} trial {trial}: max rel err {rep.max_error}"


class TestPairwiseSqdist:
    def test_values_match_direct_loop(self):
        a = np.random.default_rng(11).normal(size=(5, 3))
        d = pairwise_sqdist(t(a)).data
        for i in range(5):
            for j in range(5):
                assert abs(d[i, j] - np.sum((a[i] - a[j]) ** 2)) < 1e-12

    def test_exact_cases(self):
        d = pairwise_sqdist(t([[0.0, 0.0], [0.5, 0.5]])).data
        assert d[0, 1] == d[1, 0] == 0.5 and d[0, 0] == d[1, 1] == 0.0

    def test_dim_mismatch(self):
        # one operand now: a matrix is the only shape it takes
        for shape in ((3,), (2, 3, 4)):
            with pytest.raises(ShapeError):
                pairwise_sqdist(t(np.zeros(shape)))

    def test_gradient_bits_equal_two_operand_form(self):
        # the row term lands first, then the column term, as the (a, a) node did
        rng = np.random.default_rng(12)
        A, g = rng.normal(size=(6, 3)), rng.normal(size=(6, 6))
        x = t(A)
        pairwise_sqdist(x)._backward(g)
        want = 2.0 * (g.sum(axis=1, keepdims=True) * A - g @ A) + 0
        want += 2.0 * (g.sum(axis=0, keepdims=True).T * A - g.T @ A)
        assert np.array_equal(x.grad.view(np.int64), want.view(np.int64))


def im2col(a, kh, kw, padding=0):
    """Channels-last (B, h, w, c) patch rows for stride-1 convolution, with
    channel-major columns, as the op the conv node fuses: the chain oracle.
    Forward: one copy of a window view of the padded input. Backward: kh*kw
    shifted slice adds in descending (i, j), a patch scatter-add's order."""
    bsz, h, w, c = a.shape
    p = padding
    oh, ow = h + 2 * p - kh + 1, w + 2 * p - kw + 1
    xp = np.pad(a.data, ((0, 0), (p, p), (p, p), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))  # (B,oh,ow,c,kh,kw)
    data = win.reshape(bsz * oh * ow, c * kh * kw)

    def bw(g):
        gk = g.reshape(bsz, oh, ow, c, kh, kw)
        gx = np.zeros_like(xp)
        for i in reversed(range(kh)):
            for j in reversed(range(kw)):
                gx[:, i:i + oh, j:j + ow] += gk[..., i, j]
        a._accum(gx[:, p:p + h, p:p + w], owned=True)

    return _result(data, (a,), bw)


def _conv_chain(x, w, b, unfold=im2col):
    """The op chain the conv node replaces: unfold -> matmul -> add -> relu -> reshape."""
    bsz, h, wd, _ = x.shape
    return relu(add(matmul(unfold(x, 3, 3, 1), w), b)).reshape((bsz, h, wd, w.shape[1]))


def _fused(x, w, b):
    return conv3x3_relu(x, w, b, [])


def _chain_backbone(model, x, unfold=im2col):
    """The conv backbone with each layer as the op chain."""
    p = model.params
    b, (c, h, w) = x.shape[0], model.config.input_dims
    y = x.reshape((b, h, w, 1)) if c == 1 else x.transpose((0, 2, 3, 1))
    for i in (1, 2):
        y = _conv_chain(y, p[f"backbone/conv{i}"], p[f"backbone/cb{i}"], unfold)
    pooled = y.transpose((0, 3, 1, 2)).mean(axis=(2, 3))
    return add(matmul(pooled, p["backbone/w3"]), p["backbone/b3"])


def _oracle_im2col_nchw(a, kh, kw, padding=0):
    """NCHW im2col by a fancy-index gather forward and an ``np.add.at`` backward."""
    bsz, c, h, w = a.shape
    p = padding
    oh, ow = h + 2 * p - kh + 1, w + 2 * p - kw + 1
    xp = np.pad(a.data, ((0, 0), (0, 0), (p, p), (p, p)))
    rows = np.repeat(np.arange(oh), ow)[:, None] + np.repeat(np.arange(kh), kw)[None, :]
    cols = np.tile(np.arange(ow), oh)[:, None] + np.tile(np.arange(kw), kh)[None, :]
    data = xp[:, :, rows, cols].transpose(0, 2, 1, 3).reshape(bsz * oh * ow, c * kh * kw)

    def bw(g):
        gx = np.zeros_like(xp)
        np.add.at(gx, (slice(None), slice(None), rows, cols),
                  g.reshape(bsz, oh * ow, c, kh * kw).transpose(0, 2, 1, 3))
        a._accum(gx[:, :, p:p + h, p:p + w])

    return _result(data, (a,), bw)


def _oracle_im2col(a, kh, kw, padding=0):
    """The NCHW oracle on a channels-last input: transposed to NCHW, gradient back."""
    return _oracle_im2col_nchw(a.transpose((0, 3, 1, 2)), kh, kw, padding)


def _nchw_backbone(model, x):
    """The conv backbone as it was with NCHW activations, kept as the bit reference."""
    p = model.params
    b = x.shape[0]
    _, h, w = model.config.input_dims
    c1, c2 = model.config.conv_channels
    y = add(matmul(_oracle_im2col_nchw(x, 3, 3, padding=1), p["backbone/conv1"]), p["backbone/cb1"])
    y = relu(y).reshape((b, h, w, c1)).transpose((0, 3, 1, 2))
    y = add(matmul(_oracle_im2col_nchw(y, 3, 3, padding=1), p["backbone/conv2"]), p["backbone/cb2"])
    pooled = relu(y).reshape((b, h, w, c2)).transpose((0, 3, 1, 2)).mean(axis=(2, 3))
    return add(matmul(pooled, p["backbone/w3"]), p["backbone/b3"])


def _transposed_copy_im2col(a, kh, kw, padding=0):
    """Channels-last im2col whose backward transposes the gradient to
    (kh, kw, B, oh, ow, c) in one copy before the shifted adds: frozen as the
    bit reference of the copy-free backward."""
    bsz, h, w, c = a.shape
    p = padding
    oh, ow = h + 2 * p - kh + 1, w + 2 * p - kw + 1
    xp = np.pad(a.data, ((0, 0), (p, p), (p, p), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    data = win.reshape(bsz * oh * ow, c * kh * kw)

    def bw(g):
        gk = g.reshape(bsz, oh, ow, c, kh, kw).transpose(4, 5, 0, 1, 2, 3).copy()
        gx = np.zeros_like(xp)
        for i in reversed(range(kh)):
            for j in reversed(range(kw)):
                gx[:, i:i + oh, j:j + ow] += gk[i, j]
        a._accum(gx[:, p:p + h, p:p + w], owned=True)

    return _result(data, (a,), bw)


class TestIm2col:
    def test_reconstructs_convolution(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 5, 5))
        w = rng.normal(size=(3, 2, 2, 4))  # (c, kh, kw, out)
        cols = im2col(t(x.transpose(0, 2, 3, 1)), 2, 2, padding=0).data
        out = cols @ w.reshape(3 * 2 * 2, 4)
        out = out.reshape(2, 4, 4, 4)
        # brute-force convolution oracle
        for bi in range(2):
            for oi in range(4):
                for oj in range(4):
                    for oc in range(4):
                        acc = 0.0
                        for c in range(3):
                            for ki in range(2):
                                for kj in range(2):
                                    acc += x[bi, c, oi + ki, oj + kj] * w[c, ki, kj, oc]
                        assert abs(out[bi, oi, oj, oc] - acc) < 1e-10

    def test_bad_rank(self):
        # the conv node checks its operands' shapes before it borrows a buffer
        spare = []
        for x, w in ((np.zeros((3, 4)), np.zeros((9, 2))), (np.zeros((1, 3, 3, 2)), np.zeros((9, 2)))):
            with pytest.raises(ShapeError):
                conv3x3_relu(t(x), t(w), t(np.zeros(2)), spare)
        assert spare == []

    @staticmethod
    def _mixed(rng, shape):
        # signed values spread over 1e-8..1e8, so any change of summation order shows
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)

    @pytest.mark.parametrize("c", [1, 3, 8])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("kernel", [(3, 3), (2, 3)])
    def test_bit_equal_to_gather_scatter_oracle(self, c, padding, kernel):
        # and to the frozen transposed-copy backward, on gradients that hold -0.0
        rng = np.random.default_rng(7)
        x = self._mixed(rng, (3, 6, 7, c))
        (kh, kw), p = kernel, padding
        g = self._mixed(rng, (3 * (6 + 2 * p - kh + 1) * (7 + 2 * p - kw + 1), c * kh * kw))
        g[::3] = -0.0
        g[rng.random(g.shape) < 0.2] = -0.0
        runs = []
        for op in (im2col, _oracle_im2col, _transposed_copy_im2col):
            xt = t(x)
            out = op(xt, kh, kw, p)
            backward((out * g).sum())
            runs.append((out.data, xt.grad.view(np.int64)))
        for data, grad in runs[1:]:
            assert np.array_equal(data, runs[0][0]) and np.array_equal(grad, runs[0][1])

    def test_conv_backbone_gradients_bit_equal_to_oracle(self):
        # the fused backbone against the op chain on the gather/scatter oracle
        cfg = ModelConfig(input_dims=(2, 6, 6), num_classes=2, hidden=5, phi_dim=4,
                          conv_channels=(3, 4))
        x0 = self._mixed(np.random.default_rng(8), (5, 2, 6, 6))

        def grads(forward):
            model = Model.init(cfg, np.random.default_rng(9))
            x = t(x0)
            backward(forward(model, x).sum())
            return [x.grad] + [p.grad for name, p in model.parameters() if name.startswith("backbone/")]

        got = grads(Model.backbone_forward)
        want = grads(lambda model, x: _chain_backbone(model, x, _oracle_im2col))
        assert len(got) == len(want) == 7  # input, two convs and biases, w3, b3
        for a, b in zip(got, want):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))

    @pytest.mark.parametrize("c", [1, 3])
    def test_backbone_bit_equal_to_nchw_backbone(self, c):
        cfg = ModelConfig(input_dims=(c, 6, 7), num_classes=2, hidden=5, phi_dim=4,
                          conv_channels=(3, 4))
        model = Model.init(cfg, np.random.default_rng(10))
        x0 = self._mixed(np.random.default_rng(11), (5, c, 6, 7))
        g = self._mixed(np.random.default_rng(12), (5, 4))

        def run(forward):
            for _, p in model.parameters():
                p.zero_grad()
            x = t(x0)
            phi = forward(x)
            backward((phi * g).sum())
            return [phi.data, x.grad] + [p.grad for name, p in model.parameters()
                                         if name.startswith("backbone/")]

        got, want = run(model.backbone_forward), run(lambda x: _nchw_backbone(model, x))
        assert len(got) == len(want) == 8  # phi, input, two convs and biases, w3, b3
        for a, b in zip(got, want):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))



class TestConv3x3Relu:
    """The fused conv node against the op chain, bit for bit."""

    @staticmethod
    def _operands(c, bsz):
        rng = np.random.default_rng(40 + c)
        x, w = TestIm2col._mixed(rng, (bsz, 6, 7, c)), TestIm2col._mixed(rng, (c * 9, 4))
        b, g = TestIm2col._mixed(rng, 4), TestIm2col._mixed(rng, (bsz, 6, 7, 4))
        g[::3] = -0.0
        g[rng.random(g.shape) < 0.2] = -0.0
        return x, w, b, g

    @staticmethod
    def _bits(op, x, w, b, g):
        xt, wt, bt = t(x), t(w), t(b)
        out = op(xt, wt, bt)
        data = out.data.copy()
        backward((out * g).sum())
        return [a.view(np.int64) for a in (data, xt.grad, wt.grad, bt.grad)]

    @pytest.mark.parametrize("c", [1, 3])
    def test_bit_equal_to_chain(self, c):
        # the batch spans several col2im blocks and the last one is short
        step = graphda.autodiff._COL2IM_BYTES // (8 * 6 * 7 * c * 9)
        bsz = 2 * step + step // 2 + 1
        operands = self._operands(c, bsz)
        got, want = self._bits(_fused, *operands), self._bits(_conv_chain, *operands)
        assert len(got) == len(want) == 4  # data, then the input, weight and bias gradients
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_untraced_data_equals_traced(self):
        x, w, b, _ = self._operands(3, 5)
        spare = []
        traced = conv3x3_relu(t(x), t(w), t(b), spare)
        with no_trace():
            untraced = conv3x3_relu(t(x), t(w), t(b), spare)
        assert np.array_equal(untraced.data.view(np.int64), traced.data.view(np.int64))
        assert len(spare) == 1  # the untraced node lent its buffer back at once

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_two_live_traces_keep_their_own_patches(self, order):
        # the first forward borrows the buffer that an untraced one lent back;
        # the second finds it lent out and allocates its own
        spare, runs = [], []
        with no_trace():
            conv3x3_relu(*(t(a) for a in self._operands(3, 5)[:3]), spare)
        for scale in (1.0, -3.0):
            x, w, b, g = self._operands(3, 5)
            x *= scale
            ts = [t(x), t(w), t(b)]
            runs.append((ts, conv3x3_relu(*ts, spare), g, self._bits(_conv_chain, x, w, b, g)))
            x[...] = 0.0  # the node reads its own patches, not x
        assert spare == []
        for i in order:
            ts, out, g, want = runs[i]
            backward((out * g).sum())
            assert len(spare) == 1
            got = [out.data] + [a.grad for a in ts]
            for a, b in zip(got, want):
                assert np.array_equal(a.view(np.int64), b)

    def test_constant_input_gets_no_patch_gradient(self, monkeypatch):
        x, w, b, g = self._operands(3, 5)
        calls = []
        monkeypatch.setattr(graphda.autodiff, "_col2im", lambda *a: calls.append(a))
        wt, bt = t(w), t(b)
        out = conv3x3_relu(x, wt, bt, [])
        assert out._parents == (wt, bt)
        backward((out * g).sum())
        want = self._bits(_conv_chain, x, w, b, g)
        assert calls == []
        for a, b in zip((out.data, wt.grad, bt.grad), want[:1] + want[2:]):
            assert np.array_equal(a.view(np.int64), b)


# -- one-node loss ops against the op chains they replace ---------------------------


def _exp_chain(a):
    data = np.exp(a.data)
    return _result(data, (a,), lambda g: a._accum(g * data))


def _mixture_chain(sq, coefs, weights):
    """The kernel mixture as mul -> exp -> mul per bandwidth, summed by add."""
    out = None
    for c, beta in zip(coefs, weights):
        term = _exp_chain(sq * c) * beta
        out = term if out is None else out + term
    return out


def _pull_push_chain(d2, same, diff, margin):
    return (d2 * same).sum() + (relu(d2 * -1.0 + margin) * diff).sum()


def _loss_and_grad_bits(loss_fn, arrays, upstream):
    xs = [t(a) for a in arrays]
    loss = loss_fn(*xs)
    backward(loss * upstream)
    out = [loss.data] + [np.full(1, np.nan) if x.grad is None else x.grad for x in xs]
    return [np.asarray(a).view(np.int64) for a in out]


class TestOneNodeLossOps:
    """Loss and gradient bits equal the unfused chains, upstream 0 included."""

    def _check(self, monkeypatch, name, chain, loss_fn, arrays):
        for upstream in (1.0, 0.0, 0.37):  # 0.0: the source-only arm's weight
            got = _loss_and_grad_bits(loss_fn, arrays, upstream)
            with monkeypatch.context() as m:
                m.setattr(graphda.losses, name, chain)
                want = _loss_and_grad_bits(loss_fn, arrays, upstream)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("scales", [(1.0,), MEDIAN_SCALES])
    def test_mixture_bit_equal_to_chain(self, monkeypatch, scales):
        rng = np.random.default_rng(21)
        s, u = rng.normal(size=(7, 4)), rng.normal(size=(6, 4)) + 0.5
        spec = kernels_of(s, u, scales=scales)
        self._check(monkeypatch, "gaussian_mixture", _mixture_chain,
                    lambda a, b: mmd_of(a, b, spec), [s, u])

    @pytest.mark.parametrize("labels", [
        [0, 1, 0, 1, -1, 1], [1, 1, 1, -1, 1, 1], [-1] * 6, [0, 0, 1, 1, 0, 1]])
    def test_pull_push_bit_equal_to_chain(self, monkeypatch, labels):
        # integer points: many squared distances equal the margin 2.0 exactly
        feats = np.array([[0, 0], [1, 1], [2, 0], [0, 2], [1, -1], [3, 1]], dtype=np.float64)
        d2 = pairwise_sqdist(t(feats)).data
        assert (d2 == 2.0).sum() >= 8
        rng = np.random.default_rng(22)
        for x in (feats, feats + rng.normal(scale=0.3, size=feats.shape)):
            self._check(monkeypatch, "pull_push", _pull_push_chain,
                        lambda f: separation_of(f, labels, 2.0), [x])
