import math

import numpy as np
import pytest

from graphda.autodiff import Tensor, backward
from graphda.losses import (
    MEDIAN_SCALES,
    KernelSpec,
    LossBreakdown,
    cross_entropy_loss,
    mmd_loss,
    total_loss,
)
from graphda.autodiff import pairwise_sqdist
from geometry import kernels_of, mmd_blocks, mmd_of, separation_of
from gradcheck import grad_check


def t(x):
    return Tensor(np.asarray(x, dtype=np.float64))


GAUSS1 = KernelSpec(bandwidths=(1.0,))


class TestKernelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(bandwidths=(1.0, -1.0))
        with pytest.raises(ValueError):
            KernelSpec(bandwidths=())

    def test_kappa_and_defaults(self):
        spec = kernels_of(np.eye(3))
        assert len(spec.bandwidths) == len(MEDIAN_SCALES) == 5
        # an equal-weight mixture: 1 at distance 0, the mean of the five exps elsewhere
        want = [1.0, np.mean([math.exp(-0.5 / s ** 2) for s in spec.bandwidths])]
        assert np.allclose(spec.kernel(t([[0.0, 1.0]])).data, [want], rtol=1e-15, atol=0)

    def test_median_heuristic_known_value(self):
        # collinear 0,1,2,3: pair distances {1,1,1,2,2,3}, median 1.5
        pts = np.array([[0.0], [1.0], [2.0], [3.0]])
        spec = kernels_of(pts)
        assert spec.bandwidths == tuple(1.5 * s for s in MEDIAN_SCALES)

    def test_median_heuristic_degenerate(self):
        with pytest.warns(UserWarning):
            spec = kernels_of(np.ones((4, 2)))
        assert spec.bandwidths == MEDIAN_SCALES

    def test_kernel_values(self):
        # single unit-bandwidth Gaussian at squared distance 2
        out = GAUSS1.kernel(t([[0.0, 2.0]]))
        assert out.data[0, 0] == 1.0
        assert out.data[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-15)


class TestMMD:
    def test_identical_sets_zero(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(7, 3))
        spec = kernels_of(x)
        assert abs(float(mmd_of(t(x), t(x), spec).data)) <= 1e-12

    def test_permuted_multiset_near_zero(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(9, 4))
        spec = kernels_of(x)
        v = float(mmd_of(t(x), t(x[::-1].copy()), spec).data)
        assert abs(v) <= 1e-12

    def test_singleton_closed_form(self):
        # ||x-y||^2 = 2, one kernel, sigma=1: 2 - 2 e^{-1}
        x, y = t([[0.0, 0.0]]), t([[1.0, 1.0]])
        got = float(mmd_of(x, y, GAUSS1).data)
        assert got == pytest.approx(2.0 - 2.0 * math.exp(-1.0), abs=1e-9)

    def test_symmetric_and_nonnegative(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            a = rng.normal(size=(rng.integers(1, 8), 3))
            b = rng.normal(size=(rng.integers(1, 8), 3))
            spec = kernels_of(a, b)
            ab = float(mmd_of(t(a), t(b), spec).data)
            ba = float(mmd_of(t(b), t(a), spec).data)
            assert abs(ab - ba) <= 1e-12
            assert ab >= 0.0

    def test_mixture_linearity(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(6, 2)), rng.normal(size=(5, 2))
        sigmas = (0.5, 1.0, 2.0)
        multi = KernelSpec(bandwidths=sigmas)
        got = float(mmd_of(t(a), t(b), multi).data)
        parts = [
            float(mmd_of(t(a), t(b), KernelSpec(bandwidths=(s,))).data)
            for s in sigmas
        ]
        assert got == pytest.approx(sum(parts) / 3, abs=1e-12)

    def test_empty_domain_rejected(self):
        d2 = pairwise_sqdist(t(np.zeros((2, 3))))
        for n_source in (0, 2):
            with pytest.raises(ValueError, match="one row per domain"):
                mmd_loss(d2, n_source, GAUSS1)

    @pytest.mark.parametrize("ns, nt", [(1, 1), (1, 6), (5, 1), (4, 9), (8, 8)])
    def test_quadratic_form_equals_three_blocks(self, ns, nt):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            a, b = rng.normal(size=(ns, 3)), rng.normal(size=(nt, 3)) + 0.5
            spec = kernels_of(a, b)
            got = float(mmd_of(t(a), t(b), spec).data)
            want = mmd_blocks(a, b, spec)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_gradient_both_arguments(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(5, 3))
        spec = KernelSpec(bandwidths=(0.7, 1.3))
        assert grad_check(lambda x: mmd_of(x, t(b), spec), t(a)).passed
        assert grad_check(lambda x: mmd_of(t(a), x, spec), t(b)).passed

    def test_shrinks_as_clouds_align(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(20, 2))
        b = rng.normal(size=(20, 2))
        spec = kernels_of(a, b)
        far = float(mmd_of(t(a), t(b + 5.0), spec).data)
        near = float(mmd_of(t(a), t(b), spec).data)
        assert near < far


class TestFeatureSimilarity:
    def test_identical_same_label_zero(self):
        f = t([[1.0, 2.0], [1.0, 2.0]])
        assert float(separation_of(f, [3, 3]).data) == 0.0

    def test_saturated_hinge_zero(self):
        # squared distance 3 >= margin 2
        f = t([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        assert float(separation_of(f, [0, 1]).data) == 0.0

    def test_hinge_value_exact(self):
        # squared distance 0.5, different labels: 2 - 0.5 = 1.5
        f = t([[0.0, 0.0], [0.5, 0.5]])
        assert float(separation_of(f, [0, 1]).data) == 1.5

    def test_squared_distance_exactly_margin(self):
        f = t([[0.0, 0.0], [1.0, 1.0]])  # squared distance 2
        assert float(separation_of(f, [0, 1]).data) == 0.0

    def test_mean_over_contributing_pairs(self):
        # pairs: (0,1) same at 0, (0,2) and (1,2) different at 0.5 each
        f = t([[0.0, 0.0], [0.0, 0.0], [0.5, 0.5]])
        got = float(separation_of(f, [0, 0, 1]).data)
        assert got == pytest.approx((0.0 + 1.5 + 1.5) / 3, abs=0)

    def test_unlabeled_pairs_excluded(self):
        f = t([[0.0, 0.0], [9.0, 9.0], [0.5, 0.5]])
        # only (0,2) contributes; row 1 is unlabeled
        assert float(separation_of(f, [0, -1, 1]).data) == 1.5

    def test_no_contributing_pairs(self):
        f = t([[1.0], [2.0], [3.0]])
        assert float(separation_of(f, [-1, -1, -1]).data) == 0.0
        assert float(separation_of(f, [0, -1, -1]).data) == 0.0

    def test_invariant_to_order_and_relabeling(self):
        rng = np.random.default_rng(11)
        f = rng.normal(size=(10, 3))
        lab = rng.integers(0, 3, size=10)
        base = float(separation_of(t(f), lab).data)
        perm = rng.permutation(10)
        shuffled = float(separation_of(t(f[perm]), lab[perm]).data)
        relabeled = float(separation_of(t(f), (lab + 1) % 3).data)
        assert shuffled == pytest.approx(base, abs=1e-12)
        assert relabeled == pytest.approx(base, abs=1e-12)

    def test_pull_and_push_directions(self):
        # same label: gradient moves x0 toward x1
        x = t([[1.0, 0.0], [0.0, 0.0]])
        backward(separation_of(x, [0, 0]))
        assert x.grad[0, 0] > 0  # decreasing x0 reduces the gap
        # different label inside the margin: gradient pushes x0 away
        y = t([[1.0, 0.0], [0.0, 0.0]])
        backward(separation_of(y, [0, 1]))
        assert y.grad[0, 0] < 0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        lab = np.array([0, 1, 0, 2, 1, -1])
        f0 = rng.normal(size=(6, 3)) * 0.4
        # stay away from the hinge kink at squared distance == margin
        d2 = ((f0[:, None, :] - f0[None, :, :]) ** 2).sum(-1)
        assert np.abs(d2 - 2.0).min() > 1e-3
        assert grad_check(lambda x: separation_of(x, lab), t(f0)).passed

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            separation_of(t(np.zeros((3, 2))), [0, 1])


def _chain_bits(z, labels, upstream):
    """Loss and logits gradient bits of the op chain the ``nll`` node replaced,
    log-softmax -> row gather -> element gather -> mean -> * -1.0, op by op in
    numpy: each node's first gradient lands as zeros + g, and the loss node
    receives ``upstream``."""
    lab = np.asarray(labels)
    idx = np.nonzero(lab != -1)[0]
    n, cols = idx.size, lab[idx]
    shifted = z - z.max(axis=-1, keepdims=True)
    ls = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    picked = ls[idx][np.arange(n), cols]
    loss = (picked.sum() * (1.0 / n)) * -1.0
    g_mean = np.float64(upstream) * -1.0 + 0
    g_picked = np.broadcast_to(g_mean, (n,)) * (1.0 / n) + 0
    g_rows = np.zeros((n, z.shape[1]))
    np.add.at(g_rows, (np.arange(n), cols), g_picked)
    g_ls = np.zeros_like(z)
    np.add.at(g_ls, idx, g_rows + 0)
    g_ls = g_ls + 0
    grad = (g_ls - np.exp(ls) * g_ls.sum(axis=-1, keepdims=True)) + 0
    return np.asarray(loss).view(np.int64), grad.view(np.int64)


class TestCrossEntropy:
    @pytest.mark.parametrize("labels", [
        [2, -1, 0, 3, -1, 1], [-1, -1, 3, -1, -1, -1], [0, 1, 2, 3, -1, 0]])
    @pytest.mark.parametrize("upstream", [1.0, 0.0, 2.5])
    def test_bit_equal_to_replaced_chain(self, labels, upstream):
        rng = np.random.default_rng(41)
        for _ in range(10):
            # signed logits spread over 1e-3..1e3, so any change of operation order shows
            z0 = rng.standard_normal((6, 4)) * 10.0 ** rng.uniform(-3, 3, (6, 4))
            z = t(z0)
            loss = cross_entropy_loss(z, labels)
            assert loss._parents == (z,)  # one node on the logits
            backward(loss * upstream)
            want_loss, want_grad = _chain_bits(z0, labels, upstream)
            assert np.array_equal(np.asarray(loss.data).view(np.int64), want_loss)
            assert np.array_equal(z.grad.view(np.int64), want_grad)

    def test_confident_correct_is_zero(self):
        logits = t([[1000.0, 0.0]])
        assert float(cross_entropy_loss(logits, [0]).data) == 0.0

    def test_uniform_two_classes(self):
        logits = t([[0.0, 0.0]])
        assert float(cross_entropy_loss(logits, [1]).data) == pytest.approx(math.log(2), rel=1e-15)

    def test_all_unlabeled_warns_and_zero(self):
        with pytest.warns(UserWarning):
            v = cross_entropy_loss(t([[1.0, 2.0]]), [-1])
        assert float(v.data) == 0.0

    def test_unlabeled_rows_excluded_from_mean(self):
        logits = t([[0.0, 0.0], [50.0, 0.0]])
        got = float(cross_entropy_loss(logits, [0, -1]).data)
        assert got == pytest.approx(math.log(2), rel=1e-15)

    def test_labels_outside_the_classes_are_rejected(self):
        # -1 marks an unlabeled row; -2 would otherwise read the last column
        for bad in (-2, 2):
            with pytest.raises(ValueError, match=r"-1 or lie in \[0, 2\)"):
                cross_entropy_loss(t([[0.0, 3.0], [1.0, 0.0]]), [bad, 0])

    def test_matches_reference_nll(self):
        rng = np.random.default_rng(17)
        z = rng.normal(size=(8, 4))
        lab = rng.integers(0, 4, size=8)
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        want = -np.log(p[np.arange(8), lab]).mean()
        assert float(cross_entropy_loss(t(z), lab).data) == pytest.approx(want, rel=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(19)
        z = rng.normal(size=(5, 3))
        lab = np.array([0, 2, -1, 1, 1])
        assert grad_check(lambda x: cross_entropy_loss(x, lab), t(z)).passed

    def test_extreme_logits_finite_gradient(self):
        z = t([[1000.0, 0.0], [-1000.0, 0.0]])
        loss = cross_entropy_loss(z, [1, 0])
        backward(loss)
        assert np.isfinite(loss.data)
        assert np.isfinite(z.grad).all()


class TestTotalLoss:
    def test_plain_sum(self):
        tot, bd = total_loss(t(0.5), t(0.25), t(0.25), weights=(1.0, 1.0, 1.0))
        assert float(tot.data) == 1.0
        assert bd == LossBreakdown(0.5, 0.25, 0.25, 1.0)

    def test_zero_term_drops_out(self):
        tot, bd = total_loss(t(0.0), t(0.3), t(0.4), weights=(1.0, 1.0, 1.0))
        assert float(tot.data) == pytest.approx(0.7, abs=1e-15)
        assert bd.l_mmd == 0.0

    def test_breakdown_invariant(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            a, b, c = rng.normal(size=3)
            _, bd = total_loss(t(a), t(b), t(c), weights=(1.0, 1.0, 1.0))
            assert abs(bd.l_total - (bd.l_mmd + bd.l_g + bd.l_ce)) <= 1e-12

    def test_ablation_weights(self):
        tot, bd = total_loss(t(1.0), t(1.0), t(1.0), weights=(0.0, 2.0, 1.0))
        assert float(tot.data) == 3.0
        assert (bd.l_mmd, bd.l_g, bd.l_ce) == (0.0, 2.0, 1.0)

    def test_unbuilt_term_reads_zero_and_adds_nothing(self):
        tot, bd = total_loss(None, None, t(0.5), weights=(0.0, 0.0, 2.0))
        assert float(tot.data) == 1.0 and bd == LossBreakdown(0.0, 0.0, 1.0, 1.0)
        assert repr(bd.l_mmd) == repr(bd.l_g) == "0.0"
        _, bd = total_loss(t(-1e-17), None, t(0.5), weights=(0.0, 0.0, 1.0))
        assert repr(bd.l_mmd) == "-0.0"  # a built term keeps its own bits, weight 0 or not
        _, bd = total_loss(t(float("nan")), None, t(0.5), weights=(0.0, 0.0, 1.0))
        assert math.isnan(bd.l_total)  # only a term that is not built cannot diverge
        tot, bd = total_loss(None, None, None, weights=(1.0, 1.0, 1.0))
        assert float(tot.data) == 0.0 and bd == LossBreakdown(0.0, 0.0, 0.0, 0.0)
        backward(tot)  # a weight-decay-only step still has a total to differentiate

    def test_gradient_is_sum_of_term_gradients(self):
        rng = np.random.default_rng(29)
        x0 = rng.normal(size=(4, 2)) * 0.4
        b = rng.normal(size=(3, 2))
        lab = np.array([0, 1, 1, 0])

        def composite(x):
            l_mmd = mmd_of(x, t(b), GAUSS1)
            l_g = separation_of(x, lab)
            l_ce = cross_entropy_loss(x, [0, 1, -1, 0])
            return total_loss(l_mmd, l_g, l_ce, weights=(1.0, 1.0, 1.0))[0]

        assert grad_check(composite, t(x0)).passed

        x1, x2, x3, x4 = (t(x0) for _ in range(4))
        backward(total_loss(mmd_of(x1, t(b), GAUSS1),
                            separation_of(x1, lab),
                            cross_entropy_loss(x1, [0, 1, -1, 0]), weights=(1.0, 1.0, 1.0))[0])
        backward(mmd_of(x2, t(b), GAUSS1))
        backward(separation_of(x3, lab))
        backward(cross_entropy_loss(x4, [0, 1, -1, 0]))
        summed = x2.grad + x3.grad + x4.grad
        assert np.allclose(x1.grad, summed, atol=1e-12)
