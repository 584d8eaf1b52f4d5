"""Unit tests for the tensor/autodiff core."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from xmtc.errors import GradTapeError, ShapeError
from xmtc.tensor import (
    GradTape,
    Tensor,
    add,
    bce_loss,
    concat,
    conv1d_dilated,
    gather_rows,
    grad_check,
    logistic,
    matmul,
    mean,
    mul,
    relu,
    reshape,
    row_sums,
    same_padding,
    sigmoid,
    softmax,
    split_columns,
    spmm,
    tanh,
    tensor_sum,
    transpose,
)

from oracles import naive_conv1d, numeric_gradient, row_sums_add_at


def param(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


class TestMatmul:
    def test_identity(self):
        out = matmul(Tensor(np.eye(2)), Tensor([[3.0, 4.0], [5.0, 6.0]]))
        np.testing.assert_array_equal(out.data, [[3.0, 4.0], [5.0, 6.0]])

    def test_hand_arithmetic(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_grad_of_sum_is_ones_times_bT(self):
        rng = np.random.default_rng(7)
        a = param(rng, 3, 4)
        b = param(rng, 4, 2)
        with GradTape() as tape:
            loss = tensor_sum(matmul(a, b))
            tape.backward(loss)
        np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b.data.T, rtol=1e-12)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(11)
        a = param(rng, 3, 4)
        b = param(rng, 4, 2)
        report = grad_check(matmul, [a, b], tol=1e-6)
        assert report.passed, report


class TestSpmm:
    def _operands(self, seed):
        rng = np.random.default_rng(seed)
        s = sp.random(5, 7, density=0.4, format="csr", random_state=seed)
        return s, param(rng, 7, 3)

    def test_matches_dense_matmul(self):
        s, x = self._operands(3)
        out = spmm(s, x)
        np.testing.assert_allclose(out.data, matmul(Tensor(s.toarray()), x).data,
                                   rtol=0, atol=1e-15)

    def test_gradient(self):
        s, x = self._operands(5)
        report = grad_check(lambda t: spmm(s, t), [x], tol=1e-6)
        assert report.passed, report

    def test_inner_dimension_mismatch(self):
        s, _ = self._operands(7)
        with pytest.raises(ShapeError):
            spmm(s, Tensor(np.zeros((6, 3))))


class TestConv1dDilated:
    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((6, 3)))
        filt = np.zeros((1, 3, 3))
        filt[0] = np.eye(3)
        out = conv1d_dilated(x, Tensor(filt), dilation=1, padding=0)
        np.testing.assert_array_equal(out.data, x.data)

    def test_paper_padding_formula(self):
        assert same_padding(9, 4) == 16

    def test_bad_dilation(self):
        x = Tensor(np.zeros((4, 1)))
        f = Tensor(np.zeros((3, 1, 1)))
        with pytest.raises(ValueError):
            conv1d_dilated(x, f, dilation=0, padding=2)

    def test_small_case_matches_sliding_window_oracle(self):
        # x=[1,2,3,4], K=3, r=2, p=2, all-ones filter.  Expected values were
        # computed with the naive oracle and frozen here.
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        filt = np.ones((3, 1, 1))
        out = conv1d_dilated(Tensor(x), Tensor(filt), dilation=2, padding=2)
        expect = naive_conv1d(x, filt, dilation=2, padding=2)
        np.testing.assert_array_equal(out.data, expect)
        np.testing.assert_array_equal(out.data[:, 0], [4.0, 6.0, 4.0, 6.0])

    def test_random_cases_match_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            d_in = int(rng.integers(1, 4))
            d_out = int(rng.integers(1, 4))
            k = int(rng.choice([1, 3, 5]))
            r = int(rng.integers(1, 4))
            p = same_padding(k, r)
            x = rng.standard_normal((n, d_in))
            f = rng.standard_normal((k, d_in, d_out))
            out = conv1d_dilated(Tensor(x), Tensor(f), dilation=r, padding=p)
            np.testing.assert_allclose(
                out.data, naive_conv1d(x, f, r, p), rtol=1e-12, atol=1e-12
            )
            assert out.shape == (n, d_out)

    def test_length_preserved_for_odd_kernels(self):
        rng = np.random.default_rng(3)
        for k in (1, 3, 5, 9):
            for r in (1, 2, 4, 7):
                for n in (1, 2, 17):
                    x = Tensor(rng.standard_normal((n, 2)))
                    f = Tensor(rng.standard_normal((k, 2, 2)))
                    out = conv1d_dilated(x, f, dilation=r, padding=same_padding(k, r))
                    assert out.shape == (n, 2)

    def test_gradients(self):
        rng = np.random.default_rng(5)
        x = param(rng, 7, 3)
        f = param(rng, 3, 3, 2)
        report = grad_check(
            lambda x_, f_: conv1d_dilated(x_, f_, dilation=2, padding=2), [x, f], tol=1e-6
        )
        assert report.passed, report

    def test_tape_keeps_no_window_buffer(self):
        """Under a tape the conv keeps the padded input for backward, not
        its [n, K*d] window buffer."""
        n, d, k = 400, 16, 9
        rng = np.random.default_rng(6)
        x = param(rng, n, d)
        f = param(rng, k, d, d)
        tracemalloc.start()
        try:
            with GradTape():
                before = tracemalloc.get_traced_memory()[0]
                out = conv1d_dilated(x, f, dilation=1, padding=same_padding(k, 1))
                held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.shape == (n, d)
        assert held < 0.5 * k * n * d * 8, held


class TestActivations:
    def test_softmax_symmetry(self):
        out = softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
        np.testing.assert_allclose(out.data, [1 / 3] * 3, rtol=1e-12)

    def test_softmax_overflow_guard(self):
        out = softmax(Tensor([1000.0, 1000.0]), axis=0)
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            x = Tensor(rng.standard_normal((int(rng.integers(1, 6)), int(rng.integers(1, 6)))))
            out = softmax(x, axis=1)
            np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)

    def test_softmax_empty_axis(self):
        with pytest.raises(ValueError):
            softmax(Tensor(np.zeros((2, 0))), axis=1)

    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor(0.0)).data == 0.5

    def test_sigmoid_open_interval(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sigmoid(Tensor([-800.0, 800.0, -np.inf, np.inf])).data
        assert np.isfinite(out).all()
        assert (out > 0.0).all() and (out < 1.0).all()

    def test_logistic_matches_expit(self):
        from scipy.special import expit

        rng = np.random.default_rng(23)
        x = np.concatenate([rng.uniform(-750.0, 750.0, 10**6),
                            [0.0, -0.0, np.inf, -np.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = logistic(x)
        assert np.abs(got - expit(x)).max() <= 2.3e-16
        np.testing.assert_array_equal(got[-4:], [0.5, 0.5, 1.0, 0.0])

    @pytest.mark.parametrize("fn", [relu, tanh, sigmoid])
    def test_unary_gradients(self, fn):
        rng = np.random.default_rng(17)
        x = Tensor(rng.standard_normal((4, 3)) + 0.1, requires_grad=True)
        report = grad_check(fn, [x], tol=1e-4)
        assert report.passed, report

    def test_softmax_gradient(self):
        rng = np.random.default_rng(19)
        x = param(rng, 3, 5)
        report = grad_check(lambda t: softmax(t, axis=1), [x], tol=1e-4)
        assert report.passed, report


class TestGatherRows:
    def test_basic(self):
        table = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = gather_rows(table, [1, 0, 1])
        np.testing.assert_array_equal(out.data, [[3.0, 4.0], [1.0, 2.0], [3.0, 4.0]])

    def test_empty_ids(self):
        out = gather_rows(Tensor(np.zeros((3, 5))), [])
        assert out.shape == (0, 5)

    def test_out_of_range_reports_id(self):
        with pytest.raises(IndexError, match="7"):
            gather_rows(Tensor(np.zeros((3, 2))), [0, 7])

    def test_duplicate_ids_accumulate(self):
        rng = np.random.default_rng(23)
        table = param(rng, 4, 3)
        report = grad_check(lambda t: gather_rows(t, [2, 2, 0, 2]), [table], tol=1e-6)
        assert report.passed, report

    def test_backward_equals_dense_table_scatter(self):
        # duplicate ids summed in a compact buffer, then added into a nonzero
        # prior gradient, give exactly the dense [V, d] scatter-add
        rng = np.random.default_rng(31)
        table = param(rng, 9, 4)
        prior = rng.standard_normal((9, 4))
        table.grad = prior.copy()
        ids = np.array([7, 2, 7, 0, 2, 7, 8])
        g = rng.standard_normal((ids.size, 4))
        with GradTape() as tape:
            tape.backward(tensor_sum(mul(gather_rows(table, ids), Tensor(g))))
        dense = np.zeros((9, 4))
        np.add.at(dense, ids, g)
        assert np.array_equal(table.grad, prior + dense)

    @pytest.mark.parametrize("prior", [False, True])
    def test_backward_bit_equal_to_compact_add_at_buffer(self, prior):
        rng = np.random.default_rng(37)
        table = param(rng, 60, 16)
        table.grad = rng.standard_normal((60, 16)) if prior else None
        expected = table.grad.copy() if prior else np.zeros((60, 16))
        ids = rng.integers(0, 60, size=500)
        g = rng.standard_normal((ids.size, 16))
        with GradTape() as tape:
            tape.backward(tensor_sum(mul(gather_rows(table, ids), Tensor(g))))
        uniq, part = row_sums_add_at(ids, g)
        expected[uniq] += part
        np.testing.assert_array_equal(table.grad, expected)


class TestRowSums:
    def test_duplicate_ids_bit_equal_to_add_at(self):
        rng = np.random.default_rng(41)
        ids = rng.integers(0, 12, size=80)
        values = rng.standard_normal((80, 5))
        uniq, sums = row_sums(ids, values)
        ref_ids, ref = row_sums_add_at(ids, values)
        np.testing.assert_array_equal(uniq, ref_ids)
        np.testing.assert_array_equal(sums, ref)

    def test_weights_and_rows_match_add_at(self):
        # row j of the sum reads values[rows[j]]; repeated (id, row) pairs
        # are separate entries of one CSR row
        rng = np.random.default_rng(43)
        ids = rng.integers(0, 6, size=(30, 4))
        values = rng.standard_normal((30, 7))
        rows = np.repeat(np.arange(30), 4)
        weights = rng.standard_normal((30, 4))
        uniq, sums = row_sums(ids, values, rows=rows, weights=weights)
        ref_ids, ref = row_sums_add_at(ids, values, rows=rows, weights=weights)
        np.testing.assert_array_equal(uniq, ref_ids)
        assert np.abs(sums - ref).max() <= 1e-12

    def test_single_id(self):
        values = np.arange(12.0).reshape(4, 3)
        uniq, sums = row_sums([5, 5, 5, 5], values, weights=[1.0, -2.0, 0.5, 0.0])
        np.testing.assert_array_equal(uniq, [5])
        np.testing.assert_array_equal(sums, [[-3.0, -3.5, -4.0]])

    def test_empty_ids(self):
        uniq, sums = row_sums([], np.zeros((0, 3)))
        assert uniq.shape == (0,) and sums.shape == (0, 3)


class TestBceLoss:
    def test_confident_correct_is_near_zero(self):
        pred = Tensor(np.full(5, 1.0 - 1e-12))
        loss = bce_loss(pred, np.ones(5))
        assert 0.0 <= float(loss.data) < 1e-6

    def test_half_probability(self):
        loss = bce_loss(Tensor([0.5]), np.array([1.0]))
        np.testing.assert_allclose(float(loss.data), np.log(2.0), rtol=1e-12)

    def test_rejects_non_binary_gold(self):
        with pytest.raises(ValueError):
            bce_loss(Tensor([0.5]), np.array([0.3]))

    def test_gradient(self):
        rng = np.random.default_rng(29)
        pred = Tensor(rng.uniform(0.05, 0.95, 10), requires_grad=True)
        gold = (rng.random(10) < 0.4).astype(float)
        report = grad_check(lambda p: bce_loss(p, gold), [pred], tol=1e-6)
        assert report.passed, report

    def test_nonnegative(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            pred = Tensor(rng.uniform(1e-9, 1 - 1e-9, 8))
            gold = (rng.random(8) < 0.5).astype(float)
            assert float(bce_loss(pred, gold).data) >= 0.0


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with GradTape() as tape:
            tape.backward(tensor_sum(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_square_at_three(self):
        x = Tensor(3.0, requires_grad=True)
        with GradTape() as tape:
            tape.backward(mul(x, x))
        np.testing.assert_allclose(x.grad, 6.0)

    def test_fanout_accumulates_both_contributions(self):
        rng = np.random.default_rng(37)
        x = param(rng, 3, 3)

        def op(t):
            branch = relu(t)
            return add(matmul(branch, branch), mul(branch, 2.0))

        report = grad_check(op, [x], tol=1e-4)
        assert report.passed, report

    def test_backward_twice_raises(self):
        x = Tensor(2.0, requires_grad=True)
        with GradTape() as tape:
            loss = mul(x, x)
            tape.backward(loss)
            with pytest.raises(GradTapeError):
                tape.backward(loss)
            tape.reset()

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with GradTape() as tape:
            y = mul(x, 2.0)
            with pytest.raises(ValueError):
                tape.backward(y)


class TestStructuralOps:
    def test_concat_and_gradients(self):
        rng = np.random.default_rng(41)
        a = param(rng, 2, 3)
        b = param(rng, 4, 3)
        out = concat([a, b], axis=0)
        assert out.shape == (6, 3)
        report = grad_check(lambda u, v: concat([u, v], axis=0), [a, b], tol=1e-6)
        assert report.passed, report

    def test_split_columns_values_and_gradients(self):
        rng = np.random.default_rng(42)
        x = param(rng, 4, 5)
        left, right = split_columns(x, 2)
        np.testing.assert_array_equal(left.data, x.data[:, :2])
        np.testing.assert_array_equal(right.data, x.data[:, 2:])
        for half in (0, 1):
            report = grad_check(lambda t: split_columns(t, 2)[half], [x], tol=1e-6)
            assert report.passed, (half, report)

    def test_split_columns_both_halves_share_one_gradient(self):
        rng = np.random.default_rng(44)
        x = param(rng, 3, 4)
        report = grad_check(lambda t: concat(split_columns(t, 3)[::-1], axis=1), [x], tol=1e-6)
        assert report.passed, report

    def test_split_columns_bad_position(self):
        x = Tensor(np.zeros((3, 4)))
        for at in (0, 4):
            with pytest.raises(ShapeError):
                split_columns(x, at)
        with pytest.raises(ShapeError):
            split_columns(Tensor(np.zeros(4)), 2)

    def test_mean_axis_and_full(self):
        rng = np.random.default_rng(43)
        x = param(rng, 3, 4)
        np.testing.assert_allclose(mean(x).data, x.data.mean())
        np.testing.assert_allclose(mean(x, axis=0).data, x.data.mean(axis=0))
        report = grad_check(lambda t: mean(t, axis=1), [x], tol=1e-6)
        assert report.passed, report

    def test_transpose_reshape_gradients(self):
        rng = np.random.default_rng(47)
        x = param(rng, 3, 4)
        report = grad_check(lambda t: reshape(transpose(t), (2, 6)), [x], tol=1e-6)
        assert report.passed, report

    def test_broadcast_add_mul(self):
        rng = np.random.default_rng(53)
        a = param(rng, 4, 3)
        col = param(rng, 4, 1)
        report = grad_check(lambda u, v: mul(add(u, v), v), [a, col], tol=1e-6)
        assert report.passed, report


class TestGradCheckHarness:
    def test_detects_wrong_gradient(self):
        """A deliberately broken op must fail the finite-difference check."""
        from xmtc.tensor import _make, _accumulate

        def bad_square(x):
            def bwd(g):
                _accumulate(x, g * 3.0 * x.data)  # wrong: should be 2x

            return _make(x.data * x.data, (x,), bwd)

        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        report = grad_check(bad_square, [x], tol=1e-4)
        assert not report.passed

    def test_matches_independent_numeric_gradient(self):
        """grad_check's verdict agrees with a hand-rolled reference."""
        rng = np.random.default_rng(59)
        data = rng.standard_normal((3, 3))
        x = Tensor(data.copy(), requires_grad=True)
        with GradTape() as tape:
            loss = tensor_sum(mul(tanh(x), x))
            tape.backward(loss)

        ref = numeric_gradient(lambda arr: float(np.sum(np.tanh(arr) * arr)), data.copy())
        np.testing.assert_allclose(x.grad, ref, rtol=1e-5, atol=1e-8)


class TestFiniteness:
    def test_finite_inputs_finite_outputs(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            x = Tensor(rng.standard_normal((4, 4)) * 50)
            for out in (relu(x), tanh(x), sigmoid(x), softmax(x, axis=1)):
                assert np.isfinite(out.data).all()
