"""Unit tests for the tensor/autodiff core."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from xmtc.errors import GradTapeError, ShapeError
from xmtc.tensor import (
    GradTape,
    Tensor,
    add,
    attend,
    bce_loss,
    concat,
    dilated_block,
    dropout,
    gather_rows,
    logistic,
    matmul,
    mean,
    mul,
    relu,
    reshape,
    row_sums,
    same_padding,
    sigmoid,
    spmm,
)

from oracles import (
    conv1d_dilated,
    conv1d_keeping_padded,
    four_node_attention,
    grad_check,
    mul_dropout,
    naive_conv1d,
    numeric_gradient,
    relu_dropout,
    row_sums_add_at,
    split_columns,
    tensor_sum,
    traced,
)


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
    """``tensor.conv_product`` and ``tensor.conv_backward`` through the
    per-level convolution node of ``oracles``."""

    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((6, 3)))
        filt = np.zeros((1, 3, 3))
        filt[0] = np.eye(3)
        out = conv1d_dilated(x, Tensor(filt), dilation=1)
        np.testing.assert_array_equal(out.data, x.data)

    def test_paper_padding_formula(self):
        assert same_padding(9, 4) == 16

    def test_small_case_matches_sliding_window_oracle(self):
        # x=[1,2,3,4], K=3, r=2, so 2 zeros of padding, all-ones filter.
        # Expected values were computed with the naive oracle and frozen here.
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        filt = np.ones((3, 1, 1))
        out = conv1d_dilated(Tensor(x), Tensor(filt), dilation=2)
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
            out = conv1d_dilated(Tensor(x), Tensor(f), dilation=r)
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
                    out = conv1d_dilated(x, f, dilation=r)
                    assert out.shape == (n, 2)

    def test_gradients(self):
        rng = np.random.default_rng(5)
        x = param(rng, 7, 3)
        f = param(rng, 3, 3, 2)
        report = grad_check(
            lambda x_, f_: conv1d_dilated(x_, f_, dilation=2), [x, f], tol=1e-6
        )
        assert report.passed, report

    def test_tape_keeps_no_window_buffer(self):
        """Under a tape the conv holds its output and nothing of size n:
        neither the [n, K*d] window buffer nor the padded input, which
        backward rebuilds from the input it holds as a parent."""
        n, d, k = 400, 16, 9
        rng = np.random.default_rng(6)
        x = param(rng, n, d)
        f = param(rng, k, d, d)
        with GradTape():
            out, held, _ = traced(lambda: conv1d_dilated(x, f, dilation=1))
        assert out.shape == (n, d)
        assert held <= out.data.nbytes + 16 * 1024, (held, out.data.nbytes)


class TestDilatedBlock:
    """The encoder block as one node: its checks, and its output's rebuild.
    Its bits against the per-op blocks and its memory are pinned in
    ``tests/test_rebuild.py``, its values in ``tests/test_encoder.py``."""

    @staticmethod
    def _filters(k=3, d=2, c=3, levels=1):
        return Tensor(np.zeros((k, d, 2 * c))), [Tensor(np.zeros((k, c, c)))] * levels

    def test_bad_rates(self):
        x = Tensor(np.zeros((4, 2)))
        fused, levels = self._filters()
        for rates in [(1, 0), (1,), (1, 2, 3), (1, 1.5)]:
            with pytest.raises(ValueError):
                dilated_block(x, fused, levels, rates)

    @pytest.mark.parametrize("x_shape, fused_shape, level_shape", [
        ((5, 2), (4, 2, 6), (3, 3, 3)),
        ((5, 2), (3, 2, 6), (2, 3, 3)),
        ((0, 2), (3, 2, 6), (3, 3, 3)),
        ((5,), (3, 2, 6), (3, 3, 3)),
        ((5, 2), (3, 1, 6), (3, 3, 3)),
        ((5, 2), (3, 2, 5), (3, 3, 3)),
        ((5, 2), (3, 2, 6), (3, 3, 2)),
        ((5, 2), (3, 2, 6), (3, 2, 3)),
    ], ids=["even_k", "even_level_k", "empty_x", "x_1d", "d_in_mismatch", "odd_pair",
            "level_d_out", "level_d_in"])
    def test_shape_errors(self, x_shape, fused_shape, level_shape):
        with pytest.raises(ShapeError):
            dilated_block(Tensor(np.zeros(x_shape)), Tensor(np.zeros(fused_shape)),
                          [Tensor(np.zeros(level_shape))], (1, 2))

    def test_mask_shape_must_match(self):
        fused, levels = self._filters()
        with pytest.raises(ShapeError):
            dilated_block(Tensor(np.ones((4, 2))), fused, levels, (1, 2),
                          np.ones((4, 2), dtype=bool), 2.0)

    def test_rebuild_re_makes_every_bit(self):
        """One width-1 filter that copies the input into both branches and
        no later level, so the pre-activation is 2x: the output holds NaN,
        inf, a subnormal and zeros of either sign, and the rebuild re-makes
        each."""
        rng = np.random.default_rng(22)
        d = 6
        eye = np.eye(d)[None]
        x = Tensor(rng.standard_normal((50, d)), requires_grad=True)
        x.data[rng.random(x.shape) < 0.2] = -0.0
        x.data[[0, 1, 2], [0, 1, 2]] = [np.nan, np.inf, 1e-320]
        keep = rng.random(x.shape) >= 0.3
        keep[[1, 2], [1, 2]] = True
        with GradTape(), np.errstate(invalid="ignore"):
            out = dilated_block(x, Tensor(np.concatenate([eye, eye], axis=2), requires_grad=True),
                                [], (1,), keep, 1.0 / 0.7)
        assert np.isnan(out.data[0, 0]) and np.isinf(out.data[1, 1])
        assert 0.0 < out.data[2, 2] < np.finfo(float).tiny
        rebuilt = out.rebuild()
        assert rebuilt.shape == out.shape and rebuilt.flags.c_contiguous
        assert rebuilt.tobytes() == out.data.tobytes()


class TestFreshGradient:
    """A cell that holds no gradient gets ``g + 0.0`` in one pass, with the
    bits of ``zeros + g``."""

    @staticmethod
    def _awkward(rng, shape):
        g = rng.standard_normal(shape)
        flat = g.reshape(-1)
        flat[:8] = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, np.nan, -np.nan]
        flat[8:10] = np.array([0x7FF8_0000_0000_00AB, 0xFFF0_0000_0000_0001],
                              dtype=np.uint64).view(np.float64)  # quiet and signalling payloads
        return g

    @pytest.mark.parametrize("g_shape", [(4, 5), (1, 5), (5,), ()], ids=str)
    def test_bits_of_zeros_plus_g(self, g_shape):
        from xmtc.tensor import GradCell, _accumulate, _fresh_grad

        rng = np.random.default_rng(71)
        g = self._awkward(rng, (4, 5))[tuple(slice(0, n) for n in g_shape)] if g_shape else (
            np.float64(-0.0))
        with np.errstate(invalid="ignore"):
            want = np.zeros((4, 5))
            want += g
            cell = GradCell(True, (4, 5))
            _accumulate(cell, g)
        assert cell.grad.tobytes() == want.tobytes()
        assert not np.shares_memory(cell.grad, g)
        if g_shape == (4, 5):
            with np.errstate(invalid="ignore"):
                assert _fresh_grad(g).tobytes() == want.tobytes()


class TestMeanGradient:
    def test_broadcast_bits_of_the_ones_product(self):
        """``mean(x, axis)``'s backward adds a broadcast ``g / denom``; the
        bits are those of the old ``g / denom * ones`` product."""
        rng = np.random.default_rng(72)
        for axis, shape in [(0, (7, 3)), (1, (7, 3)), (0, (1, 4))]:
            x = param(rng, *shape)
            probe = rng.standard_normal(np.delete(shape, axis))
            probe[0] = -0.0
            with GradTape() as tape:
                tape.backward(tensor_sum(mul(mean(x, axis=axis), Tensor(probe))))
            g = np.expand_dims(probe * 1.0, axis)  # the gradient mul passes back
            want = np.zeros(shape)
            want += g / shape[axis] * np.ones(shape)
            assert x.grad.tobytes() == want.tobytes(), axis


class TestConvBitEqual:
    """The conv that keeps neither its padded input nor its window buffer
    must be bit-equal to the one that keeps the padded input, forward and
    backward."""

    @pytest.mark.parametrize("k", [1, 3, 9])
    @pytest.mark.parametrize("rates", [(1, 2, 4), (2, 5, 9)])
    @pytest.mark.parametrize("n", [1, 7, 200])
    def test_bit_equal_to_conv_keeping_padded(self, k, rates, n):
        rng = np.random.default_rng(k * 1000 + rates[0] * 100 + n)
        x, f = param(rng, n, 4), param(rng, k, 4, 5)
        for rate in rates:
            probe = Tensor(rng.standard_normal((n, 5)))

            def run(out_of):
                x.zero_grad()
                f.zero_grad()
                with GradTape() as tape:
                    out = out_of(x, f)
                    tape.backward(tensor_sum(mul(out, probe)))
                return out.data, x.grad, f.grad

            got = run(lambda x_, f_: conv1d_dilated(x_, f_, rate))
            want = run(lambda x_, f_: conv1d_keeping_padded(x_, f_, rate, same_padding(k, rate)))
            for name, a, b in zip(["out", "x", "f"], got, want):
                assert a.tobytes() == b.tobytes(), (name, rate)


class TestDropout:
    def test_bit_equal_to_float_mask_product(self):
        """The bool mask times the scale, formed when the node runs, equals
        the float keep mask of the ``mul`` form, forward and backward."""
        rng = np.random.default_rng(17)
        for p in (0.2, 0.5, 0.9):
            x = param(rng, 30, 7)
            probe = rng.standard_normal((30, 7))
            results = []
            for op in (lambda x_, r: dropout(x_, r.random(x_.shape) >= p, 1.0 / (1.0 - p)),
                       lambda x_, r: mul_dropout(x_, p, r)):
                x.zero_grad()
                with GradTape() as tape:
                    out = op(x, np.random.default_rng(3))
                    tape.backward(tensor_sum(mul(out, Tensor(probe))))
                results.append((out.data.tobytes(), x.grad.tobytes()))
            assert results[0] == results[1], p

    def test_tape_keeps_a_bool_mask(self):
        """Under a tape the node holds its output and its mask bit-packed,
        one bit per element: not a float keep array, nor a byte per
        element."""
        n, d = 400, 16
        rng = np.random.default_rng(18)
        x = param(rng, n, d)
        with GradTape():
            out, held, _ = traced(lambda: dropout(x, rng.random(x.shape) >= 0.2, 1.25))
        assert held <= out.data.nbytes + n * d // 8 + 4 * 1024, (held, out.data.nbytes)

    def test_mask_shape_must_match(self):
        with pytest.raises(ShapeError):
            dropout(Tensor(np.ones((3, 2))), np.ones((2, 3), dtype=bool), 2.0)


def _probed(op, inputs, probe):
    """Output bytes, then each input's gradient bytes, of ``op(*inputs)``
    under the loss ``sum(out * probe)``."""
    for t in inputs:
        t.zero_grad()
    with GradTape() as tape:
        out = op(*inputs)
        tape.backward(tensor_sum(mul(out, Tensor(probe))))
    return [out.data.tobytes()] + [t.grad.tobytes() for t in inputs]


class TestReluDropout:
    """One node for relu then dropout, bit-equal to the pair, whose output
    is re-made from its nonzeros."""

    @staticmethod
    def _pre_activations(rng, n, d):
        """Normal values with a share of exact zeros of both signs."""
        x = rng.standard_normal((n, d))
        x[rng.random((n, d)) < 0.2] = -0.0
        x[rng.random((n, d)) < 0.1] = 0.0
        return x

    @pytest.mark.parametrize("p", [0.0, 0.2, 0.5])
    def test_bit_equal_to_relu_then_dropout(self, p):
        rng = np.random.default_rng(21)
        x = Tensor(self._pre_activations(rng, 60, 7), requires_grad=True)
        keep = rng.random(x.shape) >= p if p else np.ones(x.shape, dtype=bool)
        probe = rng.standard_normal(x.shape)
        probe[rng.random(x.shape) < 0.1] = -0.0
        got = _probed(lambda x_: relu_dropout(x_, keep, 1.0 / (1.0 - p)), [x], probe)
        pair = (lambda x_: dropout(relu(x_), keep, 1.0 / (1.0 - p))) if p else relu
        assert got == _probed(pair, [x], probe)

    def test_rebuild_re_makes_every_bit(self):
        rng = np.random.default_rng(22)
        x = Tensor(self._pre_activations(rng, 50, 6), requires_grad=True)
        x.data[0, :3] = [np.nan, np.inf, 1e-320]
        with GradTape():
            out = relu_dropout(x, rng.random(x.shape) >= 0.3, 1.0 / 0.7)
        rebuilt = out.rebuild()
        assert rebuilt.shape == out.shape and rebuilt.flags.c_contiguous
        assert rebuilt.tobytes() == out.data.tobytes()

    def test_gradient(self):
        rng = np.random.default_rng(23)
        x = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        keep = rng.random(x.shape) >= 0.3
        report = grad_check(lambda x_: relu_dropout(x_, keep, 1.0 / 0.7), [x], tol=1e-6)
        assert report.passed, report

    def test_tape_keeps_the_nonzeros_and_one_packed_mask(self):
        """Under a tape the node holds, beyond its output, the output's
        nonzeros and n*d/8 mask bytes: not the relu's bool mask, nor the
        dropout's, nor a second dense array."""
        n, d = 400, 16
        rng = np.random.default_rng(24)
        x = Tensor(rng.standard_normal((n, d)), requires_grad=True)
        with GradTape():
            out, held, _ = traced(lambda: relu_dropout(x, rng.random(x.shape) >= 0.2, 1.25))
        nonzeros = np.count_nonzero(out.data)
        assert 0.3 < nonzeros / out.size < 0.5
        assert held <= out.data.nbytes + 8 * nonzeros + n * d // 8 + 4 * 1024, held



class TestAttend:
    """Row-softmax attention as one node that re-derives its weights in
    backward, bit-equal to the four nodes it replaces."""

    @pytest.mark.parametrize("k, n", [(1, 1), (3, 1), (5, 40), (12, 200)])
    @pytest.mark.parametrize("grads", ["both", "queries", "keys"])
    def test_bit_equal_to_four_nodes(self, k, n, grads):
        rng = np.random.default_rng(k * 1000 + n)
        q = Tensor(rng.standard_normal((k, 6)), requires_grad=grads != "keys")
        x = Tensor(rng.standard_normal((n, 6)), requires_grad=grads != "queries")
        q.data[0] = 0.0  # a masked label's zero row: uniform weights
        probe = rng.standard_normal((k, 6))
        inputs = [t for t in (q, x) if t.requires_grad]

        def run(attention):
            return _probed(lambda *_: attention(q, x), inputs, probe)

        assert run(lambda q_, x_: attend(q_, x_)[1]) == run(
            lambda q_, x_: four_node_attention(x_, q_).context)
        alpha, _ = attend(q, x)
        assert alpha.tobytes() == four_node_attention(x, q).alpha.tobytes()

    def test_keys_held_as_their_rebuild(self):
        """Over rebuildable keys (a relu_dropout output) the node holds the
        rebuild, not the dense keys, and the bits stay the four nodes'."""
        rng = np.random.default_rng(25)
        pre = Tensor(rng.standard_normal((30, 5)), requires_grad=True)
        q = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        keep = rng.random(pre.shape) >= 0.2
        probe = rng.standard_normal((4, 5))

        def run(attention):
            return _probed(lambda p_, q_: attention(relu_dropout(p_, keep, 1.25), q_),
                           [pre, q], probe)

        assert run(lambda x_, q_: attend(q_, x_)[1]) == run(
            lambda x_, q_: four_node_attention(x_, q_).context)
        with GradTape() as tape:
            x = relu_dropout(pre, keep, 1.25)
            attend(q, x)
            _, bwd = tape.nodes[-1]
        held = [c.cell_contents for c in bwd.__closure__]
        assert any(h is x.rebuild for h in held)
        assert not any(isinstance(h, np.ndarray) and h.shape == x.shape for h in held)

    def test_gradient(self):
        rng = np.random.default_rng(26)
        q = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        x = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        report = grad_check(lambda q_, x_: attend(q_, x_)[1], [q, x], tol=1e-6)
        assert report.passed, report

    def test_equal_large_scores_give_equal_weights(self):
        """The softmax subtracts each row's largest score, so scores of 1000
        neither overflow nor lose their equality."""
        alpha, context = attend(Tensor([[1000.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(alpha, [[0.5, 0.5]])
        np.testing.assert_array_equal(context.data, [[1.0]])

    def test_shapes_checked(self):
        with pytest.raises(ShapeError):
            attend(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
        with pytest.raises(ShapeError):
            attend(Tensor(np.ones((2, 3))), Tensor(np.ones((0, 3))))


class TestActivations:
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

    @pytest.mark.parametrize("fn", [relu, sigmoid])
    def test_unary_gradients(self, fn):
        rng = np.random.default_rng(17)
        x = Tensor(rng.standard_normal((4, 3)) + 0.1, requires_grad=True)
        report = grad_check(fn, [x], tol=1e-4)
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

    def test_mean_axis_and_full(self):
        rng = np.random.default_rng(43)
        x = param(rng, 3, 4)
        np.testing.assert_allclose(mean(x).data, x.data.mean())
        np.testing.assert_allclose(mean(x, axis=0).data, x.data.mean(axis=0))
        report = grad_check(lambda t: mean(t, axis=1), [x], tol=1e-6)
        assert report.passed, report

    def test_reshape_gradient(self):
        rng = np.random.default_rng(47)
        x = param(rng, 3, 4)
        report = grad_check(lambda t: reshape(t, (2, 6)), [x], tol=1e-6)
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
                _accumulate(x.cell, g * 3.0 * x.data)  # wrong: should be 2x

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
            loss = tensor_sum(mul(sigmoid(x), x))
            tape.backward(loss)

        ref = numeric_gradient(lambda arr: float(np.sum(arr / (1.0 + np.exp(-arr)))), data.copy())
        np.testing.assert_allclose(x.grad, ref, rtol=1e-5, atol=1e-8)


class TestFiniteness:
    def test_finite_inputs_finite_outputs(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            x = Tensor(rng.standard_normal((4, 4)) * 50)
            alpha, context = attend(x, x)
            for out in (relu(x).data, sigmoid(x).data, alpha, context.data):
                assert np.isfinite(out).all()
