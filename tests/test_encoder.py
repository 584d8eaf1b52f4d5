"""Tests for the dilated residual document encoder."""

import numpy as np
import pytest

from xmtc.encoder import (
    BlockParams,
    EncoderConfig,
    dilated_stack,
    encode,
    init_block_params,
    residual_block,
)
from xmtc.errors import ConfigError, DataError
from xmtc.tensor import GradTape, Tensor, grad_check, same_padding, tensor_sum

from oracles import naive_conv1d


def delta_filter(k, dim):
    filt = np.zeros((k, dim, dim))
    filt[(k - 1) // 2] = np.eye(dim)
    return filt


def delta_block(config, dim):
    return BlockParams(
        level_filters=[Tensor(delta_filter(config.kernel_size, dim)) for _ in config.rates],
        residual_filter=Tensor(np.zeros((config.kernel_size, dim, dim))),
    )


class TestEncoderConfig:
    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            EncoderConfig(kernel_size=4)

    def test_bad_rates(self):
        with pytest.raises(ConfigError):
            EncoderConfig(rates=())
        with pytest.raises(ConfigError):
            EncoderConfig(rates=(1, 0))

    def test_bad_dropout(self):
        with pytest.raises(ConfigError):
            EncoderConfig(dropout=1.0)

    def test_unknown_activation(self):
        with pytest.raises(ConfigError):
            EncoderConfig(activation="swish")

    def test_receptive_field_default(self):
        assert EncoderConfig().receptive_field() == 57  # 1 + 8 + 16 + 32

    def test_padding_formula(self):
        cfg = EncoderConfig()
        assert same_padding(cfg.kernel_size, 4) == 16


class TestDilatedStack:
    def test_delta_kernels_identity(self):
        rng = np.random.default_rng(0)
        cfg = EncoderConfig(kernel_size=5, rates=(1, 2, 4), dropout=0.0)
        e = Tensor(rng.standard_normal((11, 3)))
        block = delta_block(cfg, 3)
        out = dilated_stack(e, block, cfg)
        np.testing.assert_allclose(out.data, e.data, atol=1e-12)

    def test_matches_chained_naive_convolutions(self):
        rng = np.random.default_rng(1)
        cfg = EncoderConfig(kernel_size=3, rates=(1, 3), dropout=0.0)
        e = rng.standard_normal((9, 2))
        block = BlockParams(
            level_filters=[Tensor(rng.standard_normal((3, 2, 2))) for _ in cfg.rates],
            residual_filter=Tensor(rng.standard_normal((3, 2, 2))),
        )
        out = dilated_stack(Tensor(e), block, cfg)
        expect = e
        for filt, rate in zip(block.level_filters, cfg.rates):
            expect = naive_conv1d(expect, filt.data, rate,
                                  same_padding(cfg.kernel_size, rate))
        np.testing.assert_allclose(out.data, expect, atol=1e-12)


class TestResidualBlock:
    def test_residual_identity_path(self):
        rng = np.random.default_rng(2)
        cfg = EncoderConfig(kernel_size=5, rates=(1, 2), dropout=0.0)
        e = Tensor(np.abs(rng.standard_normal((8, 3))))
        block = BlockParams(
            level_filters=[Tensor(np.zeros((5, 3, 3))) for _ in cfg.rates],
            residual_filter=Tensor(delta_filter(5, 3)),
        )
        out = residual_block(e, block, cfg)
        np.testing.assert_allclose(out.data, e.data, atol=1e-12)

    def test_zero_input_zero_output(self):
        rng = np.random.default_rng(3)
        cfg = EncoderConfig(kernel_size=3, rates=(1,), dropout=0.0)
        block = init_block_params(cfg, 4, rng)
        out = residual_block(Tensor(np.zeros((6, 4))), block, cfg)
        np.testing.assert_array_equal(out.data, np.zeros((6, 4)))

    def test_matches_brute_force_recomputation(self):
        rng = np.random.default_rng(4)
        cfg = EncoderConfig(kernel_size=9, rates=(1, 2, 4), dropout=0.0)
        dim = 5
        e = rng.standard_normal((30, dim))
        block = init_block_params(cfg, dim, rng)
        out = residual_block(Tensor(e), block, cfg)

        main = e
        for filt, rate in zip(block.level_filters, cfg.rates):
            main = naive_conv1d(main, filt.data, rate,
                                same_padding(cfg.kernel_size, rate))
        residual = naive_conv1d(e, block.residual_filter.data, cfg.rates[0],
                                same_padding(cfg.kernel_size, cfg.rates[0]))
        np.testing.assert_allclose(out.data, np.maximum(main + residual, 0.0), atol=1e-12)

    def test_single_position_sequence(self):
        rng = np.random.default_rng(5)
        cfg = EncoderConfig()
        block = init_block_params(cfg, 4, rng)
        out = residual_block(Tensor(rng.standard_normal((1, 4))), block, cfg)
        assert out.shape == (1, 4)
        assert np.isfinite(out.data).all()

    def test_shape_preserved_everywhere(self):
        rng = np.random.default_rng(6)
        for k in (3, 5, 9):
            for rates in ((1, 2, 4), (2, 5, 9)):
                cfg = EncoderConfig(kernel_size=k, rates=rates, dropout=0.0)
                block = init_block_params(cfg, 3, rng)
                for n in (1, 7, 40):
                    out = residual_block(Tensor(rng.standard_normal((n, 3))), block, cfg)
                    assert out.shape == (n, 3)


class TestLocality:
    def test_receptive_field_bounds_gradient_support(self):
        """Perturbations outside the analytic receptive field cannot reach
        the center output; some position inside it does."""
        rng = np.random.default_rng(7)
        cfg = EncoderConfig(kernel_size=9, rates=(1, 2, 4), dropout=0.0)
        dim = 2
        n = 130
        radius = (cfg.receptive_field() - 1) // 2  # 28
        block = init_block_params(cfg, dim, rng)
        e = Tensor(rng.standard_normal((n, dim)), requires_grad=True)
        center = n // 2
        with GradTape() as tape:
            out = residual_block(e, block, cfg)
            tape.backward(_row(out, center))
        row_norms = np.linalg.norm(e.grad, axis=1)
        assert row_norms[center - radius - 2] == 0.0
        assert row_norms[center + radius + 2] == 0.0
        # a probe 60 positions away is far outside the 57-wide field
        assert row_norms[center + 60] == 0.0
        assert row_norms[center - 60] == 0.0
        inside = row_norms[center - radius : center + radius + 1]
        assert inside.max() > 0.0

    def test_translation_covariance_interior(self):
        """Pre-activation outputs shift with the input on interior positions."""
        rng = np.random.default_rng(8)
        cfg = EncoderConfig(kernel_size=5, rates=(1, 2), dropout=0.0)
        dim = 3
        n, shift = 40, 6
        radius = (cfg.receptive_field() - 1) // 2
        block = init_block_params(cfg, dim, rng)
        x = rng.standard_normal((n, dim))
        prefix = rng.standard_normal((shift, dim))
        shifted = np.concatenate([prefix, x], axis=0)

        def preact(arr):
            e = Tensor(arr)
            main = dilated_stack(e, block, cfg)
            from xmtc.tensor import add, conv1d_dilated

            res = conv1d_dilated(e, block.residual_filter, cfg.rates[0],
                                 same_padding(cfg.kernel_size, cfg.rates[0]))
            return add(main, res).data

        base = preact(x)
        moved = preact(shifted)
        interior = slice(radius, n - radius)
        np.testing.assert_allclose(moved[shift:][interior], base[interior], atol=1e-10)


def _row(t, i):
    """Sum of one output row as a scalar tape target."""
    from xmtc.tensor import gather_rows, tensor_sum

    return tensor_sum(gather_rows(t, [i]))


class TestEncode:
    def _table(self, rng, v=12, dim=4):
        mat = rng.standard_normal((v, dim))
        mat[0] = 0.0
        return Tensor(mat, requires_grad=True, name="embedding")

    def test_zero_blocks_is_embedding_lookup(self):
        rng = np.random.default_rng(9)
        table = self._table(rng)
        cfg = EncoderConfig(num_blocks=0, dropout=0.0)
        out = encode([3, 5, 7], table, [], cfg)
        np.testing.assert_array_equal(out.data, table.data[[3, 5, 7]])

    def test_empty_tokens_rejected(self):
        rng = np.random.default_rng(10)
        cfg = EncoderConfig()
        with pytest.raises(DataError):
            encode([], self._table(rng), [init_block_params(cfg, 4, rng)], cfg)

    def test_eval_mode_deterministic(self):
        rng = np.random.default_rng(11)
        cfg = EncoderConfig(kernel_size=3, rates=(1, 2), dropout=0.5)
        table = self._table(rng)
        block = init_block_params(cfg, 4, rng)
        a = encode([2, 3, 4, 5], table, [block], cfg)
        b = encode([2, 3, 4, 5], table, [block], cfg)
        np.testing.assert_array_equal(a.data, b.data)

    def test_train_equals_eval_when_dropout_zero(self):
        rng = np.random.default_rng(12)
        cfg = EncoderConfig(kernel_size=3, rates=(1,), dropout=0.0)
        table = self._table(rng)
        block = init_block_params(cfg, 4, rng)
        tokens = [2, 3, 4]
        a = encode(tokens, table, [block], cfg, train=True, rng=np.random.default_rng(0))
        b = encode(tokens, table, [block], cfg, train=False)
        np.testing.assert_array_equal(a.data, b.data)

    def test_dropout_scales_unbiased(self):
        rng = np.random.default_rng(13)
        cfg = EncoderConfig(num_blocks=0, dropout=0.5)
        table = self._table(rng)
        outs = [
            encode([4] * 200, table, [], cfg, train=True, rng=np.random.default_rng(s)).data
            for s in range(30)
        ]
        avg = np.mean(outs, axis=0).mean(axis=0)
        np.testing.assert_allclose(avg, table.data[4], atol=0.25)

    def test_full_gradient_check_on_toy(self):
        rng = np.random.default_rng(14)
        cfg = EncoderConfig(kernel_size=3, rates=(1, 2), dropout=0.0)
        dim = 3
        table = Tensor(rng.standard_normal((8, dim)), requires_grad=True)
        block = init_block_params(cfg, dim, rng)
        tokens = list(rng.integers(1, 8, size=20))

        def op(tbl, *filters):
            blk = BlockParams(level_filters=list(filters[:-1]), residual_filter=filters[-1])
            return encode(tokens, tbl, [blk], cfg)

        report = grad_check(op, [table, *block.level_filters, block.residual_filter], tol=1e-4)
        assert report.passed, report
