"""Tests for the dilated residual document encoder."""

import numpy as np
import pytest

from xmtc import tensor
from xmtc.encoder import (
    BlockParams,
    EncoderConfig,
    encode,
    init_block_params,
    residual_block,
)
from xmtc.errors import ConfigError, DataError
from xmtc.tensor import GradTape, Tensor, mul, same_padding

from oracles import (TwoFilterBlock, conv1d_dilated, dilated_stack, grad_check, naive_conv1d,
                     receptive_field, reference_encode, tensor_sum, traced, two_filter_block,
                     unfused_residual_block)


def delta_filter(k, dim):
    filt = np.zeros((k, dim, dim))
    filt[(k - 1) // 2] = np.eye(dim)
    return filt


def delta_block(config, dim):
    return TwoFilterBlock(
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

    def test_receptive_field_default(self):
        assert receptive_field(EncoderConfig()) == 57  # 1 + 8 + 16 + 32

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
        block = TwoFilterBlock(
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
            level0_residual=Tensor(np.concatenate([np.zeros((5, 3, 3)), delta_filter(5, 3)],
                                                  axis=2)),
            levels=[Tensor(np.zeros((5, 3, 3)))],
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

        two = two_filter_block(block)
        main = e
        for filt, rate in zip(two.level_filters, cfg.rates):
            main = naive_conv1d(main, filt.data, rate,
                                same_padding(cfg.kernel_size, rate))
        residual = naive_conv1d(e, two.residual_filter.data, cfg.rates[0],
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


class TestFusedBlockMatchesUnfused:
    """Level 0 and the residual share one product; the block must equal the
    unfused composition to float64 rounding.  Not bit for bit: BLAS may
    order a sum differently for a [*, 2d] product than for a [*, d] one, and
    the input gradient sums the two branches inside one product."""

    @pytest.mark.parametrize("k", [1, 3, 5, 9])
    @pytest.mark.parametrize("rates", [(1, 2, 4), (2, 5, 9)])
    @pytest.mark.parametrize("n", [1, 7, 200])
    def test_outputs_and_gradients(self, k, rates, n):
        rng = np.random.default_rng(k * 1000 + rates[0] * 100 + n)
        cfg = EncoderConfig(kernel_size=k, rates=rates, dropout=0.0)
        dim = 6
        block = init_block_params(cfg, dim, rng)
        two = two_filter_block(block)
        x = rng.standard_normal((n, dim))
        probe = rng.standard_normal((n, dim))

        def run(block_fn, blk, filters):
            e = Tensor(x, requires_grad=True)
            for f in filters:
                f.zero_grad()
            with GradTape() as tape:
                out = block_fn(e, blk, cfg)
                tape.backward(tensor_sum(mul(out, Tensor(probe))))
            return out.data, e.grad, [f.grad.copy() for f in filters]

        got = run(residual_block, block, [block.level0_residual, *block.levels])
        want = run(unfused_residual_block, two, [*two.level_filters, two.residual_filter])
        fused = np.concatenate([want[2][0], want[2][-1]], axis=2)
        for name, a, b in zip(["out", "x", "level0_residual", "level1", "level2"],
                              [got[0], got[1], *got[2]],
                              [want[0], want[1], fused, *want[2][1:-1]]):
            rel = np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)
            assert rel <= 1e-12, (name, rel)

    def test_gradient_check(self):
        rng = np.random.default_rng(15)
        cfg = EncoderConfig(kernel_size=3, rates=(1, 2, 4), dropout=0.0)
        dim = 3
        block = init_block_params(cfg, dim, rng)
        x = Tensor(rng.standard_normal((10, dim)), requires_grad=True)

        def op(x_, fused, *levels):
            return residual_block(x_, BlockParams(fused, list(levels)), cfg)

        report = grad_check(op, [x, block.level0_residual, *block.levels], tol=1e-4)
        assert report.passed, report


class TestLocality:
    def test_receptive_field_bounds_gradient_support(self):
        """Perturbations outside the analytic receptive field cannot reach
        the center output; some position inside it does."""
        rng = np.random.default_rng(7)
        cfg = EncoderConfig(kernel_size=9, rates=(1, 2, 4), dropout=0.0)
        dim = 2
        n = 130
        radius = (receptive_field(cfg) - 1) // 2  # 28
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
        radius = (receptive_field(cfg) - 1) // 2
        block = two_filter_block(init_block_params(cfg, dim, rng))
        x = rng.standard_normal((n, dim))
        prefix = rng.standard_normal((shift, dim))
        shifted = np.concatenate([prefix, x], axis=0)

        def preact(arr):
            e = Tensor(arr)
            main = dilated_stack(e, block, cfg)
            from xmtc.tensor import add

            res = conv1d_dilated(e, block.residual_filter, cfg.rates[0])
            return add(main, res).data

        base = preact(x)
        moved = preact(shifted)
        interior = slice(radius, n - radius)
        np.testing.assert_allclose(moved[shift:][interior], base[interior], atol=1e-10)


def _row(t, i):
    """Sum of one output row as a scalar tape target."""
    from xmtc.tensor import gather_rows

    return tensor_sum(gather_rows(t, [i]))


class TestLeanTape:
    """Under a tape, a block keeps no padded input or activation, each
    dropout a bool mask and level 0 with the residual one filter, never a
    stacked copy.  The arithmetic is unchanged: ``encode`` in training mode must be
    bit-equal to the reference over the two-filter layout, which keeps all
    three, output and gradients; ``level0_residual``'s gradient is level
    0's and the residual's side by side."""

    @pytest.mark.parametrize("k", [1, 3, 9])
    @pytest.mark.parametrize("rates", [(1, 2, 4), (2, 5, 9), (1,)])
    @pytest.mark.parametrize("n", [1, 7, 225, 2000])
    @pytest.mark.parametrize("num_blocks", [1, 2])
    def test_train_encode_bit_equal_to_reference(self, k, rates, n, num_blocks):
        rng = np.random.default_rng(k * 1000 + rates[-1] * 100 + n + num_blocks)
        cfg = EncoderConfig(kernel_size=k, rates=rates, num_blocks=num_blocks, dropout=0.2)
        dim = 6
        table = Tensor(rng.standard_normal((20, dim)), requires_grad=True)
        blocks = [init_block_params(cfg, dim, rng, prefix=f"block{b}") for b in range(num_blocks)]
        twos = [two_filter_block(b) for b in blocks]
        tokens = rng.integers(0, 20, size=n)
        probe = rng.standard_normal((n, dim))

        def run(encode_fn, blks):
            table.zero_grad()
            with GradTape() as tape:
                out = encode_fn(tokens, table, blks, cfg, train=True,
                                rng=np.random.default_rng(7))
                tape.backward(tensor_sum(mul(out, Tensor(probe))))
            return [out.data, table.grad]

        got = run(encode, blocks) + [f.grad for b in blocks for f in (b.level0_residual, *b.levels)]
        want = run(reference_encode, twos) + [
            g for b in twos
            for g in (np.concatenate([b.level_filters[0].grad, b.residual_filter.grad], axis=2),
                      *(f.grad for f in b.level_filters[1:]))]
        names = ["out", "embedding",
                 *(f.name for b in blocks for f in (b.level0_residual, *b.levels))]
        assert len(got) == len(want) == len(names)
        for name, a, b in zip(names, got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    @staticmethod
    def _held():
        """Bytes held after one training block at K=9, d=100, n=400, with
        its output."""
        n, d = 400, 100
        rng = np.random.default_rng(19)
        cfg = EncoderConfig(kernel_size=9, rates=(1, 2, 4), dropout=0.2)
        table = Tensor(rng.standard_normal((50, d)), requires_grad=True)
        blocks = [init_block_params(cfg, d, rng)]
        tokens = rng.integers(0, 50, size=n)
        with GradTape():
            out, held, _ = traced(lambda: encode(tokens, table, blocks, cfg, train=True,
                                                 rng=np.random.default_rng(0)))
        assert out.shape == (n, d)
        return held

    def test_tape_holds_under_two_activations_per_position(self, monkeypatch):
        """One block at K=9, d=100, n=400 in training mode, above the keep
        limit (here 0 bytes).  What stays alive is what a backward reads
        plus the returned output: the output,
        1 float64 [n, d] array, plus what the block node keeps to re-make it
        (its nonzeros, about 0.4 of an array) and two bit-packed masks, the
        embedding dropout's and the block's, about 1.45 arrays per
        position.  The caller holds the dense output here, so the compact
        node saves it only once the caller lets go (``tests/test_rebuild.py``
        bounds ``forward_doc``).  The block's input, the dropped-out
        embedding, is re-made in backward from the table and the first
        mask, and its fused product and chain inputs from that and the
        filters.  A node that holds a tensor, a padded copy, a float mask, a
        relu that keeps its input or an activation of the block's chain
        breaks the bound of 2 arrays per position: the seven-node block
        (``oracles.seven_node_block``), which keeps the dense level-1
        input, holds about 2.46."""
        monkeypatch.setattr(tensor, "KEEP_CHAIN_BYTES", 0)
        n, d = 400, 100
        held = self._held()
        assert held <= 2 * n * d * 8 + 64 * 1024, (held, held / (n * d * 8))

    def test_tape_below_the_limit_also_holds_the_chain_inputs(self):
        """The same block at the default limit keeps its two chain inputs,
        2 * n * d * 8 bytes, for backward: the bound is the one above plus
        exactly those."""
        n, d, m = 400, 100, 2
        assert m * n * d * 8 <= tensor.KEEP_CHAIN_BYTES
        held = self._held()
        assert held <= 2 * n * d * 8 + 64 * 1024 + m * n * d * 8, (held, held / (n * d * 8))


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

        def op(tbl, fused, *levels):
            return encode(tokens, tbl, [BlockParams(fused, list(levels))], cfg)

        report = grad_check(op, [table, block.level0_residual, *block.levels], tol=1e-4)
        assert report.passed, report


class TestInitialDraws:
    def test_level0_residual_holds_the_two_filter_draws(self):
        """``model_from_artifacts`` draws each block's filters as the
        two-filter layout did, from one rng after the embedding table: level
        0's, the later levels', then the residual's.  ``level0_residual`` is
        the first and the last side by side, bit for bit."""
        from xmtc import corpus, graph, model

        cfg = EncoderConfig(kernel_size=5, rates=(1, 2, 4), num_blocks=2, dropout=0.0)
        dim, labels = 4, 3
        vocab = corpus.Vocabulary([f"tok{c}" for c in "abcdef"])
        catalog = corpus.LabelCatalog([f"c{i}" for i in range(labels)], ["toka"] * labels)
        g = graph.CooccurrenceGraph(adjacency=np.eye(labels, dtype=bool), lam=1.0,
                                    pair_count=0)
        m = model.model_from_artifacts(vocab, catalog, g, dim=dim, encoder_config=cfg, seed=11)

        rng = np.random.default_rng(11)
        rng.standard_normal((len(vocab), dim))  # the embedding table
        k = cfg.kernel_size
        limit = np.sqrt(6.0 / (k * dim + k * dim))
        names = [name for name, _ in m.params.items()]
        for b in range(cfg.num_blocks):
            level0, level1, level2, residual = (rng.uniform(-limit, limit, (k, dim, dim))
                                                for _ in range(4))
            fused = m.params[f"block{b}.level0_residual"].data
            assert fused.tobytes() == np.concatenate([level0, residual], axis=2).tobytes()
            assert m.params[f"block{b}.level1"].data.tobytes() == level1.tobytes()
            assert m.params[f"block{b}.level2"].data.tobytes() == level2.tobytes()
            assert names[1 + 3 * b : 4 + 3 * b] == [f"block{b}.level0_residual",
                                                    f"block{b}.level1", f"block{b}.level2"]
