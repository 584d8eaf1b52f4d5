"""Document encoder: stacked multi-level dilated residual convolution blocks.

Each block runs two parallel branches over the embedded sequence: a chain of
dilated convolutions (one per dilation rate, no activation between levels)
and a single residual convolution at the first rate.  Level 0 and the
residual read the same windows, so they are one [K, d, 2d] filter, level
0's output columns first, and one product whose columns are the chain
input and the residual.  The branch outputs are summed and passed through
relu, then dropout in training.  A block is one ``tensor.dilated_block``
node that runs on plain arrays and keeps only its input's rebuild, the
filters and its output's nonzeros with one bit-packed mask: per document
the tape holds about 0.4 of an [n, d] array per block.  A short
document's block also keeps its chain inputs, m [n, d] arrays at m + 1
rates, while they take at most ``tensor.KEEP_CHAIN_BYTES`` (1 MiB: up to
655 tokens at d = 100 and rates (1, 2, 4)), so its backward re-makes no
product.  A longer document's block pays in backward, which re-makes the
fused product and the chain inputs: at rates (1, 2, 4) three of the four
level-sized products the forward ran (the fused one counts twice), per
block and document.  Every convolution is length-preserving,
so the output keeps the input's sequence length at every level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .tensor import Tensor, dilated_block, dropout, gather_rows


@dataclass
class EncoderConfig:
    kernel_size: int = 9
    rates: tuple[int, ...] = (1, 2, 4)
    num_blocks: int = 1
    dropout: float = 0.2

    def __post_init__(self):
        # messages name the configuration file keys
        self.rates = tuple(int(r) for r in self.rates)
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ConfigError("filter_size must be a positive odd number for "
                              f"length-preserving padding, got {self.kernel_size}")
        if not self.rates or any(r < 1 for r in self.rates):
            raise ConfigError(f"dilation_rates must be positive, got {self.rates}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.num_blocks < 0:
            raise ConfigError(f"num_blocks must be nonnegative, got {self.num_blocks}")


@dataclass
class BlockParams:
    """Filters for one dilated-residual block."""

    level0_residual: Tensor  # [K, d, 2d]: level 0's columns, then the residual's
    levels: list[Tensor] = field(default_factory=list)  # [K, d, d] per later rate


def init_block_params(
    config: EncoderConfig, dim: int, rng: np.random.Generator, prefix: str = "block0"
) -> BlockParams:
    """Draws level 0's filter, the later levels' and the residual's, in
    that order; the first and the last fill ``level0_residual``."""
    k = config.kernel_size
    limit = np.sqrt(6.0 / (k * dim + k * dim))

    def draw():
        return rng.uniform(-limit, limit, (k, dim, dim))

    fused = np.empty((k, dim, 2 * dim))
    fused[:, :, :dim] = draw()
    levels = [Tensor(draw(), requires_grad=True, name=f"{prefix}.level{i}")
              for i in range(1, len(config.rates))]
    fused[:, :, dim:] = draw()
    return BlockParams(
        level0_residual=Tensor(fused, requires_grad=True, name=f"{prefix}.level0_residual"),
        levels=levels,
    )


def _keep(shape: tuple[int, ...], p: float, rng: np.random.Generator):
    """Dropout's keep mask, drawn from ``rng``, and scale."""
    return rng.random(shape) >= p, 1.0 / (1.0 - p)


def residual_block(
    embedded: Tensor,
    params: BlockParams,
    config: EncoderConfig,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """One block, relu(main dilated chain + residual convolution), then
    dropout in training: one ``dilated_block`` node, whose mask is drawn
    here (none at dropout 0)."""
    keep, scale = None, 1.0
    if train and config.dropout > 0.0:
        shape = (embedded.shape[0], params.level0_residual.shape[2] // 2)
        keep, scale = _keep(shape, config.dropout, rng)
    return dilated_block(embedded, params.level0_residual, params.levels, config.rates,
                         keep, scale)


def encode(
    token_ids,
    embedding: Tensor,
    blocks: list[BlockParams],
    config: EncoderConfig,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Embed a token id sequence and run it through the block stack."""
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.size == 0:
        raise DataError("cannot encode an empty token sequence")
    if train and config.dropout > 0.0 and rng is None:
        raise ValueError("training-mode encode needs an rng for dropout")
    h = gather_rows(embedding, ids)
    if train and config.dropout > 0.0:
        h = dropout(h, *_keep(h.shape, config.dropout, rng))
    for params in blocks:
        h = residual_block(h, params, config, train=train, rng=rng)
    return h
