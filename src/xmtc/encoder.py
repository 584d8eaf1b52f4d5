"""Document encoder: stacked multi-level dilated residual convolution blocks.

Each block runs two parallel branches over the embedded sequence: a chain of
dilated convolutions (one per dilation rate, no activation between levels)
and a single residual convolution at the first rate.  Level 0 and the
residual read the same windows, so they are one [K, d, 2d] filter, level
0's output columns first, and one convolution whose output is split into
the chain input and the residual.  The branch outputs are summed and
passed through relu.  In training a block ends in one ``relu_dropout``
node (an all-true mask when dropout is 0), which keeps its output's
nonzeros and re-makes the output from them in backward, so the dense block
output is not kept by the tape.  Along the chain, the tape keeps the
input of every other level as an array (level 1's, the chain half of the
pair) and re-makes the levels between from it and their filters, so at
rates (1, 2, 4) a block keeps one dense [n, d] array.  Every convolution
is length-preserving, so the output keeps the input's sequence length at
every level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .tensor import (Tensor, add, conv1d_dilated, dropout, gather_rows, relu, relu_dropout,
                     split_columns)


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


def _keep(shape: tuple[int, ...], p: float, rng: np.random.Generator | None):
    """Dropout's keep mask and scale: all-true, with no draw, at p = 0."""
    keep = rng.random(shape) >= p if p > 0.0 else np.ones(shape, dtype=bool)
    return keep, 1.0 / (1.0 - p)


def residual_block(
    embedded: Tensor,
    params: BlockParams,
    config: EncoderConfig,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """One block: relu(main dilated chain + residual convolution).

    Level 0 and the residual are one convolution over ``level0_residual``,
    whose output columns split into the chain input and the residual.  In
    training, relu and dropout are one ``relu_dropout`` node.
    """
    fused = params.level0_residual
    h, residual = split_columns(conv1d_dilated(embedded, fused, config.rates[0]),
                                fused.shape[2] // 2)
    for filt, rate in zip(params.levels, config.rates[1:]):
        h = conv1d_dilated(h, filt, rate)
    pre = add(h, residual)
    if train:
        return relu_dropout(pre, *_keep(pre.shape, config.dropout, rng))
    return relu(pre)


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
