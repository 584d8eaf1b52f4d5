"""Document encoder: stacked multi-level dilated residual convolution blocks.

Each block runs two parallel branches over the embedded sequence: a chain of
dilated convolutions (one per dilation rate, no activation between levels)
and a single residual convolution at the first rate.  Level 0 and the
residual read the same windows, so they share one product over their
filters side by side, and its output is split into the chain input and the
residual.  The convolution stacks the two filters inside its own forward
and backward, so the stacked filters are never a tape node and never kept.
The branch outputs are summed, passed through the activation, and
optionally dropped out; a dropout node keeps its bool mask only.  All
convolutions use length-preserving padding, so the output keeps the input's
sequence length at every level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .tensor import (Tensor, add, conv1d_dilated, dropout, gather_rows, relu, same_padding,
                     split_columns, tanh)

_ACTIVATIONS = {"relu": relu, "tanh": tanh}


@dataclass
class EncoderConfig:
    kernel_size: int = 9
    rates: tuple[int, ...] = (1, 2, 4)
    num_blocks: int = 1
    dropout: float = 0.2
    activation: str = "relu"

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
        if self.activation not in _ACTIVATIONS:
            raise ConfigError(f"activation must be one of {sorted(_ACTIVATIONS)}, "
                              f"got {self.activation!r}")
        if self.num_blocks < 0:
            raise ConfigError(f"num_blocks must be nonnegative, got {self.num_blocks}")


@dataclass
class BlockParams:
    """Filters for one dilated-residual block."""

    level_filters: list[Tensor] = field(default_factory=list)  # [K, d, d] per rate
    residual_filter: Tensor | None = None


def init_block_params(
    config: EncoderConfig, dim: int, rng: np.random.Generator, prefix: str = "block0"
) -> BlockParams:
    k = config.kernel_size
    limit = np.sqrt(6.0 / (k * dim + k * dim))

    def filt(name):
        return Tensor(rng.uniform(-limit, limit, (k, dim, dim)), requires_grad=True, name=name)

    return BlockParams(
        level_filters=[filt(f"{prefix}.level{i}") for i in range(len(config.rates))],
        residual_filter=filt(f"{prefix}.residual"),
    )


def _dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    if p <= 0.0:
        return x
    return dropout(x, rng.random(x.shape) >= p, 1.0 / (1.0 - p))


def residual_block(
    embedded: Tensor,
    params: BlockParams,
    config: EncoderConfig,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """One block: activation(main dilated chain + residual convolution).

    Level 0 and the residual run as one convolution over the filter pair
    ``(level0, residual)``; the conv stacks them on the spot, so no stacked
    copy is a tape node, and splits their gradient back into each filter.
    """
    act = _ACTIVATIONS[config.activation]
    k, rate0 = config.kernel_size, config.rates[0]
    level0 = params.level_filters[0]
    pair = conv1d_dilated(embedded, (level0, params.residual_filter),
                          dilation=rate0, padding=same_padding(k, rate0))
    h, residual = split_columns(pair, level0.shape[2])
    for filt, rate in zip(params.level_filters[1:], config.rates[1:]):
        h = conv1d_dilated(h, filt, dilation=rate, padding=same_padding(k, rate))
    out = act(add(h, residual))
    if train and config.dropout > 0.0:
        out = _dropout(out, config.dropout, rng)
    return out


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
        h = _dropout(h, config.dropout, rng)
    for params in blocks:
        h = residual_block(h, params, config, train=train, rng=rng)
    return h
