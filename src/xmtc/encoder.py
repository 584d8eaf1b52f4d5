"""Document encoder: stacked multi-level dilated residual convolution blocks.

Each block runs two parallel branches over the embedded sequence: a chain of
dilated convolutions (one per dilation rate, no activation between levels)
and a single residual convolution at the first rate.  The branch outputs are
summed, passed through the activation, and optionally dropped out.  All
convolutions use length-preserving padding, so the output keeps the input's
sequence length at every level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import PAD_ID
from .errors import ConfigError, DataError
from .tensor import Tensor, add, conv1d_dilated, gather_rows, mul, relu, same_padding, tanh

_ACTIVATIONS = {"relu": relu, "tanh": tanh}


@dataclass
class EncoderConfig:
    kernel_size: int = 9
    rates: tuple[int, ...] = (1, 2, 4)
    num_blocks: int = 1
    dropout: float = 0.2
    activation: str = "relu"

    def __post_init__(self):
        self.rates = tuple(int(r) for r in self.rates)
        if self.kernel_size % 2 == 0:
            raise ConfigError(
                f"kernel size must be odd for length-preserving padding, got {self.kernel_size}"
            )
        if not self.rates or any(r < 1 for r in self.rates):
            raise ConfigError(f"dilation rates must be positive, got {self.rates}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.activation not in _ACTIVATIONS:
            raise ConfigError(
                f"unknown activation {self.activation!r}; choose from {sorted(_ACTIVATIONS)}"
            )
        if self.num_blocks < 0:
            raise ConfigError(f"num_blocks must be nonnegative, got {self.num_blocks}")

    def receptive_field(self) -> int:
        """Positions one output element can see, per block stack."""
        per_block = sum(r * (self.kernel_size - 1) for r in self.rates)
        return 1 + self.num_blocks * per_block


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


def _zero_padded_rows(h: Tensor, pad_mask: np.ndarray | None) -> Tensor:
    """Reset activations at padding positions to zero.

    Without this, deeper convolution levels would read nonzero activations
    computed over the padding region, so appending PAD tokens could leak
    into real positions instead of behaving like the zero padding the
    unpadded sequence sees.
    """
    if pad_mask is None:
        return h
    return mul(h, Tensor(pad_mask[:, None]))


def dilated_stack(
    embedded: Tensor,
    params: BlockParams,
    config: EncoderConfig,
    pad_mask: np.ndarray | None = None,
) -> Tensor:
    """Chain of dilated convolutions, one level per rate."""
    h = embedded
    for filt, rate in zip(params.level_filters, config.rates):
        h = conv1d_dilated(h, filt, dilation=rate,
                           padding=same_padding(config.kernel_size, rate))
        h = _zero_padded_rows(h, pad_mask)
    return h


def _dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    if p <= 0.0:
        return x
    keep = (rng.random(x.shape) >= p) / (1.0 - p)
    return mul(x, Tensor(keep))


def residual_block(
    embedded: Tensor,
    params: BlockParams,
    config: EncoderConfig,
    train: bool = False,
    rng: np.random.Generator | None = None,
    pad_mask: np.ndarray | None = None,
) -> Tensor:
    """One block: activation(main dilated chain + residual convolution)."""
    act = _ACTIVATIONS[config.activation]
    main = dilated_stack(embedded, params, config, pad_mask=pad_mask)
    residual = conv1d_dilated(
        embedded,
        params.residual_filter,
        dilation=config.rates[0],
        padding=same_padding(config.kernel_size, config.rates[0]),
    )
    residual = _zero_padded_rows(residual, pad_mask)
    out = act(add(main, residual))
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
    ids = list(token_ids)
    if not ids:
        raise DataError("cannot encode an empty token sequence")
    if train and config.dropout > 0.0 and rng is None:
        raise ValueError("training-mode encode needs an rng for dropout")
    id_arr = np.asarray(ids)
    pad_mask = None
    if (id_arr == PAD_ID).any():  # PAD rows stay zero through every level
        pad_mask = (id_arr != PAD_ID).astype(np.float64)
    h = gather_rows(embedding, ids)
    if train and config.dropout > 0.0:
        h = _dropout(h, config.dropout, rng)
    for params in blocks:
        h = residual_block(h, params, config, train=train, rng=rng, pad_mask=pad_mask)
    return h
