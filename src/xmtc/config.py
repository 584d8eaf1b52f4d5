"""Run configuration: a flat key=value text file with documented keys.

Defaults are the tuned operating point (embedding 100, filter 9, rates
[1,2,4], dropout 0.2, lr 1e-4, batch 32, prediction threshold 0.0005).
Unknown keys and out-of-range values are rejected at load: ``RunConfig``
builds the ``EncoderConfig`` and ``TrainConfig`` its keys map onto, so each
rule is stated once.  The file is the only source of a run's settings:
nothing is read from the environment or the command line.  The loaded
configuration hashes to a hex digest that every stage manifest records, so
artifacts from different configurations cannot be silently mixed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

from .encoder import EncoderConfig
from .errors import ConfigError, read_text

VARIANTS = ("full", "no_label_feature", "no_mask")


def check_variants(*variants: str) -> None:
    """Reject an empty ``variants``, any name in it that is not a model
    variant, and a name given twice."""
    unknown = [v for v in variants if v not in VARIANTS]
    if unknown or not variants:
        raise ConfigError(f"variant must be one of {VARIANTS}, got {unknown or 'none'}")
    repeated = sorted({v for v in variants if variants.count(v) > 1})
    if repeated:
        raise ConfigError(f"each variant may be named once, got {repeated} more than once")


def _check_range(interval: str, **values) -> None:
    """Reject a value outside ``interval``, e.g. ``(0, 1]``; ``nan`` is outside all."""
    low, high = (float(bound) for bound in interval[1:-1].split(","))
    for key, value in values.items():
        above = value > low if interval[0] == "(" else value >= low
        below = value < high if interval[-1] == ")" else value <= high
        if not (above and below):
            raise ConfigError(f"{key} must be in {interval}, got {value}")


@dataclass
class TrainConfig:
    lr: float = 1e-4
    lr_decay: float = 0.9
    clip_norm: float = 5.0
    batch_size: int = 32
    max_epochs: int = 30
    patience: int = 5
    seed: int = 0
    prediction_threshold: float = 0.0005

    def __post_init__(self):
        # messages name the configuration file keys
        _check_range("(0, inf)", learning_rate=self.lr, clip_norm=self.clip_norm)
        _check_range("(0, 1]", lr_decay=self.lr_decay,
                     prediction_threshold=self.prediction_threshold)
        _check_range("[1, inf)", batch_size=self.batch_size, max_epochs=self.max_epochs,
                     patience=self.patience)
        _check_range("[0, inf)", seed=self.seed)


def _parse_int_list(s: str) -> tuple[int, ...]:
    return tuple(int(x) for x in s.replace("[", "").replace("]", "").split(",") if x.strip())


@dataclass
class RunConfig:
    embedding_size: int = 100
    filter_size: int = 9
    dilation_rates: tuple[int, ...] = (1, 2, 4)
    num_blocks: int = 1
    dropout: float = 0.2
    activation: str = "relu"
    learning_rate: float = 0.0001
    lr_decay: float = 0.9
    clip_norm: float = 5.0
    batch_size: int = 32
    max_epochs: int = 30
    patience: int = 5
    prediction_threshold: float = 0.0005
    tau: float = 0.005
    lambda_: float = 1.0
    p_at_k: tuple[int, ...] = (5, 8, 15)
    predict_top_k: int = 8
    seed: int = 0
    variant: str = "full"
    max_len: int = 4000
    min_count: int = 3
    skipgram_window: int = 5
    skipgram_negatives: int = 5
    skipgram_epochs: int = 5
    embedding_path: str = ""

    def __post_init__(self):
        # the encoder and training configs check their keys; then the rest
        self.encoder_config()
        self.train_config()
        check_variants(self.variant)
        _check_range("[0, 1)", tau=self.tau)
        _check_range("(0, 1]", **{"lambda": self.lambda_})
        if not self.p_at_k or min(self.p_at_k) < 1:
            raise ConfigError(f"p_at_k must list ranks >= 1, got {self.p_at_k}")
        _check_range("[1, inf)", embedding_size=self.embedding_size, max_len=self.max_len,
                     predict_top_k=self.predict_top_k, min_count=self.min_count,
                     skipgram_window=self.skipgram_window)
        _check_range("[0, inf)", skipgram_negatives=self.skipgram_negatives,
                     skipgram_epochs=self.skipgram_epochs)

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(kernel_size=self.filter_size, rates=self.dilation_rates,
                             num_blocks=self.num_blocks, dropout=self.dropout,
                             activation=self.activation)

    def train_config(self) -> TrainConfig:
        return TrainConfig(lr=self.learning_rate, lr_decay=self.lr_decay,
                           clip_norm=self.clip_norm, batch_size=self.batch_size,
                           max_epochs=self.max_epochs, patience=self.patience, seed=self.seed,
                           prediction_threshold=self.prediction_threshold)


def _attr_for(key: str) -> str:
    return "lambda_" if key == "lambda" else key


def _key_for(attr: str) -> str:
    return "lambda" if attr == "lambda_" else attr


def _parser_for(default):
    if isinstance(default, tuple):
        return _parse_int_list
    return type(default)


# file key -> parser, by each field's default type; "lambda" is a Python
# keyword, hence the alias
_PARSERS = {_key_for(f.name): _parser_for(f.default) for f in fields(RunConfig)}


def load_run_config(path=None) -> RunConfig:
    """The configuration in the file at ``path``, with defaults for the keys
    it omits; with no ``path``, the defaults.  A key may be set once."""
    values: dict[str, object] = {}
    line_of: dict[str, int] = {}  # each key read -> the line that sets it
    lines = [] if path is None else read_text(path, ConfigError).splitlines()
    for ln, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{ln}: expected 'key = value', got {line!r}")
        key, _, raw = (part.strip() for part in stripped.partition("="))
        if key not in _PARSERS:
            raise ConfigError(f"{path}:{ln}: unknown configuration key {key!r}")
        if line_of.setdefault(key, ln) != ln:
            raise ConfigError(f"{path}:{ln}: {key!r} is set again (first on line {line_of[key]})")
        try:
            values[_attr_for(key)] = _PARSERS[key](raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{path}:{ln}: bad value for {key!r}: {exc}") from None
    return RunConfig(**values)


def canonical_text(cfg: RunConfig) -> str:
    """Stable key=value rendering used for hashing and for writing configs."""
    lines = []
    for f in sorted(fields(cfg), key=lambda f: _key_for(f.name)):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            rendered = ",".join(str(v) for v in value)
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        lines.append(f"{_key_for(f.name)} = {rendered}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode()).hexdigest()[:16]

