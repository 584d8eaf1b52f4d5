"""Run configuration: a flat key=value text file with documented keys.

Defaults are the tuned operating point (embedding 100, filter 9, rates
[1,2,4], dropout 0.2, lr 1e-4, batch 32, prediction threshold 0.0005).
Unknown keys are rejected.  Any key can be overridden by an environment
variable ``XMTC_<KEY>`` (uppercased), and the resolved configuration hashes
to a hex digest that stamps every derived artifact, so artifacts from
different configurations cannot be silently mixed.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError

ENV_PREFIX = "XMTC_"


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


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
    hard_gating: bool = True
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


def _attr_for(key: str) -> str:
    return "lambda_" if key == "lambda" else key


def _key_for(attr: str) -> str:
    return "lambda" if attr == "lambda_" else attr


def _parser_for(default):
    if isinstance(default, bool):  # before int: bool is an int subclass
        return _parse_bool
    if isinstance(default, tuple):
        return _parse_int_list
    return type(default)


# file key -> parser, by each field's default type; "lambda" is a Python
# keyword, hence the alias
_PARSERS = {_key_for(f.name): _parser_for(f.default) for f in fields(RunConfig)}


def load_run_config(
    path=None,
    overrides: dict[str, str] | None = None,
    env: dict[str, str] | None = None,
) -> RunConfig:
    """Resolve a configuration from file, environment, and CLI overrides
    (in that order of increasing precedence)."""
    values: dict[str, object] = {}

    def apply(key: str, raw: str, origin: str) -> None:
        if key not in _PARSERS:
            raise ConfigError(f"{origin}: unknown configuration key {key!r}")
        try:
            values[_attr_for(key)] = _PARSERS[key](raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{origin}: bad value for {key!r}: {exc}") from None

    if path is not None:
        for ln, line in enumerate(Path(path).read_text().splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{ln}: expected 'key = value', got {line!r}")
            key, _, raw = stripped.partition("=")
            apply(key.strip(), raw.strip(), f"{path}:{ln}")

    env = os.environ if env is None else env
    for key in _PARSERS:
        env_key = ENV_PREFIX + key.upper()
        if env_key in env:
            apply(key, env[env_key], f"environment variable {env_key}")

    for key, raw in (overrides or {}).items():
        apply(key, raw, "command line")

    return RunConfig(**values)


def canonical_text(cfg: RunConfig) -> str:
    """Stable key=value rendering used for hashing and for writing configs."""
    lines = []
    for f in sorted(fields(cfg), key=lambda f: _key_for(f.name)):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            rendered = ",".join(str(v) for v in value)
        elif isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        lines.append(f"{_key_for(f.name)} = {rendered}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode()).hexdigest()[:16]


def write_config(cfg: RunConfig, path) -> None:
    Path(path).write_text(canonical_text(cfg))
