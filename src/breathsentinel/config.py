"""Run configuration: flat key=value files with validated ranges.

Precedence, lowest to highest: built-in defaults, --config file,
command-line flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError

TREND_MIN_INTERVALS = 8  # fewest intervals the trend test runs on (vigil); interval_window's floor


@dataclass
class RunConfig:
    seed: int = 42
    ae_epochs: int = 200
    ae_batch: int = 128
    ae_learning_rate: float = 0.05
    rnn_epochs: int = 300
    rnn_learning_rate: float = 0.01
    rnn_hidden: int = 75
    noise_aug: bool = True
    confidence: float = 0.99
    run_length: int = 3
    interval_window: int = 20
    trend_alpha: float = 0.05
    ci_level: float = 0.80
    refractory: float = 1.0
    corpus_dir: str = ""
    model_path: str = ""

    def validate(self) -> "RunConfig":
        checks = [
            ("seed", 0 <= self.seed, "must be >= 0"),
            ("ae_epochs", self.ae_epochs >= 0, "must be >= 0"),
            ("ae_batch", self.ae_batch >= 1, "must be >= 1"),
            ("ae_learning_rate", 0 < self.ae_learning_rate < math.inf, "must be finite and > 0"),
            ("rnn_epochs", self.rnn_epochs >= 0, "must be >= 0"),
            ("rnn_learning_rate", 0 < self.rnn_learning_rate < math.inf, "must be finite and > 0"),
            ("rnn_hidden", self.rnn_hidden in (50, 75, 100), "must be one of 50, 75, 100"),
            ("confidence", 0.5 <= self.confidence < 1.0, "must be in [0.5, 1.0)"),
            ("run_length", 1 <= self.run_length <= 10, "must be in [1, 10]"),
            ("interval_window", TREND_MIN_INTERVALS <= self.interval_window <= 200,
             f"must be in [{TREND_MIN_INTERVALS}, 200]: fewer intervals silence the trend test"),
            ("trend_alpha", 0.5 < 1.0 - self.trend_alpha < 1.0,
             "must leave 1 - trend_alpha in (0.5, 1), the trend quantile's domain"),
            ("ci_level", 0.5 <= self.ci_level <= 0.999, "must be in [0.5, 0.999]"),
            ("refractory", 0.0 <= self.refractory <= 5.0, "must be in [0, 5] seconds"),
        ]
        for name, ok, message in checks:
            if not ok:
                raise ConfigError(f"{name}={getattr(self, name)}: {message}")
        return self


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            lowered = raw.lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError:
        raise ConfigError(f"{key}={raw!r}: cannot parse as {kind}") from None


def parse_config(path) -> RunConfig:
    """Parse a flat key=value file; unknown keys are rejected, ranges are not checked."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not valid UTF-8 ({exc})") from None
    cfg = RunConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        key = key.strip()
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        setattr(cfg, key, _coerce(key, value))
    return cfg
