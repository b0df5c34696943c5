"""Run configuration: INI-style file with dataset/model/training/metric sections.

Built-in defaults reproduce the linear-architecture setup (hidden dims
[32, 16, 8], lr 1e-3, 20000 epochs, batch 64, one EM pass per epoch,
beta 0.1, decoder variance 1e-5, 1280 samples split 1024/128/128); a config
file overrides any subset of keys.

Each section's range rules live here, once. A section is a frozen dataclass
that checks its float fields are finite and its fields in range when it is
built, so the library entry points that take one (`datagen.generate`,
`datagen.integrate`, `GmVae.init`, `train`, `interpretability_report`) hold
a valid section by construction; a changed copy comes from
`dataclasses.replace`, which checks again.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields
from typing import ClassVar

from .errors import InputError


class _Section:
    """A config section. Building one raises InputError for the first float
    field that is not finite, then for the first field that breaks its range
    rule."""

    NAME: ClassVar[str]  # the section's INI name and message prefix
    RULES: ClassVar[dict]  # field -> (the rule as its message states it, its test)

    def __post_init__(self) -> None:
        for key, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise InputError(f"{self.NAME}.{key} must be finite, got {value}")
        for key, (rule, holds) in self.RULES.items():
            value = getattr(self, key)
            if not holds(value):
                raise InputError(f"{self.NAME}.{key} must be {rule}, got {value}")


# the bound a variance is held to where its reciprocal is taken: 1 / 5e-324 overflows
_FINITE_RECIPROCAL = ("> 0 with a finite reciprocal", lambda v: v > 0 and math.isfinite(1.0 / v))


@dataclass(frozen=True)
class DatasetConfig(_Section):
    n_samples: int = 1280
    steps: int = 50
    horizon: float = 50.0
    label_threshold: float = 0.5
    seed: int = 1
    kappa: float = 10.0
    substeps: int = 10

    NAME = "dataset"
    RULES = {
        "n_samples": (">= 10", lambda v: v >= 10),
        "steps": (">= 2", lambda v: v >= 2),
        "horizon": ("> 0", lambda v: v > 0),
        "label_threshold": ("in (0, 1)", lambda v: 0 < v < 1),
        "substeps": (">= 1", lambda v: v >= 1),
        "kappa": (">= 0", lambda v: v >= 0),
        "seed": (">= 0", lambda v: v >= 0),
    }


@dataclass(frozen=True)
class ModelConfig(_Section):
    latent_dim: int = 2
    n_clusters: int = 2
    hidden_dims: tuple = (32, 16, 8)
    decoder_var: float = 1e-5
    beta: float = 0.1

    NAME = "model"
    RULES = {
        "latent_dim": (">= 1", lambda v: v >= 1),
        "n_clusters": (">= 1", lambda v: v >= 1),
        "hidden_dims": ("positive ints", lambda v: len(v) >= 1 and all(h >= 1 for h in v)),
        "decoder_var": _FINITE_RECIPROCAL,
        "beta": (">= 0", lambda v: v >= 0),
    }


@dataclass(frozen=True)
class TrainConfig(_Section):
    lr: float = 1e-3
    batch_size: int = 64
    epochs: int = 20000
    variance_floor: float = 1e-6
    seed: int = 1

    NAME = "training"
    RULES = {
        "lr": (">= 0", lambda v: v >= 0),
        "batch_size": (">= 1", lambda v: v >= 1),
        "epochs": (">= 0", lambda v: v >= 0),
        "variance_floor": _FINITE_RECIPROCAL,
        "seed": (">= 0", lambda v: v >= 0),
    }


@dataclass(frozen=True)
class MetricConfig(_Section):
    k: int = 10
    r_percent: float = 20.0

    NAME = "metric"
    RULES = {
        "k": (">= 1", lambda v: v >= 1),
        "r_percent": ("in (0, 100]", lambda v: 0 < v <= 100),
    }


@dataclass(frozen=True)
class RunConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    metric: MetricConfig = field(default_factory=MetricConfig)


def _parse_hidden_dims(text: str) -> tuple:
    """Comma-separated widths, e.g. "32, 16, 8"; empty parts are skipped."""
    return tuple(int(part) for part in text.split(",") if part.strip())


# section -> key -> parser: each key is parsed with its default's type
_SECTION_FIELDS = {
    section.name: {key.name: _parse_hidden_dims if key.name == "hidden_dims" else type(key.default)
                   for key in fields(section.default_factory)}
    for section in fields(RunConfig)
}


def load_config(path=None) -> RunConfig:
    """Defaults, overridden by the INI file at `path` when given. The whole file
    is parsed before the sections are built, and so checked, in `RunConfig` order.
    A file that cannot be opened raises its OSError."""
    values = {section: {} for section in _SECTION_FIELDS}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)  # '%' is a plain character
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except configparser.Error as e:  # its messages span lines; the CLI prints one
            raise InputError(f"config {path}: {' '.join(str(e).split())}") from None
        except UnicodeDecodeError as e:
            raise InputError(f"config {path}: {e}") from None
        if parser.defaults():  # configparser would copy its keys into every section
            raise InputError(f"config {path}: unknown section [DEFAULT]")
        for section in parser.sections():
            if section not in _SECTION_FIELDS:
                raise InputError(f"config {path}: unknown section [{section}]")
            parsers = _SECTION_FIELDS[section]
            for key, raw in parser.items(section):
                if key not in parsers:
                    raise InputError(f"config {path}: unknown key {key!r} in [{section}]")
                try:
                    values[section][key] = parsers[key](raw)
                except ValueError:
                    raise InputError(f"config {path}: bad value {raw!r} for {section}.{key}")
    return RunConfig(**{section.name: section.default_factory(**values[section.name])
                        for section in fields(RunConfig)})
