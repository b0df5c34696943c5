"""Run configuration: INI-style file with dataset/model/training/metric sections.

Built-in defaults reproduce the linear-architecture setup (hidden dims
[32, 16, 8], lr 1e-3, 20000 epochs, batch 64, one EM pass per epoch,
beta 0.1, decoder variance 1e-5, 1280 samples split 1024/128/128); a config
file overrides any subset of keys.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import asdict, dataclass, field, fields

from .errors import InputError


@dataclass
class DatasetConfig:
    n_samples: int = 1280
    steps: int = 50
    horizon: float = 50.0
    label_threshold: float = 0.5
    seed: int = 1
    kappa: float = 10.0
    substeps: int = 10


@dataclass
class ModelConfig:
    latent_dim: int = 2
    n_clusters: int = 2
    hidden_dims: tuple = (32, 16, 8)
    decoder_var: float = 1e-5
    beta: float = 0.1


@dataclass
class TrainConfig:
    lr: float = 1e-3
    weight_decay: float = 0.0
    batch_size: int = 64
    epochs: int = 20000
    n_em: int = 1
    variance_floor: float = 1e-6
    seed: int = 1


@dataclass
class MetricConfig:
    k: int = 10
    r_percent: float = 20.0


@dataclass
class RunConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    metric: MetricConfig = field(default_factory=MetricConfig)

    def validate(self) -> None:
        d, m, t, k = self.dataset, self.model, self.training, self.metric
        checks = [(math.isfinite(value), f"{section}.{key} must be finite, got {value}")
                  for section, block in vars(self).items() for key, value in vars(block).items()
                  if isinstance(value, float)] + [
            (d.n_samples >= 10, f"dataset.n_samples must be >= 10, got {d.n_samples}"),
            (d.steps >= 2, f"dataset.steps must be >= 2, got {d.steps}"),
            (d.horizon > 0, f"dataset.horizon must be > 0, got {d.horizon}"),
            (0 < d.label_threshold < 1, f"dataset.label_threshold must be in (0, 1), got {d.label_threshold}"),
            (d.substeps >= 1, f"dataset.substeps must be >= 1, got {d.substeps}"),
            (d.kappa >= 0, f"dataset.kappa must be >= 0, got {d.kappa}"),
            (d.seed >= 0, f"dataset.seed must be >= 0, got {d.seed}"),
            (m.latent_dim >= 1, f"model.latent_dim must be >= 1, got {m.latent_dim}"),
            (m.n_clusters >= 1, f"model.n_clusters must be >= 1, got {m.n_clusters}"),
            (all(h >= 1 for h in m.hidden_dims) and len(m.hidden_dims) >= 1,
             f"model.hidden_dims must be positive ints, got {m.hidden_dims}"),
            (m.decoder_var > 0, f"model.decoder_var must be > 0, got {m.decoder_var}"),
            (m.beta >= 0, f"model.beta must be >= 0, got {m.beta}"),
            (t.lr >= 0, f"training.lr must be >= 0, got {t.lr}"),
            (t.weight_decay >= 0, f"training.weight_decay must be >= 0, got {t.weight_decay}"),
            (t.batch_size >= 1, f"training.batch_size must be >= 1, got {t.batch_size}"),
            (t.epochs >= 0, f"training.epochs must be >= 0, got {t.epochs}"),
            (t.n_em >= 0, f"training.n_em must be >= 0, got {t.n_em}"),
            (t.variance_floor > 0, f"training.variance_floor must be > 0, got {t.variance_floor}"),
            (t.seed >= 0, f"training.seed must be >= 0, got {t.seed}"),
            (k.k >= 1, f"metric.k must be >= 1, got {k.k}"),
            (0 < k.r_percent <= 100, f"metric.r_percent must be in (0, 100], got {k.r_percent}"),
        ]
        for ok, msg in checks:
            if not ok:
                raise InputError(msg)

    def as_dict(self) -> dict:
        return asdict(self)


def _parse_hidden_dims(text: str) -> tuple:
    try:
        dims = tuple(int(part) for part in text.replace(" ", "").split(",") if part)
    except ValueError:
        raise InputError(f"config: cannot parse hidden_dims {text!r} (want e.g. '32,16,8')")
    if not dims:
        raise InputError("config: hidden_dims must name at least one width")
    return dims


# section -> key -> parser: each key is parsed with its default's type
_SECTION_FIELDS = {
    section.name: {key.name: _parse_hidden_dims if key.name == "hidden_dims" else type(key.default)
                   for key in fields(section.default_factory)}
    for section in fields(RunConfig)
}


def load_config(path=None) -> RunConfig:
    """Defaults, overridden by the INI file at `path` when given."""
    cfg = RunConfig()
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(str(path))
        if not read:
            raise InputError(f"config file not found or unreadable: {path}")
        for section in parser.sections():
            if section not in _SECTION_FIELDS:
                raise InputError(f"config: unknown section [{section}]")
            parsers = _SECTION_FIELDS[section]
            block = getattr(cfg, section)
            for key, raw in parser.items(section):
                if key not in parsers:
                    raise InputError(f"config: unknown key {key!r} in [{section}]")
                try:
                    setattr(block, key, parsers[key](raw))
                except InputError:
                    raise
                except ValueError:
                    raise InputError(f"config: bad value {raw!r} for {section}.{key}")
    cfg.validate()
    return cfg
