"""Declarative run configuration: INI file + command-line overrides.

Keys are named after the quantities they set (gamma, M, L, S, N, d, eta,
lambda1, lambda2, B, ...).  Defaults follow the reference settings: gamma=0.2,
M=15, L=8, n_neg=5, K=10,20,50.  The effective configuration is echoed into
every output directory so a run can be reproduced from its artifacts.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields

from .evaluation import EvalConfig
from .graph import InputError
from .model import ModelConfig
from .sampling import WalkConfig
from .training import TrainConfig


@dataclass
class RunConfig:
    # [run]
    seed: int = TrainConfig.seed
    # [model]
    d: int = ModelConfig.dim
    S: int = ModelConfig.local_size
    N: int = ModelConfig.history_size
    disable_local: bool = ModelConfig.disable_local
    disable_nonlocal: bool = ModelConfig.disable_nonlocal
    disable_user_attention: bool = ModelConfig.disable_user_attention
    # [walk]
    gamma: float = WalkConfig.gamma
    M: int = WalkConfig.num_walks
    L: int = WalkConfig.walk_length
    # [train]
    eta: float = TrainConfig.eta
    lambda1: float = TrainConfig.lambda1
    lambda2: float = TrainConfig.lambda2
    B: int = TrainConfig.batch_size
    n_neg: int = TrainConfig.n_neg
    epochs: int = TrainConfig.epochs
    patience: int = TrainConfig.patience
    eval_every: int = TrainConfig.eval_every
    fixed_negatives: bool = TrainConfig.fixed_negatives
    max_batches: int | None = TrainConfig.max_batches
    # [eval]
    K: tuple = EvalConfig.k_values
    include_valid_in_candidates: bool = EvalConfig.include_valid_in_candidates
    # [data]
    threshold: float | None = None

    def model_config(self) -> ModelConfig:
        return ModelConfig(dim=self.d, local_size=self.S, history_size=self.N,
                           disable_local=self.disable_local,
                           disable_nonlocal=self.disable_nonlocal,
                           disable_user_attention=self.disable_user_attention)

    def walk_config(self) -> WalkConfig:
        # the non-local context size tracks the local sample size S
        return WalkConfig(gamma=self.gamma, num_walks=self.M, walk_length=self.L,
                          context_size=self.S)

    def train_config(self) -> TrainConfig:
        return TrainConfig(eta=self.eta, lambda1=self.lambda1, lambda2=self.lambda2,
                           batch_size=self.B, n_neg=self.n_neg, epochs=self.epochs,
                           max_batches=self.max_batches, seed=self.seed,
                           patience=self.patience, eval_every=self.eval_every,
                           fixed_negatives=self.fixed_negatives)

    def eval_config(self) -> EvalConfig:
        return EvalConfig(k_values=tuple(self.K),
                          include_valid_in_candidates=self.include_valid_in_candidates)


_SECTIONS = {
    "run": ("seed",),
    "model": ("d", "S", "N", "disable_local", "disable_nonlocal",
              "disable_user_attention"),
    "walk": ("gamma", "M", "L"),
    "train": ("eta", "lambda1", "lambda2", "B", "n_neg", "epochs", "patience",
              "eval_every", "fixed_negatives", "max_batches"),
    "eval": ("K", "include_valid_in_candidates"),
    "data": ("threshold",),
}

_KEY_SECTION = {key: section for section, keys in _SECTIONS.items() for key in keys}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    hints = {f.name: f.type for f in fields(RunConfig)}
    hint = hints[key]
    if raw == "" or raw.lower() == "none":
        if hint in ("int | None", "float | None"):
            return None
        raise InputError(f"config key {key!r} must not be empty")
    if hint == "bool":
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise InputError(f"config key {key!r}: bad boolean {raw!r}")
    try:
        if hint in ("int", "int | None"):
            return int(raw)
        if hint in ("float", "float | None"):
            return float(raw)
        if hint == "tuple":
            return tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise InputError(f"config key {key!r}: cannot parse {raw!r}") from None
    raise TypeError(f"config key {key!r} has type {hint!r}, which _parse_value does not parse")


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def load_config(path=None, overrides=()) -> RunConfig:
    """Defaults, then the INI file, then ``section.key=value`` overrides."""
    cfg = RunConfig()
    if path is not None:
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keys are case-sensitive (M vs m)
        read = parser.read(path)
        if not read:
            raise InputError(f"cannot read config file {path}")
        for section in parser.sections():
            if section not in _SECTIONS:
                raise InputError(f"{path}: unknown section [{section}]")
            for key, raw in parser.items(section):
                if key not in _SECTIONS[section]:
                    raise InputError(f"{path}: unknown key {key!r} in [{section}]")
                setattr(cfg, key, _parse_value(key, raw))
    for item in overrides:
        if "=" not in item:
            raise InputError(f"override {item!r} is not key=value")
        key, raw = item.split("=", 1)
        key = key.split(".")[-1].strip()  # accept both key=v and section.key=v
        if key not in _KEY_SECTION:
            raise InputError(f"unknown config key {key!r}")
        setattr(cfg, key, _parse_value(key, raw))
    if cfg.seed < 0:
        raise InputError("seed must be non-negative")
    # every section's range checks run here, so no command echoes a bad value
    cfg.model_config(), cfg.walk_config(), cfg.train_config(), cfg.eval_config()
    return cfg


def save_config(cfg: RunConfig, path) -> None:
    parser = configparser.ConfigParser()
    parser.optionxform = str
    for section, keys in _SECTIONS.items():
        parser[section] = {key: _format_value(getattr(cfg, key)) for key in keys}
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
