"""Experiment configuration: a flat INI-style file, one key = value per line,
with one section per pipeline stage. Each key sets one dataclass field, whose
annotation gives the key's type; unset keys keep the dataclass defaults, so
the defaults live in one place. Two configs that resolve to the same values
share the same digest.
"""

from __future__ import annotations

import configparser
import dataclasses
import enum
import functools
import hashlib
import json
import math
import typing
from dataclasses import dataclass, field

from .attacks import SCORING_FEATURES, THRESHOLD_SCORES
from .dataset import MIN_SPLIT_SAMPLES
from .nn import DPConfig, TrainingConfig
from .signals import SignalKind

KNOWN_ATTACKS = (*THRESHOLD_SCORES, *SCORING_FEATURES)
DP_ROLES = ("target", "shadow", "reference")
SAMPLING_MODES = ("fixed", "random")


class ConfigError(ValueError):
    """Invalid configuration; the message names the section and key."""


@dataclass(frozen=True)
class SyntheticSource:
    """Gaussian-mixture data source; class means are placed from the seed.

    The defaults give the desk-scale overfitting benchmark: a 1000-sample
    training third drives a small MLP to ~1.0 train / ~0.84 test accuracy,
    leaving a measurable member/non-member gap.
    """

    num_classes: int = 2
    feature_dim: int = 16
    class_separation: float = 0.35
    cov_scale: float = 1.0
    n_samples: int = 6000
    seed: int | None = None  # derived from the master seed when None

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("num_classes: need at least 2 classes")
        if self.feature_dim < 1:
            raise ValueError("feature_dim: must be positive")
        if not 0 < self.class_separation < math.inf:
            raise ValueError("class_separation: must be positive and finite")
        if not 0 < self.cov_scale < math.inf:
            raise ValueError("cov_scale: must be positive and finite")
        if self.n_samples < max(MIN_SPLIT_SAMPLES, self.num_classes):
            raise ValueError(f"n_samples: need at least {MIN_SPLIT_SAMPLES} samples to split, "
                             "and one per class")


@dataclass(frozen=True)
class CsvSource:
    path: str = ""

    def __post_init__(self):
        if not self.path:
            raise ValueError("path: required when source = csv")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a pipeline run depends on; the digest of the resolved values
    stamps every artifact."""

    data: SyntheticSource | CsvSource = field(default_factory=SyntheticSource)
    attacker_data: SyntheticSource | CsvSource | None = None
    hidden_sizes: tuple[int, ...] = (256,)
    target_train: TrainingConfig = field(default_factory=TrainingConfig)
    shadow_train: TrainingConfig = field(default_factory=TrainingConfig)
    reference_train: TrainingConfig = field(default_factory=TrainingConfig)
    dp: DPConfig | None = None
    dp_apply_to: tuple[str, ...] = ("target",)
    signal_kind: SignalKind = SignalKind.LOSS
    logit_scaling: bool = False
    num_queries: int = 8
    augmentation_noise_std: float = 0.1
    num_reference_models: int = 4
    reference_sampling_mode: str = "fixed"
    reference_sample_fraction: float = 0.5
    attacks: tuple[str, ...] = KNOWN_ATTACKS
    fpr_levels: tuple[float, ...] = (0.001, 0.01, 0.1)
    scoring_hidden_sizes: tuple[int, ...] = (64, 64, 64)
    scoring_train: TrainingConfig = field(default_factory=lambda: TrainingConfig(
        learning_rate=0.05, momentum=0.9, weight_decay=0.0, batch_size=64,
        epochs=100, cosine_schedule=True))
    master_seed: int = 0
    split_seed: int | None = None

    def __post_init__(self):
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ConfigError("[model] hidden_sizes: need positive hidden layer sizes")
        if any(h < 1 for h in self.scoring_hidden_sizes):  # none gives a linear scorer
            raise ConfigError("[scoring] hidden_sizes: need positive hidden layer sizes")
        if self.num_queries < 1:
            raise ConfigError("[signal] num_queries: must be at least 1")
        if not 0 <= self.augmentation_noise_std < math.inf:
            raise ConfigError("[signal] augmentation_noise_std: must be nonnegative and finite")
        if self.num_reference_models < 1:
            raise ConfigError("[reference] count: must be at least 1")
        if self.reference_sampling_mode not in SAMPLING_MODES:
            raise ConfigError(
                f"[reference] sampling: unknown mode {self.reference_sampling_mode!r}; "
                f"expected one of {SAMPLING_MODES}")
        if not (0.0 < self.reference_sample_fraction <= 1.0):
            raise ConfigError("[reference] sample_fraction: must lie in (0, 1]")
        if not self.attacks:
            raise ConfigError("[attacks] enabled: attack list must be nonempty")
        for name in self.attacks:
            if name not in KNOWN_ATTACKS:
                raise ConfigError(
                    f"[attacks] enabled: unknown attack {name!r}; expected from {KNOWN_ATTACKS}")
        if not self.fpr_levels:
            raise ConfigError("[eval] fpr_levels: must be nonempty")
        for level in self.fpr_levels:
            if not (0.0 < level < 1.0):
                raise ConfigError(f"[eval] fpr_levels: level {level} outside (0, 1)")
        for role in self.dp_apply_to:
            if role not in DP_ROLES:
                raise ConfigError(f"[dp] apply_to: unknown role {role!r}; expected from {DP_ROLES}")
        if self.dp is not None and not self.dp_apply_to:
            raise ConfigError("[dp] apply_to: must name at least one role when [dp] is set")
        for where, values in (("[attacks] enabled", self.attacks),
                              ("[dp] apply_to", self.dp_apply_to),
                              ("[eval] fpr_levels", self.fpr_levels)):
            if len(set(values)) != len(values):
                raise ConfigError(f"{where}: a value is repeated in {list(values)}")

    def with_overrides(self, **kw) -> "ExperimentConfig":
        """Replace top-level fields (used by sweeps and tests)."""
        return dataclasses.replace(self, **kw)

    def canonical_dict(self) -> dict:
        """The resolved values; JSON writes tuples as lists and a SignalKind as its value."""
        return dataclasses.asdict(self)

    def digest(self) -> str:
        text = json.dumps(self.canonical_dict(), sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


_SOURCES = {"synthetic": SyntheticSource, "csv": CsvSource}


def _keys(owner) -> dict:
    return {f.name: (owner, f.name) for f in dataclasses.fields(owner)}


_SOURCE_KEYS = {"source": (None, "source"), **_keys(CsvSource), **_keys(SyntheticSource)}
_TRAINING_KEYS = _keys(TrainingConfig)

# [section] key -> (dataclass, field). The field's annotation gives the key's
# type; an unset key keeps the value of the dataclass the section is built
# from. The `source` key has no field: it picks the dataclass from _SOURCES.
SECTIONS = {
    "data": _SOURCE_KEYS,
    "attacker_data": _SOURCE_KEYS,
    "model": {"hidden_sizes": (ExperimentConfig, "hidden_sizes")},
    "train.target": _TRAINING_KEYS,
    "train.shadow": _TRAINING_KEYS,
    "train.reference": _TRAINING_KEYS,
    "dp": {**_keys(DPConfig), "apply_to": (ExperimentConfig, "dp_apply_to")},
    "signal": {"kind": (ExperimentConfig, "signal_kind"),
               "logit_scaling": (ExperimentConfig, "logit_scaling"),
               "num_queries": (ExperimentConfig, "num_queries"),
               "augmentation_noise_std": (ExperimentConfig, "augmentation_noise_std")},
    "reference": {"count": (ExperimentConfig, "num_reference_models"),
                  "sampling": (ExperimentConfig, "reference_sampling_mode"),
                  "sample_fraction": (ExperimentConfig, "reference_sample_fraction")},
    "attacks": {"enabled": (ExperimentConfig, "attacks")},
    "scoring": {"hidden_sizes": (ExperimentConfig, "scoring_hidden_sizes"), **_TRAINING_KEYS},
    "eval": {"fpr_levels": (ExperimentConfig, "fpr_levels")},
    "experiment": {"master_seed": (ExperimentConfig, "master_seed"),
                   "split_seed": (ExperimentConfig, "split_seed")},
}


_field_types = functools.cache(typing.get_type_hints)


def _scalar(kind: type, text: str):
    if kind is bool:
        if text.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
            raise ValueError("not a boolean")
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    if issubclass(kind, enum.Enum) and text not in {m.value for m in kind}:
        raise ValueError(f"expected one of {[m.value for m in kind]}")
    return kind(text)


def _convert(where: str, raw: str, kind):
    """Read `raw` as a value of annotation `kind`: `X | None` reads as X and
    `tuple[X, ...]` as a comma-separated list of X. Errors name `where`."""
    if type(None) in typing.get_args(kind):
        kind = next(a for a in typing.get_args(kind) if a is not type(None))
    try:
        if typing.get_origin(kind) is tuple:
            item = typing.get_args(kind)[0]
            return tuple(_scalar(item, v.strip()) for v in raw.split(",") if v.strip())
        return _scalar(kind, raw.strip())
    except ValueError as exc:
        name = kind.__name__ if isinstance(kind, type) else str(kind)
        raise ConfigError(f"{where}: cannot parse {raw!r} as {name} ({exc})") from None


def parse_field_list(where: str, name: str, raw: str) -> list:
    """A nonempty comma-separated list of distinct values of ExperimentConfig
    field `name`, each read as the field's INI key reads one (a sweep's
    `--values` and `--seeds`). Errors name `where`."""
    values = list(_convert(where, raw, tuple[_field_types(ExperimentConfig)[name], ...]))
    if not values:
        raise ConfigError(f"{where}: no values in {raw!r}")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"{where}: value {value!r} is repeated in {raw!r}")
    return values


def _section_values(parser: configparser.ConfigParser, section: str) -> dict:
    """The keys set in `section`, converted, as {dataclass: {field: value}}."""
    table = SECTIONS[section]
    values: dict = {}
    if not parser.has_section(section):
        return values
    for key, raw in parser.items(section):
        if key not in table:
            raise ConfigError(f"[{section}] {key}: unknown key")
        owner, name = table[key]
        kind = str if owner is None else _field_types(owner)[name]
        values.setdefault(owner, {})[name] = _convert(f"[{section}] {key}", raw, kind)
    return values


def _build(section: str, make, values: dict):
    """`make(**values)`, with any invalid value reported under `section`."""
    try:
        return make(**values)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def _source(section: str, values: dict, default) -> SyntheticSource | CsvSource:
    name = values.get(None, {}).get(
        "source", next(n for n, cls in _SOURCES.items() if isinstance(default, cls)))
    if name not in _SOURCES:
        raise ConfigError(f"[{section}] source: expected one of {list(_SOURCES)}, got {name!r}")
    return _build(section, _SOURCES[name], values.get(_SOURCES[name], {}))


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment config file; unset keys keep the
    defaults of the config dataclasses."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from None
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(f"[{section}]: unknown section")

    given = {section: _section_values(parser, section) for section in SECTIONS}
    top = {}
    for values in given.values():
        top.update(values.pop(ExperimentConfig, {}))
    defaults = ExperimentConfig()

    def training(section: str, base: TrainingConfig) -> TrainingConfig:
        return _build(section, functools.partial(dataclasses.replace, base),
                      given[section].get(TrainingConfig, {}))

    top["data"] = _source("data", given["data"], defaults.data)
    if parser.has_section("attacker_data"):
        top["attacker_data"] = _source("attacker_data", given["attacker_data"], defaults.data)
    top["target_train"] = training("train.target", defaults.target_train)
    top["shadow_train"] = training("train.shadow", top["target_train"])
    top["reference_train"] = training("train.reference", top["target_train"])
    top["scoring_train"] = training("scoring", defaults.scoring_train)
    if parser.has_section("dp"):
        top["dp"] = _build("dp", DPConfig, given["dp"].get(DPConfig, {}))
    return dataclasses.replace(defaults, **top)
