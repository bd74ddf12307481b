"""Line-oriented `key = value` configuration files with one section per
module. Unknown sections or keys are errors, so typos fail loudly. `;`
starts a comment, on its own line or after a value.

Example:

    [dataset]
    n_speakers_train = 50
    intra_speaker_spread = 0.3

    [loss]
    kind = aam
    alpha = 10
    margin = 0.05

    [training]
    learning_rate = 0.01
    epochs = 30
    speakers_per_batch = 25

    [eval]
    n_bootstrap = 500
"""

import configparser
from dataclasses import dataclass, field, fields

from spklab.dataset import SyntheticDatasetSpec
from spklab.encoder import ACTIVATIONS
from spklab.errors import ConfigError
from spklab.losses import CENTER_PENALTIES, KINDS
from spklab.scoring import SNORM_STD_MODES


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_list(convert):  # a comma- or space-separated list, each item read by `convert`
    return lambda raw: tuple(convert(v) for v in raw.replace(",", " ").split())


SCHEMA: dict[str, dict[str, object]] = {
    "dataset": {
        "n_speakers_train": int,
        "n_speakers_dev": int,
        "n_speakers_cohort": int,
        "n_speakers_test": int,
        "files_per_speaker": int,
        "chunks_per_file": int,
        "feature_dim": int,
        "intra_speaker_spread": float,
        "trials_per_speaker": int,
        "augment_snr_low": float,
        "augment_snr_high": float,
    },
    "encoder": {
        "hidden_dim": int,
        "embedding_dim": int,
        "activation": str,
    },
    "loss": {
        "kind": str,
        "alpha": float,
        "margin": float,
        "lambda": float,
        "center_penalty": str,
        "alpha_grid": _parse_list(float),
        "margin_grid": _parse_list(float),
        "lambda_grid": _parse_list(float),
    },
    "training": {
        "learning_rate": float,
        "epochs": int,
        "grid_epochs": int,
        "speakers_per_batch": int,
        "chunks_per_speaker": int,
        "augment_snr_low": float,
        "augment_snr_high": float,
        "lr_grid": _parse_list(float),
        "speakers_grid": _parse_list(int),
        "chunks_grid": _parse_list(int),
    },
    "eval": {
        "n_bootstrap": int,
        "top_n_candidates": _parse_list(int),
        "snorm_std": str,
        "compare_losses": _parse_list(str),
        "use_snorm": _parse_bool,
    },
}

_CHOICES = {
    ("encoder", "activation"): ACTIVATIONS,
    ("loss", "kind"): KINDS,
    ("loss", "center_penalty"): CENTER_PENALTIES,
    ("eval", "snorm_std"): SNORM_STD_MODES,
    ("eval", "compare_losses"): KINDS,
}


@dataclass
class Config:
    """Parsed configuration: {section: {key: typed value}}."""

    values: dict[str, dict[str, object]] = field(default_factory=dict)

    def get(self, section: str, key: str, default=None):
        return self.values.get(section, {}).get(key, default)

    def section(self, name: str) -> dict:
        return dict(self.values.get(name, {}))

    def field_values(self, cls: type, *sections: str) -> dict:
        """The values under `sections` whose key names a field of dataclass
        `cls`; `[loss] lambda` is the one key that names another field, `lam`."""
        names = {f.name for f in fields(cls)}
        values = {}
        for section in sections:
            for key, value in self.section(section).items():
                key = "lam" if key == "lambda" else key
                if key in names:
                    values[key] = value
        return values

    def snr_range(self, section: str) -> tuple[float, float] | None:
        lo = self.get(section, "augment_snr_low")
        hi = self.get(section, "augment_snr_high")
        if (lo is None) != (hi is None):
            raise ConfigError(
                f"[{section}] augment_snr_low and augment_snr_high must be set together"
            )
        if lo is None:
            return None
        return (lo, hi)


def parse_config(path) -> Config:
    """Read and validate a config file against the schema."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    values: dict[str, dict[str, object]] = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        section_schema = SCHEMA[section]
        out: dict[str, object] = {}
        for key, raw in parser.items(section):
            if key not in section_schema:
                raise ConfigError(f"{path}: unknown key {key!r} in section [{section}]")
            parse = section_schema[key]
            try:
                value = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"{path}: bad value for [{section}] {key}: {exc}") from exc
            if value == ():
                raise ConfigError(f"{path}: [{section}] {key} lists no values")
            choices = _CHOICES.get((section, key))
            listed = value if isinstance(value, tuple) else (value,)
            if choices is not None and any(v not in choices for v in listed):
                raise ConfigError(
                    f"{path}: [{section}] {key} must be one of {', '.join(choices)}"
                )
            out[key] = value
        values[section] = out
    return Config(values)


def empty_config() -> Config:
    return Config({})


def dataset_spec_from_config(config: Config, seed: int) -> SyntheticDatasetSpec:
    return SyntheticDatasetSpec(
        seed=seed, augment_snr_db=config.snr_range("dataset"),
        **config.field_values(SyntheticDatasetSpec, "dataset"),
    )
