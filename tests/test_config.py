"""Config parsing: typed keys, strict validation, dataset spec wiring."""

from pathlib import Path

import pytest

from spklab.config import Config, dataset_spec_from_config, empty_config, parse_config
from spklab.errors import ConfigError

GOOD = """
[dataset]
n_speakers_train = 12
feature_dim = 8
intra_speaker_spread = 0.4

[encoder]
hidden_dim = 24
activation = identity

[loss]
kind = contrastive
margin = 0.2
alpha_grid = 5, 10, 20

[training]
learning_rate = 0.1
epochs = 4
lr_grid = 0.001 0.01 0.1
speakers_grid = 20, 40

[eval]
n_bootstrap = 250
snorm_std = sample
compare_losses = ce, aam
use_snorm = true
"""


def write(tmp_path, text):
    path = tmp_path / "conf.cfg"
    path.write_text(text)
    return path


class TestParse:
    def test_typed_values(self, tmp_path):
        config = parse_config(write(tmp_path, GOOD))
        assert config.get("dataset", "n_speakers_train") == 12
        assert config.get("dataset", "intra_speaker_spread") == 0.4
        assert config.get("encoder", "activation") == "identity"
        assert config.get("loss", "alpha_grid") == (5.0, 10.0, 20.0)
        assert config.get("training", "lr_grid") == (0.001, 0.01, 0.1)
        assert config.get("training", "speakers_grid") == (20, 40)
        assert config.get("eval", "compare_losses") == ("ce", "aam")
        assert config.get("eval", "use_snorm") is True
        assert config.get("eval", "snorm_std") == "sample"

    def test_defaults_for_absent_keys(self, tmp_path):
        config = parse_config(write(tmp_path, "[training]\nepochs = 2\n"))
        assert config.get("training", "epochs") == 2
        assert config.get("training", "learning_rate") is None
        assert config.get("loss", "kind", "aam") == "aam"

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(write(tmp_path, "[optimizer]\nlr = 1\n"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(write(tmp_path, "[training]\nlearningrate = 1\n"))

    def test_bad_value_type(self, tmp_path):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config(write(tmp_path, "[training]\nepochs = soon\n"))

    def test_bad_choice(self, tmp_path):
        with pytest.raises(ConfigError, match="must be one of"):
            parse_config(write(tmp_path, "[loss]\nkind = hingeloss\n"))
        with pytest.raises(ConfigError, match="must be one of"):
            parse_config(write(tmp_path, "[encoder]\nactivation = relu\n"))

    def test_readme_example_parses(self, tmp_path):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        config = parse_config(write(tmp_path, block))
        assert config.get("dataset", "n_speakers_train") == 50
        assert config.get("loss", "kind") == "aam"
        assert config.get("training", "chunks_per_speaker") == 1
        assert config.get("eval", "snorm_std") == "population"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "nope.cfg")

    def test_empty_config(self):
        config = empty_config()
        assert config.get("loss", "kind") is None
        assert config.section("training") == {}


class TestSnrRange:
    def test_pair_parsed(self, tmp_path):
        config = parse_config(write(
            tmp_path, "[training]\naugment_snr_low = 10\naugment_snr_high = 20\n"
        ))
        assert config.snr_range("training") == (10.0, 20.0)
        assert config.snr_range("dataset") is None

    def test_half_pair_rejected(self, tmp_path):
        config = parse_config(write(tmp_path, "[dataset]\naugment_snr_low = 10\n"))
        with pytest.raises(ConfigError, match="together"):
            config.snr_range("dataset")


class TestDatasetSpecWiring:
    def test_spec_from_config(self, tmp_path):
        config = parse_config(write(tmp_path, """
[dataset]
n_speakers_train = 6
n_speakers_dev = 2
n_speakers_cohort = 3
n_speakers_test = 2
feature_dim = 8
intra_speaker_spread = 0.5
augment_snr_low = 12
augment_snr_high = 18
"""))
        spec = dataset_spec_from_config(config, seed=9)
        assert spec.n_speakers_train == 6
        assert spec.feature_dim == 8
        assert spec.seed == 9
        assert spec.augment_snr_db == (12.0, 18.0)

    def test_defaults_without_section(self):
        spec = dataset_spec_from_config(Config({}), seed=3)
        assert spec.n_speakers_train == 50
        assert spec.seed == 3
        assert spec.augment_snr_db is None
