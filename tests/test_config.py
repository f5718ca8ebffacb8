import pytest

from breathsentinel.config import RunConfig, parse_config
from breathsentinel.errors import ConfigError
from breathsentinel.vigil import TREND_MIN_INTERVALS


def test_defaults_mirror_detection_thresholds():
    cfg = RunConfig().validate()
    assert cfg.confidence == 0.99
    assert cfg.run_length == 3
    assert cfg.interval_window == 20
    assert cfg.trend_alpha == 0.05
    assert cfg.ci_level == 0.80


def test_load_simple_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nseed = 9\nrnn_epochs=5\nnoise_aug=false\n\n")
    cfg = parse_config(path).validate()
    assert cfg.seed == 9
    assert cfg.rnn_epochs == 5
    assert cfg.noise_aug is False


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("learning_speed=0.1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(path).validate()


def test_unparseable_value_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed=fast\n")
    with pytest.raises(ConfigError):
        parse_config(path).validate()


def test_non_utf8_file_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"seed=\xff\xfe\n")
    with pytest.raises(ConfigError, match="UTF-8"):
        parse_config(path).validate()


def test_missing_equals_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed 9\n")
    with pytest.raises(ConfigError):
        parse_config(path).validate()


@pytest.mark.parametrize("line", [
    "confidence=0.3",
    "run_length=0",
    "interval_window=3",
    "interval_window=7",
    "trend_alpha=0.9",
    "trend_alpha=0.5",
    "ci_level=0.2",
    "rnn_hidden=64",
    "ae_learning_rate=0",
    "ae_learning_rate=inf",
    "rnn_learning_rate=inf",
])
def test_out_of_range_values_rejected(tmp_path, line):
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n")
    with pytest.raises(ConfigError):
        parse_config(path).validate()


def test_interval_window_floor_is_what_the_trend_test_needs():
    RunConfig(interval_window=TREND_MIN_INTERVALS).validate()
    with pytest.raises(ConfigError, match="trend test"):
        RunConfig(interval_window=TREND_MIN_INTERVALS - 1).validate()
