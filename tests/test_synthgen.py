import hashlib
import math

import numpy as np
import pytest

from breathsentinel import dsp, gen_clip, gen_corpus, gen_scenario, load_corpus
from breathsentinel.errors import ConfigError
from breathsentinel.synthgen import GroundTruth, ScenarioSpec, _unknown_signal


def spectral_centroid(clip):
    # central frames only: that is where the labeled burst sits; the clip
    # edges may carry fragments of neighbouring bursts from the cycle
    spectra = dsp.spectra(dsp.frame_signal(clip))[4:12].mean(axis=0)[:512]
    freqs = np.arange(512) * dsp.SAMPLE_RATE / dsp.FRAME_LEN
    return float(np.sum(freqs * spectra) / np.sum(spectra))


# --- clips ---

def test_clip_shape_and_peak():
    for kind in dsp.LABELS:
        clip = gen_clip(kind, seed=1)
        assert clip.samples.shape == (16384,)
        assert float(np.max(np.abs(clip.samples))) <= 0.8


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_exhale_centroid_below_inhale_centroid(seed):
    inhale = gen_clip("inhale", seed=seed)
    exhale = gen_clip("exhale", seed=seed)
    assert spectral_centroid(exhale) < spectral_centroid(inhale)


def test_near_silence_variant_is_quiet():
    rng = np.random.default_rng(0)
    x = _unknown_signal(rng, dsp.CLIP_SAMPLES, variant=0)
    assert float(np.sqrt(np.mean(x ** 2))) < 0.05


def test_clip_generation_deterministic():
    a = gen_clip("inhale", seed=99)
    b = gen_clip("inhale", seed=99)
    assert np.array_equal(a.samples, b.samples)


def test_gen_clip_rejects_unknown_kind():
    with pytest.raises(ValueError):
        gen_clip("sneeze", seed=0)


# --- corpus generation ---

def test_corpus_file_count_and_roundtrip(tmp_path):
    paths = gen_corpus(10, seed=12, out_dir=tmp_path)
    files = sorted(tmp_path.rglob("*.wav"))
    assert len(files) == 30 and sorted(paths) == files
    corpus = load_corpus(tmp_path)
    assert len(corpus) == 30 and corpus.load_errors == []
    again = load_corpus(tmp_path)
    assert again.fingerprint() == corpus.fingerprint()


def test_same_seed_gives_bit_identical_corpus(tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    gen_corpus(10, seed=5, out_dir=dir_a)
    gen_corpus(10, seed=5, out_dir=dir_b)
    for pa in sorted(dir_a.rglob("*.wav")):
        pb = dir_b / pa.relative_to(dir_a)
        assert hashlib.sha256(pa.read_bytes()).digest() == hashlib.sha256(pb.read_bytes()).digest()


def test_reference_scale_corpus_loads_balanced(tmp_path):
    assert len(gen_corpus(500, seed=1, out_dir=tmp_path)) == 1500
    assert len(list(tmp_path.rglob("*.wav"))) == 1500
    corpus = load_corpus(tmp_path)
    assert len(corpus) == 1500
    assert np.bincount(corpus.labels).tolist() == [500, 500, 500]
    assert corpus.load_errors == []


def test_too_few_per_class_rejected(tmp_path):
    with pytest.raises(ValueError):
        gen_corpus(9, seed=0, out_dir=tmp_path)


def test_too_few_per_class_is_a_config_error_that_writes_nothing(tmp_path):
    with pytest.raises(ConfigError, match="per-class=5: must be >= 10"):
        gen_corpus(5, seed=0, out_dir=tmp_path / "corpus")
    assert list(tmp_path.iterdir()) == []


# --- scenarios ---

def test_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(kind="chaos")
    with pytest.raises(ValueError):
        ScenarioSpec(kind="normal", base_period=0.5)
    with pytest.raises(ValueError):
        ScenarioSpec(kind="arrest", duration=30.0, onset=60.0)
    with pytest.raises(ValueError):
        ScenarioSpec(kind="decrement", decrement_rate=0.5)


@pytest.mark.parametrize("fields", [
    {"duration": math.inf},
    {"duration": math.nan},
    {"jitter_sd": math.nan},
    {"base_period": math.nan},
    {"base_period": math.inf},
    {"noise_floor": math.nan},
    {"onset": -math.inf},
    {"onset": -10.0, "duration": -5.0},
    {"onset": -10.0, "duration": 0.0},
    {"duration": 3601.0},
], ids=repr)
def test_spec_rejects_non_finite_and_empty_scenarios(fields):
    with pytest.raises(ValueError):
        ScenarioSpec(kind="normal", **fields)


def test_spec_errors_are_config_errors_and_value_errors():
    with pytest.raises(ConfigError, match="duration") as caught:
        ScenarioSpec(kind="normal", duration=-1)
    assert isinstance(caught.value, ValueError)


def test_arrest_scenario_has_no_breaths_after_onset():
    spec = ScenarioSpec(kind="arrest", duration=120.0, onset=60.0, seed=2)
    clip, truth = gen_scenario(spec)
    assert clip.samples.size == 120 * 8192
    assert truth.onsets
    assert truth.onsets[-1][0] < 60.0


def test_decrement_gaps_strictly_increase_after_onset():
    spec = ScenarioSpec(kind="decrement", duration=150.0, onset=60.0, seed=3)
    _, truth = gen_scenario(spec)
    inhales = [t for t, k in truth.onsets if k == "inhale" and t >= 60.0]
    gaps = np.diff(inhales)
    assert len(gaps) >= 3
    assert np.all(gaps[1:] > gaps[:-1])


def test_normal_scenario_cycle_count():
    spec = ScenarioSpec(kind="normal", duration=300.0, seed=4)
    _, truth = gen_scenario(spec)
    inhales = [t for t, k in truth.onsets if k == "inhale"]
    assert 115 <= len(inhales) <= 125  # 300 s / 2.5 s = 120 +- jitter


@pytest.mark.parametrize("seed", [4, 12, 14, 15, 16, 26, 29])
def test_a_burst_jittered_before_zero_is_left_out_and_breathing_goes_on(seed):
    # at these seeds an early burst lands before 0 s; only that burst is dropped
    spec = ScenarioSpec(kind="normal", duration=30.0, onset=15.0, jitter_sd=2.0, seed=seed)
    _, truth = gen_scenario(spec)
    inhales = [t for t, k in truth.onsets if k == "inhale"]
    assert len(inhales) >= 9
    assert inhales[-1] > 24.0
    assert all(0.0 <= t < spec.duration for t, _ in truth.onsets)


def test_cycles_alternate_inhale_exhale():
    _, truth = gen_scenario(ScenarioSpec(kind="normal", duration=60.0, onset=30.0, seed=5))
    kinds = [k for _, k in truth.onsets]
    for a, b in zip(kinds, kinds[1:]):
        assert a != b
    assert kinds[0] == "inhale"


def test_every_onset_carries_a_burst():
    spec = ScenarioSpec(kind="normal", duration=60.0, onset=30.0, seed=6)
    clip, truth = gen_scenario(spec)
    floor_rms = spec.noise_floor / np.sqrt(3)  # uniform noise rms
    for t, _ in truth.onsets:
        start = int(t * dsp.SAMPLE_RATE)
        window = clip.samples[start:start + dsp.SAMPLE_RATE // 2]
        assert np.sqrt(np.mean(window ** 2)) > 3 * floor_rms


def test_scenario_deterministic_per_seed():
    spec = ScenarioSpec(kind="normal", duration=30.0, onset=15.0, seed=7)
    a_clip, a_truth = gen_scenario(spec)
    b_clip, b_truth = gen_scenario(spec)
    assert np.array_equal(a_clip.samples, b_clip.samples)
    assert a_truth.onsets == b_truth.onsets


def test_ground_truth_validation():
    with pytest.raises(ValueError):
        GroundTruth(onsets=((1.0, "inhale"), (0.5, "exhale")))
    with pytest.raises(ValueError):
        GroundTruth(onsets=((1.0, "cough"),))
