"""breathsentinel: acoustic respiratory monitoring.

Pipeline: 8192 Hz audio -> 1/8 s frames -> 513-bin FFT magnitudes ->
autoencoder compression to 50 values -> many-to-one recurrent classifier
-> debounced breath events -> interval-statistics alarms (arrest bound
and trend t-test). Everything trains and evaluates on a built-in
synthetic breath corpus.
"""

from .autoencoder import AEParams, encode, init_ae, reconstruct, train_ae
from .corpus import Corpus, SplitPlan, augment_noise, load_corpus, make_split
from .dsp import AudioClip, dfft_magnitude, frame_signal, load_wav, normalize_spectrum, spectra
from .model_io import ModelBundle, load_model, save_model
from .rnn import RNNParams, advance, classify, evaluate, rnn_forward, train_rnn
from .stream import BreathEvent, PredictionFrame, infer_stream
from .synthgen import GroundTruth, ScenarioSpec, gen_clip, gen_corpus, gen_scenario
from .vigil import Alert, IntervalSeries, arrest_check, slope_check, t_quantile

__version__ = "0.1.0"

__all__ = [
    "AEParams", "Alert", "AudioClip", "BreathEvent", "Corpus", "GroundTruth",
    "IntervalSeries", "ModelBundle", "PredictionFrame", "RNNParams",
    "ScenarioSpec", "SplitPlan", "advance", "arrest_check", "augment_noise", "classify",
    "dfft_magnitude", "encode", "evaluate", "frame_signal",
    "gen_clip", "gen_corpus", "gen_scenario", "infer_stream", "init_ae",
    "load_corpus", "load_model", "load_wav", "make_split",
    "normalize_spectrum", "reconstruct", "rnn_forward", "save_model",
    "slope_check", "spectra", "t_quantile", "train_ae", "train_rnn",
]
