"""Exception types shared across the toolkit.

A file operation the OS refuses stays an OSError, which names its path.
"""


class BreathSentinelError(Exception):
    """Base class for every error this package raises on purpose."""


# --- audio loading / DSP ---

class NotWav(BreathSentinelError):
    """File is not a RIFF/WAVE container."""


class UnsupportedFormat(BreathSentinelError):
    """WAV container is valid but the encoding is not PCM s16le mono 8192 Hz."""


class EmptyClip(BreathSentinelError):
    """Clip is too short to produce a single frame."""


class NegativeMagnitude(BreathSentinelError):
    """A magnitude vector contained negative values (upstream bug)."""


# --- optimization / networks ---

class ShapeMismatch(BreathSentinelError):
    """Parameter, gradient, and accumulator shapes disagree."""


class NonFiniteActivation(BreathSentinelError):
    """A forward pass produced NaN or infinity."""


class DivergedLoss(BreathSentinelError):
    """Training diverged: its loss became non-finite, or its weights overflow float32."""


# --- corpus ---

class EmptyClass(BreathSentinelError):
    """A corpus class directory holds no usable clips."""


class CorpusTooSmall(BreathSentinelError):
    """Corpus has too few clips for the split sizes."""


class EmptyEvalSet(BreathSentinelError):
    """Evaluation was asked to score zero clips."""


# --- streaming / statistics ---

class OutOfOrderPrediction(BreathSentinelError):
    """Predictions must arrive in strictly increasing time order."""


class NonMonotonicTime(BreathSentinelError):
    """A breath event does not advance the clock."""


class DomainError(BreathSentinelError):
    """Statistical function called outside its valid domain."""


# --- model files ---

class BadMagic(BreathSentinelError):
    """Model file does not start with the expected magic bytes."""


class VersionMismatch(BreathSentinelError):
    """Model file was written by an incompatible format version."""


class TruncatedFile(BreathSentinelError):
    """Model file ended in the middle of a field."""


class CorruptModel(BreathSentinelError):
    """Model file is framed correctly but its contents are invalid."""


# --- settings ---

class ConfigError(BreathSentinelError, ValueError):
    """A setting is unknown, unparseable or out of range; also a ValueError."""
