"""Binary model bundle: both networks plus training metadata in one file.

Layout of format 2 (all integers unsigned 32-bit little-endian):

    magic "BSM1" (4 bytes)
    format version (2)
    13 tensors in the field order of AEParams, then of RNNParams:
        rank (at most 2), then one dim per rank, then values as IEEE-754 float32
        little-endian in row-major order; the compressor's first and last
        layers are (513, 256) and (256, 513), over half spectra
    metadata byte length, then that many bytes of UTF-8 "key=value"
    lines sorted by key, and nothing after them

Values are stored as float32; loading widens them back to float64
exactly, so save -> load -> save reproduces the file byte for byte.

Format 1 has the same layout around a compressor over the full 1024-bin
spectrum, in which bin 1024-k repeats bin k: `enc_w1` is (1024, 256),
`dec_w2` (256, 1024) and `dec_b2` (1024,). It still loads. The rows of
`enc_w1` for bins k and 1024-k are summed in float64, which gives the
same codes on half spectra; the matching `dec_w2` columns and `dec_b2`
entries are averaged, which only reconstructions see. Saving always
writes format 2.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import autoencoder, rnn
from .dsp import FRAME_LEN, SPECTRUM_BINS
from .errors import BadMagic, CorruptModel, DivergedLoss, TruncatedFile, VersionMismatch

MAGIC = b"BSM1"
FORMAT_VERSION = 2
MAX_RANK = 2  # every tensor is a weight matrix or a bias vector
V1_SHAPES = {"ae.enc_w1": (FRAME_LEN, autoencoder.DIMS[1]),
             "ae.dec_w2": (autoencoder.DIMS[3], FRAME_LEN), "ae.dec_b2": (FRAME_LEN,)}

TENSOR_ORDER = tuple(f"{prefix}.{f.name}" for prefix, cls in
                     (("ae", autoencoder.AEParams), ("rnn", rnn.RNNParams)) for f in fields(cls))


@dataclass
class ModelBundle:
    """A trained (or freshly initialized) model pair plus provenance strings."""

    ae: autoencoder.AEParams
    rnn: rnn.RNNParams
    metadata: dict[str, str] = field(default_factory=dict)

    def tensor(self, name: str) -> np.ndarray:
        prefix, attr = name.split(".", 1)
        return getattr(self.ae if prefix == "ae" else self.rnn, attr)


def save_model(bundle: ModelBundle, path) -> None:
    """Serialize a bundle; bit-identical for identical contents.

    A tensor with a value outside the float32 range (training that ran
    away, as with a huge learning rate) raises DivergedLoss before any
    byte is written, since load_model would reject the file.
    """
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<I", FORMAT_VERSION)
    for name in TENSOR_ORDER:
        with np.errstate(over="ignore"):
            arr = np.ascontiguousarray(bundle.tensor(name), dtype="<f4")
        if not np.isfinite(arr).all():
            largest = float(np.max(np.abs(bundle.tensor(name))))
            raise DivergedLoss(f"{path}: not written: tensor {name} has a value of magnitude "
                               f"{largest:.3g}, outside the float32 range; training diverged "
                               f"(try a smaller learning rate)")
        buf += struct.pack("<I", arr.ndim)
        for dim in arr.shape:
            buf += struct.pack("<I", dim)
        buf += arr.tobytes()
    for key, value in bundle.metadata.items():
        if "=" in key or "\n" in key or "\n" in value:
            raise ValueError(f"metadata entry {key!r} contains '=' or newline")
    meta = "".join(f"{k}={v}\n" for k, v in sorted(bundle.metadata.items())).encode("utf-8")
    buf += struct.pack("<I", len(meta))
    buf += meta
    Path(path).write_bytes(bytes(buf))


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.path = path
        self.pos = 0

    def take(self, n: int, context: str) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedFile(f"{self.path}: file ended while reading {context} "
                                f"(needed {n} bytes at offset {self.pos})")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u32(self, context: str) -> int:
        return struct.unpack("<I", self.take(4, context))[0]


def load_model(path) -> ModelBundle:
    """Read a bundle back; tensors come out float64 with exact float32 values."""
    reader = _Reader(Path(path).read_bytes(), path)
    magic = reader.take(4, "magic")
    if magic != MAGIC:
        raise BadMagic(f"{path}: magic {magic!r} is not {MAGIC!r}")
    version = reader.u32("format version")
    if version not in (1, FORMAT_VERSION):
        raise VersionMismatch(f"{path}: format version {version}, expected 1 or {FORMAT_VERSION}")

    tensors: dict[str, np.ndarray] = {}
    for name in TENSOR_ORDER:
        rank = reader.u32(f"tensor {name} rank")
        if rank > MAX_RANK:
            raise CorruptModel(f"{path}: tensor {name} has rank {rank}, at most {MAX_RANK}")
        dims = [reader.u32(f"tensor {name} dims") for _ in range(rank)]
        raw = reader.take(4 * math.prod(dims), f"tensor {name} values")
        tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).astype(np.float64)

    meta_len = reader.u32("metadata length")
    meta_bytes = reader.take(meta_len, "metadata")
    trailing = len(reader.data) - reader.pos
    if trailing:
        raise CorruptModel(f"{path}: {trailing} unexpected bytes after the metadata")
    try:
        meta_raw = meta_bytes.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptModel(f"{path}: metadata is not valid UTF-8 ({exc})") from exc
    metadata = {}
    for line in meta_raw.splitlines():
        key, _, value = line.partition("=")
        metadata[key] = value

    if version == 1:
        _from_v1(tensors, path)
    try:
        ae_params = autoencoder.AEParams.from_dict(
            {name.split(".", 1)[1]: arr for name, arr in tensors.items() if name.startswith("ae.")})
        rnn_params = rnn.RNNParams.from_dict(
            {name.split(".", 1)[1]: arr for name, arr in tensors.items() if name.startswith("rnn.")})
    except ValueError as exc:
        raise CorruptModel(f"{path}: {exc}") from exc
    return ModelBundle(ae=ae_params, rnn=rnn_params, metadata=metadata)


def _from_v1(tensors: dict[str, np.ndarray], path) -> None:
    """Bring a format-1 compressor's 1024-bin first and last layers to 513 bins, in place."""
    for name, shape in V1_SHAPES.items():
        if tensors[name].shape != shape:
            raise CorruptModel(f"{path}: format 1 tensor {name} must have shape {shape}, "
                               f"got {tensors[name].shape}")
    w1 = tensors["ae.enc_w1"]
    enc_w1 = w1[:SPECTRUM_BINS].copy()
    enc_w1[1:-1] += w1[SPECTRUM_BINS:][::-1]
    tensors["ae.enc_w1"] = enc_w1
    for name in ("ae.dec_w2", "ae.dec_b2"):
        full = tensors[name]
        half = full[..., :SPECTRUM_BINS].copy()
        half[..., 1:-1] = (half[..., 1:-1] + full[..., SPECTRUM_BINS:][..., ::-1]) / 2
        tensors[name] = half
