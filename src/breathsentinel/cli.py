"""Command-line workflows: synthesis, training, evaluation, monitoring.

One binary with subcommands so the whole pipeline stays reproducible from
a config and a seed. Exit codes: 0 success, 1 runtime failure, 2 simulate
run with a fired alert, 64 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import re
import sys
from pathlib import Path
from typing import Iterator

import numpy as np

from . import dsp
from .autoencoder import train_ae
from .config import RunConfig, parse_config
from .corpus import Corpus, load_corpus, make_split
from .errors import BreathSentinelError, ConfigError, CorruptModel
from .model_io import ModelBundle, load_model, save_model
from .rnn import WINDOW_FRAMES, evaluate, init_rnn, train_rnn
from .stream import BreathEvent, infer_stream, match_events
from .synthgen import SCENARIO_KINDS, ScenarioSpec, gen_corpus, gen_scenario
from .vigil import Alert, run_detection

EX_OK = 0
EX_RUNTIME = 1
EX_ALERT = 2
EX_USAGE = 64
MATCH_TOLERANCE = 1.0  # seconds between an aligned event and its truth onset in simulate


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 64.

    A word that spells a negative number, in exponent form too (-1e3,
    -1E-3, -.5e2), is read as a value, not as an option; the stock pattern
    of Python 3.11 takes only forms like -5 and -0.5. Subparsers are made
    of the same class, so every subcommand reads numbers alike.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _resolve_config(args) -> RunConfig:
    """defaults < --config file < explicit flags.

    Every flag that sets a run setting stores under its RunConfig field
    name; a flag left out is None and keeps the file's or default value.
    Only the merged settings are range-checked, so a flag can replace a bad file value.
    """
    cfg = parse_config(args.config) if args.config else RunConfig()
    for field in dataclasses.fields(RunConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            setattr(cfg, field.name, value)
    return cfg.validate()


_PATH_FLAGS = {"corpus_dir": "--corpus", "model_path": "--model"}


def _required_path(args, cfg: RunConfig, field: str) -> str:
    """The resolved path setting `field`; a usage error when neither flag nor file set it."""
    value = getattr(cfg, field)
    if not value:
        print(f"usage: breathsentinel {args.command}: {_PATH_FLAGS[field]} is required "
              f"(or set {field} in the config file)", file=sys.stderr)
        raise SystemExit(EX_USAGE)
    return value


def _load_corpus(args, cfg: RunConfig) -> Corpus:
    """The resolved corpus, with one `skipped,<error>` stderr line per unusable file."""
    corpus = load_corpus(_required_path(args, cfg, "corpus_dir"))
    for err in corpus.load_errors:
        print(f"skipped,{err}", file=sys.stderr)
    return corpus


def _load_detector(args, cfg: RunConfig) -> ModelBundle:
    """The bundle eval, monitor and simulate run; warns when its classifier never trained."""
    path = _required_path(args, cfg, "model_path")
    bundle = load_model(path)
    if bundle.metadata.get("rnn_epochs") == "0":
        print(f"warning: {path}: the classifier is untrained (rnn_epochs=0); "
              f"train it with train-rnn first", file=sys.stderr)
    return bundle


@contextlib.contextmanager
def _claimed(*paths):
    """Claim the output files (`None` skipped) before the work of the `with` block.

    Append mode: a refused path fails here and an existing file keeps its bytes.
    If the block raises, the files created here are removed. Two outputs naming
    one file, through a symlink or a hard link too, are a ConfigError.
    """
    paths = [path for path in paths if path is not None]
    if len({_file_identity(path) for path in paths}) < len(paths):
        raise ConfigError(f"{' and '.join(paths)} name one file; give each output its own path")
    created = [Path(path) for path in paths if not Path(path).exists()]
    try:
        for path in paths:
            open(path, "ab").close()
        yield
    except BaseException:
        for path in created:
            path.unlink(missing_ok=True)
        raise


def _file_identity(path):
    """(device, inode) of an existing file, which its hard links share; else the resolved path."""
    try:
        stat = os.stat(path)
    except OSError:
        return Path(path).resolve()
    return stat.st_dev, stat.st_ino


def _format_line(item) -> str:
    if isinstance(item, BreathEvent):
        return f"{item.time:.3f},{item.kind}"
    return f"{item.time:.3f},{item.kind},{item.statistic:.6f},{item.threshold:.6f}"


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth_corpus(args, cfg: RunConfig) -> int:
    gen_corpus(args.per_class, cfg.seed, args.out)
    for label in dsp.LABELS:
        print(f"{label},{args.per_class}")
    return EX_OK


def cmd_synth_scenario(args, cfg: RunConfig) -> int:
    spec = _scenario_spec(args, cfg)
    with _claimed(args.out, args.truth):
        clip, truth = gen_scenario(spec)
        dsp.write_wav(args.out, clip.samples)
        Path(args.truth).write_text(truth.to_csv())
    print(f"scenario,{spec.kind}")
    print(f"wav,{Path(args.out)}")
    print(f"truth,{Path(args.truth)}")
    return EX_OK


def _scenario_spec(args, cfg: RunConfig) -> ScenarioSpec:
    """ScenarioSpec from the scenario flags given; the others keep ScenarioSpec's defaults."""
    given = {field.name: getattr(args, field.name) for field in dataclasses.fields(ScenarioSpec)
             if field.name not in ("kind", "seed") and getattr(args, field.name) is not None}
    if args.kind == "normal":
        given.setdefault("duration", 300.0)
        given.setdefault("onset", min(60.0, given["duration"] / 2))  # normal ignores it
    return ScenarioSpec(kind=args.kind, seed=cfg.seed, **given)


def cmd_train_ae(args, cfg: RunConfig) -> int:
    corpus = _load_corpus(args, cfg)
    with _claimed(args.out):
        spectra = np.empty((len(corpus), WINDOW_FRAMES, dsp.SPECTRUM_BINS))
        for start, block in corpus.blocks(range(len(corpus))):
            spectra[start:start + len(block)] = dsp.spectra(
                block.reshape(len(block), -1, dsp.FRAME_LEN))
        spectra = spectra.reshape(-1, dsp.SPECTRUM_BINS)
        ae_params, trace = train_ae(spectra, cfg)
        bundle = ModelBundle(
            ae=ae_params,
            rnn=init_rnn(cfg.seed, cfg.rnn_hidden),
            metadata={
                "seed": str(cfg.seed),
                "ae_epochs": str(cfg.ae_epochs),
                "ae_loss_final": f"{trace[-1]:.10f}" if trace else "",
                "rnn_epochs": "0",
                "rnn_hidden": str(cfg.rnn_hidden),
                "corpus_fingerprint": corpus.fingerprint(),
            })
        save_model(bundle, args.out)
    print(f"frames,{spectra.shape[0]}")
    print(f"ae_epochs,{cfg.ae_epochs}")
    if trace:
        print(f"ae_loss_first,{trace[0]:.10f}")
        print(f"ae_loss_final,{trace[-1]:.10f}")
    print(f"model,{args.out}")
    return EX_OK


def cmd_train_rnn(args, cfg: RunConfig) -> int:
    corpus = _load_corpus(args, cfg)
    bundle = load_model(_required_path(args, cfg, "model_path"))
    with _claimed(args.out):
        rnn_params, trace = train_rnn(corpus, bundle.ae, cfg)
        metadata = dict(bundle.metadata)
        metadata.update({
            "seed": str(cfg.seed),
            "rnn_epochs": str(cfg.rnn_epochs),
            "rnn_hidden": str(cfg.rnn_hidden),
            "noise_aug": str(cfg.noise_aug).lower(),
            "corpus_fingerprint": corpus.fingerprint(),
        })
        metadata.pop("rnn_val_accuracy_final", None)  # a parent's, when no epoch ran
        if trace:
            metadata["rnn_val_accuracy_final"] = f"{trace[-1].val_accuracy:.6f}"
        out_bundle = ModelBundle(ae=bundle.ae, rnn=rnn_params, metadata=metadata)
        save_model(out_bundle, args.out)
    print(f"rnn_epochs,{cfg.rnn_epochs}")
    if trace:
        print(f"rnn_loss_final,{trace[-1].train_loss:.10f}")
        print(f"rnn_val_accuracy_final,{trace[-1].val_accuracy:.6f}")
    print(f"model,{args.out}")
    return EX_OK


def _bundle_seed(path: str, raw: str) -> int:
    """The training seed a bundle records; a non-negative decimal integer."""
    try:
        if raw.isascii() and raw.isdigit():
            return int(raw)
    except ValueError:  # more digits than int() converts
        pass
    raise CorruptModel(f"{path}: metadata seed={raw!r} is not a non-negative integer")


def cmd_eval(args, cfg: RunConfig) -> int:
    bundle = _load_detector(args, cfg)
    # the split the bundle was trained on, unless a seed is given explicitly
    seed = cfg.seed
    if args.seed is None and "seed" in bundle.metadata:
        seed = _bundle_seed(cfg.model_path, bundle.metadata["seed"])
    corpus = _load_corpus(args, cfg)
    rows = make_split(corpus, seed).test_rows
    metrics = evaluate(bundle.rnn, bundle.ae, corpus, rows)
    print(f"clips,{len(rows)}")
    print(f"accuracy,{metrics.accuracy:.6f}")
    for label in dsp.LABELS:
        print(f"f1_{label},{metrics.f1[label]:.6f}")
    print(f"macro_f1,{metrics.macro_f1:.6f}")
    for i, label in enumerate(dsp.LABELS):
        row = ",".join(str(int(v)) for v in metrics.confusion[i])
        print(f"confusion_{label},{row}")
    return EX_OK


def cmd_monitor(args, cfg: RunConfig) -> int:
    bundle = _load_detector(args, cfg)
    if args.input == "-":
        _monitor(cfg, bundle, dsp.pcm_frames(sys.stdin.buffer))
    else:
        path = Path(args.input)
        with path.open("rb") as wav:
            _monitor(cfg, bundle, dsp.wav_frames(wav, path))
    return EX_OK


def _monitor(cfg: RunConfig, bundle: ModelBundle, frames: Iterator[np.ndarray]) -> None:
    for item in run_detection(infer_stream(bundle.ae, bundle.rnn, frames), cfg):
        print(_format_line(item), flush=True)


def cmd_simulate(args, cfg: RunConfig) -> int:
    bundle = _load_detector(args, cfg)
    spec = _scenario_spec(args, cfg)
    with _claimed(args.report):
        clip, truth = gen_scenario(spec)
        events: list[BreathEvent] = []
        alerts: list[Alert] = []
        for item in run_detection(infer_stream(bundle.ae, bundle.rnn, dsp.frame_signal(clip)), cfg):
            (events if isinstance(item, BreathEvent) else alerts).append(item)
        report = simulate_report(spec, truth, events, alerts)
        if args.report:
            Path(args.report).write_text(report)
        else:
            sys.stdout.write(report)
    return EX_ALERT if alerts else EX_OK


def simulate_report(spec: ScenarioSpec, truth, events: list[BreathEvent],
                    alerts: list[Alert]) -> str:
    """Deterministic CSV-like detection-latency report for one scenario run.

    Alert latency is measured from the last ground-truth breath for arrest
    alerts and from the scenario onset for trend alerts.
    """
    match = match_events(events, truth.onsets, tolerance=MATCH_TOLERANCE)
    last_breath = truth.onsets[-1][0] if truth.onsets else 0.0
    lines = [
        "report,simulate",
        f"scenario,{spec.kind}",
        f"seed,{spec.seed}",
        f"duration_s,{spec.duration:.6f}",
        f"onset_s,{spec.onset:.6f}",
        f"base_period_s,{spec.base_period:.6f}",
        f"jitter_sd_s,{spec.jitter_sd:.6f}",
        f"decrement_rate,{spec.decrement_rate:.6f}",
        f"noise_floor,{spec.noise_floor:.6f}",
        f"tolerance_s,{MATCH_TOLERANCE:.6f}",
        f"truth_breaths,{match.truth_count}",
        f"events_detected,{match.event_count}",
        f"matched,{match.matched}",
        f"false_positives,{match.false_positives}",
        f"recall,{match.recall:.6f}",
        f"median_lead_s,{match.median_lead:.6f}",
        f"last_truth_breath_s,{last_breath:.6f}",
        f"alerts,{len(alerts)}",
    ]
    for alert in alerts:
        latency = alert.time - (last_breath if alert.kind == "arrest" else spec.onset)
        lines.append(f"alert,{alert.kind},{alert.time:.6f},{alert.statistic:.6f},"
                     f"{alert.threshold:.6f},{latency:.6f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parser wiring

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", type=int, help="override the config seed")


def _add_scenario_flags(parser: argparse.ArgumentParser, kind_flag: str) -> None:
    parser.add_argument(kind_flag, dest="kind", required=True, choices=SCENARIO_KINDS)
    parser.add_argument("--duration", type=float, help="seconds (default 300 normal, 120 otherwise)")
    parser.add_argument("--onset", type=float)
    parser.add_argument("--base-period", dest="base_period", type=float)
    parser.add_argument("--jitter-sd", dest="jitter_sd", type=float)
    parser.add_argument("--decrement-rate", dest="decrement_rate", type=float)
    parser.add_argument("--noise-floor", dest="noise_floor", type=float)


def _add_detection_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--confidence", type=float, help="debounce confidence threshold")
    parser.add_argument("--run-length", dest="run_length", type=int)
    parser.add_argument("--interval-window", dest="interval_window", type=int)
    parser.add_argument("--trend-alpha", dest="trend_alpha", type=float)
    parser.add_argument("--ci-level", dest="ci_level", type=float)
    parser.add_argument("--refractory", type=float)


def build_parser() -> _Parser:
    parser = _Parser(prog="breathsentinel",
                     description="Breath monitoring pipeline: synthesis, training, detection.")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate synthetic data")
    synth_sub = synth.add_subparsers(dest="synth_what", required=True)

    sc = synth_sub.add_parser("corpus", help="write a labeled training corpus")
    sc.add_argument("--out", required=True)
    sc.add_argument("--per-class", dest="per_class", type=int, default=150)
    _add_common(sc)
    sc.set_defaults(func=cmd_synth_corpus)

    ss = synth_sub.add_parser("scenario", help="write a continuous scenario WAV + truth CSV")
    ss.add_argument("--out", required=True)
    ss.add_argument("--truth", required=True)
    _add_scenario_flags(ss, "--kind")
    _add_common(ss)
    ss.set_defaults(func=cmd_synth_scenario)

    ta = sub.add_parser("train-ae", help="train the spectral compressor")
    ta.add_argument("--corpus", dest="corpus_dir")
    ta.add_argument("--out", required=True)
    ta.add_argument("--epochs", dest="ae_epochs", type=int)
    ta.add_argument("--lr", dest="ae_learning_rate", type=float)
    ta.add_argument("--batch", dest="ae_batch", type=int)
    _add_common(ta)
    ta.set_defaults(func=cmd_train_ae)

    tr = sub.add_parser("train-rnn", help="train the breath classifier on a frozen compressor")
    tr.add_argument("--corpus", dest="corpus_dir")
    tr.add_argument("--model", dest="model_path", help="bundle holding the trained compressor")
    tr.add_argument("--out", required=True)
    tr.add_argument("--epochs", dest="rnn_epochs", type=int)
    tr.add_argument("--lr", dest="rnn_learning_rate", type=float)
    tr.add_argument("--hidden", dest="rnn_hidden", type=int)
    aug = tr.add_mutually_exclusive_group()
    aug.add_argument("--noise-aug", dest="noise_aug", action="store_true", default=None)
    aug.add_argument("--no-noise-aug", dest="noise_aug", action="store_false", default=None)
    _add_common(tr)
    tr.set_defaults(func=cmd_train_rnn)

    ev = sub.add_parser("eval", help="discrete metrics on the isolated test split")
    ev.add_argument("--model", dest="model_path")
    ev.add_argument("--corpus", dest="corpus_dir")
    _add_common(ev)
    ev.set_defaults(func=cmd_eval)

    mo = sub.add_parser("monitor", help="stream events and alerts from a WAV file or stdin")
    mo.add_argument("--model", dest="model_path")
    mo.add_argument("--input", required=True, help="WAV path, or '-' for raw PCM on stdin")
    _add_detection_flags(mo)
    _add_common(mo)
    mo.set_defaults(func=cmd_monitor)

    si = sub.add_parser("simulate", help="run a scenario end to end and report latencies")
    si.add_argument("--model", dest="model_path")
    _add_scenario_flags(si, "--scenario")
    si.add_argument("--report", help="write the report here instead of stdout")
    _add_detection_flags(si)
    _add_common(si)
    si.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, _resolve_config(args))
    except SystemExit as exc:
        return int(exc.code) if exc.code else EX_OK
    except BrokenPipeError:
        # downstream consumer (head, less, ...) closed the stream; also
        # hand stdout a sink so the interpreter's final flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EX_OK
    except (BreathSentinelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
