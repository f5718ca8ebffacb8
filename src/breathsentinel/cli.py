"""Command-line workflows: synthesis, training, evaluation, monitoring.

One binary with subcommands so the whole pipeline stays reproducible from
a config and a seed. Exit codes: 0 success, 1 runtime failure, 2 simulate
run with a fired alert, 64 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Iterator

import numpy as np

from . import dsp
from .autoencoder import AETrainConfig, train_ae
from .config import RunConfig, load_config
from .corpus import load_corpus, make_split
from .errors import BreathSentinelError
from .model_io import ModelBundle, load_model, save_model
from .rnn import RNNTrainConfig, evaluate, init_rnn, train_rnn
from .stream import BreathEvent, infer_stream, match_events
from .synthgen import ScenarioSpec, gen_corpus, gen_scenario, write_scenario
from .vigil import Alert, run_detection

EX_OK = 0
EX_RUNTIME = 1
EX_ALERT = 2
EX_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _resolve_config(args) -> RunConfig:
    """defaults < --config file < explicit flags < BREATHSENTINEL_SEED."""
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    flag_fields = (
        ("seed", "seed"), ("batch", "ae_batch"), ("hidden", "rnn_hidden"),
        ("confidence", "confidence"), ("run_length", "run_length"),
        ("interval_window", "interval_window"), ("trend_alpha", "trend_alpha"),
        ("ci_level", "ci_level"), ("refractory", "refractory"),
    )
    for flag, field in flag_fields:
        value = getattr(args, flag, None)
        if value is not None:
            setattr(cfg, field, value)
    if getattr(args, "epochs", None) is not None:
        if args.command == "train-ae":
            cfg.ae_epochs = args.epochs
        elif args.command == "train-rnn":
            cfg.rnn_epochs = args.epochs
    if getattr(args, "lr", None) is not None:
        if args.command == "train-ae":
            cfg.ae_learning_rate = args.lr
        elif args.command == "train-rnn":
            cfg.rnn_learning_rate = args.lr
    if getattr(args, "noise_aug", None) is not None:
        cfg.noise_aug = args.noise_aug
    return cfg.validate().apply_env()


def _required_path(args, cfg: RunConfig, flag: str, cfg_field: str) -> str:
    """Resolve a path from its flag or, failing that, the config file."""
    value = getattr(args, flag, None) or getattr(cfg, cfg_field, "")
    if not value:
        print(f"usage: breathsentinel {args.command}: --{flag} is required "
              f"(or set {cfg_field} in the config file)", file=sys.stderr)
        raise SystemExit(EX_USAGE)
    return value


def _format_line(item) -> str:
    if isinstance(item, BreathEvent):
        return f"{item.time:.3f},{item.kind}"
    return f"{item.time:.3f},{item.kind},{item.statistic:.6f},{item.threshold:.6f}"


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth_corpus(args) -> int:
    cfg = _resolve_config(args)
    corpus = gen_corpus(args.per_class, cfg.seed, args.out)
    counts = corpus.class_counts()
    for label in dsp.LABELS:
        print(f"{label},{counts[label]}")
    return EX_OK


def cmd_synth_scenario(args) -> int:
    cfg = _resolve_config(args)
    spec = _scenario_spec(args, cfg)
    wav_path, truth_path = write_scenario(spec, args.out, args.truth)
    print(f"scenario,{spec.kind}")
    print(f"wav,{wav_path}")
    print(f"truth,{truth_path}")
    return EX_OK


def _scenario_spec(args, cfg: RunConfig) -> ScenarioSpec:
    duration = args.duration
    if duration is None:
        duration = 300.0 if args.kind == "normal" else 120.0
    return ScenarioSpec(
        kind=args.kind, duration=duration, base_period=args.base_period,
        jitter_sd=args.jitter_sd, onset=args.onset,
        decrement_rate=args.decrement_rate, noise_floor=args.noise_floor,
        seed=cfg.seed,
    )


def cmd_train_ae(args) -> int:
    cfg = _resolve_config(args)
    corpus = load_corpus(_required_path(args, cfg, "corpus", "corpus_dir"))
    for err in corpus.load_errors:
        print(f"skipped,{err}", file=sys.stderr)
    samples = np.stack([c.clip.samples for c in corpus.clips])
    spectra = dsp.spectra(samples.reshape(-1, dsp.FRAME_LEN))
    ae_params, trace = train_ae(spectra, AETrainConfig(
        epochs=cfg.ae_epochs, batch=cfg.ae_batch, seed=cfg.seed,
        learning_rate=cfg.ae_learning_rate))
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


def cmd_train_rnn(args) -> int:
    cfg = _resolve_config(args)
    corpus = load_corpus(_required_path(args, cfg, "corpus", "corpus_dir"))
    bundle = load_model(_required_path(args, cfg, "model", "model_path"))
    rnn_params, trace = train_rnn(corpus, bundle.ae, RNNTrainConfig(
        epochs=cfg.rnn_epochs, seed=cfg.seed,
        learning_rate=cfg.rnn_learning_rate, noise_aug=cfg.noise_aug,
        hidden=cfg.rnn_hidden))
    metadata = dict(bundle.metadata)
    metadata.update({
        "seed": str(cfg.seed),
        "rnn_epochs": str(cfg.rnn_epochs),
        "rnn_hidden": str(cfg.rnn_hidden),
        "noise_aug": str(cfg.noise_aug).lower(),
        "corpus_fingerprint": corpus.fingerprint(),
    })
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


def cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    bundle = load_model(_required_path(args, cfg, "model", "model_path"))
    corpus = load_corpus(_required_path(args, cfg, "corpus", "corpus_dir"))
    seed = args.seed
    if seed is None:
        seed = int(bundle.metadata.get("seed", cfg.seed))
    plan = make_split(corpus, seed)
    by_id = {c.clip_id: c for c in corpus.clips}
    test_clips = [by_id[cid] for cid in plan.test_ids]
    metrics = evaluate(bundle.rnn, bundle.ae, test_clips)
    print(f"clips,{len(test_clips)}")
    print(f"accuracy,{metrics.accuracy:.6f}")
    for label in dsp.LABELS:
        print(f"f1_{label},{metrics.f1[label]:.6f}")
    print(f"macro_f1,{metrics.macro_f1:.6f}")
    for i, label in enumerate(dsp.LABELS):
        row = ",".join(str(int(v)) for v in metrics.confusion[i])
        print(f"confusion_{label},{row}")
    return EX_OK


def cmd_monitor(args) -> int:
    cfg = _resolve_config(args)
    bundle = load_model(_required_path(args, cfg, "model", "model_path"))
    if args.input == "-":
        _monitor(cfg, bundle, dsp.pcm_frames(sys.stdin.buffer))
    else:
        path = Path(args.input)
        with path.open("rb") as wav:
            _monitor(cfg, bundle, dsp.wav_frames(wav, path))
    return EX_OK


def _monitor(cfg: RunConfig, bundle: ModelBundle, frames: Iterator[np.ndarray]) -> None:
    predictions = infer_stream(bundle.ae, bundle.rnn, frames)
    for item in run_detection(
            predictions, confidence=cfg.confidence, run_length=cfg.run_length,
            refractory=cfg.refractory, interval_window=cfg.interval_window,
            ci_level=cfg.ci_level, trend_alpha=cfg.trend_alpha):
        print(_format_line(item), flush=True)


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    bundle = load_model(_required_path(args, cfg, "model", "model_path"))
    spec = _scenario_spec(args, cfg)
    clip, truth = gen_scenario(spec)
    frames = dsp.frame_signal(clip)
    events: list[BreathEvent] = []
    alerts: list[Alert] = []
    for item in run_detection(
            infer_stream(bundle.ae, bundle.rnn, frames),
            confidence=cfg.confidence, run_length=cfg.run_length,
            refractory=cfg.refractory, interval_window=cfg.interval_window,
            ci_level=cfg.ci_level, trend_alpha=cfg.trend_alpha):
        (events if isinstance(item, BreathEvent) else alerts).append(item)
    report = simulate_report(spec, truth, events, alerts, tolerance=args.tolerance)
    if args.report:
        Path(args.report).write_text(report)
    else:
        sys.stdout.write(report)
    return EX_ALERT if alerts else EX_OK


def simulate_report(spec: ScenarioSpec, truth, events: list[BreathEvent],
                    alerts: list[Alert], tolerance: float = 1.0) -> str:
    """Deterministic CSV-like detection-latency report for one scenario run.

    Alert latency is measured from the last ground-truth breath for arrest
    alerts and from the scenario onset for trend alerts.
    """
    match = match_events(events, truth.onsets, tolerance=tolerance)
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
        f"tolerance_s,{tolerance:.6f}",
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
    parser.add_argument(kind_flag, dest="kind", required=True,
                        choices=("normal", "arrest", "decrement"))
    parser.add_argument("--duration", type=float, help="seconds (default 300 normal, 120 otherwise)")
    parser.add_argument("--onset", type=float, default=60.0)
    parser.add_argument("--base-period", dest="base_period", type=float, default=2.5)
    parser.add_argument("--jitter-sd", dest="jitter_sd", type=float, default=0.1)
    parser.add_argument("--decrement-rate", dest="decrement_rate", type=float, default=0.04)
    parser.add_argument("--noise-floor", dest="noise_floor", type=float, default=0.02)


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
    sc.set_defaults(func=cmd_synth_corpus, command="synth")

    ss = synth_sub.add_parser("scenario", help="write a continuous scenario WAV + truth CSV")
    ss.add_argument("--out", required=True)
    ss.add_argument("--truth", required=True)
    _add_scenario_flags(ss, "--kind")
    _add_common(ss)
    ss.set_defaults(func=cmd_synth_scenario, command="synth")

    ta = sub.add_parser("train-ae", help="train the spectral compressor")
    ta.add_argument("--corpus")
    ta.add_argument("--out", required=True)
    ta.add_argument("--epochs", type=int)
    ta.add_argument("--lr", type=float)
    ta.add_argument("--batch", type=int)
    _add_common(ta)
    ta.set_defaults(func=cmd_train_ae, command="train-ae")

    tr = sub.add_parser("train-rnn", help="train the breath classifier on a frozen compressor")
    tr.add_argument("--corpus")
    tr.add_argument("--model", help="bundle holding the trained compressor")
    tr.add_argument("--out", required=True)
    tr.add_argument("--epochs", type=int)
    tr.add_argument("--lr", type=float)
    tr.add_argument("--hidden", type=int)
    aug = tr.add_mutually_exclusive_group()
    aug.add_argument("--noise-aug", dest="noise_aug", action="store_true", default=None)
    aug.add_argument("--no-noise-aug", dest="noise_aug", action="store_false", default=None)
    _add_common(tr)
    tr.set_defaults(func=cmd_train_rnn, command="train-rnn")

    ev = sub.add_parser("eval", help="discrete metrics on the isolated test split")
    ev.add_argument("--model")
    ev.add_argument("--corpus")
    _add_common(ev)
    ev.set_defaults(func=cmd_eval, command="eval")

    mo = sub.add_parser("monitor", help="stream events and alerts from a WAV file or stdin")
    mo.add_argument("--model")
    mo.add_argument("--input", required=True, help="WAV path, or '-' for raw PCM on stdin")
    _add_detection_flags(mo)
    _add_common(mo)
    mo.set_defaults(func=cmd_monitor, command="monitor")

    si = sub.add_parser("simulate", help="run a scenario end to end and report latencies")
    si.add_argument("--model")
    _add_scenario_flags(si, "--scenario")
    si.add_argument("--report", help="write the report here instead of stdout")
    si.add_argument("--tolerance", type=float, default=1.0)
    _add_detection_flags(si)
    _add_common(si)
    si.set_defaults(func=cmd_simulate, command="simulate")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EX_OK
    except BrokenPipeError:
        # downstream consumer (head, less, ...) closed the stream; also
        # hand stdout a sink so the interpreter's final flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EX_OK
    except BreathSentinelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
