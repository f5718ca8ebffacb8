import argparse
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from breathsentinel import cli, dsp, rnn
from breathsentinel.autoencoder import encode_batch, init_ae
from breathsentinel.config import RunConfig
from breathsentinel.corpus import make_split
from breathsentinel.errors import DivergedLoss
from breathsentinel.model_io import ModelBundle, load_model, save_model
from breathsentinel.rnn import init_rnn
from breathsentinel.synthgen import SCENARIO_KINDS, ScenarioSpec, gen_scenario
from helpers import truth_from_csv

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "perfbench" / "fixture" / "desk_model.bsm"


@pytest.fixture(scope="module")
def tiny_corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny_corpus")
    assert cli.main(["synth", "corpus", "--out", str(root), "--per-class", "10",
                     "--seed", "3"]) == 0
    return root


@pytest.fixture(scope="module")
def untrained_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "untrained.bsm"
    save_model(ModelBundle(ae=init_ae(0), rnn=init_rnn(0), metadata={"seed": "0"}), path)
    return path


# --- exit codes and usage ---

def test_no_arguments_is_usage_error(capsys):
    assert cli.main([]) == 64
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli.main(["transcode"]) == 64


def test_missing_required_flag_is_usage_error(capsys):
    assert cli.main(["eval", "--corpus", "somewhere"]) == 64
    err = capsys.readouterr().err
    assert "usage" in err


def test_simulate_has_no_tolerance_flag(untrained_model, capsys):
    # simulate matches events within cli.MATCH_TOLERANCE; run settings come from RunConfig
    assert cli.main(["simulate", "--model", str(untrained_model), "--scenario", "normal",
                     "--duration", "15", "--tolerance", "1"]) == 64
    assert "unrecognized arguments: --tolerance 1" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    for command in ("synth", "train-ae", "train-rnn", "eval", "monitor", "simulate"):
        assert command in out, command


def test_runtime_error_exits_one(tmp_path, capsys):
    missing = tmp_path / "nope.bsm"
    code = cli.main(["eval", "--model", str(missing), "--corpus", str(tmp_path)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_bad_config_value_exits_one(tmp_path, tiny_corpus_dir, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("confidence=0.2\n")
    code = cli.main(["train-ae", "--corpus", str(tiny_corpus_dir),
                     "--out", str(tmp_path / "m.bsm"), "--config", str(cfg)])
    assert code == 1


@pytest.mark.parametrize("flag", [[], ["--confidence", "0.99"]], ids=["file", "flag"])
def test_a_flag_replaces_a_bad_config_file_value(flag, untrained_model, breathing_wav, tmp_path,
                                                 capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("confidence=0.3\n")
    code = cli.main(["monitor", "--model", str(untrained_model), "--input", str(breathing_wav),
                     "--config", str(cfg)] + flag)
    err = capsys.readouterr().err
    if flag:
        assert code == 0 and err == ""
    else:
        assert code == 1 and err == "error: confidence=0.3: must be in [0.5, 1.0)\n"


OUT_OF_RANGE = {
    "onset-after-duration": ["synth", "scenario", "--kind", "normal", "--duration", "10",
                             "--onset", "60"],
    "simulate-onset-after-duration": ["simulate", "--scenario", "normal", "--duration", "10",
                                      "--onset", "60"],
    "per-class": ["synth", "corpus", "--per-class", "5"],
    "base-period": ["synth", "scenario", "--kind", "normal", "--base-period", "0.5"],
    "decrement-rate": ["synth", "scenario", "--kind", "decrement", "--decrement-rate", "0.5"],
    "jitter-sd": ["synth", "scenario", "--kind", "normal", "--jitter-sd", "-1"],
    "duration-inf": ["synth", "scenario", "--kind", "normal", "--duration", "inf"],
    "simulate-duration-inf": ["simulate", "--scenario", "normal", "--duration", "inf"],
    "duration-huge": ["synth", "scenario", "--kind", "normal", "--duration", "1e12",
                      "--onset", "5"],
    "simulate-duration-huge": ["simulate", "--scenario", "normal", "--duration", "1e12",
                               "--onset", "5"],
    "duration-over-an-hour": ["synth", "scenario", "--kind", "normal", "--duration", "3601"],
    "simulate-duration-over-an-hour": ["simulate", "--scenario", "normal", "--duration", "3601"],
    "jitter-sd-nan": ["synth", "scenario", "--kind", "normal", "--jitter-sd", "nan"],
    "simulate-jitter-sd-nan": ["simulate", "--scenario", "normal", "--jitter-sd", "nan"],
    "base-period-nan": ["synth", "scenario", "--kind", "normal", "--base-period", "nan"],
    "simulate-base-period-nan": ["simulate", "--scenario", "normal", "--base-period", "nan"],
    "negative-duration": ["synth", "scenario", "--kind", "normal", "--onset", "-10",
                          "--duration", "-5"],
    "simulate-negative-duration": ["simulate", "--scenario", "normal", "--onset", "-10",
                                   "--duration", "-5"],
    "noise-floor-nan": ["synth", "scenario", "--kind", "normal", "--noise-floor", "nan"],
    "simulate-noise-floor-nan": ["simulate", "--scenario", "normal", "--noise-floor", "nan"],
}


@pytest.mark.parametrize("name", OUT_OF_RANGE)
def test_out_of_range_flag_exits_one_with_one_error_line(name, tmp_path, untrained_model, capsys):
    argv = list(OUT_OF_RANGE[name])
    if argv[0] == "simulate":
        argv += ["--model", str(untrained_model)]
    elif argv[1] == "corpus":
        argv += ["--out", str(tmp_path / "corpus")]
    else:
        argv += ["--out", str(tmp_path / "s.wav"), "--truth", str(tmp_path / "s.csv")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert list(tmp_path.iterdir()) == []


# Extreme finite values, and both zeros, for every numeric flag: the range checks
# (RunConfig.validate, ScenarioSpec) are the only limits, so a value either runs
# to the end or is refused before any output.
EXTREMES = ["5e-324", "1e-300", "1e-17", "1e300", "1e308", "1.7976931348623157e308", "0", "-0.0"]
SWEPT_ARGV = {
    "monitor": ["monitor", "--model", str(FIXTURE), "--input", "{night}"],
    "synth scenario": ["synth", "scenario", "--kind", "{kind}", "--duration", "20", "--onset", "10",
                       "--out", "{tmp}/s.wav", "--truth", "{tmp}/s.csv"],
    "simulate": ["simulate", "--model", str(FIXTURE), "--scenario", "{kind}", "--duration", "20",
                 "--onset", "10"],
}


def _options(parser, command=()):
    """(subcommand words, argparse action) of every option and argument of every subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _options(sub, command + (name,))
        else:
            yield " ".join(command), action


SWEPT_FLAGS = sorted((command, action.option_strings[0])
                     for command, action in _options(cli.build_parser())
                     if action.type in (int, float) and command in SWEPT_ARGV)


@pytest.fixture(scope="module")
def night_wav(tmp_path_factory):
    """60 s of normal breathing at seed 11: enough intervals to arm both alarms."""
    clip, _ = gen_scenario(ScenarioSpec(kind="normal", duration=60.0, onset=30.0, seed=11))
    path = tmp_path_factory.mktemp("night") / "night.wav"
    dsp.write_wav(path, clip.samples)
    return path


# runs each argv through cli.main with one BLAS thread, which keeps the many
# small synthesis FFTs fast; prints [exit code or escaped exception, stdout, stderr]
SWEEP_SCRIPT = """
import contextlib, io, json, sys
from breathsentinel import cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:
            code = repr(exc)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


@pytest.mark.parametrize("command", SWEPT_ARGV)
def test_an_extreme_flag_value_runs_or_is_refused_before_any_output(command, night_wav,
                                                                    tmp_path):
    kinds = ["normal"] if command == "monitor" else SCENARIO_KINDS
    cases = [(kind, flag, value) for kind in kinds
             for swept, flag in SWEPT_FLAGS if swept == command for value in EXTREMES]
    assert cases, f"the parser walk found no numeric flag of {command}"
    runs = [[arg.format(night=night_wav, kind=kind, tmp=tmp_path) for arg in SWEPT_ARGV[command]]
            + [flag, value] for kind, flag, value in cases]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", SWEEP_SCRIPT, json.dumps(runs)],
                          capture_output=True, text=True, env=env, timeout=600)
    assert done.returncode == 0, done.stderr
    bad = []
    for (kind, flag, value), (code, out, err) in zip(cases, json.loads(done.stdout)):
        ran = code in ((0, 2) if command == "simulate" else (0,)) and err == ""
        refused = code == 1 and out == "" and len(err.splitlines()) == 1 \
            and err.startswith("error: ")
        usage = code == 64 and err.startswith("usage: ")
        if not (ran or refused or usage):
            bad.append(f"{kind} {flag} {value}: exit {code}, stdout {out[-100:]!r}, "
                       f"stderr {err[-200:]!r}")
    assert not bad, "\n".join(bad)


@pytest.mark.parametrize("command", ["synth scenario", "simulate"])
def test_a_negative_exponent_value_reads_alike_after_a_space_or_an_equals_sign(command,
                                                                               tmp_path):
    base = [arg.format(kind="arrest", tmp=tmp_path) for arg in SWEPT_ARGV[command]]
    cases = [(flag, value) for flag in ("--onset", "--jitter-sd")
             for value in ("-1e3", "-1E-3", "-.5e2")]
    runs = [argv for flag, value in cases
            for argv in (base + [flag, value], base + [f"{flag}={value}"])]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", SWEEP_SCRIPT, json.dumps(runs)],
                          capture_output=True, text=True, env=env, timeout=600)
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)
    for (flag, value), spaced, joined in zip(cases, results[::2], results[1::2]):
        assert spaced == joined, (flag, value)
        assert spaced[0] != 64, (flag, value, spaced[2])


def test_a_scenario_error_reads_as_the_spec_states_it(tmp_path, capsys):
    argv = OUT_OF_RANGE["onset-after-duration"] + ["--out", str(tmp_path / "s.wav"),
                                                   "--truth", str(tmp_path / "s.csv")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: onset (60.0) must be before duration (10.0)\n"


@pytest.mark.parametrize("argv", [
    ["synth", "corpus", "--per-class", "10", "--out", "{file}/corpus"],
    ["synth", "scenario", "--kind", "normal", "--duration", "10", "--out", "{file}/s.wav",
     "--truth", "{file}/s.csv"],
], ids=["corpus", "scenario"])
def test_a_refused_write_exits_one_with_the_os_error(argv, tmp_path, capsys):
    file = tmp_path / "file"
    file.write_text("")
    assert cli.main([arg.format(file=file) for arg in argv]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: [Errno "), err
    assert str(file) in err[0] and captured.out == ""


# --- output files ---

# Every output file option, keyed (command, dest), with argv that points it
# under a regular file `blocker` and the cli function that starts the work.
BLOCKED_OUTPUTS = {
    ("synth scenario", "out"): (["synth", "scenario", "--kind", "normal", "--duration", "1800",
                                 "--out", "blocker/s.wav", "--truth", "s.csv"], "gen_scenario"),
    ("synth scenario", "truth"): (["synth", "scenario", "--kind", "arrest", "--out", "s.wav",
                                   "--truth", "blocker/s.csv"], "gen_scenario"),
    ("train-ae", "out"): (["train-ae", "--corpus", "{corpus}", "--epochs", "20",
                           "--out", "blocker/m.bsm"], "train_ae"),
    ("train-rnn", "out"): (["train-rnn", "--corpus", "{corpus}", "--model", "{model}",
                            "--out", "blocker/m.bsm"], "train_rnn"),
    ("simulate", "report"): (["simulate", "--model", "{model}", "--scenario", "normal",
                              "--duration", "3600", "--report", "blocker/r.csv"], "gen_scenario"),
}


def test_every_output_file_option_has_a_blocked_path_case():
    # synth corpus --out names a directory tree, not a file
    options = {(command, action.dest) for command, action in _options(cli.build_parser())
               if action.dest in ("out", "truth", "report")} - {("synth corpus", "out")}
    assert options == set(BLOCKED_OUTPUTS)


@pytest.mark.parametrize("key", BLOCKED_OUTPUTS, ids=[f"{c} --{d}" for c, d in BLOCKED_OUTPUTS])
def test_a_refused_output_stops_the_command_before_the_work(key, tiny_corpus_dir,
                                                            untrained_model, tmp_path,
                                                            capsys, monkeypatch):
    argv, work = BLOCKED_OUTPUTS[key]

    def unexpected(*args):
        raise AssertionError(f"{work} ran although an output cannot be written")

    monkeypatch.setattr(cli, work, unexpected)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "blocker").write_text("")
    argv = [arg.format(corpus=tiny_corpus_dir, model=untrained_model) for arg in argv]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: [Errno ") and "blocker/" in err[0], err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]


@pytest.mark.parametrize("truth", ["./same", "hard"], ids=["path", "hard link"])
def test_two_outputs_naming_one_file_exit_one_and_write_nothing(truth, tmp_path, capsys,
                                                                 monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = {}
    if truth == "hard":
        (tmp_path / "same").write_bytes(b"from an earlier run")
        os.link(tmp_path / "same", tmp_path / "hard")
        before = {"hard": b"from an earlier run", "same": b"from an earlier run"}
    assert cli.main(["synth", "scenario", "--kind", "normal", "--duration", "10",
                     "--out", "same", "--truth", truth]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: same and {truth} name one file; give each output its own path\n"
    assert captured.out == ""
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# (argv, the cli function that fails after the claim, what it raises, the outputs).
# The train-ae, train-rnn and simulate rows are guards: those commands never
# wrote an output before their work, so only the synth scenario rows are new.
FAILING_WORK = {
    "synth scenario": (["synth", "scenario", "--kind", "normal", "--out", "s.wav",
                        "--truth", "s.csv"], "gen_scenario", MemoryError, ["s.wav", "s.csv"]),
    "train-ae": (["train-ae", "--corpus", "{corpus}", "--out", "m.bsm"], "train_ae",
                 DivergedLoss, ["m.bsm"]),
    "train-rnn": (["train-rnn", "--corpus", "{corpus}", "--model", "{model}", "--out", "m.bsm"],
                  "train_rnn", DivergedLoss, ["m.bsm"]),
    "simulate": (["simulate", "--model", "{model}", "--scenario", "normal",
                  "--report", "r.csv"], "gen_scenario", MemoryError, ["r.csv"]),
}


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("command", FAILING_WORK)
def test_a_failure_after_the_claim_removes_only_new_outputs(command, existing, tiny_corpus_dir,
                                                            untrained_model, tmp_path,
                                                            capsys, monkeypatch):
    argv, work, error, outputs = FAILING_WORK[command]

    def fail(*args):
        raise error("failed after the claim")

    monkeypatch.setattr(cli, work, fail)
    monkeypatch.chdir(tmp_path)
    before = {name: f"{name} from an earlier run".encode() for name in outputs} if existing else {}
    for name, data in before.items():
        (tmp_path / name).write_bytes(data)
    argv = [arg.format(corpus=tiny_corpus_dir, model=untrained_model) for arg in argv]
    if error is MemoryError:
        with pytest.raises(MemoryError):
            cli.main(argv)
    else:
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == "error: failed after the claim\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_train_rnn_may_write_over_its_input_bundle(desk_corpus_dir, untrained_model, tmp_path):
    model = tmp_path / "m.bsm"
    model.write_bytes(untrained_model.read_bytes())
    assert cli.main(["train-rnn", "--corpus", str(desk_corpus_dir), "--model", str(model),
                     "--out", str(model), "--epochs", "0"]) == 0
    metadata = load_model(model).metadata
    assert metadata["noise_aug"] == "true" and metadata["rnn_epochs"] == "0"


def test_synth_corpus_writes_no_clip_when_a_class_directory_is_refused(tmp_path, capsys):
    (tmp_path / "c").mkdir()
    (tmp_path / "c" / "exhale").write_text("")
    assert cli.main(["synth", "corpus", "--per-class", "10", "--out", str(tmp_path / "c")]) == 1
    assert capsys.readouterr().err.startswith("error: [Errno ")
    assert list(tmp_path.rglob("*.wav")) == []


# --- run settings ---

# (command, flag arguments, RunConfig field, value from the flag, value from a config file)
SETTING_FLAGS = [
    ("train-ae", ["--epochs", "7"], "ae_epochs", 7, 3),
    ("train-ae", ["--lr", "0.2"], "ae_learning_rate", 0.2, 0.3),
    ("train-ae", ["--batch", "16"], "ae_batch", 16, 32),
    ("train-ae", ["--corpus", "c1"], "corpus_dir", "c1", "c2"),
    ("train-ae", ["--seed", "5"], "seed", 5, 6),
    ("train-rnn", ["--epochs", "9"], "rnn_epochs", 9, 4),
    ("train-rnn", ["--lr", "0.03"], "rnn_learning_rate", 0.03, 0.04),
    ("train-rnn", ["--hidden", "50"], "rnn_hidden", 50, 100),
    ("train-rnn", ["--noise-aug"], "noise_aug", True, False),
    ("train-rnn", ["--no-noise-aug"], "noise_aug", False, True),
    ("train-rnn", ["--corpus", "c1"], "corpus_dir", "c1", "c2"),
    ("train-rnn", ["--model", "m1.bsm"], "model_path", "m1.bsm", "m2.bsm"),
    ("eval", ["--corpus", "c1"], "corpus_dir", "c1", "c2"),
    ("eval", ["--model", "m1.bsm"], "model_path", "m1.bsm", "m2.bsm"),
    ("synth", ["--seed", "5"], "seed", 5, 6),
] + [
    (command, flag, field, flag_value, file_value)
    for command in ("monitor", "simulate")
    for flag, field, flag_value, file_value in [
        (["--model", "m1.bsm"], "model_path", "m1.bsm", "m2.bsm"),
        (["--confidence", "0.95"], "confidence", 0.95, 0.9),
        (["--run-length", "4"], "run_length", 4, 5),
        (["--interval-window", "30"], "interval_window", 30, 40),
        (["--trend-alpha", "0.1"], "trend_alpha", 0.1, 0.2),
        (["--ci-level", "0.9"], "ci_level", 0.9, 0.95),
        (["--refractory", "2"], "refractory", 2.0, 0.5),
    ]
]
COMMAND_ARGV = {
    "synth": ["synth", "corpus", "--out", "c"],
    "train-ae": ["train-ae", "--out", "o.bsm"],
    "train-rnn": ["train-rnn", "--out", "o.bsm"],
    "eval": ["eval"],
    "monitor": ["monitor", "--input", "-"],
    "simulate": ["simulate", "--scenario", "normal"],
}


def _resolved(argv):
    return cli._resolve_config(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("command, flag, field, flag_value, file_value", SETTING_FLAGS,
                         ids=[f"{c}{' '.join(f)}" for c, f, *_ in SETTING_FLAGS])
def test_setting_flag_reaches_its_field(command, flag, field, flag_value, file_value,
                                        tmp_path):
    base = COMMAND_ARGV[command]
    cfg = _resolved(base + flag)
    assert getattr(cfg, field) == flag_value
    # no other setting moves, so train-ae --epochs leaves rnn_epochs alone
    assert dataclasses.replace(cfg, **{field: getattr(RunConfig(), field)}) == RunConfig()

    config = tmp_path / "run.cfg"
    config.write_text(f"{field}={str(file_value).lower()}\n")
    assert getattr(_resolved(base + ["--config", str(config)]), field) == file_value
    assert getattr(_resolved(base + ["--config", str(config)] + flag), field) == flag_value


# --- synth ---

def test_synth_corpus_writes_labeled_tree(tiny_corpus_dir):
    for label in dsp.LABELS:
        assert len(list((tiny_corpus_dir / label).glob("*.wav"))) == 10


def _peak_synth_corpus_bytes(out, per_class, capsys) -> int:
    tracemalloc.start()
    try:
        assert cli.main(["synth", "corpus", "--out", str(out), "--per-class", str(per_class),
                         "--seed", "2"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == "".join(f"{label},{per_class}\n" for label in dsp.LABELS)
    return peak


def test_synth_corpus_memory_does_not_grow_with_the_corpus(tmp_path, capsys):
    peak_small = _peak_synth_corpus_bytes(tmp_path / "small", 10, capsys)
    peak_large = _peak_synth_corpus_bytes(tmp_path / "large", 60, capsys)
    assert peak_large <= 1.5 * peak_small, (peak_small, peak_large)


def test_synth_scenario_writes_wav_and_truth(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = cli.main(["synth", "scenario", "--kind", "arrest", "--out", "./s.wav",
                     "--truth", "s.csv", "--duration", "90", "--onset", "45", "--seed", "8"])
    assert code == 0
    assert capsys.readouterr().out == "scenario,arrest\nwav,s.wav\ntruth,s.csv\n"
    wav, csv = tmp_path / "s.wav", tmp_path / "s.csv"
    assert dsp.load_wav(wav).samples.size == 90 * 8192
    rendered, original = gen_scenario(ScenarioSpec(kind="arrest", duration=90.0, onset=45.0,
                                                   seed=8))
    dsp.write_wav(tmp_path / "rendered.wav", rendered.samples)
    assert wav.read_bytes() == (tmp_path / "rendered.wav").read_bytes()
    assert csv.read_text() == original.to_csv()
    truth = truth_from_csv(csv.read_text())
    assert len(truth.onsets) == len(original.onsets)
    assert truth.onsets[0][1] == original.onsets[0][1] == "inhale"
    assert truth.onsets[0][0] == pytest.approx(original.onsets[0][0], abs=1e-6)
    assert csv.read_text().splitlines()[0] == "time_s,kind"


def test_synth_scenario_at_a_fast_rhythm_writes_ordered_truth(tmp_path):
    wav, csv = tmp_path / "s.wav", tmp_path / "s.csv"
    assert cli.main(["synth", "scenario", "--kind", "normal", "--base-period", "1.2",
                     "--out", str(wav), "--truth", str(csv)]) == 0
    times = [float(line.split(",")[0]) for line in csv.read_text().splitlines()[1:]]
    assert len(times) > 2 and all(a < b for a, b in zip(times, times[1:]))


@pytest.mark.parametrize("argv", [
    ["synth", "scenario", "--kind", "normal", "--duration", "30", "--out", "s.wav",
     "--truth", "s.csv"],
    ["simulate", "--scenario", "normal", "--duration", "45"],
], ids=["synth scenario", "simulate"])
def test_a_short_normal_scenario_needs_no_onset(argv, untrained_model, tmp_path, capsys,
                                                monkeypatch):
    monkeypatch.chdir(tmp_path)
    if argv[0] == "simulate":
        argv = argv + ["--model", str(untrained_model)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""


# --- training commands ---

def test_train_ae_writes_bundle(tiny_corpus_dir, tmp_path):
    out = tmp_path / "ae.bsm"
    code = cli.main(["train-ae", "--corpus", str(tiny_corpus_dir), "--out", str(out),
                     "--epochs", "2", "--seed", "5"])
    assert code == 0
    bundle = load_model(out)
    assert bundle.metadata["ae_epochs"] == "2"
    assert bundle.metadata["rnn_epochs"] == "0"
    assert "corpus_fingerprint" in bundle.metadata


def test_train_rnn_zero_epochs_writes_valid_bundle(desk_corpus_dir, tmp_path):
    ae_path, out = tmp_path / "ae.bsm", tmp_path / "full.bsm"
    assert cli.main(["train-ae", "--corpus", str(desk_corpus_dir), "--out", str(ae_path),
                     "--epochs", "0", "--seed", "6"]) == 0
    code = cli.main(["train-rnn", "--corpus", str(desk_corpus_dir),
                     "--model", str(ae_path), "--out", str(out),
                     "--epochs", "0", "--seed", "6"])
    assert code == 0
    bundle = load_model(out)
    assert bundle.metadata["rnn_epochs"] == "0"
    assert "rnn_val_accuracy_final" not in bundle.metadata
    reference = init_rnn(6)
    assert np.array_equal(bundle.rnn.w_hh, reference.w_hh.astype(np.float32).astype(np.float64))


def test_train_rnn_zero_epochs_drops_a_trained_parents_accuracy(desk_corpus_dir,
                                                                untrained_model, tmp_path,
                                                                capsys):
    trained, out = tmp_path / "trained.bsm", tmp_path / "zero.bsm"
    common = ["train-rnn", "--corpus", str(desk_corpus_dir), "--seed", "6"]
    assert cli.main(common + ["--model", str(untrained_model), "--out", str(trained),
                              "--epochs", "1"]) == 0
    assert "rnn_val_accuracy_final" in load_model(trained).metadata
    assert cli.main(common + ["--model", str(trained), "--out", str(out), "--epochs", "0"]) == 0
    metadata = load_model(out).metadata
    assert metadata["rnn_epochs"] == "0"
    assert "rnn_val_accuracy_final" not in metadata


def test_train_rnn_on_tiny_corpus_reports_corpus_too_small(tiny_corpus_dir, tmp_path,
                                                           untrained_model, capsys):
    code = cli.main(["train-rnn", "--corpus", str(tiny_corpus_dir),
                     "--model", str(untrained_model), "--out", str(tmp_path / "x.bsm")])
    assert code == 1
    assert "400" in capsys.readouterr().err


# --- eval / monitor / simulate ---

def test_eval_prints_metrics(desk_corpus_dir, tmp_path, capsys):
    ae_path = tmp_path / "ae.bsm"
    cli.main(["train-ae", "--corpus", str(desk_corpus_dir), "--out", str(ae_path),
              "--epochs", "0", "--seed", "6"])
    capsys.readouterr()
    assert cli.main(["eval", "--model", str(ae_path), "--corpus",
                     str(desk_corpus_dir)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("clips,14")
    assert "macro_f1," in out
    assert "confusion_inhale," in out


@pytest.mark.parametrize("file_seed, flag, expected", [
    (None, None, 7),  # the seed the bundle was trained with
    (None, "3", 3),
    ("5", None, 7),  # a config-file seed does not replace the bundle's
    ("5", "3", 3),
])
def test_eval_splits_with_the_resolved_seed(file_seed, flag, expected, desk_corpus_dir,
                                            tmp_path, capsys, monkeypatch):
    model = tmp_path / "seed7.bsm"
    save_model(ModelBundle(ae=init_ae(0), rnn=init_rnn(0), metadata={"seed": "7"}), model)
    seeds = []

    def recording_split(corpus, seed):
        seeds.append(seed)
        return make_split(corpus, seed)

    monkeypatch.setattr(cli, "make_split", recording_split)
    argv = ["eval", "--model", str(model), "--corpus", str(desk_corpus_dir)]
    if file_seed:
        config = tmp_path / "run.cfg"
        config.write_text(f"seed={file_seed}\n")
        argv += ["--config", str(config)]
    assert cli.main(argv + (["--seed", flag] if flag else [])) == 0
    assert seeds == [expected]


@pytest.mark.parametrize("seed", ["abc", "-3", pytest.param("9" * 5000, id="5000-digits")])
def test_eval_rejects_a_malformed_bundle_seed(seed, desk_corpus_dir, tmp_path, capsys):
    model = tmp_path / "bad_seed.bsm"
    save_model(ModelBundle(ae=init_ae(0), rnn=init_rnn(0), metadata={"seed": seed}), model)
    assert cli.main(["eval", "--model", str(model), "--corpus", str(desk_corpus_dir)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert str(model) in err[0] and repr(seed) in err[0]


def _peak_bytes(argv) -> int:
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_train_ae_holds_the_spectra_not_the_pcm(desk_corpus_dir, tmp_path, capsys):
    spectra = 3 * 140 * 16 * dsp.SPECTRUM_BINS * 8
    peak = _peak_bytes(["train-ae", "--corpus", str(desk_corpus_dir),
                        "--out", str(tmp_path / "ae.bsm"), "--epochs", "0"])
    assert peak < spectra + 16 * 2**20, peak


def test_train_rnn_holds_the_codes_not_the_pcm(desk_corpus_dir, untrained_model, tmp_path,
                                               capsys):
    codes = 3 * 140 * 16 * 50 * 8
    peak = _peak_bytes(["train-rnn", "--corpus", str(desk_corpus_dir), "--model",
                        str(untrained_model), "--out", str(tmp_path / "rnn.bsm"), "--epochs", "2"])
    assert peak < codes + 20 * 2**20, peak


def _link_corpus(source, root):
    """A corpus tree at `root` whose WAVs are links to the files of `source`."""
    for label in dsp.LABELS:
        (root / label).mkdir(parents=True)
        for path in (source / label).glob("*.wav"):
            (root / label / path.name).symlink_to(path)
    return root


@pytest.mark.parametrize("command", ["train-ae", "train-rnn", "eval"])
def test_corpus_commands_report_each_skipped_file(command, desk_corpus_dir, untrained_model,
                                                  tmp_path, capsys):
    root = _link_corpus(desk_corpus_dir, tmp_path / "corpus")
    bad = root / "inhale" / "inhale_0003.wav"
    bad.unlink()
    bad.write_bytes(b"JUNKJUNKJUNKJUNK")
    argv = {
        "train-ae": ["--out", str(tmp_path / "ae.bsm"), "--epochs", "0"],
        "train-rnn": ["--model", str(untrained_model), "--out", str(tmp_path / "rnn.bsm"),
                      "--epochs", "0"],
        "eval": ["--model", str(untrained_model)],
    }[command]
    assert cli.main([command, "--corpus", str(root)] + argv) == 0
    assert capsys.readouterr().err.splitlines() == [f"skipped,{bad}: first bytes are not 'RIFF'"]


@pytest.mark.parametrize("damage", ["deleted", "truncated"])
def test_a_clip_lost_after_loading_stops_train_rnn(damage, desk_corpus_dir, desk_corpus,
                                                   untrained_model, tmp_path, capsys,
                                                   monkeypatch):
    root = _link_corpus(desk_corpus_dir, tmp_path / "corpus")
    # the first validation clip of epoch 0 is read before any training step
    clip_id = desk_corpus.ids[make_split(desk_corpus, 0).epoch_draw(0)[0][0]]
    lost = root / clip_id
    load_corpus = cli.load_corpus

    def load_then_damage(path):
        corpus = load_corpus(path)
        lost.unlink()
        if damage == "truncated":
            lost.write_bytes((desk_corpus_dir / clip_id).read_bytes()[:4096])
        return corpus

    monkeypatch.setattr(cli, "load_corpus", load_then_damage)
    out = tmp_path / "rnn.bsm"
    assert cli.main(["train-rnn", "--corpus", str(root), "--model", str(untrained_model),
                     "--out", str(out), "--epochs", "1", "--seed", "0"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(lost) in err[0], err
    assert not out.exists()


def test_eval_decodes_only_the_test_clips(desk_corpus_dir, desk_corpus, untrained_model,
                                          monkeypatch, capsys):
    read = []
    read_pcm = dsp.read_pcm

    def recording(path):
        read.append(path.relative_to(desk_corpus_dir).as_posix())
        return read_pcm(path)

    monkeypatch.setattr(dsp, "read_pcm", recording)
    argv = ["eval", "--model", str(untrained_model), "--corpus", str(desk_corpus_dir)]
    assert cli.main(argv) == 0
    test_rows = make_split(desk_corpus, 0).test_rows
    assert sorted(read) == sorted(desk_corpus.ids[row] for row in test_rows)


def test_eval_memory_does_not_grow_with_the_corpus(desk_corpus_dir, untrained_model, tmp_path,
                                                   capsys):
    large = tmp_path / "four_times"
    for label in dsp.LABELS:
        (large / label).mkdir(parents=True)
        for path in (desk_corpus_dir / label).glob("*.wav"):
            for copy in range(4):
                (large / label / f"{path.stem}_{copy}.wav").symlink_to(path)
    peaks = [_peak_bytes(["eval", "--model", str(untrained_model), "--corpus", str(root)])
             for root in (desk_corpus_dir, large)]
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("clips,")] == ["clips,14", "clips,56"]
    assert peaks[1] <= 1.5 * peaks[0], peaks


@pytest.mark.parametrize("command", ["train-ae", "train-rnn"])
def test_a_diverging_learning_rate_exits_one_without_writing(command, desk_corpus_dir,
                                                            untrained_model, tmp_path, capsys):
    out = tmp_path / "diverged.bsm"
    argv = [command, "--corpus", str(desk_corpus_dir), "--out", str(out), "--epochs", "1",
            "--lr", "1e300"]
    if command == "train-rnn":
        argv += ["--model", str(untrained_model)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert "float32" in err[0] and str(out) in err[0]
    assert not out.exists()


def test_monitor_runs_on_wav(untrained_model, tmp_path, capsys):
    wav = tmp_path / "quiet.wav"
    dsp.write_wav(wav, np.zeros(8192 * 4))
    assert cli.main(["monitor", "--model", str(untrained_model),
                     "--input", str(wav)]) == 0


def _monitor_with_model_bytes(data: bytes, tmp_path, capsys) -> str:
    model = tmp_path / "damaged.bsm"
    model.write_bytes(data)
    wav = tmp_path / "quiet.wav"
    dsp.write_wav(wav, np.zeros(8192 * 4))
    assert cli.main(["monitor", "--model", str(model), "--input", str(wav)]) == 1
    return capsys.readouterr().err


def test_monitor_rejects_non_utf8_metadata(untrained_model, tmp_path, capsys):
    data = untrained_model.read_bytes()
    assert data.endswith(b"seed=0\n")
    err = _monitor_with_model_bytes(data[:-2] + b"\xff\n", tmp_path, capsys)
    assert "UTF-8" in err


def test_monitor_rejects_transposed_tensor_dims(untrained_model, tmp_path, capsys):
    data = bytearray(untrained_model.read_bytes())
    # ae.enc_w1 is the first tensor: rank at offset 8, then dims 513 and 256
    assert data[8:20] == b"".join(n.to_bytes(4, "little") for n in (2, 513, 256))
    data[12:20] = data[16:20] + data[12:16]
    err = _monitor_with_model_bytes(bytes(data), tmp_path, capsys)
    assert "enc_w1" in err


def test_monitor_rejects_a_rank_past_two(untrained_model, tmp_path, capsys):
    data = bytearray(untrained_model.read_bytes())
    # ae.enc_b1 follows enc_w1; its 256 zero biases would read as 64 more dims of 0,
    # which numpy cannot reshape to
    at = 20 + 4 * 513 * 256
    assert data[at:at + 8] == b"".join(n.to_bytes(4, "little") for n in (1, 256))
    data[at:at + 4] = (65).to_bytes(4, "little")
    err = _monitor_with_model_bytes(bytes(data), tmp_path, capsys)
    assert "enc_b1 has rank 65" in err


def test_monitor_rejects_trailing_bytes(untrained_model, tmp_path, capsys):
    err = _monitor_with_model_bytes(untrained_model.read_bytes() + b"\0", tmp_path, capsys)
    assert "1 unexpected bytes" in err


def test_monitor_too_short_wav_is_empty_clip(untrained_model, tmp_path, capsys):
    wav = tmp_path / "short.wav"
    dsp.write_wav(wav, np.zeros(1023))
    assert cli.main(["monitor", "--model", str(untrained_model), "--input", str(wav)]) == 1
    assert "need at least 1024 samples" in capsys.readouterr().err


def _peak_monitor_bytes(model, wav) -> int:
    tracemalloc.start()
    try:
        assert cli.main(["monitor", "--model", str(model), "--input", str(wav)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_monitor_memory_does_not_grow_with_the_input(untrained_model, tmp_path, capsys):
    short, long = tmp_path / "one_minute.wav", tmp_path / "ten_minutes.wav"
    dsp.write_wav(short, np.zeros(60 * dsp.SAMPLE_RATE))
    dsp.write_wav(long, np.zeros(600 * dsp.SAMPLE_RATE))
    peak_short = _peak_monitor_bytes(untrained_model, short)
    peak_long = _peak_monitor_bytes(untrained_model, long)
    assert peak_long <= 1.5 * peak_short, (peak_short, peak_long)


MONITOR_LINE = re.compile(r"\d+\.\d{3},(inhale|exhale)|\d+\.\d{3},(arrest|trend),-?[\d.]+,-?[\d.]+")


@pytest.fixture(scope="module")
def breathing_wav(tmp_path_factory):
    clip, _ = gen_scenario(ScenarioSpec(kind="normal", duration=20.0, onset=10.0, seed=4))
    path = tmp_path_factory.mktemp("breathing") / "breathing.wav"
    dsp.write_wav(path, clip.samples)
    return path


def _saturated_model(tmp_path, part, name, scale):
    bundle = ModelBundle(ae=init_ae(1), rnn=init_rnn(1), metadata={})
    params = getattr(bundle, part)
    setattr(params, name, getattr(params, name) * scale)
    path = tmp_path / f"{name}_x{scale:g}.bsm"
    save_model(bundle, path)
    return load_model(path), path


def _monitor_lines(model_path, wav, capsys) -> list[str]:
    assert cli.main(["monitor", "--model", str(model_path), "--input", str(wav)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(MONITOR_LINE.fullmatch(line) for line in lines), lines
    return lines


def test_monitor_accepts_codes_saturated_at_one(breathing_wav, tmp_path, capsys):
    bundle, path = _saturated_model(tmp_path, "ae", "enc_w2", 400.0)
    spectra = dsp.spectra(dsp.frame_signal(dsp.load_wav(breathing_wav)))
    assert np.abs(encode_batch(bundle.ae, spectra)).max() == 1.0  # tanh saturated exactly
    _monitor_lines(path, breathing_wav, capsys)


def test_monitor_accepts_scores_saturated_at_one(breathing_wav, tmp_path, capsys):
    bundle, path = _saturated_model(tmp_path, "rnn", "w_hy", 1000.0)
    frames = dsp.frame_signal(dsp.load_wav(breathing_wav))
    codes = encode_batch(bundle.ae, dsp.spectra(frames[:rnn.WINDOW_FRAMES]))
    assert rnn._forward_codes(bundle.rnn, codes)[1].max() == 1.0  # sigmoid saturated exactly
    assert _monitor_lines(path, breathing_wav, capsys)


def test_monitor_non_finite_activation_exits_one(untrained_model, breathing_wav, capsys,
                                                 monkeypatch):
    bundle = load_model(untrained_model)
    bundle.rnn.w_hy[0, 0] = float("nan")  # past the load-time finiteness check
    monkeypatch.setattr(cli, "load_model", lambda path: bundle)
    assert cli.main(["monitor", "--model", str(untrained_model),
                     "--input", str(breathing_wav)]) == 1
    err = capsys.readouterr().err
    assert "non-finite" in err and "stream position 1.875 s" in err


def test_monitor_stdin_matches_file(untrained_model, tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(8)
    samples = rng.uniform(-0.5, 0.5, 8192 * 6)
    wav = tmp_path / "noise.wav"
    dsp.write_wav(wav, samples)
    assert cli.main(["monitor", "--model", str(untrained_model), "--input", str(wav)]) == 0
    from_file = capsys.readouterr().out

    pcm = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2").tobytes()
    assert _monitor_stdin(untrained_model, pcm, monkeypatch) == 0
    from_stdin = capsys.readouterr().out
    assert from_stdin == from_file


def _monitor_stdin(model, pcm: bytes, monkeypatch) -> int:
    monkeypatch.setattr("sys.stdin", type("FakeStdin", (), {"buffer": io.BytesIO(pcm)})())
    return cli.main(["monitor", "--model", str(model), "--input", "-"])


@pytest.mark.parametrize("n_bytes", [0, 2000])
def test_monitor_short_stdin_is_empty_clip(untrained_model, capsys, monkeypatch, n_bytes):
    assert _monitor_stdin(untrained_model, bytes(n_bytes), monkeypatch) == 1
    captured = capsys.readouterr()
    assert "need at least 1024 samples" in captured.err and not captured.out


def test_monitor_one_frame_of_stdin_is_quiet(untrained_model, capsys, monkeypatch):
    # one frame is fewer than the 16 a window needs, as for a WAV of that length
    assert _monitor_stdin(untrained_model, bytes(2048), monkeypatch) == 0
    assert capsys.readouterr().out == ""


def test_monitor_non_finite_encoder_weight_exits_one(untrained_model, breathing_wav, capsys,
                                                     monkeypatch):
    bundle = load_model(untrained_model)
    bundle.ae.enc_w1[424, 3] = float("nan")
    monkeypatch.setattr(cli, "load_model", lambda path: bundle)
    assert cli.main(["monitor", "--model", str(untrained_model),
                     "--input", str(breathing_wav)]) == 1
    err = capsys.readouterr().err
    assert "non-finite" in err and "stream position 0.000 s" in err


def test_simulate_writes_report_and_exit_code(untrained_model, tmp_path):
    report = tmp_path / "report.csv"
    code = cli.main(["simulate", "--model", str(untrained_model), "--scenario", "normal",
                     "--duration", "20", "--onset", "10", "--seed", "4",
                     "--report", str(report)])
    # untrained model produces no confident events, so no alerts
    assert code == 0
    text = report.read_text()
    assert text.startswith("report,simulate")
    assert "false_positives," in text
    assert "recall," in text


@pytest.mark.parametrize("command", ["monitor", "simulate", "eval"])
def test_an_untrained_classifier_draws_one_warning(command, untrained_model, breathing_wav,
                                                   desk_corpus_dir, tmp_path, capsys):
    bundle = load_model(untrained_model)
    untrained = tmp_path / "rnn_epochs_0.bsm"
    save_model(dataclasses.replace(bundle, metadata={**bundle.metadata, "rnn_epochs": "0"}),
               untrained)
    argv = {"monitor": ["monitor", "--input", str(breathing_wav)],
            "simulate": ["simulate", "--scenario", "normal", "--duration", "20", "--onset", "10",
                         "--seed", "4"],
            "eval": ["eval", "--corpus", str(desk_corpus_dir)]}[command]
    runs = []
    for model in (untrained_model, untrained):
        runs.append((cli.main(argv + ["--model", str(model)]), capsys.readouterr()))
    (code, quiet), (warned_code, warned) = runs
    assert warned_code == code and warned.out == quiet.out and quiet.err == ""
    err = warned.err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: "), err
    assert str(untrained) in err[0] and "train-rnn" in err[0]


def test_monitor_into_a_closed_pipe_exits_zero_quietly(night_wav):
    # the reader is gone before the first event line, as with `monitor ... | head -n 0`
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    try:
        done = subprocess.run([sys.executable, "-m", "breathsentinel.cli", "monitor", "--model",
                               str(FIXTURE), "--input", str(night_wav)],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == 0 and done.stderr == b""


def test_monitor_rejects_a_trend_alpha_the_trend_test_cannot_use(untrained_model,
                                                                 breathing_wav, capsys):
    assert cli.main(["monitor", "--model", str(untrained_model), "--input", str(breathing_wav),
                     "--trend-alpha", "0.5"]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("error: trend_alpha=0.5: "), err


def test_simulate_determinism(untrained_model, tmp_path):
    reports = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.csv"
        cli.main(["simulate", "--model", str(untrained_model), "--scenario", "normal",
                  "--duration", "15", "--onset", "5", "--seed", "9",
                  "--report", str(path)])
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]


def test_config_file_supplies_paths(tiny_corpus_dir, untrained_model, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"corpus_dir={tiny_corpus_dir}\nmodel_path={untrained_model}\n")
    out = tmp_path / "from_config.bsm"
    assert cli.main(["train-ae", "--out", str(out), "--epochs", "0",
                     "--config", str(cfg)]) == 0
    assert out.exists()
    # still a usage error when neither flag nor config has the path
    assert cli.main(["train-ae", "--out", str(out), "--epochs", "0"]) == 64
    assert "corpus" in capsys.readouterr().err


def test_the_environment_does_not_set_the_seed(tmp_path, monkeypatch):
    corpora = []
    for name, env in (("plain", None), ("env", "1000")):
        if env is not None:
            monkeypatch.setenv("BREATHSENTINEL_SEED", env)
        out = tmp_path / name
        assert cli.main(["synth", "corpus", "--out", str(out), "--per-class", "10",
                         "--seed", "1"]) == 0
        corpora.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*.wav")})
    assert corpora[0] == corpora[1]


SUBCOMMAND_ARGV = {
    **COMMAND_ARGV,
    "synth scenario": ["synth", "scenario", "--kind", "normal", "--out", "s.wav", "--truth", "s.csv"],
}


@pytest.mark.parametrize("argv", SUBCOMMAND_ARGV.values(), ids=SUBCOMMAND_ARGV.keys())
def test_a_negative_seed_is_refused_before_any_io(argv, tmp_path, monkeypatch, capsys):
    # every command resolves its settings before it reads or writes anything
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv + ["--seed", "-5"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: seed=-5: must be >= 0\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("base", [
    ["synth", "scenario", "--kind", "arrest", "--out", "s.wav", "--truth", "s.csv"],
    ["simulate", "--scenario", "arrest"],
], ids=["synth scenario", "simulate"])
def test_every_scenario_field_has_a_flag(base):
    defaults = ScenarioSpec(kind="arrest", seed=RunConfig().seed)
    for field in dataclasses.fields(ScenarioSpec):
        if field.name in ("kind", "seed"):
            continue
        value = getattr(defaults, field.name) * 0.75  # in range for every field
        flag = "--" + field.name.replace("_", "-")
        args = cli.build_parser().parse_args(base + [flag, str(value)])
        spec = cli._scenario_spec(args, cli._resolve_config(args))
        assert spec == dataclasses.replace(defaults, **{field.name: value}), flag
