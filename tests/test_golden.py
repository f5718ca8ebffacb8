"""Golden outputs: `monitor` and `simulate` with the pinned fixture model,
and the training chain on the desk corpus.

The expected files under tests/golden/ hold the stdout of `monitor` and
the `simulate` reports, each followed by its exit code, on seed-11
normal, arrest and decrement scenarios, run with
perfbench/fixture/desk_model.bsm. `monitor` runs on 600 s with the onset
at 300 s, once on the WAV file and once on its samples as raw PCM on
stdin; both must print the same file. `simulate` runs on 150 s with the
onset at 60 s. Any change to the arithmetic between PCM and alerts shows
up here as a byte difference.

The training files hold, for `train-rnn` with and without noise
augmentation, its stdout and exit code followed by those of `eval` on the
bundle it wrote; the metadata files hold that bundle's metadata as
sorted `key=value` lines, as `load_model` reads it back. Both
classifiers start from one `train-ae --epochs 2 --seed 5` bundle on the
tests' desk corpus (140 clips per class, seed 1234) and train for 8
epochs at seed 5. The `model,` line, which names a
temporary path, is left out. These runs go to a child process with
OPENBLAS_NUM_THREADS=1, because the compressor's trained weights depend
on the BLAS thread count: two threads move the second epoch's loss from
0.0050053353 to 0.0050068085, and the classifier's eighth-epoch loss in
the second decimal. Any change to the arithmetic between corpus clips and
trained weights or test metrics shows up here.

After a change that alters these outputs on purpose, rewrite the files
with `PYTHONPATH=src python tests/test_golden.py --write` and say why in
the change log.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from breathsentinel import cli
from breathsentinel.model_io import load_model
from helpers import write_desk_corpus

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "perfbench" / "fixture" / "desk_model.bsm"
GOLDEN = Path(__file__).resolve().parent / "golden"
KINDS = ("normal", "arrest", "decrement")
MONITOR_SCENARIO = ["--duration", "600", "--onset", "300", "--seed", "11"]
SIMULATE_SCENARIO = ["--duration", "150", "--onset", "60", "--seed", "11"]
WAV_HEADER_BYTES = 44  # dsp.write_wav writes the canonical 44-byte header
TRAINING_RUNS = (("aug", []), ("no_aug", ["--no-noise-aug"]))


def _run(argv: list[str], stdin_bytes: bytes = b"") -> str:
    out = io.StringIO()
    stdin = type("FakeStdin", (), {"buffer": io.BytesIO(stdin_bytes)})()
    with contextlib.redirect_stdout(out), mock.patch.object(sys, "stdin", stdin):
        code = cli.main(argv)
    return f"{out.getvalue()}exit,{code}\n"


def outputs(kind: str, workdir: Path) -> list[tuple[str, str]]:
    """(golden file name, stdout then exit code) of each run for one scenario kind."""
    wav, report = workdir / f"{kind}.wav", workdir / f"{kind}.csv"
    assert cli.main(["synth", "scenario", "--kind", kind, "--out", str(wav),
                     "--truth", str(workdir / f"{kind}.truth.csv"), *MONITOR_SCENARIO]) == 0
    model = ["--model", str(FIXTURE)]
    simulate = _run(["simulate", *model, "--scenario", kind, *SIMULATE_SCENARIO,
                     "--report", str(report)])
    return [
        (f"monitor_{kind}.txt", _run(["monitor", *model, "--input", str(wav)])),
        (f"monitor_{kind}.txt", _run(["monitor", *model, "--input", "-"],
                                     wav.read_bytes()[WAV_HEADER_BYTES:])),
        (f"simulate_{kind}.txt", report.read_text() + simulate),
    ]


def _run_one_thread(argv: list[str]) -> str:
    """Like _run, in a child process with one BLAS thread; anything on stderr fails."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-m", "breathsentinel.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.stderr == "", done.stderr
    return f"{done.stdout}exit,{done.returncode}\n"


def training_outputs(corpus_dir: Path, workdir: Path) -> list[tuple[str, str]]:
    """(golden file name, text) of the train-rnn then eval output, and of the
    train-rnn bundle's metadata, for each augmentation setting."""
    corpus = ["--corpus", str(corpus_dir)]
    ae = workdir / "ae.bsm"
    trained_ae = _run_one_thread(["train-ae", *corpus, "--out", str(ae), "--epochs", "2",
                                  "--seed", "5"])
    assert trained_ae.endswith("exit,0\n"), trained_ae
    files = []
    for name, flags in TRAINING_RUNS:
        bundle = workdir / f"{name}.bsm"
        trained = _run_one_thread(["train-rnn", *corpus, "--model", str(ae), "--out", str(bundle),
                                   "--epochs", "8", "--seed", "5", *flags])
        trained = "".join(line for line in trained.splitlines(keepends=True)
                          if not line.startswith("model,"))
        metadata = sorted(load_model(bundle).metadata.items())
        files.append((f"metadata_{name}.txt", "".join(f"{k}={v}\n" for k, v in metadata)))
        files.append((f"training_{name}.txt",
                      trained + _run_one_thread(["eval", *corpus, "--model", str(bundle)])))
    return files


@pytest.mark.parametrize("kind", KINDS)
def test_outputs_match_the_golden_files(kind, tmp_path, capsys):
    for name, text in outputs(kind, tmp_path):
        assert text == (GOLDEN / name).read_text(), name
    assert capsys.readouterr().err == ""


def test_training_outputs_match_the_golden_files(desk_corpus_dir, tmp_path):
    for name, text in training_outputs(desk_corpus_dir, tmp_path):
        assert text == (GOLDEN / name).read_text(), name


def test_golden_runs_detect_breaths_and_raise_alerts():
    # the files pin outputs worth pinning: events everywhere, alerts after each onset
    for kind in KINDS:
        assert (GOLDEN / f"monitor_{kind}.txt").read_text().count(",inhale\n") > 50
        simulate = (GOLDEN / f"simulate_{kind}.txt").read_text()
        assert ("\nalert," in simulate) == (kind != "normal")
    for name, _ in TRAINING_RUNS:  # the classifiers learned: well above chance on the test clips
        assert float((GOLDEN / f"training_{name}.txt").read_text().split("accuracy,")[1].split()[0]) > 0.5


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for kind in KINDS:
            written = {}
            for name, text in outputs(kind, Path(tmp)):
                assert written.setdefault(name, text) == text, f"{name}: runs disagree"
                (GOLDEN / name).write_text(text)
        corpus_dir = Path(tmp) / "corpus"
        write_desk_corpus(corpus_dir)
        for name, text in training_outputs(corpus_dir, Path(tmp)):
            (GOLDEN / name).write_text(text)
