"""Golden outputs: `monitor` and `simulate` with the pinned fixture model.

The expected files under tests/golden/ hold the stdout of `monitor` and
the `simulate` reports, each followed by its exit code, on seed-11
normal, arrest and decrement scenarios, run with
perfbench/fixture/desk_model.bsm. `monitor` runs on 600 s with the onset
at 300 s, once on the WAV file and once on its samples as raw PCM on
stdin; both must print the same file. `simulate` runs on 150 s with the
onset at 60 s. Any change to the arithmetic between PCM and alerts shows
up here as a byte difference.

After a change that alters these outputs on purpose, rewrite the files
with `PYTHONPATH=src python tests/test_golden.py --write` and say why in
the change log.
"""

import contextlib
import io
import sys
from pathlib import Path
from unittest import mock

import pytest

from breathsentinel import cli

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "perfbench" / "fixture" / "desk_model.bsm"
GOLDEN = Path(__file__).resolve().parent / "golden"
KINDS = ("normal", "arrest", "decrement")
MONITOR_SCENARIO = ["--duration", "600", "--onset", "300", "--seed", "11"]
SIMULATE_SCENARIO = ["--duration", "150", "--onset", "60", "--seed", "11"]
WAV_HEADER_BYTES = 44  # dsp.write_wav writes the canonical 44-byte header


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


@pytest.mark.parametrize("kind", KINDS)
def test_outputs_match_the_golden_files(kind, tmp_path, capsys):
    for name, text in outputs(kind, tmp_path):
        assert text == (GOLDEN / name).read_text(), name
    assert capsys.readouterr().err == ""


def test_golden_runs_detect_breaths_and_raise_alerts():
    # the files pin outputs worth pinning: events everywhere, alerts after each onset
    for kind in KINDS:
        assert (GOLDEN / f"monitor_{kind}.txt").read_text().count(",inhale\n") > 50
        simulate = (GOLDEN / f"simulate_{kind}.txt").read_text()
        assert ("\nalert," in simulate) == (kind != "normal")


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
