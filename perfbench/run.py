#!/usr/bin/env python3
"""Benchmark of the breathsentinel monitor and training paths.

Run from the root of a checkout:

    python3 perfbench/run.py --workload monitor-night --seed 1 --seconds 20 --trace 0

Workloads (inputs are synthesized from --seed during set-up):
  monitor-night   `monitor --input night.wav` over a 20-minute normal-breathing
                  scenario, with the committed desk-scale model.
  monitor-alarms  `monitor --input -` fed raw s16le PCM of one arrest and one
                  decrement scenario through a stdin stand-in.
  train-desk      `train-ae` then `train-rnn` on a 150-clips-per-class corpus
                  for a few fixed epochs.

Set-up (synthesis, fixture sha256 check, start of a fresh worker process up
to import) runs SETUP_REPEATS times and reports the median as setup_s. The
measured commands then run in one worker process (worker.py) with BLAS
pinned to one thread. The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones from a traced
run, whose spans are written under .perfbench_work/traces/. The line
before it is a record of the environment and the sample counts.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported, here and in the worker
os.environ.pop("BREATHSENTINEL_SEED", None)  # would override the workload seed

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
FIXTURE = HERE / "fixture" / "desk_model.bsm"
FIXTURE_SHA256 = "950e9840346972658352bee488f87d4e20948df9633ae1457430440920ba8cb5"
WORKLOADS = ("monitor-night", "monitor-alarms", "train-desk")
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0

NIGHT_SECONDS = 1200.0
ARREST = {"duration": 120.0, "onset": 60.0}
DECREMENT = {"duration": 150.0, "onset": 60.0}
CORPUS_PER_CLASS = 150
AE_EPOCHS = 2
RNN_EPOCHS = 8


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def verify_fixture() -> None:
    digest = hashlib.sha256(FIXTURE.read_bytes()).hexdigest()
    if digest != FIXTURE_SHA256:
        raise RuntimeError(f"{FIXTURE} has sha256 {digest}, expected {FIXTURE_SHA256}; "
                           f"rebuild it with perfbench/fixture/build_model.py")


def make_inputs(workload: str, seed: int, work: Path) -> tuple[dict, dict]:
    """Write the workload's inputs; return its manifest and synthesis times."""
    import numpy as np
    from breathsentinel import dsp
    from breathsentinel.synthgen import ScenarioSpec, gen_corpus, gen_scenario

    model = str(FIXTURE)
    synth = {"scenario": 0.0, "corpus": 0.0}
    ops = []

    def scenario(kind, duration, onset):
        started = perf_counter()
        clip, truth = gen_scenario(ScenarioSpec(kind=kind, duration=duration, onset=onset, seed=seed))
        synth["scenario"] += perf_counter() - started
        return clip.samples, [list(o) for o in truth.onsets]

    if workload == "monitor-night":
        samples, truth = scenario("normal", NIGHT_SECONDS, NIGHT_SECONDS / 2)
        wav = work / "night.wav"
        dsp.write_wav(wav, samples)
        ops.append({"name": "night", "check": "night", "truth": truth,
                    "audio_s": samples.size // dsp.FRAME_LEN * dsp.FRAME_SECONDS,
                    "argv": ["monitor", "--model", model, "--input", str(wav)]})
    elif workload == "monitor-alarms":
        for kind, shape in (("arrest", ARREST), ("decrement", DECREMENT)):
            samples, truth = scenario(kind, shape["duration"], shape["onset"])
            pcm = work / f"{kind}.pcm"
            # raw s16le, quantized exactly as dsp.write_wav does
            pcm.write_bytes(np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2").tobytes())
            ops.append({"name": kind, "check": kind, "truth": truth, "onset": shape["onset"],
                        "stdin": str(pcm),
                        "audio_s": samples.size // dsp.FRAME_LEN * dsp.FRAME_SECONDS,
                        "argv": ["monitor", "--model", model, "--input", "-"]})
    else:
        corpus_dir, ae_out, rnn_out = work / "corpus", work / "ae.bsm", work / "model.bsm"
        started = perf_counter()
        corpus = gen_corpus(CORPUS_PER_CLASS, seed, corpus_dir)
        synth["corpus"] += perf_counter() - started
        audio_s = len(corpus) * dsp.CLIP_SECONDS
        ops.append({"name": "train-ae", "check": "training", "out": str(ae_out), "audio_s": audio_s,
                    "argv": ["train-ae", "--corpus", str(corpus_dir), "--out", str(ae_out),
                             "--epochs", str(AE_EPOCHS), "--seed", str(seed)]})
        ops.append({"name": "train-rnn", "check": "training", "out": str(rnn_out), "audio_s": audio_s,
                    "argv": ["train-rnn", "--corpus", str(corpus_dir), "--model", str(ae_out),
                             "--out", str(rnn_out), "--epochs", str(RNN_EPOCHS),
                             "--seed", str(seed)]})
    return {"workload": workload, "seed": seed, "ae_epochs": AE_EPOCHS, "ops": ops}, synth


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    run_started = perf_counter()

    if not (ROOT / "src" / "breathsentinel" / "__init__.py").is_file():
        return fail(f"no breathsentinel sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))

    base = ROOT / ".perfbench_work"
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    traces = base / "traces"
    work.mkdir(parents=True, exist_ok=True)
    traces.mkdir(parents=True, exist_ok=True)
    try:
        setup_times, synth_times = [], []
        for _ in range(SETUP_REPEATS):
            started = perf_counter()
            manifest, synth = make_inputs(args.workload, args.seed, work)
            verify_fixture()
            subprocess.run([sys.executable, str(WORKER), "--probe"], check=True,
                           capture_output=True, timeout=60)
            setup_times.append(perf_counter() - started)
            synth_times.append(synth)

        manifest["trace_csv"] = str(traces / f"{args.workload}-seed{args.seed}.csv")
        manifest_path = work / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        remaining = RUN_LIMIT_S - (perf_counter() - run_started)
        proc = subprocess.run(
            [sys.executable, str(WORKER), "--manifest", str(manifest_path),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=max(remaining, 1.0))
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        return fail(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    metrics = result["metrics"]
    if args.trace:
        for kind in ("scenario", "corpus"):
            metrics[f"synthgen.{kind}_s"] = {
                "value": statistics.median(s[kind] for s in synth_times), "unit": "s"}
    else:
        metrics = {"setup_s": {"value": statistics.median(setup_times), "unit": "s"}, **metrics}
    samples = dict(result["samples"], setup_repeats=SETUP_REPEATS)
    print(json.dumps({"record": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "samples": samples, "env": result["env"],
        "problems": result["problems"]}}))
    print(json.dumps({"correct": result["ok"] and result["failed"] == 0,
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
