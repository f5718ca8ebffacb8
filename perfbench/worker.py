"""Measuring process of the benchmark: runs one workload's commands in-process.

Started by run.py with OpenBLAS, OpenMP and MKL pinned to one thread in
its environment, which takes effect because numpy is imported after it.
The inputs were synthesized by run.py beforehand and are described by a
JSON manifest, so this process holds only what the measured commands
need and its peak RSS is theirs.

The worker repeats the workload's cycle of `breathsentinel` commands,
each through `cli.main`, as long as another cycle fits in --seconds (at
least one cycle), checks every command's output, and prints one JSON object as its
last line. With --trace 1 the first third of the time runs untraced and
the rest with layer spans recorded, so the tracing overhead is measured in
the same process.

    python3 perfbench/worker.py --manifest M.json --seconds 20 --trace 0
    python3 perfbench/worker.py --probe      # import only; timed in set-up
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from tracer import END, INFO, NAME, OP, PARENT, START, PullClock, SpanIter, StampedIter, \
    Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from breathsentinel import autoencoder, cli, corpus, dsp, rnn, stream, vigil  # noqa: E402
from breathsentinel.model_io import load_model, save_model  # noqa: E402

MODULES = ("cli", "dsp", "autoencoder", "rnn", "stream", "vigil", "corpus", "model_io", "optim")
ARREST_LATENCY_CAP_S = 15.0
TREND_LATENCY_CAP_S = 60.0
RECALL_FLOOR = 0.90
MATCH_TOLERANCE_S = 1.0
# the monitor's trend test: one-sided OLS slope t-test at alpha 0.05 over the
# last 20 inhale-to-inhale intervals, from 8 intervals on, edge-triggered
TREND_WINDOW = 20
TREND_MIN_INTERVALS = 8
# Student-t 95 % quantile by degrees of freedom (scipy.stats.t.ppf(0.95, df)),
# written out so that scipy's import does not count in peak_rss_mb
T95 = {6: 1.9431802805, 7: 1.8945786051, 8: 1.8595480375, 9: 1.8331129327,
       10: 1.8124611228, 11: 1.7958848187, 12: 1.7822875556, 13: 1.7709333960,
       14: 1.7613101358, 15: 1.7530503557, 16: 1.7458836763, 17: 1.7396067261,
       18: 1.7340636066}


# ---------------------------------------------------------------------------
# environment record

def _openblas_runtime() -> tuple[int, str]:
    """Thread count and configuration reported by the loaded OpenBLAS, if found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return threads(), config().decode()
    return -1, "unknown"


def environment() -> dict:
    threads, config = _openblas_runtime()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": threads,
        "pinned": os.environ.get("OPENBLAS_NUM_THREADS") == "1" and threads in (1, -1),
        "pinning_method": "OPENBLAS_NUM_THREADS=1 set before numpy import",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": f"{blas.get('version', 'unknown')} ({config})",
    }


# ---------------------------------------------------------------------------
# output checks (independent of the package's own matching code)

def parse_monitor(text: str):
    events, alerts = [], []
    for line in text.splitlines():
        fields = line.split(",")
        if len(fields) == 2:
            events.append((float(fields[0]), fields[1]))
        elif len(fields) == 4:
            alerts.append((float(fields[0]), fields[1], float(fields[2]), float(fields[3])))
        else:
            raise ValueError(f"unexpected monitor line {line!r}")
    return events, alerts


def match_count(events, truth, tolerance: float) -> int:
    """Greedy per-kind one-to-one matching of event times to truth onsets."""
    matched = 0
    for kind in ("inhale", "exhale"):
        times = sorted(t for t, k in events if k == kind)
        truths = sorted(t for t, k in truth if k == kind)
        i = j = 0
        while i < len(truths) and j < len(times):
            diff = times[j] - truths[i]
            if abs(diff) <= tolerance:
                matched, i, j = matched + 1, i + 1, j + 1
            elif diff < -tolerance:
                j += 1
            else:
                i += 1
    return matched


def expected_trend_alerts(events) -> list[tuple[float, float, float]]:
    """(time, t, threshold) of every trend alert the detected inhales call for.

    Recomputes the trend test from the printed events alone, with a table
    of Student-t quantiles as the threshold. On a normal rhythm the slope t
    crosses its 95 % quantile now and then by chance, so a long normal
    input may carry a trend alert that is the test working as specified.
    """
    inhales = [t for t, kind in events if kind == "inhale"]
    fired, armed = [], True
    for i in range(TREND_MIN_INTERVALS + 1, len(inhales) + 1):
        y = np.diff(inhales[max(0, i - TREND_WINDOW - 1):i])
        x = np.arange(y.size) - (y.size - 1) / 2.0
        slope = float(x @ (y - y.mean())) / float(x @ x)
        sse = float(np.sum((y - y.mean() - slope * x) ** 2))
        se = math.sqrt(sse / (y.size - 2) / float(x @ x))
        if se > 0.0:
            stat = slope / se
        else:  # a perfect line: +/-inf in the direction of the slope
            stat = math.copysign(math.inf, slope) if slope else 0.0
        threshold = T95[y.size - 2]
        if stat > threshold and armed:
            fired.append((inhales[i - 1], stat, threshold))
        armed = stat <= threshold
    return fired


def check_night(op, events, alerts) -> list[str]:
    truth = op["truth"]
    matched = match_count(events, truth, MATCH_TOLERANCE_S)
    recall = matched / len(truth)
    problems = []
    if recall < RECALL_FLOOR:
        problems.append(f"recall {recall:.3f} < {RECALL_FLOOR}")
    if len(events) != matched:
        problems.append(f"{len(events) - matched} false positive events")
    arrests = [a for a in alerts if a[1] == "arrest"]
    if arrests:
        problems.append(f"{len(arrests)} arrest alerts on normal breathing, first {arrests[0]}")
    trends = [a for a in alerts if a[1] == "trend"]
    expected = expected_trend_alerts(events)
    same = len(trends) == len(expected) and all(
        math.isclose(a[0], e[0], abs_tol=1e-3) and math.isclose(a[2], e[1], abs_tol=1e-5)
        and math.isclose(a[3], e[2], abs_tol=1e-5) for a, e in zip(trends, expected))
    if not same:
        problems.append(f"trend alerts {trends} differ from the recomputed trend test {expected}")
    return problems


def check_arrest(op, events, alerts) -> list[str]:
    last_breath = op["truth"][-1][0]
    early = [a for a in alerts if a[1] == "arrest" and a[0] <= last_breath]
    if early:
        return [f"arrest alert at {early[0][0]:.2f} s, before the last breath at {last_breath:.2f} s"]
    post = [a for a in alerts if a[0] > last_breath]
    if not post or post[0][1] != "arrest":
        return [f"first alert after the last breath ({last_breath:.2f} s) is "
                f"{post[0] if post else None}, not an arrest alert"]
    latency = post[0][0] - last_breath
    if latency > ARREST_LATENCY_CAP_S:
        return [f"arrest alert {latency:.2f} s after the last breath (cap {ARREST_LATENCY_CAP_S} s)"]
    return []


def check_decrement(op, events, alerts) -> list[str]:
    onset = op["onset"]
    post = [a for a in alerts if a[0] > onset]
    if not post or post[0][1] != "trend":
        return [f"first alert after onset {onset} s is {post[0] if post else None}, not trend"]
    early = [a for a in alerts if a[1] == "arrest" and a[0] < post[0][0]]
    if early:
        return [f"arrest alert at {early[0][0]:.2f} s precedes the trend alert"]
    latency = post[0][0] - onset
    if latency > TREND_LATENCY_CAP_S:
        return [f"trend alert {latency:.2f} s after onset (cap {TREND_LATENCY_CAP_S} s)"]
    return []


def check_training(op, captured) -> list[str]:
    trace = captured.get(op["name"])
    if not trace:
        return ["no loss trace returned"]
    losses = [x if isinstance(x, float) else x.train_loss for x in trace]
    if not all(math.isfinite(x) for x in losses):
        return [f"non-finite loss in {losses}"]
    if not losses[-1] < losses[0]:
        return [f"loss did not decrease: {losses}"]
    roundtrip = Path(op["out"]).with_suffix(".roundtrip.bsm")
    save_model(load_model(op["out"]), roundtrip)
    same = roundtrip.read_bytes() == Path(op["out"]).read_bytes()
    roundtrip.unlink()
    return [] if same else ["bundle does not round-trip through load_model"]


MONITOR_CHECKS = {"night": check_night, "arrest": check_arrest, "decrement": check_decrement}


# ---------------------------------------------------------------------------
# hooks that stay on in untraced runs: pull stamps and training traces

class Hooks:
    def __init__(self):
        self.clock = PullClock()
        self.tracer: Tracer | None = None
        self.captured: dict[str, list] = {}
        self.op_name = ""

    def install(self) -> None:
        hooks = self
        infer_stream = cli.infer_stream

        def stamped_infer_stream(ae, params, frames, *args, **kwargs):
            predictions = infer_stream(ae, params, StampedIter(frames, hooks.clock, hooks.tracer),
                                       *args, **kwargs)
            if hooks.tracer is None:
                return predictions
            return SpanIter(predictions, "stream.infer_stream", hooks.tracer)

        def stamped(fn):
            def stamp_then_call(*args, **kwargs):
                hooks.clock.stamp()
                return fn(*args, **kwargs)
            return stamp_then_call

        epoch_draw = corpus.SplitPlan.epoch_draw

        def epoch_break(self, epoch):
            hooks.clock.break_run()
            return epoch_draw(self, epoch)

        def capture(fn):
            def captured(*args, **kwargs):
                params, trace = fn(*args, **kwargs)
                hooks.captured[hooks.op_name] = trace
                return params, trace
            return captured

        cli.infer_stream = stamped_infer_stream
        # training ticks: one optimiser step, compressor minibatch or classifier window
        autoencoder.ae_backward_batch = stamped(autoencoder.ae_backward_batch)
        rnn._backward_codes = stamped(rnn._backward_codes)
        corpus.SplitPlan.epoch_draw = epoch_break
        cli.train_ae = capture(cli.train_ae)
        cli.train_rnn = capture(cli.train_rnn)


def _frames_in(args, kwargs) -> int:
    x = np.asarray(args[0])
    return x.size // x.shape[-1] if x.ndim else 1


def _rows_in(args, kwargs) -> int:
    return len(args[1])


def _one(args, kwargs) -> int:
    return 1


def _quantile_key(args, kwargs):
    return (args[0], args[1])


def install_tracer(tracer: Tracer) -> None:
    """Wrap every layer boundary at the attribute its caller looks up."""
    wraps = (
        (cli, "load_model", "model_io.load_model", None),
        (cli, "save_model", "model_io.save_model", None),
        (cli, "load_corpus", "corpus.load_corpus", None),
        (dsp, "load_wav", "dsp.load_wav", None),
        (dsp, "frame_signal", "dsp.frame_signal", None),
        (dsp, "dfft_magnitude", "dsp.dfft_magnitude", _one),
        (dsp, "fft_radix2", "dsp.fft_radix2", _frames_in),
        (dsp, "normalize_spectrum", "dsp.normalize_spectrum", _one),
        (dsp, "normalize_magnitudes", "dsp.normalize_magnitudes", _frames_in),
        (stream, "encode", "autoencoder.encode", _one),
        (rnn, "encode_batch", "autoencoder.encode_batch", _rows_in),
        (rnn, "rnn_forward", "rnn.rnn_forward", None),
        (stream.Debouncer, "push", "stream.debounce", None),
        (vigil, "arrest_check", "vigil.arrest_check", None),
        (vigil, "slope_check", "vigil.slope_check", None),
        (vigil, "t_quantile", "vigil.t_quantile", _quantile_key),
        (vigil.IntervalSeries, "push_event", "vigil.push_event", None),
        (cli, "train_ae", "autoencoder.train_ae", None),
        (autoencoder, "ae_backward_batch", "autoencoder.backward_batch", None),
        (autoencoder, "adagrad_step", "optim.adagrad_step", None),
        (cli, "train_rnn", "rnn.train_rnn", None),
        (rnn, "_encode_samples", "rnn.encode_samples", None),
        (rnn, "_backward_codes", "rnn.bptt", None),
        (rnn, "adagrad_step", "optim.adagrad_step", None),
        (rnn, "clip_gradients", "optim.clip_gradients", None),
        (corpus, "augment_noise", "corpus.augment_noise", None),
        (corpus.SplitPlan, "epoch_draw", "corpus.epoch_draw", None),
    )
    for owner, attr, name, info in wraps:
        tracer.wrap(owner, attr, name, info)
    tracer.wrap_generator(cli, "run_detection", "vigil.run_detection")


# ---------------------------------------------------------------------------
# running operations

class _Stdin:
    """Stand-in for sys.stdin: the monitor reads raw PCM from .buffer."""

    def __init__(self, data: bytes):
        self.buffer = io.BytesIO(data)


def run_op(op: dict, hooks: Hooks, stdin_bytes: dict) -> dict:
    """One `breathsentinel` command; any exception is a failed operation."""
    out, err = io.StringIO(), io.StringIO()
    hooks.op_name = op["name"]
    hooks.captured.pop(op["name"], None)
    hooks.clock.break_run()
    saved_stdin = sys.stdin
    if op.get("stdin"):
        sys.stdin = _Stdin(stdin_bytes[op["stdin"]])
    error = None
    started = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(op["argv"])
    except Exception:  # counted as a failed operation; the run goes on
        code, error = None, traceback.format_exc(limit=3)
    finally:
        wall = perf_counter() - started
        sys.stdin = saved_stdin
    if code != 0:
        error = error or f"exit code {code}: {err.getvalue().strip()}"
    return {"name": op["name"], "wall": wall, "error": error, "stdout": out.getvalue()}


def check_op(op: dict, result: dict, hooks: Hooks, counts: dict, traced: bool) -> list[str]:
    """Problems found in one command's output; counts are kept for traced cycles."""
    try:
        if op["check"] not in MONITOR_CHECKS:
            return check_training(op, hooks.captured)
        events, alerts = parse_monitor(result["stdout"])
    except Exception as exc:  # a malformed output or bundle is a failed check
        return [f"check raised {exc!r}"]
    if traced:
        counts["events"] += len(events)
        counts["alerts"] += len(alerts)
    return MONITOR_CHECKS[op["check"]](op, events, alerts)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of the traced cycles

def layer_metrics(tracer: Tracer, traced_ops: list[dict], manifest: dict) -> dict:
    spans = tracer.spans
    own = self_times(spans)
    dur = [s[END] - s[START] for s in spans]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def total(indices):
        return sum(dur[i] for i in indices)

    def mean(indices, scale):
        return total(indices) / len(indices) * scale if indices else 0.0

    def outer(name, wrapper):
        """Spans of `name` not nested directly in a `wrapper` span."""
        return [i for i in idx(name) if spans[i][PARENT] < 0 or spans[spans[i][PARENT]][NAME] != wrapper]

    def per_frame(indices):
        frames = sum(spans[i][INFO] for i in indices)
        return (total(indices) / frames * 1e6 if frames else 0.0), frames

    fft = idx("dsp.dfft_magnitude") + outer("dsp.fft_radix2", "dsp.dfft_magnitude")
    norm = idx("dsp.normalize_spectrum") + outer("dsp.normalize_magnitudes", "dsp.normalize_spectrum")
    enc = idx("autoencoder.encode") + idx("autoencoder.encode_batch")
    fft_us, frames = per_frame(fft)
    norm_us, _ = per_frame(norm)
    enc_us, _ = per_frame(enc)

    streamed = len(idx("dsp.dfft_magnitude"))
    stream_self = sum(own[i] for i in idx("stream.infer_stream"))

    arrest = idx("vigil.arrest_check")
    quantiles = idx("vigil.t_quantile")
    armed = {spans[i][PARENT] for i in quantiles} & set(arrest)
    distinct = {(spans[i][OP],) + spans[i][INFO] for i in quantiles}

    op_kind = {op["index"]: op["name"] for op in traced_ops}
    rnn_ops = idx("rnn.train_rnn")
    reencode = [i for name in ("dsp.fft_radix2", "dsp.normalize_magnitudes", "autoencoder.encode_batch")
                for i in idx(name) if op_kind.get(spans[i][OP]) == "train-rnn"]
    epochs = []
    for parent in rnn_ops:
        starts = sorted(spans[i][START] for i in idx("corpus.epoch_draw") if spans[i][PARENT] == parent)
        starts.append(spans[parent][END])
        epochs += [b - a for a, b in zip(starts, starts[1:])]
    ae_epochs = manifest.get("ae_epochs", 0) * len(idx("autoencoder.train_ae"))

    wall = sum(op["wall"] for op in traced_ops)
    covered = sum(dur[i] for i, s in enumerate(spans) if s[PARENT] < 0)
    shares = {m: 0.0 for m in MODULES}
    for i, s in enumerate(spans):
        shares[s[NAME].split(".", 1)[0]] += own[i]

    metrics = {
        "dsp.fft_us_per_frame": (fft_us, "us"),
        "dsp.normalize_us_per_frame": (norm_us, "us"),
        "dsp.load_wav_ms": (mean(idx("dsp.load_wav"), 1e3), "ms"),
        "dsp.frames": (frames, "count"),
        "autoencoder.encode_us_per_frame": (enc_us, "us"),
        "autoencoder.epoch_s": (total(idx("autoencoder.train_ae")) / ae_epochs if ae_epochs else 0.0, "s"),
        "rnn.window_us": (mean(idx("rnn.rnn_forward"), 1e6), "us"),
        "rnn.windows": (len(idx("rnn.rnn_forward")), "count"),
        "rnn.epoch_s": (statistics.median(epochs) if epochs else 0.0, "s"),
        "rnn.reencode_share": (total(reencode) / total(rnn_ops) if rnn_ops else 0.0, "ratio"),
        "stream.self_us_per_frame": (stream_self / streamed * 1e6 if streamed else 0.0, "us"),
        "stream.debounce_us_per_pred": (mean(idx("stream.debounce"), 1e6), "us"),
        "stream.predictions": (len(idx("stream.debounce")), "count"),
        "cli.input_us_per_frame": (total(idx("cli.input_pull")) / streamed * 1e6 if streamed else 0.0, "us"),
        "vigil.arrest_us_per_tick": (mean(arrest, 1e6), "us"),
        "vigil.ticks": (len(arrest), "count"),
        "vigil.armed_ticks": (len(armed), "count"),
        "vigil.unarmed_ticks": (len(arrest) - len(armed), "count"),
        "vigil.armed_share": (len(armed) / len(arrest) if arrest else 0.0, "ratio"),
        "vigil.t_quantile_calls": (len(quantiles), "count"),
        "vigil.t_quantile_distinct": (len(distinct), "count"),
        "vigil.t_quantile_distinct_share": (len(distinct) / len(quantiles) if quantiles else 0.0, "ratio"),
        "vigil.t_quantile_us": (mean(quantiles, 1e6), "us"),
        "vigil.slope_us": (mean(idx("vigil.slope_check"), 1e6), "us"),
        "vigil.slope_checks": (len(idx("vigil.slope_check")), "count"),
        "model_io.load_ms": (mean(idx("model_io.load_model"), 1e3), "ms"),
        "corpus.load_s": (mean(idx("corpus.load_corpus"), 1.0), "s"),
        "trace.covered_share": (covered / wall if wall else 0.0, "ratio"),
        "trace.spans": (len(spans), "count"),
    }
    for module in MODULES:
        metrics[f"{module}.self_share"] = (shares[module] / wall if wall else 0.0, "ratio")
    return metrics


# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--manifest")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    if args.probe:
        print("ready")
        return 0

    manifest = json.loads(Path(args.manifest).read_text())
    ops = manifest["ops"]
    stdin_bytes = {op["stdin"]: Path(op["stdin"]).read_bytes() for op in ops if op.get("stdin")}
    hooks = Hooks()
    hooks.install()
    tracer = Tracer()
    untraced_until = args.seconds / 3.0 if args.trace else math.inf

    cycles, problems, traced_ops = [], [], []
    counts = {"events": 0, "alerts": 0}
    attempted = failed = 0
    started = perf_counter()
    while True:
        elapsed = perf_counter() - started
        if cycles and (args.trace == 0 or hooks.tracer is not None):
            # stop before a cycle that would overrun the measuring time
            if elapsed + statistics.median(c["wall"] for c in cycles) > args.seconds:
                break
        traced = hooks.tracer is not None
        if not traced and cycles and elapsed >= untraced_until:
            install_tracer(tracer)
            hooks.tracer = tracer
            traced = True
        cycle = {"traced": traced, "audio": 0.0, "wall": 0.0, "ops": {}}
        for op in ops:
            tracer.op = attempted
            result = run_op(op, hooks, stdin_bytes)
            attempted += 1
            cycle["wall"] += result["wall"]
            cycle["ops"][op["name"]] = result["wall"]
            if result["error"]:
                failed += 1
                problems.append(f"{op['name']}: {result['error']}")
                continue
            cycle["audio"] += op["audio_s"]
            problems += [f"{op['name']}: {p}" for p in check_op(op, result, hooks, counts, traced)]
            if traced:
                traced_ops.append({"index": tracer.op, "name": op["name"], "wall": result["wall"]})
        cycle["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        cycles.append(cycle)

    def realtime(selected):
        """Audio seconds over wall seconds, summed over the selected cycles.

        A sum rather than a median of cycles: the host's speed drifts over
        seconds, and a whole-run average follows that drift more smoothly
        than the middle one of a few long cycles.
        """
        wall = sum(c["wall"] for c in selected)
        return sum(c["audio"] for c in selected) / wall if wall else 0.0

    def op_wall(name, selected):
        values = [c["ops"][name] for c in selected if name in c["ops"]]
        return statistics.median(values) if values else 0.0

    untraced = [c for c in cycles if not c["traced"]]
    ticks = sorted(hooks.clock.intervals)
    result = {
        "ok": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "samples": {"cycles": len(untraced), "traced_cycles": len(cycles) - len(untraced),
                    "ticks": len(ticks), "maxrss_mb": [c["maxrss_mb"] for c in cycles]},
        "env": environment(),
    }
    if args.trace:
        metrics = layer_metrics(tracer, traced_ops, manifest)
        traced_rt, untraced_rt = realtime([c for c in cycles if c["traced"]]), realtime(untraced)
        metrics.update({
            "stream.events": (counts["events"], "count"),
            "vigil.alerts": (counts["alerts"], "count"),
            "train_ae_s": (op_wall("train-ae", untraced), "s"),
            "train_rnn_s": (op_wall("train-rnn", untraced), "s"),
            "failed_share": (failed / attempted, "ratio"),
            "trace.untraced_realtime_x": (untraced_rt, "x"),
            "trace.traced_realtime_x": (traced_rt, "x"),
            "trace.overhead_x": (untraced_rt - traced_rt, "x"),
        })
        tracer.write_csv(manifest["trace_csv"])
    else:
        metrics = {
            "realtime_x": (realtime(untraced), "x"),
            "tick_p50_us": (percentile(ticks, 50) * 1e6 if ticks else 0.0, "us"),
            "tick_p99_us": (percentile(ticks, 99) * 1e6 if ticks else 0.0, "us"),
            # after the first cycle: later cycles can raise the high-water mark
            # through heap fragmentation, which a single command would not see
            "peak_rss_mb": (cycles[0]["maxrss_mb"], "MB"),
        }
    result["metrics"] = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
