#!/usr/bin/env python3
"""Rebuild the desk-scale model bundle the monitor workloads stream with.

Runs the acceptance recipe through the command line: a 150-clips-per-class
corpus at seed 7, 200 compressor epochs, then 300 classifier epochs, with
OpenBLAS held to one thread. Takes several minutes on one core. Prints
the bundle's sha256; after a deliberate rebuild, copy that digest into
FIXTURE_SHA256 in perfbench/run.py.

Usage (from the repository root):
    python3 perfbench/fixture/build_model.py [--out PATH]
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # must precede the numpy import

import argparse
import hashlib
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))

from breathsentinel import cli  # noqa: E402

SEED = "7"
PER_CLASS = "150"
AE_EPOCHS = "200"
RNN_EPOCHS = "300"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(HERE / "desk_model.bsm"))
    args = parser.parse_args()

    work = ROOT / ".perfbench_work" / "fixture_build"
    work.mkdir(parents=True, exist_ok=True)
    corpus, ae_model = work / "corpus", work / "ae.bsm"
    steps = (
        ["synth", "corpus", "--out", str(corpus), "--per-class", PER_CLASS, "--seed", SEED],
        ["train-ae", "--corpus", str(corpus), "--out", str(ae_model),
         "--epochs", AE_EPOCHS, "--seed", SEED],
        ["train-rnn", "--corpus", str(corpus), "--model", str(ae_model),
         "--out", args.out, "--epochs", RNN_EPOCHS, "--seed", SEED],
    )
    try:
        for argv in steps:
            code = cli.main(argv)
            if code != 0:
                print(f"{argv[0]} exited {code}", file=sys.stderr)
                return code
    finally:
        shutil.rmtree(work, ignore_errors=True)
    digest = hashlib.sha256(Path(args.out).read_bytes()).hexdigest()
    print(f"sha256,{digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
