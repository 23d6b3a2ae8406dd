"""Write perfbench/baseline.json: the machine, the software versions and
the end-to-end and per-layer figures of the checkout it runs in.

usage: python3 perfbench/record_baseline.py --commit SHA   (from the root of a checkout)

Runs every workload for BENCHMARK.json's run_seconds, untraced on the
baseline seed and on a held-out seed, and traced on the baseline seed,
then times the two `model find` cases that are too slow to repeat on
every run (ROADMAP item 1) as a reference, not as metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402
from worker import CLI_BOOT  # noqa: E402

BASELINE_SEED, HELD_OUT_SEED = 1, 2
SLOW_MODEL_FIND = (("GL", "[]p & <>~p"), ("K", "[]p & <>~p"))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not trace:
        result["report"] = lines[:-1]
    return result


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--commit", required=True)
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]

    record = {
        "commit": args.commit,
        "environment": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
        },
        "run_seconds": seconds,
        "seeds": {"baseline": BASELINE_SEED, "held_out": HELD_OUT_SEED},
        "end_to_end": {},
        "per_layer": {},
        "reference_model_find_s": {},
    }
    for w in WORKLOADS:
        record["end_to_end"][w] = {str(s): bench(w, s, seconds, 0) for s in (BASELINE_SEED, HELD_OUT_SEED)}
        traced = bench(w, BASELINE_SEED, seconds, 1)
        record["per_layer"][w] = {k: v["value"] for k, v in traced["metrics"].items() if v["value"]}
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
    env.pop("GOEDEL_CACHE_DIR", None)
    for logic, formula in SLOW_MODEL_FIND:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", CLI_BOOT, "model", "find", formula, "--logic", logic],
                       env=env, capture_output=True, check=True)
        record["reference_model_find_s"]["%s %s" % (logic, formula)] = round(time.perf_counter() - t0, 2)
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
