"""goedellab benchmark.

usage: python3 perfbench/run.py --workload {lib,cli}
                                --seed N --seconds S --trace {0,1}

Run from the root of a goedellab checkout; the program is imported from
`./src`.  Each workload is one client in a closed loop (an op starts when
the previous one has returned) and runs in fresh child processes, one at
a time, with PYTHONHASHSEED derived from the seed.  A run executes whole rounds
of ops (a fixed mix of op kinds whose inputs come from the seed) until
`--seconds` have passed, so every run sees the same mix.

The last line of stdout is one JSON object: `correct` is false when the
program returned an answer that disagrees with an oracle; `failed`
counts every failed op, refusals and wrong exit codes included.  With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` an
untraced child measures for half of `--seconds`, a second child re-runs
its rounds with spans around goedellab's public functions, and the
metrics are per layer.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import percentile, tail_percentile  # noqa: E402

WORKLOADS = ("lib", "cli")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170


def hash_seed(seed: int) -> int:
    return (seed * 2654435761 + 12345) % 4294967296


def spawn(workload, seed, seconds, mode, workdir, rounds=1) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed(seed))
    spawned = time.monotonic()
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
            "--rounds", str(rounds), "--spawned", repr(spawned), "--workdir", workdir]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("%s worker failed (exit %d):\n%s" % (mode, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(result, tail_pct):
    """ops/s, p50 and tail latency (s) over all of the run's ops."""
    latencies = sorted(x for lat in result["latencies"].values() for x in lat)
    return len(latencies) / sum(latencies), percentile(latencies, 50), percentile(latencies, tail_pct)


def counts(result):
    """(attempted, failed, any wrong answer) of one child's run."""
    failures = result["failures"]
    attempted = sum(len(lat) for lat in result["latencies"].values())
    return attempted, len(failures), any(f[1] for f in failures)


def report(workload, seed, result, setups, tail_pct):
    """Human-readable lines: per-kind latencies, failures, input
    properties."""
    attempted, failed, _ = counts(result)
    print("workload %s  seed %d  PYTHONHASHSEED %d  rounds %d  ops %d  round size %d"
          % (workload, seed, hash_seed(seed), result["rounds"], attempted, result["round_size"]))
    print("setup samples (s): %s" % ", ".join("%.4f" % s for s in setups))
    failed_by_kind: dict[str, int] = {}
    causes: dict[str, list] = {}
    for kind, _, cause, key in result["failures"]:
        failed_by_kind[kind] = failed_by_kind.get(kind, 0) + 1
        causes.setdefault("%s: %s" % (kind, cause), []).append(key)
    print("%-24s %6s %12s %12s %7s" % ("op kind", "ops", "p50 ms", "max ms", "failed"))
    for kind, lat in sorted(result["latencies"].items()):
        lat = sorted(lat)
        print("%-24s %6d %12.3f %12.3f %7d" % (kind, len(lat), 1000 * percentile(lat, 50),
                                             1000 * lat[-1], failed_by_kind.get(kind, 0)))
    for cause, keys in sorted(causes.items()):
        print("FAILED x%d  %s  (input: %r)" % (len(keys), cause, keys[0][:100]))
    for w in result["warmup_failures"]:
        print("warm-up failure: %s" % w)
    size = result["round_size"]
    beyond = size - -(-tail_pct * size // 100)
    print("tail percentile p%d, %d samples beyond it in each round of %d" % (tail_pct, beyond, size))
    print("failed_share %.6f" % (failed / attempted))
    print("input properties: %s" % json.dumps(result["properties"], sort_keys=True))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "goedellab", "__init__.py")):
        print("error: run from the root of a goedellab checkout (no src/goedellab here)",
              file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".perfbench", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir) -> int:
    w, seed = args.workload, args.seed
    if args.trace == 0:
        setups = [spawn(w, seed, args.seconds, "setup", workdir)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        seconds = args.seconds
    else:
        # the untraced and the traced child share the run's time
        setups, seconds = [], args.seconds / 2
    result = spawn(w, seed, seconds, "measure", workdir)
    setups.append(result["setup_s"])
    tail_pct = tail_percentile(result["round_size"])
    report(w, seed, result, setups, tail_pct)
    ops_per_s, p50, tail = summarize(result, tail_pct)
    attempted, failed, wrong = counts(result)

    if args.trace == 0:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "ops/s"},
            "latency_p50_ms": {"value": 1000 * p50, "unit": "ms"},
            "latency_tail_ms": {"value": 1000 * tail, "unit": "ms"},
            "ok_share": {"value": 1 - failed / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
        }
    else:
        traced = spawn(w, seed, args.seconds, "traced", workdir, rounds=result["rounds"])
        traced_ops_per_s = summarize(traced, tail_pct)[0]
        metrics = traced["layers"]
        overhead = ops_per_s / traced_ops_per_s - 1
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        spans_out = os.path.join(os.path.dirname(workdir), "spans-%s-%d.json" % (w, seed))
        shutil.copyfile(os.path.join(workdir, "spans.json"), spans_out)
        print("tracing overhead: traced %.3f ops/s against untraced %.3f ops/s (%+.1f%%); spans in %s"
              % (traced_ops_per_s, ops_per_s, 100 * overhead, os.path.relpath(spans_out)))
        for name, n in sorted(traced["raised_by_type"].items()):
            print("raised %s x%d" % (name, n))
        for name, m in metrics.items():
            if m["value"]:
                print("%-48s %14.4f %s" % (name, m["value"], m["unit"]))
        t_attempted, t_failed, t_wrong = counts(traced)
        attempted += t_attempted
        failed += t_failed
        wrong = wrong or t_wrong
    for name in ("setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms", "ok_share", "peak_rss_mb"):
        if name in metrics:
            print("%-16s %14.4f %s" % (name, metrics[name]["value"], metrics[name]["unit"]))
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
