"""Time this checkout against an earlier revision in one process, op by op,
on the benchmark's own `lib` workload.

    python tools/ab.py --parent REV [--seed N] [--rounds K]

`git archive REV` is unpacked into a temporary directory, and its
`src/goedellab` is imported under another package name, beside this
checkout's `goedellab`.  Each tree gets a `perfbench/wl_lib.Lib` of its
own; round k of both is built from the same seeded generator, so the two
op lists hold the same inputs in the same order.  The ops are then run
pairwise, alternating which tree goes first, with the collector frozen
before each round as `perfbench/worker.py` does.  Separate benchmark runs
cannot show a shift of 5-15%, since the machine's speed drifts between
them by more than that; pairs of ops run a few microseconds apart share
the machine's state.

The report has each op kind's median latency in both trees, their
ratio, and in how many rounds the kind's median was lower in this
checkout; then each tree's ops/s, p50 and tail latency over all ops, by
`perfbench/common.percentile` at the benchmark's tail percentile.  Every
op's outcome is checked by the workload's oracle, and the exit status is
1 when any op failed in either tree.  Nothing under `perfbench/` is
written.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PARENT = "goedellab_parent"  # the package name the parent's tree is imported as


def load(src: str, name: str):
    """The goedellab package under src, imported as name with all eight
    subsystems."""
    sys.path.insert(0, src)
    try:
        package = importlib.import_module(name)
        for sub in ("audit", "cli", "codec", "diagonal", "formulas", "kernel", "meta", "modal"):
            importlib.import_module(name + "." + sub)
    finally:
        sys.path.remove(src)
    return package


def unpack(rev: str, tmp: str) -> str:
    """Unpack rev's `src/goedellab` as tmp/PARENT; return tmp."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev, "src/goedellab"],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
    os.rename(os.path.join(tmp, "src", "goedellab"), os.path.join(tmp, PARENT))
    return tmp


def timed(op) -> tuple[float, bool]:
    """The op's latency and whether its outcome passed its check, timed as
    `perfbench/worker.execute` does."""
    t0 = time.perf_counter()
    try:
        value, ok = op.call(), True
    except Exception as e:  # the outcome of the op; judged by its check
        value, ok = e, False
    latency = time.perf_counter() - t0
    return latency, op.check(ok, value) is None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the revision to compare against")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--rounds", type=int, default=6, help="lib rounds per tree")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": load(unpack(args.parent, tmp), PARENT),
                 "this": load(os.path.join(ROOT, "src"), "goedellab")}
        return compare(trees, args.seed, args.rounds)


def compare(trees: dict, seed: int, rounds_run: int) -> int:
    from common import percentile, round_rng, tail_percentile
    from wl_lib import Lib

    libs = {name: Lib(package) for name, package in trees.items()}
    for lib in libs.values():
        for op in lib.warmup(round_rng(seed, "warmup", 0)):
            timed(op)

    latencies = {name: {} for name in trees}  # tree -> kind -> [seconds]
    wins: dict[str, int] = {}  # kind -> rounds whose median is lower here
    failed = {name: 0 for name in trees}
    for r in range(rounds_run):
        rounds = {name: lib.round(round_rng(seed, "lib", r)) for name, lib in libs.items()}
        gc.collect()
        gc.freeze()
        this_round = {name: {} for name in trees}
        for i, pair in enumerate(zip(rounds["parent"], rounds["this"])):
            ops = dict(zip(("parent", "this"), pair))
            for name in ("parent", "this") if (i + r) % 2 == 0 else ("this", "parent"):
                latency, ok = timed(ops[name])
                failed[name] += not ok
                this_round[name].setdefault(ops[name].kind, []).append(latency)
        for kind, values in this_round["this"].items():
            wins[kind] = wins.get(kind, 0) + (
                statistics.median(values) < statistics.median(this_round["parent"][kind]))
        for name in trees:
            for kind, values in this_round[name].items():
                latencies[name].setdefault(kind, []).extend(values)

    print("%-26s %10s %10s %7s %6s" % ("kind (median ms)", "parent", "this", "ratio", "wins"))
    for kind in sorted(latencies["this"]):
        old = statistics.median(latencies["parent"][kind])
        new = statistics.median(latencies["this"][kind])
        print("%-26s %10.4f %10.4f %7.3f %3d/%d" % (kind, 1000 * old, 1000 * new, new / old,
                                                   wins[kind], rounds_run))
    size = sum(len(v) for v in latencies["this"].values()) // rounds_run
    tail = tail_percentile(size)
    for name in trees:
        every = sorted(x for values in latencies[name].values() for x in values)
        print("%-6s ops/s %8.1f  p50 %.4f ms  p%d %.4f ms  failed %d" % (
            name, len(every) / sum(every), 1000 * percentile(every, 50), tail,
            1000 * percentile(every, tail), failed[name]))
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
