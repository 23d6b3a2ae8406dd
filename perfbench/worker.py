"""One workload in one process: set up, then run whole rounds of ops in a
closed loop, timing each op and checking its outcome against the
oracles.  `run.py` starts this as a child and reads the JSON object it
prints last.

Modes: `setup` stops once set-up is done; `measure` runs rounds until
`--seconds` have passed; `traced` runs exactly `--rounds` rounds with
spans recorded around goedellab's public functions.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()  # before the benchmark's own imports

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import Tally, round_rng  # noqa: E402
from tracing import Tracer, aggregate  # noqa: E402

CLI_BOOT = "import sys; from goedellab.cli import main; sys.exit(main())"
CLI_TIMEOUT_S = 60


def import_goedellab(src: str):
    sys.path.insert(0, src)
    import goedellab
    from goedellab import audit, cli, codec, diagonal, formulas, kernel, meta, modal  # noqa: F401

    if os.path.dirname(os.path.abspath(goedellab.__file__)) != os.path.join(src, "goedellab"):
        raise RuntimeError("imported goedellab from %s, not from %s" % (goedellab.__file__, src))
    return goedellab


def cli_runner(root: str, src: str, workdir: str, tracer: Tracer | None):
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    # the cache a user may have configured; only ops given --cache-dir use one
    env.pop("GOEDEL_CACHE_DIR", None)
    spans = os.path.join(workdir, "child-spans.json")

    def run(args):
        if tracer is None:
            argv = [sys.executable, "-c", CLI_BOOT] + args
        else:
            argv = [sys.executable, os.path.join(HERE, "launch.py"), spans] + args
            idx = tracer.open("cli.process")
        try:
            proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)
        finally:
            if tracer is not None:
                tracer.close(idx)
        if tracer is not None and os.path.exists(spans):
            with open(spans) as fh:
                tracer.absorb(json.load(fh), idx)
            os.remove(spans)
        return proc.returncode, proc.stdout, proc.stderr

    return run


def execute(op):
    t0 = time.perf_counter()
    try:
        value = op.call()
        ok = True
    except Exception as e:  # the outcome of the op; judged by its check
        value, ok = e, False
    return time.perf_counter() - t0, ok, value


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--mode", choices=("setup", "measure", "traced"), required=True)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--spawned", type=float, required=True, help="parent's time.monotonic() at spawn")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    tracer = Tracer() if args.mode == "traced" else None
    # set-up counts the program's work only: this process's start and the
    # import of goedellab (in-process workloads), building the index-table
    # cache (cli) and the warm-up ops; the oracles' work is left out
    if args.workload == "cli":
        from wl_cli import Cli

        wl = Cli(cli_runner(root, src, args.workdir, None), args.workdir)
        t0 = time.monotonic()
        wl.setup()
        setup_s = time.monotonic() - t0
        package = None
    else:
        t0 = time.monotonic()
        package = import_goedellab(src)
        setup_s = STARTED - args.spawned + time.monotonic() - t0
        from wl_lib import Lib

        wl = Lib(package)

    warm_failures = []
    for op in wl.warmup(round_rng(args.seed, "warmup", 0)):
        latency, ok, value = execute(op)
        setup_s += latency
        failure = op.check(ok, value)
        if failure:
            warm_failures.append("%s: %s" % (op.kind, failure[1]))
    result = {"setup_s": setup_s, "warmup_failures": warm_failures}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    if tracer is not None and package is not None:
        tracer.install(package)
    elif tracer is not None:
        wl.run = cli_runner(root, src, args.workdir, tracer)
    tally = Tally()
    ready = time.monotonic()
    rounds = 0
    while True:
        ops = wl.round(round_rng(args.seed, args.workload, rounds))
        # the benchmark's own records and inputs leave the collector's
        # view, so its cost within an op does not grow as the run goes on
        gc.collect()
        gc.freeze()
        for op in ops:
            if tracer is not None:
                tracer.op = tally.ops
            latency, ok, value = execute(op)
            tally.add(op, latency, op.check(ok, value))
        rounds += 1
        if args.mode == "traced":
            if rounds >= args.rounds:
                break
        elif time.monotonic() - ready >= args.seconds:
            break

    # read before the results are gathered, which take memory of their own
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    result.update(tally.result(), rounds=rounds, round_size=tally.ops // rounds)
    if tracer is not None:
        data = tracer.dump()
        with open(os.path.join(args.workdir, "spans.json"), "w") as fh:
            json.dump(data, fh)
        result["layers"], result["raised_by_type"] = aggregate(data, tally.ops)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
