"""In-memory spans around the public functions of goedellab's modules.

`Tracer.install` replaces module and class attributes with wrappers, so
calls between modules and within a module (which go through module
globals) are both seen.  Spans are kept in a list and written out once,
at the end of a run; a layer's self time is its span's duration minus
the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import Counter

MODULES = ("cli", "formulas", "codec", "diagonal", "kernel", "meta", "audit", "modal")


def _results(args, result):
    return {"results": len(result)}


def _rle_tokens(args, result):
    return {"tokens": sum(c for _, c in args[0].runs)}


def _bits(args, result):
    return {"bits": args[0].bit_length()}


def _lookup(args, result):
    return {"misses" if result is None else "hits": 1}


def _proof_steps(args, result):
    return {"steps": len(args[0].steps) if result.ok else result.step, "rejected": not result.ok}


def _script_steps(args, result):
    return {"steps": len(result.steps)}


def _search(args, result):
    return {"exhausted" if result is None else "found": 1}


# (module, owner class or None, attribute, metric name, kind, counts).
# kind: "span" records every call; "outermost" (recursive entry points)
# only the outermost one; "count" records no span, only the counts.
# counts(args, result) returns {suffix: n}, added to "module.name.suffix".
TARGETS = (
    ("cli", None, "main", "main", "span", None),
    ("formulas", None, "parse_formula", "parse_formula", "span", None),
    ("formulas", None, "print_formula", "print_formula", "outermost", None),
    ("formulas", None, "substitute", "substitute", "span", None),
    ("codec", None, "unary_formulas_below", "unary_formulas_below", "span", _results),
    ("codec", None, "count_unary_below", "count_unary_below", "span", None),
    ("codec", None, "formula_at", "formula_at", "span", None),
    ("codec", None, "index_of", "index_of", "span", None),
    ("codec", None, "encode_formula", "encode_formula", "span", None),
    ("codec", "CodeRLE", "to_int", "CodeRLE.to_int", "span", _rle_tokens),
    ("codec", None, "sub_num", "sub_num", "span", None),
    ("codec", None, "diag_num", "diag_num", "span", None),
    ("codec", None, "decode_formula", "decode_formula", "span", _bits),
    ("codec", "IndexTable", "__init__", "IndexTable.load", "span", None),
    ("codec", "IndexTable", "save", "IndexTable.save", "span", None),
    ("codec", "IndexTable", "formula_at", "IndexTable", "count", _lookup),
    ("codec", "IndexTable", "index_of", "IndexTable", "count", _lookup),
    ("diagonal", None, "diagonalize", "diagonalize", "span", None),
    ("kernel", None, "parse_proof_file", "parse_proof_file", "span", None),
    ("kernel", None, "check_proof", "check_proof", "span", _proof_steps),
    ("meta", None, "parse_meta", "parse_meta", "span", None),
    ("meta", None, "satisfiable", "satisfiable", "span", None),
    ("meta", None, "tautological_consequence", "tautological_consequence", "span", None),
    ("audit", None, "parse_script", "parse_script", "span", None),
    ("audit", None, "check_script", "check_script", "span", _script_steps),
    ("audit", None, "minimal_inconsistent_subsets", "minimal_inconsistent_subsets", "span", None),
    ("modal", None, "parse_modal", "parse_modal", "span", None),
    ("modal", None, "is_satisfiable", "is_satisfiable", "span", None),
    ("modal", None, "status", "status", "span", None),
    ("modal", None, "find_model", "find_model", "span", _search),
    ("modal", "KripkeModel", "forces", "KripkeModel.forces", "outermost", None),
)

# Extra counts beside each function's calls and self time.
COUNTS = (
    "codec.unary_formulas_below.results",
    "codec.CodeRLE.to_int.tokens",
    "codec.decode_formula.bits",
    "codec.IndexTable.hits",
    "codec.IndexTable.misses",
    "kernel.check_proof.steps",
    "kernel.check_proof.rejected",
    "audit.check_script.steps",
    "modal.find_model.found",
    "modal.find_model.exhausted",
)


def span_names() -> list[str]:
    traced = [m + "." + n for m, _, _, n, kind, _ in TARGETS if kind != "count"]
    return ["cli.process", "cli.import"] + traced


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order, but for
    trace.overhead, which run.py adds from the untraced and traced runs."""
    out = []
    for name in span_names():
        out.append((name + ".ms", "ms/op"))
        if name != "cli.import":
            out.append((name + ".calls", "count/op"))
    out += [(c, "count/op") for c in COUNTS]
    out += [("codec.IndexTable.hit_ratio", "ratio"), ("modal.find_model.found_ratio", "ratio")]
    out += [(m + ".raised", "count/op") for m in MODULES]
    return out


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, op id]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.counts: Counter = Counter()
        self.raised: Counter = Counter()  # (module, exception type)
        self.depth: Counter = Counter()

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, module: str, name: str, orig, kind: str, counts):
        tracer = self
        full = module + "." + name

        def add_counts(args, result):
            for suffix, n in counts(args, result).items():
                tracer.counts[full + "." + suffix] += n

        if kind == "count":
            def wrapper(*args, **kwargs):
                result = orig(*args, **kwargs)
                add_counts(args, result)
                return result

            return wrapper

        def wrapper(*args, **kwargs):
            if kind == "outermost" and tracer.depth[full]:
                return orig(*args, **kwargs)
            tracer.depth[full] += 1
            idx = tracer.open(full)
            try:
                result = orig(*args, **kwargs)
            except BaseException as e:
                parent = tracer.spans[idx][3]
                if parent is None or not tracer.spans[parent][0].startswith(module + "."):
                    tracer.raised[(module, type(e).__name__)] += 1
                raise
            finally:
                tracer.close(idx)
                tracer.depth[full] -= 1
            if counts is not None:
                add_counts(args, result)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def install(self, package) -> None:
        """Wrap every target in the already imported goedellab package."""
        for module, owner, attr, name, kind, counts in TARGETS:
            mod = getattr(package, module)
            target = getattr(mod, owner) if owner else mod
            setattr(target, attr, self._wrap(module, name, getattr(target, attr), kind, counts))

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "raised": [[m, t, n] for (m, t), n in self.raised.items()],
        }

    def absorb(self, data: dict, parent: int) -> None:
        """Attach a child process's dump under the span `parent`."""
        base = len(self.spans)
        for name, t0, t1, p, _ in data["spans"]:
            self.spans.append([name, t0, t1, parent if p is None else p + base, self.op])
        self.counts.update(data["counts"])
        for m, t, n in data["raised"]:
            self.raised[(m, t)] += n

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.dump(), fh)


def aggregate(data: dict, ops: int) -> tuple[dict, dict]:
    """Per-layer metrics (self time and counts per op) and the raised
    exceptions by type."""
    spans = data["spans"]
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent is not None:
            child[parent] += t1 - t0
    self_ms: Counter = Counter()
    calls: Counter = Counter()
    for i, (name, t0, t1, _, _) in enumerate(spans):
        # a CLI child's wall time is reported whole, the rest as self time
        own = t1 - t0 if name == "cli.process" else t1 - t0 - child[i]
        self_ms[name] += own * 1000.0
        calls[name] += 1
    counts = Counter(data["counts"])
    raised: Counter = Counter()
    by_type: dict = {}
    for m, t, n in data["raised"]:
        raised[m] += n
        by_type["%s.%s" % (m, t)] = n
    per_op = max(ops, 1)
    metrics = {}
    for name, unit in metric_names():
        if name.endswith(".ms"):
            value = self_ms[name[:-3]] / per_op
        elif name.endswith(".calls"):
            value = calls[name[:-6]] / per_op
        elif name.endswith(".raised"):
            value = raised[name[:-7]] / per_op
        elif name == "codec.IndexTable.hit_ratio":
            looked = counts["codec.IndexTable.hits"] + counts["codec.IndexTable.misses"]
            value = counts["codec.IndexTable.hits"] / looked if looked else 0.0
        elif name == "modal.find_model.found_ratio":
            ran = counts["modal.find_model.found"] + counts["modal.find_model.exhausted"]
            value = counts["modal.find_model.found"] / ran if ran else 0.0
        else:
            value = counts[name] / per_op
        metrics[name] = {"value": value, "unit": unit}
    return metrics, by_type
