"""`cli`: one `goedellab` process per op, one after another, against a
persistent index-table cache built during set-up.

Why: interpreter start and imports dominate most ops here, and the codec
works through the disk cache instead of memory, so dropping numpy or the
cache shows here.  A small share of ops bypass the cache (the ROADMAP's
uncached `--json diagonalize` and `enumerate --up-to 1e36`), number
arguments come in every documented form, and some inputs have exit 1, 2
or 3 as their documented answer.
"""

from __future__ import annotations

import json
import os

import oracle as O
import wl_modal
import wl_proof
from common import Op, log_stratum, random_formula

TABLE_BOUND = 10**36
E_MEMBERSHIP = ("not", ("dem", ("sub", ("var", 0), ("var", 0))))


def number_form(rng, n: int, form: str) -> str:
    if form == "dec":
        return str(n)
    if form == "hex":
        return "0x%x" % n
    if form == "lenhex":
        h = "%x" % n
        return "hex%d:%s" % (len(h), h)
    zeros = 0
    while n % 10 == 0 and n:
        n //= 10
        zeros += 1
    return "%de%d" % (n, zeros)


def expect_run(rc: int, out=None, contains=(), err_prefix=None):
    """A check on (exit code, stdout, stderr) of one CLI process."""

    def check(ok, value):
        if not ok:
            return False, "could not run: %s" % value
        got_rc, got_out, got_err = value
        if got_rc != rc:
            return False, "exit %d, expected %d: %s" % (got_rc, rc, got_err.strip()[-120:])
        if out is not None and got_out != out:
            return True, "stdout %r, expected %r" % (got_out[:60], out[:60])
        for line in contains:
            if line not in got_out.splitlines():
                return True, "stdout lacks %r" % line
        if err_prefix is not None and not got_err.startswith(err_prefix):
            return False, "stderr %r, expected %r..." % (got_err[:60], err_prefix)
        return None

    return check


class Cli:
    def __init__(self, run, workdir):
        self.run = run  # (args) -> (exit code, stdout, stderr), run from the checkout's root
        self.workdir = os.path.relpath(workdir)
        self.cache = os.path.join(self.workdir, "cache")
        self.table = O.unary_below(TABLE_BOUND)
        self.gen = wl_modal.Modal(None)
        self.files = 0

    def write(self, text: str) -> str:
        self.files += 1
        path = os.path.join(self.workdir, "input-%d.txt" % self.files)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def op(self, kind, args, check, cache="none"):
        return Op(kind, " ".join(args), lambda: self.run(args), check, {"index_table_" + cache: 1})

    def setup(self):
        """Build the run's index-table cache directory."""
        os.makedirs(self.cache, exist_ok=True)
        rc, _, err = self.run(["--cache-dir", self.cache, "enumerate", "--up-to", "1e36"])
        if rc != 0:
            raise RuntimeError("building the index-table cache failed: %s" % err)

    # --- codec subcommands ---------------------------------------------

    def encode(self, rng, f=None, kind="encode"):
        f = f or random_formula(rng, 3)
        return self.op(kind, ["encode", O.print_formula(f)],
                       expect_run(0, O.format_number(O.encode(f)) + "\n"))

    def decode(self, rng, form, m=None):
        if m is None:
            f = random_formula(rng, 3)
        else:
            f = ("eq", ("var", 0), ("nat", m))
        g = O.encode(f)
        return self.op("decode_large" if m else "decode", ["decode", number_form(rng, g, form)],
                       expect_run(0, O.print_formula(f) + "\n"))

    def domain_error(self, rng):
        if rng.random() < 0.5:
            toks = O.tokens(random_formula(rng, 2)) + [O.ZERO]
            return self.op("decode_bad", ["decode", str(O.encode_tokens(toks))],
                           expect_run(1, err_prefix="not-well-formed"))
        text = O.print_formula(random_formula(rng, 2))[:-1]
        return self.op("encode_bad", ["encode", text + " ="], expect_run(1, err_prefix="parse error"))

    def diagnum(self, rng, n=None):
        g = self.table[n or rng.randrange(2, 78)][0]
        return self.op("diagnum", ["diagnum", number_form(rng, g, rng.choice(("dec", "hex")))],
                       expect_run(3, err_prefix="resource bound"))

    def subnum(self, rng, form, m=None):
        n, m = rng.randrange(403), m or rng.randrange(1, 30) * 100
        value = O.encode(O.substitute(self.table[n][1], 0, ("nat", m)))
        return self.op("subnum_" + form, ["--cache-dir", self.cache, "subnum",
                                          number_form(rng, n, "dec"), number_form(rng, m, form)],
                       expect_run(0, O.format_number(value) + "\n"), cache="read")

    def diagonalize(self, rng, cached: bool, q=None):
        """The default template (E membership, index 169) when q is None."""
        default = q is None
        psi = E_MEMBERSHIP if default else self.table[q][1]
        q = 169 if default else q
        sentence = O.substitute(psi, 0, ("nat", q))
        expected = {
            "schema": "diagonal/1", "template": O.print_formula(psi), "psi": O.print_formula(psi),
            "q": q, "sentence": O.print_formula(sentence),
            "sentence_code_hex": "%x" % O.encode(sentence), "fixed_point_checked": True,
        }
        args = ["--json", "diagonalize"] + ([] if default else ["--template", O.print_formula(psi)])
        if cached:
            args = ["--cache-dir", self.cache] + args
        check = expect_run(0, json.dumps(expected, sort_keys=True, separators=(",", ":")) + "\n")
        return self.op("diagonalize" + ("_cached" if cached else "_uncached"), args, check,
                       cache="read" if cached else "bypass")

    def enumerate(self, rng, cached: bool, b=None):
        if cached:
            b = b or int(log_stratum(rng, 1e12, 1e28, 0, 1))
            bound = number_form(rng, b, rng.choice(("dec", "hex", "lenhex")))
            if rng.random() < 0.3:
                b = 10 ** rng.randrange(12, 29)
                bound = number_form(rng, b, "exp")
        else:
            b, bound = TABLE_BOUND, "1e36"
        lines = "".join("%d %s %s\n" % (i, O.format_number(c), O.print_formula(f))
                        for i, (c, f) in enumerate(x for x in self.table if x[0] <= b))
        args = ["enumerate", "--up-to", bound]
        if cached:
            args = ["--cache-dir", self.cache] + args
        return self.op("enumerate" + ("_cached" if cached else "_1e36"), args, expect_run(0, lines),
                       cache="write" if cached else "bypass")

    # --- proofs, audits, models ----------------------------------------

    def prove(self, rng, mutate: bool):
        steps = wl_proof.chain_steps(rng, 12)
        if mutate:
            bad = rng.randrange(2, len(steps) + 1)
            f, j = steps[bad - 1]
            steps[bad - 1] = (("not", f), j)
            path = self.write(wl_proof.proof_text(steps))
            rejected = expect_run(1)

            def check(ok, value):
                failed = rejected(ok, value)
                if failed is None and not value[1].startswith("invalid at step %d:" % bad):
                    return True, "stdout %r, expected a rejection at step %d" % (value[1][:60], bad)
                return failed

            return self.op("prove_check_invalid", ["prove", "check", path], check)
        path = self.write(wl_proof.proof_text(steps))
        return self.op("prove_check", ["prove", "check", path], expect_run(0, "valid (12 steps)\n"))

    def audit(self, rng, mode: str):
        if mode == "goedel --extended":
            lines = ["classification: App(q,q) is overdetermined"]
        elif mode == "canonical":
            lines = ["classification: App(q,q) is overdetermined",
                     "assumptions consumed: COMP_E, DEF_E, NEC_DEF, REFL"]
        elif mode == "goedel":
            lines = ["classification: App(q,q) is independent", "assumptions consumed: CONS, DEF_E, REFL"]
        elif mode == "compare":
            lines = ["consumed in both modes:      DEF_E, REFL",
                     "only in the canonical mode:  COMP_E, NEC_DEF",
                     "only in the goedel mode:     CONS"]
        elif mode == "cores":
            lines = ["core: {COMP_E, DEF_E, REFL}"]
        else:
            mapping = wl_proof.random_renaming(rng, {"DEF_E", "NEC_DEF", "REFL", "COMP_E"})
            path = self.write(wl_proof.rename(wl_proof.CANONICAL, mapping))
            consumed = ", ".join(sorted(mapping.values()))
            return self.op("audit_run", ["audit", "run", path],
                           expect_run(0, contains=["assumptions consumed: " + consumed]))
        return self.op("audit_" + mode.split()[0], ["audit"] + mode.split(), expect_run(0, contains=lines))

    def model_check(self, rng):
        n = rng.randrange(2, 6)
        model = O.Kripke(n, wl_modal.random_frame(rng, "K", n, 0.4),
                         {a: {w for w in range(n) if rng.random() < 0.5} for a in ("p", "q")})
        f = wl_modal.random_modal(rng, ("p", "q"), 3, 7)
        path = self.write(json.dumps({
            "worlds": n, "relation": [[a, b] for a in range(n) for b in sorted(model.succ[a])],
            "valuation": {a: sorted(ws) for a, ws in model.valuation.items()}}))
        worlds = sorted(model.extension(f))
        out = "forced at worlds: %s\n" % (", ".join(map(str, worlds)) or "(none)")
        return self.op("model_check", ["model", "check", path, O.modal_text(f)], expect_run(0, out))

    def witness(self, text_out, f, logic, bound):
        """None if the JSON model after the first line is a witness."""
        try:
            d = json.loads(text_out.split("\n", 1)[1])
            succ = [set() for _ in range(d["worlds"])]
            for a, b in d["relation"]:
                succ[a].add(b)
            model = O.Kripke(d["worlds"], succ, {a: set(ws) for a, ws in d["valuation"].items()})
        except (ValueError, KeyError, IndexError, TypeError) as e:
            return True, "unreadable model: %s" % e
        if model.worlds > bound or not model.frame_ok(logic) or d["world"] not in model.extension(f):
            return True, "printed model is not a witness"
        return None

    def model_find(self, rng, sat: bool):
        logic = rng.choice(("K", "K4", "GL"))
        bound = {"K": 2, "K4": 3, "GL": 4}[logic]
        f = self.gen.planted(rng, logic, 2, bound)[0] if sat else self.gen.unsat(rng, logic, 2)
        args = ["model", "find", O.modal_text(f), "--logic", logic, "--max-worlds", str(bound)]
        ran = expect_run(0)

        def check(ok, value):
            failed = ran(ok, value)
            if failed:
                return failed
            found = value[1].startswith("model with ")
            if not sat:
                return (True, "found a model of a formula that has none") if found else None
            if not found:
                return True, "no model found, but one exists within %d worlds" % bound
            return self.witness(value[1], f, logic, bound)

        return self.op("model_find", args, check)

    def model_valid(self, rng, valid: bool):
        logic = rng.choice(("K", "K4", "GL"))
        if valid:
            f = ("not", self.gen.unsat(rng, logic, 2))
            return self.op("model_valid", ["model", "valid", O.modal_text(f), "--logic", logic],
                           expect_run(0, "valid in %s\n" % logic))
        g = self.gen.planted(rng, logic, 2, 3)[0]
        f = ("not", g)
        ran = expect_run(0)

        def check(ok, value):
            failed = ran(ok, value)
            if failed:
                return failed
            if not value[1].startswith("invalid in %s\n" % logic):
                return True, "stdout %r, expected invalid in %s" % (value[1][:40], logic)
            return self.witness(value[1], g, logic, 3)

        return self.op("model_valid", ["model", "valid", O.modal_text(f), "--logic", logic], check)

    def usage_error(self, rng, args=None):
        args = args or rng.choice((["model", "find", "p", "--logic", "S5"], ["subnum", "3"],
                                   ["frobnicate"], ["enumerate"]))
        return self.op("usage_error", args, expect_run(2))

    # --- rounds --------------------------------------------------------

    def warmup(self, rng):
        """One op per subcommand, on inputs disjoint from the measured ones."""
        return [
            self.encode(rng, ("eq", ("nat", 1), ("nat", 1)), "encode"), self.decode(rng, "dec"),
            self.diagnum(rng, 1), self.subnum(rng, "dec", 50), self.diagonalize(rng, True, 9),
            self.enumerate(rng, True, 10**11), self.prove(rng, False),
            self.audit(rng, "goedel --extended"), self.model_check(rng),
            self.usage_error(rng, ["model", "check"]),
        ]

    def round(self, rng):
        ops = [self.encode(rng) for _ in range(6)]
        ops.append(self.encode(rng, ("eq", ("nat", 0), ("nat", 0)), "encode_0eq0"))
        ops += [self.decode(rng, form) for form in ("dec", "hex", "lenhex")]
        ops.append(self.decode(rng, "lenhex", int(log_stratum(rng, 800, 1400, 0, 1))))
        ops += [self.domain_error(rng), self.domain_error(rng), self.diagnum(rng)]
        ops += [self.subnum(rng, form) for form in ("dec", "dec", "exp", "hex")]
        ops += [self.diagonalize(rng, True), self.diagonalize(rng, True)]
        ops += [self.diagonalize(rng, True, int(log_stratum(rng, 14, 402, 0, 1))) for _ in range(2)]
        ops += [self.enumerate(rng, True) for _ in range(3)]
        ops += [self.diagonalize(rng, False), self.enumerate(rng, False)]
        ops += [self.prove(rng, False), self.prove(rng, True)]
        ops += [self.audit(rng, mode) for mode in ("canonical", "goedel", "compare", "cores", "run")]
        ops += [self.model_check(rng), self.model_find(rng, True), self.model_find(rng, False),
                self.model_valid(rng, True), self.model_valid(rng, False)]
        ops += [self.usage_error(rng)]
        rng.shuffle(ops)
        return ops
