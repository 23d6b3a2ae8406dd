"""Command-line entry point.

Exit codes: 0 success, 1 domain error (e.g. a number that is not
well-formed, an invalid proof), 2 usage error, 3 resource bound.

Output is deterministic: identical inputs (and cache state) produce
byte-identical bytes.  `--json` switches to machine output with a
versioned `schema` field; all big numbers appear there as hex strings.
In text mode, numbers of 64 bits or more print in a length-prefixed hex
form `hex<digit-count>:<hex-digits>`.

Each handler imports the subsystems it runs, so a process loads only the
modules its command needs; a usage error loads none of them.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from .errors import WorkbenchError

if TYPE_CHECKING:
    from . import audit, codec

# modal.LOGICS, spelled out so that parsing --logic does not import modal
LOGICS = ("K", "K4", "GL")

# --- number formatting -------------------------------------------------

_HEX_THRESHOLD = 1 << 64
_NON_ASCII = "digits must be ASCII"


def format_number(n: int) -> str:
    if n < _HEX_THRESHOLD:
        return str(n)
    h = "%x" % n
    return "hex%d:%s" % (len(h), h)


def parse_number(text: str) -> int:
    """Decimal (with optional exponent, exactly), 0x hex, or the
    length-prefixed hex form emitted by this tool.  Naturals only, in
    ASCII digits."""
    text = text.strip().replace("_", "")
    try:
        if not text.isascii():
            raise ValueError(_NON_ASCII)
        if text.startswith("hex"):
            length, _, digits = text[3:].partition(":")
            n = int(digits, 16)
            if int(length) != len(digits):
                raise ValueError("length prefix does not match")
        elif text.lower().startswith("0x"):
            n = int(text, 16)
        elif "e" in text.lower():
            base, _, exp = text.lower().partition("e")
            base, exp = int(base), int(exp)
            # int() refuses decimal strings longer than this; the exponent
            # form obeys the same limit before any power of ten is built
            limit = sys.get_int_max_str_digits()
            if limit and (len(str(base)) + exp if exp >= 0 else 1 - exp) > limit:
                raise ValueError("more than %d digits" % limit)
            if exp >= 0:
                n = base * 10**exp
            else:
                n, rest = divmod(base, 10**-exp)
                if rest:
                    raise ValueError("not an exact integer")
        else:
            n = int(text)
        if text.startswith("-") or n < 0:
            raise ValueError("negative")
        return n
    except ValueError as e:
        raise WorkbenchError("not a number: %r (%s)" % (text, e))


def int_option(text: str) -> int:
    """argparse type of --world and --max-worlds.  Non-ASCII digits, which
    int() reads, are a domain error (exit 1) like in parse_number; other
    malformed values stay usage errors (exit 2) with type=int's message."""
    if not text.isascii():
        raise WorkbenchError("not a number: %r (%s)" % (text, _NON_ASCII))
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    sys.stdout.write("\n")


# --- subcommand handlers ----------------------------------------------


def _cache(args) -> codec.IndexTable | None:
    from . import codec

    path = codec.default_cache_path(args.cache_dir)
    return codec.IndexTable(path) if path else None


def cmd_encode(args) -> int:
    from . import codec, formulas as F

    f = F.parse_formula(args.formula)
    code = codec.encode_formula(f)
    if args.json:
        _emit_json(
            {"schema": "code/1", "formula": F.print_formula(f), "code_hex": "%x" % code}
        )
    else:
        print(format_number(code))
    return 0


def cmd_decode(args) -> int:
    from . import codec, formulas as F

    code = parse_number(args.number)
    f = codec.decode_formula(code)
    if args.json:
        _emit_json(
            {"schema": "formula/1", "code_hex": "%x" % code, "formula": F.print_formula(f)}
        )
    else:
        print(F.print_formula(f))
    return 0


def cmd_enumerate(args) -> int:
    from . import codec, formulas as F

    bound = parse_number(args.up_to)
    entries = codec.unary_formulas_below(bound)
    cache = _cache(args)
    if cache is not None:
        cache.record(entries)
    if args.json:
        _emit_json(
            {
                "schema": "enumeration/1",
                "up_to_hex": "%x" % bound,
                "formulas": [
                    {"index": i, "code_hex": "%x" % code, "formula": F.print_formula(f)}
                    for i, (code, f) in enumerate(entries)
                ],
            }
        )
    else:
        for i, (code, f) in enumerate(entries):
            print("%d %s %s" % (i, format_number(code), F.print_formula(f)))
    return 0


def cmd_subnum(args) -> int:
    from . import codec

    n, m = parse_number(args.n), parse_number(args.m)
    code = codec.sub_num(n, m, _cache(args))
    if args.json:
        _emit_json({"schema": "code/1", "n": n, "m": m, "code_hex": "%x" % code})
    else:
        print(format_number(code))
    return 0


def cmd_diagnum(args) -> int:
    from . import codec

    g = parse_number(args.g)
    code = codec.diag_num(g)
    if args.json:
        _emit_json({"schema": "code/1", "g_hex": "%x" % g, "code_hex": "%x" % code})
    else:
        print(format_number(code))
    return 0


def cmd_diagonalize(args) -> int:
    from . import diagonal, formulas as F

    psi = (
        F.parse_formula(args.template)
        if args.template
        else diagonal.e_membership_formula()
    )
    cert = diagonal.diagonalize(psi, _cache(args))
    payload = {"schema": "diagonal/1", **cert.to_json_dict()}
    if args.json:
        _emit_json(payload)
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def cmd_prove_check(args) -> int:
    from . import formulas as F, kernel
    from .syntax import read_text

    proof, premises = kernel.parse_proof_file(read_text(args.file))
    verdict = kernel.check_proof(proof, premises)
    if args.json:
        _emit_json(
            {
                "schema": "proof/1",
                "valid": verdict.ok,
                "step": verdict.step,
                "reason": verdict.reason,
                "conclusion": F.print_formula(proof.last_formula())
                if proof.steps
                else None,
            }
        )
    elif verdict.ok:
        print("valid (%d steps)" % len(proof.steps))
    else:
        print("invalid at step %d: %s" % (verdict.step, verdict.reason))
    return 0 if verdict.ok else 1


def _print_report(report: audit.AuditReport) -> None:
    from . import meta as M

    for s in report.steps:
        status = "ok " if s.ok else "BAD"
        formula = M.print_meta(s.formula) if s.formula else "-"
        extras = ""
        if s.assumptions:
            extras += "  uses {%s}" % ",".join(sorted(s.assumptions))
        if s.hypotheses:
            extras += "  under {%s}" % ",".join(sorted(s.hypotheses))
        if s.provenance:
            extras += "  (%s)" % s.provenance
        if not s.ok:
            extras += "  [%s]" % s.reason
        print("%-4s %s %s%s" % (s.id, status, formula, extras))
    for f in report.contradictions:
        suffix = " (requires consistency)" if f.requires_consistency else ""
        print("contradiction at %s: %s%s — %s" % (f.step, f.pattern, suffix, f.detail))
    for desig, verdict in sorted(report.classification.items()):
        print("classification: %s is %s" % (desig, verdict))
    print("assumptions consumed: %s" % ", ".join(sorted(report.consumed)))


def _report_result(args, report: audit.AuditReport) -> int:
    if args.json:
        _emit_json(report.to_json_dict())
    else:
        _print_report(report)
    return 0 if report.all_valid() else 1


def cmd_audit_run(args) -> int:
    from . import audit
    from .syntax import read_text

    script = audit.parse_script(read_text(args.file))
    return _report_result(args, audit.check_script(script))


def cmd_audit_canonical(args) -> int:
    from . import audit

    return _report_result(args, audit.check_script(audit.canonical_antinomy_script()))


def cmd_audit_goedel(args) -> int:
    from . import audit

    return _report_result(args, audit.check_script(audit.goedel_script(args.extended)))


def cmd_audit_compare(args) -> int:
    from . import audit

    result = audit.compare_modes()
    if args.json:
        _emit_json(result)
    else:
        print("consumed in both modes:      %s" % ", ".join(result["both"]))
        print("only in the canonical mode:  %s" % ", ".join(result["only_canonical"]))
        print("only in the goedel mode:     %s" % ", ".join(result["only_goedel"]))
        for mode in ("canonical", "goedel"):
            for desig, verdict in sorted(result[mode + "_classification"].items()):
                print("%s mode: %s is %s" % (mode, desig, verdict))
    return 0


def cmd_audit_cores(args) -> int:
    from . import audit
    from .syntax import read_text

    if args.file:
        script = audit.parse_script(read_text(args.file))
    else:
        script = audit.canonical_antinomy_script()
    cores = audit.minimal_inconsistent_subsets(script)
    if args.json:
        _emit_json(
            {"schema": "audit-cores/1", "minimal_inconsistent_subsets": cores}
        )
    else:
        if not cores:
            print("no inconsistent assumption subset")
        for core in cores:
            print("core: {%s}" % ", ".join(core))
    return 0


def cmd_model_check(args) -> int:
    from . import modal

    model = modal.KripkeModel.load(args.file)
    f = modal.parse_modal(args.formula)
    if args.world is not None and not 0 <= args.world < model.worlds:
        raise WorkbenchError("world %d out of range" % args.world)
    truth = model.truth_mask(f)
    forcing = [w for w in range(model.worlds) if truth >> w & 1]
    if args.json:
        _emit_json(
            {
                "schema": "model-check/1",
                "formula": modal.print_modal(f),
                "worlds": model.worlds,
                "forcing_worlds": forcing,
                "forced_at": None if args.world is None else args.world in forcing,
            }
        )
    elif args.world is not None:
        print("true" if args.world in forcing else "false")
    else:
        print("forced at worlds: %s" % (", ".join(map(str, forcing)) or "(none)"))
    return 0


def cmd_model_find(args) -> int:
    from . import modal

    f = modal.parse_modal(args.formula)
    witness = modal.find_model(f, args.logic, args.max_worlds)
    if args.json:
        payload = {"schema": "model-find/1", "logic": args.logic,
                   "formula": modal.print_modal(f), "found": witness is not None}
        if witness is not None:
            payload["witness"] = witness.to_json_dict()
        _emit_json(payload)
    elif witness is None:
        print("no model within the search bound")
    else:
        print("model with %d world(s), formula forced at world %d"
              % (witness.model.worlds, witness.world))
        print(json.dumps(witness.to_json_dict(), sort_keys=True, indent=2))
    return 0


def cmd_model_valid(args) -> int:
    from . import modal

    f = modal.parse_modal(args.formula)
    valid = modal.is_valid(f, args.logic)
    counter = None if valid else modal.model_within_bound(modal.Neg(f), args.logic)
    if args.json:
        payload = {"schema": "model-valid/1", "logic": args.logic,
                   "formula": modal.print_modal(f), "valid": valid}
        if counter is not None:
            payload["countermodel"] = counter.to_json_dict()
        _emit_json(payload)
    elif valid:
        print("valid in %s" % args.logic)
    else:
        print("invalid in %s" % args.logic)
        if counter is not None:
            print(json.dumps(counter.to_json_dict(), sort_keys=True, indent=2))
        else:
            print("(countermodel beyond the search bound)")
    return 0


# --- argument parsing --------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goedellab",
        description="Arithmetization workbench: coding, enumeration, "
        "diagonalization, labeled derivation audits, and modal oracles.",
    )
    parser.add_argument("--json", action="store_true", help="machine output")
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="enumeration index-table directory (default: $GOEDEL_CACHE_DIR)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="Goedel number of a formula")
    p.add_argument("formula")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="formula of a Goedel number")
    p.add_argument("number")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("enumerate", help="unary formulas in ascending code order")
    p.add_argument("--up-to", required=True, help="code bound (e.g. 1e12)")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("subnum", help="code of formula #n at the numeral of m")
    p.add_argument("n")
    p.add_argument("m")
    p.set_defaults(func=cmd_subnum)

    p = sub.add_parser("diagnum", help="code of the diagonalization of code g")
    p.add_argument("g")
    p.set_defaults(func=cmd_diagnum)

    p = sub.add_parser("diagonalize", help="fixed-point certificate")
    p.add_argument("--template", default=None, help="unary formula (default: E membership)")
    p.set_defaults(func=cmd_diagonalize)

    p = sub.add_parser("prove", help="proof kernel")
    psub = p.add_subparsers(dest="subcommand", required=True)
    pc = psub.add_parser("check", help="check a proof file")
    pc.add_argument("file")
    pc.set_defaults(func=cmd_prove_check)

    p = sub.add_parser("audit", help="labeled derivation audits")
    asub = p.add_subparsers(dest="subcommand", required=True)
    ar = asub.add_parser("run", help="check a script file")
    ar.add_argument("file")
    ar.set_defaults(func=cmd_audit_run)
    ac = asub.add_parser("canonical", help="replay the eleven-step chain")
    ac.set_defaults(func=cmd_audit_canonical)
    ag = asub.add_parser("goedel", help="replay the independence argument")
    ag.add_argument("--extended", action="store_true",
                    help="add the completeness premise")
    ag.set_defaults(func=cmd_audit_goedel)
    am = asub.add_parser("compare", help="contrast consumed assumptions")
    am.set_defaults(func=cmd_audit_compare)
    ak = asub.add_parser("cores", help="minimal inconsistent assumption subsets")
    ak.add_argument("file", nargs="?", default=None)
    ak.set_defaults(func=cmd_audit_cores)

    p = sub.add_parser("model", help="modal logic oracles")
    msub = p.add_subparsers(dest="subcommand", required=True)
    mc = msub.add_parser("check", help="evaluate a formula in a model file")
    mc.add_argument("file")
    mc.add_argument("formula")
    mc.add_argument("--world", type=int_option, default=None)
    mc.set_defaults(func=cmd_model_check)
    mf = msub.add_parser("find", help="search for a finite model")
    mf.add_argument("formula")
    mf.add_argument("--logic", choices=LOGICS, default="GL")
    mf.add_argument("--max-worlds", type=int_option, default=None)
    mf.set_defaults(func=cmd_model_find)
    mv = msub.add_parser("valid", help="tableau validity with countermodel")
    mv.add_argument("formula")
    mv.add_argument("--logic", choices=LOGICS, default="GL")
    mv.set_defaults(func=cmd_model_valid)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        # inside the try: int_option raises WorkbenchError while parsing
        args = parser.parse_args(argv)
        return args.func(args)
    except WorkbenchError as e:
        print("%s: %s" % (e.label, e), file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
