"""Command-line front end: ring reports, single checks, and catalog sweeps.

Exit codes: 0 pass/vacuous, 1 a check found a violation, 2 usage or I/O
error, 4 internal error (a computed result broke an invariant the
mathematics guarantees).  Every check is decided at every order, so a
verdict is pass, fail or vacuous (a hypothesis failed).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from . import __version__
from .catalog import (
    RingSpecError,
    parse_ring_spec,
    realize,
    render_poly,
    standard_catalog,
)
from .core import (
    FiniteRing,
    InternalInvariantError,
    UnsupportedStructureError,
    analyze,
    local_decomposition,
)
from .polyfun import Polynomial, function_count, power_stabilization
from .theorems import CHECKS, RESULT_IDS, CheckOptions, Verdict

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 4

# Accepted so that older command lines parse; no answer has a cap or a skip any more.
IGNORED_FLAGS = ("--cap-functions", "--max-bijection-order")


def _witness_json(value):
    if isinstance(value, Polynomial):
        return render_poly(value.stripped().coeffs)
    if isinstance(value, dict):
        return {k: _witness_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_witness_json(v) for v in value]
    if hasattr(value, "indices"):
        return list(value.indices())
    return value


def _verdict_json(v: Verdict, ms: float) -> dict:
    return {
        "result_id": v.result_id,
        "status": v.status,
        "holds": v.holds,
        "vacuous": v.vacuous,
        "witness": _witness_json(v.witness),
        "details": v.details,
        "ms": round(ms, 3),
    }


def _invariants_json(ring: FiniteRing) -> dict:
    inv = analyze(ring)
    mask = lambda m: list(m.indices()) if m is not None else None
    return {
        "order": ring.order,
        "label": ring.label,
        "is_commutative": inv.is_commutative,
        "is_unital": inv.is_unital,
        "is_field": inv.is_field,
        "characteristic": inv.characteristic,
        "zero_dimensional": inv.zero_dimensional,
        "idempotents": mask(inv.idempotents),
        "nilpotents": mask(inv.nilpotents),
        "nilpotency_index": inv.nilpotency_index,
        "units": mask(inv.units),
        "unit_group_exponent": inv.unit_group_exponent,
        "jacobson_radical": mask(inv.jacobson_radical),
        "is_local": inv.is_local,
        "residue_field_order": inv.residue_field_order,
    }


def _status_exit(verdicts: list[Verdict]) -> int:
    return EXIT_VIOLATION if any(v.status == "fail" for v in verdicts) else EXIT_OK


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_report(args) -> int:
    ring = realize(parse_ring_spec(args.spec))
    inv = analyze(ring)
    doc = {
        "version": __version__,
        "kind": "report",
        "spec": args.spec,
        "invariants": _invariants_json(ring),
    }
    if inv.is_unital and inv.is_commutative:
        doc["local_factors"] = [
            {"idempotent": f.idempotent, "order": f.ring.order}
            for f in local_decomposition(ring)
        ]
    doc["stabilization"] = list(power_stabilization(ring))
    doc["function_count"] = function_count(ring)
    doc["function_count_complete"] = True
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(f"ring {args.spec} (order {ring.order})")
        for key, value in doc["invariants"].items():
            if key in ("order", "label"):
                continue
            print(f"  {key}: {value}")
        if "local_factors" in doc:
            orders = [f["order"] for f in doc["local_factors"]]
            print(f"  local_factors: {len(orders)} of orders {orders}")
        t, p = doc["stabilization"]
        print(f"  power_stabilization: t={t} p={p}")
        print(f"  polynomial_functions: {doc['function_count']}")
    return EXIT_OK


def cmd_check(args) -> int:
    if args.result_id not in CHECKS:
        print(f"unknown check {args.result_id!r}; choose from {', '.join(RESULT_IDS)}",
              file=sys.stderr)
        return EXIT_USAGE
    ring = realize(parse_ring_spec(args.spec))
    opts = CheckOptions(poly=args.poly, subset=args.subset, s_max=args.s_max)
    check = CHECKS[args.result_id]
    if check.applies(ring):
        start = time.perf_counter()
        verdict = check.run(ring, opts)
        ms = (time.perf_counter() - start) * 1000.0
    else:
        verdict = Verdict(args.result_id, True, vacuous=True,
                          details=f"not applicable: ring is not {check.requires}")
        ms = 0.0
    doc = {
        "version": __version__,
        "kind": "check",
        "spec": args.spec,
        "check": args.result_id,
        "verdict": _verdict_json(verdict, ms),
    }
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        v = doc["verdict"]
        print(f"{args.result_id} on {args.spec}: {v['status']}")
        print(f"  {v['details']}")
        if v["witness"] is not None:
            print(f"  witness: {json.dumps(v['witness'])}")
    return _status_exit([verdict])


def _sweep_rows(max_order: int):
    rows, opts = [], CheckOptions()
    for name, ring in standard_catalog(max_order):
        for result_id, check in CHECKS.items():
            if not check.applies(ring):
                continue
            start = time.perf_counter()
            verdict = check.run(ring, opts)
            ms = (time.perf_counter() - start) * 1000.0
            rows.append((name, result_id, verdict, ms))
    rows.sort(key=lambda row: (row[0], row[1]))
    return rows


def cmd_sweep(args) -> int:
    rows = _sweep_rows(args.max_order)
    counts = {"pass": 0, "fail": 0, "vacuous": 0}
    for _, _, verdict, _ in rows:
        counts[verdict.status] += 1
    json_rows = [
        {"ring": name, "check": result_id, **_verdict_json(verdict, ms)}
        for name, result_id, verdict, ms in rows
    ]
    try:
        if args.format == "csv":
            with open(args.out, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["ring", "check", "status", "holds", "witness", "details", "ms"])
                for row in json_rows:
                    writer.writerow([
                        row["ring"], row["check"], row["status"], row["holds"],
                        json.dumps(row["witness"]), row["details"], row["ms"],
                    ])
        else:
            doc = {
                "version": __version__,
                "kind": "sweep",
                "max_order": args.max_order,
                "rows": json_rows,
                "summary": counts,
            }
            with open(args.out, "w") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"sweep over catalog(max_order={args.max_order}): {len(json_rows)} rows -> {args.out}")
    print(f"pass={counts['pass']} fail={counts['fail']} vacuous={counts['vacuous']}")
    return _status_exit([row[2] for row in rows])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finring",
        description="Finite-ring calculator: invariants, polynomial function sets, "
                    "and structural verification checks.",
    )
    parser.add_argument("--version", action="version", version=f"finring {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        for flag in IGNORED_FLAGS:
            p.add_argument(flag, type=int, help="ignored: every answer is exact; still "
                                                "accepted so that older command lines parse")

    p_report = sub.add_parser("report", help="print a ring's invariants")
    p_report.add_argument("spec", help='ring spec, e.g. "Z/4" or "Z/2[x]/(x^3)"')
    p_report.add_argument("--format", choices=("text", "json"), default="text")
    common(p_report)
    p_report.set_defaults(func=cmd_report)

    p_check = sub.add_parser("check", help="run one verification check")
    p_check.add_argument("spec")
    p_check.add_argument("result_id", metavar="result-id",
                         help=f"one of {', '.join(RESULT_IDS)}")
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.add_argument("--poly", help="polynomial in grammar syntax, e.g. x^2+x")
    p_check.add_argument("--subset", help="comma-separated element indices")
    p_check.add_argument("--s-max", type=int, default=3,
                         help="power multiplier range for the L2.2 check")
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_sweep = sub.add_parser("sweep", help="run every applicable check over the catalog")
    p_sweep.add_argument("--max-order", type=int, required=True)
    p_sweep.add_argument("--out", required=True, help="output file for the rows")
    p_sweep.add_argument("--format", choices=("json", "csv"), default="json")
    common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RingSpecError, ValueError, UnsupportedStructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
