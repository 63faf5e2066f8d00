"""The benchmark's four workloads: seeded inputs, the calls into finring, and
the oracle's verdict on every answer.

A workload is a list of ops, built from a seed and the clock that times
single calls.  An op makes one CLI command or one batch of library calls;
``verify`` raises WrongAnswer unless the oracle accepts the answer, and
returns "unknown" for an honest "inconclusive at cap".  finring is called
through module attributes, so that the tracer's wrappers see the
benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import finring
from finring import cli

from oracle import Tables, expected_count, parse_poly

SWEEP_MAX_ORDER = 16
CLOSURE_SPECS = (
    ("Z/16", None),
    ("Z/2[x]/(x^4)", None),
    ("Z/4[x]/(x^2+2)", None),
    ("Z/8 x Z/2", None),
    ("Z/18", None),
    ("Z/27", 65536),   # the default cap of 2^24 would exhaust memory
)
FIELD_CHECKS = (
    ("Z/7", "P1.2", ["--max-bijection-order", "7"]),
    ("Z/11", "P1.3", []),
    ("Z/13", "P1.3", []),
    ("GF(8)", "P1.3", []),
    ("GF(9)", "P1.3", []),
)
ROUND_TRIP_FIELDS = ("GF(16)", "GF(25)", "GF(27)")
ROUND_TRIPS = 100
MEMBERSHIP_SPECS = ("Z/9", "Z/12", "Z/4 x Z/3", "Z/8 x Z/2", "Z/2[x]/(x^3) x Z/2", "T2(F2)")
PROBES = 8000


class WrongAnswer(AssertionError):
    """The oracle rejected an answer."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


@dataclass
class Op:
    """One timed unit of work.

    ``calls`` maps the answer to the latencies of the single commands or
    library calls the op is made of (default: the op is one call).  These
    are the workload's queries, unless ``queries`` gives other latencies.
    """

    name: str
    run: Callable[[], object]
    verify: Callable[[object], str]
    calls: Callable[[object], list[float]] | None = None
    queries: Callable[[object], list[float]] | None = None


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def t2f2():
    """Upper-triangular 2x2 matrices over F_2; element a*4 + b*2 + d is [[a, b], [0, d]]."""
    def split(e):
        return e >> 2, (e >> 1) & 1, e & 1

    add, mul = [], []
    for x in range(8):
        a, b, d = split(x)
        add.append([x ^ y for y in range(8)])
        row = []
        for y in range(8):
            a2, b2, d2 = split(y)
            row.append((a * a2) << 2 | ((a * b2 + b * d2) & 1) << 1 | (d * d2))
        mul.append(row)
    return finring.make_table_ring(add, mul, "T2(F2)")


def ring_of(spec: str):
    return t2f2() if spec == "T2(F2)" else finring.realize(finring.parse_ring_spec(spec))


def coeffs_of(witness: finring.Polynomial) -> list[int]:
    return list(witness.coeffs) or [0]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

# Check id -> structure it needs: c commutative, u unital, l local.
REQUIRES = {
    "L1.1": "", "P1.2": "", "P1.3": "u", "P2.1": "cu", "L2.2": "c",
    "P2.3i": "ul", "P2.3ii": "cul", "L2.4": "cu", "L2.5": "cu",
    "P2.6fwd": "cul", "P2.6lift": "cul", "P2.7": "cu", "R2.8": "ul",
}
SWEEP_ROWS = 312


def _has(t: Tables, needs: str) -> bool:
    return (("c" not in needs or t.commutative) and ("u" not in needs or t.unity is not None)
            and ("l" not in needs or t.local))


def verify_sweep(answer) -> str:
    rc, doc = answer
    expect(rc == 0, f"sweep exit code {rc}")
    rows = doc["rows"]
    expect(len(rows) == SWEEP_ROWS, f"{len(rows)} sweep rows, expected {SWEEP_ROWS}")
    tables = {}
    for row in rows:
        name, check = row["ring"], row["check"]
        if name not in tables:
            tables[name] = Tables.of(ring_of(name))
        t = tables[name]
        where = f"{check} on {name}"
        expect(_has(t, REQUIRES[check]), f"{where} ran on a ring it does not apply to")
        expect(row["status"] in ("pass", "vacuous"), f"{where}: {row['status']}")
        verify_sweep_witness(t, check, row["vacuous"], row["witness"], where)
    applicable = sum(_has(t, needs) for t in tables.values() for needs in REQUIRES.values())
    expect(applicable == len(rows), f"{applicable} applicable checks, {len(rows)} rows")
    return "ok"


def verify_sweep_witness(t: Tables, check: str, vacuous: bool, w, where: str) -> None:
    """Re-check the parts of a row's witness that carry a claim."""
    if check in ("L1.1", "P1.2", "P1.3") and not vacuous:
        expect((w is None) == t.field, f"{where}: witness {w} on a ring with field={t.field}")
        if check == "L1.1" and w is not None:
            u, s = w["from"], w["target"]
            gens = {int(t.mul[a, p]) for a in range(t.n) for p in t.powers(2 * t.n)[1:, u]}
            expect(s not in t.span(gens), f"{where}: target {s} is reachable from {u}")
        elif check == "P1.2" and w is not None:
            expect(t.absence_certificate(w["bijection"]) is not None,
                   f"{where}: bijection {w['bijection']} not shown absent")
        elif check == "P1.3" and w is not None:
            table = [t.unity if x in w["subset"] else 0 for x in range(t.n)]
            expect(t.absence_certificate(table) is not None,
                   f"{where}: subset {w['subset']} not shown absent")
    if not isinstance(w, dict) or not isinstance(w.get("polynomial"), str):
        return
    values = [int(v) for v in t.evaluate(parse_poly(w["polynomial"]))[0]]
    support = [x for x, v in enumerate(values) if v == t.unity]
    if check in ("P2.6fwd", "P2.7"):
        expect(set(values) == {0, t.unity}, f"{where}: {w['polynomial']} is not a 0/1 indicator")
        expect(support == w["support"], f"{where}: support {w['support']} != {support}")
    elif check == "P2.6lift":
        expect(len(set(values)) == w["image_size"], f"{where}: image size differs")
    elif check == "R2.8":
        expect(support == w["subset"], f"{where}: indicator of {w['subset']} is wrong")


def sweep(seed: int, clock=time.perf_counter) -> list[Op]:
    out = os.path.join("perfbench", f".sweep-{os.getpid()}.json")

    def run():
        rc, _ = run_cli(["sweep", "--max-order", str(SWEEP_MAX_ORDER), "--out", out])
        with open(out) as fh:
            doc = json.load(fh)
        os.remove(out)
        return rc, doc

    rows_s = lambda answer: [row["ms"] / 1000.0 for row in answer[1]["rows"]]
    return [Op(f"sweep --max-order {SWEEP_MAX_ORDER}", run, verify_sweep, queries=rows_s)]


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------

def verify_report(spec: str, cap: int | None, answer) -> str:
    rc, text = answer
    expect(rc == 0, f"report {spec} exit code {rc}")
    doc = json.loads(text)
    t = Tables.of(ring_of(spec))
    inv = doc["invariants"]
    expect(inv["order"] == t.n, f"{spec}: order {inv['order']}")
    expect(inv["units"] == t.units, f"{spec}: units {inv['units']}")
    expect(inv["is_local"] == t.local and inv["is_field"] == t.field, f"{spec}: locality")
    count, complete = doc["function_count"], doc["function_count_complete"]
    if cap is not None and not complete:
        return "unknown"
    want = expected_count(spec)
    expect(complete and count == want, f"{spec}: function count {count}, expected {want}")
    return "ok"


def closure(seed: int, clock=time.perf_counter) -> list[Op]:
    ops = []
    for spec, cap in CLOSURE_SPECS:
        argv = ["report", spec, "--format", "json"]
        if cap is not None:
            argv += ["--cap-functions", str(cap)]
        ops.append(Op(f"report {spec}", lambda argv=argv: run_cli(argv),
                      lambda a, spec=spec, cap=cap: verify_report(spec, cap, a)))
    return ops


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def verify_field_check(name: str, answer) -> str:
    rc, text = answer
    verdict = json.loads(text)["verdict"]
    expect(rc == 0 and verdict["status"] == "pass" and verdict["witness"] is None,
           f"{name}: exit {rc}, {verdict['status']}, witness {verdict['witness']}")
    return "ok"


def timed_calls(fn, inputs, clock) -> tuple[list, list[float]]:
    answers, lat = [], []
    for x in inputs:
        t0 = clock()
        answers.append(fn(x))
        lat.append(clock() - t0)
    return answers, lat


def verify_round_trips(field, tables, answer) -> str:
    polys, _ = answer
    t = Tables.of(field)
    for table, poly in zip(tables, polys):
        expect(len(poly.coeffs) <= field.order, f"{field.label}: degree {poly.degree}")
        got = t.evaluate(coeffs_of(poly))[0].tolist()
        expect(got == list(table), f"{field.label}: interpolant misses {table}")
    return "ok"


def fields(seed: int, clock=time.perf_counter) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for spec, check, extra in FIELD_CHECKS:
        argv = ["check", spec, check, "--format", "json", *extra]
        name = f"check {spec} {check}"
        ops.append(Op(name, lambda argv=argv: run_cli(argv),
                      lambda a, name=name: verify_field_check(name, a)))
    for spec in ROUND_TRIP_FIELDS:
        field = ring_of(spec)
        q = field.order
        tables = [tuple(rng.randrange(q) for _ in range(q)) for _ in range(ROUND_TRIPS)]

        def verify_count(count, q=q):
            expect(count == q ** q, f"GF({q}): count {count}")
            return "ok"

        ops.append(Op(f"count {spec}", lambda f=field: finring.polynomial_function_set(f).count,
                      verify_count))
        ops.append(Op(f"interpolate {spec}",
                      lambda f=field, ts=tables: timed_calls(lambda x: finring.interpolate_field(f, x), ts, clock),
                      lambda a, f=field, ts=tables: verify_round_trips(f, ts, a),
                      calls=lambda a: a[1]))
    return ops


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def membership_probes(t: Tables, rng: np.random.Generator, count: int):
    """Present probes are tables of random polynomials; an absent probe is a
    present table with one value moved by a unit.  Since J(R) != 0, that value
    leaves the J-coset its J-congruent points map to, which no polynomial does.

    Exactly a quarter of the probes are absent, so that the median probe is
    always a present one (those build a witness and take longer)."""
    coeffs = rng.integers(0, t.n, size=(count, 2 * t.n + 1))
    probes = t.evaluate(coeffs)
    rows = rng.permutation(count)[: count // 4]
    absent = np.zeros(count, dtype=bool)
    absent[rows] = True
    xs = rng.integers(0, t.n, size=len(rows))
    units = np.asarray(t.units)[rng.integers(0, len(t.units), size=len(rows))]
    probes[rows, xs] = t.add[probes[rows, xs], units]
    return [tuple(p) for p in probes.tolist()], absent.tolist()


def verify_probes(t: Tables, probes, absent, answer) -> str:
    witnesses, _ = answer
    present = [(p, w) for p, a, w in zip(probes, absent, witnesses) if not a]
    expect(all(w is None for a, w in zip(absent, witnesses) if a), "witness for an absent table")
    expect(all(w is not None for _, w in present), "no witness for a present table")
    width = max(len(coeffs_of(w)) for _, w in present)
    coeffs = np.zeros((len(present), width), dtype=np.intp)
    for i, (_, w) in enumerate(present):
        c = coeffs_of(w)
        coeffs[i, :len(c)] = c
    got = t.evaluate(coeffs)
    expect(np.array_equal(got, np.asarray([p for p, _ in present])), "witness misses its table")
    return "ok"


def membership(seed: int, clock=time.perf_counter) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for spec in MEMBERSHIP_SPECS:
        ring = ring_of(spec)
        t = Tables.of(ring)
        probes, absent = membership_probes(t, rng, PROBES)
        want = expected_count(spec)

        def verify_count(count, spec=spec, want=want):
            expect(count == want, f"{spec}: count {count}, expected {want}")
            return "ok"

        ops.append(Op(f"count {spec}", lambda r=ring: finring.polynomial_function_set(r).count,
                      verify_count))
        ops.append(Op(f"probe {spec}",
                      lambda r=ring, ps=probes: timed_calls(lambda p: finring.is_polynomial_function(r, p), ps, clock),
                      lambda a, t=t, ps=probes, ab=absent: verify_probes(t, ps, ab, a),
                      calls=lambda a: a[1]))
    return ops


WORKLOADS = {"sweep": sweep, "closure": closure, "fields": fields, "membership": membership}
