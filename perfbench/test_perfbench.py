"""Tests of the benchmark itself: its oracle, its failure accounting, its tracer
and its output contract."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from itertools import product

import numpy as np
import pytest

import finring
from finring import make_zn, parse_ring_spec, realize
from finring import polyfun, theorems

import workloads
from child import run_ops
from oracle import LOCAL_COUNTS, Tables, function_group_size, kempner
from tracer import LAYERS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def brute_force_count(tables: Tables, degree: int) -> int:
    """Distinct tables of every polynomial of degree <= degree."""
    coeffs = np.array(list(product(range(tables.n), repeat=degree + 1)))
    return len(np.unique(tables.evaluate(coeffs), axis=0))


@pytest.mark.parametrize("n", range(2, 7))
def test_kempner_matches_brute_force(n):
    # Degree n is past the power stabilization of every Z/n with n <= 6.
    t = Tables.of(make_zn(n))
    assert kempner(n) == brute_force_count(t, n) == function_group_size(t)


def test_group_closure_matches_brute_force_off_z_n():
    t = Tables.of(realize(parse_ring_spec("Z/2[x]/(x^2)")))
    assert function_group_size(t) == brute_force_count(t, 4)


@pytest.mark.parametrize("spec", sorted(LOCAL_COUNTS))
def test_local_counts(spec):
    assert function_group_size(Tables.of(workloads.ring_of(spec))) == LOCAL_COUNTS[spec]


@pytest.mark.parametrize("spec", workloads.MEMBERSHIP_SPECS)
def test_absent_probes_are_provably_absent(spec):
    t = Tables.of(workloads.ring_of(spec))
    probes, absent = workloads.membership_probes(t, np.random.default_rng(7), 40)
    assert any(absent) and not all(absent)
    for probe, is_absent in zip(probes, absent):
        assert (t.absence_certificate(probe) is not None) == is_absent


def test_probes_depend_only_on_the_seed():
    t = Tables.of(workloads.ring_of("Z/9"))
    first = workloads.membership_probes(t, np.random.default_rng(3), 50)
    assert first == workloads.membership_probes(t, np.random.default_rng(3), 50)
    assert first != workloads.membership_probes(t, np.random.default_rng(4), 50)


def corrupted(op, corrupt):
    return workloads.Op(op.name, lambda: corrupt(op.run()), op.verify, op.calls, op.queries)


def test_corrupted_answers_count_as_failed():
    report = next(op for op in workloads.closure(0) if op.name == "report Z/8 x Z/2")

    def wrong_count(answer):
        rc, text = answer
        doc = json.loads(text)
        doc["function_count"] += 1
        return rc, json.dumps(doc)

    probe = next(op for op in workloads.membership(0) if op.name == "probe Z/12")

    def wrong_witness(answer):
        witnesses, lat = answer
        i = next(i for i, w in enumerate(witnesses) if w is not None)
        w = witnesses[i]
        witnesses[i] = finring.Polynomial(w.ring, (w.ring.add(w.coeffs[0], 1),) + w.coeffs[1:])
        return witnesses, lat

    good = list(run_ops([report, probe]))
    bad = list(run_ops([corrupted(report, wrong_count), corrupted(probe, wrong_witness)]))
    assert [r["status"] for r in good] == ["ok", "ok"]
    assert [r["status"] for r in bad] == ["failed", "failed"]
    assert "WrongAnswer" in bad[0]["error"] and "WrongAnswer" in bad[1]["error"]


def test_capped_z27_is_unknown_not_failed():
    op = next(op for op in workloads.closure(0) if op.name == "report Z/27")
    assert [r["status"] for r in run_ops([op])] == ["unknown"]


def answers(ops):
    """Each op's answer, without timings and with polynomials as coefficients."""
    out = []
    for op in ops:
        answer = op.run()
        op.verify(answer)
        if isinstance(answer, tuple) and isinstance(answer[1], str):
            doc = json.loads(answer[1])
            doc.get("verdict", {}).pop("ms", None)
            out.append(doc)
        elif isinstance(answer, tuple):
            out.append([w and w.coeffs for w in answer[0]])
        else:
            out.append(answer)
    return out


def small_ops():
    ops = workloads.closure(0) + workloads.fields(0) + workloads.membership(0)
    keep = ("report Z/8 x Z/2", "check GF(8) P1.3", "count GF(16)", "interpolate GF(16)",
            "count Z/9", "probe Z/9", "probe T2(F2)")
    return [op for op in ops if op.name in keep]


def test_traced_and_untraced_answers_agree():
    plain = answers(small_ops())
    tracer = Tracer()
    tracer.install()
    try:
        traced = answers(small_ops())
    finally:
        tracer.uninstall()
    assert traced == plain
    assert {s[0] for s in tracer.spans} >= {"cli.report", "cli.check", "polyfun.lookup",
                                            "polyfun.interpolate_field"}


def test_wrapping_keeps_lru_cache_and_restores_originals():
    original = polyfun.polynomial_function_set
    ring = make_zn(10)
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = finring.polynomial_function_set
        assert wrapped is not original
        assert theorems.polynomial_function_set is wrapped
        assert finring.cli.polynomial_function_set is wrapped
        before = wrapped.cache_info()
        first = wrapped(ring)
        second = polyfun.polynomial_function_set(ring)
        after = wrapped.cache_info()
        assert first is second
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
        layers = tracer.metrics(1.0)
        assert layers["polyfun.polynomial_function_set.builds"] == 1
        assert layers["polyfun.polynomial_function_set.hit_ratio"] == 0.5
        assert layers["polyfun.polynomial_function_set.rows"] == first.count
    finally:
        tracer.uninstall()
    assert finring.polynomial_function_set is original
    assert theorems.polynomial_function_set is original
    assert polyfun.PolyFunctionSet.lookup.__qualname__ == "PolyFunctionSet.lookup"


def test_spans_nest_through_lookup_into_checks():
    ring = realize(parse_ring_spec("GF(4)"))
    tracer = Tracer()
    tracer.install()
    try:
        verdict = theorems.check_char_functions_iff_field(ring)
    finally:
        tracer.uninstall()
    assert verdict.holds
    spans = tracer.spans
    chains = set()
    for name, start, end, parent in spans:
        assert end >= start
        if name == "polyfun.interpolate_field":
            lookup = spans[parent]
            chains.add((lookup[0], spans[lookup[3]][0]))
            assert spans[parent][1] <= start and end <= spans[parent][2]
    assert chains == {("polyfun.lookup", "theorems.P1.3")}
    layers = tracer.metrics(1.0)
    assert layers["polyfun.interpolate_field.calls"] == 1 << ring.order
    assert layers["polyfun.interpolate_field.useful_ratio"] == 0.0
    for name in LAYERS:
        assert layers[f"{name}.self_pct"] <= layers[f"{name}.pct"] + 1e-9


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_output_matches_benchmark_json(trace, kind):
    proc = run_bench("--workload", "membership", "--seed", "5", "--seconds", "0.1",
                     "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared(kind)


def test_refuses_to_run_without_the_program():
    proc = run_bench("--workload", "closure", "--seconds", "1", cwd=os.path.join(ROOT, "perfbench"))
    assert proc.returncode != 0 and proc.stdout == ""


def test_timed_out_op_kills_the_child_and_counts_as_failed(monkeypatch):
    import run

    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "OP_LIMIT_S", 0.05)
    result = run.run_workload("closure", 0, 0.0, False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == len(workloads.CLOSURE_SPECS)


def test_speed_samples_surround_each_op_and_stay_out_of_its_time():
    import time
    from child import Reference

    reference = Reference()
    start = reference.block()
    op = workloads.Op("sleep", lambda: time.sleep(0.6), lambda answer: "ok")
    [record] = run_ops([op], reference=reference, before=start)
    assert record["status"] == "ok"
    ticks = len(record["ref"]) - 2 * Reference.BLOCK
    assert ticks >= 2 and reference.spent > 0
    # The sleep lasts 0.6 s of wall time, ticks included; their time is taken out.
    assert 0.6 - 2 * reference.spent < record["s"] < 0.6
