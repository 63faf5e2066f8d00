"""The acceptance gate: every shipped guarantee, exhaustive or oracle-backed.

Each test prints one PASS line on success (run with ``pytest -s`` to see
them); a failure shows up as an ordinary pytest failure.
"""

from __future__ import annotations

import json
import math
import random
import time
from itertools import product

import pytest

from finring import (
    analyze,
    function_count,
    function_table,
    identity_embedding,
    interpolate_field,
    make_zn,
    parse_poly_text,
    parse_ring_spec,
    poly_from,
    polynomial_function_set,
    realize,
    residue_field,
    standard_catalog,
)
from finring.cli import main
from finring.theorems import (
    TrivialImageError,
    char_function_from_image,
    check_bijections_iff_field,
    check_char_functions_iff_field,
    check_char_support_cosets,
    check_residue_field_bound,
    check_residue_lift,
    check_spectrum_bound,
    classify_char_function_existence,
    verify_nilpotent_shift_power,
)

from conftest import as_tuple_set, brute_force_function_tables, coset_growth


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def _comm_unital(catalog):
    for name, ring in catalog:
        inv = analyze(ring)
        if inv.is_unital and inv.is_commutative:
            yield name, ring, inv


def _local_comm_unital(catalog):
    for name, ring, inv in _comm_unital(catalog):
        if inv.is_local:
            yield name, ring, inv


def test_criterion_1_bijections_iff_field():
    start = time.perf_counter()
    catalog = standard_catalog(32)
    names = [name for name, _ in catalog]
    assert "zero-ring-2" in names and "zero-ring-4" in names
    for name, ring in catalog:
        verdict = check_bijections_iff_field(ring)
        assert verdict.holds and not verdict.vacuous, f"{name}: {verdict.details}"
        assert (verdict.witness is None) == analyze(ring).is_field, name
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(1, f"bijections<->field on {len(catalog)} rings of order <= 32 in {elapsed:.2f}s")


def test_criterion_2_char_functions_iff_field(catalog9):
    start = time.perf_counter()
    checked = 0
    for name, ring in catalog9:
        inv = analyze(ring)
        if not inv.is_unital:
            continue
        verdict = check_char_functions_iff_field(ring)
        assert verdict.holds and not verdict.vacuous, f"{name}: {verdict.details}"
        checked += 1
        if inv.is_field:
            # cross-oracle: interpolation must realise every indicator directly
            one = ring.unity
            for bits in range(1 << ring.order):
                values = tuple(one if bits >> x & 1 else 0 for x in range(ring.order))
                w = interpolate_field(ring, values)
                assert function_table(w).values == values
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(2, f"indicator<->field on {checked} unital rings of order <= 9 in {elapsed:.2f}s")


def test_criterion_3_classification(catalog9):
    checked = 0
    for name, ring, inv in _comm_unital(catalog9):
        verdict = classify_char_function_existence(ring)
        assert verdict.holds is True, f"{name}: {verdict.details}"
        checked += 1
    _report(3, f"nontrivial-indicator<->local on {checked} commutative unital rings")


_SHIFT_RINGS = ("Z/4", "Z/8", "Z/9", "Z/27", "Z/2[x]/(x^2)", "Z/2[x]/(x^3)", "Z/4[x]/(x^2+2)")


def test_criterion_4_shift_powers_randomized():
    rings = [realize(parse_ring_spec(spec)) for spec in _SHIFT_RINGS]
    nilpotents = [analyze(r).nilpotents.indices() for r in rings]
    rng = random.Random(20260809)
    start = time.perf_counter()
    for _ in range(200):
        i = rng.randrange(len(rings))
        ring = rings[i]
        b = rng.randrange(ring.order)
        c = rng.choice(nilpotents[i])
        s = rng.randint(1, 5)
        verdict = verify_nilpotent_shift_power(ring, b, c, s_max=s)
        assert verdict.holds, f"{ring.label}, b={b}, c={c}: {verdict.details}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(4, f"200 randomized shift-power identities in {elapsed:.2f}s")


def test_criterion_5_lift_preserves_image(catalog9):
    checked = 0
    for name, ring, inv in _local_comm_unital(catalog9):
        k, proj, reps = residue_field(ring)
        for coeffs in product(range(k.order), repeat=3):
            f = poly_from(k, coeffs)
            verdict = check_residue_lift(ring, f)
            assert verdict.holds, f"{name}, f={coeffs}: {verdict.details}"
            checked += 1
    _report(5, f"residue lifts preserve image size and residues on {checked} (ring, poly) pairs")


def test_criterion_6_char_from_image(catalog9):
    built = refused = 0
    for name, ring, inv in _local_comm_unital(catalog9):
        units = set(inv.units.indices())
        one = ring.unity
        for coeffs in product(range(ring.order), repeat=3):
            f = poly_from(ring, coeffs)
            values = set(function_table(f).values)
            mixed = bool(values & units) and bool(values - units)
            if mixed:
                w = char_function_from_image(ring, f)
                table = function_table(w).values
                assert set(table) == {0, one}, f"{name}, f={coeffs}: not 0/1-valued"
                built += 1
            else:
                # one-sided values would power to a constant table; the
                # construction must refuse instead of returning it
                with pytest.raises(TrivialImageError):
                    char_function_from_image(ring, f)
                refused += 1
    _report(6, f"0/1 construction: {built} nontrivial outputs, {refused} justified refusals")


def test_criterion_7_image_bounds(catalog8):
    rng = random.Random(987654321)
    z6 = realize(parse_ring_spec("Z/6"))
    caveat = check_spectrum_bound(z6, poly_from(z6, (0, 1, 1)))
    assert caveat.vacuous and "precondition" in caveat.details
    checked = preconditioned = 0
    for name, ring, inv in _comm_unital(catalog8):
        n = ring.order
        if n <= 4:
            draws = list(product(range(n), repeat=4))
        else:
            draws = [tuple(rng.randrange(n) for _ in range(4)) for _ in range(10_000)]
        emb = identity_embedding(ring)
        for coeffs in draws:
            f = poly_from(ring, coeffs)
            v24 = check_residue_field_bound(emb, f)
            v25 = check_spectrum_bound(ring, f)
            for v in (v24, v25):
                if v.vacuous:
                    preconditioned += 1
                else:
                    assert v.holds, f"{name}, f={coeffs}: {v.details}"
                    checked += 1
    _report(7, f"image-size bounds: {checked} bound checks, {preconditioned} precondition-failed")


def test_criterion_8_oracle_equivalence(catalog4):
    for name, ring in catalog4:
        oracle = brute_force_function_tables(ring)
        closure = coset_growth(ring)
        assert closure.as_tuple_set() == oracle, f"{name}: closure differs from the oracle"
        pset = polynomial_function_set(ring)
        assert pset.count == len(oracle)
        assert as_tuple_set(pset) == oracle
    _report(8, f"closure set == brute-force enumeration on all {len(catalog4)} rings of order <= 4")


def _count_formula(n: int) -> int:
    return math.prod(n // math.gcd(math.factorial(k), n) for k in range(n))


def test_criterion_9_cross_oracle_count():
    # the closed formula must first be validated against the brute-force
    # oracle before being trusted at larger moduli
    for n in (2, 3, 4):
        ring = realize(parse_ring_spec(f"Z/{n}"))
        assert _count_formula(n) == len(brute_force_function_tables(ring))
    for n in (*range(2, 33), 64, 81, 125, 128):
        assert function_count(make_zn(n)) == _count_formula(n), f"Z/{n}"
    _report(9, "function counts match prod n/gcd(k!, n) for n = 2..32, 64, 81, 125, 128")


def test_criterion_10_indicator_supports_are_coset_unions(catalog16):
    checked = 0
    for name, ring, inv in _comm_unital(catalog16):
        if not inv.is_local:
            continue
        verdict = check_char_support_cosets(ring)
        assert verdict.holds is True, f"{name}: {verdict.details}"
        expected = -1 if inv.is_field else 2 ** inv.residue_field_order - 2
        assert verdict.witness["swept"] == expected, f"{name}: swept {verdict.witness['swept']}"
        checked += 1
    _report(10, f"indicator supports factor through the maximal ideal on {checked} local rings")


def test_criterion_11_sweep_and_witness_audit(tmp_path, capsys):
    out = tmp_path / "sweep9.json"
    start = time.perf_counter()
    code = main(["sweep", "--max-order", "9", "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 60.0
    doc = json.loads(out.read_text())
    assert doc["summary"]["fail"] == 0

    expected_exit = {"pass": 0, "vacuous": 0}
    rechecked = fed_back = 0
    for row in doc["rows"]:
        code = main(["check", row["ring"], row["check"]])
        assert code == expected_exit[row["status"]], f"re-run of {row} exited {code}"
        rechecked += 1
        witness = row.get("witness") or {}
        poly_text = witness.get("polynomial")
        if poly_text is None:
            continue
        if row["check"] in ("P2.7", "P2.6fwd"):
            # a printed indicator polynomial must re-verify as one
            assert main(["check", row["ring"], "P2.7", "--poly", poly_text]) == 0
            fed_back += 1
        elif row["check"] == "P2.6lift":
            ring = realize(parse_ring_spec(row["ring"]))
            lifted = parse_poly_text(poly_text, ring)
            values = function_table(lifted).values
            assert len(set(values)) == witness["image_size"]
            fed_back += 1
    capsys.readouterr()
    _report(11, f"sweep(9) clean in {elapsed:.1f}s; {rechecked} re-runs, "
               f"{fed_back} polynomial witnesses re-verified")
