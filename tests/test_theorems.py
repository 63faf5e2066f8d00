from __future__ import annotations

import collections
import dataclasses
import gc
import random
import time
import weakref
from itertools import product

import pytest
from hypothesis import given, settings

from finring import (
    SubsetMask,
    UnsupportedStructureError,
    analyze,
    function_table,
    interpolate_field,
    make_table_ring,
    make_zero_mul_ring,
    make_zn,
    parse_poly_text,
    parse_ring_spec,
    poly_eval,
    poly_from,
    poly_x,
    polynomial_function_set,
    power_stabilization,
    primitive_idempotents,
    realize,
    render_poly,
    residue_field,
    standard_catalog,
)
from finring import core, polyfun, theorems
from finring.cli import main
from finring.polyfun import (
    Polynomial,
    PolyFunctionSet,
    function_count,
    poly_add,
    poly_mul,
    poly_pow,
    poly_scale,
)
from finring.theorems import (
    CHECKS,
    BinomialExponent,
    CheckOptions,
    TrivialImageError,
    binomial_exponent,
    char_function_from_image,
    check_bijections_iff_field,
    check_char_from_image,
    check_char_functions_iff_field,
    check_char_support_cosets,
    check_nilpotent_shift_powers,
    check_reachability_iff_field,
    check_residue_field_bound,
    check_residue_lift,
    check_spectrum_bound,
    check_unit_exponent_nilpotency,
    check_unit_order_bound,
    classify_char_function_existence,
    lift_residue_polynomial,
    split_unit_nilpotent,
    verify_nilpotent_shift_power,
    verify_subring_char_function,
)

from conftest import (
    LARGER_SPECS,
    brute_force_function_tables,
    coset_growth,
    embed,
    expanded_powers_agree,
    extension_span,
    image_cases,
    loop_factor,
    loop_residue_field,
    m2f2,
    row_matrices_f2,
    schoolbook_eval,
    shift_powers_oracle,
    skew_dual_f4,
    small_rings,
    upper_triangular_f2,
    zero_constant_reach,
)


# --- L1.1 ------------------------------------------------------------------

def test_reachability_field_case(gf4):
    v = check_reachability_iff_field(gf4)
    assert v.holds and v.witness is None


def test_reachability_zero_ring():
    v = check_reachability_iff_field(make_zero_mul_ring(2))
    assert v.holds
    assert v.witness == {"from": 1, "target": 1}


def test_reachability_z4(z4):
    v = check_reachability_iff_field(z4)
    assert v.holds
    # only 0 and 2 are reachable from 2 by zero-constant polynomials
    assert v.witness == {"from": 2, "target": 1}


# --- P1.2 ------------------------------------------------------------------

def test_bijections_field(z3):
    v = check_bijections_iff_field(z3)
    assert v.holds and v.witness is None


def test_bijections_z4_prefers_transposition(z4):
    v = check_bijections_iff_field(z4)
    assert v.holds
    bij = v.witness["bijection"]
    assert sorted(bij) == [0, 1, 2, 3]
    assert sum(1 for i, x in enumerate(bij) if x != i) == 2
    # R*2 = {0, 2}: swapping 2 and 1 makes F(2) - F(0) = 1
    assert v.witness == {"bijection": [0, 2, 1, 3], "point": 2}


def test_bijections_zero_ring():
    v = check_bijections_iff_field(make_zero_mul_ring(2))
    assert v.holds
    assert v.witness is not None


def test_bijections_decided_above_the_old_skip_order(gf8):
    # P1.2 is decided at every order, on fields and on non-fields.
    v = check_bijections_iff_field(gf8)
    assert v.status == "pass" and v.witness is None
    v = check_bijections_iff_field(make_zn(32))
    assert v.status == "pass" and v.witness == {"bijection": [0, 2, 1] + list(range(3, 32)),
                                                "point": 2}
    with pytest.raises(TypeError):
        check_bijections_iff_field(gf8, max_order=8)


# --- P1.3 ------------------------------------------------------------------

def test_char_functions_field(gf4):
    v = check_char_functions_iff_field(gf4)
    assert v.holds and v.witness is None


def test_char_functions_z4(z4):
    v = check_char_functions_iff_field(z4)
    assert v.holds
    assert v.witness == {"subset": [0], "non_unit": 2}


def test_char_functions_z6(z6):
    assert check_char_functions_iff_field(z6).holds


def test_field_sweeps_never_interpolate(monkeypatch, gf8):
    def refuse(*args):
        raise AssertionError("membership sweeps must not build witnesses")

    monkeypatch.setattr(polyfun._Field, "witness", refuse)
    for v in (check_bijections_iff_field(gf8), check_char_functions_iff_field(make_zn(13))):
        assert v.holds is True and not v.vacuous
        assert v.witness is None


def test_sets_of_every_table_answer_without_membership(monkeypatch):
    def refuse(self, table):
        raise AssertionError("a set of n^n tables holds every table")

    monkeypatch.setattr(PolyFunctionSet, "contains", refuse)
    gf9 = realize(parse_ring_spec("GF(9)"))
    for v in (check_bijections_iff_field(make_zn(7)),
              check_char_functions_iff_field(make_zn(13)),
              check_char_functions_iff_field(gf9)):
        assert v.holds is True and not v.vacuous
        assert v.witness is None


def test_char_functions_need_unity():
    with pytest.raises(UnsupportedStructureError):
        check_char_functions_iff_field(make_zero_mul_ring(2))


# --- P2.1 ------------------------------------------------------------------

def test_subring_char_f2_in_f4(z2, gf4):
    # x over GF(4) sends 0 to 0 and the nonzero element of Z/2 to 1, and P2.1
    # on Z/2 itself certifies the field by x^(2-1) = x
    mp = embed(z2, gf4, [0, 1])
    assert [poly_eval(poly_x(gf4), mp[a]) for a in range(2)] == [0, gf4.unity]
    v = verify_subring_char_function(z2)
    assert v.holds and not v.vacuous
    assert v.witness == {"polynomial": poly_x(z2), "field": True}


def test_subring_char_f4_cube(gf4):
    f = poly_from(gf4, (0, 0, 0, 1))  # X^3 sends every nonzero element to 1
    for v in (verify_subring_char_function(gf4, f), verify_subring_char_function(gf4)):
        assert v.holds and not v.vacuous
    assert v.witness == {"polynomial": f, "field": True}


def test_subring_char_z4_always_vacuous(z4):
    # no polynomial with f(0) = 0 can send 2 to 1, whatever its coefficients
    for coeffs in product(range(4), repeat=3):
        f = poly_from(z4, (0,) + coeffs)
        v = verify_subring_char_function(z4, f)
        assert v.holds and v.vacuous
    v = verify_subring_char_function(z4)
    assert v.status == "pass" and v.witness == {"non_unit": 2, "annihilator": 2}


def test_subring_char_certificates_recheck_from_the_tables():
    # a non-field's pair c, d != 0 with c*d = 0 and c not a unit; a field's
    # x^(q-1), evaluated term by term
    larger = [(spec, realize(parse_ring_spec(spec))) for spec in LARGER_SPECS]
    checked = 0
    for name, ring in standard_catalog(32) + larger:
        inv = analyze(ring)
        if not (inv.is_unital and inv.is_commutative):
            continue
        v = verify_subring_char_function(ring)
        assert v.status == "pass", name
        n, one = ring.order, ring.unity
        if inv.is_field:
            f = v.witness["polynomial"]
            assert v.witness["field"] is True and f.coeffs == (0,) * (n - 1) + (one,), name
            assert [schoolbook_eval(f, x) for x in range(n)] == [0] + [one] * (n - 1), name
        else:
            c, d = v.witness["non_unit"], v.witness["annihilator"]
            assert c != 0 and d != 0 and ring.mul_table[c][d] == 0, name
            assert one not in ring.mul_table[c], name
        checked += 1
    assert checked == 43 + len(LARGER_SPECS)


@pytest.mark.parametrize("small, big", [
    ("Z/2", "GF(4)"), ("Z/2", "GF(8)"), ("Z/2", "GF(16)"), ("Z/3", "GF(9)"), ("Z/3", "GF(27)"),
    ("Z/4", "Z/4[x]/(x^2+x+1)"), ("Z/4", "Z/4[x]/(x^2+2)")])
def test_subring_char_matches_the_extension_oracle(small, big):
    # D is the scalars of S, so it embeds as its own indices.  The functions
    # that polynomials over S induce on D reach the indicator of D \ {0}
    # exactly when D is a field, and P2.1 on D alone says which.
    d_ring, s_ring = (realize(parse_ring_spec(spec)) for spec in (small, big))
    assert s_ring.order ** d_ring.order <= 1 << 16
    span = extension_span(d_ring, s_ring, range(d_ring.order))
    indicator = bytes([0] + [s_ring.unity] * (d_ring.order - 1))
    is_field = analyze(d_ring).is_field
    assert (indicator in span) == is_field
    assert ("field" in verify_subring_char_function(d_ring).witness) == is_field


# --- L2.2 ------------------------------------------------------------------

def test_binomial_exponent_values():
    assert binomial_exponent(4, 2).exponent == 4
    assert binomial_exponent(8, 3).exponent == 16
    assert binomial_exponent(9, 2).exponent == 9
    params = binomial_exponent(8, 3)
    assert params.factorization == ((2, 3),)
    assert params.betas == (1,)


def test_shift_power_z4(z4):
    v = verify_nilpotent_shift_power(z4, 1, 2)
    assert v.holds
    assert v.witness["exponent"] == 4


def test_shift_power_z8():
    z8 = make_zn(8)
    v = verify_nilpotent_shift_power(z8, 1, 2)
    assert v.holds
    assert v.witness["exponent"] == 16


def test_shift_power_zero_nilpotent(z4):
    v = verify_nilpotent_shift_power(z4, 3, 0)
    assert v.holds


def test_shift_power_rejects_non_nilpotent(z4):
    with pytest.raises(ValueError):
        verify_nilpotent_shift_power(z4, 1, 3)


def test_shift_power_all_pairs(z9):
    v = check_nilpotent_shift_powers(z9)
    assert v.holds
    assert v.witness["pairs"] == 9 * 3


_COMMUTATIVE_32 = [name for name, ring in standard_catalog(32) if analyze(ring).is_commutative]


def test_commutative_catalog_holds_both_zero_rings():
    assert {"zero-ring-2", "zero-ring-4"} <= set(_COMMUTATIVE_32)


@pytest.mark.parametrize("spec", _COMMUTATIVE_32)
def test_shift_power_maps_match_the_pair_oracle(spec):
    ring = realize(parse_ring_spec(spec))
    verdict = check_nilpotent_shift_powers(ring)
    assert verdict.holds
    assert verdict == shift_powers_oracle(ring)


@pytest.mark.parametrize("exponent", ["1", "r"])
def test_shift_power_failure_is_the_first_failing_pair_of_the_oracle(monkeypatch, exponent):
    # N = 1 fails at (b, c) = (0, least nonzero nilpotent).  N = r, c's own
    # nilpotency index, has c^r = 0 = 0^r, so b = 0 passes and the first
    # failure lies further on: the c-then-b order of the report is exercised.
    real = theorems.binomial_exponent

    def mutated(char_n: int, nilp_index: int) -> BinomialExponent:
        params = real(char_n, nilp_index)
        return dataclasses.replace(params, exponent=1 if exponent == "1" else nilp_index)

    monkeypatch.setattr(theorems, "binomial_exponent", mutated)
    failures = []
    for spec in _COMMUTATIVE_32:
        ring = realize(parse_ring_spec(spec))
        verdict = check_nilpotent_shift_powers(ring)
        assert verdict == shift_powers_oracle(ring), spec
        if not verdict.holds:
            failures.append((verdict.witness["b"], verdict.witness["c"]))
    assert failures
    if exponent == "r":
        assert any(b != 0 for b, _ in failures)


# --- P2.3 ------------------------------------------------------------------

def test_unit_order_bound_z4(z4):
    v = check_unit_order_bound(z4)
    assert v.holds
    assert v.witness["big_n"] == 4 and v.witness["exponent"] == 4


def test_unit_order_bound_z9(z9):
    v = check_unit_order_bound(z9)
    assert v.holds
    assert v.witness["exponent"] == 18


def test_unit_order_bound_gf4(gf4):
    v = check_unit_order_bound(gf4)
    assert v.holds
    # char(GF(4)) = 2 and the nilpotency index is 1, so u^(2*3) = 1
    assert v.witness["exponent"] == 6


def test_unit_order_bound_rejects_non_local(z6):
    with pytest.raises(UnsupportedStructureError):
        check_unit_order_bound(z6)


def test_split_unit_nilpotent(z4):
    f = poly_from(z4, (0, 2, 3))
    g, h = split_unit_nilpotent(f)
    assert g.coeffs == (0, 0, 3)
    assert h.coeffs == (0, 2, 0)


def test_split_all_units(z4):
    f = poly_from(z4, (1, 3))
    g, h = split_unit_nilpotent(f)
    assert g == f and h.degree is None


def test_split_zero(z4):
    g, h = split_unit_nilpotent(poly_from(z4, ()))
    assert g.degree is None and h.degree is None


def test_unit_exponent_nilpotency_z4(z4):
    v = check_unit_exponent_nilpotency(z4)
    assert v.holds
    assert v.witness["unit_exponent"] == 2
    assert v.witness["least_unit_degree"] == 2
    assert v.witness["exponent"] == 4
    assert v.witness["uniform_power"] == 8
    assert v.witness["order_bound"] == 4


def test_unit_exponent_nilpotency_z9(z9):
    v = check_unit_exponent_nilpotency(z9)
    assert v.holds
    # (X+1)^6 - 1 has unit coefficients exactly at degrees 3 and 6 mod 9
    assert v.witness["least_unit_degree"] == 3
    assert v.witness["exponent"] == 9


def test_unit_exponent_nilpotency_field(z2):
    v = check_unit_exponent_nilpotency(z2)
    assert v.holds
    assert v.witness["least_unit_degree"] == 1


_COMM_LOCAL_32 = [name for name, ring in standard_catalog(32)
                  if analyze(ring).is_local and analyze(ring).is_commutative]


@pytest.mark.parametrize("spec", _COMM_LOCAL_32)
def test_unit_exponent_binomials_match_the_expanded_powers(spec):
    ring = realize(parse_ring_spec(spec))
    verdict = check_unit_exponent_nilpotency(ring)
    assert verdict.holds and "f^N = g^N: True" in verdict.details
    assert expanded_powers_agree(ring, verdict.witness["exponent"])


@pytest.mark.parametrize("spec", _COMM_LOCAL_32)
def test_binomial_polynomial_is_the_expanded_power(spec):
    # P2.3ii writes (X+1)^m - 1 down from C(m, k) * 1; poly_pow expands it,
    # at the unit-group exponent and at every smaller and a few larger m
    ring = realize(parse_ring_spec(spec))
    inv = analyze(ring)
    x_plus_1, one = poly_from(ring, (ring.unity, ring.unity)), poly_from(ring, (ring.unity,))
    for m in range(1, inv.unit_group_exponent + 4):
        expanded = poly_add(poly_pow(x_plus_1, m), poly_scale(ring.neg(ring.unity), one))
        assert theorems._binomial_polynomial(ring, m, inv.characteristic) == expanded, m


@pytest.mark.parametrize("power", [1, 2])
def test_unit_exponent_binomials_catch_a_smaller_exponent(monkeypatch, power):
    # With N divided by p^power, p | char, the binomial criterion, which is
    # sufficient but not necessary, must fail wherever the expanded powers
    # differ, and it must fail somewhere.
    real = theorems.binomial_exponent

    def mutated(char_n: int, nilp_index: int) -> BinomialExponent:
        params = real(char_n, nilp_index)
        p = params.factorization[0][0]
        return dataclasses.replace(params, exponent=max(1, params.exponent // p ** power))

    monkeypatch.setattr(theorems, "binomial_exponent", mutated)
    refuted = differ = 0
    for spec in _COMM_LOCAL_32:
        ring = realize(parse_ring_spec(spec))
        verdict = check_unit_exponent_nilpotency(ring)
        divisible = "f^N = g^N: True" in verdict.details
        agree = expanded_powers_agree(ring, verdict.witness["exponent"])
        assert agree or not divisible, spec
        refuted += not divisible
        differ += not agree
    assert refuted
    if power == 2:
        assert differ


# --- L2.4 / L2.5 -----------------------------------------------------------

_COMM_UNITAL_32 = [name for name, ring in standard_catalog(32)
                   if analyze(ring).is_unital and analyze(ring).is_commutative]


def _local_structure_cases() -> list:
    """``image_cases``, which hold every ring of ``_COMM_UNITAL_32``, and three
    products with larger or non-chain factors, by catalog name or spec."""
    specs = ("Z/4 x Z/16", "Z/8 x Z/9", "Z/4[x]/(x^2) x Z/3")
    cases = image_cases() + [(spec, realize(parse_ring_spec(spec))) for spec in specs]
    return [pytest.param(ring, id=name) for name, ring in cases]


@pytest.mark.parametrize("ring", _local_structure_cases())
def test_factor_residue_maps_match_built_factors_and_residue_fields(ring):
    # core._local_factors against the loop oracles: per factor eR, built
    # entry by entry unless R is local, its elements, its radical (residue 0),
    # each x's key (the least element of e*x's residue class) and the least
    # element of each class
    local = analyze(ring).is_local
    structure = core._local_factors(ring)
    if local:
        assert [f.idempotent for f in structure] == [ring.unity]
    else:
        assert tuple(f.idempotent for f in structure) == primitive_idempotents(ring)
    for f in structure:
        if local:
            factor, projection = ring, range(ring.order)
        else:
            (add, mul, *_), projection = loop_factor(ring, f.idempotent)
            factor = make_table_ring(add, mul)
        elements = sorted(set(ring.mul_table[f.idempotent].tolist()))
        _, proj, reps = loop_residue_field(factor)
        assert f.elements.tolist() == elements
        assert f.radical.tolist() == [y for y, c in zip(elements, proj) if c == 0]
        assert f.key.tolist() == [elements[reps[proj[i]]] for i in projection]
        assert f.representatives.tolist() == [elements[r] for r in reps]


@pytest.mark.parametrize("make", [upper_triangular_f2, m2f2, lambda: make_zero_mul_ring(4)],
                         ids=["T2(F2)", "M2(F2)", "zero-ring-4"])
def test_local_factors_need_a_local_or_commutative_unital_ring(make):
    with pytest.raises(UnsupportedStructureError):
        core._local_factors(make())


def test_residue_bound_z4_square(z4):
    v = check_residue_field_bound(z4, poly_from(z4, (0, 0, 1)))
    assert v.holds
    assert v.witness == {"image_size": 2, "degree": 2, "bound": 4, "residue_orders": [2]}


def test_residue_bound_tight_on_f3(z3):
    v = check_residue_field_bound(z3, poly_x(z3))
    assert v.holds
    assert v.witness["bound"] == 3 and v.witness["residue_orders"] == [3]


def test_residue_bound_precondition_z6(z6):
    v = check_residue_field_bound(z6, poly_from(z6, (0, 1, 1)))
    assert v.holds and v.vacuous
    assert "precondition" in v.details
    assert v.witness["constant_factor_order"] == 2


def test_spectrum_bound_caveat_z6(z6):
    v = check_spectrum_bound(z6, poly_from(z6, (0, 1, 1)))
    assert v.holds and v.vacuous
    assert "precondition" in v.details


def test_spectrum_bound_identity_z6(z6):
    v = check_spectrum_bound(z6, poly_x(z6))
    assert v.holds and not v.vacuous
    assert v.witness == {"image_size": 6, "omega": 2, "local_factors": 2}


def test_spectrum_bound_z4(z4):
    v = check_spectrum_bound(z4, poly_from(z4, (0, 0, 1)))
    assert v.holds
    assert v.witness == {"image_size": 2, "omega": 1, "local_factors": 1}


# --- P2.6 ------------------------------------------------------------------

def test_char_from_image_z4(z4):
    w, support = char_function_from_image(z4, poly_x(z4))
    assert w.coeffs == (0, 0, 1)  # the minimal exponent is 2
    assert function_table(w).values == (0, 1, 0, 1)
    assert support == [1, 3]


def test_char_from_image_z9(z9):
    w, support = char_function_from_image(z9, poly_x(z9))
    assert w.degree == 6
    values = function_table(w).values
    assert set(values) == {0, 1}
    assert values == tuple(0 if x % 3 == 0 else 1 for x in range(9))
    assert support == [x for x in range(9) if x % 3]


def test_char_from_image_f2(z2):
    w, support = char_function_from_image(z2, poly_x(z2))
    assert w.coeffs == (0, 1)
    assert support == [1]


def test_char_from_image_reduces_a_power_beyond_the_stabilization():
    # f^N = x^(4096 * 127) is returned modulo X^(t+p) - X^t: degree below
    # t + p = 128, so the witness parses back.
    ring = realize(parse_ring_spec("Z/2[x]/(x^7+x+1)"))
    t, p = power_stabilization(ring)
    start = time.perf_counter()
    verdict = check_char_from_image(ring, parse_poly_text("x^4096", ring))
    assert time.perf_counter() - start < 2.0
    w = verdict.witness["polynomial"]
    assert w.degree < t + p
    assert parse_poly_text(render_poly(w.coeffs), ring) == w
    assert verdict.witness["support"] == list(range(1, ring.order))


@pytest.mark.parametrize("spec", _COMM_LOCAL_32)
def test_reduced_powers_induce_the_unreduced_tables(spec):
    ring = realize(parse_ring_spec(spec))
    t, p = power_stabilization(ring)
    for coeffs in ((0, ring.unity), (ring.unity, ring.unity, 0, ring.unity)):
        f = poly_from(ring, coeffs)
        for k in (1, 2, 5, 12):
            reduced = theorems._reduced_pow(f, k)
            assert len(reduced.coeffs) <= t + p
            assert function_table(reduced) == function_table(poly_pow(f, k))


def test_char_from_image_refuses_constants(z4):
    with pytest.raises(TrivialImageError):
        char_function_from_image(z4, poly_from(z4, (1,)))


def test_char_from_image_refuses_one_sided_values(z3):
    # x^2 + 1 never vanishes on Z/3, so the power would be constantly 1
    with pytest.raises(TrivialImageError):
        char_function_from_image(z3, poly_from(z3, (1, 0, 1)))


def test_check_char_from_image_verdict(z4):
    v = check_char_from_image(z4, poly_x(z4))
    assert v.holds and not v.vacuous
    assert v.witness["support"] == [1, 3]


def test_lift_identity_z4(z4):
    lifted, data = lift_residue_polynomial(z4)
    # X^4, reduced modulo X^4 - X^2 since (t, p) = (2, 2) on Z/4
    assert lifted.stripped().coeffs == (0, 0, 1)
    assert data.alphas == (0, 1)
    assert data.betas == (0, 1)
    assert data.exponent == 4
    assert function_table(lifted).values == (0, 1, 0, 1)


def test_lift_identity_z9(z9):
    v = check_residue_lift(z9)
    assert v.holds
    assert v.witness["exponent"] == 6
    assert v.witness["image_size"] == 3


def test_lift_on_field_reproduces_table(gf4):
    k, proj, reps = residue_field(gf4)
    assert reps == tuple(range(4))
    f = poly_from(k, (1, 2, 3))
    lifted, _ = lift_residue_polynomial(gf4, f)
    assert function_table(lifted).values == function_table(poly_from(gf4, (1, 2, 3))).values


def _unreduced_lift_table(ring, data) -> tuple[int, ...]:
    """sum_i beta_i * (prod_{j != i} (x - alpha_j))^E at every x, in plain
    ring arithmetic: on a commutative ring evaluation is a homomorphism, so
    this is the table of the unreduced lift."""
    def value(x):
        acc = 0
        for i, beta in enumerate(data.betas):
            prod = ring.unity
            for j, alpha in enumerate(data.alphas):
                if j != i:
                    prod = ring.mul(prod, ring.sub(x, alpha))
            power = ring.unity
            for _ in range(data.exponent):
                power = ring.mul(power, prod)
            acc = ring.add(acc, ring.mul(beta, power))
        return acc
    return tuple(value(x) for x in range(ring.order))


@pytest.mark.parametrize("spec", [name for name, ring in standard_catalog(32)
                                  if analyze(ring).is_local and analyze(ring).is_commutative
                                  and ring.unity is not None])
def test_reduced_lift_induces_the_unreduced_table(spec):
    ring = realize(parse_ring_spec(spec))
    t, p = power_stabilization(ring)
    k = residue_field(ring)[0]
    for f in (poly_x(k), poly_from(k, (1, k.unity, 0, k.unity))):
        lifted, data = lift_residue_polynomial(ring, f)
        assert len(lifted.coeffs) <= t + p
        assert function_table(lifted).values == _unreduced_lift_table(ring, data)
        if ring.order <= 16:
            unreduced = Polynomial(ring, ())
            for beta, alpha_i in zip(data.betas, data.alphas):
                prod = poly_from(ring, (ring.unity,))
                for alpha in data.alphas:
                    if alpha != alpha_i:
                        prod = poly_mul(prod, poly_from(ring, (ring.neg(alpha), ring.unity)))
                unreduced = poly_add(unreduced, poly_scale(beta, poly_pow(prod, data.exponent)))
            assert function_table(lifted) == function_table(unreduced)


@pytest.mark.parametrize("spec", [name for name, ring in standard_catalog(32)
                                  if analyze(ring).is_field]
                         + ["Z/251", "Z/2[x]/(x^8+x^4+x^3+x+1)"])
def test_lift_on_a_field_is_the_interpolant_and_builds_no_lift_basis(spec):
    # the lift of f is f reduced modulo X^q - X: one of degree 2q + 2 is reduced
    ring = realize(parse_ring_spec(spec))
    rng = random.Random(ring.order)
    long = poly_from(ring, [rng.randrange(ring.order) for _ in range(2 * ring.order + 3)])
    for f in (poly_x(ring), poly_from(ring, (1, ring.unity, 0, ring.unity)), long):
        verdict = check_residue_lift(ring, f)
        lifted, data = lift_residue_polynomial(ring, f)
        assert verdict.holds and verdict.witness["polynomial"] == lifted
        assert lifted == interpolate_field(ring, function_table(f).values)
        if ring.order <= 32:
            assert lifted == interpolate_field(ring, _unreduced_lift_table(ring, data))
    assert theorems._lift_basis not in ring.store  # residue_field created the store


def test_lift_constant(z4):
    k, _, _ = residue_field(z4)
    lifted, data = lift_residue_polynomial(z4, poly_from(k, (1,)))
    values = set(function_table(lifted).values)
    assert len(values) == 1


# --- P2.7 ------------------------------------------------------------------

def test_classify_z4(z4):
    v = classify_char_function_existence(z4)
    assert v.holds
    w = v.witness["polynomial"]
    values = function_table(w).values
    assert set(values) == {0, 1} and len(set(values)) == 2


def test_classify_z6(z6):
    v = classify_char_function_existence(z6)
    assert v.holds
    assert v.witness == {"idempotent": 3}


def test_classify_f8(gf8):
    v = classify_char_function_existence(gf8)
    assert v.holds
    assert v.witness["polynomial"].coeffs == (0,) * 7 + (1,)
    assert v.witness["support"] == list(range(1, 8))


def test_classify_verification_mode(z4):
    w = poly_from(z4, (0, 0, 1))
    v = classify_char_function_existence(z4, witness_poly=w)
    assert v.holds
    bad = poly_x(z4)  # not 0/1-valued
    v = classify_char_function_existence(z4, witness_poly=bad)
    assert not v.holds


def test_classify_decided_without_function_set(refuse_index):
    v = classify_char_function_existence(make_zn(12))
    assert v.status == "pass" and v.witness == {"idempotent": 4}


# --- R2.8 ------------------------------------------------------------------

def test_cosets_units_of_z4(z4):
    v = check_char_support_cosets(z4)
    assert v.holds
    assert v.witness["subset"] == [1, 3]
    assert v.witness["coset_union"] is True


def test_cosets_non_union_subset_has_no_poly(z4):
    v = check_char_support_cosets(z4, subset=[1, 2, 3])
    assert v.holds
    assert v.witness["polynomial_exists"] is False and v.witness["coset_union"] is False
    assert v.witness["certificate"] == {"point": 2, "shift": 2}  # 2 + 2 = 0 is outside


def _is_unit(ring, x) -> bool:
    return any(ring.mul_table[x][y] == ring.unity or ring.mul_table[y][x] == ring.unity
               for y in range(ring.order))


@pytest.mark.parametrize("spec", [name for name, ring in standard_catalog(9)
                                  if analyze(ring).is_local and not analyze(ring).is_field])
def test_cosets_answer_every_subset_like_the_oracles(spec):
    # Every subset of every non-field local ring up to order 9: R2.8's
    # witness or certificate agrees with coset growth, and with brute force
    # where it enumerates at most 8^5 coefficient tuples.  Each certificate
    # is re-checked from the add and mul tables alone.
    ring = realize(parse_ring_spec(spec))
    closure = coset_growth(ring)
    n, one = ring.order, ring.unity
    brute = brute_force_function_tables(ring) if n ** sum(power_stabilization(ring)) <= 8 ** 5 \
        else None
    for bits in range(1 << n):
        subset = [x for x in range(n) if bits >> x & 1]
        table = tuple(one if bits >> x & 1 else 0 for x in range(n))
        w = check_char_support_cosets(ring, subset).witness
        assert w["polynomial_exists"] is closure.contains(table)
        assert brute is None or w["polynomial_exists"] is (table in brute)
        if w["polynomial_exists"]:
            assert w["coset_union"] is True and function_table(w["polynomial"]).values == table
        else:
            point, shift = w["certificate"]["point"], w["certificate"]["shift"]
            assert w["coset_union"] is False and not _is_unit(ring, shift)
            assert point in subset and ring.add_table[point][shift] not in subset


def test_cosets_field_case(gf4):
    v = check_char_support_cosets(gf4, subset=[2])
    assert v.holds


def test_skew_ring_is_local_noncommutative_and_passes_its_checks():
    # GF(4)[t; Frobenius]/(t^2) induces 2^20 functions.  Its R2.8 sweep is
    # pinned against the syndrome oracle in test_polyfun.py.
    ring = skew_dual_f4()
    inv = analyze(ring)
    assert inv.is_local and inv.is_unital and not inv.is_commutative
    assert inv.residue_field_order == 4 and function_count(ring) == 1 << 20
    applicable = [code for code, check in CHECKS.items() if check.applies(ring)]
    assert applicable == ["L1.1", "P1.2", "P1.3", "P2.3i", "R2.8"]
    for code in applicable:
        assert CHECKS[code].run(ring, CheckOptions()).status == "pass", code


def test_cosets_rejects_non_local(z6):
    with pytest.raises(UnsupportedStructureError):
        check_char_support_cosets(z6)


@pytest.mark.parametrize("subset", [[99], [-1]])
def test_cosets_rejects_out_of_range_ids(z4, subset):
    with pytest.raises(ValueError, match="out of range"):
        check_char_support_cosets(z4, subset=subset)


def test_cosets_rejects_a_subset_of_another_ring():
    with pytest.raises(ValueError, match="given for Z/8"):
        check_char_support_cosets(make_zn(8), SubsetMask.from_indices(make_zn(9), [8]))


# --- witnesses survive independent re-checking ------------------------------

def test_failed_side_witnesses_recheck(z4, z6, catalog9):
    # wherever a checker reports a witness for the failing side of an
    # equivalence, the witness must refute membership on its own
    from finring import is_polynomial_function

    v = check_bijections_iff_field(z4)
    assert is_polynomial_function(z4, tuple(v.witness["bijection"])) is None
    v = check_char_functions_iff_field(z4)
    subset = set(v.witness["subset"])
    table = tuple(z4.unity if x in subset else 0 for x in range(4))
    assert is_polynomial_function(z4, table) is None


# Certificates of "no" are checked from the ring's tables alone and against
# function sets grown without the checks' code: brute force up to order 6,
# coset growth up to 2^20 functions.  Z/14 induces 3.3M functions (coset
# growth takes about 2.6 s and 580 MB), so only its certificate is checked.

def _oracle_tables(ring) -> list[tuple[int, ...]]:
    tables = list(brute_force_function_tables(ring)) if ring.order <= 6 else []
    if function_count(ring) <= 1 << 20:
        tables += map(tuple, coset_growth(ring).tables.tolist())
    return tables


def _generator_tables(ring):
    """The constants and every b * x^k with k <= t+p-1, which span the induced functions."""
    t, p = power_stabilization(ring)
    elements = range(ring.order)
    for b in elements:
        yield [b] * ring.order
        for k in range(1, t + p):
            yield [ring.mul(b, ring.pow(x, k)) for x in elements]


def _catalog16_names(keep):
    return [name for name, ring in standard_catalog(16)
            if analyze(ring).is_unital and keep(analyze(ring))]


@pytest.mark.parametrize("spec", _catalog16_names(
    lambda inv: inv.is_commutative and not inv.is_local)
    + ["Z/2 x Z/2 x Z/2", "GF(4) x Z/3", "Z/18", "Z/20"])
def test_non_local_idempotent_certificate(spec):
    ring = realize(parse_ring_spec(spec))
    v = classify_char_function_existence(ring)
    assert v.status == "pass"
    e, one = v.witness["idempotent"], ring.unity
    assert ring.mul(e, e) == e and e not in (0, one)
    for g in _generator_tables(ring):
        assert all(ring.mul(e, g[x]) == ring.mul(e, g[ring.mul(e, x)]) for x in range(ring.order))
    assert not [table for table in _oracle_tables(ring) if set(table) == {0, one}]


@pytest.mark.parametrize("spec", _catalog16_names(lambda inv: not inv.is_field) + ["T2(F2)"])
def test_non_field_non_unit_certificate(spec):
    ring = upper_triangular_f2() if spec == "T2(F2)" else realize(parse_ring_spec(spec))
    v = check_char_functions_iff_field(ring)
    assert v.status == "pass" and v.witness["subset"] == [0]
    c, minus_one = v.witness["non_unit"], ring.neg(ring.unity)
    assert c != 0 and all(ring.mul(r, c) != minus_one for r in range(ring.order))
    indicator = (ring.unity,) + (0,) * (ring.order - 1)
    assert indicator not in _oracle_tables(ring)


# P1.2's certificate: F(c) - F(0) lies in the left ideal Rc for every
# polynomial F, so a swap that moves it out of Rc is not induced.  Checked on
# the catalog, on noncommutative, non-unital and zero rings, and on larger
# fields and non-fields; a table's absence is confirmed by coset growth up to
# 2^18 functions and by the lattice syndrome above.  L1.1 and P1.3 share
# P1.2's pair (c, y): the values at u of zero-constant polynomials, closed
# under addition by brute force, are exactly Ru, so L1.1's witness is the
# first (u, missing) pair of that closure, and on a unital ring c is the
# least nonzero non-unit.

_TABLE_RINGS = {"T2(F2)": upper_triangular_f2, "M2(F2)": m2f2,
                "row-matrices-F2": row_matrices_f2, "GF(4)[t;F]/(t^2)": skew_dual_f4}
_BIJECTION_SPECS = [name for name, _ in standard_catalog(32)] + list(_TABLE_RINGS) + [
    "zero-ring-3", "zero-ring-5", "zero-ring-6", "zero-ring-7", "zero-ring-8", "Z/8 x Z/2",
    "Z/2[x]/(x^4)", "Z/4[x]/(x^2+x+1)", "GF(16)", "GF(25)", "GF(27)", "Z/9[x]/(x^2+1)",
    "Z/49", "Z/64"]


def _bijection_ring(spec):
    return _TABLE_RINGS[spec]() if spec in _TABLE_RINGS else realize(parse_ring_spec(spec))


def _first_unreachable(ring):
    """L1.1's witness by the brute-force closure, checked to equal Ru for every u."""
    n = ring.order
    first = None
    for u in range(1, n):
        reach = zero_constant_reach(ring, u)
        assert reach == {ring.mul(r, u) for r in range(n)}, u
        missing = next((s for s in range(1, n) if s not in reach), None)
        if first is None and missing is not None:
            first = {"from": u, "target": missing}
    return first


def _assert_bijection_certificate(ring):
    v = check_bijections_iff_field(ring)
    n = ring.order
    assert v.status == "pass"
    l11 = check_reachability_iff_field(ring)
    p13 = check_char_functions_iff_field(ring) if analyze(ring).is_unital else None
    assert l11.status == "pass" and l11.witness == _first_unreachable(ring)
    if analyze(ring).is_field:
        assert v.witness is None and function_count(ring) == n ** n
        assert l11.witness is None and p13.witness is None
        return
    swap, c = v.witness["bijection"], v.witness["point"]
    moved = [x for x in range(n) if swap[x] != x]
    assert sorted(swap) == list(range(n)) and len(moved) == 2 and c in moved and c != 0
    y = l11.witness["target"]
    assert l11.witness["from"] == c and set(moved) == ({c, y} if y != c else {0, c})
    if p13 is not None:
        assert p13.witness == {"subset": [0], "non_unit": c}
    moved_by = ring.sub(swap[c], swap[0])
    assert all(ring.mul(r, c) != moved_by for r in range(n))
    if function_count(ring) <= 1 << 18:
        assert not coset_growth(ring).contains(swap)
    else:
        assert not polynomial_function_set(ring).contains(swap)


@pytest.mark.parametrize("spec", _BIJECTION_SPECS)
def test_bijection_certificate(spec):
    _assert_bijection_certificate(_bijection_ring(spec))


@settings(max_examples=25, deadline=None)
@given(ring=small_rings())
def test_bijection_certificate_on_random_rings(ring):
    _assert_bijection_certificate(ring)


def test_bijection_certificate_on_m2f2_needs_the_left_ideal():
    # M2(F2) is simple: the two-sided ideal of every c != 0 is the whole ring,
    # so only the left ideal R*E11 = {0, E11, E21, E11 + E21} certifies.
    ring = m2f2()
    for c in range(1, 16):
        span = {0}  # the additive span of RcR; every element has order 2
        for g in {ring.mul(ring.mul(r, c), s) for r in range(16) for s in range(16)}:
            span |= {ring.add(x, g) for x in span}
        assert len(span) == 16
    v = check_bijections_iff_field(ring)
    assert v.witness == {"bijection": [0, 2, 1] + list(range(3, 16)), "point": 1}


def test_bijections_build_no_function_set_on_a_non_field(monkeypatch):
    def refuse(ring):
        raise AssertionError(f"function set of {ring.label} built")

    monkeypatch.setattr(polyfun, "_function_set", refuse)
    checked = 0
    for spec in _BIJECTION_SPECS:
        ring = _bijection_ring(spec)
        if not analyze(ring).is_field:
            v = check_bijections_iff_field(ring)
            assert v.status == "pass" and v.witness is not None, spec
            checked += 1
    assert checked == 45


def test_binomial_exponent_valuation_invariant():
    # beta_i is exactly the largest power of p_i dividing (r-1)!
    import math as _math

    for char_n in (4, 6, 8, 9, 12, 27):
        for r in range(1, 7):
            params = binomial_exponent(char_n, r)
            fact = _math.factorial(r - 1)
            for (p, e), beta in zip(params.factorization, params.betas):
                assert fact % p ** beta == 0
                assert fact % p ** (beta + 1) != 0
            assert params.exponent == _math.prod(
                p ** (e + b) for (p, e), b in zip(params.factorization, params.betas))


def test_lift_data_invariants(z9):
    from finring import analyze as _analyze

    k, proj, reps = residue_field(z9)
    f = poly_from(k, (1, 2))
    lifted, data = lift_residue_polynomial(z9, f)
    # representatives enumerate the residue classes without repetition
    assert sorted(proj[a] for a in data.alphas) == list(range(k.order))
    # equal lifts exactly where the residue values agree
    res = [proj[b] for b in data.betas]
    for i in range(k.order):
        for j in range(k.order):
            assert (data.betas[i] == data.betas[j]) == (res[i] == res[j])
    inv = _analyze(z9)
    assert data.exponent > inv.nilpotency_index
    assert data.exponent % inv.unit_group_exponent == 0


def test_char_functions_decided_without_function_set(refuse_index):
    v = check_char_functions_iff_field(make_zn(12))
    assert v.status == "pass" and v.witness == {"subset": [0], "non_unit": 2}


# --- the per-ring store ----------------------------------------------------

class _CountingStore(dict):
    """A ring store that counts how often each construction is put in it."""

    def __init__(self):
        super().__init__()
        self.builds = collections.Counter()

    def __setitem__(self, key, value):
        self.builds[key.__name__] += 1
        super().__setitem__(key, value)


def test_one_sweep_builds_each_store_entry_once_per_ring(tmp_path, capsys):
    rings = [ring for _, ring in standard_catalog(32)]
    saved = [ring.store for ring in rings]
    stores = [_CountingStore() for _ in rings]
    try:
        for ring, store in zip(rings, stores):
            object.__setattr__(ring, "store", store)
        assert main(["sweep", "--max-order", "32", "--out", str(tmp_path / "s.json")]) == 0
    finally:
        for ring, store in zip(rings, saved):
            object.__setattr__(ring, "store", store)
    assert all(count == 1 for store in stores for count in store.builds.values())
    built = set().union(*(store.builds for store in stores))
    assert built == {"_proper_left_ideal", "_unit_order_bound", "_units_indicator",
                     "_residue_field", "_local_factors", "_lift_basis", "_coordinates",
                     "_powers", "_table_lists"}


@pytest.mark.parametrize("spec", _COMM_LOCAL_32)
def test_local_indicator_is_shared_by_p27_and_p26fwd(spec):
    ring = realize(parse_ring_spec(spec))
    fwd = CHECKS["P2.6fwd"].run(ring, CheckOptions()).witness
    p27 = CHECKS["P2.7"].run(ring, CheckOptions()).witness
    assert p27["polynomial"].stripped() == fwd["polynomial"]
    assert p27["support"] == fwd["support"]
    w, support = char_function_from_image(ring, poly_x(ring))  # built afresh
    assert (w.stripped(), support) == (fwd["polynomial"], fwd["support"])


@pytest.mark.parametrize("spec", _COMM_LOCAL_32)
def test_p23ii_starts_from_the_p23i_bound(spec):
    ring = realize(parse_ring_spec(spec))
    assert check_unit_exponent_nilpotency(ring).witness["order_bound"] == \
        check_unit_order_bound(ring).witness["exponent"]


def test_a_ring_that_ran_no_check_stores_only_its_powers_and_coordinates():
    ring = make_zn(12)
    assert ring.store is None
    analyze(ring)
    assert set(ring.store) == {core._powers}
    power_stabilization(ring)
    primitive_idempotents(ring)
    assert set(ring.store) == {core._powers}
    function_count(ring)  # the chain factors read the local structure
    assert set(ring.store) == {core._powers, core._local_factors}
    pset = polynomial_function_set(ring)
    pset._table_index()  # the chain engine's index reads the tables alone
    assert set(ring.store) == {core._powers, core._local_factors}
    assert pset.engine.multiples(bytes(range(12))) is not None  # a solve sums digits
    assert set(ring.store) == {core._powers, core._local_factors, polyfun._coordinates,
                               polyfun._table_lists}
    check_reachability_iff_field(ring)
    assert set(ring.store) == {core._powers, core._local_factors, polyfun._coordinates,
                               polyfun._table_lists, theorems._proper_left_ideal}


def test_a_ring_and_its_store_are_freed_together():
    ring = make_zn(9)
    for check in CHECKS.values():  # P2.7 and every other store reader
        if check.applies(ring):
            assert check.run(ring, CheckOptions()).holds
    assert theorems._units_indicator in ring.store and theorems._lift_basis in ring.store
    ref = weakref.ref(ring)
    # the module caches that still key on rings (analyze and the function
    # sets) hold it too until they are cleared
    for cached in (analyze, polynomial_function_set):
        cached.cache_clear()
    del ring
    gc.collect()
    assert ref() is None


# --- user-input errors ------------------------------------------------------

@pytest.mark.parametrize("char_n, nilp_index, message", [
    (1, 2, "characteristic must be >= 2"), (4, 0, "nilpotency index must be >= 1")],
    ids=["characteristic-1", "nilpotency-index-0"])
def test_binomial_exponent_refuses_out_of_range_arguments(char_n, nilp_index, message):
    with pytest.raises(ValueError, match=f"^{message}$") as exc:
        binomial_exponent(char_n, nilp_index)
    assert type(exc.value) is ValueError


_OVER_THE_RING = "polynomial must have coefficients in the ring itself"


@pytest.mark.parametrize("check, message", [
    (verify_subring_char_function, _OVER_THE_RING),
    (check_residue_field_bound, _OVER_THE_RING),
    (check_char_from_image, _OVER_THE_RING),
    (check_residue_lift, "polynomial must be defined over the ring's residue field"),
], ids=["P2.1", "L2.4", "P2.6fwd", "P2.6lift"])
def test_checks_refuse_a_polynomial_over_the_wrong_ring(check, message):
    # Z/2 is isomorphic to Z/4's residue field, but is not the ring residue_field builds
    with pytest.raises(ValueError, match=f"^{message}$") as exc:
        check(make_zn(4), poly_x(make_zn(2)))
    assert type(exc.value) is ValueError
