from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings

from finring import (
    SubsetMask,
    UnsupportedStructureError,
    analyze,
    embed,
    function_table,
    identity_embedding,
    make_zero_mul_ring,
    make_zn,
    parse_ring_spec,
    poly_from,
    poly_x,
    polynomial_function_set,
    power_stabilization,
    realize,
    residue_field,
    standard_catalog,
)
from finring import polyfun
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
    brute_force_function_tables,
    coset_growth,
    m2f2,
    row_matrices_f2,
    skew_dual_f4,
    small_rings,
    upper_triangular_f2,
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

    monkeypatch.setattr("finring.polyfun._interpolant", refuse)
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
    emb = embed(z2, gf4, [0, 1])
    v = verify_subring_char_function(emb, poly_x(gf4))
    assert v.holds and not v.vacuous


def test_subring_char_f4_cube(gf4):
    emb = identity_embedding(gf4)
    f = poly_from(gf4, (0, 0, 0, 1))  # X^3 sends every nonzero element to 1
    v = verify_subring_char_function(emb, f)
    assert v.holds and not v.vacuous


def test_subring_char_z4_always_vacuous(z4):
    # no polynomial with f(0) = 0 can send 2 to 1, whatever its coefficients
    emb = identity_embedding(z4)
    for coeffs in product(range(4), repeat=3):
        f = poly_from(z4, (0,) + coeffs)
        v = verify_subring_char_function(emb, f)
        assert v.holds and v.vacuous


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


def test_shift_power_rejects_empty_s_range(z9):
    with pytest.raises(ValueError, match="s_max"):
        verify_nilpotent_shift_power(z9, 1, 3, s_max=0)
    with pytest.raises(ValueError, match="s_max"):
        check_nilpotent_shift_powers(z9, s_max=0)


def test_shift_power_all_pairs(z9):
    v = check_nilpotent_shift_powers(z9)
    assert v.holds
    assert v.witness["pairs"] == 9 * 3


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


# --- L2.4 / L2.5 -----------------------------------------------------------

def test_residue_bound_z4_square(z4):
    v = check_residue_field_bound(identity_embedding(z4), poly_from(z4, (0, 0, 1)))
    assert v.holds
    assert v.witness == {"image_size": 2, "degree": 2, "bound": 4, "residue_orders": [2]}


def test_residue_bound_tight_on_f3(z3):
    v = check_residue_field_bound(identity_embedding(z3), poly_x(z3))
    assert v.holds
    assert v.witness["bound"] == 3 and v.witness["residue_orders"] == [3]


def test_residue_bound_precondition_z6(z6):
    v = check_residue_field_bound(identity_embedding(z6), poly_from(z6, (0, 1, 1)))
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
    w = char_function_from_image(z4, poly_x(z4))
    assert w.coeffs == (0, 0, 1)  # the minimal exponent is 2
    assert function_table(w).values == (0, 1, 0, 1)


def test_char_from_image_z9(z9):
    w = char_function_from_image(z9, poly_x(z9))
    assert w.degree == 6
    values = function_table(w).values
    assert set(values) == {0, 1}
    assert values == tuple(0 if x % 3 == 0 else 1 for x in range(9))


def test_char_from_image_f2(z2):
    w = char_function_from_image(z2, poly_x(z2))
    assert w.coeffs == (0, 1)


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
# 2^18 functions and by the lattice syndrome above.

_TABLE_RINGS = {"T2(F2)": upper_triangular_f2, "M2(F2)": m2f2,
                "row-matrices-F2": row_matrices_f2}
_BIJECTION_SPECS = [name for name, _ in standard_catalog(32)] + list(_TABLE_RINGS) + [
    "zero-ring-3", "zero-ring-8", "Z/8 x Z/2", "Z/2[x]/(x^4)", "Z/4[x]/(x^2+x+1)",
    "GF(16)", "GF(25)", "GF(27)", "Z/9[x]/(x^2+1)", "Z/49", "Z/64"]


def _bijection_ring(spec):
    return _TABLE_RINGS[spec]() if spec in _TABLE_RINGS else realize(parse_ring_spec(spec))


def _assert_bijection_certificate(ring):
    v = check_bijections_iff_field(ring)
    n = ring.order
    assert v.status == "pass"
    if analyze(ring).is_field:
        assert v.witness is None and function_count(ring) == n ** n
        return
    swap, c = v.witness["bijection"], v.witness["point"]
    moved = [x for x in range(n) if swap[x] != x]
    assert sorted(swap) == list(range(n)) and len(moved) == 2 and c in moved and c != 0
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
    assert checked == 41


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
