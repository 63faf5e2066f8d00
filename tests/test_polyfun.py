from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finring import (
    DEFAULT_CAP,
    IncompleteSearchError,
    UnsupportedStructureError,
    char_poly_for_subset,
    embed,
    function_table,
    image,
    interpolate_field,
    is_polynomial_function,
    make_zero_mul_ring,
    make_zn,
    parse_ring_spec,
    poly_eval,
    poly_from,
    poly_x,
    polynomial_function_set,
    power_stabilization,
    realize,
)
from finring.polyfun import Polynomial, poly_add, poly_mul, poly_pow

from conftest import brute_force_function_tables, lagrange_interpolate, upper_triangular_f2


def assert_rows_witnessed(pset):
    """Rows are pairwise distinct and each equals the table of its witness."""
    rows = [tuple(int(v) for v in row) for row in pset.tables]
    assert len(set(rows)) == len(rows) == pset.count
    for row, coeffs in zip(rows, pset.witnesses):
        witness = Polynomial(pset.ring, tuple(int(c) for c in coeffs))
        assert function_table(witness).values == row


def test_eval_square_on_z4(z4):
    f = poly_from(z4, (0, 0, 1))
    assert poly_eval(f, 3) == 1
    assert function_table(f).values == (0, 1, 0, 1)


def test_eval_x2_plus_x_on_z6(z6):
    f = poly_from(z6, (0, 1, 1))  # X + X^2, i.e. X(X+1)
    assert poly_eval(f, 4) == 2
    assert function_table(f).values == (0, 2, 0, 0, 2, 0)
    assert image(f).indices() == (0, 2)


def test_eval_zero_polynomial(z6):
    f = poly_from(z6, ())
    assert all(poly_eval(f, r) == 0 for r in z6.elements())
    assert f.degree is None


def test_eval_constant_enters_as_element():
    # In the zero-multiplication ring a_i * r^i always vanishes, so every
    # polynomial function is the constant a_0.
    r = make_zero_mul_ring(2)
    f = poly_from(r, (1,))
    assert function_table(f).values == (1, 1)
    g = poly_from(r, (0, 1))
    assert function_table(g).values == (0, 0)


def test_eval_through_embedding(z2, gf4):
    emb = embed(z2, gf4, [0, 1])
    f = poly_x(gf4)
    assert poly_eval(f, 1, via=emb) == 1
    table = function_table(f, via=emb)
    assert table.domain is z2 and table.codomain is gf4
    assert table.values == (0, 1)


def test_eval_rejects_foreign_ring(z4, z6):
    f = poly_x(z4)
    with pytest.raises(ValueError):
        function_table(f, z6)


def test_identity_table(z6):
    assert function_table(poly_x(z6)).values == tuple(range(6))


def test_image_x4_on_z4(z4):
    assert image(poly_from(z4, (0, 0, 0, 0, 1))).indices() == (0, 1)


def test_power_stabilization_values(z3, z4):
    assert power_stabilization(z3) == (1, 2)
    assert power_stabilization(z4) == (2, 2)
    assert power_stabilization(make_zero_mul_ring(2)) == (2, 1)
    assert power_stabilization(make_zn(16)) == (4, 4)


def test_function_set_counts(z4, z6, gf4):
    assert polynomial_function_set(z4).count == 64
    assert polynomial_function_set(z6).count == 108
    assert polynomial_function_set(make_zn(8)).count == 1024
    fset = polynomial_function_set(gf4)
    assert fset.field_mode and fset.complete
    assert fset.count == 4 ** 4


def test_function_set_matches_brute_force(z4):
    closure = polynomial_function_set(z4).as_tuple_set()
    assert closure == brute_force_function_tables(z4)


def test_function_set_matches_brute_force_zero_ring():
    r = make_zero_mul_ring(2)
    closure = polynomial_function_set(r).as_tuple_set()
    oracle = brute_force_function_tables(r)
    assert closure == oracle == frozenset({(0, 0), (1, 1)})


@pytest.mark.parametrize("spec", ["T2(F2)", "Z/6", "Z/8", "Z/2 x Z/4", "zero-ring-4"])
def test_closure_matches_oracle_with_witnesses(spec):
    ring = upper_triangular_f2() if spec == "T2(F2)" else realize(parse_ring_spec(spec))
    pset = polynomial_function_set(ring)
    assert pset.complete
    assert pset.as_tuple_set() == brute_force_function_tables(ring)
    assert_rows_witnessed(pset)


def test_field_shortcut_agrees_with_closure(gf4):
    shortcut = polynomial_function_set(gf4)
    closure = polynomial_function_set(gf4, field_shortcut=False)
    assert closure.complete and not closure.field_mode
    assert closure.count == shortcut.count == 256
    assert closure.as_tuple_set() == shortcut.as_tuple_set()


def test_function_set_closed_under_addition(z4):
    tables = sorted(polynomial_function_set(z4).as_tuple_set())
    as_set = set(tables)
    for s in tables:
        for t in tables:
            assert tuple(z4.add(a, b) for a, b in zip(s, t)) in as_set


def test_function_set_contains_constants_and_identity(z6):
    pset = polynomial_function_set(z6)
    tables = pset.as_tuple_set()
    for c in z6.elements():
        assert (c,) * 6 in tables
    assert tuple(range(6)) in tables  # unital case


def test_function_set_of_zero_ring_lacks_identity():
    r = make_zero_mul_ring(4)
    tables = polynomial_function_set(r).as_tuple_set()
    assert tuple(range(4)) not in tables
    assert tables == {(c,) * 4 for c in range(4)}


def test_membership_round_trip(z4):
    w = is_polynomial_function(z4, (0, 1, 0, 1))
    assert w is not None
    assert function_table(w).values == (0, 1, 0, 1)


def test_membership_definitive_absence(z4):
    # f(0) = 0 forces f(2) = 2*a_1 which can never be 1
    assert is_polynomial_function(z4, (0, 1, 1, 1)) is None


def test_membership_on_field_via_interpolation(z3):
    for values in product(range(3), repeat=3):
        w = is_polynomial_function(z3, values)
        assert w is not None
        assert function_table(w).values == values


def test_membership_cap_is_reported(z6):
    for cap in (1, 7, 50):
        pset = polynomial_function_set(z6, cap)
        assert not pset.complete and pset.count == cap
        assert_rows_witnessed(pset)
    with pytest.raises(IncompleteSearchError):
        is_polynomial_function(z6, (0, 1, 1, 1, 1, 1), cap=50)


def test_cap_bounds_a_set_of_constants():
    # zero multiplication: only the constants are induced, and the cap still binds
    pset = polynomial_function_set(make_zero_mul_ring(4), 2)
    assert not pset.complete and pset.count == 2
    assert_rows_witnessed(pset)


def test_function_set_cache_key_ignores_call_form():
    ring = make_zn(10)
    before = polynomial_function_set.cache_info()
    first = polynomial_function_set(ring)
    assert polynomial_function_set(ring, DEFAULT_CAP) is first
    assert polynomial_function_set(ring, cap=DEFAULT_CAP) is first
    after = polynomial_function_set.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 2)


def test_function_set_rejects_negative_cap(z4):
    with pytest.raises(ValueError, match="cap"):
        polynomial_function_set(z4, -3)
    empty = polynomial_function_set(z4, 0)
    assert not empty.complete and empty.count == 0
    assert empty.lookup((0, 0, 0, 0))[0] == "unknown"


def test_membership_rejects_out_of_range_value(z4):
    with pytest.raises(ValueError, match="range"):
        is_polynomial_function(z4, (0, 1, 2, 7))


def test_field_membership_rejects_out_of_range_value():
    with pytest.raises(ValueError, match="range"):
        is_polynomial_function(make_zn(5), (0, 1, 2, 3, 9))


def test_interpolate_rejects_negative_value():
    with pytest.raises(ValueError, match="range"):
        interpolate_field(make_zn(5), (0, 1, 2, 3, -1))


def test_membership_rejects_non_integer_value(z4):
    with pytest.raises(ValueError, match="integer"):
        is_polynomial_function(z4, (0, 1, 2, 3.7))


def test_interpolate_identity(z3):
    w = interpolate_field(z3, tuple(range(3)))
    assert w.coeffs == (0, 1)


def test_interpolate_fixed_table(z3):
    w = interpolate_field(z3, (1, 0, 2))
    assert w.coeffs == (1, 2)
    assert function_table(w).values == (1, 0, 2)


def test_interpolate_constant(z3):
    w = interpolate_field(z3, (2, 2, 2))
    assert w.coeffs == (2,)


def test_interpolate_round_trip_exhaustive(z2, gf4):
    for field in (z2, gf4):
        for values in product(range(field.order), repeat=field.order):
            w = interpolate_field(field, values)
            assert function_table(w).values == values
            d = w.degree
            assert d is None or d < field.order


@pytest.mark.parametrize("spec", ["Z/2", "Z/3", "Z/5", "Z/7", "Z/11", "Z/13", "Z/17", "Z/19",
                                  "Z/23", "GF(4)", "GF(8)", "GF(9)", "GF(16)", "GF(25)",
                                  "GF(27)"])
def test_closed_form_matches_lagrange(spec):
    field = realize(parse_ring_spec(spec))
    q = field.order
    rng = random.Random(q)
    tables = [tuple(rng.randrange(q) for _ in range(q)) for _ in range(8)]
    tables += [(0,) * q, (field.unity,) * q, tuple(range(q))]
    for values in tables:
        w = interpolate_field(field, values)
        assert w == lagrange_interpolate(field, values)
        assert w.degree is None or w.degree < q
        assert function_table(w).values == values


@pytest.mark.parametrize("spec, cap", [("GF(4)", DEFAULT_CAP), ("Z/6", DEFAULT_CAP),
                                       ("Z/6", 7), ("T2(F2)", DEFAULT_CAP)])
def test_contains_agrees_with_lookup(spec, cap):
    ring = upper_triangular_f2() if spec == "T2(F2)" else realize(parse_ring_spec(spec))
    pset = polynomial_function_set(ring, cap)
    n = ring.order
    if n <= 4:
        tables = list(product(range(n), repeat=n))
    else:
        rng = random.Random(n)
        tables = [tuple(int(v) for v in row) for row in pset.tables]
        tables += [tuple(rng.randrange(n) for _ in range(n)) for _ in range(300)]
    as_bool = {"present": True, "absent": False, "unknown": None}
    for table in tables:
        assert pset.contains(table) is as_bool[pset.lookup(table)[0]]
    answers = {True} if pset.field_mode else {True, False} if pset.complete else {True, None}
    assert {pset.contains(t) for t in tables} == answers


@pytest.mark.parametrize("spec", ["GF(5)", "Z/6"])
@pytest.mark.parametrize("bad, match", [(lambda n: (n,) * n, "range"),
                                        (lambda n: (-1,) + (0,) * (n - 1), "range"),
                                        (lambda n: (1.5,) + (0,) * (n - 1), "integer"),
                                        (lambda n: (0,) * (n - 1), "length"),
                                        (lambda n: (0,) * (n + 1), "length")],
                         ids=["too-big", "negative", "non-integer", "short", "long"])
def test_contains_validates_like_lookup(spec, bad, match):
    pset = polynomial_function_set(realize(parse_ring_spec(spec)))
    table = bad(pset.ring.order)
    with pytest.raises(ValueError, match=match):
        pset.contains(table)
    with pytest.raises(ValueError, match=match):
        pset.lookup(table)


def test_interpolate_rejects_non_field(z4):
    with pytest.raises(UnsupportedStructureError):
        interpolate_field(z4, (0, 1, 2, 3))


def test_char_poly_for_units(z4):
    w = char_poly_for_subset(z4, [1, 3])
    assert function_table(w).values == (0, 1, 0, 1)


def test_char_poly_for_maximal_ideal(z4):
    w = char_poly_for_subset(z4, [0, 2])
    assert function_table(w).values == (1, 0, 1, 0)


def test_no_char_poly_on_z6(z6):
    for bits in range(1, 2 ** 6 - 1):
        subset = [i for i in range(6) if bits >> i & 1]
        assert char_poly_for_subset(z6, subset) is None


def test_char_poly_needs_unity():
    with pytest.raises(UnsupportedStructureError):
        char_poly_for_subset(make_zero_mul_ring(2), [1])


@pytest.mark.parametrize("subset", [[99], [-1], [1, 4]])
def test_char_poly_rejects_out_of_range_ids(z4, subset):
    with pytest.raises(ValueError, match="out of range"):
        char_poly_for_subset(z4, subset)


_RINGS = [make_zn(n) for n in (2, 4, 6)] + [make_zero_mul_ring(4)]


@settings(max_examples=60, deadline=None)
@given(ring=st.sampled_from(_RINGS), data=st.data())
def test_eval_is_additive_in_the_polynomial(ring, data):
    coeff = st.integers(min_value=0, max_value=ring.order - 1)
    coeffs_list = st.lists(coeff, min_size=0, max_size=5)
    f = poly_from(ring, data.draw(coeffs_list))
    g = poly_from(ring, data.draw(coeffs_list))
    r = data.draw(coeff)
    assert poly_eval(poly_add(f, g), r) == ring.add(poly_eval(f, r), poly_eval(g, r))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_eval_is_multiplicative_over_commutative_rings(z6, data):
    coeff = st.integers(min_value=0, max_value=5)
    coeffs_list = st.lists(coeff, min_size=0, max_size=4)
    f = poly_from(z6, data.draw(coeffs_list))
    g = poly_from(z6, data.draw(coeffs_list))
    r = data.draw(coeff)
    assert poly_eval(poly_mul(f, g), r) == z6.mul(poly_eval(f, r), poly_eval(g, r))


def test_poly_pow_matches_repeated_mul(z6):
    f = poly_from(z6, (1, 2, 3))
    acc = f
    for k in range(2, 6):
        acc = poly_mul(acc, f)
        assert poly_pow(f, k) == acc


def test_function_set_addition_closure_sampled(z9):
    import random

    tables = sorted(polynomial_function_set(z9).as_tuple_set())
    as_set = set(tables)
    rng = random.Random(7)
    for _ in range(2000):
        s = rng.choice(tables)
        t = rng.choice(tables)
        assert tuple(z9.add(a, b) for a, b in zip(s, t)) in as_set
