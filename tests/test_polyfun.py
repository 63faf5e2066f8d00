from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from finring import (
    UnsupportedStructureError,
    analyze,
    char_poly_for_subset,
    embed,
    function_count,
    function_table,
    image,
    interpolate_field,
    is_polynomial_function,
    local_decomposition,
    make_zero_mul_ring,
    make_zn,
    parse_ring_spec,
    poly_eval,
    poly_from,
    poly_x,
    polynomial_function_set,
    power_stabilization,
    realize,
    residue_field,
    standard_catalog,
)
from finring import polyfun
from finring.core import SubsetMask
from finring.polyfun import (
    FunctionTable,
    Polynomial,
    poly_add,
    poly_mul,
    poly_pow,
)

from finring.theorems import check_char_support_cosets

from conftest import (
    as_tuple_set,
    brute_force_function_tables,
    coset_growth,
    crt_interpolate,
    lagrange_interpolate,
    relabelled,
    row_matrices_f2,
    schoolbook_eval,
    schoolbook_mul,
    schoolbook_pow,
    set_index_limit,
    skew_dual_f4,
    small_rings,
    syndrome_supports,
    upper_triangular_f2,
)


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
    closure = as_tuple_set(polynomial_function_set(z4))
    assert closure == brute_force_function_tables(z4)


def test_function_set_matches_brute_force_zero_ring():
    r = make_zero_mul_ring(2)
    closure = as_tuple_set(polynomial_function_set(r))
    oracle = brute_force_function_tables(r)
    assert closure == oracle == frozenset({(0, 0), (1, 1)})


@pytest.mark.parametrize("spec", ["T2(F2)", "Z/6", "Z/8", "Z/2 x Z/4", "zero-ring-4"])
def test_closure_matches_oracle_with_witnesses(spec):
    # The coset-growth oracle against brute force, then the lattice
    # basis's enumerated index against both.
    ring = upper_triangular_f2() if spec == "T2(F2)" else realize(parse_ring_spec(spec))
    closure = coset_growth(ring)
    assert closure.as_tuple_set() == brute_force_function_tables(ring)
    assert_rows_witnessed(closure)
    pset = polynomial_function_set(ring)
    if not pset.idempotents:
        pset.lookup((0,) * ring.order)
        assert_rows_witnessed(pset)
        assert as_tuple_set(pset) == closure.as_tuple_set()


def test_field_set_agrees_with_coset_growth(gf4):
    pset = polynomial_function_set(gf4)
    closure = coset_growth(gf4)
    assert closure.count == pset.count == 256
    assert closure.as_tuple_set() == as_tuple_set(pset)


def test_function_set_closed_under_addition(z4):
    tables = sorted(as_tuple_set(polynomial_function_set(z4)))
    as_set = set(tables)
    for s in tables:
        for t in tables:
            assert tuple(z4.add(a, b) for a, b in zip(s, t)) in as_set


def test_function_set_contains_constants_and_identity(z6):
    pset = polynomial_function_set(z6)
    tables = as_tuple_set(pset)
    for c in z6.elements():
        assert (c,) * 6 in tables
    assert tuple(range(6)) in tables  # unital case


def test_function_set_of_zero_ring_lacks_identity():
    r = make_zero_mul_ring(4)
    tables = as_tuple_set(polynomial_function_set(r))
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


def test_membership_cap_is_reported(monkeypatch):
    # Z/12 induces 1728 functions.  Below that index limit (the successor
    # of the cap) no table is built, and every lookup is solved exactly:
    # coset growth's status, and a witness inducing the table.
    z12 = make_zn(12)
    closure = coset_growth(z12)
    tables = [(0,) * 12, (0,) + (1,) * 11, tuple(x * x % 12 for x in range(12))]
    for limit in (1, 7, 50, 1727, 1728):
        set_index_limit(monkeypatch, limit)
        pset = polynomial_function_set(z12)
        for table in tables:
            status, witness = pset.lookup(table)
            assert status == closure.lookup(table)[0] and pset.contains(table) is (witness is not None)
            assert witness is None or function_table(witness).values == table
        assert pset.count == 1728 and (pset.tables is None) == (limit < 1728)
    assert is_polynomial_function(z12, (0,) + (1,) * 11) is None


def test_as_tuple_set_refuses_over_limit_before_work():
    pset = polynomial_function_set(make_zn(12))
    assert pset.count == 1728
    with pytest.raises(ValueError, match="too large"):
        as_tuple_set(pset, limit=10)
    assert as_tuple_set(pset, limit=1728) == coset_growth(make_zn(12)).as_tuple_set()


def test_product_of_fields_is_exact_at_any_cap(monkeypatch, z6):
    # A product of fields builds no table at any index limit.
    set_index_limit(monkeypatch, 0)
    pset = polynomial_function_set(z6)
    assert pset.complete and pset.tables is None and pset.count == 108
    assert is_polynomial_function(z6, (0, 1, 1, 1, 1, 1)) is None


def test_cap_bounds_a_set_of_constants(monkeypatch):
    # zero multiplication: only the 4 constants are induced.  Under an
    # index limit of 2 none is tabulated and each lookup is solved.
    ring = make_zero_mul_ring(4)
    set_index_limit(monkeypatch, 2)
    pset = polynomial_function_set(ring)
    assert pset.count == 4
    assert pset.lookup((1,) * 4) == ("present", Polynomial(ring, (1,)))
    assert pset.lookup((0, 1, 2, 3)) == ("absent", None)
    assert pset.tables is None
    set_index_limit(monkeypatch, 4)
    full = polynomial_function_set(ring)
    assert full.lookup((1,) * 4) == ("present", Polynomial(ring, (1,)))
    assert full.count == 4
    assert_rows_witnessed(full)


def test_function_set_cache_key_ignores_call_form():
    ring = make_zn(10)
    before = polynomial_function_set.cache_info()
    first = polynomial_function_set(ring)
    assert polynomial_function_set(ring=ring) is first
    assert polynomial_function_set(ring) is first
    after = polynomial_function_set.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 2)


def test_function_set_rejects_negative_cap(z4):
    # No cap is taken at all, and every answer is exact.
    with pytest.raises(TypeError):
        polynomial_function_set(z4, -3)
    with pytest.raises(TypeError):
        is_polynomial_function(z4, (0, 0, 0, 0), cap=-3)
    pset = polynomial_function_set(z4)
    assert pset.complete and pset.count == 64
    assert pset.lookup((0, 0, 0, 0)) == ("present", Polynomial(z4, ()))


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


def test_polynomials_and_tables_reject_non_integers(z4):
    with pytest.raises(ValueError, match="integer"):
        poly_from(z4, [1.5])
    with pytest.raises(ValueError, match="integer"):
        Polynomial(z4, (1.5,))
    with pytest.raises(ValueError, match="integer"):
        FunctionTable(z4, z4, (1.5,) * 4)
    # integer-like values are read as plain element indices
    assert poly_from(z4, [True, 2]).coeffs == (1, 2)


def test_membership_rejects_a_table_of_another_ring(z2, z4, gf4):
    over_gf4 = function_table(poly_x(gf4))
    with pytest.raises(ValueError, match="not Z/4 to itself"):
        is_polynomial_function(z4, over_gf4)
    into_gf4 = function_table(poly_x(gf4), via=embed(z2, gf4, [0, 1]))
    for pset in (polynomial_function_set(gf4), polynomial_function_set(z2)):
        with pytest.raises(ValueError, match="table maps Z/2 to"):
            pset.contains(into_gf4)
    with pytest.raises(ValueError, match="table maps Z/2 to"):
        interpolate_field(gf4, into_gf4)


def test_char_poly_rejects_a_subset_of_another_ring(z4, gf4):
    with pytest.raises(ValueError, match="given for Z/4"):
        char_poly_for_subset(z4, SubsetMask.from_indices(gf4, [1]))


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


@pytest.mark.parametrize("spec, index_limit", [("GF(4)", 1 << 24), ("Z/12", 1 << 24),
                                               ("Z/12", 7), ("T2(F2)", 1 << 24), ("T2(F2)", 0)])
def test_contains_agrees_with_lookup(monkeypatch, spec, index_limit):
    # Sets within the index limit answer from their index, the others solve;
    # both agree with contains and with coset growth.
    ring = upper_triangular_f2() if spec == "T2(F2)" else realize(parse_ring_spec(spec))
    set_index_limit(monkeypatch, index_limit)
    pset = polynomial_function_set(ring)
    n = ring.order
    closure = coset_growth(ring)
    if n <= 4:
        tables = list(product(range(n), repeat=n))
    else:
        rng = random.Random(n)
        tables = [tuple(row) for row in closure.tables.tolist()]
        tables += [tuple(rng.randrange(n) for _ in range(n)) for _ in range(300)]
    for table in tables:
        status, witness = pset.lookup(table)
        assert status == closure.lookup(table)[0]
        assert pset.contains(table) is (status == "present") is (witness is not None)
        assert witness is None or function_table(witness).values == table
    assert {pset.contains(t) for t in tables} == ({True} if pset.field_mode else {True, False})
    assert (pset.tables is not None) == (not pset.idempotents and pset.count <= index_limit)


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


_ARITHMETIC_RINGS = [upper_triangular_f2(), make_zn(12), realize(parse_ring_spec("GF(9)")),
                     make_zero_mul_ring(4)]


@settings(max_examples=80, deadline=None)
@given(ring=st.sampled_from(_ARITHMETIC_RINGS), data=st.data())
def test_arithmetic_matches_the_schoolbook_oracle(ring, data):
    coeffs_list = st.lists(st.integers(min_value=0, max_value=ring.order - 1), max_size=6)
    f = poly_from(ring, data.draw(coeffs_list))
    g = poly_from(ring, data.draw(coeffs_list))
    k = data.draw(st.integers(min_value=1, max_value=6))
    assert poly_mul(f, g).stripped() == schoolbook_mul(f, g)
    assert poly_pow(f, k).stripped() == schoolbook_pow(f, k)
    assert [poly_eval(f, x) for x in range(ring.order)] == \
        [schoolbook_eval(f, x) for x in range(ring.order)]


def test_poly_pow_matches_repeated_mul(z6):
    f = poly_from(z6, (1, 2, 3))
    acc = f
    for k in range(2, 6):
        acc = poly_mul(acc, f)
        assert poly_pow(f, k) == acc


def test_function_set_addition_closure_sampled(z9):
    import random

    tables = sorted(as_tuple_set(polynomial_function_set(z9)))
    as_set = set(tables)
    rng = random.Random(7)
    for _ in range(2000):
        s = rng.choice(tables)
        t = rng.choice(tables)
        assert tuple(z9.add(a, b) for a, b in zip(s, t)) in as_set


# --- products of fields: the CRT engine against independent oracles ---------

PRODUCTS_OF_FIELDS = ("Z/6", "Z/10", "Z/14", "Z/15", "Z/2 x Z/2", "Z/2 x Z/3")


def _nonconstant_indicators(ring) -> list[tuple[int, ...]]:
    """Every 0/1-valued table other than the two constants."""
    n, one = ring.order, ring.unity
    return [tuple(one if bits >> x & 1 else 0 for x in range(n))
            for bits in range(1, (1 << n) - 1)]


def test_catalog_products_of_fields_are_answered_by_crt(catalog16):
    crt = {name for name, ring in catalog16 if len(polynomial_function_set(ring).idempotents) > 1}
    assert crt == set(PRODUCTS_OF_FIELDS)


@pytest.mark.parametrize("spec", [s for s in PRODUCTS_OF_FIELDS if s != "Z/14"])
def test_crt_engine_matches_closure(spec):
    ring = realize(parse_ring_spec(spec))
    pset = polynomial_function_set(ring)
    closure = coset_growth(ring)
    assert pset.complete and pset.tables is None
    assert pset.count == closure.count
    rows = [tuple(row) for row in closure.tables.tolist()]
    tables = as_tuple_set(pset)
    if ring.order <= 6:
        assert tables == brute_force_function_tables(ring)
    assert tables == frozenset(rows)
    assert all(pset.contains(row) is True for row in rows)
    n = ring.order
    rng = random.Random(n)
    noise = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(300)]
    for table in noise:
        assert pset.contains(table) is closure.contains(table)
    for table in rng.sample(rows, min(300, len(rows))) + noise:
        status, witness = pset.lookup(table)
        assert status == closure.lookup(table)[0]
        if witness is not None:
            assert function_table(witness).values == table
    # No product of two or more fields induces a non-constant indicator.
    assert not any(pset.contains(t) or closure.contains(t) for t in _nonconstant_indicators(ring))


def test_crt_engine_on_z14_materialises_nothing():
    # 14^2 * 7^5 = 3,294,172 tables: the engine answers without building them.
    ring = make_zn(14)
    pset = polynomial_function_set(ring)
    assert pset.tables is None and pset.complete and pset.count == 2 ** 2 * 7 ** 7
    rng = random.Random(14)

    def glued(g2, g7):
        return tuple(next(y for y in range(14) if y % 2 == g2[x % 2] and y % 7 == g7[x % 7])
                     for x in range(14))

    for _ in range(300):
        table = glued([rng.randrange(2) for _ in range(2)], [rng.randrange(7) for _ in range(7)])
        assert pset.contains(table) is True
        status, witness = pset.lookup(table)
        assert status == "present" and function_table(witness).values == table
        x = rng.randrange(7)  # x and x + 7 share a residue mod 7 but not mod 2
        broken = list(table)
        broken[x + 7] = (table[x + 7] + 2) % 14
        assert pset.contains(broken) is False
        assert pset.lookup(broken) == ("absent", None)
    assert not any(map(pset.contains, _nonconstant_indicators(ring)))


@pytest.mark.parametrize("spec", ["Z/6", "Z/10", "Z/14", "Z/15", "Z/2 x Z/2", "Z/2 x Z/3",
                                  "Z/30", "GF(4) x Z/3", "Z/2 x Z/2 x Z/2"])
def test_witnesses_equal_the_crt_oracle(spec):
    ring = realize(parse_ring_spec(spec))
    pset = polynomial_function_set(ring)
    assert pset.tables is None and len(pset.idempotents) == len(local_decomposition(ring)) > 1
    n = ring.order
    width = max(f.ring.order for f in local_decomposition(ring))
    rng = random.Random(n)
    for _ in range(300):
        # a random polynomial of degree < width reaches every induced table
        table = function_table(Polynomial(ring, tuple(rng.randrange(n) for _ in range(width))))
        witness = crt_interpolate(ring, table.values)
        assert pset.lookup(table) == ("present", witness)
        assert function_table(witness) == table


def test_product_of_three_fields_matches_coset_growth():
    ring = realize(parse_ring_spec("Z/2 x Z/2 x Z/2"))
    pset, closure = polynomial_function_set(ring), coset_growth(ring)
    assert pset.count == closure.count == (2 ** 2) ** 3
    assert as_tuple_set(pset) == closure.as_tuple_set() == brute_force_function_tables(ring)
    rng = random.Random(8)
    tables = closure.tables.tolist() + [[rng.randrange(8) for _ in range(8)] for _ in range(300)]
    assert [pset.contains(t) for t in tables] == [closure.contains(t) for t in tables]
    assert not any(pset.contains(t) or closure.contains(t) for t in _nonconstant_indicators(ring))


@pytest.mark.parametrize("spec", ["Z/6", "Z/2 x Z/2 x Z/2", "GF(4) x Z/3"])
def test_products_of_fields_induce_no_nontrivial_indicator(spec):
    # The one-block argument: an induced 0/1 table F has F(x) = F(e*x) for
    # every idempotent e, and z = e1*x + e2*y has F(x) = F(z) = F(y).  Checked
    # against every 0/1 table by both engines and by the lattice syndrome.
    ring = realize(parse_ring_spec(spec))
    pset, closure = polynomial_function_set(ring), coset_growth(ring)
    assert not any(pset.contains(t) or closure.contains(t) for t in _nonconstant_indicators(ring))
    assert syndrome_supports(ring) == [0, (1 << ring.order) - 1]


# --- exact counts: the per-prime lattice against independent oracles ---------

def _spec_ring(spec):
    return upper_triangular_f2() if spec == "T2(F2)" else realize(parse_ring_spec(spec))


def _non_reduced_catalog(max_order):
    # Rings with a nonzero nilpotent, or not commutative and unital: these
    # are the ones the lattice counts (products of fields have a closed form).
    return [(name, ring) for name, ring in standard_catalog(max_order)
            if not (analyze(ring).is_commutative and ring.unity is not None
                    and analyze(ring).nilpotents.size == 1)]


@pytest.mark.parametrize("spec", [name for name, _ in _non_reduced_catalog(20)]
                         + ["T2(F2)", "Z/8 x Z/2", "Z/2[x]/(x^4)", "Z/2[x]/(x^3) x Z/2"])
def test_function_count_equals_coset_growth(spec):
    ring = _spec_ring(spec)
    assert function_count(ring) == coset_growth(ring).count


@pytest.mark.parametrize("spec", ["Z/8 x Z/2", "Z/4 x Z/4", "Z/2[x]/(x^4)", "Z/4[x]/(x^2+2)",
                                  "T2(F2)"])
def test_function_count_ignores_element_labels(spec):
    ring = _spec_ring(spec)
    count = function_count(ring)
    for labels in (range(ring.order - 1, 0, -1),
                   random.Random(0).sample(range(1, ring.order), ring.order - 1)):
        copy = relabelled(ring, list(labels))
        assert function_count(copy) == count == coset_growth(copy).count


def test_function_count_equals_brute_force_on_small_rings():
    rings = [ring for _, ring in standard_catalog(6)]
    rings += [make_zero_mul_ring(2), make_zero_mul_ring(4), row_matrices_f2()]
    assert not analyze(rings[-1]).is_commutative and rings[-1].unity is None
    for ring in rings:
        assert function_count(ring) == len(brute_force_function_tables(ring)), ring.label


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(ring=small_rings())
def test_function_count_equals_coset_growth_on_random_rings(ring):
    # Products of fields have a closed form, not the lattice.  Five of these
    # rings have 2^24 functions, too many to grow here; the square-zero test
    # below covers them.
    assume(analyze(ring).nilpotents.size > 1)
    count = function_count(ring)
    assume(count <= 1 << 18)
    assert count == coset_growth(ring).count


@pytest.mark.parametrize("spec, q", [("Z/4", 2), ("Z/9", 3), ("Z/25", 5), ("Z/2[x]/(x^2)", 2),
                                     ("Z/3[x]/(x^2)", 3), ("Z/4[x]/(x^2+x+1)", 4),
                                     ("Z/4[x]/(x^2+3x+3)", 4), ("Z/2[x]/(x^4+x^2+1)", 4)])
def test_function_count_of_square_zero_local_rings(spec, q):
    # A local ring whose maximal ideal M has M^2 = 0 and |M| = q = |R/M|
    # induces q^(3q) functions: f(a + m) = f(a) + f'(a)*m, with q^2 choices
    # of f(a) and q of f'(a) mod M for each of the q residues a.
    ring = realize(parse_ring_spec(spec))
    assert ring.order == q * q and analyze(ring).is_local
    assert function_count(ring) == q ** (3 * q)


# --- membership and witnesses from the lattice against coset growth ---------

def _syndrome_probes(closure, rng) -> list[tuple[int, ...]]:
    """Present rows, random tables and present rows with one value moved."""
    n = closure.ring.order
    rows = [tuple(row) for row in closure.tables.tolist()]
    probes = rng.sample(rows, min(200, len(rows)))
    probes += [tuple(rng.randrange(n) for _ in range(n)) for _ in range(200)]
    for row in rng.sample(rows, min(200, len(rows))):
        moved = list(row)
        moved[rng.randrange(n)] = rng.randrange(n)
        probes.append(tuple(moved))
    return probes


def _indicator_rows(closure) -> list[int]:
    """The supports of coset growth's 0/1-valued rows, as sorted bit masks."""
    one = closure.ring.unity
    return sorted(sum(1 << x for x, v in enumerate(row) if v == one)
                  for row in closure.tables.tolist() if set(row) <= {0, one})


def _assert_syndrome_matches_closure(ring, seed):
    pset, closure = polynomial_function_set(ring), coset_growth(ring)
    assert not pset.idempotents
    probes = _syndrome_probes(closure, random.Random(seed))
    assert [pset.contains(t) for t in probes] == [closure.contains(t) for t in probes]
    assert {closure.contains(t) for t in probes} == {True, False}
    assert pset.tables is None
    return closure


def _assert_lookup_matches_closure(ring, seed):
    """Every status is coset growth's, and every witness induces its table
    under the schoolbook evaluation."""
    pset, closure = polynomial_function_set(ring), coset_growth(ring)
    probes = _syndrome_probes(closure, random.Random(seed))
    answers = [pset.lookup(t) for t in probes]
    assert [status for status, _ in answers] == [closure.lookup(t)[0] for t in probes]
    for table, (status, witness) in zip(probes, answers):
        assert (witness is not None) == (status == "present")
        if witness is not None:
            assert tuple(schoolbook_eval(witness, x) for x in range(ring.order)) == table
    return pset


MEMBERSHIP_RINGS = ["Z/4", "Z/9", "Z/12", "Z/18", "Z/20", "Z/24", "Z/4 x Z/3", "Z/8 x Z/2",
                    "T2(F2)", "zero-ring-4"]


@pytest.mark.parametrize("spec", MEMBERSHIP_RINGS)
def test_syndrome_membership_matches_coset_growth(refuse_index, spec):
    # Z/12 and Z/18 have two primes: without the projection e_p * F onto
    # each p-part, the syndrome mixes the parts and answers wrongly.
    ring = _spec_ring(spec)
    _assert_syndrome_matches_closure(ring, ring.order)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(ring=small_rings(), seed=st.integers(0, 2 ** 16))
def test_syndrome_membership_matches_coset_growth_on_random_rings(ring, seed):
    assume(analyze(ring).nilpotents.size > 1)
    assume(function_count(ring) <= 1 << 16)
    closure = _assert_syndrome_matches_closure(ring, seed)
    assert syndrome_supports(ring) == _indicator_rows(closure)


@pytest.mark.parametrize("path", ["index", "solve"])
@pytest.mark.parametrize("spec", MEMBERSHIP_RINGS)
def test_lookup_matches_coset_growth(request, monkeypatch, spec, path):
    # The index enumerated from the lattice basis, and with an index limit
    # of 0 the solve path, which enumerates nothing.
    set_index_limit(monkeypatch, 1 << 16 if path == "index" else 0)
    if path == "solve":
        request.getfixturevalue("refuse_index")
    ring = _spec_ring(spec)
    pset = _assert_lookup_matches_closure(ring, ring.order)
    assert (pset.tables is None) == (path == "solve" or pset.count > 1 << 16)


@pytest.mark.parametrize("path", ["index", "solve"])
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(ring=small_rings(), seed=st.integers(0, 2 ** 16))
def test_lookup_matches_coset_growth_on_random_rings(path, ring, seed):
    assume(analyze(ring).nilpotents.size > 1)
    assume(function_count(ring) <= 1 << 16)
    with pytest.MonkeyPatch.context() as monkeypatch:
        set_index_limit(monkeypatch, 1 << 16 if path == "index" else 0)
        pset = _assert_lookup_matches_closure(ring, seed)
    assert (pset.tables is None) == (path == "solve")


def _coset_unions(ring) -> list[int]:
    """Every union of cosets of the maximal ideal, as sorted bit masks."""
    field, proj, _ = residue_field(ring)
    return sorted(sum(1 << x for x, c in enumerate(proj) if bits >> c & 1)
                  for bits in range(1 << field.order))


def _r28_supports(ring) -> list[int]:
    """The coset unions whose indicator R2.8 answers with a witness, each
    witness checked to induce that indicator."""
    found = []
    for bits in _coset_unions(ring):
        subset = [x for x in range(ring.order) if bits >> x & 1]
        witness = check_char_support_cosets(ring, subset).witness
        assert witness["coset_union"] is True
        if witness["polynomial_exists"]:
            values = function_table(witness["polynomial"]).values
            assert values == tuple(ring.unity if bits >> x & 1 else 0 for x in range(ring.order))
            found.append(bits)
    return found


NON_FIELD_LOCAL_32 = [name for name, ring in standard_catalog(32)
                      if analyze(ring).is_local and not analyze(ring).is_field]


def test_catalog_has_eleven_non_field_local_rings():
    assert len(NON_FIELD_LOCAL_32) == 11


@pytest.mark.parametrize("spec", NON_FIELD_LOCAL_32)
def test_indicator_supports_match_coset_growth(spec):
    # Every non-field local ring up to order 32: the indicators that R2.8
    # builds from P2.6's lift are exactly the supports found by matching
    # half-subset syndromes, and coset growth's 0/1 rows where the group
    # has at most 2^20 tables.
    ring = _spec_ring(spec)
    expected = syndrome_supports(ring)
    assert _r28_supports(ring) == _coset_unions(ring) == expected
    if function_count(ring) <= 1 << 20:
        assert _indicator_rows(coset_growth(ring)) == expected
    assert len(expected) == 2 ** analyze(ring).residue_field_order
    assert check_char_support_cosets(ring).witness["swept"] == len(expected) - 2


def test_skew_ring_induces_half_of_its_coset_unions():
    # GF(4)[t; Frobenius]/(t^2) is local but not commutative, so R2.8 looks
    # each coset union up: 8 of the 16 are induced, as the syndrome oracle
    # finds, and the units' indicator is one of them.
    ring = skew_dual_f4()
    supports = syndrome_supports(ring)
    assert len(_coset_unions(ring)) == 16 and len(supports) == 8
    assert _r28_supports(ring) == supports
    verdict = check_char_support_cosets(ring)
    assert verdict.status == "pass" and verdict.witness["swept"] == 6
    assert verdict.witness["polynomial_exists"] is True


def test_absent_indicators_are_decided_over_the_cap(refuse_index):
    # Z/27 induces 3^18 functions, far over any table index: an absent
    # indicator is answered from the syndrome, and a present one is solved
    # for its witness.
    z27 = make_zn(27)
    assert char_poly_for_subset(z27, [0]) is None
    assert char_poly_for_subset(z27, [1]) is None
    units = [x for x in range(27) if x % 3]
    witness = char_poly_for_subset(z27, units)
    assert function_table(witness).values == tuple(int(x % 3 != 0) for x in range(27))


_BOUNDED_LOOKUP = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from finring import function_table, is_polynomial_function, parse_ring_spec, poly_from
from finring import polynomial_function_set, realize
out = {}
for spec in sys.argv[1:]:
    ring = realize(parse_ring_spec(spec))
    table = function_table(poly_from(ring, [(3 * k + 1) % ring.order for k in range(9)])).values
    moved = (ring.add(table[0], ring.unity),) + table[1:]
    witness = is_polynomial_function(ring, table)
    out[spec] = [function_table(witness).values == table,
                 is_polynomial_function(ring, moved) is None,
                 polynomial_function_set(ring).tables is None]
print(json.dumps(out))
"""


def test_lookups_on_2_24_functions_fit_in_a_bounded_address_space():
    # Both rings induce exactly 2^24 functions, once tabulated row by row
    # at several GB.  A present table (of a polynomial) and an absent one
    # (a value moved by a unit, which leaves its J-coset) are solved under a
    # 1 GB address-space limit, and no table is enumerated.
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import finring

    specs = ["Z/32", "Z/4[x]/(x^2+x+1)"]
    assert all(function_count(realize(parse_ring_spec(s))) == 1 << 24 for s in specs)
    package_root = str(Path(finring.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": package_root, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _BOUNDED_LOOKUP, *specs],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {spec: [True, True, True] for spec in specs}
