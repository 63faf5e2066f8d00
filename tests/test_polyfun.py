from __future__ import annotations

import math
import random
import re
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from finring import (
    UnsupportedStructureError,
    analyze,
    char_poly_for_subset,
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
from finring import catalog, cli, core, polyfun, theorems
from finring.core import SubsetMask
from finring.polyfun import (
    FunctionTable,
    Polynomial,
    poly_add,
    poly_mul,
    poly_pow,
    poly_scale,
    poly_sub,
)

from finring.theorems import check_char_support_cosets

from conftest import (
    as_tuple_set,
    brute_force_function_tables,
    closed_form_interpolant,
    coset_growth,
    crt_interpolate,
    field_idempotents,
    lagrange_interpolate,
    m2f2,
    relabelled,
    row_matrices_f2,
    schoolbook_eval,
    schoolbook_mul,
    schoolbook_pow,
    set_index_limit,
    skew_dual_f4,
    small_rings,
    syndrome_supports,
    tracked_lattice,
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
    assert field_idempotents(fset) == (gf4.unity,) and fset.complete
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
    # The coset-growth oracle against brute force, then the enumerated index
    # of the chain (Z/8, Z/2 x Z/4) or lattice engine against both; the
    # first lookup solves and the second builds the index.
    ring = upper_triangular_f2() if spec == "T2(F2)" else realize(parse_ring_spec(spec))
    closure = coset_growth(ring)
    assert closure.as_tuple_set() == brute_force_function_tables(ring)
    assert_rows_witnessed(closure)
    pset = polynomial_function_set(ring)
    if not field_idempotents(pset):
        assert pset.lookup((0,) * ring.order) == pset.lookup((0,) * ring.order)
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
    # With the index limit at 0, a product of fields builds no table.
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
    for _ in range(2):  # a solve, then the index
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
    into_gf4 = FunctionTable(z2, gf4, (0, 1))
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


def _products_of_fields():
    """Every field and product of fields of standard_catalog(32), the fields
    of orders 64, 128, 243 and 256, and three products of several fields."""
    rings = [ring for _, ring in standard_catalog(32)]
    rings += [realize(parse_ring_spec(spec)) for spec in (
        "Z/2[x]/(x^6+x+1)", "Z/2[x]/(x^7+x+1)", "Z/3[x]/(x^5+2x+1)",
        "Z/2[x]/(x^8+x^4+x^3+x+1)", "Z/251", "Z/2 x Z/3 x Z/5 x Z/7", "GF(4) x Z/3")]
    return [ring for ring in rings if field_idempotents(polynomial_function_set(ring))]


@pytest.mark.parametrize("ring", _products_of_fields(), ids=lambda ring: ring.label)
def test_interpolants_match_the_closed_form_oracle(ring):
    # F = sum_e e * G(e * x) is induced for any G; the library's matrix
    # product must give the oracle's coefficients, one table read at a time.
    pset = polynomial_function_set(ring)
    mul, n = ring.mul_table, ring.order
    rng = random.Random(n)
    for _ in range(4):
        g = [rng.randrange(n) for _ in range(n)]
        values = [0] * n
        for e in field_idempotents(pset):
            for x in range(n):
                values[x] = ring.add(values[x], mul[e][g[mul[e][x]]])
        want = closed_form_interpolant(ring, field_idempotents(pset), values)
        assert pset.lookup(values) == ("present", want)
        if len(field_idempotents(pset)) == 1:
            assert interpolate_field(ring, values) == want
    if ring.label == "Z/251":
        # the largest partial sums of any ring of order <= 256: 251 * 250^2
        values = (250,) * n
        assert interpolate_field(ring, values) == closed_form_interpolant(ring, (1,), values)


def test_interpolation_beyond_float32_sums_stays_exact():
    # Z/257's partial sums reach 257 * 256^2 > 2^24, so Y and L are float64
    field = make_zn(257)
    rng = random.Random(257)
    for values in ([256] * 257, [rng.randrange(257) for _ in range(257)]):
        want = closed_form_interpolant(field, (1,), values)
        assert interpolate_field(field, values) == want
    L, Y = polynomial_function_set(field).engine._setup[:2]
    assert L.dtype == Y.dtype == np.float64


def test_interpolation_setup_is_built_once_per_set(monkeypatch):
    calls = []

    def counted(ring):
        calls.append(ring)
        return coordinates(ring)

    coordinates = polyfun._coordinates
    monkeypatch.setattr(polyfun, "_coordinates", counted)
    field = make_zn(11)  # a new ring, so a new function set
    pset = polynomial_function_set(field)
    assert pset.count == 11 ** 11
    assert pset.contains(tuple(range(11)))
    assert calls == [] and "_setup" not in vars(pset.engine)
    assert interpolate_field(field, tuple(range(11))).coeffs == (0, 1)
    setup = vars(pset.engine)["_setup"]
    assert pset.lookup((3,) * 11) == ("present", Polynomial(field, (3,)))
    assert calls == [field] and pset.engine._setup is setup


# --- every engine: each table validated once, each witness built once --------

_z257 = make_zn(257)  # its tables are read as unsigned shorts
_t2f2 = upper_triangular_f2()
_KERNEL_RINGS = {"GF(4)": lambda: realize(parse_ring_spec("GF(4)")),
                 "Z/6": lambda: realize(parse_ring_spec("Z/6")),
                 "Z/257": lambda: _z257,
                 "Z/9": lambda: realize(parse_ring_spec("Z/9")),  # chain and lattice: the index
                 "T2(F2)": lambda: _t2f2,
                 "Z/9 solve": lambda: realize(parse_ring_spec("Z/9"))}  # and the solve path
_SOLVED = {"Z/9 solve"}  # looked up with INDEX_LIMIT at 0
_OTHER_RING = make_zn(3)

# Each input as a function of the ring and a valid table t of it.
_KERNEL_INPUTS = {
    "tuple": lambda ring, t: tuple(t),
    "list": lambda ring, t: list(t),
    "range": lambda ring, t: range(ring.order),
    "float": lambda ring, t: (1.5, *t[1:]),
    "integral-float": lambda ring, t: [float(v) for v in t],
    "str-value": lambda ring, t: ["1", *t[1:]],
    "str-table": lambda ring, t: "".join(map(str, t)),
    "none-value": lambda ring, t: (None, *t[1:]),
    "none-table": lambda ring, t: None,
    "negative": lambda ring, t: (-1, *t[1:]),
    "n": lambda ring, t: (*t[:-1], ring.order),
    "256": lambda ring, t: [256, *t[1:]],
    "300": lambda ring, t: (*t[:-1], 300),
    "huge": lambda ring, t: (2 ** 70, *t[1:]),
    "short": lambda ring, t: tuple(t[:-1]),
    "long": lambda ring, t: [*t, 0],
    "empty": lambda ring, t: (),
    "generator": lambda ring, t: (v for v in t),
    "numpy": lambda ring, t: np.array(t),
    "numpy-uint16-list": lambda ring, t: list(np.array(t, dtype=np.uint16)),
    "numpy-scalars": lambda ring, t: tuple(np.int64(v) for v in t),
    "numpy-float": lambda ring, t: np.array(t, dtype=float),
    "numpy-bool": lambda ring, t: (np.True_, *t[1:]),
    "bools": lambda ring, t: (True, False, *t[2:]),
    "tuple-subclass": lambda ring, t: type("Row", (tuple,), {})(t),
    "same-ring-table": lambda ring, t: FunctionTable(ring, ring, t),
    "other-ring-table": lambda ring, t: FunctionTable(_OTHER_RING, _OTHER_RING, (0, 1, 2)),
}


def _kernel_table(ring, name):
    """Input ``name`` on ``ring``, around a valid table that is induced: on a
    product of fields F = sum_e e * G(e * x), and on any other ring the
    table of a polynomial."""
    n = ring.order
    rng = random.Random(n)
    g = [rng.randrange(n) for _ in range(n)]
    idempotents = field_idempotents(polynomial_function_set(ring))
    valid = [0] * n if idempotents else list(function_table(poly_from(ring, g)).values)
    for e in idempotents:
        for x in range(n):
            valid[x] = ring.add(valid[x], ring.mul(e, g[ring.mul(e, x)]))
    return _KERNEL_INPUTS[name](ring, valid)


def _slow_path_answer(ring, name, answer):
    """``answer(values)`` on the values that ``_table_values`` reads from the
    input, or the (type, message) of the error it raises: what each entry
    point answered before the fast path existed."""
    try:
        values = polyfun._table_values(ring, _kernel_table(ring, name))
    except ValueError as err:
        return type(err), str(err)
    return answer(values)


def _answer(call):
    try:
        return call()
    except ValueError as err:
        return type(err), str(err)


@pytest.mark.parametrize("name", list(_KERNEL_INPUTS))
@pytest.mark.parametrize("spec", list(_KERNEL_RINGS))
def test_kernel_entry_points_read_every_input_as_the_slow_path_does(monkeypatch, spec, name):
    # on a product of fields a witness is the closed form; on any other
    # ring it is compared by the table it induces, with coset growth deciding
    ring = _KERNEL_RINGS[spec]()
    if spec in _SOLVED:
        set_index_limit(monkeypatch, 0)
    pset = polynomial_function_set(ring)
    n, idempotents = ring.order, field_idempotents(pset)
    table = lambda: _kernel_table(ring, name)
    if idempotents:
        def induced(values):
            return all(ring.mul(e, values[x]) == ring.mul(e, values[ring.mul(e, x)])
                       for e in idempotents for x in range(n))

        def looked_up(values):
            if not induced(values):
                return "absent", None
            return "present", closed_form_interpolant(ring, idempotents, values)

        lookup = lambda: pset.lookup(table())
    else:
        closure = coset_growth(ring)
        for _ in range(2):  # the second lookup builds the index, unless solving
            pset.lookup(_kernel_table(ring, "tuple"))
        assert (pset.tables is None) == (spec in _SOLVED)
        induced = closure.contains

        def looked_up(values):
            return ("present", values) if induced(values) else ("absent", None)

        def lookup():
            status, witness = pset.lookup(table())
            return status, None if witness is None else function_table(witness).values

    assert _answer(lookup) == _slow_path_answer(ring, name, looked_up)
    assert _answer(lambda: pset.contains(table())) == _slow_path_answer(ring, name, induced)
    if len(field_idempotents(pset)) == 1:
        assert _answer(lambda: interpolate_field(ring, table())) == _slow_path_answer(
            ring, name, lambda values: closed_form_interpolant(ring, idempotents, values))
    else:
        with pytest.raises(UnsupportedStructureError):
            interpolate_field(ring, table())


def test_a_tuple_or_list_is_validated_once_and_no_witness_is_checked(monkeypatch):
    # a tuple or list is read by the view alone; any other input by
    # _table_values once; the witness's coefficients are never re-checked
    calls = []
    indices = polyfun._indices
    gf8, z30, z9 = (realize(parse_ring_spec(spec)) for spec in ("GF(8)", "Z/30", "Z/9"))
    monkeypatch.setattr(polyfun, "_indices", lambda *args: calls.append(args[2]) or indices(*args))
    for ring, solve in ((gf8, False), (z30, False), (_z257, False), (z9, False),
                        (_t2f2, False), (z9, True)):
        if solve:
            set_index_limit(monkeypatch, 0)
        pset = polynomial_function_set(ring)
        table = list(range(ring.order))  # x -> x
        for call in (pset.lookup, pset.contains):
            call(table)
            call(tuple(table))
        if len(field_idempotents(pset)) == 1:
            interpolate_field(ring, table)
        assert calls == []
        pset.lookup(iter(table))
        assert calls == ["table values"]
        assert (pset.tables is not None) == (not field_idempotents(pset) and not solve)
        calls.clear()


def test_a_setup_whose_decode_leaves_the_ring_raises(monkeypatch):
    # one element decoded from two keys leaves another decoded from none
    def collided(ring):
        basis, moduli, primes, decode = additive_basis(ring)
        return basis, moduli, primes, [*decode[:-1], decode[-2]]

    additive_basis = polyfun._additive_basis
    monkeypatch.setattr(polyfun, "_additive_basis", collided)
    # new rings, so new sets and maps; a chain ring maps its coordinates to solve
    for ring in (make_zn(7), make_zn(6), make_zn(27)):
        with pytest.raises(core.InternalInvariantError, match="decode table is not a permutation"):
            polynomial_function_set(ring).lookup(tuple(range(ring.order)))
        assert polyfun._coordinates not in (ring.store or {})  # a failed build stores nothing


def test_an_index_whose_witness_row_leaves_the_ring_raises(monkeypatch):
    # the index's witness rows are checked once, when the second lookup builds it
    def stray(self):
        tables, witnesses = enumerate_tables(self)
        witnesses = witnesses.copy()
        witnesses[-1, 0] = self.ring.order
        return tables, witnesses

    enumerate_tables = polyfun.PolyFunctionSet._enumerate
    monkeypatch.setattr(polyfun.PolyFunctionSet, "_enumerate", stray)
    for ring in (make_zn(9), upper_triangular_f2()):  # new rings, so new sets
        pset = polynomial_function_set(ring)
        pset.lookup(tuple(range(ring.order)))
        with pytest.raises(core.InternalInvariantError, match="witness row leaves range"):
            pset.lookup(tuple(range(ring.order)))


def test_the_solve_path_reads_a_ring_above_order_256():
    # Z/264 = Z/8 x Z/3 x Z/11 is solved, its tables read as unsigned shorts;
    # moving F(0) by 1 moves it off F(4) modulo 4, which no polynomial does
    ring = make_zn(264)
    pset = polynomial_function_set(ring)
    rng = random.Random(264)
    for _ in range(3):
        table = function_table(poly_from(ring, [rng.randrange(264) for _ in range(5)])).values
        status, witness = pset.lookup(list(table))
        assert status == "present" and function_table(witness).values == table
        assert pset.contains(table)
        moved = (ring.add(table[0], 1), *table[1:])
        assert pset.lookup(moved) == ("absent", None) and not pset.contains(list(moved))
    assert pset.tables is None


# --- the index: each row's witness built once and shared ---------------------

@pytest.mark.parametrize("spec", ["Z/9", "T2(F2)", "Z/12"])
def test_an_index_hit_returns_its_rows_cached_witness(spec):
    ring = _t2f2 if spec == "T2(F2)" else realize(parse_ring_spec(spec))
    pset = polynomial_function_set(ring)
    rng = random.Random(ring.order)
    closure = coset_growth(ring)
    rows = rng.sample(closure.tables.tolist(), 20)
    assert pset.lookup(rows[0]) == pset.lookup(rows[0])  # a solve, then the index
    for row in rows:
        status, witness = pset.lookup(tuple(row))
        assert status == "present" and pset.lookup(row)[1] is witness
        checked = Polynomial(ring, tuple(pset.witnesses[pset._index[bytes(row)]].tolist()))
        assert witness == checked.stripped() and function_table(witness).values == tuple(row)


def test_every_row_of_z12_keeps_at_most_one_cached_witness():
    ring = realize(parse_ring_spec("Z/12"))
    pset = polynomial_function_set(ring)
    rows = coset_growth(ring).tables.tolist()
    first = [pset.lookup(tuple(row))[1] for row in rows]
    second = [pset.lookup(row)[1] for row in rows]
    assert len(pset._witness_cache) == len(rows) == pset.count
    assert all(a is b for a, b in zip(first, second))
    assert len({id(w) for w in pset._witness_cache}) == pset.count
    assert {id(w) for w in pset._witness_cache} == {id(w) for w in first}


def test_a_new_set_builds_fresh_witnesses():
    ring = realize(parse_ring_spec("Z/9"))
    table = tuple(range(ring.order))
    first = polynomial_function_set(ring)
    witness = [first.lookup(table)[1] for _ in range(2)][1]  # a solve, then the index
    polynomial_function_set.cache_clear()
    pset = polynomial_function_set(ring)
    solved = pset.lookup(table)[1]
    assert pset._witness_cache is None
    fresh = pset.lookup(table)[1]
    assert fresh == solved == witness and fresh is not witness
    assert pset.lookup(table)[1] is fresh


# --- the lookup policy: a solve first, the index from the second lookup -----

@pytest.mark.parametrize("spec", ["Z/16", "Z/2[x]/(x^4)"])
def test_a_set_builds_its_index_on_its_second_lookup(spec):
    # a one-off lookup on a set of 2^16 tables solves; the second lookup
    # enumerates the set, and both give the same witness
    ring = realize(parse_ring_spec(spec))  # a new ring, so a new set
    pset = polynomial_function_set(ring)
    assert pset.count == 1 << 16
    table = function_table(poly_from(ring, (3, 1, 4, 1, 5))).values
    first = pset.lookup(table)
    assert first[0] == "present" and pset.tables is None
    second = pset.lookup(list(table))
    assert pset.tables is not None and second == first
    assert function_table(second[1]).values == table


_PROBE_INPUTS = ["n", "256", "negative", "integral-float", "short", "long", "numpy-scalars",
                 "bools", "other-ring-table"]


@pytest.mark.parametrize("name", _PROBE_INPUTS)
@pytest.mark.parametrize("spec", ["Z/12", "T2(F2)"])
def test_the_index_probe_reads_every_input_as_the_slow_path_does(spec, name):
    # lookup and contains raise _table_view's ValueError on a malformed
    # table and answer a valid one as its values, both on a new set, which
    # solves, and once the index exists, where a tuple or list is probed as
    # bytes; a malformed table does not count as a set's first lookup
    ring = _t2f2 if spec == "T2(F2)" else realize(parse_ring_spec(spec))
    closure = coset_growth(ring)

    def looked_up(values):
        return ("present", values) if closure.contains(values) else ("absent", None)

    def lookup():
        status, witness = pset.lookup(_kernel_table(ring, name))
        return status, None if witness is None else function_table(witness).values

    valid = _kernel_table(ring, "tuple")
    for indexed in (False, True):
        polynomial_function_set.cache_clear()
        pset = polynomial_function_set(ring)
        if indexed:
            pset.lookup(valid)
            pset.lookup(valid)
        assert (pset.tables is not None) == indexed
        assert _answer(lambda: pset.contains(_kernel_table(ring, name))) == \
            _slow_path_answer(ring, name, closure.contains)
        assert _answer(lookup) == _slow_path_answer(ring, name, looked_up)
        if not indexed and isinstance(_slow_path_answer(ring, name, looked_up)[0], type):
            pset.lookup(valid)  # the first lookup
            assert pset.tables is None


_MEMBERSHIP_RINGS = ["Z/9", "Z/12", "Z/4 x Z/3", "Z/8 x Z/2", "Z/2[x]/(x^3) x Z/2", "T2(F2)"]


@pytest.mark.parametrize("spec", _MEMBERSHIP_RINGS)
def test_index_answers_equal_the_solve_paths(monkeypatch, spec):
    # present tables of random polynomials, and random tables, nearly all
    # absent, answered through the index and by a set that solves every
    # lookup (INDEX_LIMIT 0): the same status and the same witness
    ring = _t2f2 if spec == "T2(F2)" else realize(parse_ring_spec(spec))
    rng = random.Random(ring.order)
    n = ring.order
    tables = [function_table(poly_from(ring, [rng.randrange(n) for _ in range(2 * n)])).values
              for _ in range(40)]
    tables += [tuple(rng.randrange(n) for _ in range(n)) for _ in range(40)]
    set_index_limit(monkeypatch, polyfun.INDEX_LIMIT)
    indexed = polynomial_function_set(ring)
    indexed.lookup(tables[0])
    indexed.lookup(tables[0])
    assert indexed.tables is not None
    set_index_limit(monkeypatch, 0)
    solved = polynomial_function_set(ring)
    answers = [indexed.lookup(table) for table in tables]
    assert answers == [solved.lookup(table) for table in tables] and solved.tables is None
    assert [indexed.contains(table) for table in tables] == \
        [solved.contains(table) for table in tables] == [a[0] == "present" for a in answers]
    assert all(a[0] == "present" for a in answers[:40]) and ("absent", None) in answers[40:]


# --- the lattice's pivots and witness digits, against the tracked oracle -----

_TRACKED = ([ring for _, ring in standard_catalog(32)]
            + [realize(parse_ring_spec(spec)) for spec in ("Z/81", "Z/2[x]/(x^6)")]
            + [_t2f2, m2f2(), skew_dual_f4(), make_zero_mul_ring(4)])


@pytest.mark.parametrize("ring", _TRACKED, ids=lambda ring: ring.label)
def test_rebuilt_witness_digits_match_the_tracked_elimination(ring):
    # the pivots, table rows and witness digits of the library's elimination
    # are the oracle's, which finds valuations by its own loop and reduces by % q
    basis, tracked = polyfun._lattice(ring), tracked_lattice(ring)
    for name in ("points", "digits", "shifts", "inverses", "orders"):
        assert np.array_equal(getattr(basis, name), tracked[name]), name
    width = basis.rows.shape[1]
    assert np.array_equal(basis.rows, tracked["rows"][:, :width])
    assert np.array_equal(basis.coefficients, tracked["rows"][:, width:])


@pytest.mark.parametrize("limit", [polyfun.INDEX_LIMIT, 0], ids=["index", "solve"])
def test_lattice_lookups_re_evaluate_to_their_tables(monkeypatch, limit):
    set_index_limit(monkeypatch, limit)
    ring = core.make_quotient(make_zn(4), [0, 0, 1])  # a new ring, and not a chain ring
    assert function_count(ring) == 1 << 14
    pset = polynomial_function_set(ring)
    assert isinstance(pset.engine, polyfun._Lattice)
    tables = [function_table(poly_from(ring, (k, 3, k, 1))).values for k in range(4)]
    for table in tables:
        status, witness = pset.lookup(table)
        assert status == "present" and function_table(witness).values == table
        assert pset.contains(table)
    assert (pset.tables is None) == (limit == 0)


@pytest.mark.parametrize("limit", [polyfun.INDEX_LIMIT, 0], ids=["index", "solve"])
def test_counting_a_chain_ring_builds_no_column_and_no_triangle_inverse(monkeypatch, limit):
    # the B_k tables and coefficients and the triangle inverse come with
    # the first lookup, which solves on either path, once per set
    set_index_limit(monkeypatch, limit)
    ring = make_zn(16)  # a new ring, so a new set
    assert function_count(ring) == 1 << 16
    pset = polynomial_function_set(ring)
    engine = pset.engine
    assert isinstance(engine, polyfun._Chain)
    assert "_columns" not in vars(engine) and "_solver" not in vars(engine)
    tables = [function_table(poly_from(ring, (k, 3, k, 1))).values for k in range(4)]
    built = []
    for table in tables:
        status, witness = pset.lookup(table)
        assert status == "present" and function_table(witness).values == table
        assert pset.contains(table)
        built.append((vars(engine)["_columns"], vars(engine)["_solver"]))
    assert all(a is b for a, b in zip(built[0], built[-1]))
    assert (pset.tables is None) == (limit == 0)


def test_contains_on_the_solve_path_agrees_with_lookup(monkeypatch):
    # contains solves for the multiples alone; lookup then agrees with it
    set_index_limit(monkeypatch, 0)
    ring = core.make_quotient(make_zn(4), [0, 0, 1])  # a new ring, and not a chain ring
    pset = polynomial_function_set(ring)
    rng = random.Random(16)
    present = [function_table(poly_from(ring, [rng.randrange(16) for _ in range(6)])).values
               for _ in range(20)]
    absent = [(ring.add(t[0], ring.unity), *t[1:]) for t in present]  # F(0) leaves its J-coset
    answers = [pset.contains(t) for t in present + absent]
    assert answers == [True] * 20 + [False] * 20
    assert pset.tables is None
    for table, answer in zip(present + absent, answers):
        status, witness = pset.lookup(table)
        assert (status == "present") is answer is (witness is not None)
        assert witness is None or function_table(witness).values == table


@pytest.mark.parametrize("field", [_z257, make_zn(251)], ids=lambda field: field.label)
def test_round_trips_on_the_largest_prime_fields_equal_the_closed_form(field):
    # Z/257 reads its tables as unsigned shorts and interpolates in float64;
    # Z/251 as bytes in float32
    n = field.order
    rng = random.Random(n)
    tables = [[rng.randrange(n) for _ in range(n)] for _ in range(3)]
    tables += [[n - 1] * n, list(range(n)), [0] * n]
    for table in tables:
        want = closed_form_interpolant(field, (1,), table)
        assert interpolate_field(field, table) == interpolate_field(field, tuple(table)) == want
        assert polynomial_function_set(field).lookup(table) == ("present", want)
    assert function_table(interpolate_field(field, tables[0])).values == tuple(tables[0])


@pytest.mark.parametrize("spec", ["GF(4)", "GF(27)",  # analytic
                                  "GF(4) x Z/3", "Z/9", "Z/12", "Z/8 x Z/2",  # chain, the index
                                  "Z/30", "Z/27"])  # chain, solved: over 2^16 tables
def test_trusted_witnesses_equal_and_hash_as_checked_ones(spec):
    ring = realize(parse_ring_spec(spec))
    pset = polynomial_function_set(ring)
    n = ring.order
    rng = random.Random(n)
    tables = [[0] * n, [ring.unity] * n]
    tables += [[ring.mul(e, x) for x in range(n)] for e in field_idempotents(pset)]
    if not field_idempotents(pset):
        polys = [poly_from(ring, [rng.randrange(n) for _ in range(n)]) for _ in range(20)]
        tables += [list(function_table(f).values) for f in polys]
    for table in tables:
        witness = pset.lookup(table)[1]
        checked = Polynomial(ring, witness.coeffs)
        assert witness == checked and hash(witness) == hash(checked)
        assert {checked: "found"}[witness] == "found"
        assert witness == checked.stripped() and repr(witness) == repr(checked)
        assert all(type(c) is int and 0 <= c < n for c in witness.coeffs)
        assert not witness.coeffs or witness.coeffs[-1] != 0
        assert function_table(witness).values == tuple(table)
    assert pset.lookup([0] * n)[1].coeffs == ()
    assert (pset.tables is not None) == (spec in ("GF(4) x Z/3", "Z/9", "Z/12", "Z/8 x Z/2"))


def test_function_sets_are_the_only_interpolation_cache():
    # the setup lives on each set, and constructions that several checks
    # read live in each ring's store (core.per_ring), so no module gains an
    # lru_cache for them
    cached = {module.__name__: sorted(name for name, value in vars(module).items()
                                      if hasattr(value, "cache_info")
                                      and value.__module__ == module.__name__)
              for module in (core, catalog, polyfun, theorems, cli)}
    assert cached == {
        "finring.core": ["analyze"],
        "finring.catalog": ["realize"],
        "finring.polyfun": ["_function_set", "polynomial_function_set"],
        "finring.theorems": [],
        "finring.cli": ["build_parser"],
    }


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
    assert {pset.contains(t) for t in tables} == ({True} if len(field_idempotents(pset)) == 1 else {True, False})
    assert (pset.tables is not None) == (not field_idempotents(pset) and pset.count <= index_limit)


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


@pytest.mark.parametrize("ring", [make_zn(2), make_zn(9), make_zn(12), make_zn(256)],
                         ids=lambda ring: ring.label)
def test_a_byte_view_is_range_checked_as_table_values_checks(ring):
    # bytes.translate deletes every index below the order; anything left is
    # out of range, and _table_values (the oracle) raises the same error
    n = ring.order
    base = [n - 1 - x for x in range(n)]  # largest value n - 1
    accepted = [base, tuple(base), [*base[1:], n - 1], [np.int64(v) for v in base],
                tuple(np.uint8(v) for v in base), [True, *base[1:]], (*base[:-1], True)]
    rejected = [[256, *base[1:]], (-1, *base[1:]), [2.0, *base[1:]], tuple(base[:-1]),
                [*base, 0], []]
    if n < 256:
        rejected += [[*base[:-1], n], (n, *base[1:])]
    for table in accepted:
        view = polyfun._table_view(ring, table)
        assert type(view) is bytes and view == bytes(polyfun._table_values(ring, table))
    for table in rejected:
        with pytest.raises(ValueError) as want:
            polyfun._table_values(ring, table)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            polyfun._table_view(ring, table)


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


_TRUSTED_RINGS = [ring for _, ring in standard_catalog(16)] + [upper_triangular_f2()]


@settings(max_examples=120, deadline=None)
@given(ring=st.sampled_from(_TRUSTED_RINGS), data=st.data())
def test_arithmetic_results_are_valid_polynomials(ring, data):
    # poly_add, poly_mul, poly_scale and the reduced powers build their
    # results without Polynomial's checks; each must be what the checks accept
    coeff = st.integers(min_value=0, max_value=ring.order - 1)
    f, g = (poly_from(ring, data.draw(st.lists(coeff, max_size=6))) for _ in range(2))
    k = data.draw(st.integers(min_value=1, max_value=6))
    results = [poly_add(f, g), poly_sub(f, g), poly_mul(f, g), poly_scale(data.draw(coeff), f),
               poly_pow(f, k), theorems._reduced_pow(f, k)]
    for result in results:
        assert all(type(c) is int and 0 <= c < ring.order for c in result.coeffs), result
        assert result == Polynomial(ring, result.coeffs)
    table = function_table(f)
    assert all(type(v) is int for v in table.values)
    assert table == FunctionTable(ring, ring, table.values)


def test_poly_pow_matches_repeated_mul(z6):
    f = poly_from(z6, (1, 2, 3))
    acc = f
    for k in range(2, 6):
        acc = poly_mul(acc, f)
        assert poly_pow(f, k) == acc


def test_poly_pow_at_zero_and_negative_exponents(z6):
    f = poly_from(z6, (1, 2, 3))
    assert poly_pow(f, 0) == poly_from(z6, (z6.unity,))
    with pytest.raises(UnsupportedStructureError, match="unity"):
        poly_pow(poly_x(make_zero_mul_ring(2)), 0)
    with pytest.raises(ValueError):
        poly_pow(f, -1)


def test_function_set_addition_closure_sampled(z9):
    import random

    tables = sorted(as_tuple_set(polynomial_function_set(z9)))
    as_set = set(tables)
    rng = random.Random(7)
    for _ in range(2000):
        s = rng.choice(tables)
        t = rng.choice(tables)
        assert tuple(z9.add(a, b) for a, b in zip(s, t)) in as_set


# --- products of fields: the chain engine (_Chain) against independent oracles

PRODUCTS_OF_FIELDS = ("Z/6", "Z/10", "Z/14", "Z/15", "Z/2 x Z/2", "Z/2 x Z/3")


def _nonconstant_indicators(ring) -> list[tuple[int, ...]]:
    """Every 0/1-valued table other than the two constants."""
    n, one = ring.order, ring.unity
    return [tuple(one if bits >> x & 1 else 0 for x in range(n))
            for bits in range(1, (1 << n) - 1)]


def test_catalog_products_of_fields_are_answered_by_chain(catalog16):
    crt = {name for name, ring in catalog16
           if len(field_idempotents(polynomial_function_set(ring))) > 1}
    assert crt == set(PRODUCTS_OF_FIELDS)


@pytest.mark.parametrize("spec", [s for s in PRODUCTS_OF_FIELDS if s != "Z/14"])
def test_chain_engine_matches_closure_on_products_of_fields(spec):
    ring = realize(parse_ring_spec(spec))
    pset = polynomial_function_set(ring)
    closure = coset_growth(ring)
    assert pset.complete
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


def test_chain_engine_on_z14_materialises_nothing():
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
    assert len(field_idempotents(pset)) == len(local_decomposition(ring)) > 1
    n = ring.order
    width = max(f.ring.order for f in local_decomposition(ring))
    rng = random.Random(n)
    for _ in range(300):
        # a random polynomial of degree < width reaches every induced table
        table = function_table(Polynomial(ring, tuple(rng.randrange(n) for _ in range(width))))
        witness = crt_interpolate(ring, table.values)
        assert pset.lookup(table) == ("present", witness)
        assert function_table(witness) == table
    # a set of at most INDEX_LIMIT tables answered the later lookups from its index
    assert (pset.tables is not None) == (pset.count <= polyfun.INDEX_LIMIT)


def _products_of_several_fields():
    """Every product of two or more fields in standard_catalog(32), and two
    more: the reduced commutative unital rings that are not fields."""
    rings = [ring for _, ring in standard_catalog(32)]
    rings += [realize(parse_ring_spec(spec)) for spec in ("Z/2 x Z/3 x Z/5 x Z/7", "GF(4) x Z/3")]
    return [ring for ring in rings if (inv := analyze(ring)).is_commutative and inv.is_unital
            and inv.nilpotents.size == 1 and not inv.is_field]


@pytest.mark.parametrize("ring", _products_of_several_fields(), ids=lambda ring: ring.label)
def test_products_of_fields_answer_through_the_chain_engine(ring):
    # each factor is a chain ring of depth N = 1, with q^q functions
    pset = polynomial_function_set(ring)
    assert type(pset.engine) is polyfun._Chain
    assert pset.count == math.prod(f.ring.order ** f.ring.order for f in local_decomposition(ring))


def test_a_product_of_fields_is_indexed_on_its_second_lookup():
    # a new Z/6, so a new set: the first lookup solves, the second builds
    # the index, and every hit is the CRT oracle's witness
    ring = make_zn(6)
    pset = polynomial_function_set(ring)
    tables = sorted(as_tuple_set(pset))
    assert pset.lookup(tables[-1]) == ("present", crt_interpolate(ring, tables[-1]))
    assert pset.tables is None
    for table in tables:
        assert pset.lookup(table) == ("present", crt_interpolate(ring, table))
    assert pset.tables is not None and len(pset.tables) == pset.count == 108


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


# --- the additive coordinate map against its defining properties ------------

def assert_coordinates(ring) -> None:
    """The ring's coordinate map, built afresh, checked against the addition
    table alone: digits add mod the moduli, the key and the decode table
    invert each other, each modulus is a prime power, their product is |R|,
    each basis element has a unit vector of digits, and each prime's columns
    hold its powers, largest first."""
    coords, n = polyfun._coordinates(ring), ring.order
    moduli = coords.moduli.tolist()
    assert math.prod(moduli) == n
    assert all(len(core._factorize(m)) == 1 for m in moduli)
    digits = coords.digits
    assert ((0 <= digits) & (digits < coords.moduli)).all()
    sums = (digits[:, None] + digits[None, :]) % coords.moduli
    assert np.array_equal(digits[ring.add_table], sums)
    keys = digits @ coords.weights
    assert np.array_equal(coords.decode[keys], np.arange(n))
    assert np.array_equal(np.sort(keys), np.arange(n))
    assert np.array_equal(digits[coords.basis], np.eye(len(moduli), dtype=digits.dtype))
    assert [p for p, _, _ in coords.primes] == [p for p, _ in core._factorize(n)]
    for p, s, cols in coords.primes:
        powers = moduli[cols]
        assert powers[0] == p ** s and powers == sorted(powers, reverse=True)
        assert all(len(core._factorize(m)) == 1 and m % p == 0 for m in powers)


@pytest.mark.parametrize("spec", [name for name, _ in standard_catalog(32)])
def test_coordinates_on_the_catalog(spec):
    assert_coordinates(realize(parse_ring_spec(spec)))


@pytest.mark.parametrize("make", [upper_triangular_f2, m2f2, row_matrices_f2, skew_dual_f4,
                                  lambda: make_zero_mul_ring(4), lambda: make_zn(264)],
                         ids=["T2(F2)", "M2(F2)", "row-matrices", "skew-dual", "zero-mul", "Z/264"])
def test_coordinates_on_noncommutative_nonunital_and_large_rings(make):
    assert_coordinates(make())


@settings(max_examples=25, deadline=None)
@given(ring=small_rings())
def test_coordinates_on_relabelled_rings(ring):
    assert_coordinates(ring)


@pytest.mark.parametrize("spec", ["Z/8 x Z/2", "Z/9 x Z/3", "Z/8 x Z/9 x Z/3"])
def test_coordinates_lift_what_the_labels_put_first(spec):
    # with these labels an element of largest order modulo the span, whose
    # p-multiple is not 0, comes first, so only the lifted basis is direct
    ring = realize(parse_ring_spec(spec))
    for labels in (range(ring.order - 1, 0, -1),
                   random.Random(0).sample(range(1, ring.order), ring.order - 1)):
        assert_coordinates(relabelled(ring, list(labels)))


def test_the_coordinate_map_is_built_once_per_ring(monkeypatch):
    # and the elimination runs once per set: the count, the index and
    # ``contains`` all read its pivot rows
    built, eliminated = [], []

    def counted(ring):
        built.append(ring.label)
        return coordinates(ring)

    def counted_lattice(ring):
        eliminated.append(ring.label)
        return lattice_of(ring)

    coordinates, lattice_of = polyfun._coordinates, polyfun._lattice
    monkeypatch.setattr(polyfun, "_coordinates", counted)
    monkeypatch.setattr(polyfun, "_lattice", counted_lattice)
    lattice, fields = core.make_quotient(make_zn(4), [0, 0, 1]), make_zn(6)  # new rings
    name = lattice.label  # Z/4[x]/(x^2), which is not a chain ring
    table = function_table(poly_from(lattice, (1, 2, 3))).values
    assert function_count(lattice) == 4 ** 7
    assert built == [name]
    pset = polynomial_function_set(lattice)
    assert pset.lookup(table)[0] == "present" and pset.tables is None  # a solve
    assert pset.lookup(table)[0] == "present" and pset.tables is not None  # the index
    assert pset.contains(table) and eliminated == [name]
    set_index_limit(monkeypatch, 0)  # a new set, which solves
    pset = polynomial_function_set(lattice)
    assert pset.lookup(table)[0] == "present" and pset.tables is None
    assert pset.contains(table) and eliminated == [name, name]
    assert function_count(fields) == 2 ** 2 * 3 ** 3 and built == [name]
    for values in (tuple(range(6)), (1,) * 6):  # the same set interpolates both
        assert polynomial_function_set(fields).lookup(values)[0] == "present"
    assert built == [name, "Z/6"] and eliminated == [name, name]
    chain = make_zn(9)  # counted from its tables alone; its first solve maps it
    assert function_count(chain) == 3 ** 9 and built == [name, "Z/6"]
    table = function_table(poly_from(chain, (1, 2, 3))).values
    for values in (table, table):
        assert polynomial_function_set(chain).lookup(values)[0] == "present"
    assert built == [name, "Z/6", "Z/9"] and eliminated == [name, name]


# --- exact counts: the per-prime lattice against independent oracles ---------

def _spec_ring(spec):
    if spec == "T2(F2)":
        return upper_triangular_f2()
    return row_matrices_f2() if spec == "row-matrices-F2" else realize(parse_ring_spec(spec))


def _non_reduced_catalog(max_order):
    # Rings with a nonzero nilpotent, or not commutative and unital: these
    # are the ones the chain engine or the lattice counts (products of
    # fields have a closed form).
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
    # Products of fields have a closed form, not tested here.  Five of these
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


# --- membership and witnesses from chain and lattice sets against coset growth

def _syndrome_probes(closure, rng) -> list[tuple[int, ...]]:
    """Present rows, random tables and present rows with one value moved."""
    n, rows = closure.ring.order, closure.tables
    picked = lambda: rows[rng.sample(range(len(rows)), min(200, len(rows)))].tolist()
    probes = list(map(tuple, picked()))
    probes += [tuple(rng.randrange(n) for _ in range(n)) for _ in range(200)]
    for row in picked():
        moved = list(row)
        moved[rng.randrange(n)] = rng.randrange(n)
        probes.append(tuple(moved))
    return probes


def _indicator_rows(closure) -> list[int]:
    """The supports of coset growth's 0/1-valued rows, as sorted bit masks."""
    tables, one = closure.tables, closure.ring.unity
    rows = tables[((tables == 0) | (tables == one)).all(axis=1)] == one
    return sorted((rows @ (1 << np.arange(closure.ring.order, dtype=np.int64))).tolist())


def _assert_syndrome_matches_closure(ring, seed):
    pset, closure = polynomial_function_set(ring), coset_growth(ring)
    assert not field_idempotents(pset)
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
                    "T2(F2)", "row-matrices-F2", "zero-ring-4"]


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
    # The index enumerated from the engine's summands, and with an index
    # limit of 0 the solve path, which enumerates nothing.
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


def test_a_solved_lookup_keeps_no_row_per_value_and_point():
    # Both are chain rings: the first lookup keeps mu tables of B_k and a
    # mu x mu triangle inverse.  An array of the row of every value at every
    # point was n x n x width: 12.6 MB on Z/2[x]/(x^6) (n = 64, width 384),
    # and 1 GB at order 256.  A width x width column transform, tracked in a
    # second elimination, took 139 MB on Z/2[x]/(x^8).
    import tracemalloc

    for degree, limit_mb in ((6, 10), (8, 15)):
        ring = core.make_quotient(make_zn(2), [0] * degree + [1])  # a new ring: nothing cached
        table = tuple(range(ring.order))
        tracemalloc.start()
        try:
            pset = polynomial_function_set(ring)
            status, witness = pset.lookup(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pset.count > polyfun.INDEX_LIMIT  # the lookup solved
        assert status == "present" and function_table(witness).values == table
        assert peak < limit_mb << 20, (degree, peak)


def test_the_solve_path_decides_m2f2():
    # M2(F2) is simple and noncommutative, and induces 2^24 functions, too
    # many to enumerate: tables of random polynomials are solved, with
    # witnesses that re-evaluate to them, and P1.2's bijection, which moves
    # F(c) - F(0) out of the left ideal Rc, is absent.
    ring = m2f2()
    pset = polynomial_function_set(ring)
    assert pset.count == 1 << 24
    rng = random.Random(16)
    for _ in range(20):
        f = poly_from(ring, [rng.randrange(16) for _ in range(rng.randrange(1, 12))])
        table = tuple(schoolbook_eval(f, x) for x in range(16))
        status, witness = pset.lookup(table)
        assert status == "present" and pset.contains(list(table))
        assert tuple(schoolbook_eval(witness, x) for x in range(16)) == table
    swap = theorems.check_bijections_iff_field(ring).witness["bijection"]
    assert pset.lookup(swap) == ("absent", None) and not pset.contains(swap)
    assert pset.tables is None


# --- the chain engine against the lattice ------------------------------------

# Every Z/p^n up to 256 but Z/16 and Z/64 (the catalog holds those), powers of
# x over Z/p, Galois rings, and ramified chain rings
CHAIN_SPECS = tuple(f"Z/{m}" for m in (4, 8, 32, 128, 9, 27, 81, 243, 25, 125, 49, 121, 169,
                                        256)) + (
    "Z/2[x]/(x^2)", "Z/2[x]/(x^3)", "Z/2[x]/(x^4)", "Z/2[x]/(x^6)", "Z/2[x]/(x^7)",
    "Z/2[x]/(x^8)", "Z/3[x]/(x^2)", "Z/3[x]/(x^5)", "Z/5[x]/(x^3)",
    "Z/4[x]/(x^2+x+1)", "Z/4[x]/(x^3+x+1)", "Z/4[x]/(x^4+x+1)", "Z/8[x]/(x^2+x+1)",
    "Z/9[x]/(x^2+1)", "Z/16[x]/(x^2+x+1)",
    "Z/4[x]/(x^2+2)", "Z/8[x]/(x^2+2)", "Z/9[x]/(x^2+3)", "Z/4[x]/(x^3+2)")


def _comm_unital_32():
    return [name for name, ring in standard_catalog(32)
            if analyze(ring).is_commutative and ring.unity is not None]


def _assert_agrees_with_the_lattice(ring, probes: int, seed) -> None:
    """Count, contains and every witness's table against a lattice set, on
    tables of random polynomials and on the same tables with one value moved."""
    pset = polynomial_function_set(ring)
    lattice = polyfun.PolyFunctionSet(ring, polyfun._Lattice(ring))
    assert pset.count == lattice.count
    n, rng = ring.order, random.Random(seed)
    tables = []
    for _ in range(probes):
        coeffs = [rng.randrange(n) for _ in range(rng.randrange(1, 40))]
        table = function_table(poly_from(ring, coeffs))
        moved = list(table.values)
        moved[rng.randrange(n)] = rng.randrange(n)
        tables += [table.values, tuple(moved)]
    for table in tables:
        status, witness = pset.lookup(table)
        assert pset.contains(table) is lattice.contains(table) is (status == "present")
        if witness is not None:
            assert function_table(witness).values == table
            assert function_table(lattice.lookup(table)[1]).values == table


@pytest.mark.parametrize("limit", [polyfun.INDEX_LIMIT, 0], ids=["index", "solve"])
@pytest.mark.parametrize("spec", list(dict.fromkeys(_comm_unital_32() + list(CHAIN_SPECS))))
def test_the_chain_engine_agrees_with_the_lattice(monkeypatch, spec, limit):
    # every commutative unital ring of the catalog that is not a product of
    # fields has chain factors only
    set_index_limit(monkeypatch, limit)
    ring = realize(parse_ring_spec(spec))
    engine = polynomial_function_set(ring).engine
    if analyze(ring).nilpotents.size > 1:
        assert isinstance(engine, polyfun._Chain), spec
    _assert_agrees_with_the_lattice(ring, 15 if ring.order <= 64 else 4, spec)


@pytest.mark.parametrize("spec, chain", [("Z/4[x]/(x^2)", False), ("Z/4[x]/(x^2) x Z/3", False),
                                         ("Z/2[x]/(x^2) x Z/2[x]/(x^2)", True),
                                         ("Z/9 x Z/4 x Z/2", True), ("GF(4) x Z/8", True),
                                         ("Z/3[x]/(x^2) x Z/4[x]/(x^2+2)", True)])
@pytest.mark.parametrize("limit", [polyfun.INDEX_LIMIT, 0], ids=["index", "solve"])
def test_products_take_the_chain_engine_unless_a_factor_is_no_chain_ring(monkeypatch, spec,
                                                                        chain, limit):
    set_index_limit(monkeypatch, limit)
    ring = realize(parse_ring_spec(spec))
    engine = polynomial_function_set(ring).engine
    assert isinstance(engine, polyfun._Chain if chain else polyfun._Lattice)
    _assert_agrees_with_the_lattice(ring, 10, spec)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(ring=small_rings(), seed=st.integers(0, 2 ** 16))
def test_the_chain_engine_agrees_with_the_lattice_on_random_rings(ring, seed):
    # relabelled local rings Z/m[x]/(f) and their products with Z/2, Z/3 or
    # Z/4, chain rings or not
    assume(analyze(ring).nilpotents.size > 1)
    for limit in (polyfun.INDEX_LIMIT, 0):  # the index, then a new set that solves
        with pytest.MonkeyPatch.context() as monkeypatch:
            set_index_limit(monkeypatch, limit)
            _assert_agrees_with_the_lattice(ring, 5, seed)


@pytest.mark.parametrize("change", [lambda w: w[:-1], lambda w: [*w[:2], w[2] + 1, *w[3:]],
                                    lambda w: [*w[:2], w[2] - 1, *w[3:]]],
                         ids=["mu-1", "raised", "lowered"])
def test_weights_that_are_no_p_ordering_raise(monkeypatch, change):
    # B_(mu-1) does not vanish, or a valuation misses its weight
    weights = polyfun._p_ordering_weights
    monkeypatch.setattr(polyfun, "_p_ordering_weights", lambda q, depth: change(weights(q, depth)))
    for ring in (make_zn(27), core.make_quotient(make_zn(2), [0] * 5 + [1])):  # new rings
        with pytest.raises(core.InternalInvariantError, match="not a P-ordering"):
            function_count(ring)


@pytest.mark.parametrize("q, depth", [(2, 1), (2, 8), (3, 5), (13, 2), (16, 2), (4, 4)])
def test_p_ordering_weights_are_legendre_sums(q, depth):
    # w_q(k) = sum_j floor(k / q^j), for k up to the first that reaches depth
    legendre = lambda k: sum(k // q ** j for j in range(1, 12))
    weights = polyfun._p_ordering_weights(q, depth)
    assert weights == [legendre(k) for k in range(len(weights))]
    assert all(w < depth for w in weights) and legendre(len(weights)) >= depth


# --- user-input errors ------------------------------------------------------

_Z4 = make_zn(4)


@pytest.mark.parametrize("call, error, message", [
    (lambda: poly_pow(poly_from(make_zero_mul_ring(4), (1,)), 0), UnsupportedStructureError,
     r"f\^0 needs unity"),
    (lambda: FunctionTable(_Z4, _Z4, (0, 1, 2)), ValueError,
     "table must assign a value to every domain element"),
    (lambda: poly_add(poly_from(_Z4, (1,)), poly_from(make_zn(2), (1,))), ValueError,
     "polynomials live over different rings"),
    (lambda: poly_eval(poly_from(_Z4, (1, 1)), 4), ValueError, "element out of the ring's range"),
], ids=["pow-0-without-unity", "short-table", "add-across-rings", "eval-past-the-ring"])
def test_user_input_errors_name_the_input(call, error, message):
    with pytest.raises(error, match=f"^{message}$") as exc:
        call()
    assert type(exc.value) is error
