from __future__ import annotations

import dataclasses
import math
import random
from functools import reduce
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finring import (
    AxiomViolation,
    UnsupportedStructureError,
    analyze,
    invariant_signature,
    local_decomposition,
    make_product,
    make_quotient,
    make_table_ring,
    make_zero_mul_ring,
    make_zn,
    parse_ring_spec,
    realize,
    residue_field,
    rings_isomorphic,
    standard_catalog,
    validate_ring,
)
from finring.core import (
    _powers,
    binary_power,
    element_additive_order,
    element_nilpotency_index,
    multiplicative_inverse,
    multiplicative_order,
    per_ring,
    power_map,
)

from finring import core
from finring.catalog import Product, Quotient, TableRef, Zn
from finring.polyfun import poly_from, poly_mul, power_stabilization
from conftest import (
    LARGER_SPECS,
    axiom_scan,
    embed,
    image_cases,
    loop_factor,
    loop_product,
    loop_quotient,
    loop_residue_field,
    loop_tables,
    loop_zn,
    m2f2,
    rho_stabilization,
    row_matrices_f2,
    skew_dual_f4,
    upper_triangular_f2,
    walk_multiplicative_order,
    walk_nilpotency_index,
)


def test_make_zn_2_is_field(z2):
    inv = analyze(z2)
    assert inv.is_field
    assert inv.characteristic == 2
    assert z2.unity == 1


def test_make_zn_4_invariants(z4):
    inv = analyze(z4)
    assert inv.units.indices() == (1, 3)
    assert inv.nilpotents.indices() == (0, 2)
    assert inv.nilpotency_index == 2
    assert inv.unit_group_exponent == 2
    assert inv.is_local
    assert inv.residue_field_order == 2
    assert inv.jacobson_radical.indices() == (0, 2)
    assert not inv.is_field


def test_make_zn_6_not_local(z6):
    inv = analyze(z6)
    assert inv.idempotents.indices() == (0, 1, 3, 4)
    assert inv.is_local is False


def test_make_zn_9_invariants(z9):
    inv = analyze(z9)
    assert inv.units.size == 6
    assert inv.unit_group_exponent == 6
    assert inv.nilpotency_index == 2
    assert inv.residue_field_order == 3


def test_make_zn_rejects_bad_modulus():
    with pytest.raises(ValueError):
        make_zn(1)
    with pytest.raises(ValueError):
        make_zn(0)


def test_quotient_gf4_is_field(gf4):
    inv = analyze(gf4)
    assert gf4.order == 4
    assert inv.is_field
    assert inv.nilpotency_index == 1
    assert inv.unit_group_exponent == 3


def test_quotient_dual_numbers():
    r = make_quotient(make_zn(2), (0, 0, 1))  # Z/2[x]/(x^2)
    inv = analyze(r)
    assert r.order == 4
    assert inv.is_local
    assert inv.nilpotency_index == 2
    assert inv.residue_field_order == 2


def test_quotient_cube():
    r = make_quotient(make_zn(2), (0, 0, 0, 1))  # Z/2[x]/(x^3)
    inv = analyze(r)
    assert r.order == 8
    assert inv.is_local
    assert inv.nilpotency_index == 3


def test_quotient_requires_monic():
    with pytest.raises(ValueError, match="monic"):
        make_quotient(make_zn(4), (1, 0, 2))
    with pytest.raises(ValueError, match="degree"):
        make_quotient(make_zn(4), (3,))


@pytest.mark.parametrize("base", [upper_triangular_f2(), make_zero_mul_ring(4)],
                         ids=["noncommutative", "non-unital"])
def test_quotient_requires_a_commutative_unital_base(base):
    with pytest.raises(UnsupportedStructureError, match="commutative and unital"):
        make_quotient(base, (0, 1))


def test_product_z2_z3_matches_z6(z6):
    r = make_product(make_zn(2), make_zn(3))
    assert r.order == 6
    assert analyze(r).characteristic == 6
    assert len(local_decomposition(r)) == 2
    assert invariant_signature(r) == invariant_signature(z6)
    assert rings_isomorphic(r, z6) is True


def test_product_z2_z2_idempotents():
    r = make_product(make_zn(2), make_zn(2))
    inv = analyze(r)
    assert inv.idempotents.size == 4
    assert inv.is_local is False
    assert r.is_unital  # product of unital rings is unital


def test_table_ring_round_trip(z4):
    r = make_table_ring(z4.add_table, z4.mul_table)
    assert np.array_equal(r.add_table, z4.add_table)
    assert np.array_equal(r.mul_table, z4.mul_table)
    assert r.unity == 1


def test_table_ring_axiom_violation_with_witness(z2):
    # constant-one multiplication distributes on neither side
    bad_mul = ((1, 1), (1, 1))
    with pytest.raises(AxiomViolation) as exc:
        make_table_ring(z2.add_table, bad_mul)
    axiom, witness = exc.value.axiom, exc.value.witness
    assert "distributivity" in axiom
    a, b, c = witness
    if axiom.startswith("left"):
        assert bad_mul[a][z2.add(b, c)] != z2.add(bad_mul[a][b], bad_mul[a][c])
    else:
        assert bad_mul[z2.add(b, c)][a] != z2.add(bad_mul[b][a], bad_mul[c][a])


def test_closure_witness_is_plain_ints():
    with pytest.raises(AxiomViolation, match=r"'multiplication-closure' fails at \(1, 1\)$") as exc:
        make_table_ring([[0, 1], [1, 0]], [[0, 0], [0, 5]])
    assert all(type(v) is int for v in exc.value.witness)


def test_element_without_negative_is_the_witness():
    add = [[0, 1, 2], [1, 2, 2], [2, 2, 0]]  # 1 + b is never 0
    with pytest.raises(AxiomViolation, match=r"'additive-inverse' fails at \(1,\)$"):
        make_table_ring(add, [[0] * 3] * 3)


# Each axiom's failure at a witness, re-checked from the plain tables.
_VIOLATES = {
    "additive-identity": lambda r, z: any(r.add_table[0][x] != x or r.add_table[x][0] != x
                                          for x in range(r.order)),
    "additive-inverse": lambda r, a: r.add_table[a][r.neg_table[a]] != 0,
    "additive-associativity": lambda r, a, b, c: r.add(r.add(a, b), c) != r.add(a, r.add(b, c)),
    "associativity": lambda r, a, b, c: r.mul(r.mul(a, b), c) != r.mul(a, r.mul(b, c)),
    "left-distributivity": lambda r, a, b, c: r.mul(a, r.add(b, c)) != r.add(r.mul(a, b), r.mul(a, c)),
    "right-distributivity": lambda r, a, b, c: r.mul(r.add(b, c), a) != r.add(r.mul(b, a), r.mul(c, a)),
    "unity": lambda r, u: any(r.mul_table[u][x] != x or r.mul_table[x][u] != x
                              for x in range(r.order)),
}


def _corrupted(ring, rng):
    """ring with 1-3 edits: each sets add[a][b] = add[b][a] or mul[a][b] to a new value."""
    add, mul = ring.add_table.copy(), ring.mul_table.copy()
    for _ in range(rng.randint(1, 3)):
        a, b = rng.randrange(ring.order), rng.randrange(ring.order)
        table = rng.choice((add, mul))
        table[a, b] = rng.choice([v for v in range(ring.order) if v != table[a, b]])
        if table is add:
            add[b, a] = add[a, b]
    neg = (add == 0).argmax(axis=1)  # the first 0 of each row, or 0, as make_table_ring does
    return dataclasses.replace(ring, add_table=add, mul_table=mul, neg_table=neg)


def _bilinear_shift(ring, rng):
    """ring, whose + is xor on bit vectors, with mul[a][b] ^ B(a, b) for a
    random sparse F2-bilinear B: both distributive laws survive, while
    associativity and unity often fail, at few triples."""
    bits = (ring.order - 1).bit_length()
    B = [[rng.randrange(ring.order) if rng.random() < 1 / bits else 0 for _ in range(bits)]
         for _ in range(bits)]

    def shift(a, b):
        acc = 0
        for i, j in product(range(bits), repeat=2):
            if a >> i & b >> j & 1:
                acc ^= B[i][j]
        return acc

    shifts = np.array([[shift(a, b) for b in ring.elements()] for a in ring.elements()])
    return dataclasses.replace(ring, mul_table=ring.mul_table ^ shifts)


def _violation(check, ring):
    try:
        check(ring)
    except AxiomViolation as exc:
        return exc
    return None


_ORACLE_RINGS = {ring.label: ring for ring in (
    *(ring for _, ring in standard_catalog(16)), upper_triangular_f2(), m2f2(), skew_dual_f4(),
    *(make_zero_mul_ring(n) for n in range(2, 9)))}


@pytest.mark.parametrize("label", sorted(_ORACLE_RINGS))
def test_validate_ring_matches_axiom_scan_on_corrupted_tables(label):
    ring = _ORACLE_RINGS[label]
    rng = random.Random(label)
    tables = [ring] + [_corrupted(ring, rng) for _ in range(100)]
    if all(ring.add(a, b) == a ^ b for a in ring.elements() for b in ring.elements()):
        tables += [_bilinear_shift(ring, rng) for _ in range(20)]
    rejected = 0
    for table_ring in tables:
        found, expected = _violation(validate_ring, table_ring), _violation(axiom_scan, table_ring)
        assert (found is None) == (expected is None), (found, expected)
        if found is not None:
            rejected += 1
            assert all(type(v) is int for v in found.witness)
            assert _VIOLATES[found.axiom](table_ring, *found.witness), (found.axiom, found.witness)
    assert rejected >= 50


def test_table_ring_identity_must_sit_at_zero():
    add = ((1, 0), (0, 1))  # identity is element 1
    mul = ((0, 0), (0, 0))
    with pytest.raises(ValueError, match="element 0"):
        make_table_ring(add, mul)


@pytest.mark.parametrize("add, mul", [([[0]], [[0]]), ([], [])], ids=["order-1", "empty"])
def test_table_ring_refuses_fewer_than_two_elements(add, mul):
    # The order-1 ring was once accepted, and then analyze divided by its
    # number of non-units.
    with pytest.raises(ValueError, match="at least 2 elements"):
        make_table_ring(add, mul)


@pytest.mark.parametrize("add, mul", [
    ([[0, 1], [1]], [[0, 0], [0, 1]]),
    ([[0, 1], [1, 0]], [[0, 0], [0, 1], [0, 0]]),
    ([[0, 1, 2], [1, 2, 0]], [[0, 0, 0]] * 2),
], ids=["ragged", "unequal", "non-square"])
def test_table_ring_refuses_tables_that_are_not_square(add, mul):
    with pytest.raises(ValueError, match="^tables must be square matrices of equal size$"):
        make_table_ring(add, mul)


def _ring(ring) -> tuple:
    """The ring's tables as nested tuples, its unity and its label, as ``loop_tables`` gives them."""
    rows = lambda table: tuple(map(tuple, table.tolist()))
    return rows(ring.add_table), rows(ring.mul_table), tuple(ring.neg_table.tolist()), ring.unity, \
        ring.label


def _loop_spec(ast) -> tuple:
    """The loop oracle's tables for a spec; bases and left factors are the library's."""
    if isinstance(ast, Zn):
        return loop_zn(ast.n)
    if isinstance(ast, TableRef):
        return loop_zn(int(ast.name.rsplit("-", 1)[1]), zero_mul=True)
    if isinstance(ast, Quotient):
        base = realize(ast.base)
        coeffs = [c % base.order for c in ast.modulus]
        while coeffs[-1] == 0:
            coeffs.pop()
        return loop_quotient(base, coeffs)
    return loop_product(realize(Product(ast.parts[:-1]) if len(ast.parts) > 2 else ast.parts[0]),
                        realize(ast.parts[-1]))


@pytest.mark.parametrize("spec", [spec for spec, _ in standard_catalog(32)] + list(LARGER_SPECS))
def test_constructors_match_the_loop_oracle(spec):
    ast = parse_ring_spec(spec)
    assert _ring(realize(ast)) == _loop_spec(ast)


def _with_factors_and_residue_fields(ring) -> list:
    """The ring, its local factors and the residue field of each factor."""
    out = [ring]
    inv = analyze(ring)
    if inv.is_unital and inv.is_commutative:
        for factor in local_decomposition(ring):
            out += [factor.ring, residue_field(factor.ring)[0]]
    return out


@pytest.mark.parametrize("spec", [spec for spec, _ in standard_catalog(32)] + list(LARGER_SPECS))
def test_rings_carry_their_tables_as_read_only_arrays(spec):
    for ring in _with_factors_and_residue_fields(realize(parse_ring_spec(spec))):
        _assert_read_only_tables(ring)


def _assert_read_only_tables(ring):
    n = ring.order
    for table, shape in ((ring.add_table, (n, n)), (ring.mul_table, (n, n)), (ring.neg_table, (n,))):
        assert type(table) is np.ndarray and table.dtype == np.intp and table.shape == shape
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * len(shape)] = 0
    assert all(type(v) is int for v in (ring.add(1, 1), ring.mul(1, 1), ring.neg(1), ring.sub(0, 1)))


@pytest.mark.parametrize("left, right", [(upper_triangular_f2, lambda: make_zn(2)),
                                         (lambda: make_zn(3), m2f2)], ids=["T2(F2) x Z/2", "Z/3 x M2(F2)"])
def test_noncommutative_products_match_the_loop_oracle(left, right):
    r1, r2 = left(), right()
    ring = make_product(r1, r2)
    assert not analyze(ring).is_commutative
    assert _ring(ring) == loop_product(r1, r2)


def test_table_ring_keeps_its_tables_and_finds_unity_and_negatives():
    for ring in (upper_triangular_f2(), m2f2(), skew_dual_f4(), make_zero_mul_ring(6)):
        _assert_read_only_tables(ring)
        assert _ring(make_table_ring(ring.add_table, ring.mul_table, ring.label)) == \
            loop_tables(ring.add_table.tolist(), ring.mul_table.tolist(), ring.label)


@pytest.mark.parametrize("spec", ["Z/6", "Z/12", "Z/30", "Z/2 x Z/4", "Z/4 x Z/3", "Z/8 x Z/9",
                                  "Z/5 x Z/2[x]/(x^2)", "Z/2 x Z/3 x Z/2[x]/(x^2)", "Z/27",
                                  "Z/4[x]/(x^2+2)", "Z/2[x]/(x^6)", "Z/9[x]/(x^2+1)"])
def test_factor_rings_match_the_loop_oracle(spec):
    ring = realize(parse_ring_spec(spec))
    factors = local_decomposition(ring)
    for factor in factors:
        if len(factors) > 1:  # a local ring is its own factor, not a copy
            tables, projection = loop_factor(ring, factor.idempotent)
            assert (_ring(factor.ring), factor.projection) == (tables, projection)
        if not analyze(factor.ring).is_field:
            field, proj, reps = residue_field(factor.ring)
            assert (_ring(field), proj, reps) == loop_residue_field(factor.ring)


_IMAGE_CASES = [ring for _, ring in image_cases()]


@pytest.mark.parametrize("ring", _IMAGE_CASES, ids=lambda ring: ring.label)
def test_images_match_rings_built_from_their_tables(ring):
    # the residue field and the local factors are images (core._image), made
    # without _check_axioms: _build on the same tables must give the same ring
    if analyze(ring).is_local:
        images = [residue_field(ring)[0]]
    else:
        images = [factor.ring for factor in local_decomposition(ring)]
    for image in images:
        validate_ring(image)
        built = core._build(image.add_table.copy(), image.mul_table.copy(), image.label)
        assert _ring(image) == _ring(built), image.label


@pytest.mark.parametrize("ring", _IMAGE_CASES, ids=lambda ring: ring.label)
def test_images_match_the_loop_oracles(ring):
    # each residue field and local factor has the tables the loop oracles build
    if analyze(ring).is_field:
        assert residue_field(ring)[0] is ring  # its own residue field: no image
    elif analyze(ring).is_local:
        field, proj, reps = residue_field(ring)
        assert (_ring(field), proj, reps) == loop_residue_field(ring)
    else:
        for factor in local_decomposition(ring):
            tables, projection = loop_factor(ring, factor.idempotent)
            assert (_ring(factor.ring), factor.projection) == (tables, projection)


def _quotient_map(ring, kernel) -> tuple[np.ndarray, np.ndarray]:
    """x -> its coset of the additive subgroup ``kernel``, each coset named
    by its least element, as _image's (proj, reps)."""
    rep_of = ring.add_table[:, list(kernel)].min(axis=1)
    reps = np.flatnonzero(np.bincount(rep_of, minlength=ring.order))
    return np.searchsorted(reps, rep_of), reps


@pytest.mark.parametrize("make, kernel, what", [
    (upper_triangular_f2, (0, 4), "multiplication"),  # K R in K, R K not
    (upper_triangular_f2, (0, 1), "multiplication"),  # R K in K, K R not
    (lambda: realize(parse_ring_spec("GF(4)")), (0, 1), "multiplication"),  # no ideal
    (lambda: make_zn(9), (0, 3, 6), None),  # the ideal 3Z/9: a homomorphism
], ids=["right-ideal", "left-ideal", "GF(4)", "Z/9"])
def test_a_projection_that_is_no_homomorphism_raises(make, kernel, what):
    ring = make()
    proj, reps = _quotient_map(ring, kernel)
    if what is None:
        image = core._image(ring, proj, reps, "quotient")
        assert image.order == ring.order // len(kernel)
        validate_ring(image)
    else:
        with pytest.raises(core.InternalInvariantError, match=f"does not respect {what}"):
            core._image(ring, proj, reps, "quotient")


@pytest.mark.parametrize("spec", ["Z/9", "Z/2[x]/(x^3)", "Z/169", "Z/2[x]/(x^8)"])
def test_a_corrupted_projection_raises(spec):
    # one element moved to another coset breaks the sums through it
    ring = realize(parse_ring_spec(spec))
    _, proj, reps = residue_field(ring)
    proj, reps = np.array(proj), np.array(reps)
    x = next(x for x in range(ring.order - 1, 0, -1) if x not in reps)
    proj[x] = (proj[x] + 1) % len(reps)
    with pytest.raises(core.InternalInvariantError, match="does not respect addition"):
        core._image(ring, proj, reps, "corrupted")


def test_zero_mul_ring_is_non_unital():
    r = make_zero_mul_ring(2)
    inv = analyze(r)
    assert not r.is_unital
    assert inv.nilpotents.size == 2
    assert inv.nilpotency_index == 2
    assert inv.units is None
    assert inv.is_local is None
    assert inv.characteristic == 2


def test_catalog_revalidates(catalog9):
    for _, ring in catalog9:
        validate_ring(ring)


def test_analyze_deterministic(z4):
    r = make_zn(4)
    assert invariant_signature(r) == invariant_signature(z4)
    assert analyze(r) == analyze(r)


def test_local_decomposition_z6(z6):
    factors = local_decomposition(z6)
    assert sorted(f.ring.order for f in factors) == [2, 3]


def test_local_decomposition_z4_is_itself(z4):
    factors = local_decomposition(z4)
    assert len(factors) == 1
    assert factors[0].ring is z4
    assert factors[0].projection == (0, 1, 2, 3)
    assert factors[0].idempotent == z4.unity


def test_local_rings_and_fields_are_their_own_factor_and_residue_field(catalog16):
    skew = skew_dual_f4()  # local and noncommutative: its own one factor too
    for name, ring in catalog16 + [(skew.label, skew)]:
        inv = analyze(ring)
        identity = tuple(range(ring.order))
        if inv.is_unital and inv.is_local:
            (factor,) = local_decomposition(ring)
            assert (factor.ring, factor.projection, factor.idempotent) == (ring, identity, ring.unity), name
        if inv.is_field:
            field, proj, reps = residue_field(ring)
            assert field is ring and proj == reps == identity, name


def test_local_decomposition_z12():
    z12 = make_zn(12)
    assert analyze(z12).idempotents.indices() == (0, 1, 4, 9)
    factors = local_decomposition(z12)
    assert sorted(f.ring.order for f in factors) == [3, 4]


def test_local_decomposition_properties(catalog9):
    for _, ring in catalog9:
        inv = analyze(ring)
        if not (inv.is_unital and inv.is_commutative):
            continue
        factors = local_decomposition(ring)
        total = 1
        for f in factors:
            total *= f.ring.order
            assert analyze(f.ring).is_local
        assert total == ring.order


def test_local_decomposition_rejects_non_unital():
    with pytest.raises(UnsupportedStructureError):
        local_decomposition(make_zero_mul_ring(4))


def test_residue_field_z4(z4):
    field, proj, reps = residue_field(z4)
    assert field.order == 2
    assert analyze(field).is_field
    assert proj == (0, 1, 0, 1)
    assert reps == (0, 1)


@pytest.mark.parametrize("radical, match", [((0,), "must be a field"),
                                            ((0, 1), "does not respect addition")],
                         ids=["Z/4", "not-an-ideal"])
def test_a_residue_ring_that_is_no_field_raises(monkeypatch, radical, match):
    # Z/4 with the radical of its local structure faked: {0} gives the quotient
    # Z/4, whose row of 2 misses the unity, and {0, 1} is no ideal, so
    # x -> x + m is no homomorphism
    ring, local_factors = make_zn(4), core._local_factors

    def faked(r):
        (local,) = local_factors(r)
        key = r.add_table[:, list(radical)].min(axis=1)
        return (local._replace(radical=np.array(radical), key=key, representatives=np.unique(key)),)

    monkeypatch.setattr(core, "_local_factors", faked)
    with pytest.raises(core.InternalInvariantError, match=match):
        residue_field(ring)


def test_embed_prime_subfield(z2, gf4):
    assert embed(z2, gf4, [0, 1]) == (0, 1)


def test_embed_rejects_characteristic_mismatch(z2, z4):
    with pytest.raises(ValueError, match=r"not-homomorphic at \(1, 1\)"):
        embed(z2, z4, [0, 1])


def test_embed_rejects_non_injective(z2, gf4):
    with pytest.raises(ValueError, match="not-injective"):
        embed(z2, gf4, [0, 0])


def test_units_are_torsion(catalog9):
    # every unit has finite multiplicative order bounded by the ring order
    for _, ring in catalog9:
        inv = analyze(ring)
        if inv.units is None:
            continue
        for u in inv.units.indices():
            assert multiplicative_order(ring, u) <= ring.order


def test_field_invariants(catalog9):
    for _, ring in catalog9:
        inv = analyze(ring)
        if inv.is_field:
            assert inv.nilpotency_index == 1
            assert inv.units.indices() == tuple(range(1, ring.order))


def test_element_helpers(z4):
    assert element_additive_order(z4, 0) == 1
    assert element_additive_order(z4, 1) == 4
    assert element_additive_order(z4, 2) == 2
    assert element_nilpotency_index(z4, 2) == 2
    assert element_nilpotency_index(z4, 3) is None
    assert multiplicative_inverse(z4, 3) == 3
    assert multiplicative_inverse(z4, 2) is None


def test_pow(z4):
    assert z4.pow(3, 4) == 1
    assert z4.pow(2, 2) == 0
    assert z4.pow(3, 0) == 1
    with pytest.raises(UnsupportedStructureError):
        make_zero_mul_ring(2).pow(1, 0)
    with pytest.raises(ValueError):
        z4.pow(3, -1)


def test_binary_power_matches_a_left_fold(z6):
    ops = [
        (lambda a, b: z6.mul_table[a][b], 5),
        (poly_mul, poly_from(z6, (1, 2, 3))),
        (lambda a, b: z6.add_table[a, b], np.arange(z6.order)),
    ]
    for op, x in ops:
        for k in range(1, 41):
            expected = reduce(op, [x] * k)
            got = binary_power(op, x, k)
            if isinstance(x, np.ndarray):
                assert np.array_equal(got, expected), k
            else:
                assert got == expected, k
        with pytest.raises(ValueError):
            binary_power(op, x, 0)


def test_rings_isomorphic_decides_or_declines():
    assert rings_isomorphic(make_zn(4), make_product(make_zn(2), make_zn(2))) is False
    assert rings_isomorphic(make_zn(9), make_zn(9)) is None  # two builds, order above 8


_SMALL_RINGS = [make_zn(n) for n in (2, 3, 4, 6)] + [make_zero_mul_ring(4)]


@settings(max_examples=60, deadline=None)
@given(
    ring=st.sampled_from(_SMALL_RINGS),
    data=st.data(),
)
def test_ring_axioms_hold_pointwise(ring, data):
    idx = st.integers(min_value=0, max_value=ring.order - 1)
    a, b, c = data.draw(idx), data.draw(idx), data.draw(idx)
    assert ring.add(a, b) == ring.add(b, a)
    assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
    assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
    assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
    assert ring.add(a, ring.neg(a)) == 0


def test_local_radical_equals_non_units(catalog9):
    for _, ring in catalog9:
        inv = analyze(ring)
        if inv.is_local:
            non_units = tuple(a for a in ring.elements() if a not in inv.units)
            assert inv.jacobson_radical.indices() == non_units


def test_residue_field_returns_the_same_objects_on_every_call(catalog16):
    for name, ring in catalog16:
        inv = analyze(ring)
        if inv.is_unital and inv.is_local:
            assert residue_field(ring) is residue_field(ring), name


def test_a_replaced_ring_starts_with_its_own_empty_store(z4):
    residue_field(z4)
    copy = dataclasses.replace(z4, label="copy of Z/4")
    assert z4.store and copy.store is None


# --- the power table ---------------------------------------------------------

_POWER_TABLE_RINGS = [
    *(ring for _, ring in standard_catalog(32)),
    upper_triangular_f2(), m2f2(), skew_dual_f4(), row_matrices_f2(),
    make_zero_mul_ring(2), make_zero_mul_ring(4),
    *(realize(parse_ring_spec(spec)) for spec in ("Z/81", "Z/243", "Z/251", "GF(27)",
                                                   "Z/2[x]/(x^6)", "Z/2 x Z/3 x Z/5 x Z/7")),
]


def _outcome(function, *args):
    """A call's value, or the type and message of what it raised."""
    try:
        return function(*args)
    except (ValueError, UnsupportedStructureError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("ring", _POWER_TABLE_RINGS, ids=lambda ring: ring.label)
def test_the_power_table_reads_as_the_per_element_walks(ring):
    n, inv = ring.order, analyze(ring)
    rows, t, p = per_ring(ring, _powers)
    assert (t, p) == power_stabilization(ring) == rho_stabilization(ring)
    assert rows.shape == (t + p, n) and rows.dtype == np.min_scalar_type(n - 1)
    assert not rows.flags.writeable
    index = [walk_nilpotency_index(ring, a) for a in range(n)]
    assert [element_nilpotency_index(ring, a) for a in range(n)] == index
    assert inv.nilpotents.indices() == tuple(a for a in range(n) if index[a] is not None)
    assert inv.nilpotency_index == max(k for k in index if k is not None)
    if ring.unity is None:
        assert inv.units is None and inv.unit_group_exponent is None
        assert _outcome(multiplicative_order, ring, 0) == \
            (UnsupportedStructureError, "multiplicative order needs unity")
        return
    orders = [_outcome(walk_multiplicative_order, ring, a) for a in range(n)]
    assert [_outcome(multiplicative_order, ring, a) for a in range(n)] == orders
    units = tuple(u for u in range(n) if multiplicative_inverse(ring, u) is not None)
    assert inv.units.indices() == units
    assert inv.unit_group_exponent == math.lcm(*(orders[u] for u in units))


@pytest.mark.parametrize("ring", _POWER_TABLE_RINGS, ids=lambda ring: ring.label)
def test_power_map_equals_repeated_squaring(ring):
    t, p = power_stabilization(ring)
    elements = np.arange(ring.order)
    times = lambda a, b: ring.mul_table[a, b]
    for k in [*range(1, 3 * (t + p) + 1), 4096, 10 ** 6]:
        assert np.array_equal(power_map(ring, k), binary_power(times, elements, k)), k
    with pytest.raises(ValueError):
        power_map(ring, 0)
