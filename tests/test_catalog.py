from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finring import (
    RingSpecError,
    analyze,
    invariant_signature,
    parse_poly_text,
    parse_ring_spec,
    realize,
    render_poly,
    render_ring_spec,
    rings_isomorphic,
    standard_catalog,
    validate_ring,
)
from finring import catalog, core
from finring.catalog import Product, Quotient, TableRef, Zn
from finring.theorems import classify_char_function_existence


def test_parse_zn():
    assert parse_ring_spec("Z/4") == Zn(4)


def test_parse_product():
    assert parse_ring_spec("Z/2 x Z/3") == Product((Zn(2), Zn(3)))
    assert parse_ring_spec("Z/2xZ/3") == Product((Zn(2), Zn(3)))  # whitespace-insensitive


def test_parse_quotient():
    assert parse_ring_spec("Z/2[x]/(x^3)") == Quotient(Zn(2), (0, 0, 0, 1))
    assert parse_ring_spec("Z/2[x]/(x^2+x+1)") == Quotient(Zn(2), (1, 1, 1))
    assert parse_ring_spec("Z/4[x]/(x^2+2)") == Quotient(Zn(4), (2, 0, 1))


def test_parse_gf():
    assert parse_ring_spec("GF(5)") == Zn(5)
    assert parse_ring_spec("GF(4)") == Quotient(Zn(2), (1, 1, 1))
    assert parse_ring_spec("GF(9)") == Quotient(Zn(3), (1, 0, 1))


def test_parse_zero_ring_name():
    assert parse_ring_spec("zero-ring-2") == TableRef("zero-ring-2")


def test_parse_errors_carry_position():
    with pytest.raises(RingSpecError) as exc:
        parse_ring_spec("Z/2 ? Z/3")
    assert exc.value.position == 4
    with pytest.raises(RingSpecError):
        parse_ring_spec("Z/0")
    with pytest.raises(RingSpecError, match="unsupported field order"):
        parse_ring_spec("GF(6)")
    with pytest.raises(RingSpecError):
        parse_ring_spec("Z/4[x]/(3)")  # degree-0 modulus
    with pytest.raises(RingSpecError, match="trailing"):
        parse_ring_spec("Z/4 Z/2")


def test_realize_orders():
    assert realize(parse_ring_spec("Z/6")).order == 6
    assert realize(parse_ring_spec("Z/2[x]/(x^2+x+1)")).order == 4
    assert analyze(realize(parse_ring_spec("Z/2[x]/(x^2+x+1)"))).is_field
    r = realize(parse_ring_spec("Z/2 x Z/2"))
    assert r.order == 4
    assert analyze(r).idempotents.size == 4


def test_realize_bigger_fields():
    for q in (16, 25, 27):
        ring = realize(parse_ring_spec(f"GF({q})"))
        assert ring.order == q
        assert analyze(ring).is_field


def test_realize_zero_ring():
    r = realize(parse_ring_spec("zero-ring-4"))
    assert r.order == 4 and not r.is_unital


def test_render_poly():
    assert render_poly((1, 1, 1)) == "x^2+x+1"
    assert render_poly((0, 0, 0, 1)) == "x^3"
    assert render_poly((2, 0, 1)) == "x^2+2"
    assert render_poly((0, 2)) == "2x"
    assert render_poly(()) == "0"


def test_parse_poly_text_reduces_mod_order(z4):
    f = parse_poly_text("x^2+7x+5", z4)
    assert f.coeffs == (1, 3, 1)


# products are flat in the grammar (no grouping syntax), so the strategy
# nests quotients but never products
_term = st.deferred(
    lambda: st.one_of(
        st.integers(min_value=2, max_value=9).map(Zn),
        st.builds(
            Quotient,
            _term,
            st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3).map(
                lambda lows: tuple(lows) + (1,)
            ),
        ),
    )
)
_ast = st.one_of(
    _term,
    st.lists(_term, min_size=2, max_size=3).map(lambda parts: Product(tuple(parts))),
)


@settings(max_examples=80, deadline=None)
@given(ast=_ast)
def test_render_parse_round_trip(ast):
    assert parse_ring_spec(render_ring_spec(ast)) == ast


def test_round_trip_fixed_cases():
    for text in ("Z/4", "Z/2 x Z/3", "Z/2[x]/(x^2) x Z/3", "zero-ring-2",
                 "Z/4[x]/(x^2+2)", "Z/2[x]/(x^2)[x]/(x^2+x+1)"):
        ast = parse_ring_spec(text)
        assert parse_ring_spec(render_ring_spec(ast)) == ast


def test_catalog_minimum_members(catalog4):
    names = {name for name, _ in catalog4}
    assert {"Z/2", "Z/3", "Z/4", "GF(4)", "Z/2[x]/(x^2)", "Z/2[x]/(x^2+x+1)",
            "Z/2 x Z/2", "zero-ring-2", "zero-ring-4"} <= names
    assert all(ring.order <= 4 for _, ring in catalog4)


def test_catalog_gf4_duplicates_its_quotient(catalog4):
    # GF(4) is built from GF_MODULI's x^2 + x + 1, so the catalog holds the
    # same ring twice (see standard_catalog).  When this fails, the note there
    # is stale.
    rings = dict(catalog4)
    gf4, quotient = rings["GF(4)"], rings["Z/2[x]/(x^2+x+1)"]
    assert gf4.add_table == quotient.add_table
    assert gf4.mul_table == quotient.mul_table


def test_catalog_9_members(catalog9):
    names = {name for name, _ in catalog9}
    assert {"Z/8", "Z/9", "GF(8)", "GF(9)", "Z/2[x]/(x^3)", "Z/3[x]/(x^2)",
            "Z/2 x Z/3", "Z/2 x Z/4"} <= names


def test_catalog_dedup_and_validity(catalog9):
    names = [name for name, _ in catalog9]
    assert len(names) == len(set(names))
    for _, ring in catalog9:
        validate_ring(ring)


def test_catalog_validates_each_ring_once(monkeypatch):
    seen = []
    validate = core.validate_ring

    def record(ring):
        seen.append(ring)
        validate(ring)

    for module in (core, catalog):  # catalog would call it by an imported name
        monkeypatch.setattr(module, "validate_ring", record, raising=False)
    monkeypatch.setattr(catalog, "realize", lru_cache(maxsize=None)(catalog.realize.__wrapped__))
    for name, ring in catalog.standard_catalog(16):
        assert sum(r is ring for r in seen) == 1, name


def test_catalog_rejects_out_of_range():
    with pytest.raises(ValueError):
        standard_catalog(33)
    with pytest.raises(ValueError):
        standard_catalog(1)


def test_catalog_names_are_addressable(catalog9):
    for name, ring in catalog9:
        again = realize(parse_ring_spec(name))
        assert invariant_signature(again) == invariant_signature(ring)


def test_catalog_classification_runs_uncapped(catalog9):
    for _, ring in catalog9:
        inv = analyze(ring)
        if inv.is_unital and inv.is_commutative:
            assert classify_char_function_existence(ring).holds is not None


def test_z2xz3_isomorphic_to_z6(z6):
    r = realize(parse_ring_spec("Z/2 x Z/3"))
    assert invariant_signature(r) == invariant_signature(z6)
    assert rings_isomorphic(r, z6) is True
