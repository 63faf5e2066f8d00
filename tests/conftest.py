"""Shared fixtures and the pure-Python oracles.

The brute-force oracle enumerates every coefficient tuple up to the
stabilization degree and tabulates it with plain ring arithmetic; it
deliberately shares no code with the numpy coset-growth closure it
cross-checks.  The Lagrange oracle builds field interpolants from basis
polynomials, independently of the closed form in ``interpolate_field``.
"""

from __future__ import annotations

from itertools import product

import pytest

from finring import (
    make_table_ring,
    make_zn,
    parse_ring_spec,
    power_stabilization,
    realize,
    standard_catalog,
)
from finring.core import multiplicative_inverse
from finring.polyfun import Polynomial, poly_add, poly_const, poly_mul, poly_scale


def brute_force_function_tables(ring) -> frozenset:
    """Tables of ALL polynomials of degree <= t+p-1 over all coefficient tuples."""
    t, p = power_stabilization(ring)
    n_coeffs = t + p  # a_0 .. a_{t+p-1}
    n = ring.order
    tables = set()
    for coeffs in product(range(n), repeat=n_coeffs):
        values = []
        for x in range(n):
            acc = coeffs[0]
            power = None
            for i in range(1, n_coeffs):
                power = x if power is None else ring.mul(power, x)
                acc = ring.add(acc, ring.mul(coeffs[i], power))
            values.append(acc)
        tables.add(tuple(values))
    return frozenset(tables)


def lagrange_interpolate(field, values) -> Polynomial:
    """The degree < |F| interpolant as sum_i y_i prod_{j != i} (X - j)/(i - j); O(q^3)."""
    n = field.order
    acc = Polynomial(field, ())
    for i in range(n):
        y = values[i]
        if y == 0:
            continue
        num = poly_const(field, field.unity)
        denom = field.unity
        for j in range(n):
            if j == i:
                continue
            num = poly_mul(num, Polynomial(field, (field.neg(j), field.unity)))
            denom = field.mul(denom, field.sub(i, j))
        scale = field.mul(y, multiplicative_inverse(field, denom))
        acc = poly_add(acc, poly_scale(scale, num))
    return acc.stripped()


def upper_triangular_f2():
    """T2(F2): [[a, b], [0, d]] over F2 is element a + 2b + 4d."""
    def split(e):
        return e & 1, e >> 1 & 1, e >> 2

    add = [[x ^ y for y in range(8)] for x in range(8)]
    mul = []
    for x in range(8):
        a, b, d = split(x)
        row = []
        for y in range(8):
            a2, b2, d2 = split(y)
            row.append((a * a2) | ((a * b2 + b * d2) & 1) << 1 | (d * d2) << 2)
        mul.append(row)
    return make_table_ring(add, mul, "T2(F2)")


@pytest.fixture(scope="session")
def z2():
    return make_zn(2)


@pytest.fixture(scope="session")
def z3():
    return make_zn(3)


@pytest.fixture(scope="session")
def z4():
    return make_zn(4)


@pytest.fixture(scope="session")
def z6():
    return make_zn(6)


@pytest.fixture(scope="session")
def z9():
    return make_zn(9)


@pytest.fixture(scope="session")
def gf4():
    return realize(parse_ring_spec("GF(4)"))


@pytest.fixture(scope="session")
def gf8():
    return realize(parse_ring_spec("GF(8)"))


@pytest.fixture(scope="session")
def catalog4():
    return standard_catalog(4)


@pytest.fixture(scope="session")
def catalog6():
    return standard_catalog(6)


@pytest.fixture(scope="session")
def catalog8():
    return standard_catalog(8)


@pytest.fixture(scope="session")
def catalog9():
    return standard_catalog(9)


@pytest.fixture(scope="session")
def catalog16():
    return standard_catalog(16)
