"""Shared fixtures and the pure-Python oracles.

The brute-force oracle enumerates every coefficient tuple up to the
stabilization degree and tabulates it with plain ring arithmetic.  The
coset-growth oracle grows the function group one generator at a time as
explicit tables with witness rows; it shares no code with the lattice that
the library counts, decides and solves membership with.  The Lagrange oracle builds field interpolants from basis
polynomials, independently of the closed form in ``interpolate_field``.
The CRT oracle builds each local factor of a product of fields as its own
ring, interpolates there and glues the coefficients by the Chinese
remainder theorem, where the library interpolates once inside the ring.
The schoolbook oracles multiply and evaluate polynomials term by term
through ``ring.add``/``ring.mul``, where the library indexes table rows.
The syndrome oracle finds every induced indicator by matching the
lattice syndromes of half-subsets, where R2.8 builds the coset indicators
by P2.6's lift.
"""

from __future__ import annotations

from itertools import count, product

import numpy as np
import pytest
from hypothesis import strategies as st

from finring import (
    interpolate_field,
    local_decomposition,
    make_product,
    make_quotient,
    make_table_ring,
    make_zn,
    parse_ring_spec,
    power_stabilization,
    realize,
    standard_catalog,
)
from finring import polyfun
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


def crt_interpolate(ring, values) -> Polynomial:
    """A product of fields' least-degree witness: interpolate pi_i o F on
    each factor field F_i and glue the coefficient columns by CRT."""
    factors = local_decomposition(ring)
    rows = []
    for f in factors:
        reps = [f.projection.index(v) for v in range(f.ring.order)]
        rows.append(interpolate_field(f.ring, [f.projection[values[r]] for r in reps]).coeffs)
    crt = {tuple(f.projection[x] for f in factors): x for x in range(ring.order)}
    width = max(map(len, rows))
    columns = zip(*(row + (0,) * (width - len(row)) for row in rows))
    return Polynomial(ring, tuple(crt[column] for column in columns)).stripped()


def schoolbook_mul(f, g) -> Polynomial:
    """f*g with left coefficients: c_k = sum_{i+j=k} a_i * b_j, stripped."""
    ring = f.ring
    out = [0] * (len(f.coeffs) + len(g.coeffs))
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = ring.add(out[i + j], ring.mul(a, b))
    return Polynomial(ring, tuple(out)).stripped()


def schoolbook_pow(f, k: int) -> Polynomial:
    """f^k for k >= 1 as k - 1 left multiplications by f."""
    acc = f.stripped()
    for _ in range(k - 1):
        acc = schoolbook_mul(acc, f)
    return acc


def schoolbook_eval(f, x: int) -> int:
    """a_0 + sum_{i>=1} a_i * x^i, with x^i as i - 1 multiplications by x."""
    ring = f.ring
    acc = f.coeffs[0] if f.coeffs else 0
    for i in range(1, len(f.coeffs)):
        power = x
        for _ in range(i - 1):
            power = ring.mul(power, x)
        acc = ring.add(acc, ring.mul(f.coeffs[i], power))
    return acc


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


def m2f2():
    """M2(F2): [[a, b], [c, d]] over F2 is element a + 2b + 4c + 8d.  It is
    simple, so RcR = R for every c != 0, but a left ideal Rc of a rank-one c
    is proper."""
    def split(e):
        return e & 1, e >> 1 & 1, e >> 2 & 1, e >> 3

    add = [[x ^ y for y in range(16)] for x in range(16)]
    mul = []
    for x in range(16):
        a, b, c, d = split(x)
        row = []
        for y in range(16):
            a2, b2, c2, d2 = split(y)
            row.append((a * a2 + b * c2) % 2 | (a * b2 + b * d2) % 2 << 1
                       | (c * a2 + d * c2) % 2 << 2 | (c * b2 + d * d2) % 2 << 3)
        mul.append(row)
    return make_table_ring(add, mul, "M2(F2)")


def row_matrices_f2():
    """[[a, b], [0, 0]] over F2 as element a + 2b: noncommutative, non-unital,
    of order 4, since (a, b)(a', b') = (a*a', a*b')."""
    mul = [[(x & y & 1) | (x & 1) * (y >> 1) << 1 for y in range(4)] for x in range(4)]
    return make_table_ring([[x ^ y for y in range(4)] for x in range(4)], mul, "row-matrices-F2")


def relabelled(ring, nonzero_labels):
    """An isomorphic copy whose element x != 0 is nonzero_labels[x - 1], so
    that the basis search meets the elements in another order."""
    new = [0, *nonzero_labels]
    old = sorted(range(ring.order), key=new.__getitem__)
    relabel = lambda table: [[new[table[old[a]][old[b]]] for b in range(ring.order)]
                             for a in range(ring.order)]
    return make_table_ring(relabel(ring.add_table), relabel(ring.mul_table), ring.label)


_LOCAL_BASES = {2: 4, 3: 2, 4: 2, 5: 1, 7: 1, 8: 1, 9: 1, 11: 1, 13: 1, 16: 1, 17: 1, 19: 1}


@st.composite
def small_rings(draw):
    """Z/m[x]/(monic) for a prime power m, times Z/2..Z/4 or not; order <= 20."""
    m = draw(st.sampled_from(sorted(_LOCAL_BASES)))
    degree = draw(st.integers(1, _LOCAL_BASES[m]))
    lower = draw(st.lists(st.integers(0, m - 1), min_size=degree, max_size=degree))
    ring = make_quotient(make_zn(m), lower + [1])
    other = draw(st.sampled_from([None, 2, 3, 4]))
    if other is not None and ring.order * other <= 20:
        ring = make_product(ring, make_zn(other))
    return relabelled(ring, draw(st.permutations(range(1, ring.order))))


def skew_dual_f4():
    """GF(4)[t; Frobenius]/(t^2): a + b*t with t*a = a^2*t and t^2 = 0 is
    element a + 4b, with GF(4) = F2[w]/(w^2 + w + 1) and w as 2.  It is
    local and noncommutative, with maximal ideal GF(4)*t and residue
    field GF(4)."""
    def gf4_mul(a, b):
        p = (a if b & 1 else 0) ^ (a << 1 if b & 2 else 0)
        return p ^ 0b111 if p & 0b100 else p

    mul = [[gf4_mul(x & 3, y & 3) | (gf4_mul(x & 3, y >> 2) ^ gf4_mul(x >> 2, gf4_mul(y & 3, y & 3))) << 2
            for y in range(16)] for x in range(16)]
    return make_table_ring([[x ^ y for y in range(16)] for x in range(16)], mul, "GF(4)[t;F]/(t^2)")


class Closure:
    """A function group grown as explicit tables: ``tables`` holds one row
    per function, ``witnesses`` a parallel coefficient row inducing it."""

    def __init__(self, ring, tables: np.ndarray, witnesses: np.ndarray, index: dict):
        self.ring, self.tables, self.witnesses, self.index = ring, tables, witnesses, index
        self.count = len(tables)

    def contains(self, table) -> bool:
        return bytes(table) in self.index

    def lookup(self, table):
        idx = self.index.get(bytes(table))
        if idx is None:
            return "absent", None
        return "present", Polynomial(self.ring, tuple(self.witnesses[idx].tolist())).stripped()

    def as_tuple_set(self) -> frozenset:
        return frozenset(map(tuple, self.tables.tolist()))


def coset_growth(ring) -> Closure:
    """The group generated by the constants and every a * x^k (k <= t+p-1),
    grown one generator at a time.  For a generator g the least i with i*g
    in the grown group H splits H + <g> into the disjoint cosets H + j*g,
    j < i, so new rows are appended as they come; a row h + j*g is
    witnessed by h's coefficients with a_k replaced by a_k + j*a."""
    n = ring.order
    t, p = power_stabilization(ring)
    add = np.array(ring.add_table, dtype=np.uint8)
    mul = np.array(ring.mul_table, dtype=np.uint8)
    m = t + p - 1
    powers = np.empty((m + 1, n), dtype=np.uint8)
    powers[1] = np.arange(n, dtype=np.uint8)
    for k in range(2, m + 1):
        powers[k] = mul[powers[k - 1], powers[1]]
    tables = np.zeros((1, n), dtype=np.uint8)
    wits = np.zeros((1, m + 1), dtype=np.uint8)
    index = {bytes(n): 0}
    for k, a in product(range(m + 1), range(1, n)):
        g = np.full(n, a, dtype=np.uint8) if k == 0 else mul[a, powers[k]]
        new_t, new_w = [tables], [wits]
        step, coeff = g, a
        while step.tobytes() not in index:
            coset_t = add[tables, step]
            coset_w = wits.copy()
            coset_w[:, k] = add[wits[:, k], coeff]
            keys = coset_t.view(np.dtype((np.void, n))).ravel().tolist()
            index.update(zip(keys, count(len(index))))
            new_t.append(coset_t)
            new_w.append(coset_w)
            step, coeff = add[step, g], add[coeff, a]
        if len(new_t) > 1:
            tables, wits = np.concatenate(new_t), np.concatenate(new_w)
    return Closure(ring, tables, wits, index)


def as_tuple_set(pset, limit: int = 1 << 20) -> frozenset:
    """Every table of a function set as a tuple; refuses sets of more than
    ``limit`` tables before any work."""
    if pset.count > limit:
        raise ValueError("function set too large to materialise")
    if not pset.idempotents:
        return frozenset(map(tuple, pset._enumerate()[0].tolist()))
    # Every choice of g_e: eR -> eR, summed as x -> sum_e g_e(e*x).
    n = pset.ring.order
    add = np.array(pset.ring.add_table, dtype=np.intp)
    rows = np.zeros((1, n), dtype=np.intp)
    for e in pset.idempotents:
        ideal, position = np.unique(pset.ring.mul_table[e], return_inverse=True)
        g = np.array(list(product(ideal.tolist(), repeat=len(ideal))))[:, position]
        rows = add[rows[:, None, :], g[None]].reshape(-1, n)
    return frozenset(map(tuple, rows.tolist()))


def syndrome_supports(ring) -> list[int]:
    """Every subset whose indicator (the unity on it, 0 elsewhere) is
    induced, the two constants included, as sorted bit masks.

    An indicator's syndrome is the sum of the syndromes of the unity at
    each of its points, so the subsets of the lower and of the upper half
    of R are summed apart (2 * 2^(n/2) sums, not 2^n) and matched on
    syndromes that cancel.
    """
    n = ring.order
    parts, moduli = polyfun.polynomial_function_set(ring)._lattice_basis()[:2]
    kept = moduli > 1  # a pivot of valuation 0 constrains nothing
    moduli = moduli[kept].astype(np.uint8)  # p^v <= n <= 32: sums of two stay below 2^8
    ones = parts[:, ring.unity, kept].astype(np.uint8)
    half = n // 2
    sums = []  # row m of each: the syndrome of {x in the half : bit x of m set}
    for points in (range(half), range(half, n)):
        acc = np.zeros((1, len(moduli)), dtype=np.uint8)
        for x in points:
            acc = np.concatenate((acc, (acc + ones[x]) % moduli))
        sums.append(acc)
    upper = {}
    for high, row in enumerate((moduli - sums[1]) % moduli):
        upper.setdefault(row.tobytes(), []).append(high)
    return sorted(low | high << half for low, row in enumerate(sums[0])
                  for high in upper.get(row.tobytes(), ()))


def set_index_limit(monkeypatch, limit: int) -> None:
    """Index sets of at most ``limit`` tables, and solve every other lookup
    (0 solves them all).  Cached sets are dropped first, so that no index
    built by an earlier test answers."""
    polyfun.polynomial_function_set.cache_clear()
    monkeypatch.setattr(polyfun, "INDEX_LIMIT", limit)


@pytest.fixture
def refuse_index(monkeypatch):
    """Make enumerating a function set's tables, which the lookup index and
    ``as_tuple_set`` need, raise.  Cached sets are dropped first, since a
    set cached by an earlier test would hide a build."""
    def refuse(self):
        raise AssertionError(f"tables of {self.ring.label} enumerated")

    polyfun.polynomial_function_set.cache_clear()
    monkeypatch.setattr(polyfun.PolyFunctionSet, "_enumerate", refuse)


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
def catalog8():
    return standard_catalog(8)


@pytest.fixture(scope="session")
def catalog9():
    return standard_catalog(9)


@pytest.fixture(scope="session")
def catalog16():
    return standard_catalog(16)
