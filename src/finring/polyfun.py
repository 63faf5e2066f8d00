"""Polynomials over a finite ring and the set of functions they induce.

Evaluation follows the non-unital convention exactly: for
f = a_0 + a_1 X + ... + a_n X^n the value at r is a_0 + sum a_i * r^i,
with the constant entering as a ring element (never as a_0 * r^0).  Left
coefficients are used throughout, so noncommutative rings are supported.

The set of all functions induced by polynomials is an additive subgroup G of
R^R: power vectors v_k(x) = x^k repeat with preperiod t and period p, so
G = {constants} + span{a * v_k : a in R, 1 <= k <= t+p-1}.  Every
answer is exact, on any ring.

A product of fields (a commutative unital ring without nonzero
nilpotents; a field is the one-factor case) is answered analytically by
its primitive idempotents e: R is the sum of the fields eR, a table F is
induced iff e*F(x) = e*F(e*x) for every e and x, and one interpolant sums
each field's closed form inside R.

Any other ring is answered by one elimination per prime, of G as a
Z/p^s-lattice (``_lattice``).  Untracked, it counts G without building a
table (``function_count``).  Tracked, it writes G as a direct sum of cyclic
groups <g_a>, each with a witness coefficient row, and gives a syndrome
map that decides membership (``contains``) and solves for the multiple of
each g_a.  ``lookup`` enumerates a set of at most ``INDEX_LIMIT`` tables
into an index on its first call, and solves on a larger one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from typing import Iterable

import numpy as np

from .core import (
    Embedding,
    FiniteRing,
    InternalInvariantError,
    SubsetMask,
    UnsupportedStructureError,
    analyze,
    local_decomposition,
)

__all__ = [
    "Polynomial",
    "FunctionTable",
    "PolyFunctionSet",
    "INDEX_LIMIT",
    "poly_from",
    "poly_const",
    "poly_x",
    "poly_add",
    "poly_neg",
    "poly_sub",
    "poly_mul",
    "poly_pow",
    "poly_scale",
    "poly_eval",
    "function_table",
    "image",
    "power_stabilization",
    "polynomial_function_set",
    "function_count",
    "is_polynomial_function",
    "interpolate_field",
    "char_poly_for_subset",
]

INDEX_LIMIT = 1 << 16  # sets of at most this many tables are enumerated into an index


@dataclass(frozen=True)
class Polynomial:
    """Coefficient vector (a_0, a_1, ...) of element indices over a fixed ring."""

    ring: FiniteRing
    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _indices(self.coeffs, self.ring.order, "coefficients"))

    @property
    def degree(self) -> int | None:
        """Largest exponent with a nonzero coefficient; None for the zero polynomial."""
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i] != 0:
                return i
        return None

    def stripped(self) -> "Polynomial":
        return _stripped(self.ring, list(self.coeffs))

    def __repr__(self) -> str:
        return f"Polynomial({self.ring.label!r}, {list(self.coeffs)})"


@dataclass(frozen=True)
class FunctionTable:
    """A total function between rings as a dense vector of codomain indices."""

    domain: FiniteRing
    codomain: FiniteRing
    values: tuple[int, ...]

    def __post_init__(self):
        values = _indices(self.values, self.codomain.order, "table values")
        if len(values) != self.domain.order:
            raise ValueError("table must assign a value to every domain element")
        object.__setattr__(self, "values", values)


def poly_from(ring: FiniteRing, coeffs: Iterable[int]) -> Polynomial:
    return Polynomial(ring, tuple(coeffs))


def poly_const(ring: FiniteRing, c: int) -> Polynomial:
    return Polynomial(ring, (c,))


def poly_x(ring: FiniteRing) -> Polynomial:
    if ring.unity is None:
        raise UnsupportedStructureError("the monomial X needs a unity coefficient")
    return Polynomial(ring, (0, ring.unity))


def _same_ring(f: Polynomial, g: Polynomial) -> FiniteRing:
    if f.ring is not g.ring:
        raise ValueError("polynomials live over different rings")
    return f.ring


def poly_add(f: Polynomial, g: Polynomial) -> Polynomial:
    r = _same_ring(f, g)
    n = max(len(f.coeffs), len(g.coeffs))
    fc = f.coeffs + (0,) * (n - len(f.coeffs))
    gc = g.coeffs + (0,) * (n - len(g.coeffs))
    return Polynomial(r, tuple(r.add(a, b) for a, b in zip(fc, gc)))


def poly_neg(f: Polynomial) -> Polynomial:
    return Polynomial(f.ring, tuple(f.ring.neg(c) for c in f.coeffs))


def poly_sub(f: Polynomial, g: Polynomial) -> Polynomial:
    return poly_add(f, poly_neg(g))


def poly_mul(f: Polynomial, g: Polynomial) -> Polynomial:
    r = _same_ring(f, g)
    fd, gd = f.degree, g.degree
    if fd is None or gd is None:
        return Polynomial(r, ())
    add, mul = r.add_table, r.mul_table
    terms = [(j, b) for j, b in enumerate(g.coeffs[: gd + 1]) if b]
    out = [0] * (fd + gd + 1)
    for i, a in enumerate(f.coeffs[: fd + 1]):
        if a:
            by_a = mul[a]
            for j, b in terms:
                out[i + j] = add[out[i + j]][by_a[b]]
    return Polynomial(r, tuple(out))


def poly_pow(f: Polynomial, k: int) -> Polynomial:
    if k < 0:
        raise ValueError("negative polynomial powers are not defined")
    if k == 0:
        if f.ring.unity is None:
            raise UnsupportedStructureError("f^0 needs unity")
        return poly_const(f.ring, f.ring.unity)
    result = None
    base = f
    while k:
        if k & 1:
            result = base if result is None else poly_mul(result, base)
        k >>= 1
        if k:
            base = poly_mul(base, base)
    return result


def poly_scale(c: int, f: Polynomial) -> Polynomial:
    """Left scalar multiple c * f."""
    return Polynomial(f.ring, tuple(f.ring.mul(c, a) for a in f.coeffs))


def poly_eval(f: Polynomial, r: int, via: Embedding | None = None) -> int:
    """Evaluate a_0 + sum_{i>=1} a_i * r^i with powers taken in the coefficient ring.

    With ``via`` given, r is an element of via.small and is first mapped
    into via.big, which must be the coefficient ring.
    """
    ring = f.ring
    if via is not None:
        if via.big is not ring:
            raise ValueError("embedding target differs from the coefficient ring")
        if not 0 <= r < via.small.order:
            raise ValueError("element out of the embedded ring's range")
        x = via.map[r]
    else:
        if not 0 <= r < ring.order:
            raise ValueError("element out of the ring's range")
        x = r
    add, mul = ring.add_table, ring.mul_table
    acc = f.coeffs[0] if f.coeffs else 0
    power = None
    for c in f.coeffs[1:]:
        power = x if power is None else mul[power][x]
        if c:
            acc = add[acc][mul[c][power]]
    return acc


def function_table(f: Polynomial, r: FiniteRing | None = None,
                   via: Embedding | None = None) -> FunctionTable:
    """Tabulate f over every element of the domain ring."""
    if via is not None:
        domain = via.small
        if r is not None and r is not domain:
            raise ValueError("domain ring disagrees with the embedding")
    else:
        domain = r if r is not None else f.ring
        if domain is not f.ring:
            raise ValueError("evaluating over a foreign ring needs an embedding")
    values = tuple(poly_eval(f, x, via) for x in range(domain.order))
    return FunctionTable(domain=domain, codomain=f.ring, values=values)


def image(f: Polynomial, r: FiniteRing | None = None) -> SubsetMask:
    """The set of values f takes on the ring."""
    table = function_table(f, r)
    return SubsetMask.from_indices(f.ring, set(table.values))


# ---------------------------------------------------------------------------
# power stabilization and the function set
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def power_stabilization(ring: FiniteRing) -> tuple[int, int]:
    """Least (t, p) with x^(k+p) = x^k for every x and every k >= t.

    Per element the power sequence is a rho: tail values never recur, so the
    per-element preperiod and cycle length combine by max and lcm.
    """
    t = p = 1
    for x in range(ring.order):
        seen, power = {}, x  # seen[x^k] = k
        while power not in seen:
            seen[power] = len(seen) + 1
            power = ring.mul_table[power][x]
        t, p = max(t, seen[power]), math.lcm(p, len(seen) + 1 - seen[power])
    return t, p


def _indices(values, order: int, what: str) -> tuple[int, ...]:
    """``values`` as element indices below ``order``; ValueError unless each is one."""
    try:
        out = tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{what} must be integer element indices") from None
    if out and (min(out) < 0 or max(out) >= order):
        raise ValueError(f"{what} must lie in range({order})")
    return out


def _table_values(ring: FiniteRing, table) -> tuple[int, ...]:
    """A table's values as element indices of ``ring``; ValueError unless each is
    one, or if a FunctionTable (validated when built) maps between other rings."""
    if isinstance(table, FunctionTable):
        if table.domain is not ring or table.codomain is not ring:
            raise ValueError(f"table maps {table.domain.label} to {table.codomain.label}, "
                             f"not {ring.label} to itself")
        return table.values
    values = _indices(table, ring.order, "table values")
    if len(values) != ring.order:
        raise ValueError("table length differs from the ring order")
    return values


def _stripped(ring: FiniteRing, coeffs: list[int]) -> Polynomial:
    """The polynomial with these coefficients, trailing zeros dropped first."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return Polynomial(ring, tuple(coeffs))


def _interpolant(ring: FiniteRing, idempotents: Iterable[int], values) -> Polynomial:
    """The least-degree polynomial inducing an induced table F on a product of
    fields, given by its primitive idempotents e (a field's is its unity).

    On the field eR, e*F has c_0 = e*F(0) and c_j = -sum_{a in eR} F(a) a^(q-1-j)
    for 1 <= j < q = |eR|, with a^0 = e, since a^k lies in eR and in
    characteristic p every C(q-1, j) is (-1)^j.  Summed over e these are R's
    coefficients, with c_0 = F(0): O(n*q) reads of R's own tables.
    """
    add, mul = ring.add_table, ring.mul_table
    acc = [0] * ring.order
    for e in idempotents:
        ideal = set(mul[e])
        for a in ideal:
            by_y, by_a, power = mul[values[a]], mul[a], e
            for j in range(len(ideal) - 1, 0, -1):
                acc[j] = add[acc[j]][by_y[power]]
                power = by_a[power]
    return _stripped(ring, [values[0]] + [ring.neg_table[c] for c in acc[1:]])


class PolyFunctionSet:
    """All function tables induced by polynomials over one ring: ``count``
    is exact, and every lookup is decided, with a witness when present.

    Analytic (``idempotents`` given): the ring is the product of the fields
    eR for its primitive ``idempotents`` e (one for a field: ``field_mode``).
    A table F is induced iff e*F(x) = e*F(e*x) for every e and x;
    witnesses are interpolated on demand.

    Lattice (any other ring): G is the direct sum of the cyclic groups
    <g_a> of ``_lattice``, each with a witness coefficient row.  On the
    first ``lookup``, a set of at most ``INDEX_LIMIT`` tables is enumerated
    from them: ``tables`` holds every table, ``witnesses`` a parallel
    coefficient row, and an index maps each table's bytes to its row.  A
    larger set solves each lookup for the multiples z_a and sums the
    z_a-fold witness rows.  ``contains`` reads the index once it is built,
    and the syndrome otherwise.

    ``complete`` is always True; it stays for readers of earlier releases.
    """

    def __init__(self, ring: FiniteRing, idempotents: tuple[int, ...] = (),
                 count: int | None = None):
        self.ring = ring
        self.complete = True
        self.tables = self.witnesses = None
        self.idempotents = idempotents
        self.field_mode = len(idempotents) == 1
        self._basis = self._rows = self._index = None
        if idempotents:
            mul = ring.mul_table
            self.count = math.prod(q ** q for q in (len(set(mul[e])) for e in idempotents))
            self._pairs = [(mul[e], x, ex) for e in idempotents
                           for x, ex in enumerate(mul[e]) if ex != x]
        else:
            self.count = count

    def lookup(self, table) -> tuple[str, Polynomial | None]:
        """('present', witness) or ('absent', None)."""
        values = _table_values(self.ring, table)
        if self.idempotents:
            if not self._induced(values):
                return "absent", None
            return "present", _interpolant(self.ring, self.idempotents, values)
        if self.count <= INDEX_LIMIT and self.ring.order <= 256:  # bytes keys need values < 256
            idx = self._table_index().get(bytes(values))
            if idx is None:
                return "absent", None
            return "present", _stripped(self.ring, self.witnesses[idx].tolist())
        parts, moduli, (columns, shifts, inverses, orders), _ = self._lattice_basis()
        syndrome = parts[np.arange(len(values)), values].sum(axis=0)
        if (syndrome % moduli).any():
            return "absent", None
        z = syndrome[columns] // shifts * inverses % orders
        rows, _, times, add = self._witness_rows()
        return "present", _stripped(self.ring, _ring_sum(add, times[z[:, None], rows]).tolist())

    def contains(self, table) -> bool:
        """Whether the table is induced, building no witness: from the index
        once a lookup has built it, and from the lattice syndrome before."""
        values = _table_values(self.ring, table)
        if self.idempotents:
            return self.field_mode or self._induced(values)
        if self._index is not None:
            return bytes(values) in self._index
        parts, moduli = self._lattice_basis()[:2]
        return not (parts[np.arange(len(values)), values].sum(axis=0) % moduli).any()

    def _lattice_basis(self) -> tuple:
        """G as the direct sum of the cyclic groups <g_a>, one per pivot of
        the tracked ``_lattice``, built once per set: (parts, moduli,
        pivots, generators).

        A table F has the syndrome S = sum_x parts[x, F(x)].  F is in G iff
        S is 0 modulo ``moduli``, and then F = sum_a z_a * g_a, where pivot a
        has the column, shift, inverse and order in ``pivots[:, a]`` and
        z_a = S[column] / shift * inverse mod order.  Per prime p,
        ``generators`` holds the additive basis b of R_p, the rows U_a of
        its pivots and the generators' tables: g_a is sum_g U_a[g] times
        table g, and has the coefficient sum_i U_a[k, i] * b_i at x^k.
        """
        if self._basis is None:
            self._basis = _lattice(self.ring, track=True)[1]
        return self._basis

    def _witness_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Each g_a's coefficient row and table, ``times[c, y]`` = c*y, and
        the addition table; built on the first lookup."""
        if self._rows is None:
            n = self.ring.order
            add = np.array(self.ring.add_table, dtype=np.intp)
            times = np.zeros((n, n), dtype=np.intp)
            for c in range(1, n):
                times[c] = add[times[c - 1], np.arange(n)]
            generators = self._lattice_basis()[3]
            rows = np.concatenate([  # sum over i of U_a[k, i] * b_i
                _ring_sum(add, np.moveaxis(times[u.reshape(len(u), -1, len(b)), b], 2, 0))
                for b, u, _ in generators])
            tables = np.concatenate([  # sum over generators g of U_a[g] * table_g
                _ring_sum(add, np.moveaxis(times[u[:, :, None], gens], 1, 0))
                for _, u, gens in generators])
            self._rows = rows, tables, times, add
        return self._rows

    def _enumerate(self) -> tuple[np.ndarray, np.ndarray]:
        """Every table of G and a witness row for each: the sums of z_a * g_a
        over 0 <= z_a < orders[a], in mixed radix."""
        rows, row_tables, _, add = self._witness_rows()
        add = add.astype(np.min_scalar_type(self.ring.order - 1))
        both = np.zeros((1, self.ring.order + rows.shape[1]), dtype=add.dtype)  # table | row
        orders = self._lattice_basis()[2][3]
        for g, order in zip(np.concatenate((row_tables, rows), axis=1), orders):
            steps = [both]
            for _ in range(1, order):
                steps.append(add[steps[-1], g])
            both = np.concatenate(steps)
        return np.split(both, [self.ring.order], axis=1)

    def _table_index(self) -> dict[bytes, int]:
        """The bytes of every table mapped to its row, built once per set."""
        if self._index is None:
            self.tables, self.witnesses = self._enumerate()
            keys = self.tables.view(np.dtype((np.void, self.ring.order))).ravel().tolist()
            self._index = dict(zip(keys, count()))
            if len(self._index) != self.count:
                raise InternalInvariantError(f"{self.ring.label}: the lattice basis spans "
                                             f"{len(self._index)} tables, not {self.count}")
        return self._index

    def _induced(self, values: tuple[int, ...]) -> bool:
        """e*F(x) = e*F(e*x) for every idempotent e and every x."""
        return all(project[values[x]] == project[values[ex]] for project, x, ex in self._pairs)


def _ring_sum(add: np.ndarray, terms) -> np.ndarray:
    """The elementwise ring sum of the arrays in ``terms`` (at least one)."""
    acc, *rest = terms
    for term in rest:
        acc = add[acc, term]
    return acc


def polynomial_function_set(ring: FiniteRing) -> PolyFunctionSet:
    """The set {r -> a_0 + sum a_k r^k} of functions polynomials induce.

    A product of fields, a field included, is answered through its primitive
    idempotents, and any other ring through its lattice (``_lattice``).  No
    table is built until a lookup needs one, and every answer is exact.

    Cached per ring however the argument is passed.
    """
    return _function_set(ring)


@lru_cache(maxsize=None)
def _function_set(ring: FiniteRing) -> PolyFunctionSet:
    inv = analyze(ring)
    if inv.is_commutative and inv.is_unital and inv.nilpotents.size == 1:
        idempotents = (ring.unity,) if inv.is_field else \
            tuple(f.idempotent for f in local_decomposition(ring))
        return PolyFunctionSet(ring, idempotents=idempotents)
    return PolyFunctionSet(ring, count=_lattice(ring)[0])


# ---------------------------------------------------------------------------
# exact counts: the function group as a Z/p^s-lattice per prime
# ---------------------------------------------------------------------------

def function_count(ring: FiniteRing) -> int:
    """|G|, the number of functions R -> R induced by polynomials, exactly
    and without materialising a table, on any finite ring.

    A product of fields has prod |eR|^|eR| over its primitive idempotents e;
    any other ring is counted by ``_lattice``.
    """
    return _function_set(ring).count


def _lattice(ring: FiniteRing, track: bool = False) -> tuple[int, tuple | None]:
    """|G| as the product of its p-parts |G_p|, each the order of a lattice,
    and with ``track`` the basis of G that decides and solves membership
    (``PolyFunctionSet._lattice_basis``).

    G is the Z-span of the constants b and the tables b * x^k
    (k = 1..t+p-1) for b in an additive basis of R, since a * x^k is
    additive in a; noncommutative and non-unital rings need nothing extra.
    Per prime p, ``_p_basis`` embeds the p-part R_p in (Z/p^s)^r, so the
    generators' tables for a basis of R_p become the rows of a matrix M over
    Z/p^s.  Each step pivots on an entry of least valuation v among all
    rows, which divides every other entry of its column and row; clearing
    the column leaves a summand Z/p^(s-v), so |G_p| = prod p^(s - v) over
    the pivots (Storjohann and Mulders, "Fast algorithms for linear algebra
    modulo N", ESA 1998).

    Tracking records the pivot rows g_a as combinations U_a of the
    generators, and clears each pivot's row too by column operations
    recorded in V, so that g_a * V = u * p^v at the pivot's column j and 0
    elsewhere (Howell, "Spans in the module (Z_m)^s", 1986).  A vector w
    is then in the row span of M iff (w*V)_j = 0 mod p^v_j for every column
    j, with v_j = s where no pivot fell, and w = sum_a z_a * g_a with
    z_a = (w*V)_j / p^v * u^-1 mod p^(s-v).  A table F is in G iff for each
    p its p-part e_p * F passes (``_p_basis`` maps each value to its
    p-part); without that projection a ring such as Z/12 would test its
    3-part against the 2-part's lattice.
    """
    n = ring.order
    add = np.array(ring.add_table, dtype=np.intp)
    mul = np.array(ring.mul_table, dtype=np.intp)
    t, period = power_stabilization(ring)
    powers = np.empty((t + period, n), dtype=np.intp)  # x^0 is never read
    powers[1] = np.arange(n)
    for k in range(2, t + period):
        powers[k] = mul[powers[k - 1], powers[1]]
    total, rest, offset = 1, n, 0
    parts, moduli, pivots, generators = [], [], [], []
    for p in range(2, n + 1):
        if rest % p:  # smaller primes are divided out, so p | rest means p is prime
            continue
        while rest % p == 0:
            rest //= p
        basis, s, embed = _p_basis(add, p)
        q, r = p ** s, len(basis)
        # row k*r + i is the table of b_i * x^k, and of the constant b_i at k = 0
        gens = np.concatenate((np.repeat(basis[:, None], n, axis=1),
                               mul[basis[:, None], powers[1:, None]].reshape(-1, n)))
        rows = embed[gens].reshape(len(gens), -1)
        width = rows.shape[1]
        if track:
            columns = np.eye(width, dtype=np.intp)  # V
            combos = np.eye(len(gens), dtype=np.intp)  # U
            level = np.full(width, s)  # v_j
            pivot_rows = []
        valuation = np.zeros(q, dtype=np.intp)
        for k in range(1, s + 1):
            valuation[::p ** k] += 1
        reduce = np.arange(q * q) % q  # y mod q for -(q-1)^2 <= y < q, negatives by wrapping
        while True:
            v_rows = valuation[rows]
            at = int(v_rows.argmin())
            v = int(v_rows.flat[at])
            if v == s:
                break
            total *= p ** (s - v)
            i, j = divmod(at, width)
            pv = p ** v
            inverse = pow(int(rows[i, j]) // pv, -1, q)
            factor = rows[:, j] // pv * inverse % q
            if track:
                clear = rows[i] // pv * inverse % q
                clear[j] = 0
                columns = reduce[columns - columns[:, j, None] * clear]
                level[j] = v
                pivots.append((offset + j, pv, inverse, q // pv))
                pivot_rows.append(combos[i])
                combos = reduce[combos - factor[:, None] * combos[i]]
            rows = reduce[rows - factor[:, None] * rows[i]]
        if not track:
            continue
        parts.append(np.einsum("yi,xik->xyk", embed, columns.reshape(n, r, width)) % q)
        moduli.append(p ** level)
        generators.append((basis, np.array(pivot_rows), gens))
        offset += width
    if not track:
        return total, None
    return total, (np.concatenate(parts, axis=2), np.concatenate(moduli),
                   np.array(pivots).T, generators)


def _p_basis(add: np.ndarray, p: int) -> tuple[np.ndarray, int, np.ndarray]:
    """A basis b_1, b_2, ... of the p-part R_p of (R, +) with orders
    p^e_1 >= p^e_2 >= ..., s = e_1, and the additive map R -> (Z/p^s)^r
    that embeds R_p: row z = sum c_i * b_i of R_p holds the c_i * p^(s - e_i),
    and any other row z that of its p-part e_p * z, where e_p = 1 mod |R_p|
    and e_p = 0 mod n/|R_p|.

    Each b is an element x of largest order p^e modulo the span S so far,
    lifted: p^e * x = sum c_i * b_i with every c_i divisible by p^e, because
    each b_i was chosen of largest order, so b = x - sum (c_i / p^e) * b_i
    has order p^e and S + <b> is direct.
    """
    def times(k: int, x: np.ndarray) -> np.ndarray:
        """k * x for every element of x, by doubling."""
        acc = np.zeros_like(x)
        while k:
            if k & 1:
                acc = add[acc, x]
            x = add[x, x]
            k >>= 1
        return acc

    n = len(add)
    elements = np.arange(n)
    p_order = 1
    while n % (p_order * p) == 0:
        p_order *= p
    part = np.flatnonzero(times(p_order, elements) == 0)
    times_p = times(p, elements)
    inside = elements == 0
    embed = np.zeros((n, len(part).bit_length()), dtype=np.intp)
    basis = np.zeros(embed.shape[1], dtype=np.intp)
    r = s = 0
    while not inside[part].all():
        # order[i] = e with p^e * part[i] the first multiple in S, at w[i]
        order, w = np.zeros(len(part), dtype=np.intp), part
        while (outside := ~inside[w]).any():
            order += outside
            w = np.where(outside, times_p[w], w)
        i = int(order.argmax())
        e = int(order[i])
        s = s or e
        lift = np.flatnonzero(inside & (embed == embed[w[i]] // p ** e).all(axis=1))[0]
        basis[r] = np.flatnonzero(add[:, lift] == part[i])[0]  # b + lift = x
        members, step = np.flatnonzero(inside), 0
        for j in range(1, p ** e):
            step = add[step, basis[r]]
            grown = add[members, step]
            embed[grown] = embed[members]
            embed[grown, r] = j * p ** (s - e)
            inside[grown] = True
        r += 1
    cofactor = n // p_order
    return basis[:r], s, embed[times(cofactor * pow(cofactor, -1, p_order), elements), :r]


polynomial_function_set.cache_info = _function_set.cache_info
polynomial_function_set.cache_clear = _function_set.cache_clear


def is_polynomial_function(ring: FiniteRing, table) -> Polynomial | None:
    """A witness polynomial inducing the table, or None when none exists."""
    return polynomial_function_set(ring).lookup(table)[1]


def interpolate_field(field: FiniteRing, table) -> Polynomial:
    """The unique polynomial of degree < q = |F| inducing the table, in O(q^2):
    c_0 = f(0) and c_j = -sum_a f(a) a^(q-1-j) for 1 <= j <= q-1, with
    0^0 = 1 (``_interpolant`` with the unity as the one idempotent)."""
    if not analyze(field).is_field:
        raise UnsupportedStructureError(f"{field.label} is not a field")
    return _interpolant(field, (field.unity,), _table_values(field, table))


def char_poly_for_subset(ring: FiniteRing, subset) -> Polynomial | None:
    """Witness for the 0/1-valued indicator table of a subset, if one exists."""
    if ring.unity is None:
        raise UnsupportedStructureError("indicator tables need 0 and 1 as values")
    subset = SubsetMask.of(ring, subset)
    return is_polynomial_function(ring, tuple(ring.unity if x in subset else 0
                                              for x in range(ring.order)))
