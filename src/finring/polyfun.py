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
each field's closed form inside R.  That sum is linear in the additive
coordinates of R, so after a setup kept on the set each interpolant is
one gather, one matrix product and one decode.

Any other ring is answered by one elimination per prime, of G as a
Z/p^s-lattice (``_lattice``).  Untracked, it counts G without building a
table (``function_count``).  Tracked, it writes G as a direct sum of cyclic
groups <g_a>, each with a witness coefficient row, and gives a syndrome
map that decides membership (``contains``) and solves for the multiple of
each g_a.  ``lookup`` enumerates a set of at most ``INDEX_LIMIT`` tables
into an index on its first call, and solves on a larger one.  An index
hit returns the witness its row built on its first hit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .core import (
    FiniteRing,
    InternalInvariantError,
    SubsetMask,
    UnsupportedStructureError,
    analyze,
    binary_power,
    primitive_idempotents,
)

if TYPE_CHECKING:
    from array import array

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
        return _witness(self.ring, list(self.coeffs))

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
    if k == 0:
        if f.ring.unity is None:
            raise UnsupportedStructureError("f^0 needs unity")
        return poly_const(f.ring, f.ring.unity)
    return binary_power(poly_mul, f, k)


def poly_scale(c: int, f: Polynomial) -> Polynomial:
    """Left scalar multiple c * f."""
    return Polynomial(f.ring, tuple(f.ring.mul(c, a) for a in f.coeffs))


def poly_eval(f: Polynomial, r: int) -> int:
    """Evaluate a_0 + sum_{i>=1} a_i * r^i with powers taken in the coefficient ring."""
    ring = f.ring
    if not 0 <= r < ring.order:
        raise ValueError("element out of the ring's range")
    add, mul = ring.add_table, ring.mul_table
    acc = f.coeffs[0] if f.coeffs else 0
    power = None
    for c in f.coeffs[1:]:
        power = r if power is None else mul[power][r]
        if c:
            acc = add[acc][mul[c][power]]
    return acc


def function_table(f: Polynomial) -> FunctionTable:
    """Tabulate f over every element of its coefficient ring."""
    values = tuple(poly_eval(f, x) for x in range(f.ring.order))
    return FunctionTable(domain=f.ring, codomain=f.ring, values=values)


def image(f: Polynomial) -> SubsetMask:
    """The set of values f takes on its coefficient ring."""
    return SubsetMask.from_indices(f.ring, set(function_table(f).values))


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


def _table_view(ring: FiniteRing, table) -> bytes | array:
    """A table's values as one validated view of element indices of ``ring``:
    bytes, or an array of unsigned shorts on a ring above order 256.

    A tuple or list is read in one pass by ``bytes`` or ``array``, which
    take exactly the values that ``operator.index`` takes, and then checked
    for its length and largest value.  Any other table, and any that this
    rejects, goes through ``_table_values``, so every malformed table raises
    the same ValueError."""
    small = ring.order <= 256
    if not small:  # only these rings need the array module
        from array import array
    if type(table) in (tuple, list):
        try:
            view = bytes(table) if small else array("H", table)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if len(view) == ring.order and max(view) < ring.order:
                return view
    values = _table_values(ring, table)
    return bytes(values) if small else array("H", values)


def _view_array(view: bytes | array) -> np.ndarray:
    """``_table_view``'s view as a numpy array, without a copy."""
    return np.frombuffer(view, np.uint8 if type(view) is bytes else np.uint16)


def _witness(ring: FiniteRing, coeffs: list[int]) -> Polynomial:
    """The polynomial with these coefficients, trailing zeros dropped, made
    without ``Polynomial.__post_init__``: only for coefficients that are
    element indices by construction."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    witness = object.__new__(Polynomial)
    object.__setattr__(witness, "ring", ring)
    object.__setattr__(witness, "coeffs", tuple(coeffs))
    return witness


class PolyFunctionSet:
    """All function tables induced by polynomials over one ring: ``count``
    is exact, and every lookup is decided, with a witness when present.

    Analytic (``idempotents`` given): the ring is the product of the fields
    eR for its primitive ``idempotents`` e (one for a field: ``field_mode``).
    A table F is induced iff e*F(x) = e*F(e*x) for every e and x; its
    witness is interpolated by one matrix product over R's additive
    coordinates (``_interpolate``), whose fixed factor is built on the
    first interpolation and kept on the set.

    Lattice (any other ring): G is the direct sum of the cyclic groups
    <g_a> of ``_lattice``, each with a witness coefficient row.  On the
    first ``lookup``, a set of at most ``INDEX_LIMIT`` tables is enumerated
    from them: ``tables`` holds every table, ``witnesses`` a parallel
    coefficient row, and an index maps each table's bytes to its row.  An
    index hit returns its row's witness, built on the row's first hit and
    the same (frozen) object on every later one.  A larger set solves each
    lookup for the multiples z_a and sums the z_a-fold witness rows.
    ``contains`` reads the index once it is built, and the syndrome
    otherwise.

    On every engine, ``lookup`` and ``contains`` validate a table once,
    into the view that each step reads (``_table_view``), and build each
    witness without checking its coefficients again (``_witness``): the
    index rows, the decode table and the ring's addition table hold only
    element indices.

    ``complete`` is always True; it stays for readers of earlier releases.
    """

    def __init__(self, ring: FiniteRing, idempotents: tuple[int, ...] = (),
                 count: int | None = None):
        self.ring = ring
        self.complete = True
        self.tables = self.witnesses = None
        self.idempotents = idempotents
        self.field_mode = len(idempotents) == 1
        self._basis = self._rows = self._index = self._witness_cache = self._setup = None
        if idempotents:
            mul = ring.mul_table
            self.count = math.prod(q ** q for q in (len(set(mul[e])) for e in idempotents))
            self._pairs = [(mul[e], x, ex) for e in idempotents
                           for x, ex in enumerate(mul[e]) if ex != x]
        else:
            self.count = count

    def lookup(self, table) -> tuple[str, Polynomial | None]:
        """('present', witness) or ('absent', None)."""
        view = _table_view(self.ring, table)
        if self.idempotents:
            if not self._induced(view):
                return "absent", None
            return "present", self._interpolate(view)
        if self.count <= INDEX_LIMIT and self.ring.order <= 256:  # bytes keys need values < 256
            idx = self._table_index().get(view)
            if idx is None:
                return "absent", None
            witness = self._witness_cache[idx]
            if witness is None:
                witness = self._witness_cache[idx] = _witness(self.ring,
                                                              self.witnesses[idx].tolist())
            return "present", witness
        parts, moduli, (columns, shifts, inverses, orders), _ = self._lattice_basis()
        syndrome = parts[np.arange(len(view)), _view_array(view)].sum(axis=0)
        if (syndrome % moduli).any():
            return "absent", None
        z = syndrome[columns] // shifts * inverses % orders
        rows, _, times, add = self._witness_rows()
        return "present", _witness(self.ring, _ring_sum(add, times[z[:, None], rows]).tolist())

    def contains(self, table) -> bool:
        """Whether the table is induced, building no witness: from the index
        once a lookup has built it, and from the lattice syndrome before."""
        view = _table_view(self.ring, table)
        if self.idempotents:
            return self.field_mode or self._induced(view)
        if self._index is not None:
            return view in self._index
        parts, moduli = self._lattice_basis()[:2]
        return not (parts[np.arange(len(view)), _view_array(view)].sum(axis=0) % moduli).any()

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
            add = self.ring.add_array
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
        """The bytes of every table mapped to its row, built once per set,
        with one empty witness slot per row for ``lookup`` to fill.  The
        witness rows are checked here, once, to hold only element indices
        (InternalInvariantError otherwise), so no witness built from them
        is checked again."""
        if self._index is None:
            n = self.ring.order
            self.tables, self.witnesses = self._enumerate()
            if self.witnesses.max(initial=0) >= n:  # unsigned, so never negative
                raise InternalInvariantError(f"{self.ring.label}: an index witness row "
                                             f"leaves range({n})")
            keys = self.tables.view(np.dtype((np.void, n))).ravel().tolist()
            self._index = dict(zip(keys, count()))
            if len(self._index) != self.count:
                raise InternalInvariantError(f"{self.ring.label}: the lattice basis spans "
                                             f"{len(self._index)} tables, not {self.count}")
            self._witness_cache = [None] * self.count
        return self._index

    def _interpolate(self, view: bytes | array) -> Polynomial:
        """The least-degree polynomial inducing an induced table F on a
        product of fields, with c_0 = F(0).  F is read only from
        ``_table_view``'s validated view, and the witness is made without
        checking its coefficients again (``_witness``): each is an entry of
        ``decode``, which the setup checked once.

        On the field eR of order q, c_j = -sum_{a in eR} F(a) a^(q-1-j) for
        1 <= j < q, with a^0 = e, since a^k lies in eR and in characteristic
        p every C(q-1, j) is (-1)^j; R's c_j sums these over e.  In additive
        coordinates (``_field_coordinates``) with basis b, coord_l(F(a) a^k)
        = sum_i coord_i(a^k) L[F(a), (i, l)], where L[y, (i, l)] =
        coord_l(y b_i), so all the sums are one product Y @ X of
        Y[j, (a, i)] = coord_i(a^(q-1-j)) and X = L[F(x)] over every x of R,
        taken mod p per coordinate, whose mixed-radix key ``decode`` maps to
        the negated element.  Row 0 of Y holds coord(-1) at x = 0, so it
        gives c_0 = F(0) the same way.  The product is exact: with r
        coordinates its partial sums are integers below n r (p-1)^2, under
        2^24 on every ring of order at most 256.
        """
        L, Y, moduli, weights, decode = self._interpolation_setup()
        x = L.take(_view_array(view), axis=0).reshape(Y.shape[1], -1)
        keys = (Y.dot(x).astype(np.intp) % moduli).dot(weights)
        return _witness(self.ring, decode[keys].tolist())

    def _interpolation_setup(self) -> tuple:
        """``_interpolate``'s fixed factors, built on its first call and kept
        on the set: L, Y, the coordinate moduli and mixed-radix weights, and
        the decode table, checked here to hold only element indices.

        Powers are filled by block doubling, a^(k+j) = a^k a^j, in log2(q)
        gathers; the columns of a point a of eR list the coordinates of
        a^(q-2), ..., a^0 from row 1 on, and then zeros, up to the largest
        factor's q - 1 rows.  0 lies in every eR, so its columns sum the
        factors'; an x in no eR has zero columns.  Y and L are float32,
        exact while the product's partial sums stay below 2^24, and float64
        beyond.
        """
        if self._setup is None:
            ring, n = self.ring, self.ring.order
            mul = ring.mul_table
            fields = [[x for x in range(n) if mul[e][x] == x] for e in self.idempotents]
            basis, moduli, key = _field_coordinates(ring, fields)
            weights = np.cumprod([1, *moduli[:-1]])
            key = np.array(key)
            coords = key[:, None] // weights % moduli
            decode = np.full(n, n, dtype=np.intp)  # n stays where no element is keyed
            decode[key] = ring.neg_table
            if decode.max() >= n:
                raise InternalInvariantError(f"{ring.label}: the interpolation's decode table "
                                             f"leaves range({n})")
            sizes = [len(field) for field in fields]
            points, top = np.concatenate(fields), max(sizes)
            small = ring.mul_array.astype(np.min_scalar_type(n - 1))
            powers = np.empty((top, len(points)), dtype=small.dtype)  # powers[k, a] = a^k
            powers[0] = np.repeat(self.idempotents, sizes)
            powers[1] = points
            k = 1  # rows 0..k are filled
            while k < top - 1:
                step = min(k, top - 1 - k)
                powers[k + 1:k + 1 + step] = small[powers[1:step + 1], powers[k]]
                k += step
            index = np.zeros((top, n), dtype=small.dtype)  # Y[j, x] = coord(index[j, x])
            start = 0
            for e, q in zip(self.idempotents, sizes):  # each field lists 0 first
                index[1:q, points[start + 1:start + q]] = powers[q - 2::-1, start + 1:start + q]
                index[q - 1, 0] = ring.add(int(index[q - 1, 0]), e)  # 0^0 = e, 0^k = 0
                start += q
            index[0, 0] = ring.neg_table[ring.unity]
            dtype = np.float32 if n * len(basis) * (max(moduli) - 1) ** 2 < 1 << 24 else float
            Y = np.take(coords.astype(dtype), index, axis=0)
            L = coords[small[:, basis]].reshape(n, -1).astype(dtype)
            self._setup = L, Y.reshape(top, -1), np.array(moduli), weights, decode
        return self._setup

    def _induced(self, values: bytes | array) -> bool:
        """e*F(x) = e*F(e*x) for every idempotent e and every x."""
        return all(project[values[x]] == project[values[ex]] for project, x, ex in self._pairs)


def _ring_sum(add: np.ndarray, terms) -> np.ndarray:
    """The elementwise ring sum of the arrays in ``terms`` (at least one)."""
    acc, *rest = terms
    for term in rest:
        acc = add[acc, term]
    return acc


def _field_coordinates(ring: FiniteRing, fields: list[list[int]]
                       ) -> tuple[list[int], list[int], list[int]]:
    """Additive coordinates on a product of the fields eR whose elements
    ``fields`` lists: a basis b_i of R, the prime p_i = ord(b_i), and
    key[x] = sum_i c_i * w_i for x = sum_i c_i * b_i (0 <= c_i < p_i), with
    w_i = p_1 * ... * p_(i-1).

    Each b_i is the least element of some eR outside the span S so far.  It
    has the prime order of eR's characteristic, so S + <b_i> is direct, and
    z + c*b_i for z in S is keyed key[z] + c*w_i: every element is keyed
    once, in O(n) reads of the addition table.
    """
    add = ring.add_table
    key = [0] + [None] * (ring.order - 1)
    members, basis, moduli, weight = [0], [], [], 1
    for field in fields:
        for b in field:
            if key[b] is not None:
                continue
            multiples = [b]  # c*b for 1 <= c < p
            while (m := add[multiples[-1]][b]) != 0:
                multiples.append(m)
            grown = []
            for c, cb in enumerate(multiples, 1):
                row, shift = add[cb], c * weight
                for z in members:
                    key[row[z]] = key[z] + shift
                    grown.append(row[z])
            members += grown
            basis.append(b)
            moduli.append(len(multiples) + 1)
            weight *= len(multiples) + 1
    return basis, moduli, key


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
        return PolyFunctionSet(ring, idempotents=primitive_idempotents(ring))
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
    add, mul = ring.add_array, ring.mul_array
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
    has order p^e and S + <b> is direct, grown from S in one gather over
    the multiples j * b, 1 <= j < p^e.
    """
    n = len(add)
    elements = np.arange(n)

    def times(k: int) -> np.ndarray:
        """k * x for every element x, by doubling."""
        return binary_power(lambda a, b: add[a, b], elements, k)

    p_order = 1
    while n % (p_order * p) == 0:
        p_order *= p
    part = np.flatnonzero(times(p_order) == 0)
    times_p = times(p)
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
        members, column = np.flatnonzero(inside), add[:, basis[r]].tolist()
        multiples = [column[0]]  # j * b for 1 <= j < p^e
        while len(multiples) < p ** e - 1:
            multiples.append(column[multiples[-1]])
        grown = add[members, np.array(multiples)[:, None]]  # grown[j - 1]: S + j * b
        embed[grown] = embed[members]
        embed[grown, r] = (np.arange(1, p ** e) * p ** (s - e))[:, None]
        inside[grown] = True
        r += 1
    cofactor = n // p_order
    return basis[:r], s, embed[times(cofactor * pow(cofactor, -1, p_order)), :r]


polynomial_function_set.cache_info = _function_set.cache_info
polynomial_function_set.cache_clear = _function_set.cache_clear


def is_polynomial_function(ring: FiniteRing, table) -> Polynomial | None:
    """A witness polynomial inducing the table, or None when none exists."""
    return polynomial_function_set(ring).lookup(table)[1]


def interpolate_field(field: FiniteRing, table) -> Polynomial:
    """The unique polynomial of degree < q = |F| inducing the table:
    c_0 = f(0) and c_j = -sum_a f(a) a^(q-1-j) for 1 <= j <= q-1, with
    0^0 = 1.  The field's function set interpolates (``_interpolate``), so
    this and its lookups share one matrix Y, built on the first call.  The
    table is validated once (a tuple or list in one pass, ``_table_view``),
    and each call is then one gather, one matrix product and one decode
    into a witness whose coefficients are not checked again."""
    if not analyze(field).is_field:
        raise UnsupportedStructureError(f"{field.label} is not a field")
    return _function_set(field)._interpolate(_table_view(field, table))


def char_poly_for_subset(ring: FiniteRing, subset) -> Polynomial | None:
    """Witness for the 0/1-valued indicator table of a subset, if one exists."""
    if ring.unity is None:
        raise UnsupportedStructureError("indicator tables need 0 and 1 as values")
    subset = SubsetMask.of(ring, subset)
    return is_polynomial_function(ring, tuple(ring.unity if x in subset else 0
                                              for x in range(ring.order)))
