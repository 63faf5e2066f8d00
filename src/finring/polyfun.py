"""Polynomials over a finite ring and the set of functions they induce.

Evaluation follows the non-unital convention exactly: for
f = a_0 + a_1 X + ... + a_n X^n the value at r is a_0 + sum a_i * r^i,
with the constant entering as a ring element (never as a_0 * r^0).  Left
coefficients are used throughout, so noncommutative rings are supported.
Polynomial arithmetic and evaluation read one nested-list view of the
ring's tables (``_table_lists``); the function sets read its arrays.

The set of all functions induced by polynomials is an additive subgroup G of
R^R: power vectors v_k(x) = x^k repeat with preperiod t and period p, so
G = {constants} + span{a * v_k : a in R, 1 <= k <= t+p-1}, read from the
ring's power table (``core._powers``).  Every answer is exact, on any ring,
from one of three engines that ``_function_set`` picks by structure:

* a field answers analytically (``_Field``): every table is induced, and
  its interpolant is the closed form, one matrix product;
* any other commutative unital ring whose local factors are all chain
  rings (a product of fields included, each factor of depth N = 1)
  answers factor by factor from a P-ordering of each (``_Chain``): no
  elimination, and a closed-form count certified when the set is built;
* any other ring runs one elimination per prime of G as a Z/p^s-lattice
  (``_lattice``), whose pivot rows count G, solve each table and carry
  their witnesses.

``PolyFunctionSet`` keeps what they share: a chain or lattice set of at
most ``INDEX_LIMIT`` tables solves its first lookup and is enumerated into
an index on its second, and a larger one solves every lookup.  The engines
read one additive coordinate map per ring (``_coordinates``), in which a
ring sum is a sum of digits.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import count, zip_longest
from typing import TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

from .core import (
    FiniteRing,
    InternalInvariantError,
    SubsetMask,
    UnsupportedStructureError,
    _factorize,
    _Local,
    _local_factors,
    _powers,
    analyze,
    binary_power,
    per_ring,
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

INDEX_LIMIT = 1 << 16  # sets of at most this many tables are indexed from their second lookup


@dataclass(frozen=True)
class Polynomial:
    """Coefficient vector (a_0, a_1, ...) of element indices over a fixed ring.

    ``Polynomial(ring, coeffs)`` checks that every coefficient is an element
    index.  The results of ``poly_add``, ``poly_neg``, ``poly_mul`` and
    ``poly_scale`` (so of ``poly_sub``, ``poly_pow`` and P2.6's reduced
    powers too) and the lookup witnesses skip the check (``_trusted``):
    their coefficients are read from the ring's own tables."""

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
    """A total function between rings as a dense vector of codomain indices,
    checked when a caller builds one; ``function_table``'s values are read
    from the ring's tables and are not checked again."""

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


def _table_lists(ring: FiniteRing) -> tuple[list, list]:
    """The + and * tables as nested lists (``per_ring``): at these orders list loops beat numpy."""
    return ring.add_table.tolist(), ring.mul_table.tolist()


def poly_add(f: Polynomial, g: Polynomial) -> Polynomial:
    r = _same_ring(f, g)
    add = per_ring(r, _table_lists)[0]
    return _trusted(r, tuple(add[a][b] for a, b in zip_longest(f.coeffs, g.coeffs, fillvalue=0)))


def poly_neg(f: Polynomial) -> Polynomial:
    return _trusted(f.ring, tuple(f.ring.neg(c) for c in f.coeffs))


def poly_sub(f: Polynomial, g: Polynomial) -> Polynomial:
    return poly_add(f, poly_neg(g))


def poly_mul(f: Polynomial, g: Polynomial) -> Polynomial:
    r = _same_ring(f, g)
    fd, gd = f.degree, g.degree
    if fd is None or gd is None:
        return Polynomial(r, ())
    add, mul = per_ring(r, _table_lists)
    terms = [(j, b) for j, b in enumerate(g.coeffs[: gd + 1]) if b]
    out = [0] * (fd + gd + 1)
    for i, a in enumerate(f.coeffs[: fd + 1]):
        if a:
            by_a = mul[a]
            for j, b in terms:
                out[i + j] = add[out[i + j]][by_a[b]]
    return _trusted(r, tuple(out))


def poly_pow(f: Polynomial, k: int) -> Polynomial:
    if k == 0:
        if f.ring.unity is None:
            raise UnsupportedStructureError("f^0 needs unity")
        return poly_const(f.ring, f.ring.unity)
    return binary_power(poly_mul, f, k)


def poly_scale(c: int, f: Polynomial) -> Polynomial:
    """Left scalar multiple c * f."""
    by_c = per_ring(f.ring, _table_lists)[1][c]
    return _trusted(f.ring, tuple(by_c[a] for a in f.coeffs))


def poly_eval(f: Polynomial, r: int) -> int:
    """Evaluate a_0 + sum_{i>=1} a_i * r^i with powers taken in the coefficient ring."""
    if not 0 <= r < f.ring.order:
        raise ValueError("element out of the ring's range")
    add, mul = per_ring(f.ring, _table_lists)
    acc = f.coeffs[0] if f.coeffs else 0
    power = None
    for c in f.coeffs[1:]:
        power = r if power is None else mul[power][r]
        if c:
            acc = add[acc][mul[c][power]]
    return acc


def function_table(f: Polynomial) -> FunctionTable:
    """Tabulate f over every element of its coefficient ring."""
    table = object.__new__(FunctionTable)  # without the checks, as in ``_trusted``
    object.__setattr__(table, "domain", f.ring)
    object.__setattr__(table, "codomain", f.ring)
    object.__setattr__(table, "values", tuple(poly_eval(f, x) for x in range(f.ring.order)))
    return table


def image(f: Polynomial) -> SubsetMask:
    """The set of values f takes on its coefficient ring."""
    return SubsetMask.from_indices(f.ring, set(function_table(f).values))


# ---------------------------------------------------------------------------
# power stabilization and the function set
# ---------------------------------------------------------------------------

def power_stabilization(ring: FiniteRing) -> tuple[int, int]:
    """Least (t, p) with x^(k+p) = x^k for every x and every k >= t, read
    off the ring's power table (``core._powers``)."""
    return per_ring(ring, _powers)[1:]


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


_ABOVE = [bytes(b >= n for b in range(256)) for n in range(257)]  # 1 at each byte >= n


def _table_view(ring: FiniteRing, table) -> bytes | array:
    """A table's values as one validated view of element indices of ``ring``:
    bytes, or an array of unsigned shorts on a ring above order 256.

    A tuple or list is read in one pass by ``bytes`` or ``array``, which
    take exactly the values that ``operator.index`` takes, and then checked
    for its length and range: bytes by mapping each byte through
    ``_ABOVE[n]`` (``bytes.translate``), which must give no 1, and an array
    by its largest value.  Any other table, and any that this rejects, goes
    through ``_table_values``, so every malformed table raises the same
    ValueError."""
    n = ring.order
    small = n <= 256
    if not small:  # only these rings need the array module
        from array import array
    if type(table) in (tuple, list):
        try:
            view = bytes(table) if small else array("H", table)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if len(view) == n and (1 not in view.translate(_ABOVE[n]) if small
                                   else max(view) < n):
                return view
    values = _table_values(ring, table)
    return bytes(values) if small else array("H", values)


def _view_array(view: bytes | array) -> np.ndarray:
    """``_table_view``'s view as a numpy array, without a copy."""
    return np.frombuffer(view, np.uint8 if type(view) is bytes else np.uint16)


def _trusted(ring: FiniteRing, coeffs: tuple[int, ...]) -> Polynomial:
    """Polynomial(ring, coeffs) made without ``__post_init__``'s checks:
    only for a tuple of ints that are element indices by construction,
    such as values read from the ring's own tables."""
    poly = object.__new__(Polynomial)
    object.__setattr__(poly, "ring", ring)
    object.__setattr__(poly, "coeffs", coeffs)
    return poly


def _witness(ring: FiniteRing, coeffs: list[int]) -> Polynomial:
    """The polynomial with these coefficients, trailing zeros dropped, made
    without checking them (``_trusted``): only for coefficients that are
    element indices by construction."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return _trusted(ring, tuple(coeffs))


class PolyFunctionSet:
    """All function tables induced by polynomials over one ring: ``count``
    is exact, and every lookup is decided, with a witness when present.

    ``engine`` (``_function_set`` picks it) has ``count``; ``multiples(view)``,
    what it solves a table for, or None when the table is not induced;
    ``witness(multiples)``, the witness's coefficients; and ``summands()``,
    lists of choices whose sums, one choice from each, give every table of
    G once (None on ``_Field``, which interpolates more cheaply).

    A set with summands, at most ``INDEX_LIMIT`` tables and order at most
    256 solves its first ``lookup`` and enumerates itself (``_enumerate``)
    on the second into ``tables``, a parallel coefficient row in
    ``witnesses``, and an index from each table's bytes to its row, whose
    witness is built from the row's bytes on its first hit and shared
    later; a one-off lookup so costs one solve, not the whole set.  Any
    other lookup solves; ``contains`` reads the index once it is built.
    The index is probed with a table's bytes (``_row``); any other table is
    validated once (``_table_view``), and no witness is checked again
    (``_trusted``).

    ``complete`` is always True; it stays for readers of earlier releases.
    """

    def __init__(self, ring: FiniteRing, engine: _Field | _Chain | _Lattice):
        self.ring = ring
        self.engine = engine
        self.count = engine.count
        self.complete = True
        self.tables = self.witnesses = None
        self._index = self._witness_cache = None
        self._solved = False  # whether a lookup has solved, so that the next builds the index

    def lookup(self, table) -> tuple[str, Polynomial | None]:
        """('present', witness) or ('absent', None)."""
        if self._index is not None:
            row = self._row(table)
        else:
            view = _table_view(self.ring, table)
            engine = self.engine
            if (not self._solved or engine.summands is None or self.count > INDEX_LIMIT
                    or self.ring.order > 256):
                self._solved = True
                multiples = engine.multiples(view)
                if multiples is None:
                    return "absent", None
                return "present", _witness(self.ring, engine.witness(multiples).tolist())
            row = self._table_index().get(view)
        if row is None:
            return "absent", None
        witness = self._witness_cache[row]
        if witness is None:  # the index is bytes-keyed, so its witness rows are uint8
            witness = self._witness_cache[row] = _trusted(
                self.ring, tuple(self.witnesses[row].tobytes().rstrip(b"\0")))
        return "present", witness

    def contains(self, table) -> bool:
        """Whether the table is induced: from the index once a lookup has
        built it, and solved for the multiples before."""
        if self._index is not None:
            return self._row(table) is not None
        return self.engine.multiples(_table_view(self.ring, table)) is not None

    def _row(self, table) -> int | None:
        """The table's row in the index, or None when it is not induced.  A
        tuple or list is turned into bytes once and probed once: a hit needs
        no range check, since every key is the bytes of a valid table, and a
        miss checks the same bytes as ``_table_view`` does.  Any other
        table, and one that fails, goes through ``_table_view``, which
        raises its ValueError on a malformed one."""
        if type(table) in (tuple, list):
            try:
                key = bytes(table)
            except (TypeError, ValueError):
                pass
            else:
                row = self._index.get(key)
                n = self.ring.order
                if row is not None or len(key) == n and 1 not in key.translate(_ABOVE[n]):
                    return row
        return self._index.get(_table_view(self.ring, table))

    def _enumerate(self) -> tuple[np.ndarray, np.ndarray]:
        """Every table of G and a witness row for each: one choice from each
        of the engine's summands, summed in mixed radix, the summands with
        the fewest choices first, which adds the fewest rows.  The index
        needs order n <= 256, so y + c = add[c, y] is entry c n + y of the
        flat uint8 table, an offset below 2^16."""
        n = self.ring.order
        flat = self.ring.add_table.astype(np.uint8).ravel()
        summands = sorted(self.engine.summands(), key=len)
        both = np.zeros((1, summands[0].shape[1]), dtype=np.uint8)  # table | row
        for choices in summands:
            both = np.concatenate([flat[offset + both]
                                   for offset in (choices * n).astype(np.uint16)])
        return np.split(both, [n], axis=1)

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
                raise InternalInvariantError(f"{self.ring.label}: the summands span "
                                             f"{len(self._index)} tables, not {self.count}")
            self._witness_cache = [None] * self.count
        return self._index


class _Field:
    """A field of order q: all q^q tables are induced, and a witness is one
    matrix product (``witness``)."""

    summands = None  # never indexed: one interpolation costs less than an index

    def __init__(self, ring: FiniteRing):
        self.ring = ring
        self.count = ring.order ** ring.order

    def multiples(self, view: bytes | array) -> bytes | array:
        """The view itself: every table is induced."""
        return view

    def witness(self, view: bytes | array) -> np.ndarray:
        """The coefficients of the least-degree polynomial inducing the
        table F, with c_0 = F(0).  F is read only from ``_table_view``'s
        validated view, and each coefficient is an entry of ``decode``,
        which the coordinate map checked once.

        c_j = -sum_a F(a) a^(q-1-j) for 1 <= j < q, with 0^0 = 1, since in
        characteristic p every C(q-1, j) is (-1)^j.  In the field's additive
        coordinates (``_coordinates``, mod p) with basis b,
        coord_l(-F(a) a^k) = sum_i coord_i(a^k) L[F(a), (i, l)], where
        L[y, (i, l)] = coord_l(-y b_i), so all the sums are one product
        Y @ X of Y[j, (a, i)] = coord_i(a^(q-1-j)) and X = L[F(x)] over
        every x, taken mod p per coordinate, whose mixed-radix key
        ``decode`` maps back to an element.  Row 0 of Y holds coord(-1) at
        x = 0, so it gives c_0 = F(0) the same way.  The product is exact:
        with r coordinates its partial sums are integers below q r (p-1)^2,
        under 2^24 on every field of order at most 256.
        """
        L, Y, moduli, weights, decode = self._setup
        x = L.take(_view_array(view), axis=0).reshape(Y.shape[1], -1)
        return decode[(Y.dot(x).astype(np.intp) % moduli).dot(weights)]

    @cached_property
    def _setup(self) -> tuple:
        """``witness``'s fixed factors, built on its first call and kept on
        the engine: L, Y, and the moduli, weights and decode table of the
        field's coordinate map.

        The powers are rows of the field's power table (``core._powers``):
        the column of a point a lists the coordinates of a^(q-2), ..., a^1
        from row 1 on, and of a^0 = 1, at a = 0 too, in row q - 1.  Y and L
        are float32, exact while the product's partial sums stay below
        2^24, and float64 beyond.
        """
        ring, n = self.ring, self.ring.order
        coordinates = per_ring(ring, _coordinates)
        basis, moduli, coords = coordinates.basis, coordinates.moduli, coordinates.digits
        powers = per_ring(ring, _powers)[0]
        index = np.zeros((n, n), dtype=powers.dtype)  # Y[j, x] = coord(index[j, x])
        index[1:n - 1] = powers[n - 2:0:-1]  # 0^k = 0
        index[n - 1] = ring.unity
        index[0, 0] = ring.neg_table[ring.unity]
        dtype = np.float32 if n * len(basis) * (moduli.max() - 1) ** 2 < 1 << 24 else float
        Y = np.take(coords.astype(dtype), index, axis=0)
        L = coords[ring.mul_table[:, basis][ring.neg_table]].reshape(n, -1).astype(dtype)
        return L, Y.reshape(n, -1), moduli, coordinates.weights, coordinates.decode


class _Lattice:
    """Any ring: G is the direct sum of the cyclic groups <g_a> of
    ``_lattice``, and ``count`` the product of their orders."""

    def __init__(self, ring: FiniteRing):
        self.ring = ring
        self.basis = _lattice(ring)
        self.count = math.prod(self.basis.orders.tolist())

    def multiples(self, view: bytes | array) -> np.ndarray | None:
        """The multiples z_a with F = sum_a z_a * g_a for the table F, or
        None when F is not induced.  For F's embedded row w, S = w[J] V is
        z_a * u_a * p^v_a modulo p^s (``_lattice``), so F is absent unless
        p^v_a divides S_a, and z_a = S_a / p^v_a * u_a^-1 mod p^(s - v_a).
        The product z G gives the digits of sum_a z_a * g_a, which must be
        F's."""
        basis, values = self.basis, _view_array(view)
        coords = per_ring(self.ring, _coordinates)
        syndrome = coords.digits[values[basis.points], basis.digits] @ self._clearing
        if (syndrome % basis.shifts).any():
            return None
        z = syndrome // basis.shifts * basis.inverses % basis.orders
        if not np.array_equal(coords.element((z @ basis.rows).reshape(-1, len(coords.basis))),
                              values):
            return None
        return z

    def witness(self, z: np.ndarray) -> np.ndarray:
        """The witness coefficients of the table with multiples z: z C
        gives their digits, for the g_a's coefficient digits C."""
        coords = per_ring(self.ring, _coordinates)
        return coords.element((z @ self.basis.coefficients).reshape(-1, len(coords.basis)))

    def summands(self) -> list[np.ndarray]:
        """Per g_a, its multiples (table, then witness coefficients)."""
        basis, coords = self.basis, per_ring(self.ring, _coordinates)
        rows = np.hstack((basis.rows, basis.coefficients))
        return [coords.element(np.arange(order)[:, None, None] * row)  # digits of j * g_a
                for row, order in zip(rows.reshape(len(rows), -1, len(coords.basis)),
                                      basis.orders.tolist())]

    @cached_property
    def _clearing(self) -> np.ndarray:
        """V = W^-1 of ``_lattice`` on the pivots' unscaled digits, built on
        the first solve and kept on the engine.  Row a of W V = 1 is
        V[a] = e_a - sum_(b>a) W[a, b] V[b], from the last row up; two
        primes' pivots meet only in zeros, so column j is taken mod its p^s."""
        basis, coords = self.basis, per_ring(self.ring, _coordinates)
        q = basis.shifts * basis.orders
        scale = q // coords.moduli[basis.digits]
        block = basis.rows[:, basis.points * len(coords.basis) + basis.digits] * scale
        ratios = block // basis.shifts[:, None] * basis.inverses[:, None] % q[:, None]  # W
        inverse = np.eye(len(q), dtype=np.intp)
        for a in range(len(q) - 2, -1, -1):
            inverse[a, a + 1:] = -ratios[a, a + 1:] @ inverse[a + 1:, a + 1:] % q[a + 1:]
        return inverse * scale[:, None]


class _Chain:
    """A commutative unital ring whose local factors eR are all chain rings
    (``_chain_factor``; a local ring is the one-factor case), read from R's
    own tables: G is the direct sum of the eR * B_(e,k) over e and
    k < mu_e, and ``count`` is prod_e prod_(k<mu) q^(N - w_q(k)).  Each
    c_(e,k) of a table is unique modulo pi^(N - w_q(k)); the canonical one
    is the point a_i with i < q^(N - w_q(k)), so a solve and the index give
    the same witness sum c_(e,k) * B_(e,k), of degree < max mu.  Counting
    builds neither ``_columns`` nor ``_solver``."""

    def __init__(self, ring: FiniteRing, factors: list[_ChainFactor]):
        self.ring = ring
        self.factors = factors
        self.count = math.prod(f.q ** sum(f.depth - w for w in f.weights) for f in factors)

    def multiples(self, view: bytes | array) -> np.ndarray | None:
        """The digit sums of the witness of the table F (``witness`` decodes
        them), or None when F is not induced.  On factor e, F's values y at
        a_0, ..., a_(mu-1) satisfy e*y = c T for the triangle
        T[k, j] = B_k(a_j) = D W, with D = diag(pi^(w_q(k)) u_k) and W unit
        upper triangular, so z = y S, for S = W^-1 diag(u_k^-1) over eR
        (``_solver``), is c_k pi^(w_q(k)): F is absent unless pi^(w_q(k))
        divides z_k, and the canonical c_k is z_k's digits shifted down by
        w_q(k) (``_solver``'s ``canonical``).  One product of c's digits
        then gives the digits of sum c_(e,k) * B_(e,k), which must be F,
        and of its coefficients."""
        values, coords = _view_array(view), per_ring(self.ring, _coordinates)
        at, scales, offsets, canonical, columns, digits = self._solver
        c = canonical[offsets + _decode(coords, digits[values[at]].ravel() @ scales)]
        if c[c.argmin()] < 0:  # an early exit: the table check would fail too
            return None
        sums = digits[c].ravel() @ columns  # n r digits of the table, then the witness's
        table = _decode(coords, sums[:digits.size]).astype(values.dtype)
        return sums[digits.size:] if table.tobytes() == values.tobytes() else None

    def witness(self, sums: np.ndarray) -> np.ndarray:
        """The coefficients of sum_(e,k) c_(e,k) * B_(e,k), from their digit sums."""
        return _decode(per_ring(self.ring, _coordinates), sums)

    def summands(self) -> list[np.ndarray]:
        """Per slot (e, k), c * B_(e,k) for every canonical c: its table, then its coefficients."""
        rows = iter(np.hstack(self._columns))
        return [self.ring.mul_table[f.points[:f.q ** (f.depth - w), None], next(rows)]
                for f in self.factors for w in f.weights]

    @cached_property
    def _columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Per slot (e, k), B_(e,k)'s table, B_(e,k)(e*x) at x, and its
        coefficients, from B_(k+1) = (X - a_k) B_k; built on the first lookup."""
        ring, width = self.ring, max(len(f.weights) for f in self.factors)
        add, mul, neg = ring.add_table, ring.mul_table, ring.neg_table
        tables, coefficients = [], []
        for f in self.factors:
            tables.append(f.values[:, f.positions[mul[f.unity]]])
            coeffs = np.zeros((len(f.weights), width), dtype=np.intp)
            coeffs[0, 0] = f.unity
            for k in range(1, len(f.weights)):  # degree k - 1 < width - 1: the roll is X B
                times_a = neg[mul[f.points[k - 1], coeffs[k - 1]]]
                coeffs[k] = add[np.roll(coeffs[k - 1], 1), times_a]
            coefficients.append(coeffs)
        return np.concatenate(tables), np.concatenate(coefficients)

    @cached_property
    def _solver(self) -> tuple:
        """``multiples``' points, the ``_digit_matrix`` of block-diagonal S,
        the offsets k n and ``canonical``, the digit matrix of the B_(e,k)'s
        tables and coefficients side by side, and the digit table as floats,
        built on the first solve and kept.  Per factor,
        W[k, j] = u_k^-1 T[k, j] / pi^(w_q(k)), each quotient a digit shift,
        and V = W^-1 from V[a] = e_a - sum_(b>a) W[a, b] V[b], last row up.
        ``canonical`` holds at k n + z the canonical c_k with
        c_k pi^(w_q(k)) = z, or -1 where pi^(w_q(k)) does not divide z."""
        ring, mul, size = self.ring, self.ring.mul_table, len(self._columns[0])
        coords = per_ring(ring, _coordinates)
        scales = np.zeros((size, size), dtype=np.intp)
        at, canonical, slot = [], [], 0
        for f in self.factors:
            mu = len(f.weights)
            divisor = f.q ** np.array(f.weights)
            quotients = f.points[f.positions[f.values[:, :mu]] // divisor[:, None]]
            inverted = mul[quotients.diagonal()[:, None], f.points] == f.unity
            inverses = f.points[inverted.argmax(axis=1)]  # u_k^-1
            ratios = mul[inverses[:, None], quotients]  # W
            inverse = np.where(np.eye(mu, dtype=bool), f.unity, 0)  # V
            for a in range(mu - 2, -1, -1):  # the digits of W[a, b] V[b], summed over b > a
                sums = coords.digits[mul[ratios[a, a + 1:, None], inverse[a + 1:, a + 1:]]]
                inverse[a, a + 1:] = ring.neg_table[coords.element(sums.sum(axis=0))]
            scales[slot:slot + mu, slot:slot + mu] = mul[inverse, inverses]
            at += f.points[:mu].tolist()
            shifted, left = np.divmod(f.positions, divisor[:, None])  # z = y S lies in eR
            canonical.append(np.where(left == 0, f.points[shifted], -1))
            slot += mu
        return (np.array(at), _digit_matrix(ring, scales),
                np.arange(size) * ring.order, np.concatenate(canonical).ravel(),
                _digit_matrix(ring, np.hstack(self._columns)), coords.digits.astype(float))


def _digit_matrix(ring: FiniteRing, rows: np.ndarray) -> np.ndarray:
    """M[(a, i), (x, l)] = coord_l(b_i * rows[a, x]) over R's additive basis
    b (``_coordinates``), as floats: the scalars' digits times M are the
    digit sums of sum_a scalars[a] * rows[a] (``_decode``)."""
    coords = per_ring(ring, _coordinates)
    products = ring.mul_table[coords.basis[:, None], rows[:, None, :]]  # [a, i, x]
    return coords.digits[products].reshape(len(rows) * len(coords.basis), -1).astype(float)


def _decode(coords: _Coordinates, digits: np.ndarray) -> np.ndarray:
    """The elements with these digit sums, a basis's length at a time: each sums at most
    n log2(n) products below n^2, so it is exact in float64 up to order 2^16."""
    return coords.element(digits.astype(np.intp).reshape(-1, len(coords.basis)))


def polynomial_function_set(ring: FiniteRing) -> PolyFunctionSet:
    """The set {r -> a_0 + sum a_k r^k} of functions polynomials induce.

    A field is answered by its closed form (``_Field``); any other
    commutative unital ring whose local factors are all chain rings, a
    product of fields included, through a P-ordering of each factor
    (``_Chain``); and any other ring through its lattice (``_Lattice``).  No
    table is built until a lookup needs one, and every answer is exact.

    Cached per ring however the argument is passed.
    """
    return _function_set(ring)


@lru_cache(maxsize=None)
def _function_set(ring: FiniteRing) -> PolyFunctionSet:
    inv = analyze(ring)
    if inv.is_field:
        return PolyFunctionSet(ring, _Field(ring))
    if inv.is_commutative and inv.is_unital:
        factors = [_chain_factor(ring, local) for local in per_ring(ring, _local_factors)]
        if None not in factors:
            return PolyFunctionSet(ring, _Chain(ring, factors))
    return PolyFunctionSet(ring, _Lattice(ring))


# ---------------------------------------------------------------------------
# exact counts: the function group as a Z/p^s-lattice per prime
# ---------------------------------------------------------------------------

def function_count(ring: FiniteRing) -> int:
    """|G|, the number of functions R -> R induced by polynomials, exactly
    and without materialising a table, on any finite ring.

    A field of order q has q^q; any other commutative unital ring whose
    local factors are chain rings has prod_e prod_(k<mu) q^(N - w_q(k)),
    certified on its tables (``_chain_factor``), which is prod_e q^q on a
    product of fields; any other ring is counted by ``_lattice``.
    """
    return _function_set(ring).count


class _Basis(NamedTuple):
    """``_lattice``'s cyclic groups <g_a>, in pivot order: row a of ``rows``
    holds the digits of g_a(x) for every x, and of ``coefficients`` those of
    its witness's coefficient at every x^k.  Pivot a is coordinate
    ``digits[a]`` of the value at ``points[a]``, with the shift p^v_a,
    u_a^-1 mod p^s and the order p^(s - v_a) of g_a."""

    rows: np.ndarray
    coefficients: np.ndarray
    points: np.ndarray
    digits: np.ndarray
    shifts: np.ndarray
    inverses: np.ndarray
    orders: np.ndarray


def _lattice(ring: FiniteRing) -> _Basis:
    """G as a direct sum of cyclic groups <g_a>, each with a witness, from
    one elimination per prime: |G| is the product of their orders.

    G is the Z-span of the constants b and the tables b * x^k
    (k = 1..t+p-1) for b in an additive basis of R, since a * x^k is
    additive in a; noncommutative and non-unital rings need nothing extra.
    Per prime p, the ring's coordinates (``_coordinates``) embed the p-part
    R_p in (Z/p^s)^r, with b_i's coordinate c_i scaled to c_i * p^(s - e_i),
    so the generators' tables for the basis b of R_p become the rows of a
    matrix M over Z/p^s.  Each step pivots on an entry of least valuation v
    among all rows, which divides every other entry of its column and row;
    clearing the column leaves a summand Z/p^(s-v), so |G_p| = prod p^(s - v)
    over the pivots (Storjohann and Mulders, "Fast algorithms for linear
    algebra modulo N", ESA 1998).  A table F is in G iff for each p its
    p-part e_p * F is in G_p, and the embedding reads a value's digits on
    R_p, which are its p-part's.

    Each pivot row g_a is kept as it stood when chosen, with its
    combination U_a of the generators, carried as M's extra columns, which
    gives its witness.  Every later row is 0 at the pivot's column j_a, so
    the block G[:, J] of the pivot columns is upper triangular with diagonal
    u_a * p^v_a, and p^v_a divides row a.  It is D W over Z/p^s for
    D = diag(u_a * p^v_a) and a unit upper-triangular W, so V = W^-1
    (``_Lattice._clearing``) clears it to D: z G[:, J] V = z D.
    G is the direct sum of the <g_a>, so each z_a is unique modulo
    p^(s - v_a) and every witness is determined.
    """
    n = ring.order
    mul = ring.mul_table
    coords = per_ring(ring, _coordinates)
    powers = per_ring(ring, _powers)[0]  # row 0 is never read
    m, rank = len(powers), len(coords.basis)
    basis_rows, points, digits, shifts, inverses, orders = ([] for _ in range(6))
    for p, s, cols in coords.primes:
        basis, q = coords.basis[cols], p ** s
        scale = q // coords.moduli[cols]
        embed = coords.digits[:, cols] * scale
        r = len(basis)
        # row k*r + i is the table of b_i * x^k, and of the constant b_i at k = 0,
        # and then U, the digits of its coefficient b_i at x^k
        gens = np.concatenate((np.repeat(basis[:, None], n, axis=1),
                               mul[basis[:, None], powers[1:, None]].reshape(-1, n)))
        width = n * r
        rows = np.hstack((embed[gens].reshape(-1, width), np.eye(len(gens), dtype=np.intp)))
        valuation = np.zeros(q, dtype=np.int8)
        for k in range(1, s + 1):
            valuation[::p ** k] += 1
        reduce = np.arange(q * q) % q  # y mod q for -(q-1)^2 <= y < q, negatives by wrapping
        picked = []
        while True:
            v_rows = valuation[rows[:, :width]]
            at = int(v_rows.argmin())
            v = int(v_rows.flat[at])
            if v == s:
                break
            i, j = divmod(at, width)
            pv = p ** v
            inverse = pow(int(rows[i, j]) // pv, -1, q)
            picked.append(rows[i].copy())
            points.append(j // r)
            digits.append(cols.start + j % r)
            shifts.append(pv)
            inverses.append(inverse)
            orders.append(q // pv)
            rows = reduce[rows - (rows[:, j] // pv * inverse % q)[:, None] * rows[i]]
        picked = np.array(picked)
        full = np.zeros((len(picked), n + m, rank), dtype=np.intp)
        full[:, :n, cols] = picked[:, :width].reshape(-1, n, r) // scale
        full[:, n:, cols] = picked[:, width:].reshape(-1, m, r)
        basis_rows.append(full.reshape(len(picked), -1))
    pivots = map(np.array, (points, digits, shifts, inverses, orders))
    return _Basis(*np.hsplit(np.concatenate(basis_rows), [n * rank]), *pivots)


# ---------------------------------------------------------------------------
# chain rings: the function group from a P-ordering of each local factor
# ---------------------------------------------------------------------------

class _ChainFactor(NamedTuple):
    """A chain ring factor eR (``_chain_factor``): its unity, q, N, w_q(k) for
    k < mu, the points a_i (i < q^N), each element's digit index i (0 off
    eR), and B_k(a_i) at [k, i]."""

    unity: int
    q: int
    depth: int
    weights: list[int]
    points: np.ndarray
    positions: np.ndarray
    values: np.ndarray


def _chain_factor(ring: FiniteRing, local: _Local) -> _ChainFactor | None:
    """The local factor eR (``core._local_factors``) as a chain ring, or None.

    pi is the element of the radical J_e with the largest nilpotency index
    N (0 and 1 on a field), and q = |eR/J_e|.  Each of the N steps
    eR > pi eR > ... > pi^N eR = 0 has index at least q, so eR is a chain
    ring (pi eR = J_e) exactly when q^N = |eR|.  Then the points
    a_i = sum_j t_(d_j) pi^j, over the base-q digits d_j of i < q^N and the
    least elements t_0 = 0, t_1, ... of the cosets of J_e, are distinct
    (one bincount), and y = a_i is pi^v u for a unit u, v being the number
    of trailing zero digits of i.  With B_k = e prod_(i<k) (X - a_i),
    w_q(k) = sum_(j>=1) floor(k / q^j) and mu the least k with w_q(k) >= N,
    the valuation of B_k(x) is at least w_q(k) on eR, and w_q(k) at a_k,
    for each k < mu, and B_mu vanishes on eR (a P-ordering): checked here
    (InternalInvariantError otherwise), and all the count needs.  The monic
    B_k span every polynomial, and if sum c_k B_k vanishes then, at a_0,
    a_1, ... in turn, c_k B_k(a_k) = 0, so c_k is in pi^(N - w_q(k)) eR,
    where c_k B_k vanishes: G_e is the direct sum of the eR B_k, of orders
    q^(N - w_q(k)).
    """
    n, (rows, t, _) = ring.order, per_ring(ring, _powers)
    add, mul, neg = ring.add_table, ring.mul_table, ring.neg_table
    e, elements, radical, _, reps = local
    depths = (rows[1:t, radical] != 0).sum(axis=0) + 1  # nilpotency indices
    pi, depth = int(radical[depths.argmax()]), int(depths.max())
    q = len(elements) // len(radical)
    if q ** depth != len(elements):
        return None
    powers = np.array([e, *rows[1:depth, pi].tolist()])
    points = np.zeros(1, dtype=np.intp)
    for step in mul[powers[:, None], reps]:  # a_(d q^j + i) = t_d pi^j + a_i
        points = add[step[:, None], points].ravel()
    if np.bincount(points, minlength=n).max() > 1:
        raise InternalInvariantError(f"{ring.label}: two points of the factor e={e} coincide")
    positions = np.zeros(n, dtype=np.intp)
    positions[points] = np.arange(len(points))
    weights = _p_ordering_weights(q, depth)
    mu = len(weights)
    differences = add[points, neg[points[:mu, None]]]  # [k, i]: a_i - a_k
    values = [np.full(len(points), e)]
    for row in differences:
        values.append(mul[values[-1], row])
    values = np.array(values)
    valuation = np.zeros(len(points), dtype=np.intp)
    for j in range(1, depth + 1):
        valuation[::q ** j] += 1
    found, w = valuation[positions[values[:mu]]], np.array(weights)
    if values[mu].any() or (found.min(axis=1) != w).any() or (found.diagonal() != w).any():
        raise InternalInvariantError(f"{ring.label}: the points of the factor e={e} are not "
                                     "a P-ordering")
    return _ChainFactor(e, q, depth, weights, points, positions, values[:mu])


def _p_ordering_weights(q: int, depth: int) -> list[int]:
    """w_q(k) = sum_(j>=1) floor(k / q^j) for every k < mu, the least k with
    w_q(k) >= depth."""
    weights = []  # k < mu <= q depth < q^(depth + 1), so j <= depth suffices
    while (w := sum(len(weights) // q ** j for j in range(1, depth + 1))) < depth:
        weights.append(w)
    return weights


# ---------------------------------------------------------------------------
# the additive coordinate map
# ---------------------------------------------------------------------------

class _Coordinates(NamedTuple):
    """(R, +) as the direct sum of cyclic groups <b_i> of orders p^e_i
    (``moduli``): x = sum_i c_i * b_i (0 <= c_i < p^e_i) has ``digits[x]`` = c
    and the mixed-radix key c . ``weights``, which ``decode`` maps back to
    x.  ``primes`` lists each prime p of |R| with the largest exponent s of
    its orders and the columns of its basis, which spans the p-part R_p.
    """

    basis: np.ndarray
    moduli: np.ndarray
    weights: np.ndarray
    digits: np.ndarray
    decode: np.ndarray
    primes: tuple[tuple[int, int, slice], ...]

    def element(self, digits: np.ndarray) -> np.ndarray:
        """The elements with these integer digits (last axis) mod the moduli,
        so a ring sum is an integer sum of digits."""
        return self.decode[(digits % self.moduli).dot(self.weights)]


def _coordinates(ring: FiniteRing) -> _Coordinates:
    """The ring's additive coordinates (``_additive_basis``), built once per
    ring through ``per_ring``; the decode table is checked here, once, to be
    a permutation of range(n) (InternalInvariantError otherwise), so every
    element decoded from it is an element index."""
    n = ring.order
    basis, moduli, primes, decode = _additive_basis(ring)
    if len(decode) != n or len(set(decode)) != n:  # its entries are elements
        raise InternalInvariantError(f"{ring.label}: the coordinate decode table is not a "
                                     f"permutation of range({n})")
    weights = np.array([math.prod(moduli[:i]) for i in range(len(moduli))], dtype=np.intp)
    moduli, decode = np.array(moduli, dtype=np.intp), np.array(decode)
    return _Coordinates(np.array(basis, dtype=np.intp), moduli, weights,
                        decode.argsort()[:, None] // weights % moduli, decode, primes)


def _additive_basis(ring: FiniteRing) -> tuple[list[int], list[int], tuple, list[int]]:
    """A basis b_i of (R, +) with the orders p^e_i, prime by prime in
    ascending order and p^e_1 >= p^e_2 >= ... per prime, each prime's s and
    columns, and the decode table of the mixed-radix keys (``_Coordinates``).

    Per prime p, each b is the least element x of R_p of largest order p^e
    modulo the span S of the b so far, lifted: p^e * x = sum c_i * b_i with
    every c_i divisible by p^e, because each b_i was chosen of largest
    order, so b = x - sum (c_i / p^e) * b_i has order p^e and S + <b> is
    direct.  No order modulo S exceeds the last one, nor the first the
    p-part p^s of the characteristic (the exponent of (R, +)), so a scan
    stops at the first x that reaches it: on a field, the least x outside
    S.  The scans read only R_p = {x : p^s * x = 0} (all of R when n is a
    power of p), where every element with a key lies in S.  z + j * b, for
    z in S and 1 <= j < p^e, has the key of z plus j times b's weight:
    ``decode`` grows by one block of |S| elements per multiple j * b, in
    O(n) reads in all.
    """
    n, add = ring.order, per_ring(ring, _table_lists)[0]
    characteristic = analyze(ring).characteristic
    plus = lambda u, v: add[u][v]
    key = [0] + [None] * (n - 1)
    decode, basis, moduli, primes = [0], [], [], []
    for p, a in _factorize(n):
        start, low = len(decode), len(basis)  # p's first weight and column
        s = bound = dict(_factorize(characteristic))[p]
        p_part = range(n) if p ** a == n else np.flatnonzero(  # R_p, ascending
            binary_power(lambda u, v: ring.add_table[u, v], np.arange(n), p ** s) == 0).tolist()
        while len(decode) < start * p ** a:
            best = None
            for x in p_part:
                if key[x] is not None:
                    continue
                w, e = binary_power(plus, x, p), 1  # w = p^e * x
                while key[w] is None and e < bound:
                    w, e = binary_power(plus, w, p), e + 1
                if best is None or e > best[1]:
                    best = x, e, w
                    if e == bound:
                        break
            x, bound, w = best
            lift, weight = 0, start  # the key of sum (c_i / p^e) * b_i
            for m in moduli[low:]:
                lift += key[w] // weight % m // p ** bound * weight
                weight *= m
            b, size = add[x][ring.neg(decode[lift])], len(decode)
            decode += [0] * (size * (p ** bound - 1))
            for k in range(size, len(decode)):  # (z + (j - 1) * b) + b, keyed size on
                decode[k] = add[decode[k - size]][b]
                key[decode[k]] = k
            basis.append(b)
            moduli.append(p ** bound)
        primes.append((p, s, slice(low, len(basis))))
    return basis, moduli, tuple(primes), decode


polynomial_function_set.cache_info = _function_set.cache_info
polynomial_function_set.cache_clear = _function_set.cache_clear


def is_polynomial_function(ring: FiniteRing, table) -> Polynomial | None:
    """A witness polynomial inducing the table, or None when none exists
    (the cached set is read without its wrapper: one call less per lookup)."""
    return _function_set(ring).lookup(table)[1]


def interpolate_field(field: FiniteRing, table) -> Polynomial:
    """The unique polynomial of degree < q = |F| inducing the table:
    c_0 = f(0) and c_j = -sum_a f(a) a^(q-1-j) for 1 <= j <= q-1, with
    0^0 = 1.  The field's function set interpolates (``_Field``), so
    this and its lookups share one matrix Y, built on the first call.  The
    table is validated once (a tuple or list in one pass, ``_table_view``),
    and each call is then one gather, one matrix product and one decode
    into a witness whose coefficients are not checked again."""
    if not analyze(field).is_field:
        raise UnsupportedStructureError(f"{field.label} is not a field")
    coeffs = _function_set(field).engine.witness(_table_view(field, table))
    return _witness(field, coeffs.tolist())


def char_poly_for_subset(ring: FiniteRing, subset) -> Polynomial | None:
    """Witness for the 0/1-valued indicator table of a subset, if one exists."""
    if ring.unity is None:
        raise UnsupportedStructureError("indicator tables need 0 and 1 as values")
    subset = SubsetMask.of(ring, subset)
    return is_polynomial_function(ring, tuple(ring.unity if x in subset else 0
                                              for x in range(ring.order)))
