"""Polynomials over a finite ring and the set of functions they induce.

Evaluation follows the non-unital convention exactly: for
f = a_0 + a_1 X + ... + a_n X^n the value at r is a_0 + sum a_i * r^i,
with the constant entering as a ring element (never as a_0 * r^0).  Left
coefficients are used throughout, so noncommutative rings are supported.

The set of all functions induced by polynomials is an additive subgroup G of
R^R: power vectors v_k(x) = x^k repeat with preperiod t and period p, so
G = {constants} + span{a * v_k : a in R, 1 <= k <= t+p-1}.  Its size is
always exact and never materialises a table (``function_count``): a
product of fields has a closed form, and any other ring is counted per
prime as a Z/p^s-lattice.  The same elimination, with its column
operations recorded, gives a syndrome map that decides membership
without a witness on any ring and at any cap (``contains``).

A product of fields (a commutative unital ring without nonzero
nilpotents; a field is the one-factor case) is answered analytically by
its primitive idempotents e: R is the sum of the fields eR, a table F is
induced iff e*F(x) = e*F(e*x) for every e and x, and one interpolant sums
each field's closed form inside R.  On every other ring the exact count is
compared with the cap before any work.  A set within the cap is
materialised by growing G one generator at a time: the multiples of a
generator g split the grown group into disjoint cosets H + i*g, so rows are
concatenated and never deduplicated, and a witness coefficient row is kept
per table.  A set over the cap materialises nothing: ``lookup`` answers
unknown there, while ``contains`` reads the syndrome.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import count, product
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
    "IncompleteSearchError",
    "DEFAULT_CAP",
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

DEFAULT_CAP = 1 << 24


class IncompleteSearchError(RuntimeError):
    """Membership could not be decided because the function set is over its cap."""


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
    """All function tables induced by polynomials over one ring; ``count``
    is always exact (``function_count``).

    Materialised: ``tables`` holds one row per reachable function and
    ``witnesses`` a parallel coefficient row realising it; ``index`` maps
    each row's bytes to its position.

    Analytic (``idempotents`` given): the ring is the product of the fields
    eR for its primitive ``idempotents`` e (one for a field: ``field_mode``).
    A table F is induced iff e*F(x) = e*F(e*x) for every e and x;
    witnesses are interpolated on demand.

    Over the cap (``complete`` False): nothing is materialised; ``lookup``
    answers unknown, and ``contains`` reads the lattice syndrome.
    """

    def __init__(self, ring: FiniteRing, stabilization: tuple[int, int],
                 complete: bool, tables: np.ndarray | None,
                 witnesses: np.ndarray | None, index: dict[bytes, int] | None,
                 idempotents: tuple[int, ...] = (), count: int | None = None):
        self.ring = ring
        self._syndrome = None
        self.stabilization = stabilization
        self.complete = complete
        self.tables = tables
        self.witnesses = witnesses
        self.idempotents = idempotents
        self.field_mode = len(idempotents) == 1
        if idempotents:
            mul = ring.mul_table
            self.count = math.prod(q ** q for q in (len(set(mul[e])) for e in idempotents))
            self._pairs = [(mul[e], x, ex) for e in idempotents
                           for x, ex in enumerate(mul[e]) if ex != x]
        else:
            self.count = len(tables) if count is None else count
        self._index = index

    def __len__(self) -> int:
        return self.count

    def lookup(self, table) -> tuple[str, Polynomial | None]:
        """('present', witness) / ('absent', None) / ('unknown', None)."""
        values = _table_values(self.ring, table)
        if self.idempotents:
            if not self._induced(values):
                return "absent", None
            return "present", _interpolant(self.ring, self.idempotents, values)
        if not self.complete:
            return "unknown", None
        idx = self._index.get(bytes(values))
        if idx is None:
            return "absent", None
        return "present", _stripped(self.ring, self.witnesses[idx].tolist())

    def contains(self, table) -> bool:
        """Whether the table is induced, building no witness: a materialised
        set answers from its index, any other from the lattice syndrome."""
        values = _table_values(self.ring, table)
        if self.idempotents:
            return self.field_mode or self._induced(values)
        if self._index is None:
            parts, moduli = self._syndrome_map()
            return not (parts[np.arange(len(values)), values].sum(axis=0) % moduli).any()
        return bytes(values) in self._index

    def _syndrome_map(self) -> tuple[np.ndarray, np.ndarray]:
        """``parts[x, y]``, the syndrome of the table that is y at x and 0
        elsewhere, and ``moduli`` (``_lattice``), built once per set: a table
        F is induced iff sum_x parts[x, F(x)] is 0 modulo ``moduli``."""
        if self._syndrome is None:
            self._syndrome = _lattice(self.ring, track=True)[1:]
        return self._syndrome

    def indicator_supports(self) -> list[int]:
        """Every subset whose indicator (the unity on it, 0 elsewhere) is
        induced, the two constants included, as bit masks in increasing
        order; refuses rings of order above 32 before any work.

        An indicator's syndrome is the sum of the syndromes of the unity at
        each of its points, so the subsets of the lower and of the upper half
        of R are summed apart (2 * 2^(n/2) sums, not 2^n) and matched on
        syndromes that cancel.
        """
        ring = self.ring
        if ring.unity is None:
            raise UnsupportedStructureError("indicator tables need 0 and 1 as values")
        n = ring.order
        if n > 32:
            raise ValueError(f"indicator supports are enumerated only up to order 32, not {n}")
        parts, moduli = self._syndrome_map()
        moduli = moduli.astype(np.uint8)  # p^v <= n: sums of two stay below 2^8
        ones = parts[:, ring.unity].astype(np.uint8)
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
        found = []
        for low, row in enumerate(sums[0]):
            for high in upper.get(row.tobytes(), ()):
                found.append(low | high << half)
        return sorted(found)

    def _induced(self, values: tuple[int, ...]) -> bool:
        """e*F(x) = e*F(e*x) for every idempotent e and every x."""
        return all(project[values[x]] == project[values[ex]] for project, x, ex in self._pairs)

    def as_tuple_set(self, limit: int = 1 << 20) -> frozenset:
        """Every table as a tuple; refuses sets of more than ``limit`` tables,
        and sets over their cap, before any work."""
        if self.count > limit:
            raise ValueError("function set too large to materialise")
        if not self.complete:
            raise IncompleteSearchError(
                f"{self.ring.label}'s {self.count} functions are over the cap")
        if self.tables is not None:
            return frozenset(map(tuple, self.tables.tolist()))
        # Every choice of g_e: eR -> eR, summed as x -> sum_e g_e(e*x).
        n = self.ring.order
        add = np.array(self.ring.add_table, dtype=np.intp)
        rows = np.zeros((1, n), dtype=np.intp)
        for e in self.idempotents:
            ideal, position = np.unique(self.ring.mul_table[e], return_inverse=True)
            g = np.array(list(product(ideal.tolist(), repeat=len(ideal))))[:, position]
            rows = add[rows[:, None, :], g[None]].reshape(-1, n)
        return frozenset(map(tuple, rows.tolist()))


def polynomial_function_set(ring: FiniteRing, cap: int = DEFAULT_CAP) -> PolyFunctionSet:
    """The set {r -> a_0 + sum a_k r^k} of functions polynomials induce.

    A product of fields, a field included, is answered through its primitive
    idempotents: the set is complete, and witnesses are interpolated on
    demand; the cap does not apply, since no row is materialised.  On every
    other ring the exact ``function_count`` is compared with ``cap`` before
    any work: a set of at most ``cap`` functions is grown as explicit tables
    by coset growth, and a larger one materialises nothing, keeps its exact
    count and answers every lookup unknown (complete=False).  ``contains``
    is exact on every set; ``cap=0`` gives the row-free set that
    ``function_count`` reads.

    Cached per (ring, cap) however the arguments are passed.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    return _function_set(ring, cap)


@lru_cache(maxsize=None)
def _function_set(ring: FiniteRing, cap: int) -> PolyFunctionSet:
    inv = analyze(ring)
    if inv.is_commutative and inv.is_unital and inv.nilpotents.size == 1:
        idempotents = (ring.unity,) if inv.is_field else \
            tuple(f.idempotent for f in local_decomposition(ring))
        return PolyFunctionSet(ring, power_stabilization(ring), complete=True, tables=None,
                               witnesses=None, index=None, idempotents=idempotents)
    count = _lattice(ring)[0]
    if count > cap:
        return PolyFunctionSet(ring, power_stabilization(ring), complete=False, tables=None,
                               witnesses=None, index=None, count=count)
    pset = _coset_growth(ring)
    if pset.count != count:
        raise InternalInvariantError(f"{ring.label}: coset growth built {pset.count} "
                                     f"functions, the lattice counts {count}")
    return pset


def _coset_growth(ring: FiniteRing) -> PolyFunctionSet:
    """The group generated by the constants and every a * v_k, grown one
    generator at a time as explicit tables."""
    n = ring.order
    t, p = power_stabilization(ring)
    if n > 255:
        raise ValueError("function-set machinery is limited to orders <= 255")
    add = np.array(ring.add_table, dtype=np.uint8)
    mul = np.array(ring.mul_table, dtype=np.uint8)
    m = t + p - 1
    powers = np.empty((m + 1, n), dtype=np.uint8)
    powers[1] = np.arange(n, dtype=np.uint8)
    for k in range(2, m + 1):
        powers[k] = mul[powers[k - 1], powers[1]]

    # H starts as {0}.  For a generator g the least i with i*g in H splits
    # H + <g> into the disjoint cosets H + j*g, j < i, so the new rows are
    # appended as they come.  A row h + j*g is witnessed by h's coefficients
    # with a_k replaced by a_k + j*a, by distributivity of left coefficients.
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
    return PolyFunctionSet(ring, (t, p), True, tables, wits, index)


# ---------------------------------------------------------------------------
# exact counts: the function group as a Z/p^s-lattice per prime
# ---------------------------------------------------------------------------

def function_count(ring: FiniteRing) -> int:
    """|G|, the number of functions R -> R induced by polynomials, exactly
    and without materialising a table, on any finite ring: the count of the
    set ``polynomial_function_set(ring, 0)``, which builds no row.

    A product of fields has prod |eR|^|eR| over its primitive idempotents e;
    any other ring is counted by ``_lattice``.
    """
    return _function_set(ring, 0).count


def _lattice(ring: FiniteRing, track: bool = False
             ) -> tuple[int, np.ndarray | None, np.ndarray | None]:
    """|G| as the product of its p-parts |G_p|, each the order of a lattice,
    and with ``track`` the syndrome map that decides membership in G.

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

    Clearing the pivot's row too, by column operations recorded in V,
    brings M to U*M*V = D with one entry u*p^v per pivot column and none
    elsewhere (Howell, "Spans in the module (Z_m)^s", 1986), so a vector w
    is in the row span of M iff (w*V)_j = 0 mod p^v_j for every column j,
    with v_j = s where no pivot fell.  A table F is in G iff for each p its
    p-part e_p * F passes (``_p_basis`` maps each value to its p-part);
    without that projection a ring such as Z/12 would test its 3-part
    against the 2-part's lattice.
    """
    n = ring.order
    add = np.array(ring.add_table, dtype=np.intp)
    mul = np.array(ring.mul_table, dtype=np.intp)
    t, period = power_stabilization(ring)
    powers = np.empty((t + period, n), dtype=np.intp)  # x^0 is never read
    powers[1] = np.arange(n)
    for k in range(2, t + period):
        powers[k] = mul[powers[k - 1], powers[1]]
    total, rest = 1, n
    parts, moduli = [], []
    for p in range(2, n + 1):
        if rest % p:  # smaller primes are divided out, so p | rest means p is prime
            continue
        while rest % p == 0:
            rest //= p
        basis, s, embed = _p_basis(add, p)
        q = p ** s
        gens = np.concatenate((basis[:, None] + np.zeros((1, n), dtype=np.intp),
                               mul[basis[:, None, None], powers[1:]].reshape(-1, n)))
        rows = embed[gens].reshape(len(gens), -1)
        width = rows.shape[1]
        columns = np.eye(width, dtype=np.intp) if track else None  # V
        level = np.full(width, s)  # v_j
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
            if track:
                clear = rows[i] // pv * inverse % q
                clear[j] = 0
                columns = reduce[columns - columns[:, j, None] * clear]
                level[j] = v
            rows = reduce[rows - (rows[:, j] // pv * inverse % q)[:, None] * rows[i]]
        if not track:
            continue
        kept = level > 0
        modulus = p ** level[kept]
        per_point = columns[:, kept].reshape(n, embed.shape[1], -1)
        parts.append(np.einsum("yi,xik->xyk", embed, per_point) % modulus)
        moduli.append(modulus)
    if not track:
        return total, None, None
    return total, np.concatenate(parts, axis=2), np.concatenate(moduli)


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


def is_polynomial_function(ring: FiniteRing, table,
                           cap: int = DEFAULT_CAP) -> Polynomial | None:
    """A witness polynomial inducing the table, or None when provably none exists.

    Raises IncompleteSearchError when the ring induces more than ``cap``
    functions, so that its set is not materialised.
    """
    pset = polynomial_function_set(ring, cap)
    status, witness = pset.lookup(table)
    if status == "unknown":
        raise IncompleteSearchError(
            f"{ring.label} induces {pset.count} functions, over the cap of {cap}; "
            "membership undecided")
    return witness


def interpolate_field(field: FiniteRing, table) -> Polynomial:
    """The unique polynomial of degree < q = |F| inducing the table, in O(q^2):
    c_0 = f(0) and c_j = -sum_a f(a) a^(q-1-j) for 1 <= j <= q-1, with
    0^0 = 1 (``_interpolant`` with the unity as the one idempotent)."""
    if not analyze(field).is_field:
        raise UnsupportedStructureError(f"{field.label} is not a field")
    return _interpolant(field, (field.unity,), _table_values(field, table))


def char_poly_for_subset(ring: FiniteRing, subset,
                         cap: int = DEFAULT_CAP) -> Polynomial | None:
    """Witness for the 0/1-valued indicator table of a subset, if one exists.

    Absence is decided by the row-free set at any cap; a present indicator
    fetches its witness as ``is_polynomial_function`` does, so over the cap
    it raises IncompleteSearchError.
    """
    if ring.unity is None:
        raise UnsupportedStructureError("indicator tables need 0 and 1 as values")
    subset = SubsetMask.of(ring, subset)
    values = tuple(ring.unity if x in subset else 0 for x in range(ring.order))
    if not polynomial_function_set(ring, 0).contains(values):
        return None
    return is_polynomial_function(ring, values, cap)
