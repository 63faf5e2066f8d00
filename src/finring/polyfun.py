"""Polynomials over a finite ring and the set of functions they induce.

Evaluation follows the non-unital convention exactly: for
f = a_0 + a_1 X + ... + a_n X^n the value at r is a_0 + sum a_i * r^i,
with the constant entering as a ring element (never as a_0 * r^0).  Left
coefficients are used throughout, so noncommutative rings are supported.

The set of all functions induced by polynomials is an additive subgroup of
R^R: power vectors v_k(x) = x^k repeat with preperiod t and period p, so
the whole set is {constants} + span{a * v_k : a in R, 1 <= k <= t+p-1}.
It is materialised by an iterated sumset over numpy arrays, with a witness
coefficient row kept per reachable function table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .core import (
    Embedding,
    FiniteRing,
    SubsetMask,
    UnsupportedStructureError,
    analyze,
    multiplicative_inverse,
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
    "is_polynomial_function",
    "interpolate_field",
    "char_poly_for_subset",
]

DEFAULT_CAP = 1 << 24


class IncompleteSearchError(RuntimeError):
    """Membership could not be decided because the function set hit its cap."""


@dataclass(frozen=True)
class Polynomial:
    """Coefficient vector (a_0, a_1, ...) of element indices over a fixed ring."""

    ring: FiniteRing
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if any(not 0 <= c < self.ring.order for c in self.coeffs):
            raise ValueError("coefficients must be element indices of the coefficient ring")

    @property
    def degree(self) -> int | None:
        """Largest exponent with a nonzero coefficient; None for the zero polynomial."""
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i] != 0:
                return i
        return None

    def stripped(self) -> "Polynomial":
        d = self.degree
        return Polynomial(self.ring, self.coeffs[: (d + 1) if d is not None else 0])

    def __repr__(self) -> str:
        return f"Polynomial({self.ring.label!r}, {list(self.coeffs)})"


@dataclass(frozen=True)
class FunctionTable:
    """A total function between rings as a dense vector of codomain indices."""

    domain: FiniteRing
    codomain: FiniteRing
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.domain.order:
            raise ValueError("table must assign a value to every domain element")
        if any(not 0 <= v < self.codomain.order for v in self.values):
            raise ValueError("table values out of codomain range")


def poly_from(ring: FiniteRing, coeffs: Iterable[int]) -> Polynomial:
    return Polynomial(ring, tuple(int(c) for c in coeffs))


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
    out = [0] * (fd + gd + 1)
    for i, a in enumerate(f.coeffs[: fd + 1]):
        if a == 0:
            continue
        for j, b in enumerate(g.coeffs[: gd + 1]):
            if b != 0:
                out[i + j] = r.add(out[i + j], r.mul(a, b))
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
    acc = f.coeffs[0] if f.coeffs else 0
    power = None
    for i in range(1, len(f.coeffs)):
        power = x if power is None else ring.mul(power, x)
        c = f.coeffs[i]
        if c != 0:
            acc = ring.add(acc, ring.mul(c, power))
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
    t = 1
    p = 1
    for x in range(ring.order):
        seen = {x: 1}
        prev = x
        k = 1
        while True:
            k += 1
            prev = ring.mul_table[prev][x]
            if prev in seen:
                tau = seen[prev]
                lam = k - tau
                break
            seen[prev] = k
        t = max(t, tau)
        p = math.lcm(p, lam)
    return t, p


@lru_cache(maxsize=None)
def _np_tables(ring: FiniteRing) -> tuple[np.ndarray, np.ndarray]:
    if ring.order > 255:
        raise ValueError("function-set machinery is limited to orders <= 255")
    add = np.array(ring.add_table, dtype=np.uint8)
    mul = np.array(ring.mul_table, dtype=np.uint8)
    return add, mul


class PolyFunctionSet:
    """All function tables induced by polynomials over one ring.

    ``tables`` holds one row per reachable function and ``witnesses`` a
    parallel coefficient row realising it.  For fields the set is every
    function, so it is represented analytically (``field_mode``) with
    membership answered by interpolation instead of materialising
    |F|^|F| rows.
    """

    def __init__(self, ring: FiniteRing, stabilization: tuple[int, int],
                 complete: bool, tables: np.ndarray | None,
                 witnesses: np.ndarray | None, count: int,
                 field_mode: bool = False):
        self.ring = ring
        self.stabilization = stabilization
        self.complete = complete
        self.tables = tables
        self.witnesses = witnesses
        self.count = count
        self.field_mode = field_mode
        self._lookup: dict[bytes, int] | None = None

    def __len__(self) -> int:
        return self.count

    def _ensure_lookup(self) -> dict[bytes, int]:
        if self._lookup is None:
            self._lookup = {row.tobytes(): i for i, row in enumerate(self.tables)}
        return self._lookup

    def _values_of(self, table) -> tuple[int, ...]:
        values = table.values if isinstance(table, FunctionTable) else tuple(table)
        if len(values) != self.ring.order:
            raise ValueError("table length differs from the ring order")
        return tuple(int(v) for v in values)

    def lookup(self, table) -> tuple[str, Polynomial | None]:
        """('present', witness) / ('absent', None) / ('unknown', None)."""
        values = self._values_of(table)
        if self.field_mode:
            return "present", interpolate_field(self.ring, values)
        key = bytes(values)
        idx = self._ensure_lookup().get(key)
        if idx is not None:
            row = self.witnesses[idx]
            return "present", Polynomial(self.ring, tuple(int(c) for c in row)).stripped()
        return ("absent", None) if self.complete else ("unknown", None)

    def contains(self, table) -> bool | None:
        status, _ = self.lookup(table)
        return {"present": True, "absent": False, "unknown": None}[status]

    def as_tuple_set(self, limit: int = 1 << 20) -> frozenset:
        """Every table as a tuple; materialises the field case up to ``limit``."""
        if self.field_mode:
            if self.count > limit:
                raise ValueError("function set too large to materialise")
            from itertools import product
            return frozenset(product(range(self.ring.order), repeat=self.ring.order))
        return frozenset(tuple(int(v) for v in row) for row in self.tables)

    def nontrivial_char_tables(self) -> list[tuple[tuple[int, ...], Polynomial]]:
        """All 0/1-valued non-constant tables in the set, with witnesses."""
        if self.ring.unity is None:
            raise UnsupportedStructureError("0/1-valued tables need unity")
        if self.field_mode:
            raise UnsupportedStructureError(
                "the field case represents every subset; enumerate subsets directly")
        one = self.ring.unity
        rows = self.tables
        zero_or_one = ((rows == 0) | (rows == one)).all(axis=1)
        constant = (rows == 0).all(axis=1) | (rows == one).all(axis=1)
        out = []
        for i in np.nonzero(zero_or_one & ~constant)[0]:
            row = tuple(int(v) for v in rows[i])
            wit = Polynomial(self.ring, tuple(int(c) for c in self.witnesses[i])).stripped()
            out.append((row, wit))
        return out


def _row_weights(n: int) -> np.ndarray | None:
    """Weights packing a length-n row of values < 2^bits into one uint64, if it fits."""
    bits = max(1, (n - 1).bit_length())
    if bits * n > 64:
        return None
    return (np.uint64(1) << (np.arange(n, dtype=np.uint64) * np.uint64(bits)))


def _unique_rows(rows: np.ndarray, weights: np.ndarray | None):
    """Deduplicate rows, keeping the first occurrence of each."""
    if weights is not None:
        keys = rows.astype(np.uint64) @ weights
        _, first = np.unique(keys, return_index=True)
        return rows[first], first
    return np.unique(rows, axis=0, return_index=True)


def polynomial_function_set(ring: FiniteRing, cap: int = DEFAULT_CAP,
                            field_shortcut: bool = True) -> PolyFunctionSet:
    """Materialise {r -> a_0 + sum a_k r^k} as explicit function tables.

    Fields short-circuit by default: there every table is induced, the count
    is |F|^|F|, and witnesses come from interpolation on demand.  Otherwise
    the set is built as constants + sum over k of {a * v_k}, one sumset step
    per power vector.  Candidates are generated in bounded chunks so the cap
    truncates (complete=False) before memory blows up.

    Cached per (ring, cap, field_shortcut) however the arguments are passed.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    return _function_set(ring, cap, field_shortcut)


@lru_cache(maxsize=None)
def _function_set(ring: FiniteRing, cap: int, field_shortcut: bool) -> PolyFunctionSet:
    n = ring.order
    t, p = power_stabilization(ring)
    inv = analyze(ring)
    if field_shortcut and inv.is_field:
        return PolyFunctionSet(ring, (t, p), complete=True, tables=None,
                               witnesses=None, count=n ** n, field_mode=True)

    add_np, mul_np = _np_tables(ring)
    m = t + p - 1
    powers = np.empty((m + 1, n), dtype=np.uint8)
    powers[1] = np.arange(n, dtype=np.uint8)
    for k in range(2, m + 1):
        powers[k] = mul_np[powers[k - 1], np.arange(n)]
    weights = _row_weights(n)

    tables = np.repeat(np.arange(n, dtype=np.uint8)[:, None], n, axis=1)
    wits = np.zeros((n, m + 1), dtype=np.uint8)
    wits[:, 0] = np.arange(n, dtype=np.uint8)
    complete = True
    for k in range(1, m + 1):
        scaled = mul_np[np.arange(n, dtype=np.intp)[:, None], powers[k][None, :]]
        gen, gen_first = _unique_rows(scaled, weights)
        if len(gen) == 1:
            continue  # only the zero multiple: v_k contributes nothing new
        coeff_of_gen = gen_first.astype(np.uint8)
        chunk = max(1, (1 << 21) // len(gen))
        cur_t = np.empty((0, n), dtype=np.uint8)
        cur_w = np.empty((0, m + 1), dtype=np.uint8)
        overflow = False
        for start in range(0, len(tables), chunk):
            part_t = tables[start:start + chunk]
            part_w = wits[start:start + chunk]
            cand = add_np[part_t[:, None, :], gen[None, :, :]].reshape(-1, n)
            cand_w = np.repeat(part_w[:, None, :], len(gen), axis=1)
            cand_w[:, :, k] = coeff_of_gen[None, :]
            cand_w = cand_w.reshape(-1, m + 1)
            merged = np.concatenate([cur_t, cand])
            merged_w = np.concatenate([cur_w, cand_w])
            cur_t, first = _unique_rows(merged, weights)
            cur_w = merged_w[first]
            if len(cur_t) > cap:
                overflow = True
                cur_t = cur_t[:cap]
                cur_w = cur_w[:cap]
                break
        tables, wits = cur_t, cur_w
        if overflow:
            complete = False
            break
    return PolyFunctionSet(ring, (t, p), complete, tables, wits, count=len(tables))


polynomial_function_set.cache_info = _function_set.cache_info
polynomial_function_set.cache_clear = _function_set.cache_clear


def is_polynomial_function(ring: FiniteRing, table,
                           cap: int = DEFAULT_CAP) -> Polynomial | None:
    """A witness polynomial inducing the table, or None when provably none exists.

    Raises IncompleteSearchError when the capped search cannot distinguish
    absence from truncation.
    """
    pset = polynomial_function_set(ring, cap)
    status, witness = pset.lookup(table)
    if status == "unknown":
        raise IncompleteSearchError(
            f"function set of {ring.label} truncated at {cap} tables; membership undecided")
    return witness


def interpolate_field(field: FiniteRing, table) -> Polynomial:
    """Lagrange interpolation: the degree < |F| polynomial matching the table."""
    inv = analyze(field)
    if not inv.is_field:
        raise UnsupportedStructureError(f"{field.label} is not a field")
    values = table.values if isinstance(table, FunctionTable) else tuple(table)
    if len(values) != field.order:
        raise ValueError("table length differs from the field order")
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


def char_poly_for_subset(ring: FiniteRing, subset,
                         cap: int = DEFAULT_CAP) -> Polynomial | None:
    """Witness for the 0/1-valued indicator table of a subset, if one exists."""
    if ring.unity is None:
        raise UnsupportedStructureError("indicator tables need 0 and 1 as values")
    if not isinstance(subset, SubsetMask):
        subset = SubsetMask.from_indices(ring, subset)
    values = tuple(ring.unity if x in subset else 0 for x in range(ring.order))
    return is_polynomial_function(ring, values, cap)
