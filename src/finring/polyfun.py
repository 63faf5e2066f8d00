"""Polynomials over a finite ring and the set of functions they induce.

Evaluation follows the non-unital convention exactly: for
f = a_0 + a_1 X + ... + a_n X^n the value at r is a_0 + sum a_i * r^i,
with the constant entering as a ring element (never as a_0 * r^0).  Left
coefficients are used throughout, so noncommutative rings are supported.

The set of all functions induced by polynomials is an additive subgroup of
R^R: power vectors v_k(x) = x^k repeat with preperiod t and period p, so
the whole set is {constants} + span{a * v_k : a in R, 1 <= k <= t+p-1}.
It is materialised by growing that group one generator at a time: the
multiples of a generator g split the grown group into disjoint cosets
H + i*g, so rows are concatenated and never deduplicated.  A witness
coefficient row is kept per reachable function table.
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
    SubsetMask,
    UnsupportedStructureError,
    analyze,
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


def _table_values(ring: FiniteRing, table) -> tuple[int, ...]:
    """A table's values as element indices of ``ring``; ValueError unless each is one."""
    raw = table.values if isinstance(table, FunctionTable) else table
    try:
        values = tuple(map(operator.index, raw))
    except TypeError:
        raise ValueError("table values must be integer element indices") from None
    if len(values) != ring.order:
        raise ValueError("table length differs from the ring order")
    if min(values) < 0 or max(values) >= ring.order:
        raise ValueError(f"table values must lie in range({ring.order})")
    return values


class PolyFunctionSet:
    """All function tables induced by polynomials over one ring.

    ``tables`` holds one row per reachable function and ``witnesses`` a
    parallel coefficient row realising it; ``index`` maps each row's bytes
    to its position.  Without tables (``field_mode``) the set is every
    function of a field, represented analytically instead of materialising
    |F|^|F| rows: membership is answered without interpolation, witnesses
    on demand.
    """

    def __init__(self, ring: FiniteRing, stabilization: tuple[int, int],
                 complete: bool, tables: np.ndarray | None,
                 witnesses: np.ndarray | None, index: dict[bytes, int] | None):
        self.ring = ring
        self.stabilization = stabilization
        self.complete = complete
        self.tables = tables
        self.witnesses = witnesses
        self.field_mode = tables is None
        self.count = ring.order ** ring.order if self.field_mode else len(tables)
        self._index = index

    def __len__(self) -> int:
        return self.count

    def lookup(self, table) -> tuple[str, Polynomial | None]:
        """('present', witness) / ('absent', None) / ('unknown', None)."""
        values = _table_values(self.ring, table)
        if self.field_mode:
            return "present", interpolate_field(self.ring, values)
        idx = self._index.get(bytes(values))
        if idx is not None:
            row = self.witnesses[idx]
            return "present", Polynomial(self.ring, tuple(int(c) for c in row)).stripped()
        return ("absent", None) if self.complete else ("unknown", None)

    def contains(self, table) -> bool | None:
        """True / False / None (undecided at the cap), building no witness."""
        values = _table_values(self.ring, table)
        if self.field_mode or bytes(values) in self._index:
            return True
        return False if self.complete else None

    def as_tuple_set(self, limit: int = 1 << 20) -> frozenset:
        """Every table as a tuple; materialises the field case up to ``limit``."""
        if self.field_mode:
            if self.count > limit:
                raise ValueError("function set too large to materialise")
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


def polynomial_function_set(ring: FiniteRing, cap: int = DEFAULT_CAP,
                            field_shortcut: bool = True) -> PolyFunctionSet:
    """Materialise {r -> a_0 + sum a_k r^k} as explicit function tables.

    Fields short-circuit by default: there every table is induced, the count
    is |F|^|F|, and witnesses come from interpolation on demand.  Otherwise
    the group generated by the constants and every a * v_k is grown one
    generator at a time.  At most ``cap`` rows are materialised; a set cut
    there is marked complete=False.

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
                               witnesses=None, index=None)

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
    tables = np.zeros((min(cap, 1), n), dtype=np.uint8)
    wits = np.zeros((len(tables), m + 1), dtype=np.uint8)
    index = {bytes(n): 0} if cap else {}
    complete = cap > 0
    for k, a in product(range(m + 1), range(1, n)):
        if not complete:
            break
        g = np.full(n, a, dtype=np.uint8) if k == 0 else mul[a, powers[k]]
        new_t, new_w = [tables], [wits]
        step, coeff = g, a
        while complete and step.tobytes() not in index:
            coset_t = add[tables, step]
            coset_w = wits.copy()
            coset_w[:, k] = add[wits[:, k], coeff]
            room = cap - len(index)
            if len(coset_t) > room:
                coset_t, coset_w, complete = coset_t[:room], coset_w[:room], False
            keys = coset_t.view(np.dtype((np.void, n))).ravel().tolist()
            index.update(zip(keys, count(len(index))))
            new_t.append(coset_t)
            new_w.append(coset_w)
            step, coeff = add[step, g], add[coeff, a]
        if len(new_t) > 1:
            tables, wits = np.concatenate(new_t), np.concatenate(new_w)
    return PolyFunctionSet(ring, (t, p), complete, tables, wits, index)


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
    """The unique polynomial of degree < q = |F| inducing the table, in O(q^2).

    f = sum_a f(a) (1 - (X - a)^(q-1)), and in characteristic p every
    binomial C(q-1, j) is (-1)^j, so c_0 = f(0) and
    c_j = -sum_a f(a) a^(q-1-j) for 1 <= j <= q-1, with 0^0 = 1.
    """
    if not analyze(field).is_field:
        raise UnsupportedStructureError(f"{field.label} is not a field")
    values = _table_values(field, table)
    q, add, mul = field.order, field.add_table, field.mul_table
    sums = [0] * (q - 1)  # sums[e] = sum_a f(a) a^e
    for a, y in enumerate(values):
        power = field.unity
        for e in range(q - 1):
            sums[e] = add[sums[e]][mul[y][power]]
            power = mul[power][a]
    coeffs = (values[0],) + tuple(field.neg(sums[q - 1 - j]) for j in range(1, q))
    return Polynomial(field, coeffs).stripped()


def char_poly_for_subset(ring: FiniteRing, subset,
                         cap: int = DEFAULT_CAP) -> Polynomial | None:
    """Witness for the 0/1-valued indicator table of a subset, if one exists."""
    if ring.unity is None:
        raise UnsupportedStructureError("indicator tables need 0 and 1 as values")
    if not isinstance(subset, SubsetMask):
        subset = SubsetMask.from_indices(ring, subset)
    values = tuple(ring.unity if x in subset else 0 for x in range(ring.order))
    return is_polynomial_function(ring, values, cap)
