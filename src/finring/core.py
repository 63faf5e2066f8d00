"""Finite rings as dense Cayley tables.

Rings here are not assumed commutative or unital.  Element indices run
0..order-1 and index 0 is always the additive identity, so arithmetic is
total table lookup.  A ring holds each table once, as a read-only intp
numpy array.  Every constructor builds the arrays and validates the
complete set of ring axioms on them, checking associativity and
distributivity against an additive generating set in O(order^2 log order)
numpy work; ``validate_ring`` re-checks a ring's arrays.  A residue field
or a local factor is the image of a validated ring (``_image``), checked
to be one by a homomorphism test over all pairs instead.  A scalar reader
walks the ``tolist()`` of the one row or column it needs.

A construction that more than one check or caller reads, such as the
residue field, is built once per ring through ``per_ring``, which keeps it
in the ring's ``store``: the store stays None until the first such call
and is freed with the ring.  Every power of an element is read from one
of them, the power table (``_powers``), and every local factor eR, its
radical eJ and the cosets of eJ from another (``_local_factors``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import count, permutations
from typing import Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "FiniteRing",
    "RingInvariants",
    "SubsetMask",
    "LocalFactor",
    "AxiomViolation",
    "UnsupportedStructureError",
    "InternalInvariantError",
    "make_zn",
    "make_quotient",
    "make_product",
    "make_table_ring",
    "make_zero_mul_ring",
    "analyze",
    "validate_ring",
    "primitive_idempotents",
    "local_decomposition",
    "residue_field",
    "element_additive_order",
    "element_nilpotency_index",
    "multiplicative_order",
    "multiplicative_inverse",
    "invariant_signature",
    "rings_isomorphic",
    "render_poly",
    "binary_power",
    "power_map",
    "per_ring",
]


class AxiomViolation(ValueError):
    """A Cayley table failed a ring axiom.

    Carries the axiom name and a witness tuple of element indices that can
    be re-checked directly against the offending tables.
    """

    def __init__(self, axiom: str, witness: tuple):
        super().__init__(f"ring axiom {axiom!r} fails at {witness}")
        self.axiom = axiom
        self.witness = witness


class UnsupportedStructureError(ValueError):
    """The operation needs structure (unity, commutativity, locality) the ring lacks."""


class InternalInvariantError(RuntimeError):
    """A computed object broke a guarantee of the mathematics: a bug, not bad input."""


def binary_power(op: Callable, x, k: int):
    """x op x op ... op x, k >= 1 copies, by repeated squaring: O(log k)
    calls of the associative ``op``, the running result always on the left."""
    if k < 1:
        raise ValueError(f"binary_power needs k >= 1, got {k}")
    result = None
    while True:
        if k & 1:
            result = x if result is None else op(result, x)
        k >>= 1
        if not k:
            return result
        x = op(x, x)


def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The prime powers of n as (p, e) pairs, p ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class FiniteRing:
    """A finite ring given by its addition and multiplication tables.

    ``add_table``, ``mul_table`` and ``neg_table`` are read-only intp arrays
    of element indices; ``add``, ``mul``, ``neg`` and ``sub`` return Python
    ints.  ``unity`` is None for non-unital rings.  Instances compare by
    identity; use :func:`invariant_signature` / :func:`rings_isomorphic`
    for structural comparison.  ``store`` maps each builder passed to
    ``per_ring`` to its construction, and is None until the first is built.
    """

    order: int
    add_table: np.ndarray
    mul_table: np.ndarray
    neg_table: np.ndarray
    unity: int | None
    label: str
    zero: int = 0
    store: dict | None = field(default=None, init=False, repr=False)

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def sub(self, a: int, b: int) -> int:
        return int(self.add_table[a, self.neg_table[b]])

    def pow(self, a: int, k: int) -> int:
        """a^k for k >= 1, read from the power table (``power_map``); k = 0 needs unity."""
        if k == 0:
            if self.unity is None:
                raise UnsupportedStructureError("a^0 undefined without unity")
            return self.unity
        if k < 0:
            raise ValueError("negative exponents are not defined")
        return int(power_map(self, k)[a])

    def elements(self) -> range:
        return range(self.order)

    @property
    def is_unital(self) -> bool:
        return self.unity is not None

    def __repr__(self) -> str:
        return f"FiniteRing({self.label!r}, order={self.order})"


def per_ring(ring: FiniteRing, build: Callable[[FiniteRing], Any]) -> Any:
    """build(ring), built on the first call with this ring and builder and
    kept in the ring's ``store``, so every later caller gets the same object
    and the construction is freed with the ring.  A build that raises
    stores nothing."""
    store = ring.store
    if store is None:
        store = {}
        object.__setattr__(ring, "store", store)
    if build not in store:
        store[build] = build(ring)
    return store[build]


@dataclass(frozen=True)
class SubsetMask:
    """A subset of a ring's elements as a bitmask over element indices."""

    ring: FiniteRing
    bits: int

    def __post_init__(self):
        if not 0 <= self.bits < (1 << self.ring.order):
            raise ValueError("mask wider than the ring")

    @classmethod
    def from_indices(cls, ring: FiniteRing, ids: Iterable[int]) -> "SubsetMask":
        bits = 0
        for i in ids:
            if not 0 <= i < ring.order:
                raise ValueError(f"element index {i} out of range")
            bits |= 1 << i
        return cls(ring, bits)

    @classmethod
    def of(cls, ring: FiniteRing, subset) -> "SubsetMask":
        """``subset`` as a mask of ``ring``: a mask must be over ``ring``, indices are read."""
        if not isinstance(subset, SubsetMask):
            return cls.from_indices(ring, subset)
        if subset.ring is not ring:
            raise ValueError(f"subset of {subset.ring.label} given for {ring.label}")
        return subset

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.ring.order) if self.bits >> i & 1)

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.ring.order and bool(self.bits >> i & 1)

    def __iter__(self):
        return iter(self.indices())

    @property
    def size(self) -> int:
        return self.bits.bit_count()


@dataclass(frozen=True)
class LocalFactor:
    """One local factor e*R of a decomposition, with the projection x -> e*x."""

    idempotent: int
    ring: FiniteRing
    projection: tuple[int, ...]


@dataclass(frozen=True)
class RingInvariants:
    """Structural invariants computed by exhaustive scans.

    Unit-dependent fields are None for non-unital rings rather than being
    fabricated.  ``zero_dimensional`` is constantly True: every prime ideal
    of a finite ring is maximal, so there is nothing to compute.
    """

    is_commutative: bool
    is_unital: bool
    is_field: bool
    characteristic: int
    idempotents: SubsetMask
    nilpotents: SubsetMask
    nilpotency_index: int
    units: SubsetMask | None
    unit_group_exponent: int | None
    jacobson_radical: SubsetMask | None
    is_local: bool | None
    residue_field_order: int | None
    zero_dimensional: bool = True


# ---------------------------------------------------------------------------
# validation and construction
# ---------------------------------------------------------------------------

def _require_equal(axiom: str, left, right, *elements) -> None:
    """AxiomViolation at the first index where left != right; axis i of the
    arrays runs over elements[i], so the witness is a tuple of element indices."""
    differ = np.not_equal(left, right)
    if differ.any():
        bad = np.argwhere(differ)[0]
        raise AxiomViolation(axiom, tuple(int(e[i]) for e, i in zip(elements, bad)))


def _additive_generators(A: np.ndarray) -> list[int]:
    """A greedy generating set: x joins when no left-normed sum
    (..((0 + g1) + g2) ..) + gk of earlier members reaches it."""
    rows, reached = {}, {0}  # rows[g]: y -> y + g for each member g, a row of the commutative +
    for x in range(len(A)):
        if x not in reached:
            rows[x] = A[x].tolist()
            frontier = list(reached)
            for s in frontier:  # a BFS: the list grows while it is walked
                for plus_g in rows.values():
                    if plus_g[s] not in reached:
                        reached.add(plus_g[s])
                        frontier.append(plus_g[s])
    return list(rows)


def validate_ring(ring: FiniteRing) -> None:
    """Re-check every ring axiom on the ring's own arrays in O(order^2 * |G|);
    raises AxiomViolation, whose witness is a violating tuple of element
    indices, on failure.

    Closure, commutativity, zero and negatives of + are checked entrywise.
    The rest is checked only against a generating set G of (R, +) from
    ``_additive_generators``, of at most log2(order) elements once + is a
    group.  Every element is a left-normed sum of members of G:
      * (x+g)+y = x+(g+y) for all x, y and g in G (Light's test): the g that
        pass contain 0 and G and are closed under +, so they are all of R;
      * a(x+g) = ax+ag and (x+g)a = xa+ga for all a, x and g in G: with +
        associative, the g that pass are closed under +, and 0 = g + (-g);
      * (ab)c = a(bc) for a, b, c in G: with both distributive laws the
        associator is additive in each argument, so it vanishes everywhere.
    """
    n = ring.order
    A, M, neg = (np.asarray(t, dtype=np.intp) for t in (ring.add_table, ring.mul_table, ring.neg_table))
    if A.shape != (n, n) or M.shape != (n, n) or neg.shape != (n,):
        raise ValueError(f"tables must be {n}x{n} and neg_table must have {n} entries")
    _check_axioms(A, M, neg, ring.unity)


def _check_axioms(A: np.ndarray, M: np.ndarray, neg: np.ndarray, unity: int | None) -> None:
    """``validate_ring``'s checks on intp arrays."""
    idx = np.arange(len(A))
    for what, T in (("addition", A), ("multiplication", M)):
        _require_equal(f"{what}-closure", (T >= 0) & (T < len(A)), True, idx, idx)
    _require_equal("additive-commutativity", A, A.T, idx, idx)
    if not (np.array_equal(A[0], idx) and np.array_equal(A[:, 0], idx)):
        raise AxiomViolation("additive-identity", (0,))
    _require_equal("additive-inverse", A[idx, neg], 0, idx)

    G = np.array(_additive_generators(A), dtype=np.intp)
    _require_equal("additive-associativity", A[A[:, G]], A[idx[:, None, None], A[G][None]],
                   idx, G, idx)                                  # (x+g)+y, x+(g+y)
    for axiom, P in (("left-distributivity", M), ("right-distributivity", M.T)):
        _require_equal(axiom, P[:, A[:, G]], A[P[:, :, None], P[:, G][:, None, :]],
                       idx, idx, G)                              # a(x+g), ax+ag
    MG = M[np.ix_(G, G)]
    _require_equal("associativity", M[MG][:, :, G], M[G[:, None, None], MG[None]],
                   G, G, G)                                      # (ab)c, a(bc)

    if unity is not None and not (np.array_equal(M[unity], idx) and np.array_equal(M[:, unity], idx)):
        raise AxiomViolation("unity", (unity,))


def _build(add: np.ndarray, mul: np.ndarray, label: str) -> FiniteRing:
    """A validated ring on square index tables; the unity and the negatives
    are read off the tables, which the ring keeps as read-only intp arrays."""
    n = len(add)
    if n < 2:
        raise ValueError(f"a ring needs at least 2 elements, got {n}")
    idx = np.arange(n)
    # Locate the additive identity before anything else; it must sit at index 0.
    if not (add[0] == idx).all():
        identities = (add == idx).all(axis=1).nonzero()[0]
        if not len(identities):
            raise AxiomViolation("additive-identity", ())
        raise ValueError(f"additive identity must be element 0, found it at index {identities[0]}")
    unities = ((mul == idx) & (mul.T == idx)).all(axis=1).nonzero()[0]
    unity = int(unities[0]) if len(unities) else None
    neg = (add == 0).argmax(axis=1)  # an element without a negative gets 0, which fails
    add, mul = (np.asarray(T, dtype=np.intp) for T in (add, mul))
    _check_axioms(add, mul, neg, unity)
    add.flags.writeable = mul.flags.writeable = neg.flags.writeable = False
    return FiniteRing(n, add, mul, neg, unity, label)


def make_zn(n: int, label: str | None = None) -> FiniteRing:
    """The ring of integers modulo n."""
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"modulus must be an integer >= 2, got {n}")
    idx = np.arange(n)
    return _build(np.add.outer(idx, idx) % n, np.multiply.outer(idx, idx) % n, label or f"Z/{n}")


def make_table_ring(add, mul, label: str = "table-ring") -> FiniteRing:
    """Build a ring from raw Cayley tables; unity is auto-detected."""
    add, mul = (tuple(tuple(int(v) for v in row) for row in table) for table in (add, mul))
    n = len(add)
    if any(len(row) != n for row in add) or len(mul) != n or any(len(row) != n for row in mul):
        raise ValueError("tables must be square matrices of equal size")
    return _build(*(np.array(table, dtype=np.int64).reshape(n, n) for table in (add, mul)), label)


def make_zero_mul_ring(n: int) -> FiniteRing:
    """The non-unital ring on the additive group Z/n whose product is identically zero."""
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"order must be an integer >= 2, got {n}")
    idx = np.arange(n)
    return _build(np.add.outer(idx, idx) % n, np.zeros((n, n), dtype=np.int64), f"zero-ring-{n}")


def make_product(r1: FiniteRing, r2: FiniteRing, label: str | None = None) -> FiniteRing:
    """Componentwise product ring r1 x r2.

    Element (i, j) is packed as i*|r2| + j, and (i, j)(k, l) = (ik, jl) keeps
    each factor's left/right order, so noncommutative factors are fine.
    """
    n = r1.order * r2.order
    pair = lambda t1, t2: (t1[:, None, :, None] * r2.order + t2[None, :, None, :]).reshape(n, n)
    return _build(pair(r1.add_table, r2.add_table), pair(r1.mul_table, r2.mul_table),
                  label or f"{r1.label} x {r2.label}")


def make_quotient(base: FiniteRing, modulus, label: str | None = None) -> FiniteRing:
    """base[x]/(modulus) with polynomial-remainder arithmetic.

    The base must be commutative and unital and the modulus monic of degree
    d >= 1.  Element i is the residue polynomial of degree < d whose
    coefficient k is the base element (i // q^k) % q, q = |base|: mixed
    radix with the constant coefficient least significant.  A Galois field
    GF(p^k) is the special case of an irreducible modulus over Z/p.

    The tables are built in d numpy steps through the base's own tables,
    so any commutative unital base works: the index of u*x^k comes from
    u*x^(k-1) by a shift and one reduction by the monic modulus, and
    u*v = sum_k v_k * (u*x^k).
    """
    if not base.is_unital or not (base.mul_table == base.mul_table.T).all():
        raise UnsupportedStructureError("quotient base must be commutative and unital")
    if getattr(modulus, "ring", base) is not base:
        raise ValueError("modulus polynomial is defined over a different ring")
    coeffs = tuple(int(c) for c in getattr(modulus, "coeffs", modulus))
    if any(not 0 <= c < base.order for c in coeffs):
        raise ValueError("modulus coefficients must be element indices of the base ring")
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    d = len(coeffs) - 1
    if d < 1:
        raise ValueError("modulus must have degree >= 1")
    if coeffs[-1] != base.unity:
        raise ValueError("modulus must be monic")

    q = base.order
    n = q ** d
    A, M = base.add_table, base.mul_table
    radix = q ** np.arange(d)
    idx = np.arange(n)
    elems = idx[:, None] // radix % q                  # coefficient k of element i
    add = sum(A[np.ix_(elems[:, k], elems[:, k])] * radix[k] for k in range(d))
    scale = M[:, elems] @ radix                        # scale[a, u]: a*u
    # t*x^d = -(t*c_0 + ... + t*c_(d-1) x^(d-1)) for the top coefficient t
    fold = base.neg_table[M[:, list(coeffs[:d])]] @ radix
    times_x = add[idx % (n // q) * q, fold[elems[:, -1]]]
    mul, power = np.zeros((n, n), dtype=np.int64), idx  # power[u]: u*x^k
    for k in range(d):
        mul = add[mul, scale[elems[None, :, k], power[:, None]]]
        power = times_x[power]
    return _build(add, mul, label or f"{base.label}[x]/({render_poly(coeffs)})")


def render_poly(coeffs: Sequence[int]) -> str:
    """Coefficients (constant first) in grammar syntax, e.g. ``x^2+x+1``."""
    terms = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        if e == 0:
            terms.append(str(c))
        else:
            var = "x" if e == 1 else f"x^{e}"
            terms.append(var if c == 1 else f"{c}{var}")
    return "+".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# element-level helpers
# ---------------------------------------------------------------------------

def element_additive_order(ring: FiniteRing, a: int) -> int:
    plus_a, acc, k = ring.add_table[a].tolist(), a, 1
    while acc != 0:
        acc, k = plus_a[acc], k + 1
    return k


def _powers(ring: FiniteRing) -> tuple[np.ndarray, int, int]:
    """The power table (rows, t, p), built once per ring through ``per_ring``:
    rows[k] is x -> x^k over every element for 1 <= k < t + p (row 0 is not a
    power), in the smallest unsigned dtype.  Row k+1 is a function of row k,
    so the rows form a rho whose first repeat, row t + p = row t, gives the
    least (t, p) with x^(k+p) = x^k for all x and k >= t; one gather doubles
    the m rows so far, x^(j+m) = x^j x^m."""
    mul = ring.mul_table.astype(np.min_scalar_type(ring.order - 1))
    powers = np.arange(ring.order, dtype=mul.dtype)[None]  # powers[k - 1] is row k
    seen = {}
    for k in count(1):
        if k > len(powers):
            powers = np.concatenate((powers, mul[powers, powers[-1]]))
        t = seen.setdefault(powers[k - 1].tobytes(), k)
        if t < k:
            break
    rows = np.concatenate((np.zeros_like(powers[:1]), powers[:k - 1]))
    rows.flags.writeable = False
    return rows, t, k - t


def power_map(ring: FiniteRing, k: int) -> np.ndarray:
    """x -> x^k over every element, for any k >= 1, read from the ring's
    power table: past its last row, x^k is row t + (k - t) mod p."""
    if k < 1:
        raise ValueError(f"power_map needs k >= 1, got {k}")
    rows, t, p = per_ring(ring, _powers)
    return rows[k if k < len(rows) else t + (k - t) % p]


def element_nilpotency_index(ring: FiniteRing, a: int) -> int | None:
    """Least k >= 1 with a^k = 0 (a's first zero power row), or None."""
    powers = per_ring(ring, _powers)[0][1:, a].tolist()
    return powers.index(0) + 1 if 0 in powers else None


def multiplicative_order(ring: FiniteRing, u: int) -> int:
    """Least k >= 1 with u^k = 1: u's first unity power row."""
    if ring.unity is None:
        raise UnsupportedStructureError("multiplicative order needs unity")
    powers = per_ring(ring, _powers)[0][1:, u].tolist()
    if ring.unity not in powers:
        raise ValueError(f"element {u} is not a unit")
    return powers.index(ring.unity) + 1


def multiplicative_inverse(ring: FiniteRing, u: int) -> int | None:
    if ring.unity is None:
        raise UnsupportedStructureError("inverses need unity")
    by_u, u_by = ring.mul_table[u].tolist(), ring.mul_table[:, u].tolist()
    return next((v for v in range(ring.order) if by_u[v] == u_by[v] == ring.unity), None)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def analyze(ring: FiniteRing) -> RingInvariants:
    """Compute all structural invariants by exhaustive scan.

    Deterministic and cached per ring instance.  Powers are read from the
    power table: x is nilpotent iff x^t = 0, and a unit iff x^p = 1 (a
    unit's order divides p).  Locality is decided by additive closure of
    the non-units (for a finite unital ring the non-units absorb
    multiplication automatically), and the Jacobson radical as
    {x : 1 + r*x is a unit for every r}.
    """
    n = ring.order
    A, M = ring.add_table, ring.mul_table
    is_comm = bool((M == M.T).all())
    unital = ring.unity is not None

    if unital:
        characteristic = element_additive_order(ring, ring.unity)
    else:
        characteristic = math.lcm(*(element_additive_order(ring, a) for a in range(n))) if n > 1 else 1

    mask = lambda flags: SubsetMask.from_indices(ring, flags.nonzero()[0].tolist())
    idempotents = mask(M.diagonal() == np.arange(n))
    rows, t, p = per_ring(ring, _powers)
    nilpotent = rows[t] == 0
    nilpotents = mask(nilpotent)
    # the first row that is zero at every nilpotent, and unity at every unit
    nilpotency_index = int((rows[1:, nilpotent] == 0).all(axis=1).argmax()) + 1

    units = unit_exp = radical = is_local = residue_order = None
    is_field = False
    if unital:
        is_unit = rows[p] == ring.unity
        units = mask(is_unit)
        unit_exp = int((rows[1:, is_unit] == ring.unity).all(axis=1).argmax()) + 1
        non_units = (~is_unit).nonzero()[0]
        is_local = not is_unit[A[non_units[:, None], non_units]].any()
        radical = mask(is_unit[A[ring.unity, M]].all(axis=0))  # 1 + r*x is a unit for every r
        is_field = is_comm and units.size == n - 1
        if is_local:
            residue_order = n // len(non_units)

    return RingInvariants(
        is_commutative=is_comm,
        is_unital=unital,
        is_field=is_field,
        characteristic=characteristic,
        idempotents=idempotents,
        nilpotents=nilpotents,
        nilpotency_index=nilpotency_index,
        units=units,
        unit_group_exponent=unit_exp,
        jacobson_radical=radical,
        is_local=is_local,
        residue_field_order=residue_order,
    )


# ---------------------------------------------------------------------------
# decomposition into local factors and residue fields
# ---------------------------------------------------------------------------

def primitive_idempotents(ring: FiniteRing) -> tuple[int, ...]:
    """The primitive idempotents e of a commutative unital ring, ascending: e != 0
    and e*f is 0 or e for every idempotent f.  There is one per local factor eR,
    so one per maximal (= prime) ideal; a local ring's only one is its unity."""
    inv = analyze(ring)
    if not (inv.is_unital and inv.is_commutative):
        raise UnsupportedStructureError("local factors need a commutative unital ring")
    idem = inv.idempotents.indices()  # 0 first
    rows = (ring.mul_table[e].tolist() for e in idem[1:])
    return tuple(e for e, by_e in zip(idem[1:], rows) if all(by_e[f] in (0, e) for f in idem))


class _Local(NamedTuple):
    """A factor of ``_local_factors``: e, eR, eJ, each x's key and the distinct keys, ascending."""

    idempotent: int
    elements: np.ndarray
    radical: np.ndarray
    key: np.ndarray
    representatives: np.ndarray


def _local_factors(ring: FiniteRing) -> tuple[_Local, ...]:
    """One ``_Local`` per primitive idempotent e of a commutative unital ring, or
    for e = 1 on a local unital ring, noncommutative too (UnsupportedStructureError
    otherwise), built once per ring through ``per_ring``.  eJ is the nilpotents of
    eR = {x : e*x = x} (J is the nilradical of a commutative ring, the non-units
    of a local one) and x's key the least element of e*x + eJ: x and y share a
    residue modulo the maximal ideal J + (1-e)R exactly when their keys agree."""
    idempotents = (ring.unity,) if analyze(ring).is_local else primitive_idempotents(ring)
    n, add, mul, (rows, t, _) = ring.order, ring.add_table, ring.mul_table, per_ring(ring, _powers)
    nilpotent, idx, factors = rows[t] == 0, np.arange(n), []
    for e in idempotents:
        in_factor = mul[e] == idx
        radical = (in_factor & nilpotent).nonzero()[0]
        key = add[mul[e][:, None], radical].min(axis=1)
        factors.append(_Local(e, in_factor.nonzero()[0], radical, key,
                              np.bincount(key, minlength=n).nonzero()[0]))
    if math.prod(len(local.elements) for local in factors) != n:
        raise InternalInvariantError("local factor orders do not multiply to the ring order")
    return tuple(factors)


def local_decomposition(ring: FiniteRing) -> tuple[LocalFactor, ...]:
    """Split a commutative unital ring into its local factors eR, each the
    image of x -> e*x (``_image``) onto the elements of eR (``_local_factors``);
    a local ring, noncommutative too, is its own one factor, with the identity
    projection.  Uncached: no check builds factor rings."""
    structure = per_ring(ring, _local_factors)
    if len(structure) == 1:
        return (LocalFactor(idempotent=ring.unity, ring=ring, projection=tuple(range(ring.order))),)
    factors = []
    for e, elements, *_ in structure:
        projection = np.searchsorted(elements, ring.mul_table[e])
        sub = _image(ring, projection, elements, f"{ring.label}|e={e}")
        factors.append(LocalFactor(idempotent=e, ring=sub, projection=tuple(projection.tolist())))
    return tuple(factors)


def residue_field(ring: FiniteRing) -> tuple[FiniteRing, tuple[int, ...], tuple[int, ...]]:
    """For a local unital ring, the quotient by its maximal ideal.

    Returns (field, projection, representatives): projection[x] is the field
    index of x's coset, representatives[i] the least element index in coset i.
    The field is the image of the projection (``_image``), checked to be a
    field; a field is its own residue field, returned with identity maps.
    Built once per ring (``per_ring``), so every call returns the same objects.
    """
    return per_ring(ring, _residue_field)


def _residue_field(ring: FiniteRing) -> tuple[FiniteRing, tuple[int, ...], tuple[int, ...]]:
    inv = analyze(ring)
    if not (inv.is_unital and inv.is_local):
        raise UnsupportedStructureError("residue field needs a local unital ring")
    if inv.is_field:
        return ring, tuple(range(ring.order)), tuple(range(ring.order))
    (local,) = per_ring(ring, _local_factors)  # the cosets of J, named by their least elements
    reps, proj = local.representatives, np.searchsorted(local.representatives, local.key)
    field = _image(ring, proj, reps, f"{ring.label}/m")
    # every nonzero x with x*y = 1 for some y makes a finite ring with unity
    # a division ring, hence a field (Wedderburn)
    if field.order < 2 or not (field.mul_table[1:] == field.unity).any(axis=1).all():
        raise InternalInvariantError("residue ring of a local ring must be a field")
    return field, tuple(proj.tolist()), tuple(reps.tolist())


def _image(ring: FiniteRing, proj: np.ndarray, reps: np.ndarray, label: str) -> FiniteRing:
    """The image of a validated unital ring under x -> proj[x], a map onto
    range(len(reps)) with proj[reps[i]] = i and proj[0] = 0, on the tables
    proj[T[reps, reps]].  It is made without ``_check_axioms``: once proj
    respects + and * at all n^2 pairs (InternalInvariantError otherwise),
    it is a surjective homomorphism, so its image is a ring with unity
    proj[1] and every axiom holds there because it holds in the ring."""
    k = len(reps)
    if proj[0] != 0 or proj.max() >= k or not np.array_equal(proj[reps], np.arange(k)):
        raise InternalInvariantError(f"{label}: the projection is not onto its representatives")
    tables = []
    for what, T in (("addition", ring.add_table), ("multiplication", ring.mul_table)):
        image = proj[T[reps[:, None], reps]]
        if not np.array_equal(proj[T], image.take(proj, 0).take(proj, 1)):  # at (proj x, proj y)
            raise InternalInvariantError(f"{label}: the projection does not respect {what}")
        image.flags.writeable = False
        tables.append(image)
    neg = proj[ring.neg_table[reps]]
    neg.flags.writeable = False
    return FiniteRing(k, *tables, neg, int(proj[ring.unity]), label)


# ---------------------------------------------------------------------------
# structural comparison
# ---------------------------------------------------------------------------

def invariant_signature(ring: FiniteRing) -> tuple:
    """A hashable invariant vector used as an isomorphism heuristic."""
    inv = analyze(ring)
    per_elem = sorted(
        (
            element_additive_order(ring, a),
            a in inv.idempotents,
            a in inv.nilpotents,
            multiplicative_order(ring, a) if inv.units is not None and a in inv.units else 0,
        )
        for a in range(ring.order)
    )
    n_factors = None
    if inv.is_unital and inv.is_commutative:
        n_factors = len(primitive_idempotents(ring))
    return (
        ring.order,
        inv.is_commutative,
        inv.is_unital,
        inv.is_field,
        inv.characteristic,
        inv.idempotents.size,
        inv.nilpotents.size,
        inv.nilpotency_index,
        inv.units.size if inv.units is not None else -1,
        inv.unit_group_exponent,
        inv.is_local,
        inv.residue_field_order,
        n_factors,
        tuple(per_elem),
    )


def rings_isomorphic(r1: FiniteRing, r2: FiniteRing, search_limit: int = 8) -> bool | None:
    """Invariant comparison plus, for orders <= search_limit, exhaustive bijection search.

    Returns True/False when decided, None when the order exceeds the search
    limit and the invariants agree (full isomorphism testing is out of scope).
    """
    if invariant_signature(r1) != invariant_signature(r2):
        return False
    n = r1.order
    if n > search_limit:
        return None
    A1, M1, A2, M2 = (T.tolist() for T in (r1.add_table, r1.mul_table, r2.add_table, r2.mul_table))
    for perm in permutations(range(1, n)):
        mp = (0,) + perm
        if r1.unity is not None and mp[r1.unity] != r2.unity:
            continue
        if all(mp[A1[a][b]] == A2[mp[a]][mp[b]] and mp[M1[a][b]] == M2[mp[a]][mp[b]]
               for a in range(n) for b in range(n)):
            return True
    return False
