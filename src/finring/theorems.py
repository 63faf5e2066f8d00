"""Executable structural checks on finite rings, one per result code.

Every check returns a :class:`Verdict` whose ``holds`` flag reports whether
the claimed equivalence or bound was confirmed, with a witness payload that
can be re-verified independently (a polynomial to re-evaluate, an element
pair to re-check, a bound with its ingredients).  Every check is decided at
every order; ``vacuous=True`` only ever means that a hypothesis or
precondition failed, so there was nothing to refute.

Check codes:

====== =====================================================================
L1.1   reachability of every nonzero target from every nonzero point by
       zero-constant polynomials, equivalent to being a field
P1.2   every bijection induced by a polynomial, equivalent to being a field;
       a swap moving F(c) - F(0) out of a proper left ideal Rc is not induced
P1.3   every subset indicator induced by a polynomial (unital rings),
       equivalent to being a field; a non-field's least nonzero non-unit
       certifies that the indicator of {0} is not induced
P2.1   a subring whose nonzero elements are sent to 1 by a polynomial over
       the big ring is a finite field
L2.2   the shift-by-nilpotent power identity (b+c)^(sN) = b^(sN) with the
       exponent N built from the characteristic and the nilpotency index
P2.3i  every unit order divides N*(n-1) for the residue field order n
P2.3ii from the unit-group exponent, a uniform exponent sN killing every
       nilpotent, via the unit/nilpotent coefficient split
L2.4   residue field orders of a subring are bounded by |f(A)| * deg f
L2.5   the number of local factors is bounded by the number of prime
       factors of |f(R)| (with multiplicity)
P2.6fwd raising a polynomial with mixed unit/non-unit values to a power
       yields a nontrivial 0/1-valued function
P2.6lift lifting a residue-field polynomial to the ring without growing its
       image
P2.7   a nontrivial polynomial indicator function exists iff the ring is
       local; the witness is x^N, the units' indicator, on a local ring and
       an idempotent other than 0 and 1 on any other
R2.8   the support of any polynomial indicator function is a union of
       cosets of the maximal ideal
====== =====================================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable

from .catalog import RingSpecError, parse_poly_text
from .core import (
    Embedding,
    FiniteRing,
    InternalInvariantError,
    RingInvariants,
    SubsetMask,
    UnsupportedStructureError,
    analyze,
    element_nilpotency_index,
    identity_embedding,
    local_decomposition,
    multiplicative_order,
    residue_field,
)
from .polyfun import (
    Polynomial,
    char_poly_for_subset,
    function_count,
    function_table,
    poly_add,
    poly_const,
    poly_eval,
    poly_from,
    poly_mul,
    poly_pow,
    poly_scale,
    poly_sub,
    poly_x,
    polynomial_function_set,
    power_stabilization,
)

__all__ = [
    "CHECKS",
    "Check",
    "CheckOptions",
    "RESULT_IDS",
    "Verdict",
    "BinomialExponent",
    "LiftData",
    "TrivialImageError",
    "check_reachability_iff_field",
    "check_bijections_iff_field",
    "check_char_functions_iff_field",
    "verify_subring_char_function",
    "binomial_exponent",
    "verify_nilpotent_shift_power",
    "check_nilpotent_shift_powers",
    "check_unit_order_bound",
    "split_unit_nilpotent",
    "check_unit_exponent_nilpotency",
    "check_residue_field_bound",
    "check_spectrum_bound",
    "char_function_from_image",
    "check_char_from_image",
    "lift_residue_polynomial",
    "check_residue_lift",
    "classify_char_function_existence",
    "check_char_support_cosets",
]

class TrivialImageError(ValueError):
    """The requested 0/1-valued output would be constant, so it is refused."""


@dataclass
class Verdict:
    result_id: str
    holds: bool
    vacuous: bool = False
    witness: dict[str, Any] | None = None
    details: str = ""

    @property
    def status(self) -> str:
        if not self.holds:
            return "fail"
        return "vacuous" if self.vacuous else "pass"


@dataclass(frozen=True)
class BinomialExponent:
    """The exponent N = prod p_i^(e_i + beta_i) for a given characteristic and index.

    ``betas[i]`` is the p_i-adic valuation of (nilp_index - 1)!, so every
    binomial coefficient C(sN, j) with 0 < j < nilp_index is divisible by
    the characteristic.
    """

    char_n: int
    nilp_index: int
    factorization: tuple[tuple[int, int], ...]
    betas: tuple[int, ...]
    exponent: int


@dataclass(frozen=True)
class LiftData:
    """Choices made by the residue lift: coset representatives, lifted values, exponent."""

    alphas: tuple[int, ...]
    betas: tuple[int, ...]
    exponent: int


# ---------------------------------------------------------------------------
# ring requirements
# ---------------------------------------------------------------------------

_REQUIREMENTS: dict[str, Callable[[RingInvariants], bool]] = {
    "any": lambda inv: True,
    "commutative": lambda inv: inv.is_commutative,
    "unital": lambda inv: inv.is_unital,
    "comm-unital": lambda inv: inv.is_unital and inv.is_commutative,
    "local-unital": lambda inv: inv.is_unital and bool(inv.is_local),
    "comm-local-unital": lambda inv: inv.is_unital and inv.is_commutative and bool(inv.is_local),
}


def _require(ring: FiniteRing, name: str) -> RingInvariants:
    """The ring's invariants, or UnsupportedStructureError if it fails the requirement."""
    inv = analyze(ring)
    if not _REQUIREMENTS[name](inv):
        raise UnsupportedStructureError(f"{ring.label} is not {name}")
    return inv


# ---------------------------------------------------------------------------
# small number-theory helpers
# ---------------------------------------------------------------------------

def _factorize(n: int) -> tuple[tuple[int, int], ...]:
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


def _omega(n: int) -> int:
    """Number of prime factors counted with multiplicity."""
    return sum(e for _, e in _factorize(n))


def _valuation_factorial(p: int, k: int) -> int:
    """p-adic valuation of k! by Legendre's formula."""
    v = 0
    q = p
    while q <= k:
        v += k // q
        q *= p
    return v


def _subgroup_closure(ring: FiniteRing, generators) -> set[int]:
    """Additive closure of a set of elements (a subgroup of (R, +))."""
    gens = set(generators)
    reached = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = ring.add_table[x][g]
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return reached


# ---------------------------------------------------------------------------
# L1.1 / P1.2 / P1.3: field characterizations
# ---------------------------------------------------------------------------

def check_reachability_iff_field(ring: FiniteRing) -> Verdict:
    """L1.1: every nonzero s reachable from every nonzero u via zero-constant
    polynomials, if and only if the ring is a field.

    The values of zero-constant polynomials at u form the additive closure of
    {a * u^k : a in R, k >= 1}, which is scanned per u.
    """
    inv = analyze(ring)
    unreachable = None
    for u in range(1, ring.order):
        powers = set()
        p = u
        while p not in powers:
            powers.add(p)
            p = ring.mul_table[p][u]
        gens = {ring.mul_table[a][pk] for a in range(ring.order) for pk in powers}
        reach = _subgroup_closure(ring, gens)
        missing = next((s for s in range(1, ring.order) if s not in reach), None)
        if missing is not None:
            unreachable = (u, missing)
            break
    reachable_all = unreachable is None
    holds = reachable_all == inv.is_field
    witness = None if reachable_all else {"from": unreachable[0], "target": unreachable[1]}
    side = "every nonzero target is reachable" if reachable_all else \
        f"target {unreachable[1]} unreachable from {unreachable[0]}"
    return Verdict(
        "L1.1", holds, witness=witness,
        details=f"{side}; is_field={inv.is_field}",
    )


def check_bijections_iff_field(ring: FiniteRing) -> Verdict:
    """P1.2: every bijection is induced by a polynomial iff the ring is a field.

    Any polynomial F has F(c) - F(0) = sum_k (a_k c^(k-1)) * c, the k = 1
    term being a_1 * c, so F(c) - F(0) lies in the left ideal Rc.  Only left
    coefficients enter, so this holds on noncommutative and non-unital rings
    too.  Let c be the least nonzero element with Rc != R and y the least
    element outside Rc: the swap of c and y, or of 0 and c when y = c, moves
    F(c) - F(0) out of Rc, so no polynomial induces it.  Without such a c no
    product of nonzero elements is 0, so the ring is a finite division ring,
    hence a field (Wedderburn), and a set of n^n tables holds every bijection.
    """
    inv = analyze(ring)
    n = ring.order
    ideals = ((x, {row[x] for row in ring.mul_table}) for x in range(1, n))
    c, ideal = next(((x, rx) for x, rx in ideals if len(rx) < n), (None, None))
    witness = None
    if c is None:
        if function_count(ring) != n ** n:
            raise InternalInvariantError(
                f"Rc = R for every nonzero c, but {ring.label} does not induce all {n}^{n} tables")
        side = "every bijection is polynomial"
    else:
        y = next(x for x in range(n) if x not in ideal)
        a, b = (c, y) if y != c else (0, c)
        swap = [b if x == a else a if x == b else x for x in range(n)]
        witness = {"bijection": swap, "point": c}
        side = f"bijection {swap} is not polynomial: it moves F({c}) - F(0) out of R*{c}"
    holds = (witness is None) == inv.is_field
    return Verdict("P1.2", holds, witness=witness, details=f"{side}; is_field={inv.is_field}")


def check_char_functions_iff_field(ring: FiniteRing) -> Verdict:
    """P1.3: every subset indicator is induced by a polynomial iff the ring is a field.

    Without a nonzero non-unit the ring is a finite division ring, hence a
    field (Wedderburn), and a set of n^n tables holds every indicator.
    Otherwise let c be the least nonzero non-unit.  A polynomial F inducing
    the indicator of {0} would give -1 = F(c) - F(0) = sum_k (a_k c^(k-1)) * c,
    so some r would have r*c = -1 and c would be a unit.  Only left
    coefficients enter, so this holds on noncommutative rings too.
    """
    inv = _require(ring, "unital")
    n = ring.order
    c = next((x for x in range(1, n) if x not in inv.units), None)
    if c is None:
        all_subsets, witness = function_count(ring) == n ** n, None
    else:
        minus_one = ring.neg(ring.unity)
        if any(row[c] == minus_one for row in ring.mul_table):
            raise InternalInvariantError(f"r*{c} = -1 for some r, but {c} is not a unit")
        all_subsets, witness = False, {"subset": [0], "non_unit": c}
    holds = all_subsets == inv.is_field
    side = "every subset indicator is polynomial" if all_subsets else \
        "indicator of [0] is not polynomial"
    return Verdict("P1.3", holds, witness=witness, details=f"{side}; is_field={inv.is_field}")


# ---------------------------------------------------------------------------
# P2.1: indicator of the nonzero elements over an extension ring
# ---------------------------------------------------------------------------

def verify_subring_char_function(emb: Embedding, f: Polynomial) -> Verdict:
    """P2.1: if f (over the big ring) sends 0 to 0 and every nonzero element of
    the embedded subring to 1, the subring must be a finite field.

    Verified on the given embedding: hypothesis checked by evaluation, and
    when it holds the conclusion is confirmed by direct inspection of the
    small ring.  A failed hypothesis is reported as vacuous.
    """
    big, small = emb.big, emb.small
    if f.ring is not big:
        raise ValueError("polynomial must have coefficients in the big ring")
    for r in (big, small):
        _require(r, "comm-unital")
    bad = None
    if poly_eval(f, 0, via=emb) != 0:
        bad = 0
    else:
        for a in range(1, small.order):
            if poly_eval(f, a, via=emb) != big.unity:
                bad = a
                break
    if bad is not None:
        return Verdict(
            "P2.1", True, vacuous=True,
            witness={"hypothesis_fails_at": bad},
            details=f"hypothesis fails at element {bad}; implication is vacuous",
        )
    is_field = analyze(small).is_field
    return Verdict(
        "P2.1", is_field,
        witness={"field": is_field},
        details=f"hypothesis holds and is_field={is_field} for {small.label}",
    )


# ---------------------------------------------------------------------------
# L2.2: shift-by-nilpotent power identity
# ---------------------------------------------------------------------------

def binomial_exponent(char_n: int, nilp_index: int) -> BinomialExponent:
    """The exponent N = prod p_i^(e_i + beta_i) with beta_i = v_{p_i}((r-1)!)."""
    if char_n < 2:
        raise ValueError("characteristic must be >= 2")
    if nilp_index < 1:
        raise ValueError("nilpotency index must be >= 1")
    fact = _factorize(char_n)
    betas = tuple(_valuation_factorial(p, nilp_index - 1) for p, _ in fact)
    exponent = math.prod(p ** (e + b) for (p, e), b in zip(fact, betas))
    return BinomialExponent(char_n, nilp_index, fact, betas, exponent)


def verify_nilpotent_shift_power(ring: FiniteRing, b: int, c: int,
                                 s_max: int = 5) -> Verdict:
    """L2.2: with N built from the characteristic and c's own nilpotency index,
    (b + c)^(sN) = b^(sN) for s = 1..s_max."""
    inv = _require(ring, "commutative")
    if s_max < 1:
        raise ValueError(f"s_max must be >= 1, got {s_max}")
    idx = element_nilpotency_index(ring, c)
    if idx is None:
        raise ValueError(f"element {c} is not nilpotent")
    params = binomial_exponent(inv.characteristic, idx)
    N = params.exponent
    a = ring.add_table[b][c]
    bad_s = next(
        (s for s in range(1, s_max + 1) if ring.pow(a, s * N) != ring.pow(b, s * N)),
        None,
    )
    holds = bad_s is None
    witness = {"b": b, "c": c, "nilp_index": idx, "exponent": N, "s_max": s_max}
    if bad_s is not None:
        witness["failing_s"] = bad_s
    return Verdict(
        "L2.2", holds, witness=witness,
        details=f"(b+c)^(sN) vs b^(sN) with N={N}, s<=s_max: {'equal' if holds else f'differ at s={bad_s}'}",
    )


def check_nilpotent_shift_powers(ring: FiniteRing, s_max: int = 3) -> Verdict:
    """L2.2 over every (b, nilpotent c) pair of the ring."""
    if s_max < 1:
        raise ValueError(f"s_max must be >= 1, got {s_max}")
    inv = analyze(ring)
    checked = 0
    for c in inv.nilpotents.indices():
        for b in range(ring.order):
            v = verify_nilpotent_shift_power(ring, b, c, s_max)
            if not v.holds:
                return v
            checked += 1
    return Verdict(
        "L2.2", True,
        witness={"pairs": checked, "s_max": s_max},
        details=f"all {checked} (b, c) pairs agree up to s={s_max}",
    )


# ---------------------------------------------------------------------------
# P2.3: unit orders and the nilpotency/unit-exponent link
# ---------------------------------------------------------------------------

def _prime_power_characteristic(inv) -> tuple[int, int]:
    fact = _factorize(inv.characteristic)
    if len(fact) != 1:
        raise UnsupportedStructureError("a local ring must have prime-power characteristic")
    return fact[0]


def check_unit_order_bound(ring: FiniteRing) -> Verdict:
    """P2.3i: with N = p^e * (r-1)! every unit satisfies u^(N*(n-1)) = 1,
    where p^e is the characteristic, r the nilpotency index and n the
    residue field order.  Cross-checks that the unit-group exponent divides
    N*(n-1)."""
    inv = _require(ring, "local-unital")
    _prime_power_characteristic(inv)
    N = inv.characteristic * math.factorial(inv.nilpotency_index - 1)
    E = N * (inv.residue_field_order - 1)
    bad = next((u for u in inv.units.indices() if ring.pow(u, E) != ring.unity), None)
    divides = inv.unit_group_exponent is not None and E % inv.unit_group_exponent == 0
    holds = bad is None and divides
    witness = {"exponent": E, "n_residue": inv.residue_field_order,
               "unit_exponent": inv.unit_group_exponent, "big_n": N}
    if bad is not None:
        witness["failing_unit"] = bad
    return Verdict(
        "P2.3i", holds, witness=witness,
        details=f"u^{E} = 1 for all {inv.units.size} units: {bad is None}; "
                f"unit exponent {inv.unit_group_exponent} divides {E}: {divides}",
    )


def split_unit_nilpotent(f: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Coefficientwise split f = g + h over a local ring: unit coefficients go
    to g, nilpotent ones to h."""
    ring = f.ring
    inv = _require(ring, "local-unital")
    g = [0] * len(f.coeffs)
    h = [0] * len(f.coeffs)
    for i, c in enumerate(f.coeffs):
        if c == 0:
            continue
        if c in inv.units:
            g[i] = c
        elif c in inv.nilpotents:
            h[i] = c
        else:
            raise InternalInvariantError("local ring element neither unit nor nilpotent")
    return Polynomial(ring, tuple(g)), Polynomial(ring, tuple(h))


def _poly_nilpotency_index(h: Polynomial) -> int:
    """Least k with h^k = 0 for a polynomial with nilpotent coefficients."""
    if h.degree is None:
        return 1
    p = h
    k = 1
    while p.degree is not None:
        p = poly_mul(p, h)
        k += 1
        if k > h.ring.order + 1:
            raise ValueError("polynomial does not appear to be nilpotent")
    return k


def check_unit_exponent_nilpotency(ring: FiniteRing) -> Verdict:
    """P2.3ii, both directions quantitatively.

    (a) Every unit's order divides the N*(n-1) bound of P2.3i.
    (b) Converse: from the unit-group exponent m, form f = (X+1)^m - 1,
    split f = g + h into unit and nilpotent coefficients, take the least s
    with a unit coefficient on X^s, and the exponent N for h's nilpotency
    index in R[X].  Then f^N = g^N in R[X] and c^(sN) = 0 for every
    nilpotent c.
    """
    inv = _require(ring, "comm-local-unital")
    bound = check_unit_order_bound(ring)
    orders_divide = bool(bound.holds) and all(
        bound.witness["exponent"] % multiplicative_order(ring, u) == 0
        for u in inv.units.indices()
    )
    m = inv.unit_group_exponent
    x_plus_1 = poly_from(ring, (ring.unity, ring.unity))
    f = poly_sub(poly_pow(x_plus_1, m), poly_const(ring, ring.unity))
    g, h = split_unit_nilpotent(f)
    s = next(k for k in range(1, len(g.coeffs)) if g.coeffs[k] != 0)
    r_h = _poly_nilpotency_index(h)
    N = binomial_exponent(inv.characteristic, r_h).exponent
    powers_equal = poly_pow(f, N).stripped() == poly_pow(g, N).stripped()
    bad_c = next(
        (c for c in inv.nilpotents.indices() if ring.pow(c, s * N) != 0),
        None,
    )
    holds = orders_divide and powers_equal and bad_c is None
    witness = {"unit_exponent": m, "least_unit_degree": s,
               "exponent": N, "uniform_power": s * N,
               "order_bound": bound.witness["exponent"]}
    if bad_c is not None:
        witness["failing_nilpotent"] = bad_c
    return Verdict(
        "P2.3ii", holds, witness=witness,
        details=f"unit orders divide {bound.witness['exponent']}: {orders_divide}; "
                f"f^N = g^N: {powers_equal}; c^{s * N} = 0 for all "
                f"{inv.nilpotents.size} nilpotents: {bad_c is None}",
    )


# ---------------------------------------------------------------------------
# L2.4 / L2.5: image-size bounds
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _factor_residue_maps(ring: FiniteRing):
    """Per local factor, the composite map ring -> factor -> residue field."""
    out = []
    for factor in local_decomposition(ring):
        k, proj, _ = residue_field(factor.ring)
        chain = tuple(proj[factor.projection[x]] for x in range(ring.order))
        out.append((factor, k, chain))
    return tuple(out)


def _constant_modulo_a_maximal_ideal(result_id: str, ring: FiniteRing, values,
                                     subject: str) -> Verdict | None:
    """A precondition-failed verdict if the values (elements of ring) have a
    single residue modulo some maximal ideal, else None."""
    for factor, _, to_residue in _factor_residue_maps(ring):
        if len({to_residue[v] for v in values}) == 1:
            return Verdict(
                result_id, True, vacuous=True,
                witness={"constant_factor_order": factor.ring.order},
                details=f"precondition-failed: {subject} constant modulo the maximal ideal "
                        f"of the factor of order {factor.ring.order}",
            )
    return None


def check_residue_field_bound(emb: Embedding, f: Polynomial) -> Verdict:
    """L2.4: residue field orders of the small ring are at most |f(A)| * deg f.

    Precondition: for every maximal ideal of the big ring, the residues of
    f's values on the embedded subring are non-constant; otherwise the
    verdict is precondition-failed (vacuous).
    """
    small, big = emb.small, emb.big
    if f.ring is not big:
        raise ValueError("polynomial must have coefficients in the big ring")
    for r in (small, big):
        _require(r, "comm-unital")
    values = [poly_eval(f, a, via=emb) for a in range(small.order)]
    failed = _constant_modulo_a_maximal_ideal("L2.4", big, values, "values")
    if failed is not None:
        return failed
    img = len(set(values))
    deg = f.degree
    bound = img * deg
    residue_orders = [analyze(fac.ring).residue_field_order for fac in local_decomposition(small)]
    holds = all(n <= bound for n in residue_orders)
    return Verdict(
        "L2.4", holds,
        witness={"image_size": img, "degree": deg, "bound": bound,
                 "residue_orders": residue_orders},
        details=f"max residue order {max(residue_orders)} <= {img}*{deg} = {bound}: {holds}",
    )


def check_spectrum_bound(ring: FiniteRing, f: Polynomial) -> Verdict:
    """L2.5: the number of local factors is at most Omega(|f(R)|).

    Precondition: f is non-constant as a function modulo every maximal
    ideal; the failing factor is reported as precondition-failed otherwise.
    """
    if f.ring is not ring:
        raise ValueError("polynomial must have coefficients in the ring itself")
    _require(ring, "comm-unital")
    values = [poly_eval(f, x) for x in range(ring.order)]
    failed = _constant_modulo_a_maximal_ideal("L2.5", ring, values, "f is")
    if failed is not None:
        return failed
    img = len(set(values))
    omega = _omega(img)
    spectrum = len(local_decomposition(ring))
    holds = spectrum <= omega
    return Verdict(
        "L2.5", holds,
        witness={"image_size": img, "omega": omega, "local_factors": spectrum},
        details=f"|Spec| = {spectrum} <= Omega({img}) = {omega}: {holds}",
    )


# ---------------------------------------------------------------------------
# P2.6: building indicator functions and lifting residue polynomials
# ---------------------------------------------------------------------------

def char_function_from_image(ring: FiniteRing, f: Polynomial) -> Polynomial:
    """P2.6 forward step: the least N sending every unit value of f to 1 and
    every nilpotent value to 0 makes f^N a nontrivial 0/1-valued function.

    Refuses (TrivialImageError) when f's values are all units or all
    non-units, since the power would then be the constant 1 or 0.
    """
    inv = _require(ring, "comm-local-unital")
    if f.ring is not ring:
        raise ValueError("polynomial must have coefficients in the ring itself")
    values = set(function_table(f).values)
    unit_vals = [v for v in values if v in inv.units]
    nil_vals = [v for v in values if v not in inv.units]
    if not unit_vals or not nil_vals:
        side = "units" if unit_vals else "non-units"
        raise TrivialImageError(
            f"all values of the polynomial are {side}; the 0/1-valued power would be constant")
    lcm_orders = math.lcm(*(multiplicative_order(ring, v) for v in unit_vals))
    kill = max(element_nilpotency_index(ring, v) for v in nil_vals)
    N = ((kill + lcm_orders - 1) // lcm_orders) * lcm_orders
    result = poly_pow(f, N)
    if not _verify_char_polynomial(ring, result)[0]:
        raise InternalInvariantError("power of the polynomial is not a nontrivial 0/1 table")
    return result


def check_char_from_image(ring: FiniteRing, f: Polynomial) -> Verdict:
    """P2.6fwd as a verdict: run the construction and confirm its output table."""
    try:
        result = char_function_from_image(ring, f)
    except TrivialImageError as exc:
        return Verdict("P2.6fwd", True, vacuous=True,
                       witness={"refused": str(exc)},
                       details=f"refused: {exc}")
    _, support = _verify_char_polynomial(ring, result)
    return Verdict(
        "P2.6fwd", True,
        witness={"polynomial": result.stripped(), "support": support},
        details=f"0/1-valued non-constant table with support of size {len(support)}",
    )


@lru_cache(maxsize=None)
def _lift_basis(ring: FiniteRing):
    """Per-ring data reused by every lift: residue field, representatives,
    exponent, and the pre-raised products prod_{j != i} (X - alpha_j)^E.

    Every product and power is reduced modulo X^(t+p) - X^t for the power
    stabilization (t, p): x^(k+p) = x^k for k >= t, so the reduced
    polynomial induces the same function and its degree stays below t+p.
    """
    inv = _require(ring, "comm-local-unital")
    k, proj, reps = residue_field(ring)
    e = inv.nilpotency_index
    e_units = inv.unit_group_exponent
    n_big = e // e_units + 1          # least N with N * e_units > e
    exponent = n_big * e_units
    t, period = power_stabilization(ring)

    def reduced_mul(f: Polynomial, g: Polynomial) -> Polynomial:
        coeffs = list(poly_mul(f, g).coeffs)
        for d in range(len(coeffs) - 1, t + period - 1, -1):
            coeffs[d - period] = ring.add(coeffs[d - period], coeffs[d])
        return Polynomial(ring, tuple(coeffs[:t + period]))

    raised = []
    for i in range(len(reps)):
        prod = poly_const(ring, ring.unity)
        for j, alpha in enumerate(reps):
            if j != i:
                prod = reduced_mul(prod, poly_from(ring, (ring.neg(alpha), ring.unity)))
        power, base, rest = poly_const(ring, ring.unity), prod, exponent
        while rest:
            if rest & 1:
                power = reduced_mul(power, base)
            rest >>= 1
            if rest:
                base = reduced_mul(base, base)
        raised.append(power)
    return k, proj, reps, exponent, tuple(raised)


def lift_residue_polynomial(ring: FiniteRing, f: Polynomial | None = None
                            ) -> tuple[Polynomial, LiftData]:
    """P2.6 converse: lift a residue-field polynomial f to the ring as
    sum_i beta_i * (prod_{j != i} (X - alpha_j))^(N e'), preserving both the
    residue table and the image size.  The lift is returned reduced modulo
    X^(t+p) - X^t (``_lift_basis``), which leaves its table unchanged.

    alpha_i are the least coset representatives, beta_i the least lifts of
    f's residue values (equal residues get equal lifts), and N the least
    integer with N e' exceeding the nilpotency index.
    """
    k, proj, reps, exponent, raised = _lift_basis(ring)
    if f is None:
        f = poly_x(k)
    if f.ring is not k:
        raise ValueError("polynomial must be defined over the ring's residue field")
    betas = tuple(reps[poly_eval(f, i)] for i in range(k.order))
    lifted = Polynomial(ring, ())
    for beta, q in zip(betas, raised):
        if beta != 0:
            lifted = poly_add(lifted, poly_scale(beta, q))
    return lifted, LiftData(alphas=reps, betas=betas, exponent=exponent)


def check_residue_lift(ring: FiniteRing, f: Polynomial | None = None) -> Verdict:
    """P2.6lift as a verdict: the lift's image size matches the residue
    polynomial's, and its residues reproduce the residue table."""
    k, proj, reps = residue_field(ring)
    if f is None:
        f = poly_x(k)
    lifted, data = lift_residue_polynomial(ring, f)
    lift_values = [poly_eval(lifted, x) for x in range(ring.order)]
    res_values = [poly_eval(f, i) for i in range(k.order)]
    size_ok = len(set(lift_values)) == len(set(res_values))
    residue_ok = all(proj[lift_values[x]] == res_values[proj[x]] for x in range(ring.order))
    holds = size_ok and residue_ok
    return Verdict(
        "P2.6lift", holds,
        witness={"polynomial": lifted.stripped(), "exponent": data.exponent,
                 "image_size": len(set(lift_values)),
                 "residue_image_size": len(set(res_values))},
        details=f"|lift(R)| = {len(set(lift_values))} vs |f(k)| = {len(set(res_values))}; "
                f"residue tables agree: {residue_ok}; lift reduced mod X^(t+p) - X^t",
    )


# ---------------------------------------------------------------------------
# P2.7 / R2.8: classification and coset structure of indicator supports
# ---------------------------------------------------------------------------

def _verify_char_polynomial(ring: FiniteRing, w: Polynomial) -> tuple[bool, list[int]]:
    table = function_table(w).values
    ok = set(table) <= {0, ring.unity} and len(set(table)) == 2
    support = [x for x, v in enumerate(table) if v == ring.unity]
    return ok, support


def classify_char_function_existence(ring: FiniteRing,
                                     witness_poly: Polynomial | None = None) -> Verdict:
    """P2.7: a nontrivial polynomial indicator function exists iff the ring
    is local.  (For a finite ring the remaining classification conditions,
    zero-dimensionality and finiteness of residue field and nilpotency
    index, hold automatically.)

    A local ring's witness is x^N, the indicator of the units
    (``char_function_from_image`` on x).  A non-local ring has an idempotent
    e not in {0, 1}, which is the witness: every generator g of the induced
    functions (the constants and the b * x^k) has e*g(x) = e*g(e*x), so
    every induced F does.  A 0/1-valued F then has F(x) = F(e*x), since
    e*0 != e*1, and so F(x) = F(e*x) = F((1-e)*e*x) = F(0): F is constant.

    With ``witness_poly`` given, verification mode: the supplied polynomial
    is checked to be a nontrivial indicator, instead of searching.
    """
    inv = _require(ring, "comm-unital")
    is_local = bool(inv.is_local)

    if witness_poly is not None:
        ok, support = _verify_char_polynomial(ring, witness_poly)
        holds = ok == is_local
        return Verdict(
            "P2.7", holds,
            witness={"polynomial": witness_poly.stripped(), "support": support},
            details=f"supplied polynomial is a nontrivial indicator: {ok}; is_local={is_local}",
        )

    if is_local:
        w = char_function_from_image(ring, poly_x(ring))
        witness = {"polynomial": w, "support": _verify_char_polynomial(ring, w)[1]}
        side = "x^N is the indicator of the units"
    else:
        e = next(x for x in inv.idempotents if x not in (0, ring.unity))
        witness = {"idempotent": e}
        side = f"idempotent {e} makes every 0/1-valued polynomial function constant"
    return Verdict("P2.7", True, witness=witness, details=f"{side}; is_local={is_local}")


def check_char_support_cosets(ring: FiniteRing, subset=None) -> Verdict:
    """R2.8: the support of a polynomial indicator function on a local ring
    is a union of cosets of the maximal ideal J, the non-units.

    For any polynomial F and j in J, F(x + j) - F(x) lies in the two-sided
    ideal that j generates, which is inside J: an indicator with F(x) = 1
    and F(x + j) = 0 would put -1 in J.  So a subset (default: the units)
    that is not a union of cosets has no polynomial, certified by
    {"point": x, "shift": j} with x in it, j a non-unit and x + j outside
    it; this holds on noncommutative rings too and needs no lookup.

    ``swept`` counts the induced unions other than the two constants.  On
    a commutative non-field, ``_lift_basis``'s raised[i] is the indicator
    of alpha_i + J (P2.6's lift), so each of the q coset tables is checked
    once and every union is induced by the sum of its raised[i]: 2^q - 2.
    A field's cosets are points (``swept`` = -1, and ``char_poly_for_subset``
    interpolates).  A noncommutative ring looks up its 2^q - 2 non-constant
    unions; a non-field local ring has order q^l with l >= 2, so q <= sqrt(n).
    """
    inv = _require(ring, "local-unital")
    k, proj, _ = residue_field(ring)
    subset = inv.units if subset is None else SubsetMask.of(ring, subset)
    non_units = [j for j in range(ring.order) if j not in inv.units]
    outside = next(((x, j) for x in subset.indices() for j in non_units
                    if ring.add(x, j) not in subset), None)
    raised = None
    if inv.is_field:
        swept = -1
    elif inv.is_commutative:
        raised = _lift_basis(ring)[4]
        for i, w in enumerate(raised):
            if _verify_char_polynomial(ring, w) != (True, [x for x, c in enumerate(proj) if c == i]):
                raise InternalInvariantError(f"the lifted indicator of coset {i} of {ring.label} "
                                             "has another support")
        swept = 2 ** k.order - 2
    else:
        pset = polynomial_function_set(ring)
        swept = sum(pset.contains([ring.unity if bits >> c & 1 else 0 for c in proj])
                    for bits in range(1, 2 ** k.order - 1))

    report: dict[str, Any] = {"subset": list(subset.indices())}
    if outside is not None:
        x, j = outside
        report.update(polynomial_exists=False, coset_union=False,
                      certificate={"point": x, "shift": j})
        details = f"subset is not a coset union: {x} is in it and {x} + {j} is not"
    else:
        if raised is None:
            wit = char_poly_for_subset(ring, subset)
        else:
            wit = Polynomial(ring, ())
            for i in sorted({proj[x] for x in subset.indices()}):
                wit = poly_add(wit, raised[i])
            wit = wit.stripped()
        report.update(polynomial_exists=wit is not None, coset_union=True)
        if wit is not None:
            report["polynomial"] = wit
        details = "all polynomial indicator supports are coset unions"
    report["swept"] = swept
    return Verdict("R2.8", True, witness=report, details=details)


# ---------------------------------------------------------------------------
# the check registry
# ---------------------------------------------------------------------------

@dataclass
class CheckOptions:
    """Inputs a registry runner passes on to its check, as the CLI spells them."""

    poly: str | None = None
    subset: str | None = None
    s_max: int = 3


@dataclass(frozen=True)
class Check:
    """One result code: the ring requirement it needs and how to run it."""

    requires: str
    run: Callable[[FiniteRing, CheckOptions], Verdict]

    def applies(self, ring: FiniteRing) -> bool:
        return _REQUIREMENTS[self.requires](analyze(ring))


def _poly_arg(opts: CheckOptions, ring: FiniteRing) -> Polynomial | None:
    """The ``poly`` option parsed over the given ring, or None when unset."""
    return None if opts.poly is None else parse_poly_text(opts.poly, ring)


def _poly_or_x(opts: CheckOptions, ring: FiniteRing) -> Polynomial:
    return poly_x(ring) if opts.poly is None else _poly_arg(opts, ring)


def _subset_ids(opts: CheckOptions) -> list[int] | None:
    if opts.subset is None:
        return None
    try:
        return [int(part) for part in opts.subset.split(",") if part.strip() != ""]
    except ValueError:
        raise RingSpecError(f"subset must be comma-separated indices, got {opts.subset!r}")


# Runners name the check functions at call time, so a patched module
# attribute (e.g. a tracing wrapper) is what runs.
CHECKS: dict[str, Check] = {
    "L1.1": Check("any", lambda ring, o: check_reachability_iff_field(ring)),
    "P1.2": Check("any", lambda ring, o: check_bijections_iff_field(ring)),
    "P1.3": Check("unital", lambda ring, o: check_char_functions_iff_field(ring)),
    "P2.1": Check("comm-unital", lambda ring, o: verify_subring_char_function(
        identity_embedding(ring), _poly_or_x(o, ring))),
    "L2.2": Check("commutative", lambda ring, o: check_nilpotent_shift_powers(ring, s_max=o.s_max)),
    "P2.3i": Check("local-unital", lambda ring, o: check_unit_order_bound(ring)),
    "P2.3ii": Check("comm-local-unital", lambda ring, o: check_unit_exponent_nilpotency(ring)),
    "L2.4": Check("comm-unital", lambda ring, o: check_residue_field_bound(
        identity_embedding(ring), _poly_or_x(o, ring))),
    "L2.5": Check("comm-unital", lambda ring, o: check_spectrum_bound(ring, _poly_or_x(o, ring))),
    "P2.6fwd": Check("comm-local-unital",
                     lambda ring, o: check_char_from_image(ring, _poly_or_x(o, ring))),
    "P2.6lift": Check("comm-local-unital", lambda ring, o: check_residue_lift(
        ring, _poly_arg(o, residue_field(ring)[0]))),
    "P2.7": Check("comm-unital", lambda ring, o: classify_char_function_existence(
        ring, witness_poly=_poly_arg(o, ring))),
    "R2.8": Check("local-unital", lambda ring, o: check_char_support_cosets(
        ring, subset=_subset_ids(o))),
}

RESULT_IDS = tuple(CHECKS)
