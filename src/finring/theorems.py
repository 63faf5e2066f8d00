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
       zero-constant polynomials, equivalent to being a field; the values at
       u form the left ideal Ru, so the witness is P1.2's pair (c, y)
P1.2   every bijection induced by a polynomial, equivalent to being a field;
       a swap moving F(c) - F(0) out of a proper left ideal Rc is not induced
P1.3   every subset indicator induced by a polynomial (unital rings),
       equivalent to being a field; a non-field's least nonzero non-unit
       certifies that the indicator of {0} is not induced
P2.1   a ring whose nonzero elements a polynomial over a bigger ring sends
       to 1, and 0 to 0, is a finite field; a field's witness is x^(q-1),
       a non-field's a pair c, d != 0 with c*d = 0, which rules out every
       such polynomial over every extension
L2.2   the shift-by-nilpotent power identity (b+c)^(sN) = b^(sN) with the
       exponent N built from the characteristic and the nilpotency index;
       checked at s = 1, which gives every s
P2.3i  every unit order divides N*(n-1) for the residue field order n
P2.3ii from the unit-group exponent, a uniform exponent sN killing every
       nilpotent, via the unit/nilpotent coefficient split
L2.4   residue field orders of the ring are bounded by |f(R)| * deg f
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
from typing import Any, Callable

import numpy as np

from .catalog import RingSpecError, parse_poly_text
from .core import (
    FiniteRing,
    InternalInvariantError,
    RingInvariants,
    SubsetMask,
    UnsupportedStructureError,
    _factorize,
    _local_factors,
    analyze,
    binary_power,
    element_nilpotency_index,
    multiplicative_order,
    per_ring,
    power_map,
    residue_field,
)
from .polyfun import (
    Polynomial,
    _table_lists,
    _trusted,
    char_poly_for_subset,
    function_count,
    function_table,
    poly_add,
    poly_const,
    poly_eval,
    poly_from,
    poly_mul,
    poly_scale,
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
# L1.1 / P1.2 / P1.3: field characterizations
# ---------------------------------------------------------------------------

def _proper_left_ideal(ring: FiniteRing) -> tuple[int, int] | None:
    """The least nonzero c with Rc != R and the least y outside Rc, or None;
    L1.1, P1.2 and P1.3 share it through ``per_ring``.

    Rc is read off column c of the mul table.  Without such a c no product
    of nonzero elements is 0, so the ring is a finite division ring, hence a
    field (Wedderburn), and it must induce all n^n tables.
    """
    n = ring.order
    for c in range(1, n):
        ideal = set(ring.mul_table[:, c].tolist())
        if len(ideal) < n:
            return c, next(y for y in range(n) if y not in ideal)
    if function_count(ring) != n ** n:
        raise InternalInvariantError(
            f"Rc = R for every nonzero c, but {ring.label} does not induce all {n}^{n} tables")
    return None


def check_reachability_iff_field(ring: FiniteRing) -> Verdict:
    """L1.1: every nonzero s reachable from every nonzero u via zero-constant
    polynomials, if and only if the ring is a field.

    The values at u of zero-constant polynomials form the left ideal Ru:
    sum_{k>=1} a_k u^k = (a_1 + sum_{k>=2} a_k u^(k-1)) * u, and r * u is the
    value of rX.  So the witness is P1.2's pair: the least nonzero c with
    Rc != R and the least target y outside Rc.
    """
    inv = analyze(ring)
    unreachable = per_ring(ring, _proper_left_ideal)
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
    F(c) - F(0) out of Rc, so no polynomial induces it.  Without such a c the
    ring is a field and a set of n^n tables holds every bijection.
    """
    inv = analyze(ring)
    n = ring.order
    proper = per_ring(ring, _proper_left_ideal)
    witness = None
    if proper is None:
        side = "every bijection is polynomial"
    else:
        c, y = proper
        a, b = (c, y) if y != c else (0, c)
        swap = [b if x == a else a if x == b else x for x in range(n)]
        witness = {"bijection": swap, "point": c}
        side = f"bijection {swap} is not polynomial: it moves F({c}) - F(0) out of R*{c}"
    holds = (witness is None) == inv.is_field
    return Verdict("P1.2", holds, witness=witness, details=f"{side}; is_field={inv.is_field}")


def check_char_functions_iff_field(ring: FiniteRing) -> Verdict:
    """P1.3: every subset indicator is induced by a polynomial iff the ring is a field.

    On a finite unital ring Rc = R exactly when c is a unit, so P1.2's c is
    the least nonzero non-unit.  Without one the ring is a field and a set
    of n^n tables holds every indicator.  A polynomial F inducing the
    indicator of {0} would give -1 = F(c) - F(0) = sum_k (a_k c^(k-1)) * c,
    so some r would have r*c = -1 and c would be a unit.  Only left
    coefficients enter, so this holds on noncommutative rings too.
    """
    inv = _require(ring, "unital")
    proper = per_ring(ring, _proper_left_ideal)
    if proper is None:
        all_subsets, witness = True, None
    else:
        c = proper[0]
        if ring.neg(ring.unity) in ring.mul_table[:, c].tolist():
            raise InternalInvariantError(f"r*{c} = -1 for some r, but {c} is not a unit")
        all_subsets, witness = False, {"subset": [0], "non_unit": c}
    holds = all_subsets == inv.is_field
    side = "every subset indicator is polynomial" if all_subsets else \
        "indicator of [0] is not polynomial"
    return Verdict("P1.3", holds, witness=witness, details=f"{side}; is_field={inv.is_field}")


# ---------------------------------------------------------------------------
# P2.1: indicator of the nonzero elements over an extension ring
# ---------------------------------------------------------------------------

def verify_subring_char_function(ring: FiniteRing, f: Polynomial | None = None) -> Verdict:
    """P2.1: if some f sends 0 to 0 and every nonzero element of the ring to
    1, the ring is a finite field, whatever ring containing it f is over.

    A field passes with x^(q-1), confirmed by its unit-group exponent
    dividing q - 1.  A non-field passes with its least nonzero non-unit c
    and the least nonzero d with c*d = 0, which rule out every f over every
    extension: f(c) - f(0) = c*g(c), so f(0) = 0 and f(c) = 1 would give
    d = d*c*g(c) = 0.

    With ``f`` given, verification mode: f (over the ring) is evaluated, and
    a failed hypothesis is reported as vacuous.
    """
    inv = _require(ring, "comm-unital")
    n = ring.order
    if f is not None:
        if f.ring is not ring:
            raise ValueError("polynomial must have coefficients in the ring itself")
        bad = next((a for a in range(n) if poly_eval(f, a) != (ring.unity if a else 0)), None)
        if bad is not None:
            return Verdict("P2.1", True, vacuous=True, witness={"hypothesis_fails_at": bad},
                           details=f"hypothesis fails at element {bad}; implication is vacuous")
        return Verdict("P2.1", inv.is_field, witness={"field": inv.is_field},
                       details=f"hypothesis holds and is_field={inv.is_field} for {ring.label}")
    if inv.is_field:
        if (n - 1) % inv.unit_group_exponent:
            raise InternalInvariantError(f"{ring.label}: unit group exponent does not divide {n - 1}")
        witness = {"polynomial": Polynomial(ring, (0,) * (n - 1) + (ring.unity,)), "field": True}
        details = (f"x^{n - 1} sends 0 to 0 and every nonzero element to 1: "
                   f"the unit group exponent {inv.unit_group_exponent} divides {n - 1}")
    else:
        c = next(x for x in range(1, n) if x not in inv.units)
        d = next((y for y, cy in enumerate(ring.mul_table[c].tolist()) if y and cy == 0), None)
        if d is None:
            raise InternalInvariantError(f"the non-unit {c} of {ring.label} annihilates nothing")
        witness = {"non_unit": c, "annihilator": d}
        details = f"{c}*{d} = 0, so no f over any extension sends 0 to 0 and {c} to 1"
    return Verdict("P2.1", True, witness=witness, details=details)


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
    k = nilp_index - 1  # v_p(k!) = sum_i floor(k / p^i) (Legendre), and p^i > k once 2^i > k
    betas = tuple(sum(k // p ** i for i in range(1, k.bit_length() + 1)) for p, _ in fact)
    exponent = math.prod(p ** (e + b) for (p, e), b in zip(fact, betas))
    return BinomialExponent(char_n, nilp_index, fact, betas, exponent)


def verify_nilpotent_shift_power(ring: FiniteRing, b: int, c: int) -> Verdict:
    """L2.2: with N built from the characteristic and c's own nilpotency index,
    (b + c)^(sN) = b^(sN) for every s >= 1; x^(sN) = (x^N)^s, so only s = 1
    is compared."""
    inv = _require(ring, "commutative")
    idx = element_nilpotency_index(ring, c)
    if idx is None:
        raise ValueError(f"element {c} is not nilpotent")
    N = binomial_exponent(inv.characteristic, idx).exponent
    power = power_map(ring, N)
    holds = bool(power[ring.add_table[b, c]] == power[b])
    return Verdict(
        "L2.2", holds,
        witness={"b": b, "c": c, "nilp_index": idx, "exponent": N},
        details=f"(b+c)^N vs b^N with N={N}, hence (b+c)^(sN) vs b^(sN) for every s: "
                f"{'equal' if holds else 'differ'}",
    )


def check_nilpotent_shift_powers(ring: FiniteRing) -> Verdict:
    """L2.2 over every (b, nilpotent c) pair of the ring, as array kernels.

    The nilpotents c are grouped by their exponent N; each group reads the
    power map x -> x^N from the ring's power table (``core.power_map``) and
    compares (b+c)^N with b^N for every b at once.  A failure is reported as
    ``verify_nilpotent_shift_power`` reports the first failing pair, c
    ascending and then b ascending.
    """
    inv = _require(ring, "commutative")
    A = ring.add_table
    groups: dict[int, list[int]] = {}
    for c in inv.nilpotents.indices():
        idx = element_nilpotency_index(ring, c)
        groups.setdefault(binomial_exponent(inv.characteristic, idx).exponent, []).append(c)
    failures = []
    for N, cs in groups.items():
        power = power_map(ring, N)
        differ = power[A[:, cs]] != power[:, None]  # [b, i]: (b + cs[i])^N != b^N
        if differ.any():
            i, b = np.argwhere(differ.T)[0]
            failures.append((cs[i], int(b)))
    if failures:
        c, b = min(failures)
        return verify_nilpotent_shift_power(ring, b, c)
    checked = inv.nilpotents.size * ring.order
    return Verdict(
        "L2.2", True,
        witness={"pairs": checked},
        details=f"all {checked} (b, c) pairs agree at s=1, hence at every s",
    )


# ---------------------------------------------------------------------------
# P2.3: unit orders and the nilpotency/unit-exponent link
# ---------------------------------------------------------------------------

def _unit_order_bound(ring: FiniteRing) -> tuple[int, int, int | None]:
    """P2.3i's N = p^e * (r-1)! and E = N*(n-1), with the least unit u
    whose u^E is not 1, or None, read off the power map x -> x^E; P2.3ii
    starts from the same bound, read through ``per_ring``."""
    inv = _require(ring, "local-unital")
    if len(_factorize(inv.characteristic)) != 1:
        raise UnsupportedStructureError("a local ring must have prime-power characteristic")
    N = inv.characteristic * math.factorial(inv.nilpotency_index - 1)
    E = N * (inv.residue_field_order - 1)
    power = power_map(ring, E)
    return N, E, next((u for u in inv.units.indices() if power[u] != ring.unity), None)


def check_unit_order_bound(ring: FiniteRing) -> Verdict:
    """P2.3i: with N = p^e * (r-1)! every unit satisfies u^(N*(n-1)) = 1,
    where p^e is the characteristic, r the nilpotency index and n the
    residue field order.  Cross-checks that the unit-group exponent divides
    N*(n-1)."""
    inv = _require(ring, "local-unital")
    N, E, bad = per_ring(ring, _unit_order_bound)
    divides = E % inv.unit_group_exponent == 0
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


def _binomial_polynomial(ring: FiniteRing, m: int, characteristic: int) -> Polynomial:
    """(X+1)^m - 1, written down: its X^k coefficient is C(m, k) * 1, and
    k * 1 depends only on k mod the characteristic.  O(m) coefficients,
    where expanding the power takes O(m^2) products."""
    multiples = [0]  # k * 1 for 0 <= k < characteristic
    while len(multiples) < characteristic:
        multiples.append(ring.add(multiples[-1], ring.unity))
    return Polynomial(ring, (0, *(multiples[math.comb(m, k) % characteristic]
                                  for k in range(1, m + 1))))


def check_unit_exponent_nilpotency(ring: FiniteRing) -> Verdict:
    """P2.3ii, both directions quantitatively.

    (a) Every unit's order divides the N*(n-1) bound of P2.3i
    (``_unit_order_bound``).
    (b) Converse: from the unit-group exponent m, form f = (X+1)^m - 1,
    split f = g + h into unit and nilpotent coefficients, take the least s
    with a unit coefficient on X^s, and the exponent N for h's nilpotency
    index r_h in R[X].  Then f^N = g^N in R[X] and c^(sN) = 0 for every
    nilpotent c.  The powers agree without being expanded: f^N - g^N is
    sum_{k=1}^{N} C(N, k) g^(N-k) h^k, h^k = 0 for k >= r_h, and N makes
    the characteristic divide C(N, k) for 0 < k < r_h.
    """
    inv = _require(ring, "comm-local-unital")
    m = inv.unit_group_exponent
    _, bound, bad_u = per_ring(ring, _unit_order_bound)
    orders_divide = bad_u is None and bound % m == 0  # u^E = 1 exactly when ord(u) divides E
    g, h = split_unit_nilpotent(_binomial_polynomial(ring, m, inv.characteristic))
    s = next(k for k in range(1, len(g.coeffs)) if g.coeffs[k] != 0)
    r_h, power = 1, h  # the least r_h with h^(r_h) = 0
    while power.degree is not None:
        power, r_h = poly_mul(power, h), r_h + 1
    N = binomial_exponent(inv.characteristic, r_h).exponent
    powers_equal = all(math.comb(N, k) % inv.characteristic == 0 for k in range(1, r_h))
    power = power_map(ring, s * N)
    bad_c = next((c for c in inv.nilpotents.indices() if power[c] != 0), None)
    holds = orders_divide and powers_equal and bad_c is None
    witness = {"unit_exponent": m, "least_unit_degree": s,
               "exponent": N, "uniform_power": s * N,
               "order_bound": bound}
    if bad_c is not None:
        witness["failing_nilpotent"] = bad_c
    return Verdict(
        "P2.3ii", holds, witness=witness,
        details=f"unit orders divide {bound}: {orders_divide}; "
                f"f^N = g^N: {powers_equal}; c^{s * N} = 0 for all "
                f"{inv.nilpotents.size} nilpotents: {bad_c is None}",
    )


# ---------------------------------------------------------------------------
# L2.4 / L2.5: image-size bounds
# ---------------------------------------------------------------------------

def _image_size(result_id: str, ring: FiniteRing, f: Polynomial,
                subject: str) -> tuple[int | None, Verdict | None]:
    """(|f(R)|, None), or (None, a precondition-failed verdict) if f's values have one
    residue modulo some maximal ideal: equal keys on a factor of ``core._local_factors``."""
    if f.ring is not ring:
        raise ValueError("polynomial must have coefficients in the ring itself")
    _require(ring, "comm-unital")
    values = [poly_eval(f, x) for x in range(ring.order)]
    for local in per_ring(ring, _local_factors):
        key = local.key.tolist()
        if len({key[v] for v in values}) == 1:
            order = len(local.elements)
            return None, Verdict(
                result_id, True, vacuous=True,
                witness={"constant_factor_order": order},
                details=f"precondition-failed: {subject} constant modulo the maximal ideal "
                        f"of the factor of order {order}",
            )
    return len(set(values)), None


def check_residue_field_bound(ring: FiniteRing, f: Polynomial) -> Verdict:
    """L2.4: residue field orders of the ring are at most |f(R)| * deg f.

    Precondition: for every maximal ideal, the residues of f's values are
    non-constant; otherwise the verdict is precondition-failed (vacuous).
    Residues and residue field orders come from ``core._local_factors``,
    which builds no ring.
    """
    img, failed = _image_size("L2.4", ring, f, "values")
    if failed is not None:
        return failed
    deg = f.degree
    bound = img * deg
    residue_orders = [len(local.representatives) for local in per_ring(ring, _local_factors)]
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
    Factors are counted in ``core._local_factors``; none is built.
    """
    img, failed = _image_size("L2.5", ring, f, "f is")
    if failed is not None:
        return failed
    omega = sum(e for _, e in _factorize(img))  # prime factors with multiplicity
    spectrum = len(per_ring(ring, _local_factors))
    holds = spectrum <= omega
    return Verdict(
        "L2.5", holds,
        witness={"image_size": img, "omega": omega, "local_factors": spectrum},
        details=f"|Spec| = {spectrum} <= Omega({img}) = {omega}: {holds}",
    )


# ---------------------------------------------------------------------------
# P2.6: building indicator functions and lifting residue polynomials
# ---------------------------------------------------------------------------

def char_function_from_image(ring: FiniteRing, f: Polynomial) -> tuple[Polynomial, list[int]]:
    """P2.6 forward step: the least N sending every unit value of f to 1 and
    every nilpotent value to 0 makes f^N a nontrivial 0/1-valued function.

    Refuses (TrivialImageError) when f's values are all units or all
    non-units, since the power would then be the constant 1 or 0.  The power
    is returned reduced modulo X^(t+p) - X^t (``_reduced_pow``), with the
    support on which its table was verified to be 1.
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
    result = _reduced_pow(f, N)
    ok, support = _verify_char_polynomial(ring, result)
    if not ok:
        raise InternalInvariantError("power of the polynomial is not a nontrivial 0/1 table")
    return result, support


def _units_indicator(ring: FiniteRing) -> tuple[Polynomial, tuple[int, ...]]:
    """x^N, the indicator of the units of a commutative local ring, with its
    support: P2.6fwd's default witness and P2.7's on a local ring, shared
    through ``per_ring``."""
    w, support = char_function_from_image(ring, poly_x(ring))
    return w, tuple(support)


def check_char_from_image(ring: FiniteRing, f: Polynomial) -> Verdict:
    """P2.6fwd as a verdict: run the construction, which confirms its
    output table; f = x reads the ring's ``_units_indicator``."""
    try:
        if f.ring is ring and f.coeffs == (0, ring.unity):
            result, support = per_ring(ring, _units_indicator)
        else:
            result, support = char_function_from_image(ring, f)
    except TrivialImageError as exc:
        return Verdict("P2.6fwd", True, vacuous=True,
                       witness={"refused": str(exc)},
                       details=f"refused: {exc}")
    return Verdict(
        "P2.6fwd", True,
        witness={"polynomial": result.stripped(), "support": list(support)},
        details=f"0/1-valued non-constant table with support of size {len(support)}",
    )


def _lift_exponent(inv: RingInvariants) -> int:
    """N e' for the unit group exponent e' and the least N with N e' > nilpotency index."""
    return (inv.nilpotency_index // inv.unit_group_exponent + 1) * inv.unit_group_exponent


def _reduced_pow(f: Polynomial, k: int) -> Polynomial:
    """f^k for k >= 1 by repeated squaring, f and each product reduced
    modulo X^(t+p) - X^t for the power stabilization (t, p) of the ring:
    x^(k+p) = x^k for every x and k >= t, so the remainder induces the same
    function, and its degree stays below t+p."""
    ring = f.ring
    t, period = power_stabilization(ring)
    add = per_ring(ring, _table_lists)[0]

    def reduced(g: Polynomial) -> Polynomial:
        coeffs = list(g.coeffs)
        for d in range(len(coeffs) - 1, t + period - 1, -1):
            coeffs[d - period] = add[coeffs[d - period]][coeffs[d]]
        return _trusted(ring, tuple(coeffs[:t + period]))

    return binary_power(lambda g, h: reduced(poly_mul(g, h)), reduced(f), k)


def _lift_basis(ring: FiniteRing) -> tuple[Polynomial, ...]:
    """The pre-raised products prod_{j != i} (X - alpha_j)^E over the
    residue field's coset representatives alpha_j, with E = ``_lift_exponent``,
    each power reduced by ``_reduced_pow``.  A product of q - 1 linear factors
    needs no reduction: its degree q - 1 is below t + p, since the period p is
    a multiple of q - 1.  P2.6lift and R2.8 read it through ``per_ring``.
    """
    inv = _require(ring, "comm-local-unital")
    reps = residue_field(ring)[2]
    raised = []
    for i in range(len(reps)):
        prod = poly_const(ring, ring.unity)
        for j, alpha in enumerate(reps):
            if j != i:
                prod = poly_mul(prod, poly_from(ring, (ring.neg(alpha), ring.unity)))
        raised.append(_reduced_pow(prod, _lift_exponent(inv)))
    return tuple(raised)


def lift_residue_polynomial(ring: FiniteRing, f: Polynomial | None = None
                            ) -> tuple[Polynomial, LiftData]:
    """P2.6 converse: lift a residue-field polynomial f to the ring as
    sum_i beta_i * (prod_{j != i} (X - alpha_j))^(N e'), preserving both the
    residue table and the image size.  The lift is returned reduced modulo
    X^(t+p) - X^t (``_lift_basis``), which leaves its table unchanged.

    alpha_i are the least coset representatives, beta_i the least lifts of
    f's residue values (equal residues get equal lifts), and N the least
    integer with N e' exceeding the nilpotency index.  On a field the
    reduced lift has degree below q, so it is the unique interpolant of its
    table, the betas, which are f's values: it is f itself reduced modulo
    X^q - X (t + p = q on a field), and is returned as that.
    """
    inv = _require(ring, "comm-local-unital")
    k, proj, reps = residue_field(ring)
    if f is None:
        f = poly_x(k)
    if f.ring is not k:
        raise ValueError("polynomial must be defined over the ring's residue field")
    betas = tuple(reps[poly_eval(f, i)] for i in range(k.order))
    data = LiftData(alphas=reps, betas=betas, exponent=_lift_exponent(inv))
    if inv.is_field:
        return _reduced_pow(f, 1).stripped(), data
    lifted = Polynomial(ring, ())
    for beta, q in zip(betas, per_ring(ring, _lift_basis)):
        if beta != 0:
            lifted = poly_add(lifted, poly_scale(beta, q))
    return lifted, data


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

    A local ring's witness is x^N, the indicator of the units, which
    P2.6fwd builds too (``_units_indicator``).  A non-local ring has an
    idempotent e not in {0, 1}, which is the witness: every generator g of
    the induced functions (the constants and the b * x^k) has
    e*g(x) = e*g(e*x), so every induced F does.  A 0/1-valued F then has F(x) = F(e*x), since
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
        w, support = per_ring(ring, _units_indicator)
        witness = {"polynomial": w, "support": list(support)}
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
    shifts = [(j, ring.add_table[j].tolist()) for j in range(ring.order) if j not in inv.units]
    outside = next(((x, j) for x in subset.indices() for j, plus_j in shifts  # plus_j[x] = x + j
                    if plus_j[x] not in subset), None)
    raised = None
    if inv.is_field:
        swept = -1
    elif inv.is_commutative:
        raised = per_ring(ring, _lift_basis)
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


@dataclass(frozen=True)
class Check:
    """One result code: the ring requirement it needs, how to run it, and
    the ``CheckOptions`` field it reads, if any."""

    requires: str
    run: Callable[[FiniteRing, CheckOptions], Verdict]
    reads: str | None = None

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
        ring, _poly_arg(o, ring)), "poly"),
    "L2.2": Check("commutative", lambda ring, o: check_nilpotent_shift_powers(ring)),
    "P2.3i": Check("local-unital", lambda ring, o: check_unit_order_bound(ring)),
    "P2.3ii": Check("comm-local-unital", lambda ring, o: check_unit_exponent_nilpotency(ring)),
    "L2.4": Check("comm-unital", lambda ring, o: check_residue_field_bound(
        ring, _poly_or_x(o, ring)), "poly"),
    "L2.5": Check("comm-unital", lambda ring, o: check_spectrum_bound(ring, _poly_or_x(o, ring)),
                  "poly"),
    "P2.6fwd": Check("comm-local-unital",
                     lambda ring, o: check_char_from_image(ring, _poly_or_x(o, ring)), "poly"),
    "P2.6lift": Check("comm-local-unital", lambda ring, o: check_residue_lift(
        ring, _poly_arg(o, residue_field(ring)[0])), "poly"),
    "P2.7": Check("comm-unital", lambda ring, o: classify_char_function_existence(
        ring, witness_poly=_poly_arg(o, ring)), "poly"),
    "R2.8": Check("local-unital", lambda ring, o: check_char_support_cosets(
        ring, subset=_subset_ids(o)), "subset"),
}

RESULT_IDS = tuple(CHECKS)
