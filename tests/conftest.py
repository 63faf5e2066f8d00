"""Shared fixtures and the pure-Python oracles.

The brute-force oracle enumerates every coefficient tuple up to the
stabilization degree and tabulates it with plain ring arithmetic.  The
coset-growth oracle grows the function group one generator at a time as
explicit tables with witness rows; it shares no code with the lattice that
the library counts, decides and solves membership with.  The Lagrange oracle builds field interpolants from basis
polynomials, independently of the closed form in ``interpolate_field``.
The closed-form oracle sums that closed form one table read at a time,
where the library takes one matrix product over additive coordinates.
The CRT oracle builds each local factor of a product of fields as its own
ring, interpolates there and glues the coefficients by the Chinese
remainder theorem, where the library interpolates once inside the ring.
The residue oracle maps each element through a built local factor into
its built residue field, where L2.4 and L2.5 read the residues off the
primitive idempotents and the radical.
The schoolbook oracles multiply and evaluate polynomials term by term
through ``ring.add``/``ring.mul``, where the library indexes table rows.
The syndrome oracle finds every induced indicator by matching the
lattice syndromes of half-subsets, where R2.8 builds the coset indicators
by P2.6's lift.  The reach oracle closes {a * u^k} under addition, where
L1.1 reads the left ideal Ru off the mul table.  The axiom scan checks
associativity and distributivity at every triple of elements, where
``validate_ring`` checks them only against an additive generating set.
The loop oracles fill Cayley tables pair by pair in plain Python (a
polynomial product and remainder per pair for a quotient), where the
constructors build them with numpy.
The pair oracle checks L2.2 with two scalar powers per (b, c) pair, where
the check compares whole-ring power maps.  The expansion oracle compares
P2.3ii's f^N and g^N coefficient by coefficient, where the check reads the
binomial coefficients C(N, k) only.  The extension oracle closes the
functions that polynomials over a ring S induce on a subring D, given by an
embedding, where P2.1 reads a zero-divisor pair of D off its mul table.
The walk oracles follow one element's powers a product at a time (the rho
of each power sequence, the nilpotency index and the multiplicative
order), where the library reads every power off one table per ring.
The tracked-lattice oracle finds each entry's valuation by its own loop
and reduces by ``% q``, where the library reads valuations and residues
off lookup tables.
"""

from __future__ import annotations

import math
from collections import OrderedDict
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
from finring.core import AxiomViolation, analyze, multiplicative_inverse, render_poly
from finring.polyfun import (Polynomial, poly_add, poly_const, poly_from, poly_mul, poly_pow,
                             poly_scale, poly_sub)
from finring.theorems import Verdict, split_unit_nilpotent, verify_nilpotent_shift_power


def rho_stabilization(ring) -> tuple[int, int]:
    """Least (t, p) with x^(k+p) = x^k for every x and every k >= t, one
    element at a time: each power sequence is a rho whose tail values never
    recur, so the preperiods and cycle lengths combine by max and lcm."""
    t = p = 1
    for x in range(ring.order):
        seen, power = {}, x  # seen[x^k] = k
        while power not in seen:
            seen[power] = len(seen) + 1
            power = ring.mul_table[power][x]
        t, p = max(t, seen[power]), math.lcm(p, len(seen) + 1 - seen[power])
    return t, p


def walk_nilpotency_index(ring, a: int) -> int | None:
    """Least k >= 1 with a^k = 0, or None once a power recurs first."""
    seen, power, k = set(), a, 1
    while power not in seen:
        if power == 0:
            return k
        seen.add(power)
        power, k = ring.mul_table[power][a], k + 1
    return None


def walk_multiplicative_order(ring, u: int) -> int:
    """Least k >= 1 with u^k = 1; ValueError after |R| products without it."""
    power, k = u, 1
    while power != ring.unity:
        power, k = ring.mul_table[power][u], k + 1
        if k > ring.order:
            raise ValueError(f"element {u} is not a unit")
    return k


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


def zero_constant_reach(ring, u: int) -> set[int]:
    """The values at u of every zero-constant polynomial: the additive
    closure of {a * u^k : a in R, k >= 1}."""
    powers = set()
    p = u
    while p not in powers:
        powers.add(p)
        p = ring.mul_table[p][u]
    gens = {ring.mul_table[a][pk] for a in range(ring.order) for pk in powers}
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


def axiom_scan(ring) -> None:
    """Every ring axiom at every element, in O(n^3): raises AxiomViolation
    with a violating tuple of element indices on failure."""
    n = ring.order
    A = np.asarray(ring.add_table, dtype=np.int64)
    M = np.asarray(ring.mul_table, dtype=np.int64)
    for what, arr in (("addition", A), ("multiplication", M)):
        if arr.min() < 0 or arr.max() >= n:
            a, b = np.argwhere((arr < 0) | (arr >= n))[0]
            raise AxiomViolation(f"{what}-closure", (int(a), int(b)))
    if not np.array_equal(A, A.T):
        a, b = np.argwhere(A != A.T)[0]
        raise AxiomViolation("additive-commutativity", (int(a), int(b)))
    idx = np.arange(n)
    if not (np.array_equal(A[0], idx) and np.array_equal(A[:, 0], idx)):
        raise AxiomViolation("additive-identity", (0,))
    neg = np.asarray(ring.neg_table, dtype=np.int64)
    if not np.array_equal(A[idx, neg], np.zeros(n, dtype=np.int64)):
        raise AxiomViolation("additive-inverse", (int(np.argwhere(A[idx, neg] != 0)[0][0]),))
    for a in range(n):
        col = M[:, a]
        for axiom, left, right in (
            ("additive-associativity", A[A[a]], A[a][A]),          # (a+b)+c, a+(b+c)
            ("associativity", M[M[a]], M[a][M]),                   # (ab)c, a(bc)
            ("left-distributivity", M[a][A], A[M[a][:, None], M[a][None, :]]),
            ("right-distributivity", col[A], A[col[:, None], col[None, :]]),
        ):
            if not np.array_equal(left, right):
                b, c = np.argwhere(left != right)[0]
                raise AxiomViolation(axiom, (a, int(b), int(c)))
    if ring.unity is not None:
        u = ring.unity
        if not (np.array_equal(M[u], idx) and np.array_equal(M[:, u], idx)):
            raise AxiomViolation("unity", (u,))


def loop_tables(add, mul, label: str) -> tuple:
    """(add, mul, neg, unity, label) of the ring on these tables: the negative
    of x is the first 0 in its add row, the unity the first two-sided identity."""
    n = len(add)
    add, mul = tuple(map(tuple, add)), tuple(map(tuple, mul))
    unity = next((u for u in range(n) if all(mul[u][x] == x and mul[x][u] == x for x in range(n))), None)
    return add, mul, tuple(row.index(0) if 0 in row else 0 for row in add), unity, label


def loop_zn(n: int, zero_mul: bool = False) -> tuple:
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul = [[0 if zero_mul else (a * b) % n for b in range(n)] for a in range(n)]
    return loop_tables(add, mul, f"zero-ring-{n}" if zero_mul else f"Z/{n}")


def loop_product(r1, r2) -> tuple:
    """r1 x r2 with (a1, a2) at a1*|r2| + a2, one entry at a time."""
    n1, n2 = r1.order, r2.order
    n = n1 * n2
    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    for a1 in range(n1):
        for a2 in range(n2):
            for b1 in range(n1):
                for b2 in range(n2):
                    add[a1 * n2 + a2][b1 * n2 + b2] = r1.add(a1, b1) * n2 + r2.add(a2, b2)
                    mul[a1 * n2 + a2][b1 * n2 + b2] = r1.mul(a1, b1) * n2 + r2.mul(a2, b2)
    return loop_tables(add, mul, f"{r1.label} x {r2.label}")


def loop_quotient(base, coeffs) -> tuple:
    """base[x]/(coeffs), monic: each product u*v is a convolution of the
    coefficient vectors, then a schoolbook remainder by the modulus."""
    q, d = base.order, len(coeffs) - 1
    n = q ** d
    decode = lambda i: [i // q ** k % q for k in range(d)]
    encode = lambda vec: sum(c * q ** k for k, c in enumerate(vec[:d]))

    def remainder(vec):
        for top in range(len(vec) - 1, d - 1, -1):
            for j in range(d + 1):
                vec[top - d + j] = base.sub(vec[top - d + j], base.mul(vec[top], coeffs[j]))
        return vec

    elems = [decode(i) for i in range(n)]
    add = [[encode([base.add(a, b) for a, b in zip(u, v)]) for v in elems] for u in elems]
    mul = []
    for u in elems:
        row = []
        for v in elems:
            conv = [0] * (2 * d - 1)
            for k, uk in enumerate(u):
                for l, vl in enumerate(v):
                    conv[k + l] = base.add(conv[k + l], base.mul(uk, vl))
            row.append(encode(remainder(conv)))
        mul.append(row)
    return loop_tables(add, mul, f"{base.label}[x]/({render_poly(coeffs)})")


def loop_residue_field(ring) -> tuple:
    """(tables, projection, representatives) of R/m, each coset named by
    its least element."""
    n = ring.order
    m = [a for a in range(n) if a not in analyze(ring).units]
    rep_of = [min(ring.add(x, z) for z in m) for x in range(n)]
    reps = sorted(set(rep_of))
    proj = tuple(reps.index(r) for r in rep_of)
    table = lambda t: [[proj[t[a][b]] for b in reps] for a in reps]
    return loop_tables(table(ring.add_table), table(ring.mul_table), f"{ring.label}/m"), proj, tuple(reps)


def loop_factor(ring, e: int) -> tuple:
    """(tables, projection) of the factor eR, its elements in ascending order."""
    elems = sorted(set(ring.mul_table[e]))
    table = lambda t: [[elems.index(t[a][b]) for b in elems] for a in elems]
    projection = tuple(elems.index(ring.mul(e, x)) for x in range(ring.order))
    return loop_tables(table(ring.add_table), table(ring.mul_table), f"{ring.label}|e={e}"), projection


def shift_powers_oracle(ring) -> Verdict:
    """L2.2 pair by pair: ``verify_nilpotent_shift_power`` for each nilpotent
    c and then each b, returned at the first pair that fails."""
    checked = 0
    for c in analyze(ring).nilpotents.indices():
        for b in range(ring.order):
            verdict = verify_nilpotent_shift_power(ring, b, c)
            if not verdict.holds:
                return verdict
            checked += 1
    return Verdict("L2.2", True, witness={"pairs": checked},
                   details=f"all {checked} (b, c) pairs agree at s=1, hence at every s")


def expanded_powers_agree(ring, exponent: int) -> bool:
    """P2.3ii's f^N = g^N with both powers expanded, for f = (X+1)^m - 1 with
    m the unit-group exponent and g the unit coefficients of f."""
    x_plus_1 = poly_from(ring, (ring.unity, ring.unity))
    f = poly_sub(poly_pow(x_plus_1, analyze(ring).unit_group_exponent), poly_const(ring, ring.unity))
    g, _ = split_unit_nilpotent(f)
    return poly_pow(f, exponent).stripped() == poly_pow(g, exponent).stripped()


def embed(small, big, mapping) -> tuple[int, ...]:
    """``mapping`` as an index vector, checked to be an injective unital ring
    homomorphism small -> big; ValueError naming the first failure otherwise."""
    mp = tuple(int(v) for v in mapping)
    if len(mp) != small.order or any(not 0 <= v < big.order for v in mp):
        raise ValueError("map must send every element of the small ring into the big ring")
    if len(set(mp)) != small.order:
        raise ValueError("not-injective")
    for a, b in product(range(small.order), repeat=2):
        if (mp[small.add(a, b)] != big.add(mp[a], mp[b])
                or mp[small.mul(a, b)] != big.mul(mp[a], mp[b])):
            raise ValueError(f"not-homomorphic at {(a, b)}")
    if small.unity is not None and big.unity is not None and mp[small.unity] != big.unity:
        raise ValueError(f"not-homomorphic at {(small.unity,)}")
    return mp


def extension_span(small, big, mapping) -> set[bytes]:
    """Every function D -> S that a polynomial over S induces on the subring
    D = small embedded by ``mapping``, as the bytes of its table: the
    additive span of the constants b and the tables of b * x^k on D, for
    every b in S and 1 <= k < t + p with D's power stabilization (t, p),
    since x^k for x in D stays in D.  Grown one generator at a time, as
    ``coset_growth`` does."""
    mp = embed(small, big, mapping)
    t, p = power_stabilization(small)
    add = np.array(big.add_table, dtype=np.uint8)
    powers = [[mp[small.pow(x, k)] for x in range(small.order)] for k in range(1, t + p)]
    gens = [[b] * small.order for b in range(big.order)]
    gens += [[big.mul(b, y) for y in row] for b in range(big.order) for row in powers]
    span = np.zeros((1, small.order), dtype=np.uint8)
    seen = {span.tobytes()}
    for g in np.array(gens, dtype=np.uint8):
        grown, step = [span], g
        while step.tobytes() not in seen:
            coset = add[span, step]
            seen.update(row.tobytes() for row in coset)
            grown.append(coset)
            step = add[step, g]
        span = np.concatenate(grown)
    return seen


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


def closed_form_interpolant(ring, idempotents, values) -> Polynomial:
    """The least-degree polynomial inducing an induced table F on a product
    of fields, given by its primitive idempotents e (a field's is its unity).

    On the field eR, e*F has c_0 = e*F(0) and c_j = -sum_{a in eR} F(a) a^(q-1-j)
    for 1 <= j < q = |eR|, with a^0 = e; summed over e these are R's
    coefficients, with c_0 = F(0): O(n*q) reads of R's own tables, one
    power and one sum at a time.
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
    return Polynomial(ring, (values[0], *(ring.neg_table[c] for c in acc[1:]))).stripped()


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


LARGER_SPECS = ("Z/2[x]/(x^7+x+1)", "Z/4[x]/(x^3+x+1)", "Z/8[x]/(x^2+x+1)", "Z/9[x]/(x^2+1)",
                "Z/3[x]/(x^3)", "Z/2[x]/(x^6)", "Z/4 x Z/16", "Z/5 x Z/2[x]/(x^2)",
                "Z/2[x]/(x^8)", "GF(4)[x]/(x^2)", "Z/2 x Z/3 x Z/2[x]/(x^2)")


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


def image_cases() -> list[tuple[str, object]]:
    """The unital rings that are local or commutative among the catalog's,
    GF(4)[t; Frobenius]/(t^2) (local and noncommutative) and two larger
    local quotients, each with its catalog name or its label."""
    rings = standard_catalog(32) + [(ring.label, ring) for ring in (
        skew_dual_f4(), realize(parse_ring_spec("Z/169")), realize(parse_ring_spec("Z/2[x]/(x^8)")))]
    return [(name, ring) for name, ring in rings if analyze(ring).is_unital
            and (analyze(ring).is_local or analyze(ring).is_commutative)]


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


_GROWN: OrderedDict = OrderedDict()  # (order, table bytes) -> grown group, latest last
_GROWN_KEPT = 8


def coset_growth(ring) -> Closure:
    """The group generated by the constants and every a * x^k (k <= t+p-1),
    grown one generator at a time (``_grow``).  Many tests compare against
    the same rings, so the group is grown once per ring's tables and kept
    for the session, for the last ``_GROWN_KEPT`` tables used; its arrays
    are read-only."""
    key = (ring.order, ring.add_table.tobytes(), ring.mul_table.tobytes())
    if key in _GROWN:
        _GROWN.move_to_end(key)
    else:
        _GROWN[key] = _grow(ring)
        if len(_GROWN) > _GROWN_KEPT:
            _GROWN.popitem(last=False)
    return Closure(ring, *_GROWN[key])


def _grow(ring) -> tuple[np.ndarray, np.ndarray, dict]:
    """Tables, witness rows and index of the group grown from every
    generator in turn.  For a generator g the least i with i*g in the grown
    group H splits H + <g> into the disjoint cosets H + j*g, j < i, so new
    rows are appended as they come; a row h + j*g is witnessed by h's
    coefficients with a_k replaced by a_k + j*a."""
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
    tables.flags.writeable = wits.flags.writeable = False
    return tables, wits, index


def field_idempotents(pset) -> tuple[int, ...]:
    """The primitive idempotents of a product of fields: a field's unity, or
    the unity of each factor of a chain set whose factors all have depth 1;
    () for any other set."""
    engine = pset.engine
    if isinstance(engine, polyfun._Field):
        return (pset.ring.unity,)
    if isinstance(engine, polyfun._Chain) and all(f.depth == 1 for f in engine.factors):
        return tuple(f.unity for f in engine.factors)
    return ()


def as_tuple_set(pset, limit: int = 1 << 20) -> frozenset:
    """Every table of a function set as a tuple; refuses sets of more than
    ``limit`` tables before any work."""
    if pset.count > limit:
        raise ValueError("function set too large to materialise")
    if not field_idempotents(pset):
        return frozenset(map(tuple, pset._enumerate()[0].tolist()))
    # Every choice of g_e: eR -> eR, summed as x -> sum_e g_e(e*x).
    n = pset.ring.order
    add = np.array(pset.ring.add_table, dtype=np.intp)
    rows = np.zeros((1, n), dtype=np.intp)
    for e in field_idempotents(pset):
        ideal, position = np.unique(pset.ring.mul_table[e], return_inverse=True)
        g = np.array(list(product(ideal.tolist(), repeat=len(ideal))))[:, position]
        rows = add[rows[:, None, :], g[None]].reshape(-1, n)
    return frozenset(map(tuple, rows.tolist()))


def syndrome_supports(ring) -> list[int]:
    """Every subset whose indicator (the unity on it, 0 elsewhere) is
    induced, the two constants included, as sorted bit masks.

    The syndrome is Howell's ("Spans in the module (Z_m)^s", 1986), built
    here from the pivot rows g_a of ``polyfun._lattice`` (on any ring, a
    product of fields included): column operations V clear each embedded
    g_a across every column, top row first, so that g_a V is u_a * p^v_a at
    its pivot's column and 0 elsewhere.  A row w is then in G iff (w V)_j is
    0 modulo p^v at a pivot's column j and modulo p^s at every other.

    An indicator's syndrome is the sum of the syndromes of the unity at
    each of its points, so the subsets of the lower and of the upper half
    of R are summed apart (2 * 2^(n/2) sums, not 2^n) and matched on
    syndromes that cancel.
    """
    n = ring.order
    coords = polyfun.per_ring(ring, polyfun._coordinates)
    basis, rank = polyfun._lattice(ring), len(coords.basis)
    q = np.ones(rank, dtype=np.intp)  # p^s of each coordinate
    for p, s, cols in coords.primes:
        q[cols] = p ** s
    scale = q // coords.moduli
    rows = (basis.rows.reshape(len(basis.rows), n, rank) * scale).reshape(len(basis.rows), -1)
    q = np.tile(q, n)  # of each column x * rank + i
    pivots = basis.points * rank + basis.digits
    transform = np.eye(n * rank, dtype=np.intp)
    for row, j, shift, inverse in zip(rows, pivots, basis.shifts, basis.inverses):
        clear = row // shift * inverse % q[j]
        clear[j] = 0
        transform = (transform - transform[:, j, None] * clear) % q
    moduli = q.copy()
    moduli[pivots] = basis.shifts
    unity = coords.digits[ring.unity] * scale
    # the syndrome of the unity at x alone: its digits times the rows of x
    ones = np.einsum("i,xik->xk", unity, transform.reshape(n, rank, -1)) % moduli
    kept = moduli > 1  # a pivot of valuation 0 constrains nothing
    moduli = moduli[kept].astype(np.uint8)  # p^v <= n <= 32: sums of two stay below 2^8
    ones = ones[:, kept].astype(np.uint8)
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


def tracked_lattice(ring) -> dict[str, np.ndarray]:
    """``polyfun._lattice``'s pivots, table rows and witness digits from one
    elimination per prime that carries each row's combination U of the
    generators as extra columns, so that every pivot row holds its
    witness's digits when it is chosen.  ``rows`` lays out each pivot's
    table digits and then its witness digits in the library's order: the
    value at every x, then the coefficient at every x^k, each in the
    ring's coordinates."""
    n, mul = ring.order, ring.mul_table
    coords = polyfun.per_ring(ring, polyfun._coordinates)
    powers = polyfun.per_ring(ring, polyfun._powers)[0]
    m, rank = len(powers), len(coords.basis)
    out = {name: [] for name in ("rows", "points", "digits", "shifts", "inverses", "orders")}
    for p, s, cols in coords.primes:
        basis, q = coords.basis[cols], p ** s
        scale = q // coords.moduli[cols]
        r = len(basis)
        gens = np.concatenate((np.repeat(basis[:, None], n, axis=1),
                               mul[basis[:, None], powers[1:, None]].reshape(-1, n)))
        width = n * r
        embedded = (coords.digits[:, cols] * scale)[gens].reshape(-1, width)
        rows = np.hstack((embedded, np.eye(len(gens), dtype=np.intp)))
        picked = []
        while True:
            # the valuation of every table entry, s at 0
            v_rows = np.full(rows[:, :width].shape, s)
            for k in range(s - 1, -1, -1):
                v_rows[rows[:, :width] % p ** (k + 1) != 0] = k
            i, j = divmod(int(v_rows.argmin()), width)
            v = int(v_rows[i, j])
            if v == s:
                break
            inverse = pow(int(rows[i, j]) // p ** v, -1, q)
            picked.append(rows[i].copy())
            out["points"].append(j // r)
            out["digits"].append(cols.start + j % r)
            out["shifts"].append(p ** v)
            out["inverses"].append(inverse)
            out["orders"].append(q // p ** v)
            rows = (rows - (rows[:, j] // p ** v * inverse % q)[:, None] * rows[i]) % q
        picked = np.array(picked)
        full = np.zeros((len(picked), n + m, rank), dtype=np.intp)
        full[:, :n, cols] = picked[:, :width].reshape(-1, n, r) // scale
        full[:, n:, cols] = picked[:, width:].reshape(-1, m, r)
        out["rows"].append(full.reshape(len(picked), -1))
    out["rows"] = np.concatenate(out["rows"])
    return {name: np.array(values) for name, values in out.items()}


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
