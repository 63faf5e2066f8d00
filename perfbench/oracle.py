"""Independent answers the benchmark checks finring against.

Nothing here calls finring: rings enter only as their Cayley tables, and
every expected value comes from plain arithmetic on those tables or from a
closed formula.
"""

from __future__ import annotations

import math
import re

import numpy as np


def kempner(n: int) -> int:
    """Number of functions Z/n -> Z/n induced by polynomials (Kempner 1921)."""
    return math.prod(n // math.gcd(math.factorial(k), n) for k in range(n))


# Function counts of the non-Z/n rings the workloads use, as spec -> count.
# Each is re-derived by function_group_size in the benchmark's tests.
LOCAL_COUNTS = {
    "Z/2[x]/(x^3)": 1024,
    "Z/2[x]/(x^4)": 65536,
    "Z/4[x]/(x^2+2)": 65536,
    "T2(F2)": 256,
}


def expected_count(spec: str) -> int:
    """Function count of a ring spec: Kempner for Z/n, factor counts multiply over products."""
    parts = [p.strip() for p in spec.split(" x ")]
    total = 1
    for part in parts:
        m = re.fullmatch(r"Z/(\d+)", part)
        total *= kempner(int(m.group(1))) if m else LOCAL_COUNTS[part]
    return total


class Tables:
    """A ring seen only through its addition and multiplication tables."""

    def __init__(self, add_table, mul_table):
        self.add = np.asarray(add_table, dtype=np.intp)
        self.mul = np.asarray(mul_table, dtype=np.intp)
        self.n = len(self.add)
        self.neg = np.argmin(self.add, axis=1)  # a + neg[a] = 0, and 0 is the least index
        idx = np.arange(self.n)
        unity = [u for u in range(self.n)
                 if (self.mul[u] == idx).all() and (self.mul[:, u] == idx).all()]
        self.unity = unity[0] if unity else None
        self.commutative = bool((self.mul == self.mul.T).all())
        if self.unity is None:
            self.units = []
        else:
            self.units = [u for u in range(self.n) if (self.mul[u] == self.unity).any()
                          and (self.mul[:, u] == self.unity).any()]
        non_units = [a for a in range(self.n) if a not in self.units]
        self.local = self.unity is not None and all(
            self.add[a, b] not in self.units for a in non_units for b in non_units)
        self.field = self.commutative and len(self.units) == self.n - 1

    @classmethod
    def of(cls, ring) -> "Tables":
        return cls(ring.add_table, ring.mul_table)

    def powers(self, degree: int) -> np.ndarray:
        """Row k is the table of x -> x^k, for 1 <= k <= degree (row 0 unused)."""
        out = np.zeros((degree + 1, self.n), dtype=np.intp)
        out[1] = np.arange(self.n)
        for k in range(2, degree + 1):
            out[k] = self.mul[out[k - 1], out[1]]
        return out

    def evaluate(self, coeffs: np.ndarray) -> np.ndarray:
        """Tables of a_0 + sum_{i>=1} a_i x^i, one row per coefficient row."""
        coeffs = np.atleast_2d(np.asarray(coeffs, dtype=np.intp))
        pw = self.powers(max(coeffs.shape[1] - 1, 1))
        acc = np.repeat(coeffs[:, :1], self.n, axis=1)
        for i in range(1, coeffs.shape[1]):
            acc = self.add[acc, self.mul[coeffs[:, i][:, None], pw[i][None, :]]]
        return acc

    def span(self, generators) -> set[int]:
        """Additive subgroup generated by some elements."""
        reached = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g in generators:
                y = int(self.add[x, g])
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
        return reached

    def absence_certificate(self, table) -> tuple[int, int] | None:
        """A pair (x, y) proving no polynomial induces the table, if one is found.

        f(x) - f(y) = sum_i a_i (x^i - y^i) lies in the additive span of
        {r d s, r d : r, s in R} with d = x - y, for every polynomial f.
        """
        values = [int(v) for v in table]
        spans = {}
        for x in range(self.n):
            for y in range(self.n):
                d = int(self.add[x, self.neg[y]])
                if d not in spans:
                    rd = self.mul[:, d]
                    spans[d] = self.span({int(v) for v in rd} | {int(v) for v in self.mul[rd].ravel()})
                if int(self.add[values[x], self.neg[values[y]]]) not in spans[d]:
                    return x, y
        return None


def parse_poly(text: str) -> list[int]:
    """Coefficients of a polynomial printed as 'c x^e + ...' with element indices."""
    coeffs: dict[int, int] = {}
    if text != "0":
        for term in text.split("+"):
            m = re.fullmatch(r"(\d*)(x(?:\^(\d+))?)?", term)
            if m is None or term == "":
                raise ValueError(f"unreadable polynomial term {term!r}")
            c, var, e = m.groups()
            exp = 0 if var is None else int(e or 1)
            coeffs[exp] = int(c) if c else 1
    top = max(coeffs, default=0)
    return [coeffs.get(i, 0) for i in range(top + 1)]


def function_group_size(tables: Tables) -> int:
    """Count the functions polynomials induce by closing their additive generators.

    The set is the additive group generated by the constants and by a * v_k
    with v_k = (x -> x^k); a runs over additive generators of R, and k until
    the power vectors repeat.
    """
    n = tables.n
    basis: list[int] = []
    for a in range(1, n):
        if a not in tables.span(basis):
            basis.append(a)
    powers = []
    v = np.arange(n)
    while not any((v == w).all() for w in powers):
        powers.append(v)
        v = tables.mul[v, np.arange(n)]
    gens = [np.full(n, b) for b in basis]
    gens += [tables.mul[b, v] for b in basis for v in powers]
    group = np.zeros((1, n), dtype=np.intp)
    for g in gens:
        while True:
            grown = np.unique(np.concatenate([group, tables.add[group, g[None, :]]]), axis=0)
            if len(grown) == len(group):
                break
            group = grown
    return len(group)
