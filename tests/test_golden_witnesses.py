"""Witness coefficients pinned in ``tests/data/witnesses.json``.

A witness on a ring that is not a product of fields depends on its engine:
on a ring whose local factors are chain rings (``CHAIN``) on each factor's
coset representatives and points, and on any other ring (``LATTICE``:
noncommutative rings and non-chain factors) on the additive basis and the
elimination.  So this pins those choices: 20 seeded lookups per ring,
through the index and through the solve path, which give the same
witnesses (a set above ``INDEX_LIMIT`` solves on both).  Field and
product-of-field interpolants are unique, and are pinned too.

Regenerate the file with ``PYTHONPATH=src python tests/test_golden_witnesses.py``.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

import pytest

from finring import (
    analyze,
    function_table,
    interpolate_field,
    make_zn,
    parse_ring_spec,
    poly_from,
    polynomial_function_set,
    realize,
)
from finring import polyfun

from conftest import m2f2, set_index_limit, upper_triangular_f2

GOLDEN = Path(__file__).parent / "data" / "witnesses.json"
CHAIN = ("Z/9", "Z/12", "Z/4 x Z/3", "Z/8 x Z/2", "Z/2[x]/(x^3) x Z/2", "Z/18", "Z/264")
LATTICE = ("T2(F2)", "M2(F2)", "Z/4[x]/(x^2)", "Z/4[x]/(x^2) x Z/3")
FIELDS = ("GF(8)", "GF(27)", "Z/30", "Z/2 x Z/3 x Z/5 x Z/7")
LOOKUPS = 20


def _ring(spec: str):
    if spec == "T2(F2)":
        return upper_triangular_f2()
    if spec == "M2(F2)":
        return m2f2()
    if spec == "Z/264":  # above the catalog's order limit
        return make_zn(264)
    return realize(parse_ring_spec(spec))


def witnesses(spec: str) -> list[list[int]]:
    """The witness coefficients of 20 lookups seeded by ``spec``: a field
    interpolates random tables, and any other ring looks up the tables of
    random polynomials of degree below 8."""
    ring = _ring(spec)
    rng = random.Random(spec)
    out = []
    for _ in range(LOOKUPS):
        if analyze(ring).is_field:
            table = [rng.randrange(ring.order) for _ in range(ring.order)]
            witness = interpolate_field(ring, table)
        else:
            f = poly_from(ring, [rng.randrange(ring.order) for _ in range(rng.randrange(1, 9))])
            status, witness = polynomial_function_set(ring).lookup(function_table(f).values)
            assert status == "present"
        out.append(list(witness.coeffs))
    return out


@pytest.mark.parametrize("group, spec", [("index", s) for s in CHAIN + LATTICE]
                         + [("solve", s) for s in CHAIN + LATTICE]
                         + [("fields", s) for s in FIELDS])
def test_witnesses_match_the_golden_file(monkeypatch, group, spec):
    set_index_limit(monkeypatch, 0 if group == "solve" else polyfun.INDEX_LIMIT)
    assert witnesses(spec) == json.loads(GOLDEN.read_text())[group][spec]


if __name__ == "__main__":
    golden = {"index": {spec: witnesses(spec) for spec in CHAIN + LATTICE}}
    polyfun.polynomial_function_set.cache_clear()
    polyfun.INDEX_LIMIT = 0
    golden["solve"] = {spec: witnesses(spec) for spec in CHAIN + LATTICE}
    golden["fields"] = {spec: witnesses(spec) for spec in FIELDS}
    text = json.dumps(golden, indent=1)  # then one witness a line
    GOLDEN.write_text(re.sub(r"\[\s+([\d,\s]+?)\s+\]",
                             lambda m: "[" + " ".join(m.group(1).split()) + "]", text) + "\n")
