"""The check registry: one table of requirements and runners shared by
``check``, ``sweep`` and library callers."""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import pytest

import finring.theorems as theorems
from finring import (
    UnsupportedStructureError,
    make_zero_mul_ring,
    make_zn,
    parse_ring_spec,
    realize,
)
from finring.theorems import CHECKS, RESULT_IDS, CheckOptions, Verdict

from conftest import upper_triangular_f2

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "docs" / "report.schema.json"


def _rings():
    return [make_zn(4), make_zn(6), realize(parse_ring_spec("GF(4)")),
            make_zero_mul_ring(2), upper_triangular_f2()]


def test_check_options_are_the_three_cli_inputs():
    assert [f.name for f in fields(CheckOptions)] == ["poly", "subset", "s_max"]


def test_result_ids_come_from_the_registry():
    assert RESULT_IDS == tuple(CHECKS)
    assert len(RESULT_IDS) == 13


def test_schema_enums_match_result_ids():
    definitions = json.loads(SCHEMA_PATH.read_text())["definitions"]
    for name in ("verdict", "sweeprow"):
        assert definitions[name]["properties"]["result_id"]["enum"] == list(RESULT_IDS)


def test_runners_look_checks_up_at_call_time(monkeypatch, z4):
    marker = Verdict("P2.3i", True, details="patched")
    monkeypatch.setattr(theorems, "check_unit_order_bound", lambda ring: marker)
    assert CHECKS["P2.3i"].run(z4, CheckOptions()) is marker


@pytest.mark.parametrize("ring", _rings(), ids=lambda r: r.label)
def test_applies_exactly_when_the_check_accepts_the_ring(ring):
    opts = CheckOptions()
    for result_id, check in CHECKS.items():
        if check.applies(ring):
            verdict = check.run(ring, opts)
            assert verdict.result_id == result_id
            assert verdict.status in ("pass", "vacuous")
        else:
            with pytest.raises(UnsupportedStructureError):
                check.run(ring, opts)


def test_unsupported_structure_names_ring_and_requirement(z6):
    with pytest.raises(UnsupportedStructureError, match="Z/6 is not local-unital"):
        theorems.check_unit_order_bound(z6)
    with pytest.raises(UnsupportedStructureError, match="zero-ring-2 is not comm-unital"):
        theorems.classify_char_function_existence(make_zero_mul_ring(2))


def test_noncommutative_dispatch_on_t2f2():
    ring = upper_triangular_f2()
    verdicts = {}
    for result_id, check in CHECKS.items():
        if check.applies(ring):
            verdicts[result_id] = check.run(ring, CheckOptions())
    assert set(verdicts) == {"L1.1", "P1.2", "P1.3"}

    l11 = verdicts["L1.1"]
    assert l11.status == "pass"
    # from E11 only multiples of E11 are reachable, so E12 is not
    assert l11.witness == {"from": 1, "target": 2}

    p12 = verdicts["P1.2"]
    assert p12.status == "pass"
    # R*E11 = {0, E11}, so swapping E11 and E12 moves F(E11) - F(0) out of it
    assert p12.witness == {"bijection": [0, 2, 1, 3, 4, 5, 6, 7], "point": 1}

    p13 = verdicts["P1.3"]
    assert p13.status == "pass"
    assert p13.witness == {"subset": [0], "non_unit": 1}
