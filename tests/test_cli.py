from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import finring
from finring import InternalInvariantError
from finring.cli import _witness_json, main
from finring.theorems import CHECKS, CheckOptions

SCHEMA = json.loads((Path(__file__).resolve().parents[1] / "docs" / "report.schema.json").read_text())
GOLDEN_SWEEP = Path(__file__).resolve().parent / "data" / "sweep16.json"


def run_json(capsys, *argv):
    code = main(list(argv) + ["--format", "json"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return code, doc


def test_report_z4_json(capsys):
    code, doc = run_json(capsys, "report", "Z/4")
    assert code == 0
    assert doc["invariants"]["units"] == [1, 3]
    assert doc["invariants"]["nilpotency_index"] == 2
    assert doc["function_count"] == 64
    assert doc["local_factors"] == [{"idempotent": 1, "order": 4}]


def test_report_product_has_two_factors(capsys):
    code, doc = run_json(capsys, "report", "Z/2 x Z/3")
    assert code == 0
    assert len(doc["local_factors"]) == 2


def test_report_text_mode(capsys):
    assert main(["report", "Z/4"]) == 0
    out = capsys.readouterr().out
    assert "polynomial_functions: 64" in out
    assert "nilpotency_index: 2" in out


def test_report_bad_spec_exits_2(capsys):
    assert main(["report", "Z/0"]) == 2
    assert "error" in capsys.readouterr().err


def test_check_p27_holds(capsys):
    code, doc = run_json(capsys, "check", "Z/6", "P2.7")
    assert code == 0
    assert doc["verdict"]["status"] == "pass"
    code, doc = run_json(capsys, "check", "Z/4", "P2.7")
    assert code == 0
    # witnesses are not canonical; whatever polynomial is printed must be a
    # nontrivial indicator with a coset support
    assert doc["verdict"]["witness"]["support"] in ([1, 3], [0, 2])


def test_check_witness_feeds_back(capsys):
    _, doc = run_json(capsys, "check", "Z/4", "P2.7")
    witness = doc["verdict"]["witness"]["polynomial"]
    code, doc2 = run_json(capsys, "check", "Z/4", "P2.7", "--poly", witness)
    assert code == 0
    assert doc2["verdict"]["status"] == "pass"


def test_check_p12_decides_every_order_and_ignores_the_old_flag(capsys):
    # P1.2 is decided at every order; --max-bijection-order is parsed and
    # ignored, and --max-subset-order is refused.
    code, doc = run_json(capsys, "check", "GF(8)", "P1.2")
    assert code == 0
    assert doc["verdict"]["status"] == "pass" and doc["verdict"]["witness"] is None
    for argv in (["Z/7", "P1.2", "--max-bijection-order", "7"],
                 ["Z/7", "P1.2", "--max-bijection-order", "2"]):
        code, doc = run_json(capsys, "check", *argv)
        assert code == 0
        assert doc["verdict"]["status"] == "pass" and doc["verdict"]["witness"] is None
    code, doc = run_json(capsys, "check", "Z/9", "P1.2", "--max-bijection-order", "2")
    assert code == 0
    assert doc["verdict"]["witness"] == {"bijection": [0, 3, 2, 1, 4, 5, 6, 7, 8], "point": 3}
    with pytest.raises(SystemExit) as exc:
        main(["check", "Z/8", "R2.8", "--max-subset-order", "8"])
    assert exc.value.code == 2
    assert "--max-subset-order" in capsys.readouterr().err


def test_check_capped_is_inconclusive(capsys):
    # --cap-functions is accepted and ignored: every verdict is exact.  The
    # units take x^N, and the maximal ideal's indicator, which once needed a
    # function set over the cap, now comes with a witness.
    code, doc = run_json(capsys, "check", "Z/8", "R2.8", "--subset", "1,3,5,7",
                         "--cap-functions", "50")
    assert code == 0 and doc["verdict"]["status"] == "pass"
    assert doc["verdict"]["witness"]["swept"] == 2
    code, doc = run_json(capsys, "check", "Z/8", "R2.8", "--subset", "0,2,4,6",
                         "--cap-functions", "-3")
    assert code == 0 and doc["verdict"]["status"] == "pass"
    witness = doc["verdict"]["witness"]
    assert witness["polynomial_exists"] is True and witness["coset_union"] is True
    z8 = finring.make_zn(8)
    table = finring.function_table(finring.parse_poly_text(witness["polynomial"], z8)).values
    assert table == tuple(int(x % 2 == 0) for x in range(8))


def test_large_local_rings_are_decided_before_any_row_is_built(refuse_index, capsys):
    # Each of these induces 2^24 or more functions.  Counts come from the
    # lattice, P2.7 from x^N, R2.8 from P2.6's lift, and a lookup is
    # solved from the lattice basis, so no table is enumerated.
    for spec, count in (("Z/25", 30517578125), ("Z/27", 387420489), ("Z/32", 16777216)):
        code, doc = run_json(capsys, "report", spec)
        assert code == 0 and doc["function_count"] == count and doc["function_count_complete"]
        assert main(["report", spec]) == 0
        assert f"polynomial_functions: {count}" in capsys.readouterr().out
    for spec, power in (("Z/27", "x^18"), ("Z/32", "x^8")):
        code, doc = run_json(capsys, "check", spec, "P2.7")
        assert code == 0 and doc["verdict"]["witness"]["polynomial"] == power
    for spec in ("Z/25", "Z/32"):
        code, doc = run_json(capsys, "check", spec, "R2.8")
        assert code == 0 and doc["verdict"]["status"] == "pass"
    z27 = finring.make_zn(27)
    table = finring.function_table(finring.poly_from(z27, (2, 0, 0, 1))).values
    witness = finring.is_polynomial_function(z27, table)
    assert finring.function_table(witness).values == table
    assert finring.is_polynomial_function(z27, (1,) + table[1:]) is None


def test_check_product_of_fields_is_exact_at_any_cap(capsys):
    code, doc = run_json(capsys, "check", "Z/6", "P2.7", "--cap-functions", "50")
    assert code == 0 and doc["verdict"]["status"] == "pass"
    assert doc["verdict"]["witness"] == {"idempotent": 3}
    code, doc = run_json(capsys, "check", "Z/6", "P1.3", "--cap-functions", "50")
    assert code == 0 and doc["verdict"]["status"] == "pass"
    assert doc["verdict"]["witness"] == {"subset": [0], "non_unit": 2}


def test_check_poly_arguments(capsys):
    code, doc = run_json(capsys, "check", "Z/4", "L2.4", "--poly", "x^2")
    assert code == 0 and doc["verdict"]["status"] == "pass"
    code, doc = run_json(capsys, "check", "Z/6", "L2.5", "--poly", "x^2+x")
    assert code == 0
    assert doc["verdict"]["status"] == "vacuous"
    assert "precondition" in doc["verdict"]["details"]


def test_check_subset_argument(capsys):
    code, doc = run_json(capsys, "check", "Z/4", "R2.8", "--subset", "1,3")
    assert code == 0 and doc["verdict"]["status"] == "pass"


def test_non_union_subsets_are_certified_without_an_index(refuse_index, capsys):
    # Neither subset is a union of cosets of 2*Z/16: a (point, shift) pair
    # certifies it from the tables, with no lookup into the 2^16 functions.
    for subset, certificate in (("1,3", {"point": 1, "shift": 4}),
                                ("1,2", {"point": 1, "shift": 2})):
        code, doc = run_json(capsys, "check", "Z/16", "R2.8", "--subset", subset)
        witness = doc["verdict"]["witness"]
        assert code == 0 and doc["verdict"]["status"] == "pass"
        assert witness["polynomial_exists"] is False and witness["coset_union"] is False
        assert witness["certificate"] == certificate and witness["swept"] == 2


def test_check_not_applicable_is_vacuous(capsys):
    code, doc = run_json(capsys, "check", "zero-ring-2", "P1.3")
    assert code == 0
    assert doc["verdict"]["status"] == "vacuous"
    assert "not applicable" in doc["verdict"]["details"]


def test_check_unknown_id_exits_2(capsys):
    assert main(["check", "Z/4", "P9.9"]) == 2


@pytest.mark.parametrize("argv", [
    ["check", "Z/4", "R2.8", "--subset", "99"],
    ["check", "Z/4", "R2.8", "--subset", "-1"],
    ["check", "Z/9", "L2.2", "--s-max", "0"],
    ["check", "Z/4", "R2.8", "--subset", "4"],
    ["report", "Z/1"],
    ["sweep", "--max-order", "1", "--out", "/nonexistent-dir/x.json"],
])
def test_out_of_range_input_exits_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_sweep_small_catalog(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    start = time.perf_counter()
    code = main(["sweep", "--max-order", "4", "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 5.0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, SCHEMA)
    assert doc["summary"]["fail"] == 0
    assert doc["summary"]["pass"] > 0
    rows = [(r["ring"], r["check"]) for r in doc["rows"]]
    assert rows == sorted(rows)
    summary_line = capsys.readouterr().out
    assert "fail=0" in summary_line


def test_sweep_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["sweep", "--max-order", "4", "--out", str(out1)]) == 0
    assert main(["sweep", "--max-order", "4", "--out", str(out2)]) == 0
    strip = lambda doc: [{k: v for k, v in row.items() if k != "ms"} for row in doc["rows"]]
    assert strip(json.loads(out1.read_text())) == strip(json.loads(out2.read_text()))


def test_sweep_csv_columns(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--max-order", "4", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "ring,check,status,holds,witness,details,ms"
    assert len(lines) > 10


def test_sweep_unwritable_out_exits_2(capsys):
    code = main(["sweep", "--max-order", "4", "--out", "/nonexistent-dir/x.json"])
    assert code == 2
    assert "cannot write" in capsys.readouterr().err


def test_sweep_reproduces_the_golden_file(tmp_path):
    # Any change of verdict, detail or witness shows up as a diff of the file.
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--max-order", "16", "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    golden = json.loads(GOLDEN_SWEEP.read_text())
    assert doc["summary"] == golden["summary"] == {"pass": 286, "fail": 0, "vacuous": 26}
    rows = [{k: v for k, v in row.items() if k != "ms"} for row in doc["rows"]]
    assert len(rows) == len(golden["rows"]) == 312
    assert rows == golden["rows"]


def test_char_checks_match_the_golden_file_without_function_sets(refuse_index):
    golden = {(row["ring"], row["check"]): row
              for row in json.loads(GOLDEN_SWEEP.read_text())["rows"]}
    checked = 0
    for name, ring in finring.standard_catalog(16):
        for result_id in ("P1.3", "P2.7"):
            if (name, result_id) in golden:
                verdict = CHECKS[result_id].run(ring, CheckOptions())
                row = golden[name, result_id]
                assert (verdict.status, _witness_json(verdict.witness)) == \
                    (row["status"], row["witness"]), f"{result_id} on {name}"
                checked += 1
    assert checked == 54


def test_sweep_covers_the_whole_catalog_at_the_default_cap(refuse_index, tmp_path):
    # P1.2, P1.3 and P2.7 argue from the ring's elements and R2.8 builds its
    # coset indicators by P2.6's lift, so no check enumerates a table.  Only
    # P2.1's hypothesis fails.
    out = tmp_path / "sweep32.json"
    assert main(["sweep", "--max-order", "32", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, SCHEMA)
    assert len(doc["rows"]) == 480
    assert doc["summary"] == {"pass": 438, "fail": 0, "vacuous": 42}
    assert {row["check"] for row in doc["rows"] if row["status"] == "vacuous"} == {"P2.1"}
    swept = [row["witness"]["swept"] for row in doc["rows"] if row["check"] == "R2.8"]
    assert len(swept) == 26 and 0 not in swept


@pytest.mark.parametrize("spec", ["Z/4[x]/(x^2+x+1)", "Z/2[x]/(x^4+x^2+1)", "Z/4[x]/(x^2+3x+3)"])
def test_r28_sweeps_rings_of_2_24_functions_without_rows(refuse_index, capsys, spec):
    # Each ring is local with residue field GF(4) and 2^24 functions: its 16
    # coset unions, less the two constants, are the induced indicators.
    start = time.perf_counter()
    code, doc = run_json(capsys, "check", spec, "R2.8")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and doc["verdict"]["status"] == "pass"
    assert doc["verdict"]["witness"]["swept"] == 14


def test_internal_invariant_breach_exits_4(monkeypatch, capsys):
    assert not issubclass(InternalInvariantError, ValueError)
    monkeypatch.setattr("finring.theorems._verify_char_polynomial", lambda ring, f: (False, []))
    for argv in (["GF(4)", "P2.7"], ["Z/4", "R2.8"]):  # R2.8 checks each lifted coset table
        assert main(["check", *argv]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error:") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


def test_sweep_rejects_large_order(capsys):
    assert main(["sweep", "--max-order", "33", "--out", "/tmp/x.json"]) == 2


def test_module_entry_point():
    # the child does not inherit pytest's pythonpath, so point it at this finring
    package_root = str(Path(finring.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "finring.cli", "report", "Z/4", "--format", "json"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["invariants"]["is_local"] is True
