from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import finring
from conftest import m2f2, upper_triangular_f2
from finring import catalog, core
from finring import InternalInvariantError
from finring.cli import _verdict_json, _witness_json, main
from finring.polyfun import Polynomial
from finring.theorems import CHECKS, Check, CheckOptions, Verdict

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


def _numpy_scalars(value) -> list:
    """Every numpy scalar in a witness, polynomial coefficients included."""
    if isinstance(value, np.generic):
        return [value]
    if isinstance(value, Polynomial):
        value = value.coeffs
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [s for v in value for s in _numpy_scalars(v)]
    return []


def test_answers_are_python_ints():
    # the rings keep numpy tables: a numpy count would overflow at 17^17 > 2^63,
    # and json refuses numpy scalars
    for spec, q in (("Z/17", 17), ("GF(27)", 27)):
        count = finring.function_count(catalog.realize(finring.parse_ring_spec(spec)))
        assert type(count) is int and count == q ** q
    rings = [ring for _, ring in finring.standard_catalog(32)] + [upper_triangular_f2(), m2f2()]
    for ring in rings:
        for result_id, check in CHECKS.items():
            if check.applies(ring):
                verdict = check.run(ring, CheckOptions())
                assert not _numpy_scalars(verdict.witness), (ring.label, result_id)
                json.dumps(_verdict_json(verdict, 0.0))


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
    # chain engine, P2.7 from x^N, R2.8 from P2.6's lift, and a lookup is
    # solved at the chain points, so no table is enumerated.
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


_FLAG_VALUES = {"--poly": "x^2", "--subset": "1,3", "--cap-functions": "50",
                "--max-bijection-order": "2", "--s-max": "3"}


@pytest.mark.parametrize("flag", sorted(_FLAG_VALUES))
@pytest.mark.parametrize("result_id", sorted(CHECKS))
def test_check_refuses_a_flag_it_does_not_read(capsys, result_id, flag):
    # Z/4 meets every requirement.  A check reads --poly or --subset only if
    # its registry entry names it; the retired flags are accepted everywhere.
    read = flag in finring.cli.IGNORED_FLAGS or CHECKS[result_id].reads == flag[2:]
    code = main(["check", "Z/4", result_id, flag, _FLAG_VALUES[flag]])
    captured = capsys.readouterr()
    if read:
        assert code == 0 and captured.err == ""
    else:
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {result_id} does not read {flag}\n"


def test_check_not_applicable_is_vacuous(capsys):
    code, doc = run_json(capsys, "check", "zero-ring-2", "P1.3")
    assert code == 0
    assert doc["verdict"]["status"] == "vacuous"
    assert "not applicable" in doc["verdict"]["details"]


def test_check_unknown_id_exits_2(capsys):
    assert main(["check", "Z/4", "P9.9"]) == 2
    assert capsys.readouterr().err.startswith("error: unknown check 'P9.9'")


@pytest.mark.parametrize("poly, values", [("1", "units"), ("2", "non-units")])
def test_p26fwd_refuses_a_constant_power(capsys, poly, values):
    code, doc = run_json(capsys, "check", "Z/4", "P2.6fwd", "--poly", poly)
    assert code == 0 and doc["verdict"]["status"] == "vacuous"
    assert f"all values of the polynomial are {values}" in doc["verdict"]["witness"]["refused"]


def test_a_failing_verdict_exits_1(monkeypatch, capsys, tmp_path):
    monkeypatch.setitem(CHECKS, "L2.2", Check("commutative", lambda ring, o: Verdict("L2.2", False)))
    assert main(["check", "Z/4", "L2.2"]) == 1
    assert "L2.2 on Z/4: fail" in capsys.readouterr().out
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--max-order", "4", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    failed = [row["check"] for row in doc["rows"] if row["status"] == "fail"]
    assert failed and set(failed) == {"L2.2"}
    assert doc["summary"]["fail"] == len(failed)
    assert f"fail={len(failed)}" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["check", "Z/4", "R2.8", "--subset", "99"],
    ["check", "Z/4", "R2.8", "--subset", "-1"],
    ["check", "Z/16 x Z/17", "L2.2"],
    ["check", "Z/4", "R2.8", "--subset", "4"],
    ["report", "Z/1"],
    ["sweep", "--max-order", "1", "--out", "/nonexistent-dir/x.json"],
    ["report", "Z/4[x"],
    ["report", "x"],
    ["check", "Z/4", "L2.4", "--poly", "x+"],
    ["check", "Z/4", "L2.4", "--poly", "x)"],
    ["check", "Z/4", "R2.8", "--subset", "a,b"],
    ["sweep", "--max-order", "2", "--out", "/nonexistent-dir/x.json"],
])
def test_out_of_range_input_exits_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert captured.err.count("\n") == 1


def test_sweep_small_catalog(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    start = time.perf_counter()
    code = main(["sweep", "--max-order", "4", "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 5.0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, SCHEMA)
    assert list(doc) == ["version", "kind", "max_order", "rows", "summary"]
    assert out.read_text().count("\n") == len(doc["rows"]) + 4  # one row per line
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
    assert doc["summary"] == golden["summary"] == {"pass": 312, "fail": 0, "vacuous": 0}
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


@pytest.fixture
def builds(monkeypatch):
    """The label of every ring built while the test runs, from tables it
    validates (``_build``) or as the image of a ring (``_image``), with
    realize's cache emptied first."""
    labels = {"validated": [], "image": []}
    for name, kind in (("_build", "validated"), ("_image", "image")):
        build = getattr(core, name)

        def record(*args, build=build, kind=kind):
            labels[kind].append(args[-1])
            return build(*args)

        monkeypatch.setattr(core, name, record)
    monkeypatch.setattr(catalog, "realize", lru_cache(maxsize=None)(catalog.realize.__wrapped__))
    return labels


def test_sweep_builds_each_ring_once(builds, tmp_path):
    # The catalog builds each Z/n once, also as the base of its quotients and
    # products, so only its 28 distinct rings are built from tables.  L2.4,
    # L2.5 and the report read local factors from primitive idempotents, so
    # the only images are the 8 residue fields of the non-field local rings.
    assert main(["sweep", "--max-order", "16", "--out", str(tmp_path / "sweep.json")]) == 0
    assert len(builds["validated"]) <= 28, builds
    assert all(label.endswith("/m") for label in builds["image"]), builds
    assert len(builds["image"]) <= 8, builds


@pytest.mark.parametrize("spec", ["Z/18", "Z/8 x Z/2"])
def test_report_builds_no_local_factor(builds, capsys, spec):
    code, doc = run_json(capsys, "report", spec)
    assert code == 0 and len(doc["local_factors"]) == 2
    assert not [label for label in builds["image"] if "|e=" in label], builds


@pytest.mark.parametrize("spec", ["Z/257", "Z/2[x]/(x^9)", "Z/16 x Z/17", "zero-ring-300"])
def test_report_refuses_rings_above_the_order_limit_before_building(monkeypatch, capsys, spec):
    def refuse(add, mul, label):
        raise AssertionError(f"built {label}")

    monkeypatch.setattr(core, "_build", refuse)
    assert main(["report", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert captured.err.count("\n") == 1


def test_report_accepts_the_order_limit(capsys):
    assert main(["report", "Z/256"]) == 0
    assert "order 256" in capsys.readouterr().out


def test_s_max_is_accepted_and_ignored(capsys):
    assert main(["check", "Z/9", "L2.2", "--format", "json"]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert main(["check", "Z/9", "L2.2", "--s-max", "3", "--format", "json"]) == 0
    flagged = json.loads(capsys.readouterr().out)
    for doc in (plain, flagged):
        del doc["verdict"]["ms"]
    assert flagged == plain and plain["verdict"]["status"] == "pass"
    assert plain["verdict"]["witness"] == {"pairs": 27}


def test_sweep_covers_the_whole_catalog_at_the_default_cap(refuse_index, tmp_path):
    # P1.2, P1.3 and P2.7 argue from the ring's elements and R2.8 builds its
    # coset indicators by P2.6's lift, so no check enumerates a table.  P2.1
    # certifies a non-field by a zero-divisor pair, so no row is vacuous.
    out = tmp_path / "sweep32.json"
    assert main(["sweep", "--max-order", "32", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, SCHEMA)
    assert len(doc["rows"]) == 480
    assert doc["summary"] == {"pass": 480, "fail": 0, "vacuous": 0}
    assert not [row for row in doc["rows"] if row["vacuous"]]
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
    # fresh rings: a ring from realize keeps the indicator that an earlier
    # test stored, and would never reach the patched verification
    monkeypatch.setattr("finring.cli.realize", catalog.realize.__wrapped__)
    for argv in (["GF(4)", "P2.7"], ["Z/4", "R2.8"]):  # R2.8 checks each lifted coset table
        assert main(["check", *argv]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error:") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


def test_sweep_rejects_large_order(capsys):
    assert main(["sweep", "--max-order", "33", "--out", "/tmp/x.json"]) == 2


def _run_cli(*argv, **kwargs):
    # the child does not inherit pytest's pythonpath, so point it at this finring
    package_root = str(Path(finring.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "finring.cli", *argv],
                          capture_output=True, text=True, env=env, **kwargs)


def _main_in_process(capsys, argv) -> tuple:
    try:
        code = main(list(argv))
    except SystemExit as exc:  # --version and usage errors leave through argparse
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repeated_main_calls_print_what_a_fresh_process_prints(capsys, tmp_path):
    out = tmp_path / "sweep.json"
    commands = [("report", "Z/6", "--format", "json"), ("report", "Z/2[x]/(x^3)"),
                ("check", "Z/9", "L2.2"), ("check", "Z/4", "P2.7", "--poly", "x^2"),
                ("sweep", "--max-order", "4", "--out", str(out)), ("--version",),
                ("check", "Z/4"), ("report", "Z/4", "--format", "yaml")]
    sweep_rows = lambda: [{k: v for k, v in row.items() if k != "ms"}
                          for row in json.loads(out.read_text())["rows"]]
    fresh = []
    for argv in commands:
        proc = _run_cli(*argv)
        fresh.append(((proc.returncode, proc.stdout, proc.stderr),
                      sweep_rows() if argv[0] == "sweep" else None))
    assert [result[0] for result, _ in fresh] == [0, 0, 0, 0, 0, 0, 2, 2]
    for _ in range(2):  # one process, every command twice
        for argv, expected in zip(commands, fresh):
            assert (_main_in_process(capsys, argv),
                    sweep_rows() if argv[0] == "sweep" else None) == expected, argv


_NO_MASKED_ARRAYS = """
import contextlib, io, sys
from finring import cli, function_table, is_polynomial_function, parse_ring_spec, poly_from, realize
for spec in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["report", spec, "--format", "json"]) == 0
    ring = realize(parse_ring_spec(spec))
    table = function_table(poly_from(ring, [1, 2, 3])).values
    assert function_table(is_polynomial_function(ring, table)).values == table
print("numpy.ma" in sys.modules)
"""


def test_chain_and_split_rings_answer_without_importing_masked_arrays():
    # np.unique and np.setdiff1d import numpy.ma on their first call, which
    # costs a fresh process more than a chain ring's count: a report and a
    # lookup on a chain ring (Z/27, solved) and a split one (Z/4 x Z/3, the
    # index) must not make that first call
    package_root = str(Path(finring.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": package_root}
    proc = subprocess.run([sys.executable, "-c", _NO_MASKED_ARRAYS, "Z/27", "Z/4 x Z/3"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_module_entry_point():
    proc = _run_cli("report", "Z/4", "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["invariants"]["is_local"] is True


@pytest.mark.parametrize("argv", [("report", "Z/2[x]/(x^300000000)"),
                                  ("check", "Z/4", "P2.7", "--poly", "x^300000000")], ids=["report", "check"])
def test_huge_exponents_are_refused_in_bounded_memory(argv):
    # A dense tuple of 300000001 coefficients would not fit the 1.5 GB limit.
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))
    proc = _run_cli(*argv, preexec_fn=limit, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: exponent 300000000 exceeds the limit of 4096")
    assert proc.stderr.count("\n") == 1


def test_exponent_at_the_limit_is_accepted(capsys):
    assert main(["check", "Z/4", "P2.7", "--poly", "x^4096"]) == 0
    assert '"polynomial": "x^4096"' in capsys.readouterr().out
