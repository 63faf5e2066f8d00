"""finring benchmark: runs one workload for a fixed time and prints its metrics.

    python3 perfbench/run.py --workload closure --seed 1 --seconds 15 --trace 0

Run it from the repository root.  Each pass of the workload runs in a fresh
single-threaded interpreter (perfbench/child.py), because finring's caches
are process-global and never evict; passes repeat until --seconds have
passed.  Every answer is checked by an independent oracle.  The last line
of output is one JSON object: with --trace 0 it holds the end-to-end
metrics, with --trace 1 the per-layer figures of traced passes, which
alternate with untraced ones to measure the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

WORKLOADS = ("sweep", "closure", "fields", "membership")
SOURCE_MODULES = ("cli", "catalog", "core", "polyfun", "theorems")
SETUP_LIMIT_S = 60.0
OP_LIMIT_S = 120.0
RUN_LIMIT_S = 170.0      # a run ends well inside three minutes, hung op or not
SETUPS = 5               # set-up is timed at least this often per run
# Times are reported at the machine speed on which child.Reference.measure()
# takes this long; see NOTES.md.
REF_NOMINAL_S = 0.0006
UNITS = {"setup_s": "s", "wall_s": "s", "max_op_s": "s", "query_p50_us": "us",
         "query_p99_us": "us", "peak_rss_mb": "MB", "decided_share": "share"}


class LineReader:
    """Reads JSON lines from a child's stdout, giving up after a timeout."""

    def __init__(self, pipe):
        self.fd = pipe.fileno()
        self.buf = b""

    def next(self, timeout: float) -> dict | None:
        deadline = time.monotonic() + timeout
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([self.fd], [], [], left)[0]:
                raise TimeoutError
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)


def run_pass(workload: str, seed: int, stop_at: float, traced: bool = False,
             setup_only: bool = False) -> dict:
    """One fresh child process; a timed-out op kills it and counts as failed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "perfbench"]),
               PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, "perfbench/child.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--trace"] * traced + ["--setup-only"] * setup_only
    result = {"traced": traced, "ops": [], "expected": None, "done": None, "error": None}
    start = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env)
    reader = LineReader(proc.stdout)
    try:
        ready = reader.next(min(SETUP_LIMIT_S, stop_at - start))
        if ready is None:
            return result
        result["setup_s"] = time.monotonic() - start
        result["expected"] = ready["ready"]
        ref = reader.next(SETUP_LIMIT_S)
        if ref is None:
            result["error"] = "child exited after set-up"
            return result
        result["setup_ref"] = statistics.median(ref["ref"])
        if setup_only:
            return result
        for _ in range(result["expected"]):
            record = reader.next(min(OP_LIMIT_S, stop_at - time.monotonic()))
            if record is None:
                result["error"] = "child exited before its last op"
                return result
            result["ops"].append(record)
        result["done"] = reader.next(max(1.0, stop_at - time.monotonic()))
    except TimeoutError:
        result["error"] = "op timed out; child killed"
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        result["seconds"] = time.monotonic() - start
    return result


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:   # only when operations failed
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def speed(op: dict) -> float:
    """Factor that scales an op's times to the nominal machine speed."""
    return REF_NOMINAL_S / statistics.median(op["ref"])


def scaled_setup(p: dict) -> float:
    return p["setup_s"] * REF_NOMINAL_S / p["setup_ref"]


def scaled_wall(p: dict) -> float:
    return sum(op["s"] * speed(op) for op in p["ops"])


def end_to_end(passes: list[dict], setups: list[dict]) -> dict[str, float]:
    """Each time is a median over passes; query percentiles are taken per pass."""
    def median_of(per_pass):
        return statistics.median(per_pass(p) for p in passes)

    def max_call(p):
        return max(c * speed(op) for op in p["ops"] for c in op.get("calls", [op["s"]]))

    def queries(p):
        return [q * speed(op) for op in p["ops"] for q in op.get("queries", op.get("calls", []))]

    attempted = sum(p["expected"] for p in passes)
    unknown = sum(op["status"] == "unknown" for p in passes for op in p["ops"])
    return {
        "setup_s": statistics.median(scaled_setup(p) for p in setups),
        "wall_s": median_of(scaled_wall),
        "max_op_s": median_of(max_call),
        "query_p50_us": 1e6 * median_of(lambda p: percentile(queries(p), 50)),
        "query_p99_us": 1e6 * median_of(lambda p: percentile(queries(p), 99)),
        "peak_rss_mb": median_of(lambda p: p["done"]["peak_rss_mb"]),
        "decided_share": (attempted - unknown) / attempted,
    }


def per_layer(passes: list[dict]) -> dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = {name: statistics.median(p["done"]["layers"][name] for p in traced)
           for name in traced[0]["done"]["layers"]}
    traced_wall = statistics.median(scaled_wall(p) for p in traced)
    plain_wall = statistics.median(scaled_wall(p) for p in plain)
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_pct"] = 100.0 * (traced_wall - plain_wall) / plain_wall
    for module in SOURCE_MODULES:
        with open(os.path.join("src", "finring", f"{module}.py")) as fh:
            out[f"{module}.lines"] = sum(1 for _ in fh)
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Passes until ``seconds`` have gone (traced and untraced alternating with
    ``trace``), then set-up-only children until SETUPS set-ups were timed."""
    start = time.monotonic()
    stop_at = start + RUN_LIMIT_S

    def set_up(p: dict) -> dict:
        if p["expected"] is None:
            sys.exit(f"{workload}: set-up failed in a fresh interpreter ({p['error'] or 'no output'})")
        return p

    passes: list[dict] = []
    while True:
        p = set_up(run_pass(workload, seed, stop_at, traced=trace and len(passes) % 2 == 1))
        passes.append(p)
        elapsed = time.monotonic() - start
        if elapsed + p["seconds"] > RUN_LIMIT_S - 10:
            break
        if elapsed >= seconds and (not trace or len(passes) >= 2):
            break
    setups = [p for p in passes if "setup_ref" in p]
    while len(setups) < SETUPS and time.monotonic() + 2 * p["setup_s"] < stop_at:
        setups.append(set_up(run_pass(workload, seed, stop_at, setup_only=True)))

    attempted = sum(p["expected"] for p in passes)
    failed = sum(p["expected"] - sum(op["status"] != "failed" for op in p["ops"]) for p in passes)
    for p in passes:
        for op in p["ops"]:
            if op["status"] == "failed":
                print(f"FAILED {op['op']}: {op['error'].strip().splitlines()[-1]}")
        if p["error"]:
            print(f"FAILED pass: {p['error']}")
    complete = [p for p in passes if p["done"]]
    plain = [p for p in complete if not p["traced"]]
    if not plain or (trace and len(plain) == len(complete)):
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
    figures = end_to_end(plain, setups)
    print(f"{workload}: {len(passes)} passes, {len(setups)} set-ups, {attempted} ops, {failed} failed")
    for name, value in figures.items():
        print(f"  {name:14s} {value:14.6g} {UNITS[name]}")
    print(f"  {'failed_share':14s} {failed / attempted:14.6g} share")
    print(f"  {'unknown_share':14s} {1 - figures['decided_share']:14.6g} share")
    refs = [r for p in plain for op in p["ops"] for r in op["ref"]]
    print(f"  times are scaled to a {1e3 * REF_NOMINAL_S:g} ms reference sample; it took "
          f"{1e3 * statistics.median(refs):.4g} ms, and wall_s unscaled was "
          f"{statistics.median(sum(op['s'] for op in p['ops']) for p in plain):.6g} s")
    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in per_layer(complete).items()}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in figures.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    return {"pct": "%", "self_pct": "%", "overhead_pct": "%", "wall_s": "s",
            "hit_ratio": "share", "useful_ratio": "share", "bytes_computed": "bytes",
            "lines": "lines"}.get(suffix, "count")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in ("src/finring/__init__.py", "perfbench/child.py"):
        if not os.path.isfile(needed):
            print(f"{needed} not found; run from the root of a finring checkout", file=sys.stderr)
            return 2
    if args.workload == "all":
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in WORKLOADS}
        print(json.dumps(results))
        return 0
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
