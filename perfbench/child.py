"""One pass of one workload in a fresh interpreter.

Writes JSON lines to stdout: one when set-up is done, one with the reference
samples taken right after it, one per op as it ends (with the reference
samples around it), and a last one with peak memory and, with --trace, the
per-layer figures of the ops (set-up is not traced; the oracle is paused).
run.py starts it with src/ and perfbench/ on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import signal
import sys
import time
import traceback


def emit(out, record: dict) -> None:
    out.write(json.dumps(record) + "\n")
    out.flush()


class Reference:
    """A fixed sample of work shaped like finring's: polynomial products over
    tuples and dict probes in the interpreter, then numpy row packing and
    sorting.  Timing it around and during each operation tells how fast the
    machine is then."""

    N = 13
    BLOCK = 15          # samples taken after set-up and after each operation
    INTERVAL_S = 0.25   # sampling period while an operation runs

    def __init__(self):
        import numpy as np

        n = self.N
        self.add = [[(a + b) % n for b in range(n)] for a in range(n)]
        self.mul = [[(a * b) % n for b in range(n)] for a in range(n)]
        self.rows = (np.arange(1000 * 16) * 7919 % 16).astype(np.uint8).reshape(1000, 16)
        self.table = (np.arange(256) * 31 % 16).astype(np.uint8).reshape(16, 16)
        self.weights = np.uint64(1) << (np.arange(16, dtype=np.uint64) * np.uint64(4))
        self.keys = [row.tobytes() for row in self.rows[:300]]
        self.index = {key: i for i, key in enumerate(self.keys[::2])}
        self.spent = 0.0    # seconds spent sampling inside operations

    def clock(self) -> float:
        """perf_counter without the time spent sampling inside operations."""
        return time.perf_counter() - self.spent

    def _product(self, f: tuple, g: tuple) -> tuple:
        add, mul = self.add, self.mul
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] = add[out[i + j]][mul[a][b]]
        return tuple(out)

    def sample(self) -> float:
        n = self.N
        t0 = time.perf_counter()
        for _ in range(8):
            p = (1,)
            for k in range(n):
                p = self._product(p, ((n - k) % n, 1))
        for key in self.keys:
            self.index.get(key)
        keys = self.table[self.rows, self.rows[:, ::-1]].astype(self.weights.dtype) @ self.weights
        keys.sort()
        return time.perf_counter() - t0

    def block(self) -> list[float]:
        return [self.sample() for _ in range(self.BLOCK)]

    @contextlib.contextmanager
    def during(self):
        """Sample every INTERVAL_S from a SIGALRM handler; yields the list
        the samples go to.  Their time is left out of clock()."""
        ticks: list[float] = []

        def tick(signum, frame):
            t0 = time.perf_counter()
            ticks.append(self.sample())
            self.spent += time.perf_counter() - t0

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield ticks
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def run_ops(ops, quiet=contextlib.nullcontext, reference=None, before=()):
    """Time each op, let the oracle judge its answer (inside ``quiet()``),
    and yield its record.  With a ``reference``, the record's "ref" holds
    the reference samples taken before, during and after the op."""
    clock = reference.clock if reference else time.perf_counter
    for op in ops:
        record = {"op": op.name}
        error = None
        with reference.during() if reference else contextlib.nullcontext([]) as ticks:
            t0 = clock()
            try:
                answer = op.run()
            except Exception:
                error = traceback.format_exc(limit=-3)
            record["s"] = s = clock() - t0
        after = reference.block() if reference else []
        record["ref"] = [*before, *ticks, *after]
        before = after
        if error is None:
            try:
                with quiet():
                    record["status"] = op.verify(answer)
                record["calls"] = op.calls(answer) if op.calls else [s]
                if op.queries:
                    record["queries"] = op.queries(answer)
            except Exception:
                error = traceback.format_exc(limit=-3)
        if error is not None:
            record["status"] = "failed"
            record["error"] = error
        yield record


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    # The records go to the original stdout; anything else printed there goes to stderr.
    out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    from tracer import Tracer
    from workloads import WORKLOADS

    reference = Reference()
    ops = WORKLOADS[args.workload](args.seed, reference.clock)
    emit(out, {"ready": len(ops)})
    first = reference.block()
    emit(out, {"ref": first})
    if args.setup_only:
        return 0
    tracer = Tracer(reference.clock)
    if args.trace:
        tracer.install()
    wall = 0.0
    for record in run_ops(ops, tracer.paused, reference, first):
        wall += record["s"]
        emit(out, record)
    done = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "wall_s": wall}
    if args.trace:
        tracer.uninstall()
        done["layers"] = tracer.metrics(wall)
    emit(out, done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
