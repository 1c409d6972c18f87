"""The durable-I/O layer must be cheap when nothing is armed.

Every journal append and cache write routes through
:mod:`repro.utils.durafs`.  The layer buys injectable faults and
centralized recovery, and it must cost little in exchange: with no
plan armed the gate is one ``None`` check.

**Gated-vs-raw micro**: 1000 atomic JSON writes through durafs versus
a hand-rolled tmp+rename loop doing identical syscalls (fsync off in
both, so the constant disk cost does not drown the bookkeeping being
measured), median of N rounds each.

Run:  pytest benchmarks/bench_durafs.py --benchmark-only -s
"""

import json
import os
import statistics
import time

from repro.utils import durafs
from repro.utils.tables import render_table

ROUNDS = 5
MICRO_WRITES = 1000


def _raw_atomic_write(path, payload):
    data = json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
    os.replace(tmp, path)


def test_gated_vs_raw_micro(tmp_path, benchmark):
    payload = {"format": 1, "answers": [{"kind": "true"}] * 8}
    gated_dir = str(tmp_path / "gated")
    raw_dir = str(tmp_path / "raw")
    os.makedirs(gated_dir)
    os.makedirs(raw_dir)

    def measure():
        samples_gated, samples_raw = [], []
        for _ in range(ROUNDS):
            started = time.perf_counter()
            for index in range(MICRO_WRITES):
                durafs.atomic_write_json(
                    os.path.join(gated_dir, f"{index}.json"), payload,
                    site="bench.micro", do_fsync=False)
            samples_gated.append(time.perf_counter() - started)
            started = time.perf_counter()
            for index in range(MICRO_WRITES):
                _raw_atomic_write(os.path.join(raw_dir, f"{index}.json"),
                                  payload)
            samples_raw.append(time.perf_counter() - started)
        return statistics.median(samples_gated), statistics.median(samples_raw)

    gated_s, raw_s = benchmark.pedantic(measure, rounds=1, iterations=1)
    print()
    print(render_table(
        ["path", "median [s]", "per write [us]"],
        [["durafs (gated, fsync off)", round(gated_s, 4),
          round(gated_s / MICRO_WRITES * 1e6, 1)],
         ["raw tmp+rename", round(raw_s, 4),
          round(raw_s / MICRO_WRITES * 1e6, 1)]],
        title=f"Atomic JSON writes x{MICRO_WRITES} "
              f"(median of {ROUNDS}; bookkeeping only)"))
    # Visibility, not a hard gate: the adapter indirection should stay
    # within the same order of magnitude as the raw loop.
    assert gated_s < raw_s * 3
