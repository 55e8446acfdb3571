#!/usr/bin/env python3
"""Regenerate ``references/``: every pool row's record, per workload.

Run from the root of a checkout, only when a change is meant to alter
the program's outputs::

    python3 perfbench/make_references.py [workload ...]

The records come from the same ``op`` and ``records`` functions the
benchmark checks with, so a reference is what the code produced when
it was written; review the diff of ``references/`` like code.
"""

import json
import os
import sys

from run import PINNED_ENV, SRC

os.environ.update(PINNED_ENV)
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from workloads import (REFERENCE_DIR, WORKLOADS, LinkCanonical,  # noqa: E402
                       StatEyeSweep, SweepStream)


def link_rows():
    workload = LinkCanonical()
    rows = {}
    for start in range(0, workload.POOL, workload.n_rows):
        pool_rows = np.arange(start, min(start + workload.n_rows,
                                         workload.POOL))
        state = workload.build(workload.inputs(None, pool_rows=pool_rows))
        rows.update(workload.records(state, 0, workload.op(state, 0)))
    return rows


def stateye_rows():
    workload = StatEyeSweep()
    state = workload.build(workload.inputs(None,
                                           pool_rows=np.arange(workload.pool)))
    rows = {}
    for i in range(workload.pool):
        rows.update(workload.records(state, i, workload.op(state, i)))
    return rows


def sweep_rows():
    rows = {}
    for n in (SweepStream.FULL_N, SweepStream.MEMORY_N, SweepStream.SMALL_N):
        workload = SweepStream(n=n)
        state = workload.build(workload.inputs(None))
        rows.update(workload.records(state, 0, workload.op(state, 0)))
    return rows


def dump(name, rows):
    """The reference file: one row per line, so a diff shows the rows
    that changed."""
    lines = ",\n".join(
        f"{json.dumps(key)}: {json.dumps(rows[key], sort_keys=True)}"
        for key in sorted(rows))
    return f'{{"workload": {json.dumps(name)}, "rows": {{\n{lines}\n}}}}\n'


GENERATORS = {"link_canonical": link_rows, "stateye_sweep": stateye_rows,
              "sweep_stream": sweep_rows}


def main(names):
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name in names or list(WORKLOADS):
        rows = GENERATORS[name]()
        path = os.path.join(REFERENCE_DIR, f"{name}.json")
        with open(path, "w") as handle:
            handle.write(dump(name, rows))
        print(f"{path}: {len(rows)} rows")


if __name__ == "__main__":
    main(sys.argv[1:])
