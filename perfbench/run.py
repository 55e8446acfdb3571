#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload link_canonical --seed 1 \\
        --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced:

* ``setup_s`` -- imports, session/engine/runner construction and the
  cold first op (seeded input generation excluded), taken in this
  process and in fresh child processes; the median is reported;
* ``scenarios_per_s``, ``op_p50_ms``, ``op_tail_ms`` -- a closed loop
  of ops from one thread for ``--seconds``;
* ``peak_mem_mib`` -- peak ``tracemalloc`` heap of one op (a whole
  schedule pass on ``stateye_sweep``), in its own untimed pass;
* ``pass_frac`` -- ops whose outputs match the committed references,
  over ops attempted.

``--trace 1`` alternates untraced and traced ops for ``--seconds`` and
reports per-layer metrics from the spans (see ``tracing.py``).  Every
op's outputs are checked against ``references/`` in both modes, and
each traced op must reproduce the untraced op row-exactly.

``--small`` is the reduced-size mode the benchmark's own tests use.
The last line of standard output is the JSON result.
"""

import argparse
import gc
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc

#: Pinned before NumPy is imported, here and in every child process,
#: so that an installed numba or a multi-threaded BLAS cannot silently
#: change the numbers.
PINNED_ENV = {
    "REPRO_KERNELS": "numpy",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMBA_NUM_THREADS": "1",
}

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Setup samples per run: this process plus fresh children.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
#: A tail percentile is reported only with this many ops beyond it.
TAIL_SAMPLES_BEYOND = 10

END_TO_END_UNITS = {
    "scenarios_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_mem_mib": "MiB",
    "setup_s": "s",
    "pass_frac": "frac",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("link_canonical", "stateye_sweep",
                                 "sweep_stream"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced-size inputs (the benchmark's tests)")
    parser.add_argument("--setup-sample", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_sample(name, small, get_inputs):
    """One set-up: imports, construction and the cold first op, timed;
    ``get_inputs(workload)`` (seeded generation or transfer) is not."""
    start = time.perf_counter()
    import workloads  # NumPy, SciPy and repro are first imported here.
    imported = time.perf_counter()
    workload = workloads.WORKLOADS[name](small=small)
    inputs = get_inputs(workload)
    built = time.perf_counter()
    state = workload.build(inputs)
    output = workload.op(state, 0)
    end = time.perf_counter()
    return (imported - start) + (end - built), workload, inputs, state, output


def child_setup_s(args, inputs):
    """A set-up sample taken in a fresh interpreter, inputs on stdin."""
    import numpy as np

    buffer = io.BytesIO()
    np.savez(buffer, **inputs)
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--setup-sample"]
    if args.small:
        command.append("--small")
    done = subprocess.run(command, input=buffer.getvalue(),
                          capture_output=True, timeout=CHILD_TIMEOUT_S,
                          check=True)
    return json.loads(done.stdout.decode().strip().splitlines()[-1])["setup_s"]


def run_setup_child(args):
    def read_inputs(workload):
        import numpy as np
        with np.load(io.BytesIO(sys.stdin.buffer.read())) as data:
            return {key: data[key] for key in data.files}

    seconds = setup_sample(args.workload, args.small, read_inputs)[0]
    print(json.dumps({"setup_s": seconds}))


def environment():
    import numpy
    import scipy
    from repro.kernels import backend_name

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernels": backend_name(),
        "nproc": os.cpu_count(),
        "threads": PINNED_ENV["OMP_NUM_THREADS"],
    }


class Checker:
    """Counts ops attempted and ops whose outputs miss the reference."""

    def __init__(self, workload):
        from workloads import load_reference

        self.workload = workload
        self.rows = load_reference(workload.name)["rows"]
        self.attempted = 0
        self.failed = 0

    def check(self, state, i, output, extra_ok=True, workload=None):
        from workloads import record_matches

        workload = workload or self.workload
        ok = extra_ok and all(
            key in self.rows and record_matches(
                record, self.rows[key], workload.tolerances)
            for key, record in workload.records(state, i, output))
        self.attempted += 1
        self.failed += not ok
        return ok


def tail(walls):
    """(percentile, value): the highest percentile up to p90 with at
    least ``TAIL_SAMPLES_BEYOND`` ops beyond it, else the median."""
    import numpy as np

    n = len(walls)
    q = min(0.9, 1.0 - TAIL_SAMPLES_BEYOND / n) if n else 0.5
    q = max(q, 0.5)
    return q, float(np.percentile(walls, 100 * q))


def measure_end_to_end(args, first_setup_s, inputs, workload, state,
                       checker, report):
    setup_s = [first_setup_s]
    walls, scenarios = [], 0
    i = 1  # op 0 was set-up's cold op
    # The timed ops run in slices between the child set-ups, so they
    # sample the host's speed over the whole run: on a shared host it
    # drifts over seconds to minutes, and one contiguous window sees
    # less of that drift.
    for k in range(SETUP_SAMPLES):
        deadline = time.perf_counter() + args.seconds / SETUP_SAMPLES
        while True:
            start = time.perf_counter()
            output = workload.op(state, i)
            walls.append(time.perf_counter() - start)
            scenarios += workload.scenarios(state, i)
            checker.check(state, i, output)
            i += 1
            if time.perf_counter() >= deadline:
                break
        if len(setup_s) < SETUP_SAMPLES:
            setup_s.append(child_setup_s(args, inputs))

    mem_workload, mem_state, memory_ops = workload.memory_pass(state,
                                                               args.seed)
    peak = 0
    gc.collect()
    tracemalloc.start()
    try:
        for j in range(memory_ops):
            tracemalloc.reset_peak()
            output = mem_workload.op(mem_state, i + j)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            checker.check(mem_state, i + j, output, workload=mem_workload)
            del output
    finally:
        tracemalloc.stop()

    q, tail_ms = tail([1e3 * w for w in walls])
    metrics = {
        "scenarios_per_s": scenarios / sum(walls),
        "op_p50_ms": 1e3 * statistics.median(walls),
        "op_tail_ms": tail_ms,
        "peak_mem_mib": peak / 2 ** 20,
        "setup_s": statistics.median(setup_s),
        "pass_frac": 1.0 - checker.failed / checker.attempted,
    }
    report.append(f"ops timed: {len(walls)} ({scenarios} scenarios); "
                  f"op_tail_ms is p{100 * q:.0f}"
                  + ("" if len(walls) >= 2 * TAIL_SAMPLES_BEYOND else
                     f" (the median: fewer than {2 * TAIL_SAMPLES_BEYOND} "
                     "ops, so no tail percentile has "
                     f"{TAIL_SAMPLES_BEYOND} ops beyond it)"))
    report.append("setup samples (s): "
                  + ", ".join(f"{s:.3f}" for s in setup_s))
    report.append(f"memory pass: {memory_ops} op(s) of "
                  f"{mem_workload.scenarios(mem_state, i)} scenario(s), "
                  "untimed")
    return {name: (value, END_TO_END_UNITS[name])
            for name, value in metrics.items()}


def measure_per_layer(args, workload, state, checker, report):
    from tracing import Tracer, accounting, layer_metrics, overhead_frac
    from workloads import same_outputs

    tracer = Tracer()
    untraced, traced, counts = [], [], {}
    deadline = time.perf_counter() + args.seconds
    i = 1
    while True:
        start = time.perf_counter()
        output = workload.op(state, i)
        untraced.append(time.perf_counter() - start)
        checker.check(state, i, output)
        op_index = len(tracer.spans)  # a traced op opens with its op span
        traced_output, replay_ok, op_counts = workload.traced_op(
            state, i, tracer)
        traced.append(tracer.spans[op_index].duration)
        checker.check(state, i, traced_output, extra_ok=replay_ok and
                      same_outputs(workload.view(output),
                                   workload.view(traced_output)))
        for key, value in op_counts.items():
            counts[key] = counts.get(key, 0) + value
        i += 1
        if time.perf_counter() >= deadline:
            break

    n = len(traced)
    metrics = {name: (value, "s" if name.endswith("_s") else "count")
               for name, value in layer_metrics(tracer).items()}
    metrics["cdr.lock_frac"] = (
        counts.get("cdr.locked", 0) / counts["cdr.rows"]
        if counts.get("cdr.rows") else 0.0, "frac")
    for key in ("stateye.sub_eyes", "sweep.units", "sweep.retries",
                "sweep.failures"):
        metrics[key] = (counts.get(key, 0) / n, "count")
    metrics["trace.overhead_frac"] = (overhead_frac(traced, untraced), "frac")

    rows = accounting(tracer)
    worst = min(r["self_s"] / r["wall_s"] for r in rows)
    report.append(f"traced ops: {n}; untraced ops: {len(untraced)}; "
                  "every in-op span nested in its op: "
                  f"{all(r['nested'] for r in rows)}; "
                  f"lowest self residual: {100 * worst:.1f}% of op wall")
    return metrics


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, SRC)
    if args.setup_sample:
        run_setup_child(args)
        return 0

    def generate(workload):
        return workload.inputs(args.seed)

    first, workload, inputs, state, output = setup_sample(
        args.workload, args.small, generate)
    env = environment()
    if env["kernels"] != PINNED_ENV["REPRO_KERNELS"]:
        raise RuntimeError(f"kernel backend is {env['kernels']!r}, "
                           f"expected {PINNED_ENV['REPRO_KERNELS']!r}")
    checker = Checker(workload)
    checker.check(state, 0, output)

    report = [f"perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}"
              + (" small" if args.small else ""),
              "env: " + json.dumps(env, sort_keys=True)]
    if args.trace:
        metrics = measure_per_layer(args, workload, state, checker, report)
    else:
        metrics = measure_end_to_end(args, first, inputs, workload, state,
                                     checker, report)
    report.append(f"reference check: {checker.attempted - checker.failed}"
                  f"/{checker.attempted} ops match")
    for name, (value, unit) in metrics.items():
        report.append(f"  {name:28s} {value:.6g} {unit}")
    print("\n".join(report))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
