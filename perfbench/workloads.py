"""The benchmark's three workloads.

Each workload turns ``--seed`` into plain input arrays before anything
is timed, builds its session/engine/runner from them, runs one op at a
time (a closed loop from one thread), turns each op's outputs into
per-row records for the reference check, and offers a traced form of
the op that records outside-in spans (see ``tracing.py``).

Seeds pick inputs from a fixed scenario pool (a pool index fixes every
random draw of that scenario), so every row any seed can produce has a
committed reference in ``references/``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis import measure_eye_batch
from repro.analysis.isi import pulse_response
from repro.baselines.dfe import inner_eye_height_from_corrected
from repro.cdr import BangBangCdr, CdrConfig
from repro.link import (CdrStage, ChannelConfig, DfeConfig, DfeStage,
                        LinkSession, RxConfig, TxConfig)
from repro.signals import (Nrz, NrzEncoder, Pam4, RandomJitter, Waveform,
                           WaveformBatch, add_awgn, prbs7)
from repro.stateye import StatEye
from repro.sweep import (Count, Histogram, MeanVar, MinMax, Quantiles,
                         ScenarioGrid, SweepAxis, SweepRunner, Yield)

from tracing import TimedStage, Tracer

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "references")

#: Per-field comparison: ``None`` is exact, a pair is ``(rtol, atol)``.
Tolerances = Dict[str, Optional[Tuple[float, float]]]


# ---------------------------------------------------------------------------
# Reference records and their comparison.
# ---------------------------------------------------------------------------

def _same_float(got: float, want: float, rtol: float, atol: float) -> bool:
    """Equal as values (a closed eye's ``-inf`` equals ``-inf``, NaN
    equals NaN), else within ``rtol``/``atol`` when both are finite."""
    if got == want or (math.isnan(got) and math.isnan(want)):
        return True
    if not (math.isfinite(got) and math.isfinite(want)):
        return False
    return abs(got - want) <= rtol * max(abs(got), abs(want)) + atol


def record_matches(got: Dict[str, Any], want: Dict[str, Any],
                   tolerances: Tolerances) -> bool:
    """One row's record against its reference, field by field."""
    if set(got) != set(want):
        return False
    for field, tolerance in tolerances.items():
        a, b = got[field], want[field]
        if tolerance is None:
            if a != b:
                return False
            continue
        a_list = a if isinstance(a, list) else [a]
        b_list = b if isinstance(b, list) else [b]
        if len(a_list) != len(b_list) or not all(
                _same_float(float(x), float(y), *tolerance)
                for x, y in zip(a_list, b_list)):
            return False
    return True


def load_reference(name: str) -> Dict[str, Any]:
    with open(os.path.join(REFERENCE_DIR, f"{name}.json")) as handle:
        return json.load(handle)


def same_outputs(a: Any, b: Any) -> bool:
    """Row-exact equality of two op outputs (arrays, dataclasses,
    sequences, floats; NaN equals NaN)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and np.array_equal(
            a, b, equal_nan=a.dtype.kind == "f")
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            same_outputs(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a))
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(same_outputs(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(same_outputs(a[k], b[k]) for k in a))
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


# ---------------------------------------------------------------------------
# link_canonical: the paper's 0.5 m backplane link, one 500-row batch.
# ---------------------------------------------------------------------------

BIT_RATE = 10e9

#: Analog stage class -> layer name of its span.
STAGE_LAYERS = {
    "OutputInterface": "core.output_interface",
    "BackplaneChannel": "channel.backplane",
    "InputInterface": "core.input_interface",
}


def timed_stages(session: LinkSession, tracer: Tracer) -> List[TimedStage]:
    """The session's analog stages, each wrapped in a span recorder."""
    return [TimedStage(s, STAGE_LAYERS[type(s.processor).__name__], tracer)
            for s in session.stages]


@dataclasses.dataclass
class LinkState:
    session: LinkSession
    batch: WaveformBatch
    rows: np.ndarray


class LinkCanonical:
    """500 jittered, noisy NRZ PRBS7 scenarios through tx -> 0.5 m
    backplane -> rx -> eye/CDR/DFE as one ``run_batch``."""

    name = "link_canonical"
    N_BITS = 600
    SAMPLES_PER_BIT = 8
    AMPLITUDE_V = 0.25
    RJ_RMS_S = 2e-12
    AWGN_RMS_V = 2e-3
    POOL = 1500
    tolerances: Tolerances = {
        "eye_height": (1e-9, 0.0),
        "cdr_locked_at_bit": None,
        "cdr_decisions": None,
        "dfe_inner_eye_height": (1e-9, 0.0),
    }

    def __init__(self, small: bool = False):
        self.n_rows = 16 if small else 500

    def pool_wave(self, index: int) -> Waveform:
        """Pool scenario ``index``: its own PRBS7 phase, RJ and AWGN."""
        encoder = NrzEncoder(bit_rate=BIT_RATE,
                             samples_per_bit=self.SAMPLES_PER_BIT,
                             amplitude=self.AMPLITUDE_V)
        bits = prbs7(self.N_BITS, seed=1 + index % 127)
        jitter = RandomJitter(self.RJ_RMS_S, seed=10_000 + index)
        wave = encoder.encode(bits, edge_offsets=jitter.offsets(
            self.N_BITS, BIT_RATE))
        return add_awgn(wave, rms_volts=self.AWGN_RMS_V, seed=20_000 + index)

    def inputs(self, seed: int, pool_rows=None) -> Dict[str, np.ndarray]:
        rows = (np.random.default_rng(seed).choice(
                    self.POOL, self.n_rows, replace=False)
                if pool_rows is None else np.asarray(pool_rows))
        waves = [self.pool_wave(int(i)) for i in rows]
        return {"rows": rows,
                "data": np.stack([w.data for w in waves]),
                "sample_rate": np.array(waves[0].sample_rate)}

    def build(self, inputs) -> LinkState:
        session = LinkSession.from_configs(
            TxConfig(), ChannelConfig(0.5), RxConfig(),
            cdr=CdrConfig(bit_rate=BIT_RATE, kp=8e-3, ki=2e-5),
            dfe=DfeConfig(taps=(0.1, 0.03)))
        batch = WaveformBatch(inputs["data"], float(inputs["sample_rate"]))
        return LinkState(session, batch, inputs["rows"])

    def scenarios(self, state: LinkState, i: int) -> int:
        return state.batch.n_scenarios

    def memory_pass(self, state, seed: int):
        """(workload, state, ops) of the untimed tracemalloc pass."""
        return self, state, 1

    def op(self, state: LinkState, i: int):
        return state.session.run_batch(state.batch)

    def records(self, state: LinkState, i: int, result):
        cdr = result.cdr
        out = []
        for r, index in enumerate(state.rows):
            decisions = cdr.decisions[r, :int(cdr.n_bits[r])]
            out.append((str(int(index)), {
                "eye_height": float(result.eyes[r].eye_height),
                "cdr_locked_at_bit": int(cdr.locked_at_bit[r]),
                "cdr_decisions": hashlib.sha256(
                    decisions.astype(np.int8).tobytes()).hexdigest()[:16],
                "dfe_inner_eye_height": float(
                    result.dfe_inner_eye_heights[r]),
            }))
        return out

    def traced_op(self, state: LinkState, i: int, tracer: Tracer):
        """``run_batch`` on a session built from the same stages, each
        wrapped in a span recorder, then eye/CDR/DFE replayed on the
        chain output.  Returns ``(result, replay_matches_op, counts)``."""
        session = state.session
        wrapped = LinkSession(
            timed_stages(session, tracer), bit_rate=session.bit_rate,
            cdr=session.cdr_config, dfe=session.dfe,
            measure_eye=session.measure_eye, skip_ui=session.skip_ui,
            dfe_skip_bits=session.dfe_skip_bits,
            modulation=session.modulation)
        with tracer.span("link.session", rows=state.batch.n_scenarios) as op:
            result = wrapped.run_batch(state.batch)
        out = result.output
        rows = out.n_scenarios
        with tracer.span("analysis.eye", rows, replay_of=op):
            eyes = measure_eye_batch(out, session.bit_rate,
                                     skip_ui=session.skip_ui,
                                     modulation=session.modulation)
        with tracer.span("cdr", rows, replay_of=op):
            cdr = CdrStage(BangBangCdr(session.cdr_config)).recover(out)
        with tracer.span("baselines.dfe", rows, replay_of=op):
            decisions, corrected = DfeStage(session.dfe).equalize(out)
            heights = inner_eye_height_from_corrected(
                corrected, session.dfe_skip_bits,
                thresholds=session.dfe.decision_thresholds)
        replay = (eyes, cdr, decisions, corrected, heights)
        locked = result.cdr.locked_at_bit >= 0
        counts = {"cdr.locked": int(locked.sum()), "cdr.rows": rows}
        return result, same_outputs(replay, self.view(result)[1:]), counts

    @staticmethod
    def view(result):
        """What row-exactness compares: the chain output and every
        measurement."""
        return (result.output.data, result.eyes, result.cdr,
                result.dfe_decisions, result.dfe_corrected,
                result.dfe_inner_eye_heights)


# ---------------------------------------------------------------------------
# stateye_sweep: a 60-point reach study, one statistical eye per op.
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class StatEyeState:
    schedule: np.ndarray


class StatEyeSweep:
    """Channel length x equalizer control x {NRZ, PAM4}; each op builds
    the session and runs ``statistical_eye`` with noise, RJ and DJ."""

    name = "stateye_sweep"
    LENGTHS_M = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    CONTROL_V = (0.5, 0.6, 0.7, 0.8, 0.9)
    MODULATIONS = ("nrz", "pam4")
    #: (noise_rms V, rj_rms_ui, dj_pp_ui) settings; from eyes open at
    #: 1e-12 to closed ones, so both eye sizes and BERs are checked.
    IMPAIRMENTS = ((5e-3, 0.010, 0.02), (15e-3, 0.015, 0.04),
                   (25e-3, 0.020, 0.06), (35e-3, 0.025, 0.08))
    AMPLITUDE_V = 0.25
    TARGET_BER = 1e-12
    tolerances: Tolerances = {
        "eye_height": (1e-9, 0.0),
        "eye_width_ui": (1e-9, 0.0),
        # The float64 pipeline carries ~1e-15 of absolute CDF noise.
        "min_ber": (1e-9, 1e-15),
    }

    def __init__(self, small: bool = False):
        self.points = [(m, length, v) for m in self.MODULATIONS
                       for length in self.LENGTHS_M for v in self.CONTROL_V]
        self.n_points = 6 if small else len(self.points)

    @property
    def pool(self) -> int:
        return len(self.points) * len(self.IMPAIRMENTS)

    def inputs(self, seed: int, pool_rows=None) -> Dict[str, np.ndarray]:
        """Each grid point with a seeded impairment setting, in a seeded
        order (the small mode takes the first points of that order)."""
        if pool_rows is not None:
            return {"schedule": np.asarray(pool_rows)}
        rng = np.random.default_rng(seed)
        k = len(self.IMPAIRMENTS)
        setting = rng.integers(0, k, len(self.points))
        order = rng.permutation(len(self.points))[:self.n_points]
        return {"schedule": order * k + setting[order]}

    def build(self, inputs) -> StatEyeState:
        return StatEyeState(np.asarray(inputs["schedule"]))

    def scenarios(self, state, i: int) -> int:
        return 1

    def memory_pass(self, state, seed: int):
        """The memory pass covers the whole schedule once."""
        return self, state, len(state.schedule)

    def _config(self, key: int):
        point, setting = divmod(int(key), len(self.IMPAIRMENTS))
        modulation, length, control = self.points[point]
        noise, rj, dj = self.IMPAIRMENTS[setting]
        return ((Pam4() if modulation == "pam4" else Nrz()), length, control,
                {"noise_rms": noise, "rj_rms_ui": rj, "dj_pp_ui": dj})

    def _key(self, state, i: int) -> int:
        return int(state.schedule[i % len(state.schedule)])

    @staticmethod
    def _session(modulation, length, control) -> LinkSession:
        return LinkSession.from_configs(
            TxConfig(modulation=modulation), ChannelConfig(length),
            RxConfig(equalizer_control_voltage=control))

    def op(self, state, i: int):
        modulation, length, control, fields = self._config(
            self._key(state, i))
        session = self._session(modulation, length, control)
        return session.statistical_eye(amplitude=self.AMPLITUDE_V, **fields)

    def records(self, state, i: int, result):
        return [(str(self._key(state, i)), {
            "eye_height": result.eye_height_at(self.TARGET_BER),
            "eye_width_ui": result.eye_width_ui_at(self.TARGET_BER),
            "min_ber": [max(result.min_ber(e), result.ber_floor)
                        for e in range(result.n_eyes)],
        })]

    def traced_op(self, state, i: int, tracer: Tracer):
        """``statistical_eye`` replayed from its public parts: build the
        session, pass it (stages wrapped) to ``pulse_response``, then
        ``StatEye.analyze``.  Returns ``(result, True, counts)``: there
        is no replay to check, the caller compares the result with the
        untraced op's."""
        modulation, length, control, fields = self._config(
            self._key(state, i))
        with tracer.span("link.session", rows=1):
            with tracer.span("link.build", rows=1):
                session = self._session(modulation, length, control)
            wrapped = LinkSession(timed_stages(session, tracer),
                                  bit_rate=session.bit_rate,
                                  modulation=session.modulation)
            engine = StatEye(modulation=session.modulation, **fields)
            with tracer.span("analysis.isi", rows=1):
                pulse = pulse_response(
                    wrapped, session.bit_rate,
                    n_lead_bits=max(4, engine.n_precursors + 4),
                    n_lag_bits=max(8, engine.n_postcursors + 4),
                    amplitude=self.AMPLITUDE_V)
            with tracer.span("stateye", rows=1):
                result = engine.analyze(pulse)
        return result, True, {"stateye.sub_eyes": result.n_eyes}

    @staticmethod
    def view(result):
        return result


# ---------------------------------------------------------------------------
# sweep_stream: a 100k-scenario streaming Monte Carlo SweepRunner run.
# ---------------------------------------------------------------------------

class _Stimulus:
    """One DC level per trial: a mismatch draw on the nominal level."""

    FS = 160e9
    N_SAMPLES = 8
    NOMINAL_V = 0.2
    SIGMA_V = 0.01

    def __init__(self, draws: np.ndarray):
        self.draws = draws

    def __call__(self, params) -> Waveform:
        level = self.NOMINAL_V + self.SIGMA_V * self.draws[params["trial"]]
        return Waveform(np.full(self.N_SAMPLES, level), self.FS)


class _FirstSample:
    """``measure_batch``: each row's first sample; counts its calls so
    a retried unit shows up as an extra call."""

    def __init__(self):
        self.calls = 0

    def __call__(self, batch, params_list):
        self.calls += 1
        return [float(value) for value in batch.data[:, 0]]


PASS_THRESHOLD_V = 0.185


def _passes(value, params) -> bool:
    return value > PASS_THRESHOLD_V


@dataclasses.dataclass
class SweepState:
    runner: SweepRunner
    measure: _FirstSample


class SweepStream:
    """100k trials, ``chunk_rows=2048``, ``keep_results=False``, six
    streaming reducers, trivial 8-sample physics."""

    name = "sweep_stream"
    CHUNK_ROWS = 2048
    POOL_SEED = 23
    tolerances: Tolerances = {
        "count": None, "min": None, "max": None, "hist": None,
        "underflow": None, "overflow": None, "quantiles": None,
        "n_pass": None, "n_total": None,
        "mean": (1e-9, 0.0), "variance": (1e-9, 0.0),
    }

    #: Scenario counts with committed references: full, memory pass,
    #: reduced-size mode.
    FULL_N = 100_000
    MEMORY_N = 25_000
    SMALL_N = 8192

    def __init__(self, small: bool = False, n: Optional[int] = None):
        self.n = n or (self.SMALL_N if small else self.FULL_N)
        self.reference_key = f"pool{self.n}"

    def inputs(self, seed: Optional[int]) -> Dict[str, np.ndarray]:
        """The fixed draw pool in a seeded order (pool order for
        ``None``): chunk contents and merge order change with the seed,
        the aggregates may not."""
        pool = np.random.default_rng(self.POOL_SEED).standard_normal(self.n)
        order = (np.arange(self.n) if seed is None
                 else np.random.default_rng(seed).permutation(self.n))
        return {"draws": pool[order]}

    def build(self, inputs) -> SweepState:
        lo = _Stimulus.NOMINAL_V - 5 * _Stimulus.SIGMA_V
        hi = _Stimulus.NOMINAL_V + 5 * _Stimulus.SIGMA_V
        measure = _FirstSample()
        reducers = {
            "count": Count(),
            "extrema": MinMax(),
            "level": MeanVar(),
            "hist": Histogram(lo, hi, n_bins=64),
            "quantiles": Quantiles(qs=(0.05, 0.5, 0.95), lo=lo, hi=hi,
                                   n_bins=512),
            "yield": Yield(_passes),
        }
        runner = SweepRunner(
            ScenarioGrid([SweepAxis("trial", tuple(range(self.n)))]),
            stimulus=_Stimulus(inputs["draws"]), measure_batch=measure,
            chunk_rows=self.CHUNK_ROWS, reducers=reducers,
            keep_results=False)
        return SweepState(runner, measure)

    def scenarios(self, state, i: int) -> int:
        return self.n

    def memory_pass(self, state, seed: int):
        """A quarter-size sweep, same configuration: under tracemalloc
        the full sweep takes ~8x its untraced time, and the streaming
        peak is set by ``chunk_rows``, not by the scenario count."""
        if self.n <= self.MEMORY_N:
            return self, state, 1
        quarter = SweepStream(n=self.MEMORY_N)
        return quarter, quarter.build(quarter.inputs(seed)), 1

    def op(self, state: SweepState, i: int):
        return state.runner.run().aggregates

    def records(self, state, i: int, aggregates):
        hist = aggregates["hist"]
        return [(self.reference_key, {
            "count": int(aggregates["count"]),
            "min": float(aggregates["extrema"].min),
            "max": float(aggregates["extrema"].max),
            "hist": [int(c) for c in hist.counts],
            "underflow": int(hist.underflow),
            "overflow": int(hist.overflow),
            "quantiles": [float(v) for v in aggregates["quantiles"].values],
            "n_pass": int(aggregates["yield"].n_pass),
            "n_total": int(aggregates["yield"].n_total),
            "mean": float(aggregates["level"].mean),
            "variance": float(aggregates["level"].variance),
        })]

    def traced_op(self, state: SweepState, i: int, tracer: Tracer):
        """The real ``run()``, then every unit replayed through
        ``batch_points_slice`` -> stimulus -> ``WaveformBatch.stack`` ->
        ``measure_batch`` -> reducer ``update``/``merge``/``finalize``.
        Returns ``(aggregates, replay_matches_op, counts)``."""
        runner = state.runner
        calls_before = state.measure.calls
        with tracer.span("sweep.runner", rows=self.n) as op:
            result = runner.run()
        measure_calls = state.measure.calls - calls_before
        units = 0
        grid = runner.grid
        n_batch = grid.n_batch_scenarios()
        states = {name: r.init() for name, r in runner.reducers.items()}
        for start in range(0, n_batch, self.CHUNK_ROWS):
            stop = min(start + self.CHUNK_ROWS, n_batch)
            rows = stop - start
            units += 1
            with tracer.span("sweep.plan", rows, replay_of=op):
                params = grid.batch_points_slice(start, stop)
            with tracer.span("sweep.stimulus", rows, replay_of=op):
                waves = [runner.stimulus(p) for p in params]
            with tracer.span("signals.stack", rows, replay_of=op):
                batch = WaveformBatch.stack(waves)
            with tracer.span("sweep.measure", rows, replay_of=op):
                values = runner.measure_batch(batch, params)
            with tracer.span("sweep.reduce", rows, replay_of=op):
                for name, reducer in runner.reducers.items():
                    states[name] = reducer.merge(
                        states[name],
                        reducer.update(reducer.init(), values, params))
        with tracer.span("sweep.reduce", 0, replay_of=op):
            replayed = {name: reducer.finalize(states[name])
                        for name, reducer in runner.reducers.items()}
        counts = {"sweep.units": units,
                  "sweep.retries": measure_calls - units,
                  "sweep.failures": len(result.failures)}
        return (result.aggregates, same_outputs(replayed, result.aggregates),
                counts)

    @staticmethod
    def view(aggregates):
        return aggregates


WORKLOADS = {w.name: w for w in (LinkCanonical, StatEyeSweep, SweepStream)}
