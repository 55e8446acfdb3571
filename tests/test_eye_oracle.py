"""Frozen oracle for the eye measurement.

``_OldEyeDiagram`` below is a verbatim copy of the per-row serial
measurement the eye used before it became one batched pass: per-phase
level clusters, per-cluster means/sigmas/Q and the per-row circularly
centered crossing distribution.  The batched pass
(``EyeDiagramBatch.measure_at``; ``EyeDiagram`` is a one-row call into
it) must reproduce it on noisy NRZ and PAM4 batches, including an
all-zero row and a row with no crossings: heights, integer fields and
tuple shapes exactly, every other float within 1e-12 relative.
"""

import dataclasses
import math
from typing import List, Optional

import numpy as np
import pytest

from repro.analysis.eye import EyeDiagram, EyeDiagramBatch, EyeMeasurement
from repro.channel import BackplaneChannel
from repro.signals import (
    Modulation,
    NrzEncoder,
    Nrz,
    Pam4,
    RandomJitter,
    SymbolEncoder,
    WaveformBatch,
    add_awgn,
    prbs7,
)

BIT_RATE = 10e9
SYMBOL_RATE = 5e9


# ---------------------------------------------------------------------------
# Frozen pre-batching reference, verbatim.
# ---------------------------------------------------------------------------

def _center_crossings_ui(crossings: np.ndarray) -> np.ndarray:
    """Center a modulo-1 crossing cluster on its circular mean.

    Crossing positions live on the UI circle: a cluster straddling the
    0/1 boundary (e.g. crossings at 0.02 and 0.98 UI) wraps, and any
    linear statistic of the raw values — in particular the median, whose
    value lands mid-range for a balanced straddling cluster — fails to
    detect it, reporting ~1 UI of peak-to-peak jitter for a clean eye.
    The circular mean has no such failure mode: it always points at the
    cluster, so shifting the wrap seam half a UI away from it unwraps
    every cluster correctly.
    """
    angles = 2.0 * np.pi * crossings
    center = np.arctan2(np.mean(np.sin(angles)),
                        np.mean(np.cos(angles))) / (2.0 * np.pi)
    center = np.mod(center, 1.0)
    return np.mod(crossings - center + 0.5, 1.0) - 0.5 + center


def _estimate_thresholds(traces: np.ndarray,
                         modulation: Modulation) -> np.ndarray:
    """Estimate per-sub-eye decision thresholds from folded traces.

    Nominal thresholds from the observed min/max swing, then one Lloyd
    refinement: slice, take the mean of each level cluster, re-midpoint.
    Only used for ``L > 2`` — the NRZ threshold is exactly 0 V and is
    never estimated (that keeps the binary path bit-exact).
    """
    flat = traces.reshape(-1)
    lo = float(flat.min())
    hi = float(flat.max())
    swing = hi - lo
    if swing <= 0:
        return np.zeros(modulation.n_eyes)
    center = 0.5 * (lo + hi)
    nominal_levels = center + modulation.level_values(swing)
    thresholds = center + modulation.threshold_values(swing)
    counts = np.searchsorted(thresholds, flat, side="left")
    means = np.array([
        float(flat[counts == i].mean()) if np.any(counts == i)
        else float(nominal_levels[i])
        for i in range(modulation.n_levels)
    ])
    return (means[:-1] + means[1:]) / 2.0



class _OldEyeDiagram:
    """The serial ``EyeDiagram`` measurement over already-folded
    ``(n_ui, samples_per_ui)`` traces."""

    def __init__(self, traces: np.ndarray, bit_rate: float,
                 modulation: Optional[Modulation] = None):
        self.bit_rate = bit_rate
        self.unit_interval = 1.0 / bit_rate
        self.samples_per_ui = traces.shape[1]
        self.traces = traces
        self.n_ui = traces.shape[0]
        self.modulation = Nrz() if modulation is None else modulation
        self._thresholds = None

    def decision_thresholds(self) -> np.ndarray:
        """Per-sub-eye decision thresholds, in volts.

        Exactly ``[0.0]`` for two-level signaling (differential NRZ
        slices at zero by construction); estimated from the traces for
        ``L > 2`` (see :func:`_estimate_thresholds`).
        """
        if self._thresholds is None:
            if self.modulation.n_levels == 2:
                self._thresholds = np.zeros(1)
            else:
                self._thresholds = _estimate_thresholds(self.traces,
                                                        self.modulation)
        return self._thresholds

    def _level_clusters(self, phase_index: int) -> List[np.ndarray]:
        """Samples at a phase, split into per-level clusters (lowest
        level first).  For NRZ this is the classic zero/one split."""
        column = self.traces[:, phase_index]
        counts = np.searchsorted(self.decision_thresholds(), column,
                                 side="left")
        return [column[counts == i]
                for i in range(self.modulation.n_levels)]

    def eye_heights_at(self, phase_index: int) -> np.ndarray:
        """Per-sub-eye vertical opening at a sampling phase.

        Sub-eye ``e`` opens between level clusters ``e`` and ``e + 1``:
        ``min(upper cluster) - max(lower cluster)`` — negative when that
        sub-eye is closed, ``-inf`` when a cluster is empty.
        """
        clusters = self._level_clusters(phase_index)
        heights = np.empty(self.modulation.n_eyes)
        for e in range(self.modulation.n_eyes):
            upper, lower = clusters[e + 1], clusters[e]
            if upper.size == 0 or lower.size == 0:
                heights[e] = -float("inf")
            else:
                heights[e] = float(upper.min() - lower.max())
        return heights

    def eye_height_at(self, phase_index: int) -> float:
        """Worst-sub-eye vertical opening at a sampling phase."""
        return float(np.min(self.eye_heights_at(phase_index)))

    def best_phase_index(self) -> int:
        """The sampling phase maximizing the (worst-sub-eye) opening."""
        heights = [self.eye_height_at(i) for i in range(self.samples_per_ui)]
        return int(np.argmax(heights))

    # -- horizontal measurements ----------------------------------------------
    def _eye_index(self, eye: Optional[int]) -> int:
        if eye is None:
            return self.modulation.center_threshold_index
        if not 0 <= eye < self.modulation.n_eyes:
            raise ValueError(
                f"eye must be in 0..{self.modulation.n_eyes - 1}, got {eye}"
            )
        return int(eye)

    def crossing_times_ui(self, eye: Optional[int] = None) -> np.ndarray:
        """Threshold-crossing positions of all edges, in UI modulo 1.

        Linear interpolation between the bracketing samples; the
        distribution's spread is the crossing jitter.  ``eye`` selects
        the sub-eye threshold; the default is the middle eye (the zero
        crossing for NRZ — the edge the bang-bang CDR locks to).
        """
        threshold = float(self.decision_thresholds()[self._eye_index(eye)])
        flat = self.traces.reshape(-1)
        if threshold != 0.0:
            flat = flat - threshold
        sign = np.sign(flat)
        sign[sign == 0] = 1
        idx = np.flatnonzero(np.diff(sign) != 0)
        if idx.size == 0:
            return np.array([])
        v0 = flat[idx]
        v1 = flat[idx + 1]
        frac = v0 / (v0 - v1)
        times = (idx + frac) / self.samples_per_ui
        crossings = np.mod(times, 1.0)
        # Center the cluster: crossings near 0/1 wrap; shift the wrap
        # seam half a UI away from the circular mean before measuring
        # spread (a straddling cluster defeats linear centering).
        return _center_crossings_ui(crossings)

    def measure_at(self, phase: int) -> EyeMeasurement:
        """Scope-style measurement at a given sampling-phase index."""
        clusters = self._level_clusters(phase)
        n_levels = self.modulation.n_levels
        n_eyes = self.modulation.n_eyes
        if any(cluster.size == 0 for cluster in clusters):
            # Degenerate signal (some level never observed at this
            # phase): report a closed eye.
            level = float(self.traces.mean())
            return EyeMeasurement(
                eye_height=-float("inf"), eye_width_ui=0.0,
                eye_amplitude=0.0, level_one=level, level_zero=level,
                jitter_rms=0.0, jitter_pp=0.0, q_factor=0.0,
                sampling_phase_ui=phase / self.samples_per_ui,
                n_ui=self.n_ui, n_levels=n_levels,
            )
        means = [float(cluster.mean()) for cluster in clusters]
        sigmas = [float(cluster.std()) for cluster in clusters]
        level_one = means[-1]
        level_zero = means[0]
        amplitude = level_one - level_zero
        q_factors = []
        for e in range(n_eyes):
            separation = means[e + 1] - means[e]
            denominator = sigmas[e + 1] + sigmas[e]
            q_factors.append(separation / denominator
                             if denominator > 0 else float("inf"))
        heights = self.eye_heights_at(phase)
        # One pass over each crossing distribution for all horizontal
        # metrics (it is the costly part of a measurement).
        jitter_rms_by_eye = []
        jitter_pp_by_eye = []
        for e in range(n_eyes):
            times = self.crossing_times_ui(eye=e)
            jitter_rms_by_eye.append(float(np.std(times))
                                     if times.size >= 2 else 0.0)
            jitter_pp_by_eye.append(float(np.ptp(times))
                                    if times.size >= 2 else 0.0)
        widths = [max(0.0, 1.0 - pp) for pp in jitter_pp_by_eye]
        worst_eye = int(np.argmin(heights))
        worst_jitter_rms = max(jitter_rms_by_eye)
        worst_jitter_pp = max(jitter_pp_by_eye)
        return EyeMeasurement(
            eye_height=float(np.min(heights)),
            eye_width_ui=min(widths),
            eye_amplitude=amplitude,
            level_one=level_one,
            level_zero=level_zero,
            jitter_rms=worst_jitter_rms * self.unit_interval,
            jitter_pp=worst_jitter_pp * self.unit_interval,
            q_factor=min(q_factors),
            sampling_phase_ui=(phase + 0.5) / self.samples_per_ui,
            n_ui=self.n_ui,
            n_levels=n_levels,
            worst_eye=worst_eye,
            eye_heights=tuple(float(h) for h in heights),
            eye_widths_ui=tuple(widths),
            eye_jitter_rms_ui=tuple(jitter_rms_by_eye),
            eye_jitter_pp_ui=tuple(jitter_pp_by_eye),
            q_factors=tuple(q_factors),
            levels=tuple(means),
        )


# ---------------------------------------------------------------------------
# Batches: noisy rows plus the edge rows the serial code special-cased.
# ---------------------------------------------------------------------------

def _nrz_batch():
    encoder = NrzEncoder(bit_rate=BIT_RATE, samples_per_bit=16,
                         amplitude=0.4, rise_time=20e-12)
    bits = prbs7(300)
    channel = BackplaneChannel(0.2)
    rows = []
    for seed in range(1, 6):
        offsets = RandomJitter(2e-12, seed=seed).offsets(len(bits), BIT_RATE)
        wave = channel.process(encoder.encode(bits, edge_offsets=offsets))
        rows.append(add_awgn(wave, 5e-3, seed=seed).data)
    sample_rate = wave.sample_rate
    # All-zero: every sample lands in the lowest level (closed eye).
    rows.append(np.zeros_like(rows[0]))
    # Zeros and positives: both levels populated, but no sign change
    # (a zero sample counts as positive), so no crossings at all.
    rows.append(np.maximum(rows[0], 0.0))
    return WaveformBatch(np.vstack(rows), sample_rate), Nrz(), BIT_RATE


def _pam4_batch():
    pam4 = Pam4()
    encoder = SymbolEncoder(symbol_rate=SYMBOL_RATE, modulation=pam4,
                            samples_per_symbol=8, amplitude=0.4)
    rng = np.random.default_rng(17)
    symbols = pam4.bits_to_symbols(rng.integers(0, 2, 480))
    rows = []
    for seed in range(1, 5):
        offsets = RandomJitter(2e-12, seed=seed).offsets(len(symbols),
                                                         SYMBOL_RATE)
        wave = encoder.encode(symbols, edge_offsets=offsets)
        rows.append(add_awgn(wave, rms_volts=0.01, seed=seed).data)
    sample_rate = wave.sample_rate
    rows.append(np.zeros_like(rows[0]))
    # Constant: a single level and no crossings at any threshold.
    rows.append(np.full_like(rows[0], 0.1))
    return WaveformBatch(np.vstack(rows), sample_rate), pam4, SYMBOL_RATE


BATCHES = {"nrz": _nrz_batch, "pam4": _pam4_batch}

#: Fields that must match bit for bit: the heights come from the same
#: samples, the rest are integers or integer-derived.
EXACT_FIELDS = ("eye_height", "eye_heights", "sampling_phase_ui", "n_ui",
                "n_levels", "worst_eye")


def _close(name, actual, expected):
    assert type(actual) is type(expected), name
    assert actual == expected or \
        abs(actual - expected) <= 1e-12 * abs(expected), \
        (name, actual, expected)


def _assert_matches_oracle(measured: EyeMeasurement,
                           reference: EyeMeasurement):
    for field in dataclasses.fields(EyeMeasurement):
        actual = getattr(measured, field.name)
        expected = getattr(reference, field.name)
        if field.name in EXACT_FIELDS or expected is None:
            assert actual == expected, field.name
            assert type(actual) is type(expected), field.name
        elif isinstance(expected, tuple):
            assert isinstance(actual, tuple), field.name
            assert len(actual) == len(expected), field.name
            for a, e in zip(actual, expected):
                _close(field.name, a, e)
        else:
            _close(field.name, actual, expected)


@pytest.mark.parametrize("kind", sorted(BATCHES))
def test_measure_all_matches_frozen_serial_measurement(kind):
    batch, modulation, rate = BATCHES[kind]()
    eyes = EyeDiagramBatch(batch, rate, modulation=modulation)
    phases = eyes.best_phase_indices()
    measured = eyes.measure_all()
    for row in range(batch.n_scenarios):
        oracle = _OldEyeDiagram(eyes.traces[row], rate, modulation)
        assert oracle.best_phase_index() == phases[row]
        _assert_matches_oracle(measured[row],
                               oracle.measure_at(int(phases[row])))
    # The edge rows really are edge cases.
    assert measured[-2].eye_height == -math.inf
    if kind == "nrz":
        assert oracle.crossing_times_ui().size == 0
        assert math.isfinite(measured[-1].eye_height)
    else:
        assert measured[-1].eye_height == -math.inf


@pytest.mark.parametrize("kind", sorted(BATCHES))
def test_measure_at_any_phase_matches_frozen_serial_measurement(kind):
    batch, modulation, rate = BATCHES[kind]()
    eyes = EyeDiagramBatch(batch, rate, modulation=modulation)
    rng = np.random.default_rng(5)
    phases = rng.integers(0, eyes.samples_per_ui, batch.n_scenarios)
    measured = eyes.measure_at(phases)
    for row, phase in enumerate(phases.tolist()):
        oracle = _OldEyeDiagram(eyes.traces[row], rate, modulation)
        _assert_matches_oracle(measured[row], oracle.measure_at(phase))


@pytest.mark.parametrize("kind", sorted(BATCHES))
def test_serial_eye_matches_frozen_serial_measurement(kind):
    batch, modulation, rate = BATCHES[kind]()
    for row in range(batch.n_scenarios):
        eye = EyeDiagram(batch[row], rate, modulation=modulation)
        oracle = _OldEyeDiagram(eye.traces, rate, modulation)
        _assert_matches_oracle(eye.measure(), oracle.measure_at(
            oracle.best_phase_index()))
        for e in range(modulation.n_eyes):
            np.testing.assert_allclose(eye.crossing_times_ui(e),
                                       oracle.crossing_times_ui(e),
                                       rtol=1e-12, atol=0.0)


def test_measure_at_rejects_wrong_phase_count():
    batch, modulation, rate = _nrz_batch()
    eyes = EyeDiagramBatch(batch, rate, modulation=modulation)
    with pytest.raises(ValueError, match="need one phase per row"):
        eyes.measure_at([0])
