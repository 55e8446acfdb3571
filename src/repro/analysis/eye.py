"""Eye-diagram construction and measurement.

The sampling-oscilloscope substitute: fold a waveform at the unit
interval, locate the optimum sampling phase, and extract the metrics the
paper's Figs 14-16 are read by eye — vertical opening (eye height),
horizontal opening (eye width), crossing jitter and the Q-factor that
connects the eye to a bit-error ratio.

Multi-level signals (:class:`~repro.signals.modulation.Modulation`) fold
into ``L - 1`` stacked sub-eyes; every vertical metric is then computed
per sub-eye and the scalar fields of :class:`EyeMeasurement` report the
*worst* sub-eye (the one that limits the link), with the per-eye values
kept alongside.  For the default two-level NRZ the decision threshold is
exactly 0 V (differential signaling) and everything reduces to the
classic single-eye measurement, bit for bit.  For ``L > 2`` thresholds
are estimated from the folded traces themselves (min/max swing fit plus
one Lloyd refinement of the level clusters), since the received swing is
generally unknown after a lossy channel.

All horizontal quantities can be read in seconds or unit intervals (UI).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..signals.batch import WaveformBatch
from ..signals.modulation import Modulation, Nrz
from ..signals.waveform import Waveform

__all__ = ["EyeMeasurement", "EyeDiagram", "EyeDiagramBatch",
           "measure_eye_batch"]


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


@dataclasses.dataclass(frozen=True)
class EyeMeasurement:
    """The numbers a scope's eye-mask panel reports.

    All voltages in volts, times in seconds unless suffixed ``_ui``.
    For multi-level signals the scalar fields report the *worst* of the
    ``L - 1`` sub-eyes (index :attr:`worst_eye`) and the per-eye values
    are kept in the ``*_by_eye``-style tuples; ``level_one`` /
    ``level_zero`` are the outermost level means and :attr:`levels`
    holds all of them.  For NRZ (the default) there is a single eye and
    the scalars are the classic measurement.
    """

    eye_height: float
    eye_width_ui: float
    eye_amplitude: float
    level_one: float
    level_zero: float
    jitter_rms: float
    jitter_pp: float
    q_factor: float
    sampling_phase_ui: float
    n_ui: int
    n_levels: int = 2
    worst_eye: int = 0
    eye_heights: Optional[Tuple[float, ...]] = None
    eye_widths_ui: Optional[Tuple[float, ...]] = None
    eye_jitter_rms_ui: Optional[Tuple[float, ...]] = None
    eye_jitter_pp_ui: Optional[Tuple[float, ...]] = None
    q_factors: Optional[Tuple[float, ...]] = None
    levels: Optional[Tuple[float, ...]] = None

    @property
    def n_eyes(self) -> int:
        """Number of vertical sub-eyes (1 for NRZ, 3 for PAM4)."""
        return self.n_levels - 1

    @property
    def eye_opening_fraction(self) -> float:
        """Vertical opening relative to the eye amplitude (0..1)."""
        if self.eye_amplitude <= 0:
            return 0.0
        return max(0.0, self.eye_height) / self.eye_amplitude

    @property
    def is_open(self) -> bool:
        """True when both height and width are positive (every sub-eye:
        the scalars are the worst one)."""
        return self.eye_height > 0 and self.eye_width_ui > 0


class EyeDiagram:
    """A waveform folded at the unit interval.

    Every measurement is a one-row call into :class:`EyeDiagramBatch`,
    so a waveform measures exactly like the same row of a batch.

    Parameters
    ----------
    wave:
        The waveform to fold.  Its sample rate must be an integer
        multiple of ``bit_rate`` (the encoder guarantees this); other
        rates are resampled automatically.
    bit_rate:
        The symbol (UI) rate defining the unit interval.
    skip_ui:
        Unit intervals dropped from the start (filter settling).  The
        default drops 8 UI.
    modulation:
        Level alphabet of the signal; ``None`` means two-level NRZ.
    """

    def __init__(self, wave: Waveform, bit_rate: float, skip_ui: int = 8,
                 modulation: Optional[Modulation] = None):
        if bit_rate <= 0:
            raise ValueError(f"bit_rate must be positive, got {bit_rate}")
        samples_per_ui = wave.sample_rate / bit_rate
        if abs(samples_per_ui - round(samples_per_ui)) > 1e-6:
            target = bit_rate * max(8, int(math.ceil(samples_per_ui)))
            wave = wave.resampled(target)
        self._batch = EyeDiagramBatch(
            WaveformBatch(wave.data[np.newaxis], wave.sample_rate),
            bit_rate, skip_ui=skip_ui, modulation=modulation)
        self.samples_per_ui = self._batch.samples_per_ui
        self.bit_rate = bit_rate
        self.unit_interval = self._batch.unit_interval
        self.modulation = self._batch.modulation
        self.traces = self._batch.traces[0]
        self.n_ui = self._batch.n_ui

    # -- folded views ---------------------------------------------------------
    def two_ui_traces(self) -> np.ndarray:
        """Traces spanning two UI (the customary scope display window)."""
        flat = self.traces.reshape(-1)
        n_pairs = self.n_ui - 1
        window = 2 * self.samples_per_ui
        return np.stack([flat[i * self.samples_per_ui:
                              i * self.samples_per_ui + window]
                         for i in range(n_pairs)])

    def phase_axis_ui(self) -> np.ndarray:
        """Phase positions (0..1) of the samples within a UI."""
        return (np.arange(self.samples_per_ui) + 0.5) / self.samples_per_ui

    # -- one-row views of the batch measurements ------------------------------
    def decision_thresholds(self) -> np.ndarray:
        """Per-sub-eye decision thresholds, in volts (exactly ``[0.0]``
        for NRZ; see :meth:`EyeDiagramBatch.decision_thresholds`)."""
        return self._batch.decision_thresholds()[0]

    def best_phase_index(self) -> int:
        """The sampling phase maximizing the (worst-sub-eye) opening."""
        return int(self._batch.best_phase_indices()[0])

    def crossing_times_ui(self, eye: Optional[int] = None) -> np.ndarray:
        """Threshold-crossing positions of all edges, in UI modulo 1
        (see :meth:`EyeDiagramBatch.crossing_times_ui`)."""
        return self._batch.crossing_times_ui(eye)[0]

    def jitter_rms_ui(self, eye: Optional[int] = None) -> float:
        """RMS crossing jitter in UI (middle sub-eye by default)."""
        return float(self._batch.jitter_rms_ui(eye)[0])

    def jitter_pp_ui(self, eye: Optional[int] = None) -> float:
        """Peak-to-peak crossing jitter in UI (middle eye by default)."""
        return float(self._batch.jitter_pp_ui(eye)[0])

    def eye_width_ui(self, eye: Optional[int] = None) -> float:
        """Horizontal opening: 1 UI minus the peak-to-peak jitter."""
        return float(self._batch.eye_width_ui(eye)[0])

    def measure(self) -> EyeMeasurement:
        """Full scope-style measurement at the optimum sampling phase."""
        return self.measure_at(self.best_phase_index())

    def measure_at(self, phase: int) -> EyeMeasurement:
        """Scope-style measurement at a given sampling-phase index."""
        return self._batch.measure_at([phase])[0]

    @classmethod
    def measure_waveform(cls, wave: Waveform, bit_rate: float,
                         skip_ui: int = 8,
                         max_ui: Optional[int] = None,
                         modulation: Optional[Modulation] = None
                         ) -> EyeMeasurement:
        """One-call fold-and-measure."""
        eye = cls(wave, bit_rate, skip_ui=skip_ui, modulation=modulation)
        del max_ui  # reserved for future windowed measurement
        return eye.measure()


class EyeDiagramBatch:
    """Every row of a :class:`WaveformBatch` folded at the unit interval.

    The fold, the per-phase vertical-opening search and the measurement
    itself run vectorized across all scenarios at once:
    :meth:`measure_at` gathers each row's sampling-phase column, splits
    it into level clusters and reduces every cluster and crossing
    distribution in one pass.  :class:`EyeDiagram` is a one-row call
    into this class.  Multi-level batches estimate decision thresholds
    per row from that row's own traces.

    The batch sample rate must be an integer multiple of ``bit_rate``
    (the encoder guarantees this; batches are never resampled).
    """

    def __init__(self, batch: WaveformBatch, bit_rate: float,
                 skip_ui: int = 8,
                 modulation: Optional[Modulation] = None):
        if bit_rate <= 0:
            raise ValueError(f"bit_rate must be positive, got {bit_rate}")
        if skip_ui < 0:
            raise ValueError(f"skip_ui must be >= 0, got {skip_ui}")
        samples_per_ui = batch.sample_rate / bit_rate
        if abs(samples_per_ui - round(samples_per_ui)) > 1e-6:
            raise ValueError(
                "batch sample rate must be an integer multiple of the bit "
                f"rate, got {samples_per_ui} samples/UI"
            )
        self.samples_per_ui = int(round(samples_per_ui))
        if self.samples_per_ui < 4:
            raise ValueError(
                "need at least 4 samples per UI for eye analysis, got "
                f"{self.samples_per_ui}"
            )
        self.bit_rate = bit_rate
        self.unit_interval = 1.0 / bit_rate
        self.modulation = Nrz() if modulation is None else modulation

        data = batch.data[:, skip_ui * self.samples_per_ui:]
        n_ui = data.shape[1] // self.samples_per_ui
        if n_ui < 8:
            raise ValueError(
                f"too short for an eye: {n_ui} UI after skipping"
            )
        self.traces = data[:, : n_ui * self.samples_per_ui].reshape(
            batch.n_scenarios, n_ui, self.samples_per_ui
        )
        self.n_ui = n_ui
        self.n_scenarios = batch.n_scenarios
        self._thresholds: Optional[np.ndarray] = None
        self._crossings: Dict[int, Tuple[np.ndarray, np.ndarray,
                                         np.ndarray]] = {}
        self._jitter: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    def decision_thresholds(self) -> np.ndarray:
        """Per-row decision thresholds, shape ``(n_scenarios, L - 1)``.

        Exactly zero for two-level signaling (differential NRZ slices
        at zero by construction); estimated per row from that row's
        folded traces for ``L > 2`` (see :func:`_estimate_thresholds`).
        """
        if self._thresholds is None:
            if self.modulation.n_levels == 2:
                self._thresholds = np.zeros((self.n_scenarios, 1))
            else:
                self._thresholds = np.stack([
                    _estimate_thresholds(self.traces[i], self.modulation)
                    for i in range(self.n_scenarios)
                ])
        return self._thresholds

    def eye_heights(self) -> np.ndarray:
        """Worst-sub-eye vertical opening per (scenario, phase), shape
        ``(n_scenarios, samples_per_ui)`` — one vectorized pass.

        Sub-eye ``e`` opens between level clusters ``e`` and ``e + 1``:
        ``min(upper cluster) - max(lower cluster)`` — negative when that
        sub-eye is closed, ``-inf`` when a cluster is empty.
        """
        if self.modulation.n_levels == 2:
            # Binary fast path: threshold exactly 0, single sub-eye.
            ones_mask = self.traces > 0
            ones_min = np.min(np.where(ones_mask, self.traces, np.inf),
                              axis=1)
            zeros_max = np.max(np.where(ones_mask, -np.inf, self.traces),
                               axis=1)
            valid = ones_mask.any(axis=1) & (~ones_mask).any(axis=1)
            return np.where(valid, ones_min - zeros_max, -np.inf)
        thresholds = self.decision_thresholds()
        counts = np.zeros(self.traces.shape, dtype=np.int8)
        for e in range(self.modulation.n_eyes):
            counts += self.traces > thresholds[:, e, None, None]
        worst: Optional[np.ndarray] = None
        for e in range(self.modulation.n_eyes):
            upper_mask = counts == e + 1
            lower_mask = counts == e
            upper_min = np.min(np.where(upper_mask, self.traces, np.inf),
                               axis=1)
            lower_max = np.max(np.where(lower_mask, self.traces, -np.inf),
                               axis=1)
            valid = upper_mask.any(axis=1) & lower_mask.any(axis=1)
            height = np.where(valid, upper_min - lower_max, -np.inf)
            worst = height if worst is None else np.minimum(worst, height)
        return worst

    def best_phase_indices(self) -> np.ndarray:
        """Per-scenario sampling phase maximizing the vertical opening."""
        return np.argmax(self.eye_heights(), axis=1)

    # -- horizontal measurements (segment reductions over all rows) --------
    def _eye_index(self, eye: Optional[int]) -> int:
        if eye is None:
            return self.modulation.center_threshold_index
        if not 0 <= eye < self.modulation.n_eyes:
            raise ValueError(
                f"eye must be in 0..{self.modulation.n_eyes - 1}, got {eye}"
            )
        return int(eye)

    def _crossing_segments(self, e: int
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Centered crossings of sub-eye ``e``: ``(rows, times, counts)``.

        ``times`` holds every row's crossing positions back to back in
        row order (``rows`` names the row of each, ``counts`` the
        segment lengths).  Sign changes and bracketing-sample
        interpolation run as one pass over the batch.

        Crossing positions live on the UI circle: a cluster straddling
        the 0/1 boundary (e.g. crossings at 0.02 and 0.98 UI) wraps, and
        any linear statistic of the raw values — in particular the
        median, whose value lands mid-range for a balanced straddling
        cluster — fails to detect it, reporting ~1 UI of peak-to-peak
        jitter for a clean eye.  The circular mean always points at the
        cluster, so each row's wrap seam is shifted half a UI away from
        its own circular mean.
        """
        if e in self._crossings:
            return self._crossings[e]
        n = self.n_scenarios
        flat = self.traces.reshape(n, -1)
        thresholds = self.decision_thresholds()[:, e]
        if np.any(thresholds != 0.0):
            flat = flat - thresholds[:, None]
        sign = np.sign(flat)
        sign[sign == 0] = 1
        rows, cols = np.nonzero(np.diff(sign, axis=1) != 0)
        v0 = flat[rows, cols]
        v1 = flat[rows, cols + 1]
        frac = v0 / (v0 - v1)
        crossings = np.mod((cols + frac) / self.samples_per_ui, 1.0)
        counts = np.bincount(rows, minlength=n)
        size = np.maximum(counts, 1)
        angles = 2.0 * np.pi * crossings
        center = np.arctan2(np.bincount(rows, np.sin(angles), n) / size,
                            np.bincount(rows, np.cos(angles), n) / size)
        center = np.mod(center / (2.0 * np.pi), 1.0)[rows]
        times = np.mod(crossings - center + 0.5, 1.0) - 0.5 + center
        self._crossings[e] = (rows, times, counts)
        return self._crossings[e]

    def crossing_times_ui(self, eye: Optional[int] = None
                          ) -> List[np.ndarray]:
        """Per-scenario threshold-crossing positions in UI modulo 1.

        Linear interpolation between the bracketing samples, each row's
        cluster centered on its circular mean; the distribution's spread
        is the crossing jitter.  ``eye`` selects the sub-eye threshold;
        the default is the middle eye (the zero crossing for NRZ — the
        edge the bang-bang CDR locks to).
        """
        _, times, counts = self._crossing_segments(self._eye_index(eye))
        return np.split(times, np.cumsum(counts)[:-1])

    def _horizontal_metrics(self, eye: Optional[int] = None
                            ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row (RMS, peak-to-peak) crossing jitter, reduced per row
        segment of the cached crossings (zero below two crossings)."""
        e = self._eye_index(eye)
        if e in self._jitter:
            return self._jitter[e]
        n = self.n_scenarios
        rows, times, counts = self._crossing_segments(e)
        size = np.maximum(counts, 1)
        mean = np.bincount(rows, times, n) / size
        rms = np.sqrt(np.bincount(rows, (times - mean[rows]) ** 2, n) / size)
        pp = np.zeros(n)
        present = counts > 0
        if np.any(present):
            starts = (np.cumsum(counts) - counts)[present]
            pp[present] = (np.maximum.reduceat(times, starts)
                           - np.minimum.reduceat(times, starts))
        self._jitter[e] = (rms, pp)
        return rms, pp

    def jitter_rms_ui(self, eye: Optional[int] = None) -> np.ndarray:
        """Per-row RMS crossing jitter in UI (middle eye by default)."""
        return self._horizontal_metrics(eye)[0]

    def jitter_pp_ui(self, eye: Optional[int] = None) -> np.ndarray:
        """Per-row peak-to-peak crossing jitter in UI."""
        return self._horizontal_metrics(eye)[1]

    def eye_width_ui(self, eye: Optional[int] = None) -> np.ndarray:
        """Per-row horizontal opening: 1 UI minus the p-p jitter."""
        return np.maximum(0.0, 1.0 - self._horizontal_metrics(eye)[1])

    # -- composite measurement ------------------------------------------------
    def measure_at(self, phases: Sequence[int]) -> List[EyeMeasurement]:
        """One :class:`EyeMeasurement` per row, row ``i`` sampled at
        phase index ``phases[i]``.

        Each row's sampling column is split into level clusters by that
        row's thresholds; cluster extremes give the per-sub-eye heights,
        cluster means and sigmas the levels and Q.  A row with an empty
        level cluster reports a closed eye (``eye_height = -inf``).
        """
        phases = np.asarray(phases, dtype=np.intp)
        if phases.shape != (self.n_scenarios,):
            raise ValueError(
                f"need one phase per row ({self.n_scenarios}), got shape "
                f"{phases.shape}"
            )
        n, n_levels = self.n_scenarios, self.modulation.n_levels
        column = self.traces[np.arange(n), :, phases]
        above = column[:, :, None] > self.decision_thresholds()[:, None, :]
        # Levels are ordered by value, so sub-eye e opens between the
        # lowest sample above threshold e and the highest one below it.
        heights = (
            np.min(np.where(above, column[:, :, None], np.inf), axis=1)
            - np.max(np.where(above, -np.inf, column[:, :, None]), axis=1))
        # Per-(row, level) cluster moments as one segment reduction.
        label = (np.arange(n)[:, None] * n_levels
                 + above.sum(axis=2)).ravel()
        counts = np.bincount(label, minlength=n * n_levels)
        with np.errstate(invalid="ignore", divide="ignore"):
            means = np.bincount(label, column.ravel(), n * n_levels) / counts
            deviation = (column.ravel() - means[label]) ** 2
            sigmas = np.sqrt(np.bincount(label, deviation, n * n_levels)
                             / counts)
            counts, means, sigmas = (a.reshape(n, n_levels)
                                     for a in (counts, means, sigmas))
            spread = sigmas[:, 1:] + sigmas[:, :-1]
            q_factors = np.where(spread > 0,
                                 (means[:, 1:] - means[:, :-1]) / spread,
                                 np.inf)
        eyes = range(self.modulation.n_eyes)
        rms = np.stack([self.jitter_rms_ui(e) for e in eyes], axis=1)
        pp = np.stack([self.jitter_pp_ui(e) for e in eyes], axis=1)
        widths = np.maximum(0.0, 1.0 - pp)
        degenerate = np.any(counts == 0, axis=1).tolist()
        heights, widths, rms, pp, q_factors, means = (
            a.tolist() for a in (heights, widths, rms, pp, q_factors, means))
        out: List[EyeMeasurement] = []
        for row, phase in enumerate(phases.tolist()):
            if degenerate[row]:
                # Some level never observed at this phase: closed eye.
                level = float(self.traces[row].mean())
                out.append(EyeMeasurement(
                    eye_height=-float("inf"), eye_width_ui=0.0,
                    eye_amplitude=0.0, level_one=level, level_zero=level,
                    jitter_rms=0.0, jitter_pp=0.0, q_factor=0.0,
                    sampling_phase_ui=phase / self.samples_per_ui,
                    n_ui=self.n_ui, n_levels=n_levels,
                ))
                continue
            row_heights, row_means = heights[row], means[row]
            out.append(EyeMeasurement(
                eye_height=min(row_heights),
                eye_width_ui=min(widths[row]),
                eye_amplitude=row_means[-1] - row_means[0],
                level_one=row_means[-1],
                level_zero=row_means[0],
                jitter_rms=max(rms[row]) * self.unit_interval,
                jitter_pp=max(pp[row]) * self.unit_interval,
                q_factor=min(q_factors[row]),
                sampling_phase_ui=(phase + 0.5) / self.samples_per_ui,
                n_ui=self.n_ui,
                n_levels=n_levels,
                worst_eye=row_heights.index(min(row_heights)),
                eye_heights=tuple(row_heights),
                eye_widths_ui=tuple(widths[row]),
                eye_jitter_rms_ui=tuple(rms[row]),
                eye_jitter_pp_ui=tuple(pp[row]),
                q_factors=tuple(q_factors[row]),
                levels=tuple(row_means),
            ))
        return out

    def measure_all(self) -> List[EyeMeasurement]:
        """One :class:`EyeMeasurement` per scenario, each at its
        optimum sampling phase."""
        return self.measure_at(self.best_phase_indices())


def measure_eye_batch(batch: WaveformBatch, bit_rate: float,
                      skip_ui: int = 8,
                      modulation: Optional[Modulation] = None
                      ) -> List[EyeMeasurement]:
    """One-call batched fold-and-measure: one measurement per scenario.

    Equivalent to ``[EyeDiagram.measure_waveform(row, bit_rate, skip_ui,
    modulation=modulation) for row in batch.rows()]`` but with the
    folding and phase search vectorized across the whole batch.
    """
    return EyeDiagramBatch(batch, bit_rate, skip_ui=skip_ui,
                           modulation=modulation).measure_all()
