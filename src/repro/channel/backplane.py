"""Lossy backplane/PCB-trace channel model.

The paper's motivation (Section I) is that "serial interconnect signals
show a lot of high frequency attenuation, skin loss after propagation
through long PCB trace on the backplane".  The experiments of Figs 15
and 16 need exactly that: a low-pass channel whose loss at the 5 GHz
Nyquist frequency visibly closes an unequalized 10 Gb/s eye.

The model is the standard parametric stripline attenuation

    alpha(f) = k_skin * sqrt(f) + k_dielectric * f      [dB/m]

applied over a trace length, with a *causal* phase response: bulk
propagation delay plus the minimum-phase component implied by the loss
magnitude (computed with the real-cepstrum method).  Causality matters —
a zero-phase low-pass channel would smear energy symmetrically into
pre-cursor ISI that a real trace does not produce.

The paper never specifies its backplane; :data:`FR4_DEFAULT` is a
representative FR-4 stripline (loss tangent ~0.02) and the default
20-inch (0.5 m) length gives ~13 dB loss at 5 GHz — a typical mid-2000s
switch-fabric path.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..lti.blocks import Block
from ..signals.waveform import Waveform

__all__ = ["ChannelParameters", "FR4_DEFAULT", "BackplaneChannel"]

_SPEED_OF_LIGHT = 2.998e8
#: Shortest impulse-synthesis grid (samples).
_MIN_GRID = 1 << 13


@dataclasses.dataclass(frozen=True)
class ChannelParameters:
    """Per-metre loss model of a PCB trace.

    Parameters
    ----------
    k_skin:
        Skin-effect (conductor) loss coefficient in dB/(m*sqrt(Hz)).
    k_dielectric:
        Dielectric loss coefficient in dB/(m*Hz).
    dielectric_constant:
        Effective relative permittivity (sets propagation velocity).
    """

    k_skin: float
    k_dielectric: float
    dielectric_constant: float = 4.2

    def __post_init__(self) -> None:
        if self.k_skin < 0 or self.k_dielectric < 0:
            raise ValueError("loss coefficients must be non-negative")
        if self.dielectric_constant < 1.0:
            raise ValueError(
                f"dielectric constant must be >= 1, got {self.dielectric_constant}"
            )

    def attenuation_db_per_m(self, freq_hz: np.ndarray) -> np.ndarray:
        """alpha(f) in dB/m at the given frequencies (>= 0)."""
        f = np.abs(np.asarray(freq_hz, dtype=float))
        return self.k_skin * np.sqrt(f) + self.k_dielectric * f

    @property
    def velocity(self) -> float:
        """Propagation velocity c/sqrt(eps_r) in m/s."""
        return _SPEED_OF_LIGHT / math.sqrt(self.dielectric_constant)


#: Representative FR-4 stripline: ~2.5 dB/m at 1 GHz dielectric-dominated
#: loss, modest skin term — 0.5 m gives ~13 dB at 5 GHz.
FR4_DEFAULT = ChannelParameters(
    k_skin=2.5e-5,          # dB/(m*sqrt(Hz))  -> 0.8 dB/m/sqrt(GHz)
    k_dielectric=5.0e-9,    # dB/(m*Hz)        -> 5 dB/m/GHz
    dielectric_constant=4.2,
)


@dataclasses.dataclass
class BackplaneChannel(Block):
    """A length of lossy trace, usable directly as a pipeline block.

    Parameters
    ----------
    length_m:
        Physical trace length in metres.
    params:
        Loss model; defaults to :data:`FR4_DEFAULT`.
    include_delay:
        When False the bulk propagation delay is removed (keeps eyes
        aligned with the transmit clock in benches); the dispersive
        minimum-phase component is always kept.
    """

    length_m: float
    params: ChannelParameters = FR4_DEFAULT
    include_delay: bool = False
    name: str = "backplane"

    def __post_init__(self) -> None:
        if self.length_m < 0:
            raise ValueError(f"length must be >= 0, got {self.length_m}")

    # -- frequency-domain description ---------------------------------------
    def loss_db(self, freq_hz: np.ndarray) -> np.ndarray:
        """Total insertion loss (positive dB) at the given frequencies."""
        return self.params.attenuation_db_per_m(freq_hz) * self.length_m

    def s21_db(self, freq_hz: np.ndarray) -> np.ndarray:
        """|S21| in dB (negative-going)."""
        return -self.loss_db(freq_hz)

    def magnitude(self, freq_hz: np.ndarray) -> np.ndarray:
        """Linear |H(f)|."""
        return 10.0 ** (-self.loss_db(freq_hz) / 20.0)

    def nyquist_loss_db(self, bit_rate: float) -> float:
        """Loss at the NRZ Nyquist frequency (bit_rate / 2)."""
        if bit_rate <= 0:
            raise ValueError(f"bit_rate must be positive, got {bit_rate}")
        return float(self.loss_db(np.array([bit_rate / 2.0]))[0])

    @property
    def propagation_delay(self) -> float:
        """Bulk delay length/velocity in seconds."""
        return self.length_m / self.params.velocity

    # -- time-domain application -------------------------------------------
    def frequency_response(self, freq_hz: np.ndarray,
                           n_fft: int | None = None,
                           sample_rate: float | None = None) -> np.ndarray:
        """Complex H(f) on an arbitrary grid: |H| plus causal phase.

        When ``n_fft``/``sample_rate`` are given the minimum-phase
        component is computed on that FFT grid (as used by
        :meth:`process`); otherwise only the bulk-delay phase is applied,
        which is adequate for plotting magnitude/delay.
        """
        freq_hz = np.asarray(freq_hz, dtype=float)
        mag = self.magnitude(freq_hz)
        phase = np.zeros_like(freq_hz)
        if self.include_delay:
            phase = phase - 2.0 * np.pi * freq_hz * self.propagation_delay
        del n_fft, sample_rate
        return mag * np.exp(1j * phase)

    def process(self, wave: Waveform) -> Waveform:
        """Pass a waveform through the channel (linear convolution).

        The channel's minimum-phase impulse response is synthesized on a
        long FFT grid and applied by *linear* convolution, so the long
        skin-effect tail never wraps around.  The link is assumed to
        have idled at the waveform's first value before time zero
        (steady state), so no artificial start-up step appears.

        A :class:`~repro.signals.batch.WaveformBatch` is convolved along
        its sample axis in one pass, each row idling at its own first
        value.

        Only the first ``n`` taps of the impulse are convolved: output
        sample ``k < n`` of a causal convolution depends on taps
        ``0..k`` alone, so the longer taps never reach the kept output
        and dropping them is exact.  The idle level is different: the
        link has settled through the *whole* impulse before time zero,
        so ``dc_gain`` is the sum of the full synthesized impulse.

        Records short enough for the synthesis grid to sit at its
        ``2^13`` floor (``n <= 2^11``) keep the whole, then at most
        8192-tap, impulse.  That keeps their results bit-identical to
        the full convolution: the statistical eye's ~900-sample pulse
        responses feed a threshold-plateau pick that can flip on an
        ulp-level change of the pulse.
        """
        if self.length_m == 0:
            return wave
        data = wave.data
        n = data.shape[-1]
        if n == 0:
            return wave
        x0 = data[..., :1]
        deviation = data - x0

        h_t = self._impulse_response(wave.dt, min_length=n)
        from scipy.signal import fftconvolve

        taps = h_t if len(h_t) == _MIN_GRID else h_t[:n]
        h = taps if data.ndim == 1 else taps[np.newaxis, :]
        filtered = fftconvolve(deviation, h, axes=-1)[..., :n]
        dc_gain = float(np.sum(h_t))
        out = filtered + x0 * dc_gain
        return wave.with_data(out)

    def _impulse_response(self, dt: float, min_length: int) -> np.ndarray:
        """Discrete minimum-phase impulse response of the channel.

        Synthesized on a power-of-two grid at least 4x the signal length
        (and >= 2^13 samples) so the cepstral construction resolves the
        loss curve and the tail decays inside the grid.
        """
        n_fft = max(_MIN_GRID,
                    1 << (int(math.ceil(math.log2(max(min_length, 2)))) + 2))
        freq = np.fft.rfftfreq(n_fft, d=dt)
        h = self._causal_response(freq, n_fft)
        return np.fft.irfft(h, n=n_fft)

    def _causal_response(self, freq: np.ndarray, n_fft: int) -> np.ndarray:
        """Minimum-phase H on an rfft grid via the real-cepstrum method.

        The folded cepstrum of log|H| yields the unique minimum-phase
        spectrum with that magnitude; an optional linear-phase bulk delay
        is layered on top.
        """
        mag = np.maximum(self.magnitude(freq), 1e-12)
        log_mag_half = np.log(mag)
        # Build the full (hermitian-symmetric) log-magnitude spectrum.
        log_mag_full = np.concatenate([log_mag_half,
                                       log_mag_half[-2:0:-1]])
        cepstrum = np.fft.ifft(log_mag_full).real
        folded = np.zeros_like(cepstrum)
        half = n_fft // 2
        folded[0] = cepstrum[0]
        folded[1:half] = 2.0 * cepstrum[1:half]
        folded[half] = cepstrum[half]
        log_h_min = np.fft.fft(folded)
        h_full = np.exp(log_h_min)
        h = h_full[: len(freq)]
        if self.include_delay:
            h = h * np.exp(-2j * np.pi * freq * self.propagation_delay)
        return h

    # -- convenience ---------------------------------------------------------
    def scaled_to_loss(self, target_db: float, at_hz: float
                       ) -> "BackplaneChannel":
        """A channel of the length that produces ``target_db`` at ``at_hz``.

        Benches use this to dial in "a channel with N dB of Nyquist loss"
        without caring about physical length.
        """
        if target_db < 0:
            raise ValueError(f"target loss must be >= 0, got {target_db}")
        per_m = float(self.params.attenuation_db_per_m(np.array([at_hz]))[0])
        if per_m == 0:
            raise ValueError("channel parameters give zero loss; cannot scale")
        return dataclasses.replace(self, length_m=target_db / per_m)
