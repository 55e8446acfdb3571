"""Frozen oracle for the backplane convolution.

``_old_process`` is a verbatim copy of ``BackplaneChannel.process`` from
before it convolved with only the first ``n`` taps: it convolves every
row with the whole synthesized impulse (at least 4x the signal length)
and then keeps ``[..., :n]``.  Output sample ``k < n`` only sees taps
``0..k``, so the truncated stage must match it to round-off over
lengths, delay modes, 1-D and batch inputs on the canonical
4800-sample input, and exactly on a short input (2^13 grid floor,
where the whole impulse is kept).
"""

import numpy as np
import pytest

from repro.channel import BackplaneChannel
from repro.signals import Waveform, WaveformBatch

SAMPLE_RATE = 80e9


def _old_process(self, wave):
    """The pre-truncation ``BackplaneChannel.process``, verbatim."""
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

    h = h_t if data.ndim == 1 else h_t[np.newaxis, :]
    filtered = fftconvolve(deviation, h, axes=-1)[..., :n]
    dc_gain = float(np.sum(h_t))
    out = filtered + x0 * dc_gain
    return wave.with_data(out)


def _noisy_nrz(n_rows, n_samples, seed):
    """Random 8-samples-per-bit NRZ levels plus noise, one row each."""
    rng = np.random.default_rng(seed)
    n_bits = -(-n_samples // 8)
    levels = (rng.integers(0, 2, (n_rows, n_bits)) - 0.5) * 0.4
    data = np.repeat(levels, 8, axis=1)[:, :n_samples]
    return data + rng.normal(0.0, 5e-3, data.shape)


@pytest.mark.parametrize("length_m", [0.05, 0.5, 1.0])
@pytest.mark.parametrize("include_delay", [False, True])
@pytest.mark.parametrize("n_samples", [1000, 4800])
@pytest.mark.parametrize("batched", [False, True])
def test_truncated_convolution_matches_full_impulse(length_m, include_delay,
                                                    n_samples, batched):
    channel = BackplaneChannel(length_m, include_delay=include_delay)
    data = _noisy_nrz(4, n_samples, seed=n_samples)
    wave = (WaveformBatch(data, SAMPLE_RATE) if batched
            else Waveform(data[0], SAMPLE_RATE))
    expected = _old_process(channel, wave).data
    actual = channel.process(wave).data
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected)) <= 1e-12
    if n_samples <= 2048:
        # At the 2^13 grid floor the whole impulse is still convolved.
        np.testing.assert_array_equal(actual, expected)


@pytest.mark.parametrize("length_m", [0.05, 1.0])
def test_step_response_is_idle_level_plus_running_impulse_sum(length_m):
    """An input idling at ``x0`` that steps by ``step`` at sample ``s``
    comes out as ``x0 * G + step * sum(h[:k - s + 1])``, where ``G`` is
    the sum of the *full* synthesized impulse: the idle level is the one
    the link settled to before time zero, and the output settles toward
    ``(x0 + step) * G``.  The impulse tail beyond ``n`` is far above
    round-off here, so a ``G`` taken over the first ``n`` taps fails."""
    channel = BackplaneChannel(length_m)
    n, s, x0, step = 1000, 200, -0.15, 0.3
    data = np.full(n, x0)
    data[s:] += step
    out = channel.process(Waveform(data, SAMPLE_RATE)).data
    h_full = channel._impulse_response(1.0 / SAMPLE_RATE, min_length=n)
    gain = np.sum(h_full)
    assert abs(x0 * (gain - np.sum(h_full[:n]))) > 1e-6
    expected = np.full(n, x0 * gain)
    expected[s:] += step * np.cumsum(h_full[: n - s])
    assert np.max(np.abs(out - expected)) <= 1e-12
    assert abs(gain - 1.0) <= 1e-12
