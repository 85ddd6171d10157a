"""Link-level metrics: received SNR, Shannon rate, and energy efficiency."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

_LN2 = math.log(2.0)


def dbm_to_watts(p_dbm: float) -> float:
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class RfConfig:
    """Transmit power, receiver bandwidth and noise power spectral density.

    noise_psd_dbm_hz is a density in dBm/Hz; the total noise power follows by
    adding 10*log10(bandwidth). static_power_w is an optional additive term
    in the energy-efficiency denominator and defaults to zero.
    """

    tx_power_dbm: float
    bandwidth_hz: float
    noise_psd_dbm_hz: float
    static_power_w: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.tx_power_dbm, self.bandwidth_hz,
                                       self.noise_psd_dbm_hz, self.static_power_w))):
            raise ValueError("RF parameters must be finite")
        if self.bandwidth_hz <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth_hz}")
        if self.static_power_w < 0:
            raise ValueError(f"static power must be nonnegative, got {self.static_power_w}")


def noise_power_dbm(rf: RfConfig) -> float:
    return rf.noise_psd_dbm_hz + 10.0 * math.log10(rf.bandwidth_hz)


def noise_power_watts(rf: RfConfig) -> float:
    return dbm_to_watts(noise_power_dbm(rf))


def snr_linear(h_eff, rf: RfConfig):
    """Received SNR for a channel gain or an array of them."""
    return dbm_to_watts(rf.tx_power_dbm) * np.abs(h_eff) ** 2 / noise_power_watts(rf)


def snr_db(h_eff, rf: RfConfig):
    # a zero channel gives -inf dB, without numpy's divide-by-zero warning
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(snr_linear(h_eff, rf))


def rate_bps(h_eff, rf: RfConfig):
    # log1p keeps precision in the deep-noise regime where SNR << eps
    return rf.bandwidth_hz * np.log1p(snr_linear(h_eff, rf)) / _LN2


def energy_efficiency(rate, tx_power_dbm: float, static_power_w: float = 0.0):
    """Achievable rate divided by consumed power, in bits per joule."""
    power_w = dbm_to_watts(tx_power_dbm) + static_power_w
    if not power_w > 0:
        raise InvalidInput(f"total power must be positive, got {power_w} W")
    return rate / power_w


def link_columns(h_eff, rf: RfConfig) -> np.ndarray:
    """(h_eff_mag, snr_db, rate_bps, ee_bits_per_joule) along a new last axis.

    h_eff is a channel gain or an array of them; the columns are the value
    columns of the sweep CSV.
    """
    rate = rate_bps(h_eff, rf)
    return np.stack([
        np.abs(h_eff),
        snr_db(h_eff, rf),
        rate,
        energy_efficiency(rate, rf.tx_power_dbm, rf.static_power_w),
    ], axis=-1)

