"""Link-level metrics: received SNR, Shannon rate, and energy efficiency."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, finite_float_fields

_LN2 = math.log(2.0)


def dbm_to_watts(p_dbm: float) -> float:
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class RfConfig:
    """Transmit power, receiver bandwidth and noise power spectral density.

    noise_psd_dbm_hz is a density in dBm/Hz; the total noise power follows by
    adding 10*log10(bandwidth). static_power_w is an optional additive term
    in the energy-efficiency denominator and defaults to zero. Every field is
    stored as a finite Python float; a bool, a non-real or a non-finite value
    is a ValueError.
    """

    tx_power_dbm: float
    bandwidth_hz: float
    noise_psd_dbm_hz: float
    static_power_w: float = 0.0

    def __post_init__(self):
        finite_float_fields(self, ("tx_power_dbm", "bandwidth_hz", "noise_psd_dbm_hz",
                                   "static_power_w"))
        if self.bandwidth_hz <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth_hz}")
        if self.static_power_w < 0:
            raise ValueError(f"static power must be nonnegative, got {self.static_power_w}")


def noise_power_watts(rf: RfConfig) -> float:
    return dbm_to_watts(rf.noise_psd_dbm_hz + 10.0 * math.log10(rf.bandwidth_hz))


def link_columns(h_eff, rf: RfConfig) -> np.ndarray:
    """(h_eff_mag, snr_db, rate_bps, ee_bits_per_joule) along a new last axis.

    h_eff is a channel gain or an array of them; the columns are the value
    columns of the sweep CSV. The SNR is P_tx |h_eff|^2 / N, the rate
    B log2(1 + SNR), and the energy efficiency the rate divided by the
    consumed power P_tx + static_power_w, which must be positive.
    """
    tx_w = dbm_to_watts(rf.tx_power_dbm)
    power_w = tx_w + rf.static_power_w
    if not power_w > 0:
        raise InvalidInput(f"total power must be positive, got {power_w} W")
    magnitude = np.abs(h_eff)
    snr = tx_w * magnitude ** 2 / noise_power_watts(rf)
    # log1p keeps precision in the deep-noise regime where SNR << eps
    rate = rf.bandwidth_hz * np.log1p(snr) / _LN2
    # a zero channel gives -inf dB, without numpy's divide-by-zero warning
    with np.errstate(divide="ignore"):
        return np.stack([magnitude, 10.0 * np.log10(snr), rate, rate / power_w], axis=-1)
