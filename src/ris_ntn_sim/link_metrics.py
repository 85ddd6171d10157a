"""Link-level metrics: received SNR, Shannon rate, and energy efficiency."""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInput, checked_args, finite_float, linear_from_db, number_array, positive_float

_LN2 = math.log(2.0)


def dbm_to_watts(p_dbm: float) -> float:
    """p_dbm in W; InvalidInput unless p_dbm is a finite real number whose watts fit in a float."""
    return checked_args(lambda p: linear_from_db(finite_float(p) - 30.0, 10.0), p_dbm=p_dbm)[0]


def noise_power_watts(cfg) -> float:
    """Noise power in W: the density noise_psd_dbm_hz in dBm/Hz plus 10*log10(bandwidth_hz).

    InvalidInput unless bandwidth_hz is a finite, positive real number and
    noise_psd_dbm_hz a finite real number.
    """
    bandwidth_hz = checked_args(positive_float, bandwidth_hz=cfg.bandwidth_hz)[0]
    noise_psd_dbm_hz = checked_args(finite_float, noise_psd_dbm_hz=cfg.noise_psd_dbm_hz)[0]
    return dbm_to_watts(noise_psd_dbm_hz + 10.0 * math.log10(bandwidth_hz))


def link_columns(h_eff, cfg) -> np.ndarray:
    """(h_eff_mag, snr_db, rate_bps, ee_bits_per_joule) along a new last axis.

    h_eff is a channel gain or an array of them, which must hold numbers
    (number_array), else InvalidInput; the columns are the value columns of
    the sweep CSV. cfg is a SimConfig, or anything with its
    tx_power_dbm, bandwidth_hz, noise_psd_dbm_hz and static_power_w. The SNR
    is P_tx |h_eff|^2 / N, the rate B log2(1 + SNR), and the energy
    efficiency the rate divided by the consumed power P_tx + static_power_w,
    which must be positive; static_power_w must be a finite, nonnegative real number.
    """
    tx_w = dbm_to_watts(cfg.tx_power_dbm)
    static_w = checked_args(finite_float, static_power_w=cfg.static_power_w)[0]
    if static_w < 0:
        raise InvalidInput(f"static_power_w must be nonnegative, got {static_w!r}")
    power_w = tx_w + static_w
    if not power_w > 0:
        raise InvalidInput(f"total power must be positive, got {power_w} W")
    magnitude = np.abs(checked_args(number_array, h_eff=h_eff)[0])
    snr = tx_w * magnitude ** 2 / noise_power_watts(cfg)
    # log1p keeps precision in the deep-noise regime where SNR << eps
    rate = cfg.bandwidth_hz * np.log1p(snr) / _LN2
    # a zero channel gives -inf dB, without numpy's divide-by-zero warning
    with np.errstate(divide="ignore"):
        return np.stack([magnitude, 10.0 * np.log10(snr), rate, rate / power_w], axis=-1)
