"""Link-level metrics: received SNR, Shannon rate, and energy efficiency."""

from __future__ import annotations

import math

import numpy as np

from .errors import checked_args, finite_float, linear_from_db, number_array, sim_config

_LN2 = math.log(2.0)


def dbm_to_watts(p_dbm: float) -> float:
    """p_dbm in W; InvalidInput unless p_dbm is a finite real number whose watts fit in a float."""
    return checked_args(lambda p: linear_from_db(finite_float(p) - 30.0, 10.0), p_dbm=p_dbm)[0]


def link_columns(h_eff, cfg) -> np.ndarray:
    """(h_eff_mag, snr_db, rate_bps, ee_bits_per_joule) along a new last axis.

    h_eff is a channel gain or an array of them, which must hold numbers
    (number_array), and cfg a SimConfig, else InvalidInput; the columns are
    the value columns of the sweep CSV. The SNR is P_tx |h_eff|^2 / N with
    P_tx = cfg.tx_power_w and N = cfg.noise_power_w, the rate B log2(1 + SNR),
    and the energy efficiency the rate divided by the consumed power
    P_tx + static_power_w.
    """
    power_w = sim_config(cfg).tx_power_w + cfg.static_power_w
    magnitude = np.abs(checked_args(number_array, h_eff=h_eff)[0])
    snr = cfg.tx_power_w * magnitude ** 2 / cfg.noise_power_w
    # log1p keeps precision in the deep-noise regime where SNR << eps
    rate = cfg.bandwidth_hz * np.log1p(snr) / _LN2
    # a zero channel gives -inf dB, without numpy's divide-by-zero warning
    with np.errstate(divide="ignore"):
        return np.stack([magnitude, 10.0 * np.log10(snr), rate, rate / power_w], axis=-1)
