"""Uplink power control, the association mask, and the energy model.

The end-to-end power consumption splits into UE terms (circuit plus
amplifier), per-AP terms (antenna circuits plus per-served-UE local
processing), fronthaul terms (fixed plus per-served-UE signalling), and
central terms (fixed, per-association fusion, and throughput-
proportional decoding).  Energy efficiency is bandwidth times summed SE
divided by total power.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np


@dataclass(frozen=True)
class PowerModel:
    """Consumption model parameters (defaults: 20 MHz desk deployment)."""

    bandwidth_hz: float = 20e6
    p_max_w: float = 0.1           # max UE transmit power
    theta: float = 1.0             # fractional power-control exponent
    pa_efficiency: float = 0.4     # UE power-amplifier efficiency
    p_circuit_ue_w: float = 0.1
    p_circuit_ap_w: float = 0.2    # per AP antenna
    p_proc_w: float = 0.8          # per AP antenna per served UE
    p_fix_fh_w: float = 0.825      # per-AP fronthaul, fixed
    p_sig_w: float = 0.01          # per-AP fronthaul, per served UE
    p_fix_cpu_w: float = 5.0
    p_lsfd_w: float = 1.0          # per (UE, serving AP) pair at the CPU
    p_deco_w_per_bps: float = 1e-9  # decoding power per bit/s

    def __post_init__(self):
        bad = [f.name for f in fields(self) if not 0 <= getattr(self, f.name) < np.inf]
        if bad:
            raise ValueError(
                f"power parameters must be finite and nonnegative: {', '.join(bad)}"
            )
        if self.pa_efficiency <= 0 or self.bandwidth_hz <= 0 or self.p_max_w <= 0:
            raise ValueError("bandwidth, p_max and pa_efficiency must be positive")


def extract_association(a):
    """Association induced by the nonzero pattern of the weights.

    a is the (K, L) weight matrix after zero-snapping; the association is
    the (K, L) boolean mask whose entry [k, l] says that AP l serves UE k.
    """
    return np.asarray(a) != 0


def fractional_power(beta, assoc, p_max, theta):
    """Fractional uplink power control over each UE's serving set.

    assoc is the (K, L) association mask, M_k the APs of its row k:
    p_k = p_max * (min_i sum_{l in M_i} beta_il)^theta
                / (sum_{l in M_k} beta_kl)^theta.
    """
    beta = np.asarray(beta)
    assoc = np.asarray(assoc)
    if p_max <= 0:
        raise ValueError("p_max must be positive")
    empty = np.flatnonzero(~assoc.any(axis=1))
    if empty.size:
        raise ValueError(f"UE {empty[0]} has an empty serving set")
    sums = np.array([row[m].sum() for row, m in zip(beta, assoc)])
    if not np.all(np.isfinite(sums) & (sums > 0)):
        raise ValueError("serving-set gains must be finite and positive")
    return p_max * (sums.min() / sums) ** theta


def total_power(assoc, p, se_values, model, n_antennas):
    """End-to-end consumed power in watts for one drop."""
    p = np.asarray(p, dtype=float)
    se_values = np.asarray(se_values, dtype=float)
    if np.any(p < 0) or np.any(se_values < 0):
        raise ValueError("powers and SEs must be nonnegative")
    ue = np.sum(model.p_circuit_ue_w + p / model.pa_efficiency)
    served = assoc.sum(axis=0)
    ap = np.sum(
        n_antennas * model.p_circuit_ap_w + n_antennas * served * model.p_proc_w
    )
    fronthaul = np.sum(model.p_fix_fh_w + served * model.p_sig_w)
    cpu = (
        model.p_fix_cpu_w
        + assoc.sum() * model.p_lsfd_w
        + model.bandwidth_hz * np.sum(se_values) * model.p_deco_w_per_bps
    )
    return float(ue + ap + fronthaul + cpu)


def energy_efficiency(se_values, power_w, bandwidth_hz):
    """Energy efficiency in bit/J: bandwidth * sum SE / total power."""
    if power_w <= 0:
        raise ValueError("total power must be positive")
    return float(bandwidth_hz * np.sum(se_values) / power_w)
