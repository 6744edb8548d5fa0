"""Uplink power control, association bookkeeping, and the energy model.

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


@dataclass(frozen=True)
class Association:
    """Bipartite AP-UE association: M_k = serving[k], D_l = served[l]."""

    serving: tuple  # per UE, sorted int array of serving APs
    served: tuple   # per AP, sorted int array of served UEs
    n_ap: int

    @classmethod
    def from_serving(cls, serving, n_ap):
        served = [[] for _ in range(n_ap)]
        for k, aps in enumerate(serving):
            for l in aps:
                if not 0 <= l < n_ap:
                    raise ValueError("AP index out of range")
                served[l].append(k)
        return cls(
            serving=tuple(np.array(sorted(m), dtype=int) for m in serving),
            served=tuple(np.array(d, dtype=int) for d in served),
            n_ap=n_ap,
        )

    @classmethod
    def full(cls, n_ue, n_ap):
        return cls.from_serving([np.arange(n_ap)] * n_ue, n_ap)

    def mean_serving(self):
        return float(np.mean([m.size for m in self.serving]))

    def mean_served(self):
        return float(np.mean([d.size for d in self.served]))


def extract_association(a):
    """Association induced by the nonzero pattern of solution rows.

    a is the (K, L) weight matrix after zero-snapping; UE k is served by
    the APs where its row is nonzero.
    """
    a = np.asarray(a)
    serving = [np.flatnonzero(row != 0) for row in a]
    return Association.from_serving(serving, a.shape[1])


def fractional_power(beta, serving, p_max, theta):
    """Fractional uplink power control over each UE's serving set.

    p_k = p_max * (min_i sum_{l in M_i} beta_il)^theta
                / (sum_{l in M_k} beta_kl)^theta.
    """
    beta = np.asarray(beta)
    if p_max <= 0:
        raise ValueError("p_max must be positive")
    sums = []
    for k, aps in enumerate(serving):
        aps = np.asarray(aps, dtype=int)
        if aps.size == 0:
            raise ValueError(f"UE {k} has an empty serving set")
        sums.append(beta[k, aps].sum())
    sums = np.asarray(sums)
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
    served = np.array([d.size for d in assoc.served])
    ap = np.sum(
        n_antennas * model.p_circuit_ap_w + n_antennas * served * model.p_proc_w
    )
    fronthaul = np.sum(model.p_fix_fh_w + served * model.p_sig_w)
    serving = np.array([m.size for m in assoc.serving])
    cpu = (
        model.p_fix_cpu_w
        + np.sum(serving) * model.p_lsfd_w
        + model.bandwidth_hz * np.sum(se_values) * model.p_deco_w_per_bps
    )
    return float(ue + ap + fronthaul + cpu)


def energy_efficiency(se_values, power_w, bandwidth_hz):
    """Energy efficiency in bit/J: bandwidth * sum SE / total power."""
    if power_w <= 0:
        raise ValueError("total power must be positive")
    return float(bandwidth_hz * np.sum(se_values) / power_w)
