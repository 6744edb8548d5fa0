"""Network geometry and large-scale channel statistics.

Access points (APs) and user equipments (UEs) live on a square with
wrap-around (torus) distances, so no position is privileged by cell
edges.  Link gains follow a log-distance pathloss with lognormal
shadowing; per-link spatial correlation across AP antennas follows a
Gaussian local-scattering profile around the geometric azimuth.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .linalg import herm

# log-distance pathloss in dB: PATHLOSS_A + PATHLOSS_B * log10(d / 1 m)
PATHLOSS_A = -30.5
PATHLOSS_B = -36.7

# eigenvalues of a correlation matrix below -PSD_EIG_RTOL * beta trigger a
# clip-to-zero repair; above that they are accepted as floating-point noise
PSD_EIG_RTOL = 1e-10

_TAG_GEOMETRY = 0


@dataclass(frozen=True)
class NetworkConfig:
    """Deployment geometry and large-scale channel parameters.

    noise_var is the receiver noise power in the same (linear) unit system
    as the channel gains.  gain_offset_db is added to the pathloss before
    conversion to linear scale; setting it to minus the noise floor in dB
    (with noise_var = 1) expresses all gains relative to noise.
    """

    L: int = 40
    N: int = 4
    K: int = 20
    side_m: float = 500.0
    ap_height_m: float = 10.0
    shadow_std_db: float = 4.0
    asd_deg: float = 15.0
    antenna_spacing_wl: float = 0.5
    noise_var: float = 1.0
    gain_offset_db: float = 0.0

    def __post_init__(self):
        bad = [f.name for f in fields(self) if not np.isfinite(getattr(self, f.name))]
        if bad:
            raise ValueError(f"network parameters must be finite: {', '.join(bad)}")
        if min(self.L, self.N, self.K) <= 0:
            raise ValueError("L, N, K must be positive")
        if self.side_m <= 0 or self.ap_height_m < 0:
            raise ValueError("side_m must be positive and ap_height_m nonnegative")
        if self.noise_var <= 0:
            raise ValueError("noise_var must be positive")
        if self.shadow_std_db < 0 or self.asd_deg < 0:
            raise ValueError("shadow_std_db and asd_deg must be nonnegative")


@dataclass(frozen=True)
class NetworkInstance:
    """One network drop: positions plus per-link statistics (immutable)."""

    cfg: NetworkConfig
    ap_pos: np.ndarray  # (L, 2)
    ue_pos: np.ndarray  # (K, 2)
    beta: np.ndarray    # (K, L) average channel gains
    R: np.ndarray       # (K, L, N, N) spatial correlation, trace = N * beta

    def __post_init__(self):
        for arr in (self.ap_pos, self.ue_pos, self.beta, self.R):
            arr.flags.writeable = False


def min_image_offset(p, q, side_m):
    """Displacement q - p on the wrap-around square, each axis in [-side/2, side/2)."""
    if side_m <= 0:
        raise ValueError("side_m must be positive")
    d = np.asarray(q, dtype=float) - np.asarray(p, dtype=float)
    return (d + 0.5 * side_m) % side_m - 0.5 * side_m


def wrap_distance(p, q, side_m, ap_height_m=0.0):
    """3D distance between p and q under wrap-around, including AP height.

    Equals the minimum over the nine translated copies of q.
    """
    if ap_height_m < 0:
        raise ValueError("ap_height_m must be nonnegative")
    d = min_image_offset(p, q, side_m)
    return np.sqrt(np.sum(d * d, axis=-1) + ap_height_m**2)


def pathloss_db(d_m):
    """Log-distance pathloss in dB at 3D distance d_m (meters, > 0)."""
    d = np.asarray(d_m, dtype=float)
    if np.any(d <= 0):
        raise ValueError("distance must be positive")
    return PATHLOSS_A + PATHLOSS_B * np.log10(d)


def correlation_matrix(beta, nominal_angle, asd_rad, n_antennas, spacing_wl):
    """Spatial correlation for a uniform linear array, Gaussian local scattering.

    Entry (m, n) is beta * exp(j 2 pi spacing (m-n) sin(phi))
    * exp(-(asd 2 pi spacing (m-n) cos(phi))^2 / 2).  beta and phi are
    scalars or arrays of one shape S; the result is S + (N, N).
    """
    if n_antennas <= 0:
        raise ValueError("n_antennas must be positive")
    beta = np.asarray(beta, dtype=float)
    if np.any(beta <= 0) or asd_rad < 0:
        raise ValueError("beta must be positive and asd_rad nonnegative")
    phi = np.asarray(nominal_angle, dtype=float)[..., None, None]
    idx = np.arange(n_antennas)
    diff = idx[:, None] - idx[None, :]
    arg = 2.0 * np.pi * spacing_wl * diff
    r = beta[..., None, None] * np.exp(1j * arg * np.sin(phi))
    r = r * np.exp(-0.5 * (asd_rad * arg * np.cos(phi)) ** 2)
    return _psd_repair(r, beta)


def _psd_repair(r, beta):
    """Clip eigenvalues below -PSD_EIG_RTOL * beta to zero, per matrix of a stack."""
    bad = np.linalg.eigvalsh(r)[..., 0] < -PSD_EIG_RTOL * beta
    if np.any(bad):
        w, v = np.linalg.eigh(r[bad])
        fixed = (v * np.clip(w, 0.0, None)[..., None, :]) @ herm(v)
        r[bad] = 0.5 * (fixed + herm(fixed))
    return r


def channel_statistics(cfg, ap_pos, ue_pos, shadow_db):
    """Per-link gains and correlation matrices from positions and shadowing.

    shadow_db is the (K, L) lognormal shadowing realization in dB; exposed
    separately so translation invariance can be checked with fixed shadowing.
    """
    ue, ap = ue_pos[:, None], ap_pos[None, :]  # broadcast to (K, L, 2)
    dist = wrap_distance(ue, ap, cfg.side_m, cfg.ap_height_m)
    beta = 10.0 ** ((pathloss_db(dist) + shadow_db + cfg.gain_offset_db) / 10.0)
    d2 = min_image_offset(ue, ap, cfg.side_m)
    angle = np.arctan2(d2[..., 1], d2[..., 0])
    big_r = correlation_matrix(
        beta, angle, np.deg2rad(cfg.asd_deg), cfg.N, cfg.antenna_spacing_wl
    )
    return beta, big_r


@np.errstate(over="raise", invalid="raise")
def generate_network(cfg, seed):
    """Drop APs and UEs uniformly on the square and build link statistics.

    Deterministic given (cfg, seed).  Raises FloatingPointError if a gain
    or a correlation entry overflows or is invalid.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_GEOMETRY]))
    ap_pos = rng.uniform(0.0, cfg.side_m, size=(cfg.L, 2))
    ue_pos = rng.uniform(0.0, cfg.side_m, size=(cfg.K, 2))
    shadow_db = rng.normal(0.0, cfg.shadow_std_db, size=(cfg.K, cfg.L))
    beta, big_r = channel_statistics(cfg, ap_pos, ue_pos, shadow_db)
    return NetworkInstance(cfg=cfg, ap_pos=ap_pos, ue_pos=ue_pos, beta=beta, R=big_r)
