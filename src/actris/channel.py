"""Channel generation, cascade algebra and the LMMSE rate."""

from dataclasses import dataclass, field, replace

import numpy as np

from .circuit import CircuitParams

SPEED_OF_LIGHT = 299_792_458.0


def db_to_linear(db):
    return 10.0 ** (db / 10.0)


def dbm_to_watt(dbm):
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """Link-level scenario: array sizes, budgets, noise and geometry.

    Defaults follow the reference simulation setup: 8x8 MIMO with 8 streams,
    a 64-element surface 40 m from the transmitter and 4 m from the receiver
    at 2.4 GHz, thermal noise for 1 MHz bandwidth, and receiver/surface noise
    figures of 7 dB and 5 dB.
    """

    m_t: int = 8
    m_r: int = 8
    d: int = 8
    n: int = 64
    n_act: int = 64
    p_t_w: float = dbm_to_watt(-12.75)
    p_ris_w: float = 1.5
    sigma2_w: float = dbm_to_watt(-113.93)
    f_r: float = db_to_linear(7.0)
    f_s: float = db_to_linear(5.0)
    d_ris_tx_m: float = 40.0
    d_rx_ris_m: float = 4.0
    wavelength_m: float = SPEED_OF_LIGHT / 2.4e9
    seed: int = 0
    circuit: CircuitParams = field(default_factory=CircuitParams)
    # When set, the TX-side hop gain is rescaled so the cascaded pathloss
    # matches the one at this reference RX-RIS distance (used to isolate the
    # surface-noise effect in distance sweeps).
    cascade_ref_d_rx_ris_m: float = None

    def __post_init__(self):
        for name in ("m_t", "m_r", "d", "n"):
            if getattr(self, name) < 1:
                raise ValueError(f"ScenarioConfig.{name} must be at least 1")
        if self.d > min(self.m_t, self.m_r):
            raise ValueError("stream count d must not exceed min(m_t, m_r)")
        if not 0 <= self.n_act <= self.n:
            raise ValueError("active element count outside [0, n]")
        for name in ("p_t_w", "p_ris_w", "sigma2_w", "f_r", "f_s",
                     "d_ris_tx_m", "d_rx_ris_m", "wavelength_m"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"ScenarioConfig.{name} must be finite and positive")

    @property
    def rho_db(self):
        """Reference SNR of the unit-gain single-antenna cascade, in dB."""
        return 10.0 * np.log10(self.p_t_w * pathloss(self) / (self.sigma2_w * self.f_r))

    def with_rho_db(self, rho_db):
        """Back-solve the TX power that realizes the requested reference SNR."""
        p_t = db_to_linear(rho_db) * self.sigma2_w * self.f_r / pathloss(self)
        return replace(self, p_t_w=p_t)


@dataclass(frozen=True)
class MimoChannels:
    """Direct, TX-to-RIS and RIS-to-RX complex channel matrices."""

    h_d: np.ndarray   # (m_r, m_t)
    h_1: np.ndarray   # (n, m_t)
    h_2: np.ndarray   # (m_r, n)


def _friis(wavelength, distance):
    return (wavelength / (4.0 * np.pi * distance)) ** 2


def pathloss(scenario):
    """Cascaded free-space pathloss of the TX-RIS-RX route (linear gain)."""
    ref = scenario.cascade_ref_d_rx_ris_m
    d2 = ref if ref is not None else scenario.d_rx_ris_m
    return _friis(scenario.wavelength_m, scenario.d_ris_tx_m) * _friis(
        scenario.wavelength_m, d2
    )


def hop_gains(scenario):
    """Per-hop gains (pl_1, pl_2) whose product equals the cascaded pathloss.

    Each hop carries its own free-space factor. With a cascade reference
    distance set, the RX-side hop keeps its true gain while the TX-side hop
    absorbs the compensation so pl_1 * pl_2 stays constant.
    """
    pl2 = _friis(scenario.wavelength_m, scenario.d_rx_ris_m)
    pl1 = pathloss(scenario) / pl2
    return pl1, pl2


def sample_channels(scenario, rng):
    """Draw one Rayleigh-fading realization of all three channels.

    Entries are i.i.d. circularly-symmetric complex Gaussian with per-hop
    variances from hop_gains. The direct path is blocked (all zeros).
    """
    pl1, pl2 = hop_gains(scenario)
    n, m_t, m_r = scenario.n, scenario.m_t, scenario.m_r

    def cn(rows, cols, var):
        return np.sqrt(var / 2.0) * (
            rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        )

    return MimoChannels(
        h_d=np.zeros((m_r, m_t), dtype=complex),
        h_1=cn(n, m_t, pl1),
        h_2=cn(m_r, n, pl2),
    )


def effective_channel(ch, gamma):
    """RIS-augmented end-to-end channel H_d + H_2 diag(gamma) H_1.

    gamma may carry leading axes (a stack of designs); the result then
    stacks one (m_r, m_t) channel per design.
    """
    gamma = np.asarray(gamma)
    if gamma.shape[-1:] != (ch.h_1.shape[0],):
        raise ValueError("gamma length must match the element count")
    return ch.h_d + ch.h_2 @ (gamma[..., :, None] * ch.h_1)


def noise_covariance(ch, gamma, scenario):
    """Covariance of surface-induced plus thermal noise at the receiver.

    Stacks over leading axes of gamma like effective_channel.
    """
    h2g = ch.h_2 * np.asarray(gamma)[..., None, :]
    return scenario.sigma2_w * scenario.f_s * (h2g @ h2g.conj().swapaxes(-1, -2)) + (
        scenario.sigma2_w * scenario.f_r
    ) * np.eye(scenario.m_r)


def _solve_designs(b, g):
    """Solve b y = g per design; a singular design gets a small ridge.

    A LinAlgError in a stack of designs re-solves it design by design, so the
    ridge touches only the singular design and every other design keeps the
    bits of its own single-design solve.
    """
    try:
        return np.linalg.solve(b, g)
    except np.linalg.LinAlgError:
        if b.ndim > 2:
            return np.stack([_solve_designs(bk, gk) for bk, gk in zip(b, g)])
        ridge = 1e-12 * np.trace(b).real / b.shape[0]
        return np.linalg.solve(b + ridge * np.eye(b.shape[0]), g)


def lmmse_receiver(ch, v, gamma, scenario):
    """Combiner and per-stream SINRs of the optimal linear receiver.

    With g the effective channel times the precoder and B the noise
    covariance plus g g^H, the combiner is y = B^-1 g, from one solve per
    design. With s_k = Re(g_k^H y_k), Sherman-Morrison gives the SINR of
    stream k against B - g_k g_k^H as s_k / (1 - s_k). v (..., m_t, d) and
    gamma (..., n) may carry matching leading axes; y is then
    (..., m_r, d) and the SINRs (..., d), one row per design.
    """
    g = effective_channel(ch, gamma) @ v                    # (..., m_r, d)
    b = noise_covariance(ch, gamma, scenario) + g @ g.conj().swapaxes(-1, -2)
    y = _solve_designs(b, g)
    s = np.einsum("...ij,...ij->...j", g.conj(), y).real
    return y, np.maximum(s / (1.0 - s), 0.0)


def _rate_of_sinrs(sinrs):
    """Sum rate of per-stream SINRs (..., d): a float for one design."""
    rates = np.sum(np.log2(1.0 + sinrs), axis=-1)
    return float(rates) if rates.ndim == 0 else rates


def rate_lmmse(ch, v, gamma, scenario):
    """Achievable rate with the rate-optimal linear receiver (bps/Hz).

    A float for one design; an array of rates for a stack of designs.
    """
    return _rate_of_sinrs(lmmse_receiver(ch, v, gamma, scenario)[1])
