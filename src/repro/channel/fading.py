"""Small-scale fading and shadowing as lazily-advanced Gauss-Markov processes.

The paper's channel captures *fast fading* (multipath) and *long-term
shadowing* [7].  We model each as a stationary zero-mean AR(1) process in
dB, which is the standard discrete-time approximation of a Gauss-Markov
process:

    x(t + dt) = rho * x(t) + sqrt(1 - rho^2) * sigma * N(0, 1),
    rho = exp(-dt / tau)

``tau`` is the coherence (decorrelation) time.  The process is advanced
*lazily*: state is only updated when the channel is sampled, using the
exact transition for the elapsed ``dt``, so sparse and dense samplers see
the same statistics.  Queries must arrive with non-decreasing ``t`` (the
simulator guarantees this); equal-time queries return the cached value.

Simulation runs draw fading from :class:`~repro.channel.bank.FadingBank`,
which applies the same transition to array rows; the per-pair processes
here are the statistical reference it is tested against.
"""

from __future__ import annotations

import math
import random

from repro.errors import ConfigurationError, SimulationError

__all__ = ["GaussMarkovProcess", "CompositeFadingProcess", "BACKWARDS_TOLERANCE_S"]

#: Clock-noise tolerance for the "queries arrive with non-decreasing t"
#: contract, shared with the vectorized bank (repro.channel.bank).
BACKWARDS_TOLERANCE_S = 1e-9


class GaussMarkovProcess:
    """A zero-mean stationary AR(1)/Ornstein-Uhlenbeck process in dB."""

    __slots__ = ("_sigma", "_tau", "_rng", "_t", "_x")

    def __init__(self, sigma_db: float, tau_s: float, rng: random.Random) -> None:
        """Args:
        sigma_db: stationary standard deviation in dB.
        tau_s: coherence time in seconds (autocorrelation e-folding time).
        rng: private random stream.
        """
        if sigma_db < 0:
            raise ConfigurationError(f"sigma_db must be >= 0, got {sigma_db}")
        if tau_s <= 0:
            raise ConfigurationError(f"tau_s must be positive, got {tau_s}")
        self._sigma = float(sigma_db)
        self._tau = float(tau_s)
        self._rng = rng
        self._t = 0.0
        self._x = rng.gauss(0.0, self._sigma)  # start in steady state

    @property
    def sigma_db(self) -> float:
        """Stationary standard deviation in dB."""
        return self._sigma

    @property
    def tau_s(self) -> float:
        """Coherence time in seconds."""
        return self._tau

    @property
    def last_time(self) -> float:
        """Time of the most recent sample."""
        return self._t

    def sample(self, t: float) -> float:
        """Value of the process at time ``t`` (requires ``t >= last_time``)."""
        if t < self._t - BACKWARDS_TOLERANCE_S:
            raise SimulationError(
                f"GaussMarkovProcess sampled backwards in time: {t} < {self._t}"
            )
        dt = t - self._t
        if dt > 0 and self._sigma > 0:
            rho = math.exp(-dt / self._tau)
            innovation_std = self._sigma * math.sqrt(max(0.0, 1.0 - rho * rho))
            self._x = rho * self._x + self._rng.gauss(0.0, innovation_std)
        self._t = max(self._t, t)
        return self._x


class CompositeFadingProcess:
    """Sum of a slow shadowing process and a fast multipath process (dB).

    Defaults: shadowing sigma 6 dB with a 10 s coherence time (a
    Gudmundson-style decorrelation at walking-to-driving scales), fast
    fading sigma 3 dB with a 0.5 s coherence time — so link quality
    differences persist long enough that adapting routes to them (RICA's
    1 s CSI-checking period) pays off, exactly the regime the paper's
    protocol presumes ("this has to be decided by the change speed of the
    link CSI").
    """

    __slots__ = ("_shadow", "_fast")

    def __init__(
        self,
        rng: random.Random,
        shadow_sigma_db: float = 6.0,
        shadow_tau_s: float = 10.0,
        fast_sigma_db: float = 3.0,
        fast_tau_s: float = 0.5,
    ) -> None:
        self._shadow = GaussMarkovProcess(shadow_sigma_db, shadow_tau_s, rng)
        self._fast = GaussMarkovProcess(fast_sigma_db, fast_tau_s, rng)

    def sample(self, t: float) -> float:
        """Total fading deviation (dB) at time ``t``."""
        return self._shadow.sample(t) + self._fast.sample(t)

    @property
    def total_sigma_db(self) -> float:
        """Stationary standard deviation of the composite process."""
        return math.hypot(self._shadow.sigma_db, self._fast.sigma_db)
