"""The vectorized per-pair fading store: contiguous AR(1) state arrays.

:class:`FadingBank` replaces the dict-of-objects
(:class:`~repro.channel.fading.CompositeFadingProcess` per pair) fading
store with numpy-backed state: one row per active unordered node pair,
holding the shadowing and fast-fading AR(1) states side by side in
contiguous float64 arrays.  A whole neighbour set advances in one
vectorized transition

    x(t + dt) = rho * x(t) + sqrt(1 - rho^2) * sigma * N(0, 1),
    rho = exp(-dt / tau)

— the exact lazy Gauss-Markov update of
:class:`~repro.channel.fading.GaussMarkovProcess`, applied per row with
per-row ``dt`` (rows are advanced lazily, only when sampled).

**Determinism** comes from counter-based per-pair substreams instead of
stateful generators: the k-th innovation pair of pair ``(lo, hi)`` is a
pure function of ``(seed, lo, hi, k)`` — a splitmix64 stream keyed by the
pair, fed through Box-Muller.  Results are therefore reproducible per
seed and *independent of batch composition*: whether a pair is advanced
alone or inside a 50-neighbour batch, it consumes the same draws.  The
same counters drive both the vectorized batch path and the scalar
single-pair fast path (:meth:`FadingBank.sample_pair`), so mixed call
patterns stay deterministic.

The bank is the fading store of :class:`~repro.channel.model.ChannelModel`;
the per-pair object processes remain in :mod:`repro.channel.fading` as the
statistical reference the bank is tested against.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.channel.fading import BACKWARDS_TOLERANCE_S
from repro.errors import ConfigurationError, SimulationError

__all__ = ["FadingBank"]

#: Mask for 64-bit wrapping arithmetic in the scalar draw path.
_M64 = (1 << 64) - 1
#: splitmix64 sequence increment (Weyl constant).
_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
#: 2**-32 — maps a 32-bit word onto [0, 1).
_PO32 = 2.0**-32
_TWO_PI = 2.0 * math.pi
#: Same backwards-sampling tolerance as GaussMarkovProcess.
_BACKWARDS_TOL_S = BACKWARDS_TOLERANCE_S

# uint64 copies of the constants so vector ops never leave uint64.
_U_GAMMA = np.uint64(_GAMMA)
_U_MASK32 = np.uint64(0xFFFFFFFF)
_U_MIX_1 = np.uint64(_MIX_1)
_U_MIX_2 = np.uint64(_MIX_2)


def _mix_vec(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 arrays."""
    z = (z ^ (z >> np.uint64(30))) * _U_MIX_1
    z = (z ^ (z >> np.uint64(27))) * _U_MIX_2
    return z ^ (z >> np.uint64(31))


def _mix_int(z: int) -> int:
    """splitmix64 finalizer on Python ints (wraps modulo 2**64)."""
    z = ((z ^ (z >> 30)) * _MIX_1) & _M64
    z = ((z ^ (z >> 27)) * _MIX_2) & _M64
    return z ^ (z >> 31)


class FadingBank:
    """Contiguous AR(1) fading state for every active node pair.

    Args:
        seed: substream root; pair ``(lo, hi)`` draws from a splitmix64
            stream keyed by ``(seed, lo, hi)``.
        shadow_sigma_db / shadow_tau_s: shadowing deviation and coherence.
        fast_sigma_db / fast_tau_s: fast-fading deviation and coherence.
        capacity: initial row capacity (grows by doubling).
    """

    def __init__(
        self,
        seed: int,
        shadow_sigma_db: float = 6.0,
        shadow_tau_s: float = 10.0,
        fast_sigma_db: float = 3.0,
        fast_tau_s: float = 0.5,
        capacity: int = 256,
    ) -> None:
        if shadow_sigma_db < 0 or fast_sigma_db < 0:
            raise ConfigurationError("fading sigmas must be >= 0")
        if shadow_tau_s <= 0 or fast_tau_s <= 0:
            raise ConfigurationError("fading coherence times must be positive")
        self._seed = int(seed) & _M64
        self._sigma_s = float(shadow_sigma_db)
        self._sigma_f = float(fast_sigma_db)
        self._tau_s = float(shadow_tau_s)
        self._tau_f = float(fast_tau_s)
        self._neg_inv_tau_s = -1.0 / self._tau_s
        self._neg_inv_tau_f = -1.0 / self._tau_f
        # Column vectors broadcasting the two AR(1) processes over a
        # (2, m) batch: row 0 is shadowing, row 1 fast fading.
        self._nit2 = np.array([[self._neg_inv_tau_s], [self._neg_inv_tau_f]])
        self._sig2 = np.array([[self._sigma_s], [self._sigma_f]])
        cap = max(int(capacity), 16)
        #: AR(1) states: ``_x[0]`` shadowing, ``_x[1]`` fast fading (dB).
        self._x = np.zeros((2, cap))
        self._t = np.zeros(cap)
        self._key = np.zeros(cap, dtype=np.uint64)
        self._ctr = np.zeros(cap, dtype=np.uint64)
        self._row_of: Dict[Tuple[int, int], int] = {}
        #: Symmetric per-origin view of ``_row_of`` (``_by_origin[a][b]``
        #: == ``_by_origin[b][a]``): the batched row gather does one plain
        #: dict lookup per neighbour instead of building a sorted tuple.
        self._by_origin: Dict[int, Dict[int, int]] = {}
        #: Python-int mirror of ``_key`` (write-once at allocation): the
        #: scalar fast path reads it without a numpy scalar conversion.
        self._key_int: List[int] = []
        self._n = 0
        #: Per-origin memo of the last neighbour set's row array (route
        #: monitors re-query near-identical sets every tick).
        self._rows_memo: Dict[int, Tuple[List[int], np.ndarray]] = {}
        #: Diagnostics: innovation pairs consumed across all rows.
        self.draws = 0

    # ------------------------------------------------------------------
    # Row management
    # ------------------------------------------------------------------
    @property
    def pair_count(self) -> int:
        """Number of pairs with allocated fading state."""
        return self._n

    def total_sigma_db(self) -> float:
        """Stationary standard deviation of the composite process."""
        return math.hypot(self._sigma_s, self._sigma_f)

    def _grow(self) -> None:
        cap = 2 * self._t.shape[0]
        new_x = np.zeros((2, cap))
        new_x[:, : self._n] = self._x[:, : self._n]
        self._x = new_x
        for name in ("_t", "_key", "_ctr"):
            old = getattr(self, name)
            new = np.zeros(cap, dtype=old.dtype)
            new[: self._n] = old[: self._n]
            setattr(self, name, new)

    def _alloc(self, lo: int, hi: int) -> int:
        if self._n == self._t.shape[0]:
            self._grow()
        row = self._n
        self._n += 1
        key = _mix_int(_mix_int(self._seed + _GAMMA * (lo + 1)) + _GAMMA * (hi + 1))
        # Draw 0 seeds the stationary start (counter 0), like the scalar
        # process drawing its t=0 state from the steady-state law.
        n1, n2 = self._draw_scalar(key, 0)
        self._key[row] = key
        self._key_int.append(key)
        self._ctr[row] = 1
        self._x[0, row] = self._sigma_s * n1
        self._x[1, row] = self._sigma_f * n2
        self._t[row] = 0.0
        self._row_of[lo, hi] = row
        self._by_origin.setdefault(lo, {})[hi] = row
        self._by_origin.setdefault(hi, {})[lo] = row
        self.draws += 1
        return row

    def row(self, a: int, b: int) -> int:
        """Row index of the unordered pair (allocated on first use)."""
        key = (a, b) if a < b else (b, a)
        row = self._row_of.get(key)
        if row is None:
            row = self._alloc(*key)
        return row

    def rows(self, a: int, others: Sequence[int]) -> np.ndarray:
        """Row indices of every ``a``<->``b`` pair for ``b`` in ``others``.

        Memoised per origin: consecutive queries for the same neighbour
        set (the steady-state of every periodic monitor) reuse the
        previous index array.  Pair -> row assignments never change, so
        the memo can only go stale by the *set* changing, which the list
        comparison detects.
        """
        memo = self._rows_memo.get(a)
        if memo is not None and memo[0] == others:
            return memo[1]
        sub = self._by_origin.get(a)
        if sub is None:
            sub = self._by_origin.setdefault(a, {})
        get = sub.get
        alloc = self._alloc
        out: List[int] = []
        append = out.append
        for b in others:
            row = get(b)
            if row is None:
                row = alloc(a, b) if a < b else alloc(b, a)
            append(row)
        arr = np.fromiter(out, dtype=np.intp, count=len(out))
        self._rows_memo[a] = (list(others), arr)
        return arr

    # ------------------------------------------------------------------
    # Counter-based innovations
    # ------------------------------------------------------------------
    def _draw_scalar(self, key: int, k: int) -> Tuple[float, float]:
        """Innovation pair ``k`` of the stream keyed by ``key`` (pure).

        One splitmix64 output supplies both Box-Muller uniforms (32 bits
        each): ``u1`` from the high word — offset into (0, 1] so the log
        is finite — and ``u2`` from the low word.
        """
        z = _mix_int((key + k * _GAMMA) & _M64)
        u1 = ((z >> 32) + 1) * _PO32  # (0, 1]
        u2 = (z & 0xFFFFFFFF) * _PO32  # [0, 1)
        r = math.sqrt(-2.0 * math.log(u1))
        ang = _TWO_PI * u2
        return r * math.cos(ang), r * math.sin(ang)

    @staticmethod
    def _draw_vec(keys: np.ndarray, ctrs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_draw_scalar`: a (2, m) standard-normal batch
        (row 0 feeds shadowing, row 1 fast fading)."""
        z = _mix_vec(keys + ctrs * _U_GAMMA)
        u1 = ((z >> np.uint64(32)) + np.uint64(1)) * _PO32
        u2 = (z & _U_MASK32) * _PO32
        r = np.sqrt(np.log(u1) * -2.0)
        ang = _TWO_PI * u2
        out = np.empty((2, keys.shape[0]))
        np.cos(ang, out=out[0])
        np.sin(ang, out=out[1])
        out *= r
        return out

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample_rows(self, rows: np.ndarray, t: float) -> np.ndarray:
        """Total fading (dB) of every row in ``rows`` at time ``t``.

        Rows are advanced lazily with the exact AR(1) transition for each
        row's elapsed ``dt``; equal-time queries return the cached state.
        """
        if not rows.size:
            return np.empty(0)
        last = self._t[rows]
        dt = t - last
        mn = dt.min()
        all_advance = mn > 0.0
        if not all_advance:
            if mn < -_BACKWARDS_TOL_S:
                raise SimulationError(
                    f"FadingBank sampled backwards in time: {t} < {last.max()}"
                )
            adv = dt > 0.0
            if not adv.any():
                x = self._x[:, rows]
                return x[0] + x[1]
            sub = rows[adv]
            dt = dt[adv]
        else:
            sub = rows
        rho = np.exp(dt * self._nit2)  # (2, m): row 0 shadow, row 1 fast
        inn = self._sig2 * np.sqrt(np.maximum(1.0 - rho * rho, 0.0))
        norms = self._draw_vec(self._key[sub], self._ctr[sub])
        new = rho * self._x[:, sub]
        new += inn * norms
        self._x[:, sub] = new
        self._t[sub] = t
        # Buffered fancy-index add: duplicated rows (symmetric pairs fed
        # from both directions of an adjacency) advance exactly once.
        self._ctr[sub] += np.uint64(1)
        self.draws += int(np.unique(sub).size)
        if all_advance:
            return new[0] + new[1]
        x = self._x[:, rows]
        return x[0] + x[1]

    def sample_pairs(self, a: int, others: Sequence[int], t: float) -> np.ndarray:
        """Total fading (dB) of every ``a``<->``b`` channel at time ``t``."""
        return self.sample_rows(self.rows(a, others), t)

    def sample_pair(self, a: int, b: int, t: float) -> float:
        """Scalar fast path: total fading (dB) of one pair at time ``t``.

        Shares rows — and the per-pair draw counters — with the batched
        path, so single-pair probes interleave with neighbour-set queries
        without perturbing determinism.
        """
        row = self.row(a, b)
        t_arr = self._t
        last = t_arr.item(row)
        dt = t - last
        x = self._x
        if dt <= 0.0:
            if dt < -_BACKWARDS_TOL_S:
                raise SimulationError(
                    f"FadingBank sampled backwards in time: {t} < {last}"
                )
            return x.item(0, row) + x.item(1, row)
        rho_s = math.exp(dt * self._neg_inv_tau_s)
        rho_f = math.exp(dt * self._neg_inv_tau_f)
        inn_s = self._sigma_s * math.sqrt(max(1.0 - rho_s * rho_s, 0.0))
        inn_f = self._sigma_f * math.sqrt(max(1.0 - rho_f * rho_f, 0.0))
        ctr = self._ctr
        k = ctr.item(row)
        n1, n2 = self._draw_scalar(self._key_int[row], k)
        shadow = rho_s * x.item(0, row) + inn_s * n1
        fast = rho_f * x.item(1, row) + inn_f * n2
        x[0, row] = shadow
        x[1, row] = fast
        t_arr[row] = t
        ctr[row] = k + 1
        self.draws += 1
        return shadow + fast

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FadingBank(pairs={self._n}, draws={self.draws})"
