"""ABICM — adaptive bit-interleaved coded modulation (observable effect).

The paper relies on Lau's ABICM scheme [5]: the transmitter adapts the
amount of error protection to the channel state, so the *effective
throughput* of a link is a function of its CSI class.  The physical-layer
details are irrelevant to routing; what the network sees is the class →
throughput table below (paper Section II-A).  This module stands in for the
proprietary ABICM implementation, which is not available: it models that
table, not the coding scheme, because the table is all routing consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.channel.csi import ChannelClass
from repro.errors import ConfigurationError

__all__ = ["AbicmScheme", "CLASS_THROUGHPUT_BPS"]


#: Effective link throughput per CSI class, bits/second (paper Section II-A).
CLASS_THROUGHPUT_BPS: Dict[ChannelClass, float] = {
    ChannelClass.A: 250_000.0,
    ChannelClass.B: 150_000.0,
    ChannelClass.C: 75_000.0,
    ChannelClass.D: 50_000.0,
}


@dataclass(frozen=True)
class AbicmScheme:
    """Class → effective throughput mapping after adaptive coding/modulation.

    The default table is the paper's.  A custom table (e.g. for ablations
    that coarsen or refine the quantisation) must preserve monotonicity:
    better classes may not be slower.
    """

    throughput_bps: Dict[ChannelClass, float] = field(
        default_factory=lambda: dict(CLASS_THROUGHPUT_BPS)
    )

    def __post_init__(self) -> None:
        missing = [c for c in ChannelClass if c not in self.throughput_bps]
        if missing:
            raise ConfigurationError(f"AbicmScheme table missing classes: {missing}")
        rates = [self.throughput_bps[c] for c in sorted(ChannelClass)]
        if any(r <= 0 for r in rates):
            raise ConfigurationError("AbicmScheme throughputs must be positive")
        if any(hi < lo for hi, lo in zip(rates, rates[1:])):
            raise ConfigurationError("AbicmScheme throughputs must not increase as class worsens")
        # Memoised class-value -> rate tuple: the per-sample fast path
        # indexes this instead of hashing into the dict (frozen dataclass,
        # hence object.__setattr__).
        object.__setattr__(self, "_rate_by_index", tuple(rates))

    def throughput(self, cls: ChannelClass) -> float:
        """Effective throughput (bps) of a link in class ``cls``."""
        return self._rate_by_index[cls]

    def transmission_time(self, cls: ChannelClass, bits: int) -> float:
        """Seconds to push ``bits`` through a link in class ``cls``."""
        if bits < 0:
            raise ConfigurationError(f"bits must be >= 0, got {bits}")
        return bits / self._rate_by_index[cls]

    def hop_distance(self, cls: ChannelClass) -> float:
        """CSI hop distance implied by this table (class A normalised to 1).

        For the paper's table this equals :data:`repro.channel.csi.HOP_DISTANCE`.
        """
        return self.throughput_bps[ChannelClass.A] / self.throughput_bps[cls]
