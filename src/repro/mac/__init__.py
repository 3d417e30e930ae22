"""Medium access control.

The paper assumes a multi-code CDMA MAC [4]:

* **Data channels**: each directed link uses its own PN code, so data
  transmissions are contention-free point-to-point channels whose rate is
  set by the CSI class (see :mod:`repro.net.datalink` for the transmitter).
* **Common channel**: all routing packets share one robust 250 kbps
  broadcast channel with *unslotted CSMA/CA*.  This channel experiences
  carrier sensing, random backoff, spatial reuse and hidden-terminal
  collisions — the mechanism that saturates under link-state flooding in
  the paper's results.

:class:`~repro.mac.medium.CommonChannelMedium` is the global registry of
in-flight common-channel transmissions; :class:`~repro.mac.csma.CsmaMac`
is the per-node transmitter.
"""

from repro.mac.medium import CommonChannelMedium, Transmission
from repro.mac.csma import CsmaMac, MacConfig, ReceptionBatch

__all__ = [
    "CommonChannelMedium",
    "Transmission",
    "CsmaMac",
    "MacConfig",
    "ReceptionBatch",
]
