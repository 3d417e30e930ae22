"""Time-varying wireless channel model.

The paper (Section II-A) models the channel between every pair of mobile
terminals as time-varying with fast fading and long-term shadowing, and —
thanks to the ABICM adaptive coding/modulation scheme [5] — quantised into
four quality classes:

=====  ==========  ==============
Class  Throughput  CSI hop length
=====  ==========  ==============
A      250 kbps    1.00
B      150 kbps    1.67 (5/3)
C       75 kbps    3.33 (10/3)
D       50 kbps    5.00
=====  ==========  ==============

This package provides:

* :mod:`~repro.channel.propagation` — log-distance path loss and the
  250 m transmission range predicate;
* :mod:`~repro.channel.fading` — Gauss-Markov (AR(1)) dB processes for
  shadowing and fast fading, advanced lazily and exactly;
* :mod:`~repro.channel.csi` — the class enum, SNR thresholds and the
  CSI-based hop-distance metric;
* :mod:`~repro.channel.abicm` — class → throughput mapping (the observable
  effect of the adaptive coder/modulator);
* :mod:`~repro.channel.bank` — :class:`FadingBank`, contiguous numpy AR(1)
  state arrays with counter-based per-pair substreams (the fading store
  every run uses);
* :mod:`~repro.channel.model` — :class:`ChannelModel`, the per-pair channel
  store the rest of the simulator queries.
"""

from repro.channel.csi import ChannelClass, CsiThresholds, hop_distance
from repro.channel.abicm import AbicmScheme, CLASS_THROUGHPUT_BPS
from repro.channel.propagation import PathLossModel
from repro.channel.fading import GaussMarkovProcess, CompositeFadingProcess
from repro.channel.bank import FadingBank
from repro.channel.model import ChannelModel, ChannelConfig

__all__ = [
    "ChannelClass",
    "CsiThresholds",
    "hop_distance",
    "AbicmScheme",
    "CLASS_THROUGHPUT_BPS",
    "PathLossModel",
    "GaussMarkovProcess",
    "CompositeFadingProcess",
    "FadingBank",
    "ChannelModel",
    "ChannelConfig",
]
