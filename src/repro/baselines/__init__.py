"""Baselines the paper compares against (or rejects by analysis).

* :mod:`repro.baselines.gload` — the direct-memory-access design point
  (Fig. 2, middle column): every operand fetched over the 8 GB/s gload
  interface, no reuse, 0.33% of peak;
* :mod:`repro.baselines.fft_conv` — frequency-domain convolution, the
  Section III-C alternative the paper rejects by analysis;
* :mod:`repro.baselines.k40m` — a calibrated performance model of
  cuDNNv5.1 on a Tesla K40m, the GPU comparator of Figs. 7 and 9.

The GEMM-lowered (im2col) and Winograd methods are not baselines here:
they execute as engines of the algorithm zoo, :mod:`repro.core.algorithms`.
"""

from repro.baselines.gload import GloadConvolution, gload_estimate
from repro.baselines.k40m import K40mCuDNNModel

__all__ = [
    "GloadConvolution",
    "gload_estimate",
    "K40mCuDNNModel",
]
