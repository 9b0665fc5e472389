"""Frequency-domain convolution — the family the paper rejects (§III-C).

"As the FFT used in frequency-domain based methods has higher requirements
for the memory bandwidth and involves global communication from different
processing threads, the spatial-domain based methods seem a better fit to
the SW26010 many-core architecture."

This baseline makes that argument quantitative:

* the functional path computes the convolution exactly via FFT (pointwise
  products of padded spectra, one IFFT per output channel) — a third
  independent oracle for the spatial kernels;
* the traffic model counts the spectra the method must materialize
  (complex doubles double the footprint, spatial sizes round up to the
  padded transform size) plus the all-to-all spectrum exchange across the
  CPE mesh, and compares the implied bandwidth requirement against the
  direct method's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.hw.spec import SW26010Spec, DEFAULT_SPEC
from repro.perf.dma_model import DMAStream, blended_mbw
from repro.core.conv import TimingReport
from repro.core.params import ConvParams
from repro.perf.model import kernel_ee


@dataclass(frozen=True)
class FFTTraffic:
    """Byte accounting of the frequency-domain method for one layer."""

    input_spectra: int
    filter_spectra: int
    output_spectra: int
    mesh_exchange: int

    @property
    def total(self) -> int:
        return (
            self.input_spectra
            + self.filter_spectra
            + self.output_spectra
            + self.mesh_exchange
        )


class FFTConvolution:
    """Functional + modeled frequency-domain convolution on one CG."""

    def __init__(self, spec: SW26010Spec = DEFAULT_SPEC):
        self.spec = spec

    # -- functional ---------------------------------------------------------

    def run(self, x: np.ndarray, w: np.ndarray) -> Tuple[np.ndarray, TimingReport]:
        b, ni, ri, ci = x.shape
        no, _, kr, kc = w.shape
        params = ConvParams(ni=ni, no=no, ri=ri, ci=ci, kr=kr, kc=kc, b=b)
        # Correlation via FFT: conjugate the filter spectrum.
        fx = np.fft.rfft2(np.asarray(x, float), s=(ri, ci))
        fw = np.fft.rfft2(np.asarray(w, float), s=(ri, ci))
        spectrum = np.einsum("bnhw,onhw->bohw", fx, np.conj(fw), optimize=True)
        full = np.fft.irfft2(spectrum, s=(ri, ci))
        out = full[:, :, : params.ro, : params.co]
        return out, self.evaluate(params)

    # -- traffic model --------------------------------------------------------

    def traffic(self, params: ConvParams, ds: int = 8) -> FFTTraffic:
        """Bytes the frequency-domain method materializes and exchanges.

        Spectra are complex doubles (2x) over the padded Ri x (Ci/2+1)
        rFFT grid; the pointwise stage needs every (input-channel) spectrum
        at every (output-channel) producer, which on the mesh is an
        all-to-all — each spectrum crosses the fabric once per mesh row.
        """
        p = params
        spec_elems = p.ri * (p.ci // 2 + 1) * 2  # complex -> 2 doubles
        input_spectra = p.b * p.ni * spec_elems * ds
        filter_spectra = p.no * p.ni * spec_elems * ds
        output_spectra = p.b * p.no * spec_elems * ds
        mesh_exchange = input_spectra * self.spec.mesh_size
        return FFTTraffic(
            input_spectra=input_spectra,
            filter_spectra=filter_spectra,
            output_spectra=output_spectra,
            mesh_exchange=mesh_exchange,
        )

    def bandwidth_amplification(self, params: ConvParams) -> float:
        """Traffic relative to the unique data of the direct method."""
        return self.traffic(params).total / params.total_bytes()

    def evaluate(self, params: ConvParams) -> TimingReport:
        """Timed estimate: pointwise-product flops vs spectrum traffic.

        The FFT stage's flops are small next to the pointwise stage for
        multi-channel layers; the binding resource is the spectrum traffic.
        """
        traffic = self.traffic(params)
        mbw = blended_mbw(
            [DMAStream("spectra", float(traffic.total), params.ci * 8, "get")]
        )
        dma_seconds = traffic.total / mbw
        # Pointwise complex products: 4 real multiply-adds per element.
        spec_elems = params.ri * (params.ci // 2 + 1)
        pointwise_flops = 8 * params.b * params.no * params.ni * spec_elems
        ee = kernel_ee(params.ni)
        compute_seconds = pointwise_flops / (self.spec.peak_flops_per_cg * ee)
        seconds = max(dma_seconds, compute_seconds)
        return TimingReport(
            seconds=seconds,
            flops=params.flops(),
            dma_seconds=dma_seconds,
            compute_seconds=compute_seconds,
            bytes_get=traffic.total,
            bytes_put=0,
            tiles=0,
            peak_flops=self.spec.peak_flops_per_cg,
        )
