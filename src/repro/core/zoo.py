"""Model zoo: paper-era CNN architectures timed end to end.

The paper motivates swDNN with ImageNet-class networks (its references
include VGG [2] and AlexNet-lineage models [10]); this module describes
their convolutional stacks as :class:`~repro.core.params.ConvParams`
sequences and times a full training step (forward + backward-data +
backward-filter per conv layer, three GEMMs per FC layer) on one simulated
SW26010 — the "what would training this network actually cost" number the
paper's per-kernel evaluation stops short of.

:func:`training_cost` is the one per-layer training-cost function of the
package: :func:`time_network` sums it here, and the data-parallel cluster
(:func:`repro.scale.cluster.profile_network`,
:func:`repro.scale.report.stack_costs`) schedules it on its allreduce
timeline.

Only stride-1 convolutions are representable (the paper's kernels);
AlexNet's strided first layer is therefore approximated by its stride-1
retrained variant's geometry, noted per network.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple, Union

from repro.common.errors import PlanError
from repro.hw.spec import SW26010Spec, DEFAULT_SPEC
from repro.core.backward import BackwardConvolution
from repro.core.gemm_plan import GemmEngine, GemmParams, GemmPlan
from repro.core.params import ConvParams


@dataclass(frozen=True)
class ZooLayer:
    """One layer of a zoo network."""

    name: str
    kind: str  # "conv" | "fc"
    conv: Optional[ConvParams] = None
    fc: Optional[GemmParams] = None

    def __post_init__(self) -> None:
        if self.kind not in ("conv", "fc"):
            raise PlanError(f"layer {self.name}: unknown layer kind {self.kind!r}")
        if self.kind == "conv" and self.conv is None:
            raise PlanError(f"layer {self.name}: conv layer needs ConvParams")
        if self.kind == "fc" and self.fc is None:
            raise PlanError(f"layer {self.name}: fc layer needs GemmParams")

    @property
    def params(self) -> Union[ConvParams, GemmParams]:
        """The shape :func:`training_cost` times: ``conv`` or ``fc``."""
        return self.conv if self.kind == "conv" else self.fc

    def flops(self) -> int:
        return self.params.flops()

    def gradient_bytes(self) -> int:
        """Bytes of weight gradient this layer allreduces (float64, no bias)."""
        if self.kind == "conv":
            return self.conv.filter_bytes(8)
        return self.fc.m * self.fc.k * 8


def _conv(name: str, ni: int, no: int, out: int, b: int) -> ZooLayer:
    return ZooLayer(
        name=name,
        kind="conv",
        conv=ConvParams.from_output(ni=ni, no=no, ro=out, co=out, kr=3, kc=3, b=b),
    )


def vgg16(batch: int = 32) -> List[ZooLayer]:
    """VGG-16's thirteen 3x3 convolutions + three FC layers."""
    layers = [
        _conv("conv1_1", 3, 64, 224, batch),
        _conv("conv1_2", 64, 64, 224, batch),
        _conv("conv2_1", 64, 128, 112, batch),
        _conv("conv2_2", 128, 128, 112, batch),
        _conv("conv3_1", 128, 256, 56, batch),
        _conv("conv3_2", 256, 256, 56, batch),
        _conv("conv3_3", 256, 256, 56, batch),
        _conv("conv4_1", 256, 512, 28, batch),
        _conv("conv4_2", 512, 512, 28, batch),
        _conv("conv4_3", 512, 512, 28, batch),
        _conv("conv5_1", 512, 512, 14, batch),
        _conv("conv5_2", 512, 512, 14, batch),
        _conv("conv5_3", 512, 512, 14, batch),
        ZooLayer("fc6", "fc", fc=GemmParams(m=4096, n=batch, k=512 * 7 * 7)),
        ZooLayer("fc7", "fc", fc=GemmParams(m=4096, n=batch, k=4096)),
        ZooLayer("fc8", "fc", fc=GemmParams(m=1000, n=batch, k=4096)),
    ]
    return layers


def cifar_quick(batch: int = 128) -> List[ZooLayer]:
    """A CIFAR-scale quick net (3 convs + 2 FCs)."""
    return [
        _conv("conv1", 3, 32, 32, batch),
        _conv("conv2", 32, 32, 16, batch),
        _conv("conv3", 32, 64, 8, batch),
        ZooLayer("fc1", "fc", fc=GemmParams(m=64, n=batch, k=64 * 4 * 4)),
        ZooLayer("fc2", "fc", fc=GemmParams(m=10, n=batch, k=64)),
    ]


NETWORKS: Dict[str, callable] = {"vgg16": vgg16, "cifar_quick": cifar_quick}


def vgg_like_stack(batch: int = 128, channels: int = 64) -> List[ZooLayer]:
    """A small VGG-ish stack for the cluster scaling curves.

    Not in :data:`NETWORKS`: it is the workload of
    :mod:`repro.scale.report`, not a paper-era network.
    """
    return [
        _conv("conv1", channels, channels, 32, batch),
        _conv("conv2", channels, 2 * channels, 16, batch),
        _conv("conv3", 2 * channels, 4 * channels, 8, batch),
        ZooLayer(
            "fc1", "fc", fc=GemmParams(m=1024, n=batch, k=4 * channels * 8 * 8)
        ),
        ZooLayer("fc2", "fc", fc=GemmParams(m=1000, n=batch, k=1024)),
    ]


@lru_cache(maxsize=512)
def training_cost(
    params: Union[ConvParams, GemmParams], spec: SW26010Spec = DEFAULT_SPEC
) -> Tuple[float, float]:
    """(forward, backward) seconds of one layer's training step on one chip.

    Conv layers run forward + backward-data + backward-filter through
    :class:`BackwardConvolution`; dense layers are three mesh GEMMs of one
    shape class.  Per-CG times divide by the core-group count (4 CGs
    assumed linear per Section III-D).  Raises :class:`PlanError` for
    shapes the planner refuses.
    """
    if isinstance(params, ConvParams):
        total, breakdown = BackwardConvolution(params, spec=spec).training_step_time()
        fwd = breakdown["forward"].seconds
        back = total - fwd
    else:
        fwd = GemmEngine(GemmPlan(params, spec=spec)).evaluate().seconds
        back = 2.0 * fwd  # backward-data + backward-weight GEMMs
    cg_count = spec.num_core_groups
    return fwd / cg_count, back / cg_count


@dataclass
class LayerTiming:
    """Per-layer timing of one training step."""

    name: str
    kind: str
    flops: int
    forward_seconds: float
    backward_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.forward_seconds + self.backward_seconds


@dataclass
class NetworkTiming:
    """Whole-network training-step timing on one chip (4 CGs assumed
    linear per Section III-D, so per-CG time / 4)."""

    network: str
    batch: int
    layers: List[LayerTiming]

    @property
    def step_seconds(self) -> float:
        return sum(l.total_seconds for l in self.layers)

    @property
    def total_flops(self) -> int:
        return 3 * sum(l.flops for l in self.layers)  # fwd + 2 bwd passes

    @property
    def sustained_gflops(self) -> float:
        if self.step_seconds <= 0:
            return 0.0
        return self.total_flops / self.step_seconds / 1e9

    @property
    def images_per_second(self) -> float:
        if self.step_seconds <= 0:
            return 0.0
        return self.batch / self.step_seconds


def time_network(
    name: str, batch: Optional[int] = None, spec: SW26010Spec = DEFAULT_SPEC
) -> NetworkTiming:
    """Time one training step of a zoo network on the whole chip."""
    try:
        builder = NETWORKS[name]
    except KeyError:
        raise PlanError(
            f"unknown network {name!r}; available: {sorted(NETWORKS)}"
        ) from None
    layers = builder(batch) if batch is not None else builder()
    actual_batch = (
        layers[0].conv.b if layers[0].kind == "conv" else layers[0].fc.n
    )
    timings = [
        LayerTiming(
            layer.name, layer.kind, layer.flops(), *training_cost(layer.params, spec)
        )
        for layer in layers
    ]
    return NetworkTiming(network=name, batch=actual_batch, layers=timings)
