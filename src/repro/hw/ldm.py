"""The per-CPE Local Directive Memory (LDM / scratch-pad).

Each CPE has 64 KB of software-managed fast memory instead of a data cache
(Section III-B).  Plans must explicitly place every tile they work on, and a
plan that does not fit is infeasible — the allocator here enforces that, which
is what makes the LDM-blocking feasibility checks in ``repro.core`` real
constraints rather than documentation.

:class:`LDMAllocator` is a simple bump allocator with named regions and
explicit double-buffer pairs; :class:`LDMBuffer` wraps the NumPy storage for
one region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.errors import LDMOverflowError, SimulationError
from repro.common.units import bytes_to_human
from repro.hw.spec import SW26010Spec, DEFAULT_SPEC
from repro.telemetry import current_telemetry


@dataclass
class LDMBuffer:
    """A named region of one CPE's LDM holding a typed array."""

    name: str
    offset: int
    data: np.ndarray
    #: Optional :class:`repro.faults.FaultPlan` injecting ECC events on reads.
    fault_plan: Optional[object] = None

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def read(self, index=slice(None)) -> np.ndarray:
        """Read a slice of the buffer.

        With a fault plan attached, the read may observe an LDM bit-flip:
        corrected (single-bit) events are logged to the ledger only;
        uncorrectable ones raise :class:`~repro.common.errors.ECCError`.
        """
        if self.fault_plan is not None:
            self.fault_plan.maybe_ecc(self.name, self.nbytes)
        return self.data[index]

    def write(self, index, value) -> None:
        """Write a slice of the buffer."""
        value = np.asarray(value)
        target = self.data[index]
        if target.shape != value.shape:
            raise SimulationError(
                f"LDM buffer {self.name!r}: write shape {value.shape} does not "
                f"match region shape {target.shape}"
            )
        self.data[index] = value

    def fill(self, value: float) -> None:
        """Fill the whole buffer with a constant."""
        self.data[...] = value


class LDMAllocator:
    """Bump allocator over one CPE's 64 KB LDM.

    Allocations are aligned to 32 bytes (one vector register) so vector
    loads from LDM are always naturally aligned.
    """

    ALIGN = 32

    def __init__(self, capacity: int, fault_plan=None, telemetry=None):
        if capacity <= 0:
            raise ValueError(f"LDM capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.fault_plan = fault_plan
        #: Captured at construction (see :mod:`repro.telemetry.session`);
        #: the null session's methods are shared no-ops.
        self.telemetry = telemetry if telemetry is not None else current_telemetry()
        self._cursor = 0
        self._buffers: Dict[str, LDMBuffer] = {}

    @property
    def bytes_used(self) -> int:
        return self._cursor

    @property
    def bytes_free(self) -> int:
        return self.capacity - self._cursor

    def alloc(self, name: str, shape, dtype=np.float64) -> LDMBuffer:
        """Allocate a zeroed, named region; raises LDMOverflowError if full.

        The capacity is checked from ``shape`` and ``dtype`` before any
        host memory is allocated.
        """
        if name in self._buffers:
            raise SimulationError(f"LDM buffer {name!r} already allocated")
        dims = (shape,) if np.ndim(shape) == 0 else shape
        nbytes = math.prod(int(d) for d in dims) * np.dtype(dtype).itemsize
        padded = _round_up(nbytes, self.ALIGN)
        if self._cursor + padded > self.capacity:
            raise LDMOverflowError(
                f"LDM overflow allocating {name!r}: need {bytes_to_human(padded)}, "
                f"free {bytes_to_human(self.bytes_free)} of "
                f"{bytes_to_human(self.capacity)}"
            )
        data = np.zeros(shape, dtype=dtype)
        buffer = LDMBuffer(
            name=name, offset=self._cursor, data=data, fault_plan=self.fault_plan
        )
        self._cursor += padded
        self._buffers[name] = buffer
        self.telemetry.counters.record_max("ldm.high_water_bytes", self._cursor)
        return buffer

    def alloc_double_buffer(
        self, name: str, shape, dtype=np.float64
    ) -> Tuple[LDMBuffer, LDMBuffer]:
        """Allocate a ping/pong pair for DMA-compute overlap (Section IV-A)."""
        return (
            self.alloc(f"{name}.ping", shape, dtype),
            self.alloc(f"{name}.pong", shape, dtype),
        )

    def get(self, name: str) -> LDMBuffer:
        try:
            return self._buffers[name]
        except KeyError:
            raise SimulationError(f"LDM buffer {name!r} is not allocated") from None

    def __contains__(self, name: str) -> bool:
        return name in self._buffers

    def buffers(self) -> List[LDMBuffer]:
        return list(self._buffers.values())

    def reset(self) -> None:
        """Free everything."""
        self._cursor = 0
        self._buffers.clear()

    def would_fit(self, *nbytes: int) -> bool:
        """Check whether a set of allocations would fit without allocating."""
        total = sum(_round_up(n, self.ALIGN) for n in nbytes)
        return self._cursor + total <= self.capacity


class LDM(LDMAllocator):
    """One CPE's LDM, sized from the architecture spec."""

    def __init__(self, spec: SW26010Spec = DEFAULT_SPEC, fault_plan=None, telemetry=None):
        super().__init__(
            capacity=spec.ldm_bytes, fault_plan=fault_plan, telemetry=telemetry
        )
        self.spec = spec


def _round_up(value: int, multiple: int) -> int:
    return -(-value // multiple) * multiple
