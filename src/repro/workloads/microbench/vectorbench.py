"""RVV vector kernels (extension study, not part of Table 1).

The K1 implements 256-bit RVV 1.0 but the paper ran scalar code because
the FireSim targets have no vector unit (§3.1.2/§3.2).  These kernels are
the vectorised twins of the scalar data-parallel kernels, used by the RVV
ablation to quantify what disabling the vector unit cost the hardware.
"""

from __future__ import annotations

from ...isa.opcodes import OpClass
import numpy as np

from ...isa.trace import ColumnBuilder, Trace
from ..base import KernelSpec, LoopEmitter, MicroKernel
from .dataparallel import _A, _B, _C

__all__ = ["DP1dRVV", "DPcvtRVV", "vector_twin"]


class DP1dRVV(MicroKernel):
    """Vectorised DP1d: c[i] = fma(a[i], b[i]) with 256-bit vector ops."""

    spec = KernelSpec("DP1d_rvv", "Vector",
                      "Data parallel loop - Double arithmetic (RVV 256-bit)")
    default_ops = 32_000
    vl_bytes = 32          #: one 256-bit register of doubles
    array_elems = 16384    #: same footprint as scalar DP1d

    def build(self, scale: float = 1.0, seed: int = 0) -> Trace:
        elems_per_iter = self.vl_bytes // 8
        # cover the same element count as scalar DP1d at this scale
        scalar_iters = max(4, int(self.default_ops / 6 * scale))
        n = max(4, scalar_iters // elems_per_iter)
        wrap = self.array_elems // elems_per_iter
        em = LoopEmitter()

        def body(b: ColumnBuilder, i: np.ndarray) -> None:
            k = (i % wrap) * self.vl_bytes
            b.vload(40, _A + k, self.vl_bytes, base=10)
            b.vload(41, _B + k, self.vl_bytes, base=11)
            b.vfma(42, 40, 41, nbytes=self.vl_bytes)
            b.vstore(42, _C + k, self.vl_bytes, base=12)
            b.alu(9, 9, 13)

        em.loop(n, body)
        return em.build()


class DPcvtRVV(MicroKernel):
    """Vectorised DPcvt: widen a float stream to double, RVV style."""

    spec = KernelSpec("DPcvt_rvv", "Vector",
                      "Data parallel loop - Float to Double (RVV 256-bit)")
    default_ops = 32_000
    vl_bytes = 32

    def build(self, scale: float = 1.0, seed: int = 0) -> Trace:
        elems_per_iter = self.vl_bytes // 4  # 8 floats in, 8 doubles out
        scalar_iters = max(4, int(self.default_ops / 6 * scale))
        n = max(4, scalar_iters // elems_per_iter)
        wrap = 16384 // elems_per_iter
        em = LoopEmitter()

        def body(b: ColumnBuilder, i: np.ndarray) -> None:
            k = i % wrap
            b.vload(40, _A + k * self.vl_bytes, self.vl_bytes, base=10)
            b.valu(41, 40, nbytes=self.vl_bytes)  # widening convert, 2 regs out
            b.valu(42, 40, nbytes=self.vl_bytes)
            b.vstore(41, _C + k * 2 * self.vl_bytes, self.vl_bytes, base=12)
            b.vstore(42, _C + k * 2 * self.vl_bytes + self.vl_bytes,
                     self.vl_bytes, base=12)
            b.alu(9, 9, 13)

        em.loop(n, body)
        return em.build()


#: scalar kernel name -> its vector twin
VECTOR_TWINS = {"DP1d": DP1dRVV, "DPcvt": DPcvtRVV}


def vector_twin(scalar_name: str) -> MicroKernel:
    """The RVV twin of a scalar data-parallel kernel."""
    try:
        return VECTOR_TWINS[scalar_name]()
    except KeyError:
        raise KeyError(
            f"no vector twin for {scalar_name!r}; available: "
            f"{sorted(VECTOR_TWINS)}"
        ) from None
