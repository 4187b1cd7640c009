"""NPB CG — Conjugate Gradient (memory-latency bound).

Estimates the largest eigenvalue of a sparse symmetric positive-definite
matrix with inverse power iteration, each step solving ``A z = x`` by
conjugate gradients.  The SpMV's indirect column accesses are what make CG
a memory-*latency* benchmark; rows are block-partitioned across ranks and
the iterate is refreshed with an allgather, dot products with allreduces —
the same communication structure as NPB's CG.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ...isa.opcodes import OpClass
from ...smpi.comm import Comm
from ..base import PhaseEmitter
from .common import AddressSpace, NPBResult, check_class, run_npb_program

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["CG_CLASSES", "build_matrix", "cg_reference", "cg_program", "run_cg"]

#: (n, nonzeros per row, CG iterations, outer iterations).  Class A is
#: sized so the iterate just exceeds a 32 KiB L1 (the latency regime NPB
#: CG targets) while traces stay tractable.
CG_CLASSES = {
    "S": (256, 4, 2, 1),
    "W": (1024, 6, 3, 1),
    "A": (4096, 6, 4, 1),
}


def build_matrix(cls: str, seed: int = 12) -> sparse.csr_matrix:
    """Random sparse SPD matrix in the spirit of NPB's makea."""
    # the only scipy user: nothing else pays for importing it
    from scipy import sparse

    n, nzr, _, _ = CG_CLASSES[cls]
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(n), nzr)
    cols = rng.integers(0, n, size=n * nzr)
    vals = rng.random(n * nzr) * 2 - 1
    m = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    m = m + m.T  # symmetrise
    # diagonal dominance makes it SPD
    m = m + sparse.diags(np.abs(m).sum(axis=1).A1 + 1.0)
    return m.tocsr()


def cg_reference(cls: str) -> float:
    """Serial reference: the final residual-based zeta estimate."""
    a = build_matrix(cls)
    n, _, cg_iters, outer = CG_CLASSES[cls]
    x = np.ones(n)
    zeta = 0.0
    for _ in range(outer):
        z, _ = _serial_cg(a, x, cg_iters)
        zeta = 20.0 + 1.0 / float(x @ z)
        x = z / np.linalg.norm(z)
    return zeta


def _serial_cg(a, b, iters):
    z = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rho = float(r @ r)
    for _ in range(iters):
        q = a @ p
        alpha = rho / float(p @ q)
        z = z + alpha * p
        r = r - alpha * q
        rho_new = float(r @ r)
        beta = rho_new / rho
        rho = rho_new
        p = r + beta * p
    return z, float(np.linalg.norm(b - a @ z))


def cg_program(comm: Comm, cls: str):
    """Per-rank CG: block rows of A, allgather for x, allreduce for dots."""
    n, nzr, cg_iters, outer = CG_CLASSES[cls]
    a = build_matrix(cls)
    p_ = comm.size
    lo = comm.rank * n // p_
    hi = (comm.rank + 1) * n // p_
    a_local = a[lo:hi]  # csr block of my rows

    asp = AddressSpace(comm.rank)
    x_base = asp.alloc(n * 8)          # full iterate (gathered)
    col_addrs_all = asp.addrs(x_base, a_local.indices)  # gather targets
    vals_base = asp.alloc(a_local.nnz * 8)
    z_base = asp.alloc((hi - lo) * 8)
    r_base = asp.alloc((hi - lo) * 8)
    p_base = asp.alloc((hi - lo) * 8)
    em = PhaseEmitter()
    rows_local = hi - lo

    def spmv_trace():
        """Gather loads through the column indices + the row value stream."""
        val_addrs = (vals_base + np.arange(a_local.nnz, dtype=np.int64) * 8
                     ).astype(np.uint64)
        loads = np.empty(2 * a_local.nnz, dtype=np.uint64)
        loads[0::2] = val_addrs
        loads[1::2] = col_addrs_all      # the indirect accesses
        # rows are independent accumulation chains, so element-level FMAs
        # expose the gather-load latency instead of hiding it behind one
        # serial chain (matching real SpMV criticality)
        return em.emit(loads=loads, fp_per_elem=1.0, int_per_elem=1.0,
                       fp_op=OpClass.FP_FMA, fp_chain=False,
                       elems=a_local.nnz)

    def axpy_trace(k=1.0):
        idx = np.arange(rows_local, dtype=np.int64)
        return em.emit(
            loads=np.concatenate([
                asp.addrs(r_base, idx), asp.addrs(p_base, idx)
            ]),
            stores=asp.addrs(z_base, idx),
            fp_per_elem=2.0 * k, int_per_elem=1.0,
            elems=rows_local,
        )

    x = np.ones(n)
    zeta = 0.0
    for _ in range(outer):
        # --- CG solve A z = x ---
        z = np.zeros(rows_local)
        r = x[lo:hi].copy()
        p = r.copy()
        rho_local = float(r @ r)
        rho = yield from comm.allreduce(rho_local)
        for _ in range(cg_iters):
            # q = A p  (needs the full p vector)
            p_parts = yield from comm.allgather(p)
            p_full = np.concatenate(p_parts)
            yield from comm.compute(spmv_trace())
            q = a_local @ p_full
            pq = yield from comm.allreduce(float(p @ q))
            alpha = rho / pq
            yield from comm.compute(axpy_trace(1.5))
            z = z + alpha * p
            r = r - alpha * q
            rho_new = yield from comm.allreduce(float(r @ r))
            beta = rho_new / rho
            rho = rho_new
            p = r + beta * p
        # --- zeta update ---
        xz_local = float(x[lo:hi] @ z)
        xz = yield from comm.allreduce(xz_local)
        zeta = 20.0 + 1.0 / xz
        znorm2 = yield from comm.allreduce(float(z @ z))
        z_parts = yield from comm.allgather(z / np.sqrt(znorm2))
        x = np.concatenate(z_parts)
    return zeta


def run_cg(config, nranks: int = 1, cls: str = "A") -> NPBResult:
    check_class(cls)
    ref = cg_reference(cls)

    def verify(values: list) -> bool:
        return all(np.isclose(v, ref, rtol=1e-9) for v in values)

    return run_npb_program(config, nranks, "CG", cls,
                           lambda comm: cg_program(comm, cls), verify)
