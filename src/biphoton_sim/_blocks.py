"""Block algebra for operators over (discrete mode x frequency grid) index spaces.

All kernel blocks are stored weight-symmetrized, i.e. a kernel K(w, w') is
discretized as sqrt(w_m) K(w_m, w_n) sqrt(w_n).  In this representation
operator composition, traces, determinants and spectra reduce to plain matrix
algebra, independent of the quadrature weights.

A block is one of

* ``None``        -- the zero block,
* a scalar        -- a multiple of the identity (square positions only),
* a 1-D ndarray   -- a multiplication operator (diagonal kernel),
* a 2-D ndarray   -- a dense kernel matrix.

Products and sums short-circuit on the symbolic variants, so compositions of
many transforms only do dense work where dense kernels actually meet.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

Block = Union[None, complex, np.ndarray]

_SCALAR_TYPES = (int, float, complex, np.integer, np.floating, np.complexfloating)


def _ndim(b: Block) -> int:
    if isinstance(b, _SCALAR_TYPES):
        return 0
    return b.ndim


def block_mul(a: Block, b: Block) -> Block:
    """Compose two blocks (operator product)."""
    if a is None or b is None:
        return None
    na, nb = _ndim(a), _ndim(b)
    if na == 0 and nb == 0:
        return a * b
    if na == 0:
        return None if a == 0 else a * b
    if nb == 0:
        return None if b == 0 else a * b
    if na == 1 and nb == 1:
        return a * b
    if na == 1 and nb == 2:
        return a[:, None] * b
    if na == 2 and nb == 1:
        return a * b[None, :]
    return a @ b


def block_add(a: Block, b: Block) -> Block:
    """Sum of two blocks at the same position."""
    if a is None:
        return b
    if b is None:
        return a
    na, nb = _ndim(a), _ndim(b)
    if na == 0 and nb == 0:
        return a + b
    if na == 2 and nb == 2:
        return a + b
    if {na, nb} == {1, 2} or {na, nb} == {0, 2}:
        dense = a if na == 2 else b
        other = b if na == 2 else a
        out = dense.astype(complex, copy=True)
        idx = np.arange(min(out.shape[0], out.shape[1]))
        out[idx, idx] += other if _ndim(other) == 0 else np.asarray(other)[idx]
        return out
    # scalar + diag or diag + diag
    return a + b


def block_scale(a: Block, c: complex) -> Block:
    if a is None or c == 0:
        return None
    return c * a


def block_adjoint(a: Block) -> Block:
    if a is None:
        return None
    if _ndim(a) == 0:
        return np.conjugate(a)
    if a.ndim == 1:
        return np.conjugate(a)
    return a.conj().T


def block_trace(a: Block, n: int) -> complex:
    if a is None:
        return 0.0
    if _ndim(a) == 0:
        return a * n
    if a.ndim == 1:
        return complex(np.sum(a))
    return complex(np.trace(a))


def block_to_dense(a: Block, nrow: int, ncol: int) -> np.ndarray:
    if a is None:
        return np.zeros((nrow, ncol), dtype=complex)
    if _ndim(a) == 0:
        if nrow != ncol:
            raise ValueError("scalar (identity-multiple) block at a non-square position")
        return a * np.eye(nrow, dtype=complex)
    if a.ndim == 1:
        if nrow != ncol or a.shape[0] != nrow:
            raise ValueError(f"diagonal block of length {a.shape[0]} at a ({nrow}, {ncol}) position")
        return np.diag(a.astype(complex))
    if a.shape != (nrow, ncol):
        raise ValueError(f"dense block of shape {a.shape} at a ({nrow}, {ncol}) position")
    return a.astype(complex, copy=False)


def block_matvec(a: Block, v: np.ndarray, nrow: int) -> np.ndarray:
    if a is None:
        return np.zeros(nrow, dtype=complex)
    if _ndim(a) <= 1:
        return a * v
    return a @ v


@dataclass(frozen=True)
class BlockMatrix:
    """A grid of blocks with per-row and per-column grid sizes."""

    blocks: tuple
    row_sizes: tuple
    col_sizes: tuple

    def __post_init__(self):
        if len(self.blocks) != len(self.row_sizes):
            raise ValueError("block grid row count does not match row_sizes")
        for row in self.blocks:
            if len(row) != len(self.col_sizes):
                raise ValueError("block grid column count does not match col_sizes")

    @property
    def shape(self) -> tuple:
        return (sum(self.row_sizes), sum(self.col_sizes))

    @staticmethod
    def zeros(row_sizes: Sequence[int], col_sizes: Sequence[int] | None = None) -> "BlockMatrix":
        col_sizes = row_sizes if col_sizes is None else col_sizes
        blocks = tuple(tuple(None for _ in col_sizes) for _ in row_sizes)
        return BlockMatrix(blocks, tuple(row_sizes), tuple(col_sizes))

    @staticmethod
    def identity(sizes: Sequence[int]) -> "BlockMatrix":
        return BlockMatrix.diagonal([1.0] * len(sizes), sizes)

    @staticmethod
    def diagonal(entries: Sequence[Block], sizes: Sequence[int]) -> "BlockMatrix":
        """Block-diagonal matrix from per-position scalar/diagonal/dense entries."""
        if len(entries) != len(sizes):
            raise ValueError("one diagonal entry per block position required")
        n = len(sizes)
        blocks = tuple(
            tuple(entries[i] if i == j else None for j in range(n)) for i in range(n)
        )
        return BlockMatrix(blocks, tuple(sizes), tuple(sizes))

    def __matmul__(self, other: "BlockMatrix") -> "BlockMatrix":
        if self.col_sizes != other.row_sizes:
            raise ValueError(
                f"block shape mismatch: {self.col_sizes} columns vs {other.row_sizes} rows"
            )
        nr, nk, nc = len(self.row_sizes), len(self.col_sizes), len(other.col_sizes)
        out = []
        for i in range(nr):
            row = []
            for j in range(nc):
                acc: Block = None
                for k in range(nk):
                    acc = block_add(acc, block_mul(self.blocks[i][k], other.blocks[k][j]))
                row.append(acc)
            out.append(tuple(row))
        return BlockMatrix(tuple(out), self.row_sizes, other.col_sizes)

    def add(self, other: "BlockMatrix") -> "BlockMatrix":
        if self.row_sizes != other.row_sizes or self.col_sizes != other.col_sizes:
            raise ValueError("block shape mismatch in addition")
        blocks = tuple(
            tuple(block_add(a, b) for a, b in zip(ra, rb))
            for ra, rb in zip(self.blocks, other.blocks)
        )
        return BlockMatrix(blocks, self.row_sizes, self.col_sizes)

    def scale(self, c: complex) -> "BlockMatrix":
        blocks = tuple(tuple(block_scale(b, c) for b in row) for row in self.blocks)
        return BlockMatrix(blocks, self.row_sizes, self.col_sizes)

    def adjoint(self) -> "BlockMatrix":
        nr, nc = len(self.row_sizes), len(self.col_sizes)
        blocks = tuple(
            tuple(block_adjoint(self.blocks[i][j]) for i in range(nr)) for j in range(nc)
        )
        return BlockMatrix(blocks, self.col_sizes, self.row_sizes)

    def trace(self) -> complex:
        if self.row_sizes != self.col_sizes:
            raise ValueError("trace of a non-square block matrix")
        return sum(
            block_trace(self.blocks[i][i], self.row_sizes[i])
            for i in range(len(self.row_sizes))
        )

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=complex)
        r0 = 0
        for i, nr in enumerate(self.row_sizes):
            c0 = 0
            for j, nc in enumerate(self.col_sizes):
                b = self.blocks[i][j]
                if b is not None:
                    out[r0:r0 + nr, c0:c0 + nc] = block_to_dense(b, nr, nc)
                c0 += nc
            r0 += nr
        return out

    def matvec(self, v: np.ndarray) -> np.ndarray:
        if v.shape[0] != sum(self.col_sizes):
            raise ValueError("vector length does not match block columns")
        segs = np.split(v, np.cumsum(self.col_sizes)[:-1])
        out = []
        for i, nr in enumerate(self.row_sizes):
            acc = np.zeros(nr, dtype=complex)
            for j, seg in enumerate(segs):
                b = self.blocks[i][j]
                if b is not None:
                    acc = acc + block_matvec(b, seg, nr)
            out.append(acc)
        return np.concatenate(out)

    def hermiticity_defect(self) -> float:
        """Largest elementwise deviation from self-adjointness."""
        d = self.add(self.adjoint().scale(-1.0)).to_dense()
        return float(np.max(np.abs(d))) if d.size else 0.0
