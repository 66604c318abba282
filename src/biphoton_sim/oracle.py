"""Dense brute-force reference implementations for tests and acceptance checks.

Everything here materializes full matrices and is capped in size; nothing on
the production path may call into this module.  Agreement between these
oracles and the block/series machinery is the package's main line of
evidence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import GeneratorZ

__all__ = [
    "DenseState",
    "MAX_DENSE_DIM",
    "dense_covariance_exp",
    "dense_log_det",
    "dense_projection_eigs",
    "detector_parts_from_covariance",
    "tmsv_statistics",
]

MAX_DENSE_DIM = 4000


@dataclass(frozen=True)
class DenseState:
    """Dense Hermitian matrix over the flattened (mode x grid) index space."""

    matrix: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError("matrix must be Hermitian within 1e-12")
        if self.weights.shape != (m.shape[0],):
            raise ValueError("weights must match the flattened dimension")


def _flatten_blocks(blocks, row_sizes, col_sizes) -> np.ndarray:
    """Materialize a block grid; independent of the block-algebra code paths."""
    out = np.zeros((sum(row_sizes), sum(col_sizes)), dtype=complex)
    r0 = 0
    for i, nr in enumerate(row_sizes):
        c0 = 0
        for j, nc in enumerate(col_sizes):
            b = blocks[i][j]
            if b is None:
                pass
            elif isinstance(b, np.ndarray) and b.ndim == 2:
                out[r0:r0 + nr, c0:c0 + nc] = b
            elif isinstance(b, np.ndarray) and b.ndim == 1:
                out[r0:r0 + nr, c0:c0 + nc] = np.diag(b.astype(complex))
            else:
                out[r0:r0 + nr, c0:c0 + nc] = b * np.eye(nr)
            c0 += nc
        r0 += nr
    return out


def dense_covariance_exp(z: GeneratorZ) -> DenseState:
    """Renormalized covariance (exp(2 Z) - 1)/2 by Hermitian eigendecomposition."""
    mat = z.mat
    dim = sum(mat.row_sizes)
    if dim > MAX_DENSE_DIM:
        raise ValueError(f"dense oracle capped at dimension {MAX_DENSE_DIM}, got {dim}")
    zd = _flatten_blocks(mat.blocks, mat.row_sizes, mat.col_sizes)
    zd = (zd + zd.conj().T) / 2.0
    evals, evecs = np.linalg.eigh(zd)
    gamma = (evecs * np.expm1(2.0 * evals)) @ evecs.conj().T / 2.0
    gamma = (gamma + gamma.conj().T) / 2.0
    weights = np.concatenate([d.grid.weights for d in z.dofs] * 2)
    return DenseState(gamma, weights)


def dense_log_det(operand) -> float:
    """log|det(1 + K)| via LU factorization."""
    k = operand.matrix if isinstance(operand, DenseState) else np.asarray(operand)
    if k.shape[0] > MAX_DENSE_DIM:
        raise ValueError(f"dense oracle capped at dimension {MAX_DENSE_DIM}")
    sign, logdet = np.linalg.slogdet(np.eye(k.shape[0]) + k)
    if sign == 0:
        raise np.linalg.LinAlgError("1 + K is singular")
    return float(logdet)


def dense_projection_eigs(state, mask) -> np.ndarray:
    """Eigenvalues (ascending) of the masked principal submatrix."""
    m = state.matrix if isinstance(state, DenseState) else np.asarray(state)
    idx = np.asarray(mask, dtype=int)
    if idx.size == 0:
        return np.array([])
    if idx.min() < 0 or idx.max() >= m.shape[0]:
        raise ValueError("mask indices outside the state dimension")
    sub = m[np.ix_(idx, idx)]
    return np.linalg.eigvalsh(sub)


def detector_parts_from_covariance(gamma, detectors) -> list:
    """Dense per-detector pieces K_d of W Gamma = sum_d w_d K_d.

    `detectors` assigns a detector index (or None) to every DOF.
    """
    if len(detectors) != gamma.n_dofs:
        raise ValueError("one detector assignment per DOF required")
    sizes = gamma.mat.row_sizes
    dense = _flatten_blocks(gamma.mat.blocks, sizes, gamma.mat.col_sizes)
    n_det = max(d for d in detectors if d is not None) + 1
    parts = []
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    for d in range(n_det):
        mask = np.zeros(dense.shape[0])
        for blk_row in range(len(sizes)):
            if detectors[blk_row % gamma.n_dofs] == d:
                mask[offsets[blk_row] : offsets[blk_row + 1]] = 1.0
        parts.append(mask[:, None] * dense)
    return parts


def tmsv_statistics(sigma: float, eta: float, n_max: int) -> np.ndarray:
    """Joint photon statistics of a lossy two-mode squeezed vacuum.

    Pair number k is geometric with ratio tanh^2(sigma/2); each arm then
    thins binomially with survival probability eta^2 (eta is the field
    transmittivity).  Returns P[n, m] for n, m <= n_max.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if not 0 <= eta <= 1:
        raise ValueError("eta must lie in [0, 1]")
    tau2 = math.tanh(sigma / 2.0) ** 2
    p_click = eta * eta
    pmf = np.zeros((n_max + 1, n_max + 1))
    k = 0
    weight = 1.0 - tau2  # P(k pairs) = (1 - tau2) tau2^k
    while True:
        thin = np.array(
            [
                math.comb(k, n) * p_click**n * (1.0 - p_click) ** (k - n)
                for n in range(min(k, n_max) + 1)
            ]
        )
        pmf[: thin.size, : thin.size] += weight * np.outer(thin, thin)
        k += 1
        weight_next = (1.0 - tau2) * tau2**k
        if k > n_max and weight_next < 1e-24:
            break
        weight = weight_next
        if k > 200000:  # pragma: no cover - defensive cap
            break
    return pmf
