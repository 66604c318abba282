"""Dense brute-force reference implementations for tests and acceptance checks.

Everything here materializes full matrices and is capped in size; nothing on
the production path may call into this module.  The pair-creation generator
Z of a JSA, its exponential (exp(2 Z) - 1)/2 and its truncated series are
built here from the JSA samples with plain numpy, as are the sandwich
s Gamma s^dag of a transform, the detector parts of an operand and the
single-pair detection probabilities of the lossy, windowed JSA.
Agreement between these oracles and the Schmidt-factor and series machinery
is the package's main line of evidence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import ProcessType, SqueezingSpectrum, mean_pairs, source_dofs
from .detection import PoissonParams, log_series_power_sum
from .transforms import _window_mask, fourier_kernel, output_dofs, projection_masks

__all__ = [
    "DenseState",
    "MAX_DENSE_DIM",
    "dense_generator",
    "dense_covariance_exp",
    "dense_covariance_series",
    "dense_sandwich",
    "dense_log_det",
    "log_det_series",
    "dense_projection_eigs",
    "detector_parts_compressed",
    "detector_parts_from_covariance",
    "gain_for_mean_pairs_reference",
    "poisson_params_reference",
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


def _check_dim(dim: int) -> None:
    if dim > MAX_DENSE_DIM:
        raise ValueError(f"dense oracle capped at dimension {MAX_DENSE_DIM}, got {dim}")


def dense_generator(jsa, gain: float, process: ProcessType) -> DenseState:
    """Pair-creation generator Z of a JSA over the rows of its source modes
    (annihilation rows first, then creation rows); the covariance is exp(2 Z).

    Type-0/I pairs the one mode with itself, gain psi between its
    annihilation and creation rows; type-II pairs signal with idler, gain/2
    psi in the anti-diagonal blocks.
    """
    if gain < 0:
        raise ValueError("gain must be non-negative")
    psi = jsa.symmetrized()
    if process is ProcessType.TYPE_0I:
        if not jsa.grid_signal.same_points(jsa.grid_idler):
            raise ValueError("type-0/I requires identical signal and idler grids")
        if np.max(np.abs(psi - psi.T)) > 1e-8:
            raise ValueError("type-0/I requires a symmetric JSA")
        placed = {(0, 1): gain * psi, (1, 0): gain * psi.conj().T}
    else:
        half = gain / 2.0
        placed = {(0, 3): half * psi, (1, 2): half * psi.T,
                  (2, 1): half * psi.conj(), (3, 0): half * psi.conj().T}
    dofs = source_dofs(jsa, process)
    offsets = np.cumsum([0] + [d.grid.n for d in dofs] * 2)
    _check_dim(offsets[-1])
    z = np.zeros((offsets[-1], offsets[-1]), dtype=complex)
    for (i, j), block in placed.items():
        z[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]] = block
    return DenseState(z, np.concatenate([d.grid.weights for d in dofs] * 2))


def dense_covariance_exp(z: DenseState) -> DenseState:
    """Renormalized covariance (exp(2 Z) - 1)/2 by Hermitian eigendecomposition."""
    _check_dim(z.matrix.shape[0])
    zd = (z.matrix + z.matrix.conj().T) / 2.0
    evals, evecs = np.linalg.eigh(zd)
    gamma = (evecs * np.expm1(2.0 * evals)) @ evecs.conj().T / 2.0
    gamma = (gamma + gamma.conj().T) / 2.0
    return DenseState(gamma, z.weights)


def dense_covariance_series(z: DenseState, order: int) -> np.ndarray:
    """Truncated series sum_{n=1..order} (2 Z)^n / (2 n!) of the covariance."""
    if order < 1:
        raise ValueError("order must be at least 1")
    _check_dim(z.matrix.shape[0])
    two_z = 2.0 * z.matrix
    term = two_z
    acc = term / 2.0
    fact = 1.0
    for n in range(2, order + 1):
        term = term @ two_z
        fact *= n
        acc = acc + term / (2.0 * fact)
    return acc


def dense_sandwich(s, gamma) -> np.ndarray:
    """s Gamma s^dag; a 1-D `s` is the diagonal of a diagonal transform (a
    loss or a window mask)."""
    s, gamma = np.asarray(s), np.asarray(gamma)
    _check_dim(max(s.shape[0], gamma.shape[0]))
    if s.ndim == 1:
        return s[:, None] * gamma * s.conj()[None, :]
    return s @ gamma @ s.conj().T


def dense_log_det(operand) -> float:
    """log|det(1 + K)| via LU factorization."""
    k = operand.matrix if isinstance(operand, DenseState) else np.asarray(operand)
    _check_dim(k.shape[0])
    sign, logdet = np.linalg.slogdet(np.eye(k.shape[0]) + k)
    if sign == 0:
        raise np.linalg.LinAlgError("1 + K is singular")
    return float(logdet)


def log_det_series(mat: np.ndarray, order: int) -> float:
    """Truncated log det(1 + K) = sum_{n=1..N} (-1)^(n+1) Tr(K^n) / n, K square,
    as the power sum of the eigenvalues of K (`log_series_power_sum`), which
    warns when the spectral radius of K exceeds 0.95.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if not (isinstance(mat, np.ndarray) and mat.ndim == 2 and mat.shape[0] == mat.shape[1]):
        raise TypeError("operand must be a square 2-D array")
    return log_series_power_sum(np.linalg.eigvals(mat), order)


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


def detector_parts_from_covariance(gamma, sizes, detectors) -> list:
    """Dense per-detector pieces K_d of W Gamma = sum_d w_d K_d.

    `gamma` is a dense covariance over the annihilation then creation rows of
    modes with grid sizes `sizes`; `detectors` assigns a detector index (or
    None) to every mode.
    """
    if len(detectors) != len(sizes):
        raise ValueError("one detector assignment per DOF required")
    dense = np.asarray(gamma)
    n_det = max(d for d in detectors if d is not None) + 1
    row_detector = np.repeat(list(detectors) * 2, list(sizes) * 2)
    return [(row_detector == d)[:, None] * dense for d in range(n_det)]


def detector_parts_compressed(s, p, gamma, detectors, out_dofs=None) -> list:
    """Dense per-detector pieces of the compressed operand s^dag W P s Gamma."""
    dofs = out_dofs if out_dofs is not None else output_dofs(s, gamma.dofs)
    if len(detectors) != len(dofs):
        raise ValueError("one detector assignment per output DOF required")
    masks = projection_masks(p, dofs)
    s_dense = s.mat.to_dense()
    g_dense = gamma.mat.to_dense()
    sizes = s.mat.row_sizes
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    n_det = max(d for d in detectors if d is not None) + 1
    parts = []
    for d in range(n_det):
        mask = np.zeros(s_dense.shape[0])
        for blk_row in range(len(sizes)):
            if detectors[blk_row % len(dofs)] == d:
                mask[offsets[blk_row] : offsets[blk_row + 1]] = masks[blk_row % len(dofs)]
        parts.append(s_dense.conj().T @ (mask[:, None] * s_dense) @ g_dense)
    return parts


def gain_for_mean_pairs_reference(schmidt, mu: float, process: ProcessType) -> float:
    """Bisection for the gain that builds a SqueezingSpectrum at every step.

    The independent reference for covariance.gain_for_mean_pairs, whose
    Newton iteration must agree with it within 4 ulp.
    """
    if mu < 0:
        raise ValueError("mu must be non-negative")
    if mu == 0:
        return 0.0
    lead = schmidt.coefficients[0]
    if lead == 0:
        raise ValueError("cannot reach a positive mu with an all-zero spectrum")

    def mu_of(gain: float) -> float:
        return mean_pairs(SqueezingSpectrum.from_schmidt(schmidt, gain, process))

    if process is ProcessType.TYPE_0I:
        hi = math.asinh(math.sqrt(2.0 * mu)) / lead
    else:
        hi = 2.0 * math.asinh(math.sqrt(mu)) / lead
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if mu_of(mid) < mu:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _arm_operators(window, eta, grid):
    """Fourier kernel (None in the frequency domain), window mask and sampled
    transmittivity of one detected arm."""
    kern, grid_out = None, grid
    if window is not None and window.domain == "time":
        kern, grid_out = fourier_kernel(grid)
    eta_arr = np.broadcast_to(np.asarray(eta, dtype=float), (grid.n,))
    return kern, _window_mask(window, grid_out), eta_arr


def poisson_params_reference(jsa, etas: tuple, windows, gain: float,
                             process: ProcessType) -> PoissonParams:
    """Single-pair detection probabilities integrated over the windows, from
    the dense n x n JSA.

    The reference for the single-pair probabilities `run` takes from the
    masked Schmidt factor.  `etas` holds each arm's field transmittivity in
    [0, 1], a scalar or sampled on its grid.  Loss acts on the spectral
    kernel first; axes whose window lives in the time domain are
    Fourier-transformed before masking.  A window that does not fit its
    arm's grid raises ValueError naming `windows[k]`.
    """
    arrays = [np.asarray(eta, dtype=float) for eta in etas]
    if not all(np.all((a >= 0) & (a <= 1)) for a in arrays):
        raise ValueError("field transmittivity must lie in [0, 1]")
    psi = jsa.symmetrized()
    shared = process is ProcessType.TYPE_0I
    if shared:
        if len(windows.windows) != 1 or len(etas) != 1:
            raise ValueError("type-0/I detection uses a single shared window and loss")
        # both photons occupy one mode: one window, loss and grid for both axes
        arms = [(windows.windows[0], etas[0], jsa.grid_signal)] * 2
    else:
        if len(windows.windows) != 2 or len(etas) != 2:
            raise ValueError("type-II detection uses one window and loss per arm")
        arms = zip(windows.windows, etas, (jsa.grid_signal, jsa.grid_idler))
    operators = []
    for k, arm in enumerate(arms):
        try:
            operators.append(_arm_operators(*arm))
        except ValueError as exc:
            raise type(exc)(f"windows[{k}]: {exc}") from None
    (kern_s, mask_s, eta_s), (kern_i, mask_i, eta_i) = operators

    # marginal detection: loss only on the detected photon's axis
    chi_s = eta_s[:, None] * psi
    if kern_s is not None:
        chi_s = kern_s @ chi_s
    p_s = float(mask_s @ (np.abs(chi_s) ** 2).sum(axis=1))

    if shared:
        p_i = p_s
    else:
        chi_i = psi * eta_i[None, :]
        if kern_i is not None:
            chi_i = chi_i @ kern_i.T
        p_i = float(mask_i @ (np.abs(chi_i) ** 2).sum(axis=0))

    chi_si = eta_s[:, None] * psi * eta_i[None, :]
    if kern_s is not None:
        chi_si = kern_s @ chi_si
    if kern_i is not None:
        chi_si = chi_si @ kern_i.T
    p_si = float(mask_s @ (np.abs(chi_si) ** 2) @ mask_i)

    mu = gain * gain / (2.0 if shared else 4.0)
    return PoissonParams(mu, p_s, p_i, p_si)


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
