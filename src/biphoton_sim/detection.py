"""Detection probabilities, generating functions and photon-number statistics.

All photon-number distributions come from one mechanism: the generating
function is written as exp(E) with E a (truncated) multivariate polynomial in
the variables x_d, where x_d = 1 marks "detector d sees everything" and
x_d = 0 extracts the no-click outcome.  Joint probabilities are the Taylor
coefficients of exp(E), obtained exactly with truncated power-series
arithmetic; no finite differences and no symbolic algebra are involved.

Argument conventions follow the natural form of each generating function:
`gf_exact` takes arguments where 0 yields the vacuum probability and 1 the
total probability, while `gf_poisson` and `gf_hermite` take the complementary
variable (vacuum at 1, total at 0).
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.signal import convolve

from ._blocks import BlockMatrix
from .bounds import OutOfDomainError
from .covariance import ProcessType, RenormalizedCovariance, SqueezingSpectrum
from .spectral import DiscretizedJsa, SchmidtSpectrum
from .transforms import (
    DetectionProjection,
    LossProfile,
    SymplecticTransform,
    _window_mask,
    fourier,
    output_dofs,
    projection_masks,
)

__all__ = [
    "SpectralRadiusWarning",
    "InvalidDistributionError",
    "PoissonParams",
    "HermiteParams",
    "ExactProductGf",
    "LogSeriesGf",
    "QuadraticParams",
    "PhotonStatistics",
    "gf_exact",
    "gf_poisson",
    "gf_hermite",
    "hermite_params",
    "hermite_g2",
    "log_det_series",
    "log_series_gf",
    "detector_parts_compressed",
    "poisson_params",
    "pnd",
    "vacuum_probability",
    "quadratic_vacuum",
    "save_pnd_csv",
]


class SpectralRadiusWarning(UserWarning):
    """The operand's spectral radius is too close to 1 for the log series."""


class InvalidDistributionError(ValueError):
    """Parameters outside the region where the model is a distribution."""


# ---------------------------------------------------------------------------
# generating-function parameter sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoissonParams:
    """Bivariate-Poisson parameters: pair mean and single-pair probabilities."""

    mu: float
    p_s: float
    p_i: float
    p_si: float

    def __post_init__(self):
        if self.mu < 0:
            raise ValueError("mu must be non-negative")
        if not (-1e-12 <= self.p_si <= min(self.p_s, self.p_i) + 1e-12):
            raise ValueError("p_si must lie in [0, min(p_s, p_i)]")
        if self.p_s + self.p_i - self.p_si > 1.0 + 1e-12:
            raise ValueError("p_s + p_i - p_si must not exceed 1")

    @property
    def p_union(self) -> float:
        return self.p_s + self.p_i - self.p_si


@dataclass(frozen=True)
class HermiteParams:
    """Bivariate-Hermite parameters: pair mean, pair-pair correlation strength
    and per-detector intensity transmissions."""

    mu: float
    eps2: float
    eta_s2: float = 1.0
    eta_i2: float = 1.0

    def __post_init__(self):
        if self.eps2 < 0:
            raise ValueError("eps2 must be non-negative")
        if self.mu < self.eps2:
            raise InvalidDistributionError(
                f"invalid distribution: mu = {self.mu!r} < eps2 = {self.eps2!r}"
            )
        for eta2 in (self.eta_s2, self.eta_i2):
            if not 0 <= eta2 <= 1:
                raise ValueError("intensity transmissions must lie in [0, 1]")


@dataclass(frozen=True)
class ExactProductGf:
    """Exact per-Schmidt-mode generating function with uniform per-arm loss."""

    spectrum: SqueezingSpectrum
    eta2_s: float = 1.0
    eta2_i: float = 1.0

    def __post_init__(self):
        for eta2 in (self.eta2_s, self.eta2_i):
            if not 0 <= eta2 <= 1:
                raise ValueError("intensity transmissions must lie in [0, 1]")


@dataclass(frozen=True)
class LogSeriesGf:
    """Trace moments Tr[(W Gamma)^n] as polynomials in the detector weights."""

    moments: tuple  # moments[n-1] is an ndarray of shape (n+1,) * detector_count
    order: int
    detector_count: int


@dataclass(frozen=True)
class QuadraticParams:
    """Two-pair state truncation: spectrum, gain, uniform loss and process."""

    spectrum: SchmidtSpectrum
    gain: float
    eta: float
    process: ProcessType


# ---------------------------------------------------------------------------
# scalar generating functions
# ---------------------------------------------------------------------------


def _ln_gf_factor(sigma: np.ndarray, x_prod) -> np.ndarray:
    """ln(cosh^2(s/2) - x_prod * sinh^2(s/2)) per mode, overflow-safe."""
    # cosh^2(s/2) - X sinh^2(s/2) = [(1 - X) cosh(s) + (1 + X)] / 2
    ln_cosh = np.abs(sigma) + np.log1p(np.exp(-2.0 * np.abs(sigma))) - math.log(2.0)
    rest = (1.0 - x_prod) + (1.0 + x_prod) * np.exp(-ln_cosh)
    if np.any(rest <= 0):
        raise OutOfDomainError("generating-function argument outside its domain")
    return ln_cosh + np.log(rest) - math.log(2.0)


def gf_exact(spectrum: SqueezingSpectrum, w, eta2=None) -> float:
    """Exact generating function evaluated in log space.

    `w` follows the convention where 0 returns the vacuum probability and 1
    the total probability; pass a scalar for type-0/I and a (signal, idler)
    pair for type-II.  `eta2` holds optional uniform intensity transmissions
    in the same arity.
    """
    sig = spectrum.sigmas
    if spectrum.process is ProcessType.TYPE_0I:
        x = float(np.squeeze(w))
        e2 = 1.0 if eta2 is None else float(np.squeeze(eta2))
        x_eff = (1.0 - e2) + e2 * x
        ln_factors = _ln_gf_factor(sig, x_eff * x_eff)
        return float(np.exp(-0.5 * np.sum(ln_factors)))
    x_s, x_i = (float(v) for v in np.atleast_1d(w))
    if eta2 is None:
        e2s = e2i = 1.0
    else:
        e2s, e2i = (float(v) for v in np.atleast_1d(eta2))
    y_s = (1.0 - e2s) + e2s * x_s
    y_i = (1.0 - e2i) + e2i * x_i
    ln_factors = _ln_gf_factor(sig, y_s * y_i)
    return float(np.exp(-np.sum(ln_factors)))


def gf_poisson(params: PoissonParams, w_s: float, w_i: float) -> float:
    """Bivariate-Poisson generating function; w = 1 yields the vacuum value."""
    mu = params.mu
    return math.exp(
        -mu * (w_s * params.p_s + w_i * params.p_i - w_s * w_i * params.p_si)
    )


def gf_hermite(
    mu: float,
    eps2: float,
    eta_s2: float,
    eta_i2: float,
    w_s: float,
    w_i: float,
) -> float:
    """Bivariate-Hermite generating function; w = 1 yields the vacuum value."""
    params = HermiteParams(mu, eps2, eta_s2, eta_i2)  # validates mu >= eps2
    y_s = 1.0 - params.eta_s2 * w_s
    y_i = 1.0 - params.eta_i2 * w_i
    return math.exp(
        -0.5 * eps2 * (1.0 - (y_s * y_i) ** 2) - (mu - eps2) * (1.0 - y_s * y_i)
    )


def hermite_params(
    gain: float,
    schmidt_number: float,
    process: ProcessType,
    eta_s2: float = 1.0,
    eta_i2: float = 1.0,
) -> HermiteParams:
    """Pair mean and pair-pair correlation strength of the Hermite model."""
    c2 = gain * gain
    c4 = c2 * c2
    if process is ProcessType.TYPE_0I:
        mu = c2 / 2.0 + c4 / (6.0 * schmidt_number)
        eps2 = c4 / (2.0 * schmidt_number)
    else:
        mu = c2 / 4.0 + c4 / (48.0 * schmidt_number)
        eps2 = c4 / (16.0 * schmidt_number)
    return HermiteParams(mu, eps2, eta_s2, eta_i2)


def hermite_g2(mu: float, eps2: float) -> float:
    """Second-order correlation 1 + eps2 / mu^2 of the Hermite model."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    return 1.0 + eps2 / (mu * mu)


# ---------------------------------------------------------------------------
# determinant log series
# ---------------------------------------------------------------------------


def _operand_matrix(operand) -> BlockMatrix:
    if isinstance(operand, RenormalizedCovariance):
        return operand.mat
    if isinstance(operand, BlockMatrix):
        return operand
    raise TypeError("operand must be a BlockMatrix or RenormalizedCovariance")


def _radius_estimate(mat: BlockMatrix, steps: int = 20) -> float:
    """Cheap spectral-radius estimate by fixed-seed power iteration."""
    n = sum(mat.col_sizes)
    rng = np.random.default_rng(1234)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    rho = 0.0
    for _ in range(steps):
        w = mat.matvec(v)
        nrm = np.linalg.norm(w)
        if nrm == 0:
            return 0.0
        rho = nrm
        v = w / nrm
    return float(rho)


def log_det_series(operand, order: int, check_radius: bool = True) -> float:
    """Truncated log det(1 + K) = sum_{n=1..N} (-1)^(n+1) Tr(K^n) / n.

    Emits a SpectralRadiusWarning when a 20-step power iteration estimates
    the spectral radius of K above 0.95.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    mat = _operand_matrix(operand)
    if check_radius and _radius_estimate(mat) > 0.95:
        warnings.warn(
            "operand spectral radius estimate exceeds 0.95; the log series "
            "may converge slowly or diverge",
            SpectralRadiusWarning,
            stacklevel=2,
        )
    total = 0.0
    power = mat
    for n in range(1, order + 1):
        if n > 1:
            power = power @ mat
        total += (-1.0) ** (n + 1) * np.real(power.trace()) / n
    return float(total)


# ---------------------------------------------------------------------------
# truncated power-series (jet) arithmetic
# ---------------------------------------------------------------------------


def _poly_mul(a: np.ndarray, b: np.ndarray, shape) -> np.ndarray:
    full = convolve(a, b, method="direct")
    clipped = full[tuple(slice(0, s) for s in shape)]
    if clipped.shape == tuple(shape):
        return clipped
    out = np.zeros(shape, dtype=clipped.dtype)
    out[tuple(slice(0, s) for s in clipped.shape)] = clipped
    return out


def _poly_exp(exponent: np.ndarray) -> np.ndarray:
    """exp of a truncated polynomial; exact for the retained degrees."""
    shape = exponent.shape
    zero = (0,) * exponent.ndim
    const = exponent[zero]
    h = exponent.copy()
    h[zero] = 0.0
    out = np.zeros(shape, dtype=exponent.dtype)
    out[zero] = 1.0
    term = out.copy()
    k_max = sum(s - 1 for s in shape)
    for k in range(1, k_max + 1):
        term = _poly_mul(term, h, shape) / k
        out = out + term
    return out * np.exp(const)


def _binomial_shift(coeffs: np.ndarray) -> np.ndarray:
    """Change of variables w -> 1 - x applied to every axis."""
    out = coeffs.astype(float, copy=True)
    for axis in range(out.ndim):
        n = out.shape[axis]
        b = np.zeros((n, n))
        for k in range(n):
            for j in range(k + 1):
                b[j, k] = math.comb(k, j) * (-1.0) ** j
        out = np.moveaxis(np.tensordot(b, np.moveaxis(out, axis, 0), axes=(1, 0)), 0, axis)
    return out


@dataclass(frozen=True)
class PhotonStatistics:
    """Joint click-number probabilities up to per-detector cutoffs."""

    probabilities: np.ndarray
    normalization_deficit: float

    def __post_init__(self):
        p = np.asarray(self.probabilities)
        if np.min(p) < -1e-12:
            raise ValueError("probabilities must be non-negative within 1e-12")
        clipped = np.clip(p, 0.0, None)
        clipped.setflags(write=False)
        object.__setattr__(self, "probabilities", clipped)
        if float(np.sum(clipped)) > 1.0 + 1e-10:
            raise ValueError("probabilities sum above 1")

    @property
    def detector_count(self) -> int:
        return self.probabilities.ndim


def save_pnd_csv(stats: PhotonStatistics, path) -> None:
    """Write `n1,...,nD,probability` rows."""
    p = stats.probabilities
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"n{d + 1}" for d in range(p.ndim)] + ["probability"])
        for idx in np.ndindex(*p.shape):
            writer.writerow([*(str(i) for i in idx), f"{p[idx]:.17g}"])


def _cutoffs(n_max, d: int) -> tuple:
    arr = np.atleast_1d(np.asarray(n_max, dtype=int))
    if arr.size == 1:
        arr = np.repeat(arr, d)
    if arr.size != d or np.any(arr < 0):
        raise ValueError("n_max must give a non-negative cutoff per detector")
    return tuple(int(x) for x in arr)


def _exponent_poisson(params: PoissonParams, shape) -> np.ndarray:
    mu = params.mu
    e = np.zeros(shape)
    e[(0,) * len(shape)] = -mu * params.p_union
    if len(shape) == 1:
        # indistinguishable arms: both windows coincide
        if shape[0] > 1:
            e[1] = 2.0 * mu * (params.p_s - params.p_si)
        if shape[0] > 2:
            e[2] = mu * params.p_si
        return e
    if shape[0] > 1:
        e[1, 0] = mu * (params.p_s - params.p_si)
    if shape[1] > 1:
        e[0, 1] = mu * (params.p_i - params.p_si)
    if shape[0] > 1 and shape[1] > 1:
        e[1, 1] = mu * params.p_si
    return e


def _exponent_hermite(params: HermiteParams, shape) -> np.ndarray:
    # y_r = (1 - eta_r^2) + eta_r^2 x_r as degree-1 polynomials
    y_s = np.zeros((min(2, shape[0]), 1))
    y_s[0, 0] = 1.0 - params.eta_s2
    if shape[0] > 1:
        y_s[1, 0] = params.eta_s2
    y_i = np.zeros((1, min(2, shape[1])))
    y_i[0, 0] = 1.0 - params.eta_i2
    if shape[1] > 1:
        y_i[0, 1] = params.eta_i2
    yy = _poly_mul(y_s, y_i, shape)
    yy2 = _poly_mul(yy, yy, shape)
    # exponent = -eps2/2 (1 - yy^2) - (mu - eps2)(1 - yy)
    e = 0.5 * params.eps2 * yy2 + (params.mu - params.eps2) * yy
    e[0, 0] -= 0.5 * params.eps2 + (params.mu - params.eps2)
    return e


def _exponent_exact(gf: ExactProductGf, shape) -> np.ndarray:
    sig = gf.spectrum.sigmas
    tanh2 = np.tanh(sig / 2.0) ** 2
    ln_cosh = np.abs(sig) / 2.0 + np.log1p(np.exp(-np.abs(sig))) - math.log(2.0)
    if gf.spectrum.process is ProcessType.TYPE_0I:
        factor_power = 0.5
        y = np.zeros(min(2, shape[0]))
        y[0] = 1.0 - gf.eta2_s
        if shape[0] > 1:
            y[1] = gf.eta2_s
        base = _poly_mul(y, y, shape)
    else:
        factor_power = 1.0
        y_s = np.zeros((min(2, shape[0]), 1))
        y_s[0, 0] = 1.0 - gf.eta2_s
        if shape[0] > 1:
            y_s[1, 0] = gf.eta2_s
        y_i = np.zeros((1, min(2, shape[1])))
        y_i[0, 0] = 1.0 - gf.eta2_i
        if shape[1] > 1:
            y_i[0, 1] = gf.eta2_i
        base = _poly_mul(y_s, y_i, shape)
    e = np.zeros(shape)
    e[(0,) * len(shape)] = -2.0 * factor_power * float(np.sum(ln_cosh))
    # log G = -2 p sum_j ln cosh_j + p sum_k (sum_j tanh_j^(2k) / k) base^k
    power = np.zeros(shape)
    power[(0,) * len(shape)] = 1.0
    k = 1
    k_needed = max(shape)
    while True:
        power = _poly_mul(power, base, shape)
        coef = float(np.sum(tanh2**k)) / k
        e += factor_power * coef * power
        converged = coef * float(np.max(np.abs(power))) < 1e-20
        if (k >= k_needed and converged) or not power.any():
            break
        k += 1
        if k > 100000:  # pragma: no cover - defensive cap
            break
    return e


def _exponent_log_series(gf: LogSeriesGf, shape) -> np.ndarray:
    if max(shape) - 1 > gf.order:
        raise ValueError(
            f"cutoff {max(shape) - 1} exceeds the stored series order {gf.order}"
        )
    e = np.zeros(shape)
    for n, t_n in enumerate(gf.moments, start=1):
        coeffs = _binomial_shift(np.asarray(t_n))
        sl = tuple(slice(0, min(s, t)) for s, t in zip(shape, coeffs.shape))
        contrib = np.zeros(shape)
        contrib[sl] = coeffs[sl]
        e += (-1.0) ** n / (2.0 * n) * contrib
    return e


def pnd(gf, n_max) -> PhotonStatistics:
    """Joint photon-number distribution by exact series differentiation.

    `gf` is one of PoissonParams, HermiteParams, ExactProductGf or
    LogSeriesGf; `n_max` gives per-detector cutoffs (scalar or sequence).
    """
    if isinstance(gf, PoissonParams):
        d = 2
        shape = tuple(c + 1 for c in _cutoffs(n_max, d))
        exponent = _exponent_poisson(gf, shape)
    elif isinstance(gf, HermiteParams):
        d = 2
        shape = tuple(c + 1 for c in _cutoffs(n_max, d))
        exponent = _exponent_hermite(gf, shape)
    elif isinstance(gf, ExactProductGf):
        d = 1 if gf.spectrum.process is ProcessType.TYPE_0I else 2
        shape = tuple(c + 1 for c in _cutoffs(n_max, d))
        exponent = _exponent_exact(gf, shape)
    elif isinstance(gf, LogSeriesGf):
        d = gf.detector_count
        shape = tuple(c + 1 for c in _cutoffs(n_max, d))
        exponent = _exponent_log_series(gf, shape)
    else:
        raise TypeError(f"unsupported generating-function spec: {type(gf)!r}")
    probs = _poly_exp(exponent)
    total = float(np.sum(probs))
    return PhotonStatistics(probs, 1.0 - total)


# ---------------------------------------------------------------------------
# trace-moment polynomials for block operands
# ---------------------------------------------------------------------------


def detector_parts_compressed(
    s: SymplecticTransform,
    p: DetectionProjection,
    gamma: RenormalizedCovariance,
    detectors,
    out_dofs=None,
) -> list[np.ndarray]:
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


def log_series_gf(parts, order: int) -> LogSeriesGf:
    """Trace-moment polynomials t_n(w) = Tr[(sum_d w_d K_d)^n] up to order N.

    The recursion keeps one matrix per weight multidegree, so memory grows
    with order^(D-1) times the operand size; oversized requests fail early.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    mats = [np.asarray(k) for k in parts]
    d = len(mats)
    if d == 0:
        raise ValueError("at least one detector part required")
    dim = mats[0].shape[0]
    est_bytes = 2 * (order + 1) ** max(d - 1, 1) * dim * dim * 16
    if est_bytes > 2 * 1024**3:
        raise ValueError(
            "moment recursion would need more than 2 GiB; reduce the grid, "
            "the order, or the number of detectors"
        )
    moments = []
    level = {}
    for i, k in enumerate(mats):
        deg = tuple(1 if j == i else 0 for j in range(d))
        level[deg] = k.copy()
    for n in range(1, order + 1):
        if n > 1:
            new_level = {}
            for deg, mat in level.items():
                for i, k in enumerate(mats):
                    ndeg = tuple(v + (1 if j == i else 0) for j, v in enumerate(deg))
                    if ndeg in new_level:
                        new_level[ndeg] += k @ mat
                    else:
                        new_level[ndeg] = k @ mat
            level = new_level
        t_n = np.zeros((n + 1,) * d)
        for deg, mat in level.items():
            t_n[deg] = np.real(np.trace(mat))
        moments.append(t_n)
    return LogSeriesGf(tuple(moments), order, d)


def _log_series_vacuum(gf: LogSeriesGf) -> float:
    total = 0.0
    for n, t_n in enumerate(gf.moments, start=1):
        total += (-1.0) ** n / (2.0 * n) * float(np.sum(t_n))
    return math.exp(total)


# ---------------------------------------------------------------------------
# source-level probability integrals
# ---------------------------------------------------------------------------


def _axis_kernel(grid, domain_needed: str):
    """Identity or Fourier kernel taking one JSA axis to the window's domain."""
    if domain_needed == "frequency":
        return None, grid
    transform, time_grid = fourier(grid, 0, 1)
    return transform.mat.blocks[0][0], time_grid


def poisson_params(
    jsa: DiscretizedJsa,
    eta: LossProfile,
    windows: DetectionProjection,
    gain: float,
    process: ProcessType,
) -> PoissonParams:
    """Single-pair detection probabilities integrated over the windows.

    Loss acts on the spectral kernel first; axes whose window lives in the
    time domain are Fourier-transformed before masking.
    """
    psi = jsa.symmetrized()
    if process is ProcessType.TYPE_0I:
        if len(windows.windows) != 1 or len(eta.etas) != 1:
            raise ValueError("type-0/I detection uses a single shared window and loss")
        window = windows.windows[0]
        eta_arr = np.broadcast_to(
            np.asarray(eta.etas[0], dtype=float), (jsa.grid_signal.n,)
        )
        domain = window.domain if window is not None else "frequency"
        kern, grid_out = _axis_kernel(jsa.grid_signal, domain)
        mask = _window_mask(window, grid_out)
        # marginal detection: loss only on the detected photon's axis
        chi_one = eta_arr[:, None] * psi
        if kern is not None:
            chi_one = kern @ chi_one
        p_single = float(mask @ (np.abs(chi_one) ** 2).sum(axis=1))
        chi_both = eta_arr[:, None] * psi * eta_arr[None, :]
        if kern is not None:
            chi_both = kern @ chi_both @ kern.T
        p_both = float(mask @ (np.abs(chi_both) ** 2) @ mask)
        mu = gain * gain / 2.0
        return PoissonParams(mu, p_single, p_single, p_both)

    if len(windows.windows) != 2 or len(eta.etas) != 2:
        raise ValueError("type-II detection uses one window and loss per arm")
    w_sig, w_idl = windows.windows
    eta_s = np.broadcast_to(np.asarray(eta.etas[0], dtype=float), (jsa.grid_signal.n,))
    eta_i = np.broadcast_to(np.asarray(eta.etas[1], dtype=float), (jsa.grid_idler.n,))
    dom_s = w_sig.domain if w_sig is not None else "frequency"
    dom_i = w_idl.domain if w_idl is not None else "frequency"
    kern_s, grid_s_out = _axis_kernel(jsa.grid_signal, dom_s)
    kern_i, grid_i_out = _axis_kernel(jsa.grid_idler, dom_i)
    mask_s = _window_mask(w_sig, grid_s_out)
    mask_i = _window_mask(w_idl, grid_i_out)

    chi_s = eta_s[:, None] * psi
    if kern_s is not None:
        chi_s = kern_s @ chi_s
    p_s = float(mask_s @ (np.abs(chi_s) ** 2).sum(axis=1))

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

    mu = gain * gain / 4.0
    return PoissonParams(mu, p_s, p_i, p_si)


# ---------------------------------------------------------------------------
# vacuum probabilities
# ---------------------------------------------------------------------------


def quadratic_vacuum(
    spectrum: SchmidtSpectrum, gain: float, eta: float, process: ProcessType
) -> float:
    """Vacuum probability of the renormalized two-pair state truncation.

    Valid for uniform (frequency-independent) loss and unbounded windows.
    Pair-component amplitudes follow from normal-ordering the pair-creation
    exponential: tanh of the per-mode squeezing for one pair, symmetrized
    products for two pairs.
    """
    if not 0 <= eta <= 1:
        raise ValueError("eta must lie in [0, 1]")
    sq = SqueezingSpectrum.from_schmidt(spectrum, gain, process)
    t = np.tanh(sq.sigmas / 2.0)
    t2 = t * t
    s2 = float(np.sum(t2))
    s4 = float(np.sum(t2 * t2))
    if process is ProcessType.TYPE_II:
        one_pair = s2
        two_pair = (s2 * s2 + s4) / 2.0
    else:
        one_pair = s2 / 2.0
        two_pair = (s2 * s2 + 2.0 * s4) / 8.0
    miss = (1.0 - eta * eta) ** 2  # both photons of a pair undetected
    num = 1.0 + miss * one_pair + miss * miss * two_pair
    den = 1.0 + one_pair + two_pair
    return num / den


def vacuum_probability(params, method: str, order: int | None = None) -> float:
    """Vacuum (no-click) probability for the chosen approximation.

    method: 'exact' (SqueezingSpectrum or ExactProductGf), 'log_series'
    (RenormalizedCovariance or BlockMatrix operand, needs `order`),
    'poisson' / 'linear' (PoissonParams), 'hermite' (HermiteParams),
    'quadratic' (QuadraticParams).  The linear value may be negative for
    large mu and is returned raw with a warning.
    """
    if method == "exact":
        if isinstance(params, ExactProductGf):
            spec = params.spectrum
            eta2 = (
                params.eta2_s
                if spec.process is ProcessType.TYPE_0I
                else (params.eta2_s, params.eta2_i)
            )
            w = 0.0 if spec.process is ProcessType.TYPE_0I else (0.0, 0.0)
            return gf_exact(spec, w, eta2)
        if isinstance(params, SqueezingSpectrum):
            w = 0.0 if params.process is ProcessType.TYPE_0I else (0.0, 0.0)
            return gf_exact(params, w)
        raise TypeError("'exact' expects a SqueezingSpectrum or ExactProductGf")
    if method == "log_series":
        if isinstance(params, LogSeriesGf):
            return _log_series_vacuum(params)
        if order is None:
            raise ValueError("'log_series' needs a truncation order")
        return math.exp(-0.5 * log_det_series(params, order))
    if method == "poisson":
        if not isinstance(params, PoissonParams):
            raise TypeError("'poisson' expects PoissonParams")
        return math.exp(-params.mu * params.p_union)
    if method == "linear":
        if not isinstance(params, PoissonParams):
            raise TypeError("'linear' expects PoissonParams")
        value = 1.0 - params.mu * params.p_union
        if value < 0:
            warnings.warn(
                "single-pair vacuum probability is negative at this mu",
                UserWarning,
                stacklevel=2,
            )
        return value
    if method == "hermite":
        if not isinstance(params, HermiteParams):
            raise TypeError("'hermite' expects HermiteParams")
        return gf_hermite(
            params.mu, params.eps2, params.eta_s2, params.eta_i2, 1.0, 1.0
        )
    if method == "quadratic":
        if not isinstance(params, QuadraticParams):
            raise TypeError("'quadratic' expects QuadraticParams")
        return quadratic_vacuum(params.spectrum, params.gain, params.eta, params.process)
    raise ValueError(f"unknown method {method!r}")
