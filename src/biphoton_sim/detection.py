"""Detection probabilities, generating functions and photon-number statistics.

All photon-number distributions come from one mechanism: the generating
function is written as exp(E) with E a (truncated) multivariate polynomial in
the variables x_d, where x_d = 1 marks "detector d sees everything" and
x_d = 0 extracts the no-click outcome.  Joint probabilities are the Taylor
coefficients of exp(E), obtained exactly with truncated power-series
arithmetic; no finite differences and no symbolic algebra are involved.

Each model has one evaluator, its exponent table: `vacuum_probability` reads
the table's constant and `pnd` its jet.  The generating function at argument
x is the vacuum probability of the same model with every intensity
transmission eta2 scaled by 1 - x (for `PoissonParams`: p_s by 1 - x_s, p_i
by 1 - x_i and p_si by both).

The truncated log-determinant series has one evaluator,
`log_series_power_sum`, a power sum over the eigenvalues of the operand with
an exact spectral-radius check; `log_det_series` and the scenario runner both
call it.

Nothing here sees a JSA or a grid: the single-pair probabilities that
`PoissonParams` holds come from the scenario runner's masked Schmidt factor,
and their dense reference over the sampled JSA is
`oracle.poisson_params_reference`.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .covariance import ProcessType, SqueezingSpectrum
from .spectral import SchmidtSpectrum

__all__ = [
    "SpectralRadiusWarning",
    "InvalidDistributionError",
    "PoissonParams",
    "HermiteParams",
    "ExactProductGf",
    "VacuumPointGf",
    "PhotonStatistics",
    "hermite_params",
    "log_det_series",
    "log_series_power_sum",
    "log_series_gf",
    "vacuum_point_gf",
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
class VacuumPointGf:
    """log G = log_vacuum + 1/2 sum_n Tr[(sum_d x_d L_d)^n] / n, the
    generating function expanded at the vacuum point x = 0; `moments[n-1]`
    holds the coefficients of Tr[(sum_d x_d L_d)^n], an array of shape
    (n+1,) * detector count (see `vacuum_point_gf`)."""

    moments: tuple
    log_vacuum: float


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


# ---------------------------------------------------------------------------
# determinant log series
# ---------------------------------------------------------------------------


def log_series_power_sum(eigenvalues, order: int) -> float:
    """Re sum_{n=1..N} (-1)^(n+1) sum_i mu_i^n / n, the log series of
    log det(1 + K) truncated at order N, from the eigenvalues mu_i of K.

    Emits a SpectralRadiusWarning when max |mu_i| exceeds 0.95.
    """
    mu = np.asarray(eigenvalues)
    radius = np.max(np.abs(mu), initial=0.0)
    if radius > 0.95:
        warnings.warn(f"operand spectral radius {radius:.6g} exceeds 0.95; the log series "
                      "may converge slowly or diverge", SpectralRadiusWarning, stacklevel=2)
    n = np.arange(1, order + 1)
    return float(np.real(np.sum(mu[:, None] ** n, axis=0) @ ((-1.0) ** (n + 1) / n)))


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


# ---------------------------------------------------------------------------
# truncated power-series (jet) arithmetic
# ---------------------------------------------------------------------------


def _poly_mul(a: np.ndarray, b: np.ndarray, shape) -> np.ndarray:
    """Truncated product a * b below `shape`: each nonzero coefficient of the
    sparser factor adds the other factor, scaled and shifted to its degree."""
    if np.count_nonzero(a) > np.count_nonzero(b):
        a, b = b, a
    out = np.zeros(shape, dtype=np.result_type(a, b))
    for idx in map(tuple, np.argwhere(a)):
        span = tuple(min(n, s - i) for n, s, i in zip(b.shape, shape, idx))
        if all(n > 0 for n in span):
            out[tuple(slice(i, i + n) for i, n in zip(idx, span))] += (
                a[idx] * b[tuple(slice(0, n) for n in span)]
            )
    return out


def _poly_exp(exponent: np.ndarray) -> np.ndarray:
    """exp of a truncated polynomial; exact for the retained degrees.

    Graded along axis 0: with exponent = sum_j h_j x^j, the coefficients E_k
    of exp obey k E_k = sum_{j=1..k} j h_j * E_{k-j}, and E_0 = exp(h_0)
    recurses on the remaining axes, down to np.exp of the constant term."""
    if exponent.ndim == 0:
        return np.exp(exponent)
    out = np.zeros(exponent.shape, dtype=np.result_type(exponent, float))
    out[0] = _poly_exp(exponent[0])
    for k in range(1, exponent.shape[0]):
        for j in range(1, k + 1):
            out[k] += _poly_mul(j * exponent[j], out[k - j], out.shape[1:])
        out[k] /= k
    return out


@dataclass(frozen=True)
class PhotonStatistics:
    """Joint click-number probabilities up to per-detector cutoffs."""

    probabilities: np.ndarray
    normalization_deficit: float

    def __post_init__(self):
        p = np.asarray(self.probabilities)
        if not np.all(np.isfinite(p)):
            raise InvalidDistributionError("probabilities must be finite")
        if np.min(p) < -1e-12:
            raise InvalidDistributionError("probabilities must be non-negative within 1e-12")
        clipped = np.clip(p, 0.0, None)
        clipped.setflags(write=False)
        object.__setattr__(self, "probabilities", clipped)
        if float(np.sum(clipped)) > 1.0 + 1e-10:
            raise InvalidDistributionError("probabilities sum above 1")


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
    e[0, 0] = -mu * params.p_union
    if shape[0] > 1:
        e[1, 0] = mu * (params.p_s - params.p_si)
    if shape[1] > 1:
        e[0, 1] = mu * (params.p_i - params.p_si)
    if shape[0] > 1 and shape[1] > 1:
        e[1, 1] = mu * params.p_si
    return e


def _lossy_argument(eta2: float, shape, axis: int) -> np.ndarray:
    """Generating-function argument after loss, (1 - eta2) + eta2 x_axis, as a
    degree-1 polynomial in the layout of `shape`."""
    dims = [1] * len(shape)
    dims[axis] = min(2, shape[axis])
    y = np.zeros(dims)
    y.flat[0] = 1.0 - eta2
    if dims[axis] > 1:
        y.flat[1] = eta2
    return y


def _exponent_hermite(params: HermiteParams, shape) -> np.ndarray:
    y_s = _lossy_argument(params.eta_s2, shape, 0)
    yy = _poly_mul(y_s, _lossy_argument(params.eta_i2, shape, 1), shape)
    yy2 = _poly_mul(yy, yy, shape)
    # exponent = -eps2/2 (1 - yy^2) - (mu - eps2)(1 - yy)
    e = 0.5 * params.eps2 * yy2 + (params.mu - params.eps2) * yy
    e[0, 0] -= 0.5 * params.eps2 + (params.mu - params.eps2)
    return e


# squeezing above which `_ln_gf_factor` takes ln cosh(s), which is then >= 39
_LN_GF_SPLIT = 40.0


def _ln_gf_factor(sigma: np.ndarray, one_minus_x: float) -> np.ndarray:
    """ln(cosh^2(s/2) - X sinh^2(s/2)) per mode from 1 - X in [0, 1],
    overflow-safe; exactly 0 at X = 1, where every factor is 1."""
    if one_minus_x == 0:
        return np.zeros_like(sigma)
    abs_sigma = np.abs(sigma)
    # cosh^2(s/2) - X sinh^2(s/2) = 1 + (1 - X) sinh^2(s/2): log1p keeps each
    # small mode's factor to a few eps of itself, where ln cosh(s) + ln(rest)
    # - ln 2 below loses up to an eps of ln 2 per mode to cancellation
    near = np.minimum(abs_sigma, _LN_GF_SPLIT)
    small = np.log1p(one_minus_x * np.sinh(near / 2.0) ** 2)
    # = [(1 - X) cosh(s) + (1 + X)] / 2, overflow-safe, and rest >= 1 - X > 0
    ln_cosh = abs_sigma + np.log1p(np.exp(-2.0 * abs_sigma)) - math.log(2.0)
    rest = one_minus_x + (2.0 - one_minus_x) * np.exp(-ln_cosh)
    return np.where(abs_sigma < _LN_GF_SPLIT, small, ln_cosh + np.log(rest) - math.log(2.0))


def _exponent_exact(gf: ExactProductGf, shape) -> np.ndarray:
    # log G = -p sum_j ln(c_j - b0 s_j) + p sum_k (sum_j a_j^k / k) D^k, where
    # B = b0 + D is the argument product, D(0) = 0, a_j = t_j^2 / (1 - b0 t_j^2)
    # and t_j = tanh(sigma_j/2); D^k starts at total degree k, so the table's
    # total degree bounds k
    type0i = gf.spectrum.process is ProcessType.TYPE_0I
    p = 0.5 if type0i else 1.0
    eta2_i = gf.eta2_s if type0i else gf.eta2_i
    y_s = _lossy_argument(gf.eta2_s, shape, 0)
    d = _poly_mul(y_s, y_s if type0i else _lossy_argument(eta2_i, shape, 1), shape)
    zero = (0,) * len(shape)
    d[zero] = 0.0
    # 1 - b0, free of cancellation as both eta2 -> 0
    one_minus_b0 = gf.eta2_s + (1.0 - gf.eta2_s) * eta2_i
    e = np.zeros(shape)
    if d.any():  # every eta2 = 0 leaves D = 0 and b0 = 1, where a_j may be inf
        tanh2 = np.tanh(gf.spectrum.sigmas / 2.0) ** 2
        # 1 - b0 t^2 = sech^2 + (1 - b0) t^2, where sech^2(s/2) = 4 e^-s / (1 + e^-s)^2
        decay = np.exp(-gf.spectrum.sigmas)
        a = tanh2 / (4.0 * decay / (1.0 + decay) ** 2 + one_minus_b0 * tanh2)
        scale = float(a.max()) or 1.0  # keeps every (a_j / scale)^k <= 1
        d *= scale
        power = np.zeros(shape)
        power[zero] = 1.0
        for k in range(1, sum(s - 1 for s in shape) + 1):
            power = _poly_mul(power, d, shape)
            e += p * float(np.sum((a / scale) ** k)) / k * power
    # the vacuum exponent, so that P[0, ..., 0] is `vacuum_probability`'s value
    e[zero] = -p * float(np.sum(_ln_gf_factor(gf.spectrum.sigmas, one_minus_b0)))
    return e


def _exponent_vacuum_point(gf: VacuumPointGf, shape) -> np.ndarray:
    degree = sum(s - 1 for s in shape)
    if degree > len(gf.moments):
        raise ValueError(
            f"total cutoff degree {degree} exceeds the stored moment order {len(gf.moments)}"
        )
    e = np.zeros(shape)
    for n, t_n in enumerate(gf.moments, start=1):
        sl = tuple(slice(0, min(s, n + 1)) for s in shape)
        e[sl] += t_n[sl] / (2.0 * n)
    e[(0,) * len(shape)] = gf.log_vacuum
    return e


# generating-function type -> (exponent builder, detector count)
_PND_EXPONENTS = {
    PoissonParams: (_exponent_poisson, lambda gf: 2),
    HermiteParams: (_exponent_hermite, lambda gf: 2),
    ExactProductGf: (
        _exponent_exact,
        lambda gf: 1 if gf.spectrum.process is ProcessType.TYPE_0I else 2,
    ),
    VacuumPointGf: (_exponent_vacuum_point, lambda gf: gf.moments[0].ndim),
}


def pnd(gf, n_max) -> PhotonStatistics:
    """Joint photon-number distribution by exact series differentiation.

    `gf` is one of PoissonParams, HermiteParams, ExactProductGf or
    VacuumPointGf; `n_max` gives per-detector cutoffs (scalar or sequence).
    Every exponent is expanded at the vacuum point x = 0.
    """
    try:
        exponent, detector_count = _PND_EXPONENTS[type(gf)]
    except KeyError:
        supported = ", ".join(t.__name__ for t in _PND_EXPONENTS)
        raise TypeError(
            f"unsupported generating-function spec: {type(gf)!r}; expected one of {supported}"
        ) from None
    shape = tuple(c + 1 for c in _cutoffs(n_max, detector_count(gf)))
    probs = _poly_exp(exponent(gf, shape))
    total = float(np.sum(probs))
    return PhotonStatistics(probs, 1.0 - total)


# ---------------------------------------------------------------------------
# trace-moment polynomials
# ---------------------------------------------------------------------------


def log_series_gf(parts, order: int) -> tuple:
    """Trace-moment polynomials t_n(w) = Tr[(sum_d w_d K_d)^n] up to order N,
    as a tuple whose entry n-1 has shape (n+1,) * len(parts).

    The recursion keeps one matrix per weight multidegree, so memory grows
    with order^(D-1) times the operand size; oversized requests fail early.
    Each level multiplies the previous one on the right by every part, and
    entry n-1 holds the real parts of the traces of level n.
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
    level = {tuple(int(j == i) for j in range(d)): k for i, k in enumerate(mats)}
    for n in range(1, order + 1):
        if n > 1:
            new_level = {}
            for deg, mat in level.items():
                for i, k in enumerate(mats):
                    ndeg = tuple(v + (j == i) for j, v in enumerate(deg))
                    if ndeg in new_level:
                        new_level[ndeg] += mat @ k
                    else:
                        new_level[ndeg] = mat @ k
            level = new_level
        t_n = np.zeros((n + 1,) * d)
        for deg, mat in level.items():
            t_n[deg] = np.real(np.trace(mat))
        moments.append(t_n)
    return tuple(moments)


def vacuum_point_gf(
    parts, log_vacuum: float, degree: int, multiplicity: int = 1
) -> VacuumPointGf:
    """Photon-number generating function of the parts K_d, exact to `degree`.

    det(1 + K - sum_d x_d K_d) = det(1 + K) det(1 - sum_d x_d L_d) with
    K = sum_d K_d and L_d = (1 + K)^-1 K_d, and every coefficient of total
    degree n in x comes from Tr[(sum_d x_d L_d)^n] alone.  So the moments up
    to the table's total degree give every entry exactly; only the constant
    `log_vacuum` = -1/2 log det(1 + K), supplied by the caller, carries an
    error, and it scales all entries alike.

    The parts may be one of `multiplicity` diagonal blocks of the detected
    operator whose blocks share their real trace moments (the conjugate
    sectors of a type-II run); each moment is then that many times the
    parts' own.
    """
    mats = [np.asarray(k) for k in parts]
    total = np.sum(mats, axis=0)
    solved = np.linalg.solve(np.eye(total.shape[0]) + total, np.hstack(mats))
    ls = np.hsplit(solved, len(mats))
    moments = log_series_gf(ls, max(1, degree))
    return VacuumPointGf(tuple(multiplicity * t for t in moments), float(log_vacuum))


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


_VACUUM_TYPES = {"exact": ExactProductGf, "poisson": PoissonParams, "linear": PoissonParams,
                 "hermite": HermiteParams}


def vacuum_probability(params, method: str) -> float:
    """Vacuum (no-click) probability for the chosen approximation.

    method: 'exact' (SqueezingSpectrum or ExactProductGf), 'poisson' /
    'linear' (PoissonParams) or 'hermite' (HermiteParams).  The truncated
    log-determinant series is `log_det_series` and the two-pair truncation
    `quadratic_vacuum`.  The linear value may be negative for large mu and
    is returned raw with a warning.
    """
    if method == "exact" and isinstance(params, SqueezingSpectrum):
        params = ExactProductGf(params)
    if method not in _VACUUM_TYPES:
        raise ValueError(f"unknown method {method!r}")
    gf_type = _VACUUM_TYPES[method]
    if not isinstance(params, gf_type):
        raise TypeError(f"{method!r} expects {gf_type.__name__}")
    if method == "linear":
        value = 1.0 - params.mu * params.p_union
        if value < 0:
            warnings.warn(
                "single-pair vacuum probability is negative at this mu",
                UserWarning,
                stacklevel=2,
            )
        return value
    # exp of the constant that `pnd` expands, so that P[0, ..., 0] is this value
    exponent, detector_count = _PND_EXPONENTS[gf_type]
    return float(np.exp(exponent(params, (1,) * detector_count(params)).flat[0]))
