"""Detection probabilities, generating functions and photon-number statistics.

All photon-number distributions come from one mechanism: the generating
function is written as exp(E) with E a (truncated) multivariate polynomial in
the variables x_d, where x_d = 1 marks "detector d sees everything" and
x_d = 0 extracts the no-click outcome.  Joint probabilities are the Taylor
coefficients of exp(E), obtained exactly with truncated power-series
arithmetic; no finite differences and no symbolic algebra are involved.

Each model has one evaluator, its exponent table, found by the model's type
alone: `vacuum_probability(gf)` reads the table's constant and `pnd` its jet.
The generating function at argument x is the vacuum probability of the same
model with every intensity transmission eta2 scaled by 1 - x (for
`PoissonParams`: p_s by 1 - x_s, p_i by 1 - x_i and p_si by both).

The truncated log-determinant series has one evaluator,
`log_series_power_sum`, a power sum over the eigenvalues of the operand with
an exact spectral-radius check; `DetectionPlan` calls it, and so does the
dense reference `oracle.log_det_series`.

Nothing here sees a JSA or a grid: the single-pair probabilities that
`PoissonParams` holds come from `DetectionPlan.single_pair`, at unit gain,
and their dense reference over the sampled JSA is
`oracle.poisson_params_reference`.
"""
from __future__ import annotations

import csv
import functools
import itertools
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .covariance import ProcessType, SqueezingSpectrum

__all__ = [
    "SpectralRadiusWarning",
    "InvalidDistributionError",
    "PoissonParams",
    "HermiteParams",
    "ExactProductGf",
    "VacuumPointGf",
    "PhotonStatistics",
    "hermite_params",
    "log_series_power_sum",
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
            raise InvalidDistributionError(f"invalid distribution: mu = {self.mu!r} "
                                           f"< eps2 = {self.eps2!r}")
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
    generating function expanded at the vacuum point x = 0, as its exponent
    table over a cutoff box: `exponent[alpha]` is the coefficient of x^alpha
    and `exponent[0, ..., 0]` is log_vacuum (see `vacuum_point_gf`)."""

    exponent: np.ndarray


def hermite_params(gain: float, schmidt_number: float, process: ProcessType,
                   eta_s2: float = 1.0, eta_i2: float = 1.0) -> HermiteParams:
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
    # a block of at most 2^16 powers at a time, so memory grows with `order`
    # alone, not times the eigenvalue count; the bits are those of one array
    sums, weights = np.empty(order, dtype=np.result_type(mu, int)), np.empty(order)
    step = max(1, 2**16 // max(mu.size, 1))
    for start in range(0, order, step):
        n = np.arange(start + 1, min(start + step, order) + 1)
        sums[start:start + n.size] = np.sum(mu[:, None] ** n, axis=0)
        weights[start:start + n.size] = (-1.0) ** (n + 1) / n
    return float(np.real(sums @ weights))


# ---------------------------------------------------------------------------
# truncated power-series (jet) arithmetic
# ---------------------------------------------------------------------------


def _poly_mul(a: np.ndarray, b: np.ndarray, shape) -> np.ndarray:
    """Truncated product a * b below `shape`: each nonzero coefficient of `a`,
    the sparser factor, adds `b`, scaled and shifted to its degree."""
    out = np.zeros(shape, dtype=np.result_type(a, b))
    for idx in map(tuple, np.argwhere(a)):
        span = tuple(min(n, s - i) for n, s, i in zip(b.shape, shape, idx))
        if all(n > 0 for n in span):
            out[tuple(slice(i, i + n) for i, n in zip(idx, span))] += (
                a[idx] * b[tuple(slice(0, n) for n in span)]
            )
    return out


def _poly_exp(exponent: np.ndarray) -> np.ndarray:
    """P = exp(E) of a truncated polynomial E; exact for the retained degrees.

    The Euler operator theta = sum_d x_d d/dx_d obeys theta P = P theta E, so
    P_0 = exp(E_0) and, in C order, |alpha| P_alpha = sum_(0 < beta <= alpha)
    |beta| E_beta P_(alpha - beta), each entry one product of two slices."""
    out = np.zeros(exponent.shape, dtype=np.result_type(exponent, float))
    out.flat[0] = np.exp(exponent.flat[0])
    weighted = np.array(exponent, dtype=out.dtype)
    weighted.flat[0] = 0.0  # beta = 0 adds nothing, whatever E_0
    weighted *= sum(np.indices(exponent.shape))  # |beta| E_beta
    for alpha in itertools.islice(np.ndindex(exponent.shape), 1, None):
        box = tuple(slice(0, a + 1) for a in alpha)
        flipped = tuple(slice(a, None, -1) for a in alpha)  # P_(alpha - beta) over the box
        out[alpha] = np.sum(weighted[box] * out[flipped]) / sum(alpha)
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
    """One non-negative int per detector, from a sequence or a single value
    that stands for every detector."""
    cutoffs = list(n_max) if np.ndim(n_max) else [n_max]
    for c in cutoffs:
        if isinstance(c, bool) or not isinstance(c, numbers.Integral) or c < 0:
            raise ValueError(f"cutoff {c!r} is not a non-negative integer")
    if len(cutoffs) == 1:
        cutoffs *= d
    if len(cutoffs) != d:
        raise ValueError(f"expected one cutoff per detector ({d}), got {len(cutoffs)}")
    return tuple(int(c) for c in cutoffs)


def _exponent_poisson(params: PoissonParams, shape) -> np.ndarray:
    mu, p_s, p_i, p_si = params.mu, params.p_s, params.p_i, params.p_si
    corner = np.array([[-mu * params.p_union, mu * (p_i - p_si)], [mu * (p_s - p_si), mu * p_si]])
    e = np.zeros(shape)
    e[:2, :2] = corner[:shape[0], :shape[1]]
    return e


def _lossy_argument(eta2: float, shape, axis: int) -> np.ndarray:
    """Generating-function argument after loss, (1 - eta2) + eta2 x_axis, as a
    degree-1 polynomial in the layout of `shape`."""
    y = np.array([1.0 - eta2, eta2][:shape[axis]])
    return y.reshape([-1 if d == axis else 1 for d in range(len(shape))])


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
            power = _poly_mul(d, power, shape)
            e += p * float(np.sum((a / scale) ** k)) / k * power
    # the vacuum exponent, so that P[0, ..., 0] is `vacuum_probability`'s value
    e[zero] = -p * float(np.sum(_ln_gf_factor(gf.spectrum.sigmas, one_minus_b0)))
    return e


def _exponent_vacuum_point(gf: VacuumPointGf, shape) -> np.ndarray:
    # each entry depends on the L_d alone, so a leading sub-box is exact
    if any(s > t for s, t in zip(shape, gf.exponent.shape)):
        raise ValueError(f"cutoffs {[s - 1 for s in shape]} exceed the table's "
                         f"{[t - 1 for t in gf.exponent.shape]}")
    return gf.exponent[tuple(slice(0, s) for s in shape)]


def vacuum_point_gf(parts, log_vacuum: float, cutoffs, multiplicity: int = 1) -> VacuumPointGf:
    """Exponent table over the box of `cutoffs` of the photon-number
    generating function of the parts K_d, one cutoff per part.

    det(1 + K - sum_d x_d K_d) = det(1 + K) det(1 - sum_d x_d L_d) with
    K = sum_d K_d and L_d = (1 + K)^-1 K_d, so entry alpha is
    Re Tr W_alpha / (2|alpha|), W_alpha the sum of the products of the L_d
    over the words of multidegree alpha, and every entry is exact; only the
    constant `log_vacuum` = -1/2 log det(1 + K), supplied by the caller,
    carries an error, and it scales all entries alike.  W_alpha =
    sum_d W_(alpha - e_d) L_d is formed one total degree at a time and only
    inside the box, so memory grows with the box's widest degree times the
    operand size; oversized boxes fail before the solve.

    The parts may be one of `multiplicity` diagonal blocks of the detected
    operator whose blocks share their real trace moments (the conjugate
    sectors of a type-II run); each entry is then that many times the
    parts' own.
    """
    mats = [np.asarray(k) for k in parts]
    if not mats:
        raise ValueError("at least one detector part required")
    cutoffs = _cutoffs(cutoffs, len(mats))
    dim = mats[0].shape[0]
    widths = functools.reduce(np.convolve, [np.ones(c + 1, dtype=int) for c in cutoffs])
    if 2 * int(widths.max()) * dim * dim * 16 > 2 * 1024**3:
        raise ValueError(f"moment recursion over cutoffs {list(cutoffs)} would need more than "
                         "2 GiB; reduce the grid, the cutoffs, or the number of detectors")
    solved = np.linalg.solve(np.eye(dim) + np.sum(mats, axis=0), np.hstack(mats))
    ls = np.hsplit(solved, len(mats))
    table = np.zeros(tuple(c + 1 for c in cutoffs))
    level = {(0,) * len(ls): None}  # the empty word, W_0 = 1, never formed
    for n in range(1, sum(cutoffs) + 1):
        new_level = {}
        for deg, mat in level.items():
            for i, l_i in enumerate(ls):
                if deg[i] == cutoffs[i]:
                    continue
                ndeg = tuple(v + (j == i) for j, v in enumerate(deg))
                word = l_i if mat is None else mat @ l_i
                if ndeg in new_level:
                    new_level[ndeg] += word
                else:
                    new_level[ndeg] = word
        for deg, mat in new_level.items():
            table[deg] += multiplicity * np.real(np.trace(mat)) / (2.0 * n)
        level = new_level
    table[(0,) * len(ls)] = log_vacuum
    return VacuumPointGf(table)


# generating-function type -> (exponent builder, detector count)
_PND_EXPONENTS = {
    PoissonParams: (_exponent_poisson, lambda gf: 2),
    HermiteParams: (_exponent_hermite, lambda gf: 2),
    ExactProductGf: (_exponent_exact,
                     lambda gf: 1 if gf.spectrum.process is ProcessType.TYPE_0I else 2),
    VacuumPointGf: (_exponent_vacuum_point, lambda gf: gf.exponent.ndim),
}


def _exponent_table(gf, n_max) -> np.ndarray:
    """The exponent of `gf` over the box of the per-detector cutoffs `n_max`,
    by `gf`'s type: the one dispatch of `pnd` and `vacuum_probability`."""
    try:
        exponent, detector_count = _PND_EXPONENTS[type(gf)]
    except KeyError:
        supported = ", ".join(t.__name__ for t in _PND_EXPONENTS)
        raise TypeError(
            f"unsupported generating-function spec: {type(gf)!r}; expected one of {supported}"
        ) from None
    return exponent(gf, tuple(c + 1 for c in _cutoffs(n_max, detector_count(gf))))


def pnd(gf, n_max) -> PhotonStatistics:
    """Joint photon-number distribution by exact series differentiation.

    `gf` is one of PoissonParams, HermiteParams, ExactProductGf or
    VacuumPointGf; `n_max` gives per-detector cutoffs (scalar or sequence).
    Every exponent is expanded at the vacuum point x = 0.
    """
    probs = _poly_exp(_exponent_table(gf, n_max))
    return PhotonStatistics(probs, 1.0 - float(np.sum(probs)))


# ---------------------------------------------------------------------------
# vacuum probabilities
# ---------------------------------------------------------------------------


def _pair_sums(sq: SqueezingSpectrum, eta: float):
    """The miss probability (1 - eta^2)^2 of a pair and the one- and two-pair
    weights of `quadratic_vacuum`."""
    if not 0 <= eta <= 1:
        raise ValueError("eta must lie in [0, 1]")
    t = np.tanh(sq.sigmas / 2.0)
    t2 = t * t
    s2 = float(np.sum(t2))
    s4 = float(np.sum(t2 * t2))
    if sq.process is ProcessType.TYPE_II:
        one_pair = s2
        two_pair = (s2 * s2 + s4) / 2.0
    else:
        one_pair = s2 / 2.0
        two_pair = (s2 * s2 + 2.0 * s4) / 8.0
    miss = (1.0 - eta * eta) ** 2  # both photons of a pair undetected
    return miss, one_pair, two_pair


def quadratic_vacuum(sq: SqueezingSpectrum, eta: float) -> float:
    """Vacuum probability of the renormalized two-pair state truncation of
    `sq` at the uniform amplitude transmission `eta`, for unbounded windows.

    Pair-component amplitudes follow from normal-ordering the pair-creation
    exponential: tanh of the per-mode squeezing for one pair, symmetrized
    products for two pairs.  A truncated state is no generating function.
    """
    miss, one_pair, two_pair = _pair_sums(sq, eta)
    return (1.0 + miss * one_pair + miss * miss * two_pair) / (1.0 + one_pair + two_pair)


def vacuum_probability(gf) -> float:
    """Vacuum (no-click) probability of any generating function `pnd` takes,
    its no-click entry to the bit.  The truncated log-determinant series of
    a pipeline is `DetectionPlan.log_vacuum`, the two-pair truncation
    `quadratic_vacuum` and the single-pair one `Scenario`'s `linear`."""
    return float(np.exp(_vacuum_exponent(gf)))


def _vacuum_exponent(gf) -> float:
    """The constant of the exponent that `pnd` expands, so that P[0, ..., 0]
    is exp of this value: the log vacuum probability of `gf`."""
    return float(_exponent_table(gf, 0).flat[0])
