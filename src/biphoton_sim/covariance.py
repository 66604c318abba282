"""Renormalized covariance of photon-pair sources, exact and in factored form.

The covariance of the generated state is exp(2 Z) with the pair-creation
generator Z built from the JSA kernel; the renormalized covariance
(exp(2 Z) - 1)/2 is assembled from the Schmidt modes, or factored as
V M V^dag with a gain-independent basis V and an r x r core M, on which
`DetectionPlan` works.  Rows follow the standard mode ordering
(annihilation rows for every discrete mode first, then the creation rows).
Nonzero eigenvalues are (exp(+-sigma_j) - 1)/2 with the per-mode squeezing
parameters sigma_j; for type-II sources every eigenvalue comes twice.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import spectral
from ._blocks import BlockMatrix
from .spectral import FrequencyGrid, SchmidtSpectrum

__all__ = [
    "ProcessType",
    "Dof",
    "SqueezingSpectrum",
    "RenormalizedCovariance",
    "CovarianceNorms",
    "build_covariance_exact",
    "covariance_factor",
    "covariance_core",
    "source_dofs",
    "covariance_eigenvalues",
    "norms",
    "mean_pairs",
    "gain_for_mean_pairs",
]


class ProcessType(Enum):
    """Pair generation with parallel (type-0/I) or orthogonal (type-II) polarizations."""

    TYPE_0I = "type0i"
    TYPE_II = "type2"


@dataclass(frozen=True)
class Dof:
    """One discrete degree of freedom carrying a discretized continuous axis."""

    name: str
    grid: FrequencyGrid
    domain: str = "frequency"

    def __post_init__(self):
        if self.domain not in ("frequency", "time"):
            raise ValueError("domain must be 'frequency' or 'time'")


@dataclass(frozen=True)
class SqueezingSpectrum:
    """Per-Schmidt-mode squeezing parameters, descending."""

    sigmas: np.ndarray
    process: ProcessType
    gain: float

    def __post_init__(self):
        sig = np.array(self.sigmas, dtype=float)
        sig.setflags(write=False)
        object.__setattr__(self, "sigmas", sig)
        if sig.ndim != 1 or sig.size == 0:
            raise ValueError("sigmas must be a non-empty 1-D array")
        if np.any(sig < 0) or np.any(np.diff(sig) > 0):
            raise ValueError("sigmas must be non-negative and sorted descending")
        if self.gain < 0:
            raise ValueError("gain must be non-negative")

    @classmethod
    def from_schmidt(
        cls, spectrum: SchmidtSpectrum, gain: float, process: ProcessType
    ) -> "SqueezingSpectrum":
        scale = 2.0 * gain if process is ProcessType.TYPE_0I else gain
        return cls(scale * spectrum.coefficients, process, gain)


def mean_pairs(spectrum: SqueezingSpectrum) -> float:
    """Exact mean number of generated photon pairs."""
    s = np.sum(np.sinh(spectrum.sigmas / 2.0) ** 2)
    return float(s / 2.0 if spectrum.process is ProcessType.TYPE_0I else s)


def gain_for_mean_pairs(schmidt: SchmidtSpectrum, mu, process: ProcessType):
    """Invert the exact mean-pair relation for the gain by Newton's method,
    within 4 ulp of the bisection `oracle.gain_for_mean_pairs_reference`: one
    value gives a float, a sequence an array, in which each value stops on its
    own, so its gain does not depend on the others."""
    mus = np.atleast_1d(np.asarray(mu, dtype=float))
    if np.any(mus < 0):
        raise ValueError("mu must be non-negative")
    coef = schmidt.coefficients
    if coef[0] == 0 and np.any(mus > 0):
        raise ValueError("cannot reach a positive mu with an all-zero spectrum")
    type0i = process is ProcessType.TYPE_0I
    # single-mode gain reaching mu; more modes only add pairs (mu = 0: gain 0)
    gains = np.array([(math.asinh(math.sqrt(2.0 * m)) if type0i else 2.0 * math.asinh(math.sqrt(m)))
                      / coef[0] if m > 0 else 0.0 for m in mus])
    # Newton on mu(g) = half sum sinh^2(x), x = g c'/2, in the arithmetic of
    # mean_pairs(SqueezingSpectrum.from_schmidt(...)); mu(g) is increasing and
    # convex, so from the right the iterates fall onto the root
    scaled, half = (2.0 * coef, 0.5) if type0i else (coef, 1.0)
    active = np.flatnonzero(mus > 0)
    while active.size:  # a value stops when its iterate no longer falls
        x = gains[active, None] * scaled / 2.0
        sh = np.sinh(x)
        excess = half * np.sum(sh**2, axis=1) - mus[active]
        step = gains[active] - excess / (half * np.sum(scaled * sh * np.cosh(x), axis=1))
        falls = step < gains[active]
        gains[active[falls]] = step[falls]
        active = active[falls]
    return float(gains[0]) if np.ndim(mu) == 0 else gains


# relative weight z^j at which fig4's analytic Schmidt spectrum stops
_J_MAX_FLOOR = 1e-16


def _gaussian_spectra(aspect: float, mus):
    """Analytic Schmidt spectrum of a type-II Gaussian source, and its gains
    and squeezing spectra at the mean pair numbers `mus`."""
    log_z = float(spectral._gaussian_log_z(aspect))
    j_max = 1 if log_z == -math.inf else max(1, math.ceil(math.log(_J_MAX_FLOOR) / log_z) + 1)
    schmidt = spectral.analytic_gaussian_schmidt(aspect, j_max)
    gains = gain_for_mean_pairs(schmidt, mus, ProcessType.TYPE_II).tolist()
    return schmidt, gains, [
        SqueezingSpectrum.from_schmidt(schmidt, g, ProcessType.TYPE_II) for g in gains
    ]


def _even_terms(x, count: int, scale=1.0) -> np.ndarray:
    """scale x^2k / (2k)! for k = 1..count along a last axis, x a 1-D array."""
    k = np.arange(1, count + 1)
    ratios = (x * x)[:, None] / ((2 * k - 1) * (2 * k))
    ratios[:, 0] *= scale
    return np.multiply.accumulate(ratios, axis=1)


def _gaussian_sweep(points, aspect_max, mus):
    """The ratios geomspace(1, aspect_max, points) and, at each (rows) and
    each mean pair number of `mus` (columns), the largest squeezing parameter
    sigma_1 = g c_1 of the type-II Gaussian source and the squared HS norm of
    its covariance, over the untruncated spectrum.

    A sum over the modes of an even function of g c_j is a series in the
    power sums S_k = a_k lambda_1^k (`spectral.gaussian_relative_power_sums`):
    mu = sum_k sigma_1^2k a_k / (2 (2k)!) and
    ||Gamma||_HS^2 = sum_k (4^k - 2) sigma_1^2k a_k / (2k)!.  The terms are
    scaled by 1/a_1 and, past sigma_1 = 600, by e^(600 - sigma_1), to stay in
    range, and run until they fall below e^-60 of their peak at 2 sigma_1 (a
    Poisson tail; a_k only decreases).  mu(sigma_1) is increasing and convex,
    so Newton's method from the right falls onto the root, from the smaller
    of the single-mode root, as in `gain_for_mean_pairs`, and the first
    term's; a point stops when its iterate no longer falls (mu = 0 gives 0)."""
    aspects = np.geomspace(1.0, aspect_max, points)
    mus = np.asarray(mus, dtype=float)
    single = 2.0 * np.arcsinh(np.sqrt(mus))  # more modes only add pairs
    top = 2.0 * float(single.max())
    k = np.arange(1, int(top / 2 + 6 * math.sqrt(top)) + 42)
    a = spectral.gaussian_relative_power_sums(aspects[:, None], k)
    coef = np.repeat(a / a[:, :1], mus.size, axis=0)  # a row per (aspect, mu) point
    target = (mus / a[:, :1]).ravel()  # mu lambda_1
    sigma = np.minimum(np.tile(single, points), 2.0 * np.sqrt(target))
    active = np.flatnonzero(target > 0)
    while active.size:
        x = sigma[active]
        scale = np.exp(-np.maximum(x - 600.0, 0.0))
        terms = _even_terms(x, k.size, scale) * coef[active]
        step = x - x * (0.5 * np.sum(terms, axis=1) - scale * target[active]) / (terms @ k)
        falls = step < x
        sigma[active[falls]] = step[falls]
        active = active[falls]
    # (4^k - 2) sigma^2k = (1 - 2^(1 - 2k)) (2 sigma)^2k; past sigma_1 ~ 355
    # the norm leaves the float range
    with np.errstate(over="ignore"):
        hs2 = (_even_terms(2.0 * sigma, k.size) * coef) @ (1.0 - 2.0 ** (1 - 2 * k))
        hs2 *= np.repeat(a[:, 0], mus.size)
    return aspects, sigma.reshape(points, -1), hs2.reshape(points, -1)


@dataclass(frozen=True)
class RenormalizedCovariance:
    """Hermitian block operator over 2M rows (annihilation then creation)."""

    mat: BlockMatrix
    dofs: tuple

    def __post_init__(self):
        sizes = tuple(d.grid.n for d in self.dofs) * 2
        if self.mat.row_sizes != sizes or self.mat.col_sizes != sizes:
            raise ValueError("block sizes do not match the DOF grids")
        if self.mat.hermiticity_defect() > 1e-10:
            raise ValueError("renormalized covariance must be Hermitian")

    @property
    def n_dofs(self) -> int:
        return len(self.dofs)


def source_dofs(source, process: ProcessType) -> tuple:
    """The source modes of a JSA or Schmidt spectrum, named and ordered as in
    its covariance."""
    if process is ProcessType.TYPE_0I:
        return (Dof("mode", source.grid_signal),)
    return (Dof("signal", source.grid_signal), Dof("idler", source.grid_idler))


def _weighted_modes(spectrum: SchmidtSpectrum) -> tuple:
    """Signal and idler Schmidt modes in the weight-symmetrized representation."""
    if not spectrum.has_modes:
        raise ValueError("exact covariance assembly needs Schmidt modes")
    u = spectrum.modes_signal * np.sqrt(spectrum.grid_signal.weights)[:, None]
    v = spectrum.modes_idler * np.sqrt(spectrum.grid_idler.weights)[:, None]
    return u, v


def build_covariance_exact(
    spectrum: SchmidtSpectrum, gain: float, process: ProcessType
) -> RenormalizedCovariance:
    """Assemble the renormalized covariance from Schmidt modes.

    Uses the per-mode hyperbolic form of exp(2 Z); requires the spectrum to
    carry discretized modes.
    """
    u, v = _weighted_modes(spectrum)
    sig = SqueezingSpectrum.from_schmidt(spectrum, gain, process).sigmas
    c = (np.cosh(sig) - 1.0) / 2.0
    s = np.sinh(sig) / 2.0

    def sandwich(left, diag, right):
        if gain == 0:
            return None
        return (left * diag) @ right.conj().T

    dofs = source_dofs(spectrum, process)
    sizes = tuple(d.grid.n for d in dofs) * 2
    if process is ProcessType.TYPE_0I:
        blocks = (
            (sandwich(u, c, u), sandwich(u, s, v)),
            (sandwich(v, s, u), sandwich(v, c, v)),
        )
        return RenormalizedCovariance(BlockMatrix(blocks, sizes, sizes), dofs)

    uc, vc = u.conj(), v.conj()
    blocks = (
        (sandwich(u, c, u), None, None, sandwich(u, s, v)),
        (None, sandwich(vc, c, vc), sandwich(vc, s, uc), None),
        (None, sandwich(uc, s, vc), sandwich(uc, c, uc), None),
        (sandwich(v, s, u), None, None, sandwich(v, c, v)),
    )
    return RenormalizedCovariance(BlockMatrix(blocks, sizes, sizes), dofs)


def covariance_factor(spectrum: SchmidtSpectrum, process: ProcessType) -> np.ndarray:
    """Gain-independent N x r basis V with orthonormal columns such that the
    covariance of `build_covariance_exact` is V M V^dag, M = covariance_core.

    The columns are the weighted u, v (type-0/I) or u, v, conj(v), conj(u)
    (type-II) Schmidt modes, each in the block rows where the covariance
    holds it, so r is 2 or 4 times the number K of Schmidt modes.  V is real
    when the modes are.  A type-II V is [V_1, `_mirror`(V_1)], 2K each.
    """
    first = _first_sector(spectrum, process)
    return first if process is ProcessType.TYPE_0I else np.hstack([first, _mirror(first)])


def _first_sector(spectrum: SchmidtSpectrum, process: ProcessType) -> np.ndarray:
    """The first 2K columns of `covariance_factor`: all of a type-0/I V."""
    u, v = _weighted_modes(spectrum)
    k, pairs = u.shape[1], 2 if process is ProcessType.TYPE_II else 1
    basis = np.zeros((pairs * (u.shape[0] + v.shape[0]), 2 * k), dtype=u.dtype)
    basis[:u.shape[0], :k], basis[-v.shape[0]:, k:] = u, v
    return basis


def _mirror(first: np.ndarray) -> np.ndarray:
    """V_2 of a type-II factor [V_1, V_2] from V_1, 2K columns each: V_1
    conjugated, its row halves and u/v column groups swapped, zeros keeping
    their sign."""
    second = np.roll(first, (first.shape[0] // 2, first.shape[1] // 2), axis=(0, 1))
    return np.conjugate(second, out=second, where=second != 0)


def covariance_core(sq: SqueezingSpectrum) -> np.ndarray:
    """The r x r core M of `covariance_factor`: [[C, S], [S, C]] per pair of
    column groups, C = diag(cosh sigma - 1)/2 and S = diag(sinh sigma)/2."""
    c = np.diag((np.cosh(sq.sigmas) - 1.0) / 2.0)
    s = np.diag(np.sinh(sq.sigmas) / 2.0)
    pairs = 2 if sq.process is ProcessType.TYPE_II else 1
    return np.kron(np.eye(pairs), np.block([[c, s], [s, c]]))


def covariance_eigenvalues(spectrum: SqueezingSpectrum) -> np.ndarray:
    """Nonzero covariance eigenvalues (exp(+-sigma) - 1)/2, descending.

    Type-II duplicates every value.
    """
    sig = spectrum.sigmas
    vals = np.concatenate([(np.expm1(sig)) / 2.0, (np.expm1(-sig)) / 2.0])
    if spectrum.process is ProcessType.TYPE_II:
        vals = np.repeat(vals, 2)
    return np.sort(vals)[::-1]


class CovarianceNorms(NamedTuple):
    trace_norm: float
    hs_norm: float
    largest_abs_eigenvalue: float


def norms(x: SqueezingSpectrum) -> CovarianceNorms:
    """Trace norm, Hilbert-Schmidt norm and spectral radius of the covariance,
    in closed form from its squeezing spectrum."""
    mult = 2.0 if x.process is ProcessType.TYPE_II else 1.0
    sig = x.sigmas
    lp = np.expm1(sig) / 2.0
    lm = np.expm1(-sig) / 2.0
    trace_norm = mult * float(np.sum(lp) - np.sum(lm))
    hs2 = mult * float(np.sum(lp**2) + np.sum(lm**2))
    lam1 = float(lp[0]) if sig.size else 0.0
    return CovarianceNorms(trace_norm, math.sqrt(hs2), lam1)
