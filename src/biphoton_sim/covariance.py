"""Renormalized covariance of photon-pair sources and its series truncation.

The covariance of the generated state is exp(2 Z) with the pair-creation
generator Z built from the JSA kernel; the renormalized covariance is
(exp(2 Z) - 1)/2.  Internally all operators use the standard mode ordering
(annihilation rows for every discrete mode first, then the creation rows),
where the type-II generator occupies the anti-diagonal block positions.
Nonzero eigenvalues are (exp(+-sigma_j) - 1)/2 with the per-mode squeezing
parameters sigma_j; for type-II sources every eigenvalue comes twice.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from ._blocks import BlockMatrix
from .spectral import DiscretizedJsa, FrequencyGrid, SchmidtSpectrum

__all__ = [
    "ProcessType",
    "Dof",
    "SqueezingSpectrum",
    "GeneratorZ",
    "RenormalizedCovariance",
    "CovarianceNorms",
    "build_generator",
    "build_covariance_exact",
    "covariance_series",
    "covariance_eigenvalues",
    "mean_photon_number",
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


def gain_for_mean_pairs(
    schmidt: SchmidtSpectrum, mu: float, process: ProcessType
) -> float:
    """Invert the exact mean-pair relation for the gain by bisection."""
    if mu < 0:
        raise ValueError("mu must be non-negative")
    if mu == 0:
        return 0.0
    coef = schmidt.coefficients
    lead = coef[0]
    if lead == 0:
        raise ValueError("cannot reach a positive mu with an all-zero spectrum")

    def mu_of(gain: float) -> float:
        return mean_pairs(SqueezingSpectrum.from_schmidt(schmidt, gain, process))

    # single-mode gain reaching mu; more modes only add pairs
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


@dataclass(frozen=True)
class GeneratorZ:
    """Pair-creation generator blocks; the covariance is exp(2 Z)."""

    mat: BlockMatrix
    dofs: tuple
    gain: float
    process: ProcessType

    def __post_init__(self):
        if self.mat.hermiticity_defect() > 1e-10:
            raise ValueError("generator must be Hermitian")


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


def _grid_sizes(dofs) -> tuple:
    return tuple(d.grid.n for d in dofs) * 2


def build_generator(
    jsa: DiscretizedJsa, gain: float, process: ProcessType
) -> GeneratorZ:
    """Discretize the pair-creation generator for the given process type."""
    if gain < 0:
        raise ValueError("gain must be non-negative")
    psi = jsa.symmetrized()
    if process is ProcessType.TYPE_0I:
        if not jsa.grid_signal.same_points(jsa.grid_idler):
            raise ValueError("type-0/I requires identical signal and idler grids")
        if np.max(np.abs(psi - psi.T)) > 1e-8:
            raise ValueError("type-0/I requires a symmetric JSA")
        dofs = (Dof("mode", jsa.grid_signal),)
        sizes = _grid_sizes(dofs)
        if gain == 0:
            return GeneratorZ(BlockMatrix.zeros(sizes), dofs, gain, process)
        blocks = (
            (None, gain * psi),
            (gain * psi.conj().T, None),
        )
        return GeneratorZ(BlockMatrix(blocks, sizes, sizes), dofs, gain, process)

    dofs = (Dof("signal", jsa.grid_signal), Dof("idler", jsa.grid_idler))
    sizes = _grid_sizes(dofs)
    if gain == 0:
        return GeneratorZ(BlockMatrix.zeros(sizes), dofs, gain, process)
    half = gain / 2.0
    blocks = (
        (None, None, None, half * psi),
        (None, None, half * psi.T, None),
        (None, half * psi.conj(), None, None),
        (half * psi.conj().T, None, None, None),
    )
    return GeneratorZ(BlockMatrix(blocks, sizes, sizes), dofs, gain, process)


def build_covariance_exact(
    spectrum: SchmidtSpectrum, gain: float, process: ProcessType
) -> RenormalizedCovariance:
    """Assemble the renormalized covariance from Schmidt modes.

    Uses the per-mode hyperbolic form of exp(2 Z); requires the spectrum to
    carry discretized modes.
    """
    if not spectrum.has_modes:
        raise ValueError("exact covariance assembly needs Schmidt modes")
    sq = SqueezingSpectrum.from_schmidt(spectrum, gain, process)
    sig = sq.sigmas
    u = spectrum.modes_signal * np.sqrt(spectrum.grid_signal.weights)[:, None]
    v = spectrum.modes_idler * np.sqrt(spectrum.grid_idler.weights)[:, None]
    c = (np.cosh(sig) - 1.0) / 2.0
    s = np.sinh(sig) / 2.0

    def sandwich(left, diag, right):
        if gain == 0:
            return None
        return (left * diag) @ right.conj().T

    if process is ProcessType.TYPE_0I:
        dofs = (Dof("mode", spectrum.grid_signal),)
        sizes = _grid_sizes(dofs)
        blocks = (
            (sandwich(u, c, u), sandwich(u, s, v)),
            (sandwich(v, s, u), sandwich(v, c, v)),
        )
        return RenormalizedCovariance(BlockMatrix(blocks, sizes, sizes), dofs)

    dofs = (Dof("signal", spectrum.grid_signal), Dof("idler", spectrum.grid_idler))
    sizes = _grid_sizes(dofs)
    uc, vc = u.conj(), v.conj()
    blocks = (
        (sandwich(u, c, u), None, None, sandwich(u, s, v)),
        (None, sandwich(vc, c, vc), sandwich(vc, s, uc), None),
        (None, sandwich(uc, s, vc), sandwich(uc, c, uc), None),
        (sandwich(v, s, u), None, None, sandwich(v, c, v)),
    )
    return RenormalizedCovariance(BlockMatrix(blocks, sizes, sizes), dofs)


def covariance_series(z: GeneratorZ, order: int) -> RenormalizedCovariance:
    """Truncated series sum_{n=1..N} (2 Z)^n / (2 n!) of the covariance."""
    if order < 1:
        raise ValueError("order must be at least 1")
    two_z = z.mat.scale(2.0)
    term = two_z
    acc = term.scale(0.5)
    fact = 1.0
    for n in range(2, order + 1):
        term = term @ two_z
        fact *= n
        acc = acc.add(term.scale(1.0 / (2.0 * fact)))
    return RenormalizedCovariance(acc, z.dofs)


def covariance_eigenvalues(spectrum: SqueezingSpectrum) -> np.ndarray:
    """Nonzero covariance eigenvalues (exp(+-sigma) - 1)/2, descending.

    Type-II duplicates every value.
    """
    sig = spectrum.sigmas
    vals = np.concatenate([(np.expm1(sig)) / 2.0, (np.expm1(-sig)) / 2.0])
    if spectrum.process is ProcessType.TYPE_II:
        vals = np.repeat(vals, 2)
    return np.sort(vals)[::-1]


def mean_photon_number(gamma: RenormalizedCovariance) -> float:
    """Expected photon number Tr(Gamma)/2 for zero displacement."""
    return float(np.real(gamma.mat.trace())) / 2.0


class CovarianceNorms(NamedTuple):
    trace_norm: float
    hs_norm: float
    largest_abs_eigenvalue: float


def norms(x: RenormalizedCovariance | SqueezingSpectrum) -> CovarianceNorms:
    """Trace norm, Hilbert-Schmidt norm and spectral radius of the covariance.

    Closed form from a squeezing spectrum, dense eigendecomposition otherwise.
    """
    if isinstance(x, SqueezingSpectrum):
        mult = 2.0 if x.process is ProcessType.TYPE_II else 1.0
        sig = x.sigmas
        lp = np.expm1(sig) / 2.0
        lm = np.expm1(-sig) / 2.0
        trace_norm = mult * float(np.sum(lp) - np.sum(lm))
        hs2 = mult * float(np.sum(lp**2) + np.sum(lm**2))
        lam1 = float(lp[0]) if sig.size else 0.0
        return CovarianceNorms(trace_norm, math.sqrt(hs2), lam1)
    evals = np.linalg.eigvalsh(x.mat.to_dense())
    return CovarianceNorms(
        float(np.sum(np.abs(evals))),
        float(np.sqrt(np.sum(evals**2))),
        float(np.max(np.abs(evals))) if evals.size else 0.0,
    )
