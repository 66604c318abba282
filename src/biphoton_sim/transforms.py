"""Continuous-mode Gaussian transformations: step physics and block form.

`phase_factor`, `fourier_kernel`, `check_mixing` and `projection_masks` are
what `run` applies to the rows of the Schmidt factor.  The block
constructors build the dense reference Gamma -> s Gamma s^dag (annihilation
rows for all discrete modes, then creation rows): identity, zero and
multiplication blocks never trigger dense work, vacuum ancilla modes ordered
last are dropped from the column space ("compression"), and the detection
determinant takes the small side of the Sylvester identity
det(1 + P s Gamma s^dag P) = det(1 + s^dag P s Gamma).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._blocks import Block, BlockMatrix, block_scale
from .covariance import Dof, RenormalizedCovariance
from .spectral import FrequencyGrid

__all__ = [
    "DomainMismatchError",
    "SymplecticTransform",
    "DetectionWindow",
    "DetectionProjection",
    "phase_shift",
    "fourier",
    "beam_splitter",
    "phase_factor",
    "fourier_kernel",
    "check_mixing",
    "compose",
    "compose_all",
    "compress",
    "projection_masks",
    "detected_gram",
    "compressed_determinant_operand",
    "output_dofs",
]


class DomainMismatchError(ValueError):
    """Time/frequency domain of an operation does not match the state."""


@dataclass(frozen=True)
class SymplecticTransform:
    """Block transformation over m_cols input and m_rows output discrete modes.

    dof_updates records (dof index, new grid, new domain) for transforms that
    move a mode to a conjugate axis (the Fourier transform).
    """

    mat: BlockMatrix
    m_rows: int
    m_cols: int
    dof_updates: tuple = ()

    def __post_init__(self):
        if len(self.mat.row_sizes) != 2 * self.m_rows:
            raise ValueError("block row count must be 2 * m_rows")
        if len(self.mat.col_sizes) != 2 * self.m_cols:
            raise ValueError("block column count must be 2 * m_cols")


@dataclass(frozen=True)
class DetectionWindow:
    """Closed interval in time or frequency; endpoints may be infinite."""

    lo: float
    hi: float
    domain: str = "frequency"

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("window endpoints must satisfy lo <= hi")
        if self.domain not in ("frequency", "time"):
            raise ValueError("domain must be 'frequency' or 'time'")

    @classmethod
    def unbounded(cls, domain: str = "frequency") -> "DetectionWindow":
        return cls(-math.inf, math.inf, domain)


@dataclass(frozen=True)
class DetectionProjection:
    """Per-DOF detection windows; None marks an empty window (mode discarded)."""

    windows: tuple

    def __post_init__(self):
        object.__setattr__(self, "windows", tuple(self.windows))

    @classmethod
    def full(cls, n_dofs: int, domain: str = "frequency") -> "DetectionProjection":
        return cls(tuple(DetectionWindow.unbounded(domain) for _ in range(n_dofs)))


def _dof_sizes(m_total: int, default_n: int, sizes) -> tuple:
    """Per-mode grid sizes; `sizes` overrides the uniform default."""
    if sizes is None:
        per_dof = [default_n] * m_total
    elif np.isscalar(sizes):
        per_dof = [int(sizes)] * m_total
    else:
        per_dof = [int(x) for x in sizes]
        if len(per_dof) != m_total:
            raise ValueError("sizes must provide one entry per discrete mode")
    return tuple(per_dof) * 2


def phase_factor(phi0: float, tau: float, beta_l: float, grid: FrequencyGrid) -> np.ndarray:
    """exp(i phi(w)) on the grid, phi = phi0 + tau w + beta_l w^2 / 2: the
    factor of a mode's annihilation rows; its creation rows take the conjugate."""
    w = grid.points
    return np.exp(1j * (phi0 + tau * w + 0.5 * beta_l * w**2))


def phase_shift(
    phi0: float,
    tau: float,
    beta_l: float,
    grid: FrequencyGrid,
    dof: int,
    m_total: int,
    sizes=None,
) -> SymplecticTransform:
    """Multiply one mode by exp(+-i phi(w)), phi = phi0 + tau w + beta_l w^2 / 2.

    Covers constant phase, delay tau and quadratic chirp on the detuning axis.
    """
    if not 0 <= dof < m_total:
        raise ValueError("dof index out of range")
    factor = phase_factor(phi0, tau, beta_l, grid)
    entries: list = [1.0] * (2 * m_total)
    entries[dof] = factor
    entries[m_total + dof] = factor.conj()
    block_sizes = _dof_sizes(m_total, grid.n, sizes)
    return SymplecticTransform(BlockMatrix.diagonal(entries, block_sizes), m_total, m_total)


def fourier_kernel(grid: FrequencyGrid) -> tuple[np.ndarray, FrequencyGrid]:
    """Unitary Fourier kernel exp(-i w t)/sqrt(2 pi) of a uniform grid and the
    induced time grid (spacing 2 pi / (N dw), uniform weights).

    The discretized kernel is exactly unitary, which assumes the state
    carries negligible mass at the grid edges.  A mode's annihilation rows
    take the kernel, its creation rows the conjugate.
    """
    dw = grid.spacing  # raises on non-uniform grids
    n = grid.n
    dt = 2.0 * math.pi / (n * dw)
    t = (np.arange(n) - (n - 1) / 2.0) * dt
    kernel = np.exp(-1j * np.outer(t, grid.points)) * math.sqrt(dt * dw / (2.0 * math.pi))
    return kernel, FrequencyGrid(t, np.full(n, dt))


def fourier(
    grid: FrequencyGrid, dof: int, m_total: int, sizes=None
) -> tuple[SymplecticTransform, FrequencyGrid]:
    """The `fourier_kernel` block on one mode, with the induced time grid."""
    if not 0 <= dof < m_total:
        raise ValueError("dof index out of range")
    kernel, time_grid = fourier_kernel(grid)
    entries: list = [1.0] * (2 * m_total)
    entries[dof] = kernel
    entries[m_total + dof] = kernel.conj()
    block_sizes = _dof_sizes(m_total, grid.n, sizes)
    mat = BlockMatrix.diagonal(entries, block_sizes)
    return (
        SymplecticTransform(mat, m_total, m_total, dof_updates=((dof, time_grid, "time"),)),
        time_grid,
    )


def check_mixing(transmittance, reflectance) -> tuple[np.ndarray, np.ndarray]:
    """T and R of a beam splitter as float arrays; raises unless T^2 + R^2 = 1."""
    t = np.asarray(transmittance, dtype=float)
    r = np.asarray(reflectance, dtype=float)
    if np.max(np.abs(t**2 + r**2 - 1.0)) > 1e-12:
        raise ValueError("transmittance and reflectance must satisfy T^2 + R^2 = 1")
    return t, r


def beam_splitter(
    transmittance, reflectance, dofs: tuple, m_total: int, n: int = 1, sizes=None
) -> SymplecticTransform:
    """Mix two modes with real coefficients (T, R; -R, T), duplicated for the
    creation sector.  T and R may be scalars or sampled functions of frequency."""
    d1, d2 = dofs
    if d1 == d2 or not (0 <= d1 < m_total and 0 <= d2 < m_total):
        raise ValueError("beam splitter needs two distinct in-range dof indices")
    t, r = check_mixing(transmittance, reflectance)
    t_blk: Block = float(t) if t.ndim == 0 else t
    r_blk: Block = float(r) if r.ndim == 0 else r
    default_n = t.shape[0] if t.ndim else n
    m2 = 2 * m_total
    blocks = [[None] * m2 for _ in range(m2)]
    for k in range(m2):
        blocks[k][k] = 1.0
    for off in (0, m_total):
        blocks[off + d1][off + d1] = t_blk
        blocks[off + d1][off + d2] = r_blk
        blocks[off + d2][off + d1] = block_scale(r_blk, -1.0)
        blocks[off + d2][off + d2] = t_blk
    block_sizes = _dof_sizes(m_total, default_n, sizes)
    mat = BlockMatrix(tuple(tuple(row) for row in blocks), block_sizes, block_sizes)
    return SymplecticTransform(mat, m_total, m_total)


def compose(outer: SymplecticTransform, inner: SymplecticTransform) -> SymplecticTransform:
    """Transform applying `inner` first, then `outer`."""
    if outer.m_cols != inner.m_rows:
        raise ValueError("transform mode counts do not compose")
    updates = {}
    for idx, grid, domain in inner.dof_updates:
        updates[idx] = (grid, domain)
    for idx, grid, domain in outer.dof_updates:
        updates[idx] = (grid, domain)
    return SymplecticTransform(
        outer.mat @ inner.mat,
        outer.m_rows,
        inner.m_cols,
        tuple((i, g, d) for i, (g, d) in sorted(updates.items())),
    )


def compose_all(transforms) -> SymplecticTransform:
    """Compose a pipeline given in application order (first applied first)."""
    transforms = list(transforms)
    if not transforms:
        raise ValueError("empty transform pipeline")
    total = transforms[0]
    for t in transforms[1:]:
        total = compose(t, total)
    return total


def output_dofs(s: SymplecticTransform, in_dofs, names=None) -> tuple:
    """Dof metadata of the transform's output space.

    Output modes beyond the input covariance (vacuum ancillas of a reduced
    transform) inherit the grid of the first input mode; dof_updates override
    grid and domain.
    """
    updates = {idx: (grid, domain) for idx, grid, domain in s.dof_updates}
    dofs = []
    for i in range(s.m_rows):
        if i < len(in_dofs):
            name, grid, domain = in_dofs[i].name, in_dofs[i].grid, in_dofs[i].domain
        else:
            name = names[i] if names is not None else f"mode{i}"
            grid, domain = in_dofs[0].grid, in_dofs[0].domain
        if i in updates:
            grid, domain = updates[i]
        dofs.append(Dof(name, grid, domain))
    return tuple(dofs)


def _window_mask(window: DetectionWindow | None, grid: FrequencyGrid) -> np.ndarray:
    """0/1 mask realizing the window with endpoints rounded outward."""
    pts = grid.points
    if window is None:
        return np.zeros(pts.size)
    if window.lo > pts[-1] or window.hi < pts[0]:
        raise ValueError("detection window lies outside the grid")
    if window.lo <= pts[0]:
        i_lo = 0
    else:
        i_lo = int(np.searchsorted(pts, window.lo, side="right")) - 1
    if window.hi >= pts[-1]:
        i_hi = pts.size - 1
    else:
        i_hi = int(np.searchsorted(pts, window.hi, side="left"))
    mask = np.zeros(pts.size)
    mask[i_lo : i_hi + 1] = 1.0
    return mask


def projection_masks(p: DetectionProjection, dofs) -> list:
    """Per-DOF masks of a projection against the states' grids and domains.

    Unbounded windows are domain-agnostic (their mask is full either way);
    every bounded window must live in the DOF's current domain.
    """
    if len(p.windows) != len(dofs):
        raise ValueError("projection must provide one window per DOF")
    masks = []
    for window, dof in zip(p.windows, dofs):
        bounded = window is not None and (
            window.lo != -math.inf or window.hi != math.inf
        )
        if bounded and window.domain != dof.domain:
            raise DomainMismatchError(
                f"window domain '{window.domain}' does not match state domain "
                f"'{dof.domain}' on '{dof.name}'"
            )
        masks.append(_window_mask(window, dof.grid))
    return masks


def compress(full: SymplecticTransform, nonvacuum_count: int) -> SymplecticTransform:
    """Keep only the block columns of the first `nonvacuum_count` modes.

    Requires the vacuum modes to be ordered last; then
    S (Gamma + 0) S^dag = s Gamma s^dag.
    """
    m = full.m_cols
    mp = nonvacuum_count
    if mp > m:
        raise ValueError("nonvacuum_count exceeds the mode count")
    keep = list(range(mp)) + list(range(m, m + mp))
    blocks = tuple(tuple(row[k] for k in keep) for row in full.mat.blocks)
    mat = BlockMatrix(blocks, full.mat.row_sizes, tuple(full.mat.col_sizes[k] for k in keep))
    return SymplecticTransform(mat, full.m_rows, mp, full.dof_updates)


def detected_gram(s: SymplecticTransform, p: DetectionProjection, out_dofs) -> BlockMatrix:
    """Gram operator s^dag P s of the detected output rows over s's columns.

    It does not depend on the covariance, so a sweep over the gain builds it
    once.  Its largest eigenvalue is the largest share of any input's
    intensity that reaches the detection windows.
    """
    masks = projection_masks(p, out_dofs)
    entries: list = [None if not m.any() else m for m in masks]
    d = BlockMatrix.diagonal(entries * 2, s.mat.row_sizes)
    return (s.mat.adjoint() @ d) @ s.mat


def compressed_determinant_operand(
    s: SymplecticTransform,
    p: DetectionProjection,
    gamma: RenormalizedCovariance,
    out_dofs=None,
) -> BlockMatrix:
    """Small-side operand s^dag P s Gamma of the determinant identity."""
    if s.m_cols != gamma.n_dofs:
        raise ValueError("transform and covariance mode counts do not match")
    dofs = out_dofs if out_dofs is not None else output_dofs(s, gamma.dofs)
    return detected_gram(s, p, dofs) @ gamma.mat
