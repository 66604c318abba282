"""Detection on the Schmidt basis: the r x r route of every detection method.

The covariance factors as V M V^dag (V fixed, the r x r core M
gain-dependent; `covariance_factor`, `covariance_core`).  The plan pushes V
through a passive pipeline s, one step at a time on the rows of V, vacuum
ancillas starting as zero rows, and masking the rows of s V to the
detection windows gives the r x r detected gram
H = (P s V)^dag (P s V).  Tr[(s^dag P s Gamma)^n] = Tr[(M H)^n], so no
operator over the grid is ever formed.  The loss factor of both
determinant bounds is lambda_max(H): the nonzero eigenvalues of
s^dag P s Gamma are those of H^1/2 M H^1/2, which by Ostrowski's theorem are
theta_k lambda_k(M) with 0 <= theta_k <= lambda_max(H), however the
pipeline mixes modes.

A type-II plan works on one conjugate sector when it can.  The factor's
columns [0, 2K) are u and v (rows a_s and a_i^dag), [2K, 4K) conj v and
conj u (rows a_i and a_s^dag), and M = diag(M_1, M_1) with
M_1 = [[C, S], [S, C]].  Every pipeline step is passive, T (+) conj(T), and
the masks are real and equal on annihilation and creation rows, so the
second column half of P s V is the conjugate of the first with its row
halves and its u/v column groups (Pi) swapped (`covariance._mirror`).  So
a detected row is nonzero in both halves exactly when the first half is
nonzero at it and at its annihilation/creation partner (`_couples`).  If
none is, the cross gram is exactly zero: H and every H_d are
diag(H_1, Pi conj(H_1) Pi), and M H = diag(M_1 H_1, Pi conj(M_1 H_1) Pi).
Then log det(1 + M H) = 2 log det(1 + M_1 H_1), each real trace moment is
twice the half's, and lambda_max(H) = lambda_max(H_1), so the plan pushes
the r/2 columns of the first sector alone and uses them with multiplicity
2.  Otherwise (a beam splitter joining signal and idler, or type-0/I, whose
M couples the halves) it uses all r columns with multiplicity 1, a type-II
second sector being the `_mirror` of the pushed first, so every plan pushes
the 2K columns of one sector once.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from . import detection as det
from . import transforms
from .covariance import Dof, ProcessType, _first_sector, _mirror, covariance_core, source_dofs

__all__ = ["ConfigError", "DetectionPlan"]


class ConfigError(ValueError):
    """Invalid scenario configuration; the message carries the field path."""


def _push_pipeline(steps, in_dofs, factor):
    """Push `factor` (rows over the leading modes of `in_dofs`, annihilation
    rows first) through `steps`, checking the grid sizes of each beam
    splitter's modes before any row is touched (a `ConfigError` naming the
    step), and a Fourier step's uniform grid.

    The modes of `in_dofs` past the factor's rows are vacuum ancillas: they
    start as zero row blocks, which is the column compression of the vacuum
    modes.  Each step updates row blocks in place.  Returns the rows over all
    modes (complex if a step is a phase or Fourier step, else of the dtype of
    `factor`) and the output modes.
    """
    dofs = list(in_dofs)
    m_total = len(dofs)
    sizes = [d.grid.n for d in dofs]
    for path, _, (d1, d2), _ in [step for step in steps if step[1] == "beam_splitter"]:
        if sizes[d1] != sizes[d2]:
            raise ConfigError(f"{path}: a beam splitter joins modes of one grid size; mode {d1} "
                              f"('{dofs[d1].name}') has {sizes[d1]} points and mode {d2} "
                              f"('{dofs[d2].name}') {sizes[d2]}")
    n_source = factor.shape[0] // 2
    phased = any(step[1] in ("phase", "fourier") for step in steps)
    out = np.zeros((2 * sum(sizes), factor.shape[1]), dtype=complex if phased else factor.dtype)
    out[:n_source] = factor[:n_source]
    out[sum(sizes):sum(sizes) + n_source] = factor[n_source:]
    rows = np.split(out, np.cumsum(sizes * 2)[:-1])  # views: a_0, a_1, ..., c_0, c_1, ...
    for path, kind, dof, args in steps:
        if kind == "phase":
            phase = transforms.phase_factor(*args, dofs[dof].grid)
            rows[dof] *= phase[:, None]
            rows[m_total + dof] *= phase.conj()[:, None]
        elif kind == "fourier":
            try:
                kernel, time_grid = transforms.fourier_kernel(dofs[dof].grid)
            except ValueError as exc:
                raise ValueError(f"{path}: mode {dof} ('{dofs[dof].name}'): {exc}") from None
            a, c = rows[dof], rows[m_total + dof]
            a[...], c[...] = kernel @ a, kernel.conj() @ c
            dofs[dof] = Dof(dofs[dof].name, time_grid, "time")
        elif kind == "beam_splitter":
            (d1, d2), (t_coef, r_coef) = dof, args
            for first, second in ((rows[d1], rows[d2]), (rows[m_total + d1], rows[m_total + d2])):
                kept = first.copy()
                first *= t_coef
                first += r_coef * second
                second *= t_coef
                second -= r_coef * kept
        else:  # loss
            rows[dof] *= args
            rows[m_total + dof] *= args
    return out, tuple(dofs)


def _window_masks(windows, dofs) -> list:
    """Each output mode's mask of its window; errors name `detection.windows[k]`."""
    masks = []
    for k, (window, dof) in enumerate(zip(windows, dofs)):
        try:
            masks += transforms.projection_masks(transforms.DetectionProjection((window,)), [dof])
        except ValueError as exc:
            raise type(exc)(f"detection.windows[{k}]: {exc}") from None
    return masks


def _couples(first, masks) -> bool:
    """Whether a detected row of a pushed type-II factor couples its sectors:
    by `_mirror`, when its first sector is nonzero at the row and its partner."""
    rows = np.concatenate(list(masks) * 2) > 0
    nonzero = rows & (first != 0).any(axis=1)
    return bool(np.any(nonzero & np.roll(nonzero, rows.size // 2)))


class DetectionPlan:
    """The detection of the Schmidt factor behind a passive pipeline.

    `steps` are (label, kind, mode, numbers) tuples over the output modes
    `names`, first applied first: a "phase" with numbers (phi0, tau, beta_l),
    a "fourier" step with (), a "beam_splitter" on a pair of modes of one
    grid size (else a `ConfigError`) with (T, R), and a "loss" with its
    field transmittivity eta.  Labels only name errors.  The output modes are
    the source modes, ordered as `source_dofs` orders them, then vacuum
    ancillas, which take the first source mode's grid.  `windows[k]` is
    output mode k's `DetectionWindow`, in the mode's domain after the steps
    when bounded, or None to discard the mode, and `detectors[k]` its
    detector index or None.  The grams and square roots are formed on first
    use and kept, so a sweep forms them once.
    """

    def __init__(self, schmidt, process: ProcessType, steps, windows, detectors, names):
        self.schmidt = schmidt
        self.process = process
        self.detectors = list(detectors)
        grids = [d.grid for d in source_dofs(schmidt, process)]
        if (not len(windows) == len(self.detectors) == len(names) >= len(grids)
                or self.detectors.count(None) == len(names)):
            raise ValueError("expected a window, a detector index or None and a name per output "
                             "mode, the source modes first, and one detector at least")
        grids += grids[:1] * (len(names) - len(grids))
        in_dofs = [Dof(name, grid) for name, grid in zip(names, grids)]
        factor, dofs = _push_pipeline(steps, in_dofs, _first_sector(schmidt, process))
        self.masks = _window_masks(windows, dofs)
        self.multiplicity = 2 if process is ProcessType.TYPE_II else 1  # unless sectors couple
        if self.multiplicity == 2 and _couples(factor, self.masks):
            factor = np.hstack([factor, _mirror(factor)])
            self.multiplicity = 1
        self._factor, self.sector = factor, slice(0, factor.shape[1])
        self._roots = {}

    def _gram(self, keep) -> np.ndarray:
        """The gram of the detected rows of the output modes k with keep[k]."""
        rows = np.concatenate([m if kept else 0 * m for m, kept in zip(self.masks, keep)] * 2)
        a = self._factor[rows > 0]
        return a.conj().T @ a

    @functools.cached_property
    def gram(self) -> np.ndarray:
        """H, the gram of every detected row."""
        return self._gram([True] * len(self.masks))

    @functools.cached_property
    def detector_grams(self) -> list:
        """H_d, the gram of the rows of detector d, for each d."""
        count = max(d for d in self.detectors if d is not None) + 1
        return [self._gram([k == d for k in self.detectors]) for d in range(count)]

    @functools.cached_property
    def loss_factor(self) -> float:
        """lambda_max(H), the loss factor of the determinant bounds."""
        return float(np.linalg.eigvalsh(self.gram)[-1])

    @functools.cached_property
    def single_pair(self) -> det.PoissonParams:
        """Bivariate-Poisson parameters at unit gain, for a pipeline that keeps
        signal and idler apart.  The pair sum_j c_j u_j v_j^T sits in the first
        2K columns, the u group (signal, or type-0/I annihilation, rows) and
        then the v group (idler creation rows).  With H_uu and H_vv their
        blocks of H, p_s = sum_j c_j^2 (H_uu)_jj, p_i = sum_j c_j^2 (H_vv)_jj
        and p_si = c^T (H_uu o conj H_vv) c; type-0/I has one mode, window and
        loss, so p_i is p_s.  mu = gain^2 / 2 (type-0/I) or gain^2 / 4."""
        if self.process is ProcessType.TYPE_II and self.multiplicity == 1:
            raise ValueError("single_pair: this pipeline joins signal and idler")
        c = self.schmidt.coefficients
        k = c.size
        h_uu, h_vv = self.gram[:k, :k], self.gram[k:2 * k, k:2 * k]
        p_s, p_i = (float(np.real(np.diag(h)) @ (c * c)) for h in (h_uu, h_vv))
        p_si = float(np.real(c @ (h_uu * h_vv.conj()) @ c))
        if self.process is ProcessType.TYPE_0I:
            return det.PoissonParams(0.5, p_s, p_s, p_si)
        return det.PoissonParams(0.25, p_s, p_i, p_si)

    def log_vacuum(self, sq, order: int | None = None) -> float:
        """-1/2 log det(1 + M H) at the squeezing spectrum `sq`: exact with
        `order` None, else the log series of that order, from the eigenvalues
        of the Hermitian B diag(lam) B^dag with B = H^1/2 P, since every core
        is M = P diag(lam) P^T, P the fixed rotation of each (C, S) column
        pair and lam = (e^+-sigma - 1)/2.  B is formed once per gram; the
        series warns past spectral radius 0.95."""
        return self._log_vacuum(sq, order, detected_only=False)

    def _log_vacuum(self, sq, order, detected_only):
        """`log_vacuum`, of the rows that have a detector with `detected_only`."""
        h = sum(self.detector_grams) if detected_only else self.gram
        if order is None:
            k = covariance_core(sq)[self.sector, self.sector] @ h
            sign, logdet = np.linalg.slogdet(np.eye(k.shape[0]) + k)
            if sign == 0:
                raise np.linalg.LinAlgError("1 + K is singular")
            return -0.5 * self.multiplicity * logdet
        modes = self.schmidt.coefficients.size
        pairs = h.shape[0] // (2 * modes)
        if detected_only not in self._roots:
            vals, vecs = np.linalg.eigh(h)
            rotation = np.kron(np.eye(pairs), np.kron([[1, 1], [1, -1]], np.eye(modes)))
            root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
            self._roots[detected_only] = root @ rotation / math.sqrt(2)
        root = self._roots[detected_only]
        lam = np.tile(np.concatenate([np.expm1(sq.sigmas), np.expm1(-sq.sigmas)]) / 2, pairs)
        mu = np.linalg.eigvalsh((root * lam) @ root.conj().T)
        return -0.5 * self.multiplicity * det.log_series_power_sum(mu, order)

    def pnd(self, sq, cutoffs, order: int | None = None):
        """The photon-number table at `sq` up to `cutoffs`, one per detector,
        exact in every moment (`vacuum_point_gf` over the M H_d).  Its
        constant is the vacuum of the rows that have a detector, exact or the
        series of `order`: `log_vacuum(sq, order)` unless a windowed mode has
        no detector."""
        undetected = any(m.any() for m, d in zip(self.masks, self.detectors) if d is None)
        core = covariance_core(sq)[self.sector, self.sector]
        gf = det.vacuum_point_gf([core @ h for h in self.detector_grams],
                                 self._log_vacuum(sq, order, undetected), cutoffs,
                                 self.multiplicity)
        return det.pnd(gf, cutoffs)
