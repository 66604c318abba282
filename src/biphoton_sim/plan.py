"""Detection on the Schmidt basis: the r x r route of every detection method.

The covariance factors as V M V^dag (V fixed, the r x r core M
gain-dependent; `covariance_factor`, `covariance_core`).  A pipeline s acts
on the rows of V, vacuum ancillas starting as zero rows, and masking the
rows of s V to the detection windows gives the r x r detected gram
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
twice the half's, and lambda_max(H) = lambda_max(H_1), so the plan uses the
r/2 columns of the first sector with multiplicity 2.  Otherwise (a beam
splitter joining signal and idler, or type-0/I, whose M couples the halves)
it uses all r columns with multiplicity 1.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from . import detection as det
from .covariance import ProcessType, _couples, covariance_core

__all__ = ["DetectionPlan"]


class DetectionPlan:
    """The detection of one pushed, masked Schmidt factor.

    `factor` is s V, the covariance factor V = `covariance_factor(schmidt,
    process)` pushed through a passive pipeline s: rows over the output
    modes, the annihilation rows of every mode and then the creation rows.
    A type-II factor may be its first sector s V_1 alone (2K of 4K columns)
    unless a detected row couples the sectors, that is s V_1 is nonzero at it
    and at its annihilation/creation partner (a ValueError).  `masks[k]` is
    output mode k's window mask and `detectors[k]` its detector index or
    None.  The package exports no pipeline push: a caller builds s V itself
    (a uniform field loss t is t V), as `run` does.  The grams and square
    roots are formed on first use and kept, so a sweep forms them once.
    """

    def __init__(self, schmidt, process: ProcessType, factor, masks, detectors):
        self.schmidt = schmidt
        self.process = process
        self.masks = list(masks)
        self.detectors = list(detectors)
        if len(self.detectors) != len(self.masks) or self.detectors.count(None) == len(self.masks):
            raise ValueError("expected a detector index or None per mask, and one detector at least")
        half = 2 * schmidt.coefficients.size
        widths = (half, 2 * half) if process is ProcessType.TYPE_II else (half,)
        if factor.shape[0] != 2 * sum(m.size for m in self.masks) or factor.shape[1] not in widths:
            raise ValueError(f"factor of shape {factor.shape} does not match the masks or modes")
        if process is ProcessType.TYPE_II and not _couples(factor[:, :half], self.masks):
            self.sector, self.multiplicity = slice(0, half), 2
        elif process is ProcessType.TYPE_II and factor.shape[1] == half:
            raise ValueError("a detected row couples the conjugate sectors: both are needed")
        else:
            self.sector, self.multiplicity = slice(None), 1
        self._factor = factor[:, self.sector]
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
                                 self._log_vacuum(sq, order, undetected), sum(cutoffs),
                                 self.multiplicity)
        return det.pnd(gf, cutoffs)
