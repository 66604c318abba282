"""Closed-form error bounds for the series approximations.

Covers the trace-norm bound for the truncated covariance series, the two
Fredholm-determinant truncation bounds (eigenvalue-sum and Hilbert-Schmidt
variants), the cost of dropping the fourth-order term in the bivariate
Poisson approximation, and the entanglement-independent vacuum-probability
range.

Series tails are summed directly (never as differences of near-equal
partial sums) and large-argument paths run in log space, so the bounds stay
meaningful from 1e-16 up to overflow-scale squeezing parameters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .covariance import ProcessType

__all__ = [
    "OutOfDomainError",
    "BoundReport",
    "covariance_truncation_bound",
    "det_truncation_bound_eigen",
    "det_truncation_bound_hs",
    "poisson_vs_n2_bound",
    "vacuum_range",
]


class OutOfDomainError(ValueError):
    """Inputs outside the convergence domain of a series bound."""


@dataclass(frozen=True)
class BoundReport:
    """A certified upper bound together with the inputs that produced it."""

    value: float
    kind: str
    inputs: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value >= 0):
            raise ValueError(f"bound value {self.value!r} is not finite and non-negative")


def _logsumexp(xs) -> float:
    """log(sum(exp(xs))) by the arithmetic of scipy.special.logsumexp on real
    input: the maximal entries are split out of the sum, then added back."""
    a = np.asarray(xs, dtype=float)
    a_max = a.max()
    if not math.isfinite(a_max):
        # all -inf gives -inf; a +inf or NaN entry propagates
        return float(a_max)
    top = a == a_max
    m = np.count_nonzero(top)
    s = np.sum(np.exp(np.where(top, -np.inf, a) - a_max)) / m
    return float(np.log1p(s) + np.log(float(m)) + a_max)


def _log_exp_tail(x: float, order: int, odd: bool) -> float:
    """log of sum_{n > order, n odd/even} x^n / n!, computed term by term."""
    if x <= 0:
        return -math.inf
    n0 = order + 1
    parity = 1 if odd else 0
    if n0 % 2 != parity:
        n0 += 1
    logx = math.log(x)
    logs = []
    n = n0
    best = -math.inf
    while True:
        lt = n * logx - math.lgamma(n + 1)
        logs.append(lt)
        best = max(best, lt)
        # terms decay once n > x; stop when far below the running peak
        if n > x and lt < best - 60.0:
            break
        n += 2
        if n > n0 + 100000:  # pragma: no cover - defensive cap
            break
    return _logsumexp(logs)


def _log_sinh(x: float) -> float:
    if x <= 0:
        return -math.inf
    return x + math.log(-math.expm1(-2.0 * x)) - math.log(2.0)


def covariance_truncation_bound(sigmas, order: int) -> BoundReport:
    """Relative trace-norm error bound of the order-N covariance series.

    Uses the M largest squeezing parameters provided; with the complete
    spectrum the bound is an equality.  Even orders leave an odd-series
    remainder and vice versa.
    """
    sig = np.atleast_1d(np.asarray(sigmas, dtype=float))
    if sig.size == 0 or np.any(sig < 0):
        raise ValueError("sigmas must be non-negative")
    if not np.any(sig > 0):
        raise ValueError("at least one squeezing parameter must be positive")
    if order < 0:
        raise ValueError("order must be non-negative")
    odd_tail = order % 2 == 0
    log_num = _logsumexp([_log_exp_tail(s, order, odd=odd_tail) for s in sig])
    log_den = _logsumexp([_log_sinh(s) for s in sig])
    value = float(np.exp(log_num - log_den))
    return BoundReport(
        value,
        "COVARIANCE_TRUNC",
        {"order": order, "n_sigmas": int(sig.size), "sigma_max": float(sig.max())},
    )


def _log_series_tail(lams, order: int) -> np.ndarray:
    """Remainders -sum_{n>N} (-lam)^n / n of ln(1 + lam) beyond order N, for a
    1-D array of lam.  Terms are added until one falls below 1e-18 of the sum,
    for all values at once in blocks of 64 orders; accumulate runs in order,
    so each remainder rounds as a term-by-term loop over that value alone."""
    lam = np.asarray(lams, dtype=float)
    big = np.abs(lam) >= 1
    if big.any():
        raise OutOfDomainError(f"|eta^2 lambda| = {float(abs(lam[big][0]))!r} >= 1")
    out = np.zeros(lam.shape)
    idx = np.flatnonzero(lam)
    x = -lam[idx]
    # each value's scalar power, as numpy's array power may round differently
    term, total = np.array([v**order for v in x]), np.zeros(idx.size)
    n = order + 1 + np.arange(64)
    while idx.size:
        steps = np.column_stack([term, np.repeat(x[:, None], n.size, axis=1)])
        terms = np.multiply.accumulate(steps, axis=1)[:, 1:]
        inc = terms / n
        totals = np.add.accumulate(np.column_stack([total, inc]), axis=1)[:, 1:]
        done = (np.abs(inc) < 1e-18 * (np.abs(totals) + 1e-300)) | (n > 100000)
        fin = done.any(axis=1)
        out[idx[fin]] = -totals[fin, done[fin].argmax(axis=1)]
        idx, x, term, total = idx[~fin], x[~fin], terms[~fin, -1], totals[~fin, -1]
        n = n + n.size
    return out


def det_truncation_bound_eigen(lambdas, eta2: float, order: int) -> BoundReport:
    """Determinant-truncation bound from the initial covariance eigenvalues."""
    lam = np.atleast_1d(np.asarray(lambdas, dtype=float))
    if order < 0:
        raise ValueError("order must be non-negative")
    if eta2 < 0:
        raise ValueError("eta2 must be non-negative")
    tails = np.abs(_log_series_tail(eta2 * lam, order))
    # the left-to-right sum, as summed one eigenvalue at a time
    value = float(np.expm1(0.5 * sum(tails.tolist())))
    return BoundReport(
        value,
        "DET_TRUNC_EIGEN",
        {"order": order, "eta2": float(eta2), "n_eigenvalues": int(lam.size)},
    )


def det_truncation_bound_hs(
    lambda1: float, hs_norm2: float, eta2: float, order: int
) -> BoundReport:
    """Determinant-truncation bound from |Lambda_1| and the HS norm only."""
    if order < 0:
        raise ValueError("order must be non-negative")
    if lambda1 < 0 or hs_norm2 < 0 or eta2 < 0:
        raise ValueError("lambda1, hs_norm2 and eta2 must be non-negative")
    inputs = {
        "order": order,
        "eta2": float(eta2),
        "lambda1": float(lambda1),
        "hs_norm2": float(hs_norm2),
    }
    a = eta2 * lambda1
    if lambda1 == 0 or a == 0:
        return BoundReport(0.0, "DET_TRUNC_HS", inputs)
    if a >= 1:
        raise OutOfDomainError(f"eta^2 |Lambda_1| = {float(a)!r} >= 1")
    # tail of -ln(1-a): all terms positive, no cancellation
    tail = -_log_series_tail([-a], order)[0]
    value = float(np.expm1(tail * hs_norm2 / (2.0 * lambda1**2)))
    return BoundReport(value, "DET_TRUNC_HS", inputs)


def poisson_vs_n2_bound(
    gain: float, schmidt_number: float, etas, process: ProcessType
) -> BoundReport:
    """Extra relative error of the bivariate Poisson approximation w.r.t. the
    second-order determinant truncation.

    `etas` holds the maximum field transmittivities: one value for type-0/I,
    a (signal, idler) pair for type-II.
    """
    if gain < 0 or schmidt_number <= 0:
        raise ValueError("gain must be >= 0 and schmidt_number positive")
    c4 = gain**4
    if process is ProcessType.TYPE_0I:
        eta = float(np.squeeze(etas))
        value = -math.expm1(-(eta**4) * c4 / (2.0 * schmidt_number))
        inputs = {"gain": gain, "schmidt_number": schmidt_number, "eta": eta}
    else:
        eta_s, eta_i = (float(e) for e in np.atleast_1d(etas))
        value = -math.expm1(-((eta_s**4 + eta_i**4)) * c4 / (32.0 * schmidt_number))
        inputs = {
            "gain": gain,
            "schmidt_number": schmidt_number,
            "eta_s": eta_s,
            "eta_i": eta_i,
        }
    return BoundReport(value, "POISSON_VS_N2", inputs)


def vacuum_range(mu: float, process: ProcessType) -> tuple[float, float]:
    """(upper, lower) vacuum probability over all spectra with mean pairs mu.

    The upper value is attained by a single Schmidt mode, the lower one in
    the infinitely entangled limit.
    """
    if mu < 0:
        raise ValueError("mu must be non-negative")
    if process is ProcessType.TYPE_0I:
        upper = 1.0 / math.sqrt(1.0 + 2.0 * mu)
    else:
        upper = 1.0 / (1.0 + mu)
    return upper, math.exp(-mu)
