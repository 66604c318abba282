"""Joint-spectral-amplitude models, discretization and Schmidt analysis.

Frequencies are angular (rad/s) or dimensionless detunings around a carrier;
only relative scales matter for every quantity computed downstream.  Kernels
carry dimension 1/frequency so that the discretized joint spectral density
sums to one under the grid quadrature.
"""
from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridCoverageError",
    "FrequencyGrid",
    "GaussianJsaModel",
    "DiscretizedJsa",
    "SchmidtSpectrum",
    "default_grids",
    "build_gaussian_jsa",
    "analytic_gaussian_schmidt",
    "gaussian_relative_power_sums",
    "gaussian_schmidt_number",
    "schmidt_decompose",
    "marginals",
    "schmidt_number",
    "load_jsa_csv",
    "save_jsa_csv",
]


class GridCoverageError(ValueError):
    """The frequency grid does not capture enough of the spectral mass."""


def _frozen_array(x, dtype=float) -> np.ndarray:
    arr = np.array(x, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FrequencyGrid:
    """Ordered frequency samples with quadrature weights.

    points : strictly increasing angular frequencies (or detunings)
    weights: positive quadrature weights, same units as points
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _frozen_array(self.points))
        object.__setattr__(self, "weights", _frozen_array(self.weights))
        if self.points.ndim != 1 or self.points.size < 2:
            raise ValueError("a frequency grid needs at least 2 ordered points")
        if self.weights.shape != self.points.shape:
            raise ValueError("weights must match points")
        if not np.all(np.diff(self.points) > 0):
            raise ValueError("grid points must be strictly increasing")
        if not np.all(self.weights > 0):
            raise ValueError("quadrature weights must be strictly positive")

    @classmethod
    def uniform(cls, lo: float, hi: float, n: int) -> "FrequencyGrid":
        """Uniform grid on [lo, hi] with trapezoidal weights."""
        points = np.linspace(lo, hi, n)
        h = (hi - lo) / (n - 1)
        weights = np.full(n, h)
        weights[0] = weights[-1] = h / 2
        return cls(points, weights)

    @property
    def n(self) -> int:
        return self.points.size

    @property
    def spacing(self) -> float:
        """Grid spacing; raises if the grid is not uniform."""
        d = np.diff(self.points)
        if not np.allclose(d, d[0], rtol=1e-12, atol=0):
            raise ValueError("grid is not uniform")
        return float(d[0])

    def same_points(self, other: "FrequencyGrid") -> bool:
        return self.points.shape == other.points.shape and np.array_equal(
            self.points, other.points
        )


@dataclass(frozen=True)
class GaussianJsaModel:
    """2D Gaussian joint spectral amplitude.

    delta_plus / delta_minus are the standard deviations of the joint spectral
    density along the diagonal and anti-diagonal of the (signal, idler) plane.
    The entanglement of the model is set entirely by the aspect ratio
    delta_minus / delta_plus.
    """

    delta_plus: float
    delta_minus: float
    center_signal: float = 0.0
    center_idler: float = 0.0

    def __post_init__(self):
        if not (0 < self.delta_plus < math.inf and 0 < self.delta_minus < math.inf
                and math.isfinite(self.center_signal) and math.isfinite(self.center_idler)):
            raise ValueError("widths must be positive and finite, and centres finite")


@dataclass(frozen=True)
class DiscretizedJsa:
    """JSA samples psi(w_s, w_i) on a rectangular grid.

    The samples are stored as float unless they are given complex, so a
    real JSA keeps real arithmetic (and LAPACK's real SVD) downstream.
    The quadrature-weighted squared norm is one:
    sum_mn w_m w_n |psi_mn|^2 = 1 (within 1e-10).
    """

    grid_signal: FrequencyGrid
    grid_idler: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        dtype = complex if np.iscomplexobj(self.values) else float
        object.__setattr__(self, "values", _frozen_array(self.values, dtype=dtype))
        if self.values.shape != (self.grid_signal.n, self.grid_idler.n):
            raise ValueError("values shape must be (n_signal, n_idler)")
        norm = self.quadrature_norm()
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"JSA not normalized: quadrature norm {norm!r}")

    def quadrature_norm(self) -> float:
        v = self.values
        parts = (v.real, v.imag) if np.iscomplexobj(v) else (v,)
        w_s, w_i = self.grid_signal.weights, self.grid_idler.weights
        return float(sum(np.einsum("m,n,mn,mn->", w_s, w_i, p, p) for p in parts))

    def symmetrized(self) -> np.ndarray:
        """Weight-symmetrized kernel matrix sqrt(w_s) psi sqrt(w_i)."""
        out = np.sqrt(self.grid_signal.weights)[:, None] * self.values
        out *= np.sqrt(self.grid_idler.weights)
        return out


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Schmidt coefficients sqrt(lambda_j), descending, with optional modes.

    Modes, when present, are orthonormal under the grid quadrature and stored
    de-symmetrized (plain function samples).  truncation_tail bounds the sum
    of all discarded lambda_j, so sum(lambda) + truncation_tail = 1.
    """

    coefficients: np.ndarray
    truncation_tail: float = 0.0
    modes_signal: np.ndarray | None = None
    modes_idler: np.ndarray | None = None
    grid_signal: FrequencyGrid | None = None
    grid_idler: FrequencyGrid | None = None

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _frozen_array(self.coefficients))
        c = self.coefficients
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a non-empty 1-D array")
        if np.any(c < 0):
            raise ValueError("Schmidt coefficients must be non-negative")
        if np.any(np.diff(c) > 0):
            raise ValueError("Schmidt coefficients must be sorted descending")
        if self.truncation_tail < 0:
            raise ValueError("truncation_tail must be non-negative")
        total = float(np.sum(c**2)) + self.truncation_tail
        if abs(total - 1.0) > 1e-8:
            raise ValueError(f"sum(lambda) + truncation_tail = {total!r}, expected 1")
        for m, g in ((self.modes_signal, self.grid_signal), (self.modes_idler, self.grid_idler)):
            if m is not None:
                if g is None:
                    raise ValueError("modes require their grid")
                if m.shape != (g.n, c.size):
                    raise ValueError("mode array shape must be (n_grid, n_modes)")

    @property
    def lambdas(self) -> np.ndarray:
        return self.coefficients**2

    @property
    def has_modes(self) -> bool:
        return self.modes_signal is not None and self.modes_idler is not None


def default_grids(
    model: GaussianJsaModel,
    extent_sigmas: float = 6.0,
    points_per_width: float = 8.0,
) -> tuple[FrequencyGrid, FrequencyGrid]:
    """Symmetric uniform grids adequate for `model`.

    The half-width covers `extent_sigmas` standard deviations along both
    rotated principal axes; the spacing resolves the narrower of the two
    widths with `points_per_width` points.
    """
    half = extent_sigmas * (model.delta_plus + model.delta_minus) / math.sqrt(2.0)
    h = min(model.delta_plus, model.delta_minus) / points_per_width
    m = int(math.ceil(half / h))
    n = 2 * m + 1
    grid_s = FrequencyGrid.uniform(model.center_signal - m * h, model.center_signal + m * h, n)
    grid_i = FrequencyGrid.uniform(model.center_idler - m * h, model.center_idler + m * h, n)
    return grid_s, grid_i


def _coverage_check(model: GaussianJsaModel, grid_s: FrequencyGrid, grid_i: FrequencyGrid):
    d_s = min(model.center_signal - grid_s.points[0], grid_s.points[-1] - model.center_signal)
    d_i = min(model.center_idler - grid_i.points[0], grid_i.points[-1] - model.center_idler)
    # the rotated +-5 sigma box has corners at (5 dp + 5 dm)/sqrt(2) from center
    corner = 5.0 * (model.delta_plus + model.delta_minus) / math.sqrt(2.0)
    if min(d_s, d_i) < corner:
        raise GridCoverageError(
            "grid does not cover 5 standard deviations along both rotated axes"
        )
    # union bound on the analytic density mass outside the rectangle
    sig_marg = math.sqrt((model.delta_plus**2 + model.delta_minus**2) / 2.0)
    tails = 0.0
    for d in (
        model.center_signal - grid_s.points[0],
        grid_s.points[-1] - model.center_signal,
        model.center_idler - grid_i.points[0],
        grid_i.points[-1] - model.center_idler,
    ):
        tails += 0.5 * math.erfc(d / (math.sqrt(2.0) * sig_marg))
    if tails > 1e-8:
        raise GridCoverageError(
            f"estimated spectral mass outside the grid is {tails:.3e} (limit 1e-8)"
        )


def build_gaussian_jsa(
    model: GaussianJsaModel, grid_s: FrequencyGrid, grid_i: FrequencyGrid
) -> DiscretizedJsa:
    """Sample the 2D Gaussian amplitude and normalize it on the grid."""
    _coverage_check(model, grid_s, grid_i)
    ws = grid_s.points - model.center_signal
    wi = grid_i.points - model.center_idler
    wp = (ws[:, None] + wi[None, :]) / math.sqrt(2.0)
    wm = (ws[:, None] - wi[None, :]) / math.sqrt(2.0)
    vals = np.exp(
        -(wp**2) / (4.0 * model.delta_plus**2) - (wm**2) / (4.0 * model.delta_minus**2)
    )
    norm = np.einsum("m,n,mn->", grid_s.weights, grid_i.weights, vals**2)
    vals /= math.sqrt(float(norm))
    return DiscretizedJsa(grid_s, grid_i, vals)


def _gaussian_log_z(aspect_ratio):
    """ln z of the Gaussian model, z = ((r - 1)/(r + 1))^2, as
    2 log1p(-2 min(r, 1) / (r + 1)), so that 1 - z never cancels (-inf at
    r = 1); ratios broadcast."""
    r = np.asarray(aspect_ratio, dtype=float)
    with np.errstate(divide="ignore"):  # r = 1: z = 0
        return 2.0 * np.log1p(-2.0 * np.minimum(r, 1.0) / (r + 1.0))


def analytic_gaussian_schmidt(aspect_ratio: float, j_max: int) -> SchmidtSpectrum:
    """Closed-form Schmidt spectrum of the 2D Gaussian model.

    lambda_j = (1 - z) z^(j-1) with z = ((r - 1)/(r + 1))^2; the spectrum is
    invariant under r -> 1/r.  The tail of the geometric series beyond j_max
    is returned as truncation_tail.  1 - z = 4 r / (r + 1)^2 and z^j is
    exp(j ln z) (`_gaussian_log_z`), so no weight cancels at any ratio.
    """
    if aspect_ratio <= 0:
        raise ValueError("aspect_ratio must be positive")
    if j_max < 1:
        raise ValueError("j_max must be at least 1")
    log_z = float(_gaussian_log_z(aspect_ratio))
    powers = np.concatenate([[1.0], np.exp(np.arange(1, j_max) * log_z)])
    lam = 4.0 * aspect_ratio / (aspect_ratio + 1.0) ** 2 * powers
    return SchmidtSpectrum(np.sqrt(lam), truncation_tail=math.exp(j_max * log_z))


def gaussian_relative_power_sums(aspect_ratio, k) -> np.ndarray:
    """Power sums S_k = sum_j lambda_j^k of the Gaussian model's untruncated
    spectrum in units of lambda_1^k: sum_j z^(k (j - 1)) = 1 / (1 - z^k), for
    orders k >= 1 and aspect ratios, broadcast against each other.

    S_k = (1 - z)^k / (1 - z^k) (Law, Walmsley and Eberly, PRL 84 (2000)
    5304) is this times lambda_1^k = (4 r / (r + 1)^2)^k, which underflows
    where the ratio does not.  1 - z^k is -expm1(k ln z), so no step cancels.
    """
    r = np.asarray(aspect_ratio, dtype=float)
    k = np.asarray(k)
    if not np.all(r > 0):
        raise ValueError("aspect_ratio must be positive")
    if np.any(k < 1):
        raise ValueError("the orders k must be at least 1")
    return -1.0 / np.expm1(k * _gaussian_log_z(r))


def gaussian_schmidt_number(aspect_ratio: float) -> float:
    """Closed-form Schmidt number (1 + z)/(1 - z) = (r + 1/r)/2 of the Gaussian model."""
    return (aspect_ratio + 1.0 / aspect_ratio) / 2.0


def schmidt_decompose(
    jsa: DiscretizedJsa,
    rank: int | None = None,
    lambda_floor: float = 1e-16,
    want_modes: bool = True,
) -> SchmidtSpectrum:
    """SVD of the weight-symmetrized kernel.

    Returns the top `rank` coefficients if given, otherwise all with
    lambda_j >= lambda_floor; everything below goes into truncation_tail.
    Modes come back de-symmetrized and are orthonormal under the grid
    quadrature; pass want_modes=False to skip them (much faster for large
    grids when only the coefficients matter).

    The JSA is dropped once the kernel is formed: passed as a temporary,
    its values are freed before the SVD copies the kernel, while a caller
    that keeps its own reference keeps them alive through the SVD.
    """
    grid_s, grid_i = jsa.grid_signal, jsa.grid_idler
    a = jsa.symmetrized()
    del jsa
    if want_modes:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    else:
        s = np.linalg.svd(a, compute_uv=False)
    lam = s**2
    if rank is not None:
        if rank < 1:
            raise ValueError("rank must be at least 1")
        keep = min(rank, s.size)
    else:
        keep = max(1, int(np.count_nonzero(lam >= lambda_floor)))
    tail = max(0.0, 1.0 - float(np.sum(lam[:keep])))
    if not want_modes:
        return SchmidtSpectrum(s[:keep], truncation_tail=tail)
    modes_s = u[:, :keep] / np.sqrt(grid_s.weights)[:, None]
    modes_i = vh[:keep, :].conj().T / np.sqrt(grid_i.weights)[:, None]
    return SchmidtSpectrum(
        s[:keep],
        truncation_tail=tail,
        modes_signal=modes_s,
        modes_idler=modes_i,
        grid_signal=grid_s,
        grid_idler=grid_i,
    )


def marginals(jsa: DiscretizedJsa) -> tuple[np.ndarray, np.ndarray]:
    """Signal and idler spectral densities on their grids; each integrates to 1."""
    dens = np.abs(jsa.values) ** 2
    psi_s = dens @ jsa.grid_idler.weights
    psi_i = jsa.grid_signal.weights @ dens
    return psi_s, psi_i


def schmidt_number(spectrum: SchmidtSpectrum) -> float:
    """Entanglement measure 1 / sum(lambda_j^2); equals J for J equal modes."""
    lam2 = np.sum(spectrum.lambdas**2)
    if lam2 == 0:
        raise ValueError("all-zero Schmidt spectrum")
    return float(1.0 / lam2)


def save_jsa_csv(jsa: DiscretizedJsa, path) -> None:
    """Write `omega_s,omega_i,re_psi,im_psi` rows for the full grid product.

    The text is what `csv.writer` emits for these fields (CRLF line ends),
    formatted one JSA row per write.
    """
    idler = [f"{wi:.17g}" for wi in jsa.grid_idler.points.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("omega_s,omega_i,re_psi,im_psi\r\n")
        for ws, row in zip(jsa.grid_signal.points.tolist(), jsa.values.tolist()):
            head = f"{ws:.17g},"
            lines = [f"{head}{wi},{v.real:.17g},{v.imag:.17g}\r\n" for wi, v in zip(idler, row)]
            fh.write("".join(lines))


def _trapezoid_weights(points: np.ndarray) -> np.ndarray:
    w = np.empty_like(points)
    w[1:-1] = (points[2:] - points[:-2]) / 2.0
    w[0] = (points[1] - points[0]) / 2.0
    w[-1] = (points[-1] - points[-2]) / 2.0
    return w


def _field_float(field: str) -> float:
    """A CSV field as `np.loadtxt` reads a float: surrounding whitespace
    stripped, then ASCII only and no `_` (both of which Python's float
    accepts)."""
    text = field.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(f"could not convert string {field!r} to float64")
    return float(text)


def _bad_jsa_csv_line(path) -> str | None:
    """Describe the first data line of a JSA CSV that is not four finite
    numbers; like `np.loadtxt`, skip `#` comments and lines left empty
    without them (a whitespace-only line is one field, as numpy reads it)."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].rstrip("\n")
            if lineno == 1 or not line:
                continue
            fields = line.split(",")
            if len(fields) != 4:
                return f"line {lineno} has {len(fields)} fields, expected 4"
            try:
                numbers = [_field_float(f) for f in fields]
            except ValueError:
                return f"line {lineno} is not four numbers: {line.strip()!r}"
            if not all(map(math.isfinite, numbers)):
                return f"line {lineno}: non-finite value"
    return None


_SCATTER_ROWS = 1 << 16  # rows per CSV block: at most 65,536, so its grid indices fit uint16
_SPELLINGS = 1 << 16  # distinct grid-column spellings remembered per parse
_STREAM_BYTES = 4 << 20  # a larger JSA CSV is parsed a block at a time


class _Spellings(dict):
    """Float of each spelling of a grid column, converted once: a complete
    grid repeats each frequency on a whole row or column of samples."""

    def __missing__(self, field):
        value = _field_float(field)
        if len(self) < _SPELLINGS:
            self[field] = value
        return value


def _line_ends(path) -> int:
    """Line ends of a file, read in binary chunks: an upper bound on its
    data rows after a header.  numpy reads text with universal newlines, so
    a bare `\\r` ends a line too (a `\\r\\n` split by a chunk edge counts twice)."""
    ends = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):  # numpy counts bytes far faster than bytes.count
            text = np.frombuffer(chunk, np.uint8)
            cr = text == ord("\r")
            ends += np.count_nonzero(text == ord("\n")) + np.count_nonzero(cr)
            if cr.any():
                ends -= np.count_nonzero(cr[:-1] & (text[1:] == ord("\n")))
    return int(ends)


def _cut(table, re_psi):
    """Copy a parsed block's re_psi into `re_psi` and return uint16 indices
    into its sorted distinct omega_s values, those values, the same for
    omega_i, and im_psi, None when every bit of it is zero (all +0.0)."""
    if table.shape[1] != 4 or not np.isfinite(table).all():
        raise ValueError("a data row is not four finite numbers")
    out = []
    for col in (0, 1):
        pts = np.unique(table[:, col])
        out += [np.searchsorted(pts, table[:, col]).astype(np.uint16), pts]
    re_psi[:] = table[:, 2]
    im = table[:, 3]
    return (*out, im.copy() if im.view(np.uint64).any() else None)


def _jsa_csv_blocks(path, fh) -> tuple[list, np.ndarray]:
    """The data rows of a JSA CSV as `_cut` blocks of `_SCATTER_ROWS` rows,
    and every row's re_psi in file order, in one array sized once (from the
    parsed rows, or else from the file's line ends).

    A file of up to `_STREAM_BYTES` is parsed by one call on its path, which
    numpy reads in C chunks (a handle it reads line by line, which is
    slower), and then cut.  A larger one is parsed from `fh`, already past
    the header, one block per call, and each block is cut before the next
    is parsed, so no more than one block's float table exists at a time.
    """
    grid = _Spellings().__getitem__
    options = dict(delimiter=",", ndmin=2, converters={0: grid, 1: grid})

    def streamed():
        while (table := np.loadtxt(fh, max_rows=_SCATTER_ROWS, **options)).shape[0]:
            yield table

    with warnings.catch_warnings():
        # a header-only file is reported by the caller, and comment and blank
        # lines are meant not to count towards a block's rows
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        warnings.filterwarnings("ignore", r"Input line \d+ contained no data")
        try:
            if os.fstat(fh.fileno()).st_size <= _STREAM_BYTES:
                data = np.loadtxt(path, skiprows=1, **options)
                re_psi = np.empty(data.shape[0])
                tables = (data[b:b + _SCATTER_ROWS]
                          for b in range(0, data.shape[0], _SCATTER_ROWS))
            else:
                re_psi = np.empty(_line_ends(path))
                tables = streamed()
            blocks, rows = [], 0
            for table in tables:
                blocks.append(_cut(table, re_psi[rows:rows + table.shape[0]]))
                rows += table.shape[0]
        except ValueError as exc:
            raise ValueError(f"{path}: {_bad_jsa_csv_line(path) or exc}") from None
    re_psi.resize(rows, refcheck=False)  # no view of it is left
    return blocks, re_psi


def load_jsa_csv(path) -> DiscretizedJsa:
    """Read a JSA written by `save_jsa_csv`; the grid is inferred.

    The sample set must form a complete rectangle over the unique sorted
    signal and idler frequencies, with at least two of each.  The values
    are real when every im_psi is zero and complex otherwise.  Malformed
    files, non-finite fields included, raise ValueError naming the path
    and, for a bad row, its line.

    Every field is parsed bit for bit as `np.loadtxt` parses it; each
    distinct spelling of `omega_s`/`omega_i` is converted once (`_Spellings`).
    A file larger than `_STREAM_BYTES` is parsed `_SCATTER_ROWS` rows at a
    time and each block is cut at once (`_cut`) to uint16 grid indices and
    its re_psi, copied into one array that is the values of real rows in
    grid order (other rows are scattered).  So the reader holds 12 B per
    real sample and one block's table (a whole parsed table takes 32), and
    16 B while the JSA copies the values.  A caller that keeps its own
    reference to the JSA keeps the values alive through the SVD.
    """
    with open(path) as fh:
        header = fh.readline()
        if not header:
            raise ValueError(f"{path}: empty JSA CSV")
        names = [h.strip() for h in header.split(",")]
        if names != ["omega_s", "omega_i", "re_psi", "im_psi"]:
            raise ValueError(f"{path}: unexpected JSA CSV header")
        blocks, re_psi = _jsa_csv_blocks(path, fh)
    if not blocks:
        raise ValueError(f"{path}: JSA CSV has a header but no samples")
    # each axis is the unique values of the blocks' distinct values
    pts_s, pts_i = (np.unique(np.concatenate([b[k] for b in blocks])) for k in (1, 3))
    if min(pts_s.size, pts_i.size) < 2:
        raise ValueError(f"{path}: a JSA CSV grid needs at least two points on each axis "
                         f"(omega_s has {pts_s.size}, omega_i {pts_i.size})")
    if re_psi.size != pts_s.size * pts_i.size:
        raise ValueError(f"{path}: JSA CSV is not a complete rectangular grid")
    is_complex = any(b[4] is not None and b[4].any() for b in blocks)

    def placed():  # each block's first row, its rows' grid indices and im_psi
        start = 0
        for idx_s, block_s, idx_i, block_i, im in blocks:
            idx = np.searchsorted(pts_s, block_s)[idx_s] * pts_i.size
            idx += np.searchsorted(pts_i, block_i)[idx_i]
            yield start, idx, im
            start += idx.size

    if not is_complex and all(np.array_equal(idx, np.arange(start, start + idx.size))
                              for start, idx, _ in placed()):
        vals = re_psi  # every row is at its own grid index: nothing to place
    else:
        vals = np.full(re_psi.size, np.nan, dtype=complex if is_complex else float)
        for start, idx, im in placed():  # no view of re_psi outlives the loop
            if is_complex:
                im = np.zeros(idx.size) if im is None else im
                vals[idx] = re_psi[start:start + idx.size] + 1j * im
            else:
                vals[idx] = re_psi[start:start + idx.size]
        # every sample is finite, so a NaN left is a grid point no row reached
        if np.isnan(vals).any():
            raise ValueError(f"{path}: JSA CSV is not a complete rectangular grid")
    del blocks, re_psi  # free the parsed samples before the JSA copies vals
    grid_s = FrequencyGrid(pts_s, _trapezoid_weights(pts_s))
    grid_i = FrequencyGrid(pts_i, _trapezoid_weights(pts_i))
    return DiscretizedJsa(grid_s, grid_i, vals.reshape(pts_s.size, pts_i.size))
