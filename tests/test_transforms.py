"""Tests for phase/Fourier/beam-splitter/loss transforms, projections and
the determinant compression identity."""
import numpy as np
import pytest

from biphoton_sim import (
    BlockMatrix,
    DetectionProjection,
    DetectionWindow,
    DomainMismatchError,
    FrequencyGrid,
    ProcessType,
    SymplecticTransform,
    beam_splitter,
    compose,
    compose_all,
    compress,
    compressed_determinant_operand,
    fourier,
    phase_shift,
    poisson_params,
)
from biphoton_sim.oracle import dense_log_det, dense_sandwich
from biphoton_sim.transforms import output_dofs, projection_masks
from conftest import random_covariance


GRID = FrequencyGrid.uniform(-8.0, 8.0, 24)


def dense_j(sizes):
    """diag(1, -1) over the annihilation/creation sectors."""
    half = sum(sizes) // 2
    d = np.ones(2 * half)
    d[half:] = -1.0
    return np.diag(d)


def transformed(s, gamma):
    """s Gamma s^dag of a transform and a covariance, dense."""
    return dense_sandwich(s.mat.to_dense(), gamma.mat.to_dense())


def mean_photons(dense_gamma):
    """Tr(Gamma)/2, the mean photon number at zero displacement."""
    return np.trace(dense_gamma).real / 2.0


def loss(etas, gamma):
    """The field transmittivities `etas`, one per mode, as a diagonal transform."""
    sizes = gamma.mat.row_sizes
    return SymplecticTransform(BlockMatrix.diagonal(list(etas) * 2, sizes), len(etas), len(etas))


def masked(p, gamma):
    """The covariance restricted to the detection windows of `p`, dense."""
    return dense_sandwich(np.concatenate(projection_masks(p, gamma.dofs) * 2),
                          gamma.mat.to_dense())


def check_symplectic(s):
    sd = s.mat.to_dense()
    j = dense_j(s.mat.row_sizes)
    assert np.max(np.abs(sd @ j @ sd.conj().T - j)) < 1e-9


class TestPhaseShift:
    def test_identity(self, rng):
        gamma, _, _ = random_covariance(rng, process=ProcessType.TYPE_0I)
        s = phase_shift(0.0, 0.0, 0.0, gamma.dofs[0].grid, 0, 1)
        out = transformed(s, gamma)
        assert np.max(np.abs(out - gamma.mat.to_dense())) < 1e-14

    def test_delay_inverse(self, rng):
        gamma, _, _ = random_covariance(rng, process=ProcessType.TYPE_0I)
        grid = gamma.dofs[0].grid
        s_fwd = phase_shift(0.3, 0.7, 0.1, grid, 0, 1)
        s_bwd = phase_shift(-0.3, -0.7, -0.1, grid, 0, 1)
        total = compose(s_bwd, s_fwd).mat.to_dense()
        assert np.max(np.abs(total - np.eye(total.shape[0]))) < 1e-12

    def test_symplectic_and_passive(self, rng):
        gamma, _, _ = random_covariance(rng, process=ProcessType.TYPE_0I)
        s = phase_shift(0.2, 1.3, 0.4, gamma.dofs[0].grid, 0, 1)
        check_symplectic(s)
        out = transformed(s, gamma)
        # unbounded-window detection probability is phase-insensitive
        before = dense_log_det(gamma.mat.to_dense())
        after = dense_log_det(out)
        assert after == pytest.approx(before, abs=1e-12)

    def test_dof_out_of_range(self):
        with pytest.raises(ValueError):
            phase_shift(0.0, 0.0, 0.0, GRID, 2, 2)


class TestFourier:
    def test_unitary(self):
        s, _ = fourier(GRID, 0, 1)
        f = s.mat.blocks[0][0]
        assert np.max(np.abs(f @ f.conj().T - np.eye(GRID.n))) < 1e-9
        check_symplectic(s)

    def test_trace_invariant(self, rng):
        gamma, _, _ = random_covariance(rng, process=ProcessType.TYPE_0I)
        s, _ = fourier(gamma.dofs[0].grid, 0, 1)
        out = transformed(s, gamma)
        assert mean_photons(out) == pytest.approx(
            mean_photons(gamma.mat.to_dense()), abs=1e-10
        )
        assert output_dofs(s, gamma.dofs)[0].domain == "time"

    def test_rejects_nonuniform(self):
        pts = np.array([0.0, 1.0, 3.0])
        g = FrequencyGrid(pts, np.array([0.5, 1.5, 1.0]))
        with pytest.raises(ValueError, match="uniform"):
            fourier(g, 0, 1)

    def test_delay_shifts_time_diagonal(self, rng):
        gamma, _, _ = random_covariance(rng, n=48, grid_span=6.0,
                                        process=ProcessType.TYPE_0I)
        grid = gamma.dofs[0].grid
        s_f, time_grid = fourier(grid, 0, 1)
        base = transformed(s_f, gamma)
        dt = time_grid.spacing
        shift = 5
        tau = shift * dt  # delay snapped to the time grid
        delayed = transformed(compose(s_f, phase_shift(0.0, tau, 0.0, grid, 0, 1)), gamma)
        n = grid.n
        diag_base = np.real(np.diag(base[:n, :n]))
        diag_delay = np.real(np.diag(delayed[:n, :n]))
        # a delay by tau moves the temporal intensity profile by `shift` bins
        assert np.allclose(diag_delay[shift:], diag_base[:-shift], atol=1e-10)


class TestBeamSplitter:
    def test_full_transmission_is_identity(self, rng):
        gamma, _, _ = random_covariance(rng, process=ProcessType.TYPE_II)
        n = gamma.dofs[0].grid.n
        s = beam_splitter(1.0, 0.0, (0, 1), 2, n=n)
        out = transformed(s, gamma)
        assert np.max(np.abs(out - gamma.mat.to_dense())) < 1e-14

    def test_normalization_enforced(self):
        with pytest.raises(ValueError, match="T\\^2 \\+ R\\^2"):
            beam_splitter(0.9, 0.9, (0, 1), 2, n=4)

    def test_passivity(self, rng):
        gamma, _, _ = random_covariance(rng, process=ProcessType.TYPE_II)
        n = gamma.dofs[0].grid.n
        s = beam_splitter(np.sqrt(0.5), np.sqrt(0.5), (0, 1), 2, n=n)
        check_symplectic(s)
        out = transformed(s, gamma)
        assert mean_photons(out) == pytest.approx(
            mean_photons(gamma.mat.to_dense()), abs=1e-12
        )

    def test_two_fifty_fifty_swap_like(self):
        r = np.sqrt(0.5)
        s1 = beam_splitter(r, r, (0, 1), 2, n=3)
        total = compose(s1, s1).mat.to_dense()
        n = 3
        eye = np.eye(n)
        # (T R; -R T)^2 = (0 1; -1 0) on each sector
        expected = np.zeros((4 * n, 4 * n))
        for off in (0, 2 * n):
            expected[off : off + n, off + n : off + 2 * n] = eye
            expected[off + n : off + 2 * n, off : off + n] = -eye
        assert np.max(np.abs(total - expected)) < 1e-12


class TestLoss:
    """Loss as a diagonal transform: Gamma -> eta Gamma eta."""

    def test_unit_transmission(self, rng):
        gamma, _, _ = random_covariance(rng, process=ProcessType.TYPE_II)
        out = transformed(loss((1.0, 1.0), gamma), gamma)
        assert np.max(np.abs(out - gamma.mat.to_dense())) < 1e-14

    def test_constant_scaling(self, rng):
        gamma, _, _ = random_covariance(rng, process=ProcessType.TYPE_II)
        c = 0.6
        out = transformed(loss((c, c), gamma), gamma)
        ev_in = np.sort(np.linalg.eigvalsh(gamma.mat.to_dense()))
        ev_out = np.sort(np.linalg.eigvalsh(out))
        assert np.max(np.abs(ev_out - c * c * ev_in)) < 1e-10

    def test_blackout_gives_vacuum(self, rng):
        gamma, _, _ = random_covariance(rng, process=ProcessType.TYPE_II)
        out = transformed(loss((0.0, 0.0), gamma), gamma)
        assert np.max(np.abs(out)) == 0.0
        assert np.exp(-0.5 * dense_log_det(out)) == pytest.approx(1.0)

    def test_bounds_validated(self):
        # the source-level loss: per-arm field transmittivities in [0, 1]
        from biphoton_sim import GaussianJsaModel, build_gaussian_jsa, default_grids

        model = GaussianJsaModel(1.0, 3.0)
        jsa = build_gaussian_jsa(model, *default_grids(model, points_per_width=2.0))
        full = DetectionProjection.full(2)
        sampled = np.full(jsa.grid_idler.n, 0.5)
        for etas in ((1.2, 1.0), (1.0, -0.1), (1.0, np.nan), (1.0, np.append(sampled[1:], 1.5))):
            with pytest.raises(ValueError, match="field transmittivity"):
                poisson_params(jsa, etas, full, 0.4, ProcessType.TYPE_II)
        assert poisson_params(jsa, (1.0, sampled), full, 0.4, ProcessType.TYPE_II).p_i == (
            pytest.approx(0.25, abs=1e-10))


class TestApplyTransform:
    def test_unitary_preserves_spectrum(self, rng):
        gamma, _, _ = random_covariance(rng, process=ProcessType.TYPE_II)
        n = gamma.dofs[0].grid.n
        s = compose(
            beam_splitter(0.8, 0.6, (0, 1), 2, n=n),
            phase_shift(0.1, 0.5, 0.0, gamma.dofs[0].grid, 0, 2, sizes=[n, n]),
        )
        out = transformed(s, gamma)
        ev_in = np.sort(np.linalg.eigvalsh(gamma.mat.to_dense()))
        ev_out = np.sort(np.linalg.eigvalsh(out))
        assert np.max(np.abs(ev_in - ev_out)) < 1e-9

    def test_shape_mismatch(self, rng):
        gamma, _, _ = random_covariance(rng, process=ProcessType.TYPE_0I)
        s = beam_splitter(1.0, 0.0, (0, 1), 2, n=gamma.dofs[0].grid.n)
        with pytest.raises(ValueError, match="mode counts do not match"):
            compressed_determinant_operand(s, DetectionProjection.full(2), gamma)


class TestCompress:
    @staticmethod
    def network(n, m_total):
        r = np.sqrt(0.5)
        parts = [beam_splitter(r, r, (0, 1), m_total, n=n)]
        if m_total > 2:
            parts.append(beam_splitter(0.8, 0.6, (1, m_total - 1), m_total, n=n))
        return compose_all(parts)

    def test_full_keep_is_identity_operation(self, rng):
        gamma, _, _ = random_covariance(rng, process=ProcessType.TYPE_II)
        n = gamma.dofs[0].grid.n
        s = self.network(n, 2)
        assert compress(s, 2).mat.blocks == s.mat.blocks

    def test_column_count(self):
        s = self.network(8, 3)
        reduced = compress(s, 1)
        assert len(reduced.mat.col_sizes) == 2

    def test_exceeds_modes(self):
        s = self.network(8, 3)
        with pytest.raises(ValueError):
            compress(s, 4)

    def test_reduced_matches_padded(self, rng):
        gamma, _, _ = random_covariance(rng, n=10, process=ProcessType.TYPE_II)
        n = gamma.dofs[0].grid.n
        m_total = 3
        s = self.network(n, m_total)
        reduced = compress(s, 2)
        out = transformed(reduced, gamma)
        # dense reference: embed Gamma in the full space, transform, compare
        sd = s.mat.to_dense()
        big = np.zeros((2 * m_total * n, 2 * m_total * n), dtype=complex)
        gd = gamma.mat.to_dense()
        idx = np.concatenate([np.arange(2 * n), 2 * n + n + np.arange(2 * n)])
        # source modes are 0,1 of 3; creation rows offset by m_total * n
        sel = np.concatenate([np.arange(2 * n), 3 * n + np.arange(2 * n)])
        big[np.ix_(sel, sel)] = gd
        expected = sd @ big @ sd.conj().T
        assert np.max(np.abs(out - expected)) < 1e-10


class TestProjection:
    def test_full_space_unchanged(self, rng):
        gamma, _, _ = random_covariance(rng, process=ProcessType.TYPE_II)
        p = DetectionProjection.full(2)
        assert all(np.all(m == 1.0) for m in projection_masks(p, gamma.dofs))
        assert np.max(np.abs(masked(p, gamma) - gamma.mat.to_dense())) < 1e-14

    def test_empty_gives_zero(self, rng):
        gamma, _, _ = random_covariance(rng, process=ProcessType.TYPE_II)
        p = DetectionProjection((None, None))
        assert all(np.all(m == 0.0) for m in projection_masks(p, gamma.dofs))
        assert np.max(np.abs(masked(p, gamma))) == 0.0

    def test_domain_mismatch(self, rng):
        gamma, _, _ = random_covariance(rng, process=ProcessType.TYPE_II)
        p = DetectionProjection(
            (DetectionWindow(-1.0, 1.0, "time"), DetectionWindow.unbounded())
        )
        with pytest.raises(DomainMismatchError):
            projection_masks(p, gamma.dofs)

    def test_unbounded_window_is_domain_agnostic(self, rng):
        gamma, _, _ = random_covariance(rng, process=ProcessType.TYPE_II)
        p = DetectionProjection(
            (DetectionWindow.unbounded("time"), DetectionWindow.unbounded())
        )
        assert np.max(np.abs(masked(p, gamma) - gamma.mat.to_dense())) < 1e-14

    def test_outward_rounding(self):
        grid = FrequencyGrid.uniform(0.0, 10.0, 11)
        from biphoton_sim.transforms import _window_mask

        mask = _window_mask(DetectionWindow(2.3, 4.7), grid)
        assert np.array_equal(np.flatnonzero(mask), [2, 3, 4, 5])

    def test_window_outside_grid(self):
        grid = FrequencyGrid.uniform(0.0, 10.0, 11)
        from biphoton_sim.transforms import _window_mask

        with pytest.raises(ValueError, match="outside"):
            _window_mask(DetectionWindow(11.0, 12.0), grid)

    def test_interlacing_half_space(self, rng):
        gamma, _, _ = random_covariance(rng, process=ProcessType.TYPE_0I)
        p = DetectionProjection((DetectionWindow(-10.0, 0.0),))
        ev = np.linalg.eigvalsh(gamma.mat.to_dense())
        evp = np.linalg.eigvalsh(masked(p, gamma))
        pos = np.sort(ev[ev > 0])[::-1]
        pos_p = np.sort(evp[evp > 1e-14])[::-1]
        for k in range(pos_p.size):
            assert pos_p[k] <= pos[k] + 1e-9
        neg = np.sort(-ev[ev < 0])[::-1]
        neg_p = np.sort(-evp[evp < -1e-14])[::-1]
        for k in range(neg_p.size):
            assert neg_p[k] <= neg[k] + 1e-9


class TestSylvester:
    def test_empty_projection_gives_unit_determinant(self, rng):
        gamma, _, _ = random_covariance(rng, n=8, process=ProcessType.TYPE_II)
        n = gamma.dofs[0].grid.n
        s = compress(beam_splitter(1.0, 0.0, (0, 1), 2, n=n), 2)
        p = DetectionProjection((None, None))
        operand = compressed_determinant_operand(s, p, gamma, output_dofs(s, gamma.dofs))
        assert np.max(np.abs(operand.to_dense())) == 0.0
        assert dense_log_det(operand.to_dense()) == 0.0

    def test_identity_random_networks(self, rng):
        for trial in range(10):
            gamma, _, _ = random_covariance(
                rng, n=10, process=ProcessType.TYPE_II, gain=0.5
            )
            n = gamma.dofs[0].grid.n
            m_total = int(rng.integers(2, 5))
            parts = [beam_splitter(np.sqrt(0.5), np.sqrt(0.5), (0, 1), m_total, n=n)]
            if m_total > 2:
                parts.append(beam_splitter(0.6, 0.8, (1, 2), m_total, n=n))
            s = compress(compose_all(parts), min(2, m_total))
            windows = []
            for _ in range(m_total):
                lo = float(rng.uniform(-3.9, 0))
                windows.append(DetectionWindow(lo, lo + float(rng.uniform(0.5, 7.0))))
            p = DetectionProjection(tuple(windows))
            dofs_out = output_dofs(s, gamma.dofs)
            operand = compressed_determinant_operand(s, p, gamma, dofs_out)
            small = dense_log_det(operand.to_dense())
            # big side: P s Gamma s^dag P
            masks = projection_masks(p, dofs_out)
            pd = np.diag(np.concatenate(masks * 2))
            sd = s.mat.to_dense()
            big = dense_log_det(pd @ sd @ gamma.mat.to_dense() @ sd.conj().T @ pd)
            assert small == pytest.approx(big, rel=1e-10, abs=1e-12)
