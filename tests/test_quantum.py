import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import potential, tensor_grid_overlap
from superint import quantum
from superint.cli import EXIT_PASS, main
from superint.errors import DomainError
from superint.quantum import (
    GridSpec,
    bound_state,
    dc_operator_residual,
    default_grid,
    degeneracy_bruteforce,
    degeneracy_formula,
    degeneracy_report,
    energy_level,
    energy_level_from_A,
    exponents_from_couplings,
    level_states,
    orthogonality_check,
    residual_with_refinement,
    separation_constant,
    spectral_line,
    ttw_bound_state,
    wavefunction,
)
from superint.stackel import map_wavefunction, ttw_to_dc
from superint.systems import DCParams, RationalIndex, TTWParams, _barrier, _radial_kernel


class TestExponents:
    def test_zero_coupling(self):
        a, b = exponents_from_couplings(0.0, 0.0)
        assert a == 1.0 and b == 1.0

    def test_integer_coupling(self):
        a, _ = exponents_from_couplings(2.0, 0.0)
        assert a == 2.0

    def test_boundary_limit(self):
        a, _ = exponents_from_couplings(-0.25 + 1e-12, 0.0)
        assert 0.5 < a < 0.5001

    def test_rejects_below_threshold(self):
        with pytest.raises(DomainError):
            exponents_from_couplings(-0.25, 0.0)
        with pytest.raises(DomainError):
            exponents_from_couplings(0.0, -0.3)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-0.249, 5.0), st.floats(-0.249, 5.0))
    def test_inverts_the_quadratic(self, alpha, beta):
        a, b = exponents_from_couplings(alpha, beta)
        assert a * (a - 1) == pytest.approx(alpha, abs=1e-12)
        assert b * (b - 1) == pytest.approx(beta, abs=1e-12)
        assert a >= 0.5 and b >= 0.5


class TestSpectrum:
    def test_separation_constant_values(self):
        assert separation_constant(RationalIndex(1), 1.0, 1.0, 0) == pytest.approx(1.0)
        assert separation_constant(RationalIndex(2), 1.0, 1.0, 1) == pytest.approx(16.0)

    def test_ground_state_energy(self):
        assert energy_level(1.0, RationalIndex(1), 1.0, 1.0, 0, 0) == pytest.approx(-1.0 / 9.0, rel=1e-15)

    def test_excited_energy(self):
        assert energy_level(1.0, RationalIndex(2), 1.0, 1.0, 1, 1) == pytest.approx(-1.0 / 121.0, rel=1e-15)

    def test_monotone_in_radial_index(self):
        k = RationalIndex(3, 2)
        levels = [energy_level(1.0, k, 1.2, 1.7, n, 1) for n in range(6)]
        assert all(e2 > e1 for e1, e2 in zip(levels, levels[1:]))
        assert all(e < 0 for e in levels)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 8), st.integers(0, 8), st.integers(1, 4), st.integers(1, 4),
           st.floats(0.51, 3.0), st.floats(0.51, 3.0), st.floats(0.2, 3.0))
    def test_two_printed_forms_agree(self, n, m, c, d, a, b, Q):
        k = RationalIndex(c, d)
        e1 = energy_level(Q, k, a, b, n, m)
        A = separation_constant(k, a, b, m)
        e2 = energy_level_from_A(Q, n, A)
        assert e1 == pytest.approx(e2, rel=1e-14)

    def test_rejects_nonpositive_coulomb(self):
        with pytest.raises(DomainError):
            energy_level(0.0, RationalIndex(1), 1.0, 1.0, 0, 0)


def _scan_level(k, N):
    """Every-m scan of d n + c m = N: the reference the lattice walk must match."""
    return [((N - k.c * m) // k.d, m) for m in range(N // k.c + 1) if (N - k.c * m) % k.d == 0]


def _popoviciu_count(k, N):
    """Popoviciu's closed form for the number of (n, m) >= 0 with d n + c m = N."""
    c, d = k.c, k.d
    top = N - c * ((pow(c, -1, d) * N) % d) - d * ((pow(d, -1, c) * N) % c) + c * d
    assert top % (c * d) == 0
    return top // (c * d)


class TestDegeneracy:
    def test_enumeration_examples(self):
        assert degeneracy_bruteforce(RationalIndex(2), 4) == 3
        assert set(level_states(RationalIndex(2), 4)) == {(4, 0), (2, 1), (0, 2)}
        assert degeneracy_bruteforce(RationalIndex(1), 5) == 6
        count = degeneracy_bruteforce(RationalIndex(3, 2), 7)
        assert count == 1 and list(level_states(RationalIndex(3, 2), 7)) == [(2, 1)]

    def test_walk_matches_scan_and_popoviciu(self):
        for c in range(1, 9):
            for d in range(1, 9):
                if math.gcd(c, d) != 1:
                    continue
                k = RationalIndex(c, d)
                for N in range(400):
                    assert list(level_states(k, N)) == _scan_level(k, N), (k, N)
                    count = degeneracy_bruteforce(k, N)
                    assert count == _popoviciu_count(k, N), (k, N)
                    assert count == sum(1 for _ in level_states(k, N)), (k, N)

    def test_negative_level_raises_at_the_call(self):
        with pytest.raises(DomainError):
            level_states(RationalIndex(3, 2), -1)

    def test_formula_examples(self):
        assert degeneracy_formula(RationalIndex(2), 4) == 3
        assert degeneracy_formula(RationalIndex(1), 5) == 6
        # printed count disagrees with enumeration here; both are reported
        assert degeneracy_formula(RationalIndex(3, 2), 7) == 5

    def test_integer_index_agreement_to_200(self):
        for c in (1, 2, 3, 5):
            k = RationalIndex(c)
            for N in range(201):
                assert degeneracy_formula(k, N) == degeneracy_bruteforce(k, N)

    def test_fractional_index_report_collects_mismatches(self):
        rows, mismatches = degeneracy_report(RationalIndex(3, 2), 40)
        assert mismatches  # the printed count over-counts for d > 1
        assert all(rows[N]["N"] == N for N in range(41))

    def test_report_memory_linear_in_levels(self):
        # holding every level's states would take about N_max^2 / (2 c) tuples
        N_max = 600
        tracemalloc.start()
        try:
            degeneracy_report(RationalIndex(2), N_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * (N_max + 1)

    def test_degeneracy_csv_streamed(self, tmp_path):
        # joining the CSV in memory before writing would alone exceed its size
        tracemalloc.start()
        try:
            code = main(["degeneracy", "--k", "1", "--N-max", "800", "--out-dir", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_PASS
        assert peak < (tmp_path / "degeneracy.csv").stat().st_size

    def test_states_on_a_line_share_energy(self):
        p = DCParams(Q=1.0, alpha=0.2, beta=0.3, k=RationalIndex(3, 2))
        assert spectral_line(p, 1) is None  # 2 n + 3 m = 1 has no solution
        for N in (6, 7, 12, 17):
            line = spectral_line(p, N)
            a, b = exponents_from_couplings(p.alpha, p.beta)
            for n, m in line.states:
                e = energy_level(p.Q, p.k, a, b, n, m)
                assert e == pytest.approx(line.E, rel=1e-14)

    def test_spectrum_csv(self, tmp_path):
        # alpha = beta = 0 at k = 1 (a = b = 1), levels N = 0..6
        code = main(["spectrum", "--k", "1", "--Q", "1", "--a", "1", "--b", "1",
                     "--n-max", "3", "--m-max", "3", "--out-dir", str(tmp_path)])
        assert code == EXIT_PASS
        lines = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
        assert lines[0] == "N,E,degeneracy_formula,degeneracy_bruteforce,states"
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(-1.0 / 9.0, rel=1e-14)


class TestWavefunction:
    def test_ground_state_positive_on_cell(self, rng):
        p = DCParams(Q=1.0, alpha=0.2, beta=0.3, k=RationalIndex(3, 2))
        spec = bound_state(p, 0, 0)
        cell = math.pi / p.k.value
        for _ in range(200):
            r = rng.uniform(0.05, 30.0)
            phi = rng.uniform(0.01, 0.99) * cell
            assert wavefunction(spec, r, phi) > 0.0

    def test_wall_behavior_matches_exponent(self):
        # psi ~ phi^b near the sin wall
        p = DCParams(Q=1.0, alpha=0.2, beta=0.3, k=RationalIndex(1))
        spec = bound_state(p, 0, 0)
        phis = np.array([1e-3, 1e-4, 1e-5])
        vals = np.array([wavefunction(spec, 1.0, f) for f in phis])
        ratios = vals / phis ** spec.b
        assert ratios[1] == pytest.approx(ratios[2], rel=1e-3)

    def test_rejects_wall_and_origin(self):
        p = DCParams(Q=1.0, alpha=0.2, beta=0.3, k=RationalIndex(1))
        spec = bound_state(p, 0, 0)
        with pytest.raises(DomainError):
            wavefunction(spec, -1.0, 0.5)
        with pytest.raises(DomainError):
            wavefunction(spec, 1.0, math.pi + 1e-3)  # beyond the cos wall for k = 1

    def test_oscillator_state_rejects_wall_and_origin(self):
        ttw = TTWParams(omega2=0.25, alpha=0.2, beta=0.3, k=RationalIndex(1))
        spec = bound_state(ttw, 0, 0)
        with pytest.raises(DomainError):
            wavefunction(spec, 0.0, 0.5)
        with pytest.raises(DomainError):
            wavefunction(spec, 1.0, 0.5 * math.pi + 1e-3)  # the cell is theta < pi/(2k)

    @pytest.mark.parametrize("params", [
        DCParams(Q=1.0, alpha=0.2, beta=0.3, k=RationalIndex(3, 2)),
        TTWParams(omega2=0.25, alpha=0.2, beta=0.3, k=RationalIndex(3, 2)),
    ], ids=["dc", "ttw"])
    @pytest.mark.parametrize("n,m", [(-1, 0), (0, -3), (-2, -1)])
    def test_bound_state_rejects_negative_quantum_numbers(self, params, n, m):
        with pytest.raises(DomainError, match="non-negative"):
            bound_state(params, n, m)


GRID_CASES = [
    ("1", 0.0, 0.0, 0, 0),
    ("1", 0.75, 2.0, 1, 0),
    ("2", 0.2, 0.3, 0, 1),
    ("3/2", 0.2, 0.3, 1, 1),
]
# the grid cases plus one zero coupling, whose barrier B(phi) has a single term
STREAMED_CASES = GRID_CASES + [("2", 0.0, 0.3, 1, 0)]


def schrodinger_residual(spec, grid):
    """Grid residual of the separated bound state under its own Hamiltonian."""
    return dc_operator_residual(spec.params, spec.E, lambda r, phi: wavefunction(spec, r, phi), grid)


class TestSchrodingerResidual:
    @pytest.mark.parametrize("k_text,alpha,beta,n,m", GRID_CASES)
    def test_second_order_convergence(self, k_text, alpha, beta, n, m):
        p = DCParams(Q=1.0, alpha=alpha, beta=beta, k=RationalIndex.from_string(k_text))
        spec = bound_state(p, n, m)
        grid = default_grid(spec, 380, 260)
        coarse = schrodinger_residual(spec, grid)
        fine = schrodinger_residual(spec, grid.refined())
        assert 2.5 < coarse / fine < 6.5

    def test_reaches_target_with_refinement(self):
        p = DCParams(Q=1.0, alpha=0.2, beta=0.3, k=RationalIndex(1))
        spec = bound_state(p, 0, 0)
        grid = default_grid(spec, n_r=900, n_phi=600)
        assert schrodinger_residual(spec, grid.refined()) <= 1e-5

    def test_growing_gauge_exponent_rejected(self):
        # the alternative sign of the radial exponent is not a solution
        p = DCParams(Q=1.0, alpha=0.0, beta=0.0, k=RationalIndex(1))
        spec = bound_state(p, 0, 0)
        kappa = math.sqrt(-spec.E)
        sqrtA = math.sqrt(spec.A)

        def wrong(r, phi):
            return (r ** sqrtA * np.exp(+kappa * r)
                    * np.cos(0.5 * phi) * np.sin(0.5 * phi))

        res = dc_operator_residual(p, spec.E, wrong, default_grid(spec, 380, 260))
        assert res > 1e-1

    def test_wrong_energy_rejected(self):
        p = DCParams(Q=1.0, alpha=0.2, beta=0.3, k=RationalIndex(1))
        spec = bound_state(p, 0, 0)
        res = dc_operator_residual(p, spec.E * 1.05,
                                   lambda r, phi: wavefunction(spec, r, phi),
                                   default_grid(spec, 380, 260))
        assert res > 1e-2

    def test_known_failing_state_is_discretization_error(self):
        # the one state the O(h^2) stencil leaves above the target after three
        # halvings (about 5.07e-5); its ratio near 4 marks discretization error,
        # so a stencil rewrite can neither hide nor flip it silently
        p = DCParams(Q=1.0, alpha=0.75, beta=2.0, k=RationalIndex(1))
        spec = bound_state(p, 2, 0)
        grid = default_grid(spec, n_r=500, n_phi=340)
        res, ratio, finest = residual_with_refinement(
            p, spec.E, lambda r, phi: wavefunction(spec, r, phi), grid)
        assert finest.spacing == tuple(h / 8.0 for h in grid.spacing)
        assert res > 1e-5
        assert 3.5 < ratio < 4.5

    def test_grid_touching_wall_rejected(self):
        p = DCParams(Q=1.0, alpha=0.2, beta=0.3, k=RationalIndex(1))
        spec = bound_state(p, 0, 0)
        bad = GridSpec((0.5, 5.0), (0.0, 2.0), (0.05, 0.02))
        with pytest.raises(DomainError):
            schrodinger_residual(spec, bad)


def _full_grid_residual(params, E, psi, grid):
    """The full-meshgrid residual the row-block stream replaced, kept as its reference."""
    rr, ff = grid.axes()
    hr = rr[1] - rr[0]
    hf = ff[1] - ff[0]
    R, F = np.meshgrid(rr, ff, indexing="ij")
    psi_grid = np.broadcast_to(psi(R, F), R.shape)
    interior = psi_grid[1:-1, 1:-1]
    d2r = (psi_grid[2:, 1:-1] - 2.0 * interior + psi_grid[:-2, 1:-1]) / hr ** 2
    d1r = (psi_grid[2:, 1:-1] - psi_grid[:-2, 1:-1]) / (2.0 * hr)
    d2f = (psi_grid[1:-1, 2:] - 2.0 * interior + psi_grid[1:-1, :-2]) / hf ** 2
    ri = rr[1:-1, None]
    V_r = np.array([_radial_kernel(params)(r)[0] for r in rr[1:-1]])[:, None]
    B = np.array([_barrier(params, f)[0] for f in ff[1:-1]])
    V = V_r + B / ri ** 2
    residual = -(d2r + d1r / ri + d2f / ri ** 2) + (V - E) * interior
    scale = abs(E) * float(np.max(np.abs(psi_grid)))
    return float(np.max(np.abs(residual))) / scale


def _block_height(grid):
    return max(1, quantum._BLOCK_BYTES // (8 * grid.axes()[1].size))


def _roundoff_bound(params, E, grid):
    """eps W / |E|: W is the largest, over interior nodes, of the summed
    |weights| of the five-point Laplacian plus |V - E|.  Summing the stencil
    in another order moves the relative residual by at most this much."""
    rr, ff = grid.axes()
    hr = rr[1] - rr[0]
    hf = ff[1] - ff[0]
    ri = rr[1:-1, None]
    V_r = np.array([_radial_kernel(params)(r)[0] for r in rr[1:-1]])[:, None]
    B = np.array([_barrier(params, f)[0] for f in ff[1:-1]])
    radial = 2.0 / hr ** 2 + np.abs(1.0 / hr ** 2 + 1.0 / (2.0 * hr * ri)) \
        + np.abs(1.0 / hr ** 2 - 1.0 / (2.0 * hr * ri))
    angular = 4.0 / (hf ** 2 * ri ** 2)
    W = float(np.max(radial + angular + np.abs(V_r + B / ri ** 2 - E)))
    return np.finfo(float).eps * W / abs(E)


def _assert_matches_full_grid(params, E, psi, grid):
    """Bit-exact against one block and one chunk holding every row; within
    roundoff of the full grid."""
    got = dc_operator_residual(params, E, psi, grid)
    with pytest.MonkeyPatch.context() as mp:
        whole = 8 * grid.axes()[1].size * grid.axes()[0].size
        mp.setattr(quantum, "_BLOCK_BYTES", whole)
        mp.setattr(quantum, "_CHUNK_BYTES", whole)
        assert _block_height(grid) >= grid.axes()[0].size - 2
        assert got == dc_operator_residual(params, E, psi, grid)
    assert abs(got - _full_grid_residual(params, E, psi, grid)) <= _roundoff_bound(params, E, grid)


def _value_at(psi, r_star, f_star, value):
    """psi with ``value`` at the node (r_star, phi_star) of every refinement level."""
    def out(r, phi):
        hit = np.isclose(r, r_star, rtol=0.0, atol=1e-9) & np.isclose(phi, f_star, rtol=0.0,
                                                                     atol=1e-9)
        return np.where(hit, value, psi(r, phi))
    return out


def _nan_at(psi, r_star, f_star):
    """psi with a NaN at the node (r_star, phi_star) of every refinement level."""
    return _value_at(psi, r_star, f_star, np.nan)


class TestStreamedResidual:
    """The row-block residual is independent of the block and chunk heights
    and within roundoff of the full-grid reference."""

    def _state(self, k_text="3/2", alpha=0.2, beta=0.3, n=1, m=1):
        p = DCParams(Q=1.0, alpha=alpha, beta=beta, k=RationalIndex.from_string(k_text))
        spec = bound_state(p, n, m)
        return p, spec, lambda r, phi: wavefunction(spec, r, phi)

    @pytest.mark.parametrize("k_text,alpha,beta,n,m", STREAMED_CASES)
    def test_ragged_multi_block_grid(self, k_text, alpha, beta, n, m):
        p, spec, psi = self._state(k_text, alpha, beta, n, m)
        grid = default_grid(spec, n_r=500, n_phi=340)
        interior_rows, height = grid.axes()[0].size - 2, _block_height(grid)
        assert interior_rows > height and interior_rows % height != 0
        _assert_matches_full_grid(p, spec.E, psi, grid)

    @pytest.mark.parametrize("height", [1, 2, 7, 38, 39, 40])
    def test_any_block_height(self, monkeypatch, height):
        p, spec, psi = self._state()
        grid = default_grid(spec, n_r=40, n_phi=28)
        assert grid.axes()[0].size - 2 == 39
        monkeypatch.setattr(quantum, "_BLOCK_BYTES", 8 * grid.axes()[1].size * height)
        assert _block_height(grid) == height
        _assert_matches_full_grid(p, spec.E, psi, grid)

    # chunks of one row, chunks that split the 13-row blocks unevenly, and
    # chunks taller than a block, which then runs as one chunk
    @pytest.mark.parametrize("chunk", [1, 3, 12, 13, 40])
    def test_any_chunk_height(self, monkeypatch, chunk):
        p, spec, psi = self._state()
        grid = default_grid(spec, n_r=40, n_phi=28)
        n_phi = grid.axes()[1].size
        monkeypatch.setattr(quantum, "_BLOCK_BYTES", 8 * n_phi * 13)
        monkeypatch.setattr(quantum, "_CHUNK_BYTES", 8 * n_phi * chunk)
        _assert_matches_full_grid(p, spec.E, psi, grid)
        # a spike sets the residual's maximum on its own row, so a row that
        # no chunk computes shows: on the last and first rows of two chunks
        # and of two blocks
        rr, ff = grid.axes()
        for row in sorted({min(chunk, 13), min(chunk, 13) + 1, 13, 14}):
            _assert_matches_full_grid(p, spec.E, _value_at(psi, rr[row], ff[14], 100.0), grid)
        # a NaN on the first row of the second chunk, in the halo of the first
        bad = _nan_at(psi, rr[1 + min(chunk, 13)], ff[14])
        assert math.isnan(dc_operator_residual(p, spec.E, bad, grid))

    def test_minimum_grid(self):
        p, spec, psi = self._state()
        grid = GridSpec((1.0, 6.0), (0.3, 1.8), (100.0, 100.0))
        assert [a.size for a in grid.axes()] == [5, 5]
        _assert_matches_full_grid(p, spec.E, psi, grid)

    def test_mapped_oscillator_state(self):
        ttw = TTWParams(omega2=0.25, alpha=0.2, beta=0.3, k=RationalIndex(3, 2))
        psi, E_ttw = ttw_bound_state(ttw, 1, 1)
        dc, E_tilde = ttw_to_dc(ttw, E_ttw)
        mapped = map_wavefunction(psi)
        grid = default_grid(bound_state(dc, 1, 1), n_r=500, n_phi=340)
        assert grid.axes()[0].size - 2 > _block_height(grid)
        _assert_matches_full_grid(dc, E_tilde, mapped, grid)

    # the angular-only and constant callables give blocks of stride-0 rows,
    # which the radial contraction reads outside BLAS
    @pytest.mark.parametrize("psi", [
        lambda r, phi: np.exp(-r) * np.sin(phi) + 0.1 * np.cos(r * phi),
        lambda r, phi: r * np.exp(-r),
        lambda r, phi: np.sin(phi) + 0.5,
        lambda r, phi: np.float64(1.5),
    ], ids=["sum_of_terms", "radial_only", "angular_only", "constant"])
    def test_broadcasting_non_product_callable(self, psi):
        p, spec, _ = self._state()
        grid = default_grid(spec, n_r=500, n_phi=340)
        _assert_matches_full_grid(p, spec.E, psi, grid)

    def test_peak_memory_below_one_full_grid(self):
        p, spec, psi = self._state()
        grid = default_grid(spec, n_r=2000, n_phi=1360)
        n_r, n_phi = (a.size for a in grid.axes())
        tracemalloc.start()
        try:
            dc_operator_residual(p, spec.E, psi, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n_r * n_phi
        # one psi block, the two block buffers and the halo slack: the
        # previous psi block is released before the next one is built
        assert peak < 3.6 * quantum._BLOCK_BYTES

    # (row, column) of the NaN on the 41 x 29 grid: an interior node on the
    # last row of one block and in the halo of the next, a node of the
    # r = r_min edge, and the far corner, which no stencil reads
    @pytest.mark.parametrize("i,j", [(21, 14), (0, 14), (40, 28)],
                             ids=["interior", "edge", "corner"])
    def test_nan_stays_visible(self, monkeypatch, i, j):
        p, spec, psi = self._state()
        grid = default_grid(spec, n_r=40, n_phi=28)
        rr, ff = grid.axes()
        assert (rr.size, ff.size) == (41, 29)
        monkeypatch.setattr(quantum, "_BLOCK_BYTES", 8 * ff.size * 7)
        bad = _nan_at(psi, rr[i], ff[j])
        assert math.isnan(dc_operator_residual(p, spec.E, bad, grid))
        res, _, finest = residual_with_refinement(p, spec.E, bad, grid)
        assert finest.axes()[0].size > 2 * _block_height(finest)
        assert not res <= 1e-5

    # (row, column) of the +inf on the 41 x 29 grid in blocks of 7 rows and
    # chunks of 3: the last row of one block, in the halo of the next, the
    # first row of a block's second chunk, in the halo of its first, and a
    # corner, which no stencil reads but max|psi| does
    @pytest.mark.parametrize("i,j", [(21, 14), (4, 14), (40, 28)],
                             ids=["interior", "chunk_halo", "corner"])
    def test_inf_stays_visible(self, monkeypatch, i, j):
        p, spec, psi = self._state()
        grid = default_grid(spec, n_r=40, n_phi=28)
        rr, ff = grid.axes()
        monkeypatch.setattr(quantum, "_BLOCK_BYTES", 8 * ff.size * 7)
        monkeypatch.setattr(quantum, "_CHUNK_BYTES", 8 * ff.size * 3)
        bad = _value_at(psi, rr[i], ff[j], np.inf)
        assert not dc_operator_residual(p, spec.E, bad, grid) <= 1e-5
        res, ratio, _ = residual_with_refinement(p, spec.E, bad, grid)
        assert not res <= 1e-5
        # each placement reads NaN at the finest level, and a NaN residual
        # gives a NaN ratio, not the inf of a residual that dropped to zero
        assert math.isnan(ratio)


ORTHO_STATES = [(0, 0), (1, 0), (0, 1), (1, 1)]
# (k, alpha, beta, state 1, state 2): every k = 3/2 pair and self-norm, and
# one pair each at k = 1 and k = 2
OVERLAP_CASES = [("3/2", 0.2, 0.3, s1, s2)
                 for i, s1 in enumerate(ORTHO_STATES) for s2 in ORTHO_STATES[i:]] + [
    ("1", 0.75, 2.0, (0, 0), (1, 0)),
    ("2", 0.2, 0.3, (0, 1), (1, 0)),
]


class TestOrthogonality:
    def setup_method(self):
        self.params = DCParams(Q=1.0, alpha=0.2, beta=0.3, k=RationalIndex(3, 2))

    @pytest.mark.parametrize("k_text,alpha,beta,nm1,nm2", OVERLAP_CASES)
    def test_separable_sums_match_tensor_grid(self, k_text, alpha, beta, nm1, nm2):
        p = DCParams(Q=1.0, alpha=alpha, beta=beta, k=RationalIndex.from_string(k_text))
        s1, s2 = bound_state(p, *nm1), bound_state(p, *nm2)
        assert abs(orthogonality_check(s1, s2) - tensor_grid_overlap(s1, s2)) <= 1e-14

    def test_peak_memory_below_one_grid(self):
        s1, s2 = bound_state(self.params, 0, 0), bound_state(self.params, 1, 1)
        orthogonality_check(s1, s2)  # one-time costs of the first call stay out of the peak
        tracemalloc.start()
        try:
            orthogonality_check(s1, s2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 196 * 168  # one float grid of the oracle's panel rule

    @pytest.mark.parametrize("n", [0, 1, 5, 30, 60])
    @pytest.mark.parametrize("m", [0, 3, 40])
    def test_radial_norm_is_the_closed_form(self, n, m):
        # int r R^2 dr = (2n + nu + 1) Gamma(n + nu + 1) / n! (2 kappa)^-(nu + 2),
        # nu = 2 sqrt(A), compared in logs, since it overflows at m = 40
        s = bound_state(self.params, n, m)
        nu, kappa = 2.0 * math.sqrt(s.A), math.sqrt(-s.E)
        exact = (math.log(2 * n + nu + 1) + math.lgamma(n + nu + 1) - math.lgamma(n + 1)
                 - (nu + 2) * math.log(2 * kappa))
        log_mass, radial, _ = quantum._overlap_sums(s, s)
        assert abs(math.expm1(log_mass + math.log(radial) - exact)) <= 1e-12

    @pytest.mark.parametrize("alpha,beta", [(0.2, 0.3), (0.0, 0.0), (0.75, 2.0)])
    @pytest.mark.parametrize("m", [0, 1, 3, 40])
    def test_angular_norm_is_the_closed_form(self, alpha, beta, m):
        # Jacobi h_m (DLMF 18.3) over the mass h_0 of its weight (1-z)^p (1+z)^q:
        # h_m / h_0 = Gamma(m+p+1) Gamma(m+q+1) Gamma(p+q+2)
        #             / ((2m+p+q+1) Gamma(p+1) Gamma(q+1) Gamma(m+p+q+1) m!)
        s = bound_state(DCParams(Q=1.0, alpha=alpha, beta=beta, k=RationalIndex(3, 2)), 0, m)
        p, q = s.a - 0.5, s.b - 0.5
        g = math.lgamma
        exact = math.exp(g(m + p + 1) + g(m + q + 1) + g(p + q + 2) - g(p + 1) - g(q + 1)
                         - g(m + p + q + 1) - g(m + 1)) / (2 * m + p + q + 1)
        assert quantum._overlap_sums(s, s)[2] == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("k_text,alpha,beta", [
        ("3/2", 0.2, 0.3), ("1", 0.2, 0.3), ("2/3", 0.2, 0.3), ("2", -0.2, 0.1), ("1", 0.75, 2.0),
    ])
    def test_every_cross_pair_below_three_is_orthogonal(self, k_text, alpha, beta):
        p = DCParams(Q=1.0, alpha=alpha, beta=beta, k=RationalIndex.from_string(k_text))
        specs = [bound_state(p, n, m) for n in range(4) for m in range(4)]
        worst = max(abs(orthogonality_check(s1, s2))
                    for i, s1 in enumerate(specs) for s2 in specs[i + 1:])
        assert worst <= 1e-13

    @pytest.mark.parametrize("nm1,nm2", [((58, 0), (59, 0)), ((0, 32), (1, 32)),
                                         ((0, 40), (1, 40)), ((0, 40), (0, 41))])
    def test_large_indices_stay_orthogonal(self, nm1, nm2):
        overlap = orthogonality_check(bound_state(self.params, *nm1), bound_state(self.params, *nm2))
        assert abs(overlap) < 1e-13

    def test_off_shell_energy_breaks_orthogonality(self):
        # negative control: the second state at E (1 + 1e-6) is not an eigenstate,
        # and the exact rules read the overlap the panel oracle reads
        s1, s2 = bound_state(self.params, 0, 0), bound_state(self.params, 1, 0)
        off = replace(s2, E=s2.E * (1.0 + 1e-6))
        overlap = orthogonality_check(s1, off)
        assert abs(overlap) > 1e-7
        assert overlap == pytest.approx(tensor_grid_overlap(s1, off), rel=1e-6)

    def test_different_angular_index(self):
        s1 = bound_state(self.params, 0, 0)
        s2 = bound_state(self.params, 0, 1)
        assert abs(orthogonality_check(s1, s2)) < 1e-8

    def test_different_radial_index(self):
        s1 = bound_state(self.params, 0, 0)
        s2 = bound_state(self.params, 1, 0)
        assert abs(orthogonality_check(s1, s2)) < 1e-6

    def test_rejects_mixed_systems(self):
        other = DCParams(Q=2.0, alpha=0.2, beta=0.3, k=RationalIndex(3, 2))
        with pytest.raises(DomainError):
            orthogonality_check(bound_state(self.params, 0, 0), bound_state(other, 0, 0))


class TestOscillatorBoundState:
    def test_energy_positive_and_ordered(self):
        ttw = TTWParams(omega2=0.25, alpha=0.2, beta=0.3, k=RationalIndex(3, 2))
        _, e0 = ttw_bound_state(ttw, 0, 0)
        _, e1 = ttw_bound_state(ttw, 1, 0)
        assert 0 < e0 < e1

    def test_satisfies_own_equation(self):
        # check through the exchanged Coulomb-side operator on a grid is
        # covered elsewhere; here verify the separated radial equation
        ttw = TTWParams(omega2=0.25, alpha=0.2, beta=0.3, k=RationalIndex(3, 2))
        psi, E = ttw_bound_state(ttw, 1, 1)
        h = 1e-4
        worst = 0.0
        for rho, theta in [(1.0, 0.5), (1.6, 0.7), (2.2, 0.4)]:
            lap = ((psi(rho + h, theta) - 2 * psi(rho, theta) + psi(rho - h, theta)) / h ** 2
                   + (psi(rho + h, theta) - psi(rho - h, theta)) / (2 * h * rho)
                   + (psi(rho, theta + h) - 2 * psi(rho, theta) + psi(rho, theta - h))
                   / (h ** 2 * rho ** 2))
            residual = -lap + (potential(ttw, rho, theta) - E) * psi(rho, theta)
            worst = max(worst, abs(residual) / (abs(E) * abs(psi(rho, theta))))
        assert worst < 1e-5

    def test_rejects_nonpositive_coupling(self):
        ttw = TTWParams(omega2=-1.0, alpha=0.2, beta=0.3, k=RationalIndex(1))
        with pytest.raises(DomainError):
            ttw_bound_state(ttw, 0, 0)

    @pytest.mark.parametrize("omega2", [0.0, -1.0])
    def test_bound_state_needs_positive_omega2(self, omega2):
        ttw = TTWParams(omega2=omega2, alpha=0.2, beta=0.3, k=RationalIndex(3, 2))
        with pytest.raises(DomainError, match="omega"):
            bound_state(ttw, 0, 0)

    @pytest.mark.parametrize("k_text,n,m", [("3/2", 1, 1), ("2", 0, 1), ("2/3", 2, 1)])
    def test_mapped_state_is_the_coulomb_state_pointwise(self, k_text, n, m):
        # the oscillator state carried by the exchange map is the Coulomb state
        # of the image system (Q = E/2) up to a constant factor; the two sides
        # come from independent closed forms of E, so the ratio tests them both
        ttw = TTWParams(omega2=0.25, alpha=0.2, beta=0.3, k=RationalIndex.from_string(k_text))
        psi, E_ttw = ttw_bound_state(ttw, n, m)
        dc, _ = ttw_to_dc(ttw, E_ttw)
        rr, ff = default_grid(bound_state(dc, n, m), 60, 40).axes()
        r, phi = rr[:, None], ff[None, :]
        mapped = map_wavefunction(psi)(r, phi)

        def spread(nm):
            direct = wavefunction(bound_state(dc, *nm), r, phi)
            # away from the nodes of either state
            keep = ((np.abs(mapped) > 1e-8 * np.abs(mapped).max())
                    & (np.abs(direct) > 1e-8 * np.abs(direct).max()))
            ratio = mapped[keep] / direct[keep]
            return np.ptp(ratio) / abs(np.median(ratio))

        assert spread((n, m)) < 1e-12
        # negative controls: a neighbouring state of the image system
        assert spread((n + 1, m)) > 1.0
        assert spread((n, m + 1)) > 1.0


class TestWavefunctionExport:
    def test_grid_csv(self, tmp_path):
        p = DCParams(Q=1.0, alpha=0.2, beta=0.3, k=RationalIndex(1))
        spec = bound_state(p, 0, 0)
        code = main(["wavefunction-residual", "--k", "1", "--Q", "1", "--alpha", "0.2",
                     "--beta", "0.3", "--n", "0", "--m", "0", "--grid-r", "20", "--grid-phi", "14",
                     "--export-grid", "--tol", "1e-3", "--out-dir", str(tmp_path)])
        assert code == EXIT_PASS
        lines = (tmp_path / "wavefunction.csv").read_text().strip().splitlines()
        assert lines[0] == "r,phi,psi"
        rr, ff = default_grid(spec, n_r=20, n_phi=14).axes()
        assert len(lines) == rr.size * ff.size + 1
        r, phi, psi = (float(x) for x in lines[1].split(","))
        assert psi == pytest.approx(wavefunction(spec, r, phi), rel=1e-15)
