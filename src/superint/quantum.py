"""Exact spectrum, degeneracies, bound-state wavefunctions, and grid residuals.

The radial gauge uses the decaying exponent exp(-sqrt(-E) r): together
with the Laguerre argument 2 r sqrt(-E) it is the combination under which
the separated radial equation has polynomial solutions at the quantized
energies (the grid residual check is decisive on this point, and the
growing-exponent alternative fails it by construction).

The energy depends on n + k m alone, so with k = c/d the level
N = d n + c m is one line of lattice points.  ``level_states`` walks that
line lazily and the spectral lines are built on it; a level's count is the
length of the m range the walk runs over, so the degeneracy table walks
nothing, and none of them keeps a list of every level's states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import AccuracyError, DomainError
from .systems import DCParams, RationalIndex, TTWParams, _barrier_kernel, _radial_kernel


# A coupling must exceed this for normalizable states: a(a - 1) = -1/4 at a = 1/2.
COUPLING_FLOOR = -0.25


def exponents_from_couplings(alpha: float, beta: float) -> tuple[float, float]:
    """Solve alpha = a(a-1), beta = b(b-1) on the normalizable branch a, b >= 1/2."""
    if alpha <= COUPLING_FLOOR or beta <= COUPLING_FLOOR:
        raise DomainError("couplings must exceed -1/4 for normalizable states")
    a = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * alpha))
    b = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * beta))
    return a, b


def separation_constant(k: RationalIndex, a: float, b: float, m: int) -> float:
    """Quantized angular constant A = k^2 (2m + a + b)^2 / 4."""
    if m < 0:
        raise DomainError("angular index must be non-negative")
    return k.value ** 2 * (2 * m + a + b) ** 2 / 4.0


def energy_level(Q: float, k: RationalIndex, a: float, b: float, n: int, m: int) -> float:
    """Bound-state energy -Q^2 / (2(n + k m) + 1 + k a + k b)^2."""
    if Q <= 0.0:
        raise DomainError("bound spectrum needs Q > 0")
    if n < 0 or m < 0:
        raise DomainError("quantum numbers must be non-negative")
    kv = k.value
    denom = 2.0 * (n + kv * m) + 1.0 + kv * a + kv * b
    return -(Q * Q) / (denom * denom)


def energy_level_from_A(Q: float, n: int, A: float) -> float:
    """Equivalent form -Q^2 / (2n + 1 + 2 sqrt(A))^2 of the same level."""
    denom = 2.0 * n + 1.0 + 2.0 * math.sqrt(A)
    return -(Q * Q) / (denom * denom)


@dataclass(frozen=True)
class QuantumNumbers:
    n: int
    m: int

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise DomainError("quantum numbers must be non-negative")


@dataclass(frozen=True)
class WavefunctionSpec:
    """Everything fixing one bound state of the Coulomb-family system."""

    params: DCParams
    qn: QuantumNumbers
    a: float
    b: float
    A: float
    E: float


def bound_state(params: DCParams, n: int, m: int) -> WavefunctionSpec:
    """Assemble the spec of the (n, m) bound state from the couplings."""
    a, b = exponents_from_couplings(params.alpha, params.beta)
    A = separation_constant(params.k, a, b, m)
    E = energy_level(params.Q, params.k, a, b, n, m)
    return WavefunctionSpec(params=params, qn=QuantumNumbers(n, m), a=a, b=b, A=A, E=E)


def _level_m_range(k: RationalIndex, N: int) -> range:
    """The m of level N: its residue class N c^-1 (mod d), from there up to N // c."""
    if N < 0:
        raise DomainError("level index must be non-negative")
    c, d = k.c, k.d
    return range(N * pow(c, -1, d) % d, N // c + 1, d)


def level_states(k: RationalIndex, N: int):
    """Lazy walk over the (n, m) >= 0 with d n + c m = N, in increasing m.

    m runs over ``_level_m_range`` and n = (N - c m) / d.  N is checked
    here, at the call, not at the first next().
    """
    c, d = k.c, k.d
    return (((N - c * m) // d, m) for m in _level_m_range(k, N))


def degeneracy_bruteforce(k: RationalIndex, N: int) -> int:
    """Number of states on level N: the length of the m range its walk runs over."""
    return len(_level_m_range(k, N))


def degeneracy_formula(k: RationalIndex, N: int) -> int:
    """The printed count floor(d N / c) + 1 (matches enumeration for d = 1)."""
    if N < 0:
        raise DomainError("level index must be non-negative")
    return (k.d * N) // k.c + 1


@dataclass(frozen=True)
class SpectralLine:
    N: int
    E: float
    states: tuple


def spectral_line(params: DCParams, N: int) -> SpectralLine | None:
    """The level with index N = d n + c m, or None when no state lies on it.

    The level is walked once; all member states must share one energy.
    """
    a, b = exponents_from_couplings(params.alpha, params.beta)
    states = tuple(level_states(params.k, N))
    if not states:
        return None
    energies = [energy_level(params.Q, params.k, a, b, n, m) for n, m in states]
    E0 = energies[0]
    spread = max(abs(e - E0) for e in energies) / abs(E0)
    if spread > 1e-13:
        raise AccuracyError(f"states on level N = {N} disagree in energy by {spread}")
    return SpectralLine(N=N, E=E0, states=states)


def degeneracy_report(k: RationalIndex, N_max: int):
    """Formula-vs-enumeration counts per level; mismatches are collected, never hidden.

    Rows hold counts only, so the table's memory is linear in N_max
    whatever the number of states.
    """
    rows = []
    mismatches = []
    for N in range(N_max + 1):
        count = degeneracy_bruteforce(k, N)
        formula = degeneracy_formula(k, N)
        rows.append({"N": N, "formula": formula, "bruteforce": count})
        if formula != count:
            mismatches.append(N)
    return rows, mismatches


def _radial_factor(spec: WavefunctionSpec, r):
    """r^sqrt(A) exp(-kappa r) L_n^{2 sqrt(A)}(2 kappa r), kappa = sqrt(-E), on r > 0."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise DomainError("wavefunction needs r > 0")
    kappa = math.sqrt(-spec.E)
    sqrtA = math.sqrt(spec.A)
    return (r ** sqrtA * np.exp(-kappa * r)
            * specfun.laguerre(spec.qn.n, 2.0 * sqrtA, 2.0 * kappa * r))


def _angular_factor(spec: WavefunctionSpec, phi):
    """cos^a sin^b of k phi / 2 times P_m^{(a-1/2, b-1/2)}(-cos k phi), inside the cell."""
    phi = np.asarray(phi, dtype=float)
    k = spec.params.k.value
    half = 0.5 * k * phi
    cosw = np.cos(half)
    sinw = np.sin(half)
    if np.any(cosw <= 0.0) or np.any(sinw <= 0.0):
        raise DomainError("wavefunction evaluated on or beyond a wedge wall")
    return (cosw ** spec.a * sinw ** spec.b
            * specfun.jacobi(spec.qn.m, spec.a - 0.5, spec.b - 0.5, -np.cos(k * phi)))


def wavefunction(spec: WavefunctionSpec, r, phi):
    """Gauge factors times the Laguerre-Jacobi polynomial pair.

    Real-valued on r > 0, 0 < phi < pi/k (the cell where both gauge
    factors are positive).  The state is the product of its radial and
    angular factors, so on an (n_r, 1) column and a (1, n_phi) row it
    costs O(n_r + n_phi) kernel work and one outer product.
    """
    out = _radial_factor(spec, r) * _angular_factor(spec, phi)
    return out if np.ndim(out) else float(out)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation window with spacings (h_r, h_phi)."""

    r_range: tuple[float, float]
    phi_range: tuple[float, float]
    spacing: tuple[float, float]

    def axes(self):
        (r0, r1), (f0, f1) = self.r_range, self.phi_range
        hr, hf = self.spacing
        nr = max(int(round((r1 - r0) / hr)) + 1, 5)
        nf = max(int(round((f1 - f0) / hf)) + 1, 5)
        return np.linspace(r0, r1, nr), np.linspace(f0, f1, nf)

    def refined(self) -> "GridSpec":
        hr, hf = self.spacing
        return GridSpec(self.r_range, self.phi_range, (hr / 2.0, hf / 2.0))


# Bytes in one row-block array of the streamed residual.  The time is flat
# from 0.5 to 4 MB; smaller blocks pay per-call overhead, larger ones memory.
_BLOCK_BYTES = 2 ** 20


def _abs_max(x):
    """max|x| in two reductions and no |x| array; a NaN in x stays NaN."""
    return max(x.max(), -x.min())


def dc_operator_residual(params: DCParams, E: float, psi, grid: GridSpec) -> float:
    """Max of |(-Laplacian + V - E) psi| / (|E| max|psi|) over the grid interior.

    The polar Laplacian (including the (1/r) d_r term) is applied by
    second-order central differences, so the result converges as O(h^2).
    With V = V_r(r) + B(phi)/r^2 the five-point stencil at node (i, j) is

        (B_j w_i + centre_i) psi - up_i psi[i+1] - down_i psi[i-1]
                                 - side_i (psi[j+1] + psi[j-1]),

    where up, down = 1/h_r^2 +- 1/(2 h_r r), w = 1/r^2, side = w/h_phi^2 and
    centre = 2/h_r^2 + 2 side + V_r - E.  These row weights are built once
    per grid; each block then takes about ten passes over one residual
    buffer and one scratch buffer, both allocated once.

    The grid is streamed in blocks of interior rows with a one-row halo,
    so no array grows past a block: ``psi`` is called on an ``(rows, 1)``
    column of r and a ``(1, n_phi)`` row of phi, and must broadcast over
    them.  A separable state then costs O(rows + n_phi) kernel work and one
    outer product per block.
    """
    rr, ff = grid.axes()
    k = params.k.value
    if rr[0] <= 0.0 or ff[0] <= 0.0 or ff[-1] >= math.pi / k:
        raise DomainError("grid touches r = 0 or a wedge wall")
    hr = rr[1] - rr[0]
    hf = ff[1] - ff[0]
    phi = ff[None, :]
    ri = rr[1:-1]
    # each potential kernel is built once and evaluated once per axis node
    radial, barrier = _radial_kernel(params), _barrier_kernel(params)
    V_r = np.array([radial(r)[0] for r in ri])
    B = np.array([barrier(f)[0] for f in ff[1:-1]])
    up = 1.0 / hr ** 2 + 1.0 / (2.0 * hr * ri)
    down = 1.0 / hr ** 2 - 1.0 / (2.0 * hr * ri)
    w = 1.0 / ri ** 2
    side = w / hf ** 2
    centre = 2.0 / hr ** 2 + 2.0 * side + V_r - E
    height = max(1, _BLOCK_BYTES // (8 * ff.size))
    acc_buf = np.empty((min(height, ri.size), B.size))
    tmp_buf = np.empty_like(acc_buf)
    worst, psi_max = [], []
    for i0 in range(1, rr.size - 1, height):
        i1 = min(i0 + height, rr.size - 1)
        rows = slice(i0 - 1, i1 - 1)
        block = np.broadcast_to(psi(rr[i0 - 1:i1 + 1, None], phi), (i1 - i0 + 2, ff.size))
        acc, tmp = acc_buf[:i1 - i0], tmp_buf[:i1 - i0]
        np.multiply(w[rows, None], B, out=acc)
        acc += centre[rows, None]
        acc *= block[1:-1, 1:-1]
        np.add(block[1:-1, 2:], block[1:-1, :-2], out=tmp)
        tmp *= side[rows, None]
        acc -= tmp
        np.multiply(up[rows, None], block[2:, 1:-1], out=tmp)
        acc -= tmp
        np.multiply(down[rows, None], block[:-2, 1:-1], out=tmp)
        acc -= tmp
        worst.append(_abs_max(acc))
        psi_max.append(_abs_max(block))
        del block  # so the next block is never built while this one is alive
    # np.max over the block maxima keeps a NaN block visible
    scale = abs(E) * float(np.max(psi_max))
    if scale == 0.0:
        raise DomainError("wavefunction vanishes identically on the grid")
    return float(np.max(worst)) / scale


def default_grid(spec: WavefunctionSpec, n_r: int = 380, n_phi: int = 260) -> GridSpec:
    """A window holding the bulk of the state, clear of walls and origin."""
    kappa = math.sqrt(-spec.E)
    sqrtA = math.sqrt(spec.A)
    r_peak = (sqrtA + 2.0 * spec.qn.n + 1.0) / kappa
    r_lo = 0.25 * r_peak / (1.0 + spec.qn.n)
    r_hi = r_peak + (3.0 + 2.0 * spec.qn.n) / kappa
    cell = math.pi / spec.params.k.value
    f_lo, f_hi = 0.12 * cell, 0.88 * cell
    return GridSpec((r_lo, r_hi), (f_lo, f_hi),
                    ((r_hi - r_lo) / n_r, (f_hi - f_lo) / n_phi))


def residual_with_refinement(params: DCParams, E: float, psi, grid: GridSpec,
                             target: float = 1e-5):
    """Halve the spacings, at most three times, until the residual meets the target.

    Returns (residual, convergence_ratio, grid) from the finest level
    reached; the ratio between consecutive levels certifies the O(h^2)
    behavior (it approaches 4 under halving).
    """
    res_prev = dc_operator_residual(params, E, psi, grid)
    ratio = math.nan
    res = res_prev
    for _ in range(3):
        grid = grid.refined()
        res = dc_operator_residual(params, E, psi, grid)
        ratio = res_prev / res if res > 0.0 else math.inf
        if res <= target:
            break
        res_prev = res
    return res, ratio, grid


def _radial_cutoff(spec1: WavefunctionSpec, spec2: WavefunctionSpec) -> float:
    """Radius beyond which the slower envelope is twelve decades below its peak."""
    s = max(math.sqrt(spec1.A) + spec1.qn.n, math.sqrt(spec2.A) + spec2.qn.n)
    kappa = min(math.sqrt(-spec1.E), math.sqrt(-spec2.E))
    log_env = lambda r: s * math.log(r) - kappa * r
    r_peak = max(s / kappa, 1.0 / kappa)
    target = log_env(r_peak) + math.log(1e-12)
    hi = r_peak
    while log_env(hi) > target:
        hi *= 2.0
    lo = r_peak
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if log_env(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi


def _panel_rule(n: int, cuts) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of an n-point Gauss-Legendre rule on each panel between cuts."""
    nodes, weights = zip(*(specfun.quadrature_nodes(n, lo, hi)
                           for lo, hi in zip(cuts[:-1], cuts[1:])))
    return np.concatenate(nodes), np.concatenate(weights)


def orthogonality_check(spec1: WavefunctionSpec, spec2: WavefunctionSpec) -> float:
    """Normalized overlap of two states of the same system under r dr dphi.

    Quadrature runs over the wedge cell with the radial range truncated
    where the envelope falls twelve decades below its peak; each axis is
    split into two panels, because the integrand has limited smoothness at
    the r = 0 and wall endpoints.  Both states separate, psi = R(r) Phi(phi),
    so the tensor-product rule on those panels factors: every overlap and
    norm is (sum of w r R_1 R_2 over the r nodes) times (sum of w Phi_1
    Phi_2 over the phi nodes), O(n_r + n_phi) work per state.  The 140 x 120
    point rule is confirmed against a 196 x 168 one, 1.4 times finer on each axis.
    """
    if spec1.params != spec2.params:
        raise DomainError("overlap needs two states of the same system")
    r_cut = _radial_cutoff(spec1, spec2)
    cell = math.pi / spec1.params.k.value
    eps_f = 1e-9 * cell
    r_mid = min(max(math.sqrt(spec1.A) / math.sqrt(-spec1.E), 0.2 * r_cut), 0.8 * r_cut)

    def inner(nr, nf):
        rv, rw = _panel_rule(nr, (1e-12, r_mid, r_cut))
        fv, fw = _panel_rule(nf, (eps_f, 0.5 * cell, cell - eps_f))
        rw = rw * rv  # the r of the measure r dr dphi
        R1, R2 = _radial_factor(spec1, rv), _radial_factor(spec2, rv)
        F1, F2 = _angular_factor(spec1, fv), _angular_factor(spec2, fv)
        overlap = (rw @ (R1 * R2)) * (fw @ (F1 * F2))
        norm1 = (rw @ (R1 * R1)) * (fw @ (F1 * F1))
        norm2 = (rw @ (R2 * R2)) * (fw @ (F2 * F2))
        return float(overlap / math.sqrt(norm1 * norm2))

    coarse = inner(140, 120)
    fine = inner(196, 168)
    if abs(fine - coarse) > 1e-8 + 1e-8 * abs(fine):
        raise AccuracyError(f"overlap quadrature not converged: {coarse} vs {fine}")
    return fine


def ttw_bound_state(params: TTWParams, n: int, m: int):
    """Closed-form separable bound state of the oscillator family.

    Returns (psi, E) with psi a callable of (rho, theta); needs
    omega^2 > 0.
    """
    if params.omega2 <= 0.0:
        raise DomainError("oscillator bound states need omega^2 > 0")
    omega = math.sqrt(params.omega2)
    a, b = exponents_from_couplings(params.alpha, params.beta)
    k = params.k.value
    sigma = k * (2 * m + a + b)
    E = 2.0 * omega * (2 * n + 1 + sigma)

    def psi(rho, theta):
        rho = np.asarray(rho, dtype=float)
        theta = np.asarray(theta, dtype=float)
        if np.any(rho <= 0.0):
            raise DomainError("oscillator state needs rho > 0")
        cosw = np.cos(k * theta)
        sinw = np.sin(k * theta)
        if np.any(cosw <= 0.0) or np.any(sinw <= 0.0):
            raise DomainError("oscillator state evaluated on or beyond a wall")
        radial = (rho ** sigma * np.exp(-0.5 * omega * rho ** 2)
                  * specfun.laguerre(n, sigma, omega * rho ** 2))
        angular = (cosw ** a * sinw ** b
                   * specfun.jacobi(m, a - 0.5, b - 0.5, -np.cos(2.0 * k * theta)))
        out = radial * angular
        return out if np.ndim(out) else float(out)

    return psi, E
