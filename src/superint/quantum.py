"""Exact spectrum, degeneracies, bound-state wavefunctions, and grid residuals.

Both families have one state kernel.  A state is
q1^sqrt(A) exp(-x/2) L_n^nu(x) cos^a u sin^b u P_m^(a-1/2, b-1/2)(-cos 2u)
in the barrier's angle u and a Laguerre variable x: on the Coulomb side
u = k phi / 2, x = 2 sqrt(-E) r and nu = 2 sqrt(A); on the oscillator side
u = k theta, x = omega rho^2 and nu = sqrt(A) (A = L1 = sigma^2).  The
radial gauge uses the decaying exponent exp(-x/2): with that Laguerre
argument it is the combination under which the separated radial equation
has polynomial solutions at the quantized energies (the grid residual
check is decisive on this point, and the growing-exponent alternative
fails it by construction).

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
class WavefunctionSpec:
    """Everything fixing one bound state of either family.

    A is the family's angular invariant (A on the Coulomb side, L1 = sigma^2
    on the oscillator side), so sqrt(A) is the radial exponent of both.
    """

    params: DCParams | TTWParams
    n: int
    m: int
    a: float
    b: float
    A: float
    E: float


def bound_state(params: DCParams | TTWParams, n: int, m: int) -> WavefunctionSpec:
    """Assemble the spec of the (n, m) bound state; the parameter type picks the family.

    Coulomb: A = k^2 (2m + a + b)^2 / 4 and E = ``energy_level``.
    Oscillator (needs omega^2 > 0): A = sigma^2 with sigma = k (2m + a + b)
    and E = 2 omega (2n + 1 + sigma).
    """
    if n < 0 or m < 0:
        raise DomainError("quantum numbers must be non-negative")
    a, b = exponents_from_couplings(params.alpha, params.beta)
    if isinstance(params, DCParams):
        A = separation_constant(params.k, a, b, m)
        E = energy_level(params.Q, params.k, a, b, n, m)
    else:
        if params.omega2 <= 0.0:
            raise DomainError("oscillator bound states need omega^2 > 0")
        sigma = params.k.value * (2 * m + a + b)
        A = sigma * sigma
        E = 2.0 * math.sqrt(params.omega2) * (2 * n + 1 + sigma)
    return WavefunctionSpec(params=params, n=n, m=m, a=a, b=b, A=A, E=E)


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


def _radial_factor(spec: WavefunctionSpec, q1):
    """q1^sqrt(A) exp(-x/2) L_n^nu(x) on q1 > 0, in the family's x and nu (module docstring)."""
    q1 = np.asarray(q1, dtype=float)
    if np.any(q1 <= 0.0):
        raise DomainError("wavefunction needs q1 > 0")
    sqrtA = math.sqrt(spec.A)
    x, nu = (2.0 * math.sqrt(-spec.E) * q1, 2.0 * sqrtA) if isinstance(spec.params, DCParams) \
        else (math.sqrt(spec.params.omega2) * q1 ** 2, sqrtA)
    return q1 ** sqrtA * np.exp(-0.5 * x) * specfun.laguerre(spec.n, nu, x)


def _angular_factor(spec: WavefunctionSpec, q2):
    """cos^a u sin^b u P_m^{(a-1/2, b-1/2)}(-cos 2u) inside the cell, u = k phi/2 or k theta."""
    k = spec.params.k.value
    u = (0.5 * k if isinstance(spec.params, DCParams) else k) * np.asarray(q2, dtype=float)
    cosu = np.cos(u)
    sinu = np.sin(u)
    if np.any(cosu <= 0.0) or np.any(sinu <= 0.0):
        raise DomainError("wavefunction evaluated on or beyond a wall of the cell")
    return (cosu ** spec.a * sinu ** spec.b
            * specfun.jacobi(spec.m, spec.a - 0.5, spec.b - 0.5, -np.cos(2.0 * u)))


def wavefunction(spec: WavefunctionSpec, q1, q2):
    """Gauge factors times the Laguerre-Jacobi polynomial pair, for either family.

    Real-valued on q1 > 0 inside the cell (0 < phi < pi/k, or
    0 < theta < pi/(2k), where both gauge factors are positive).  The
    state is the product of its radial and angular factors, so on an
    (n_1, 1) column and a (1, n_2) row it costs O(n_1 + n_2) kernel work
    and one outer product.
    """
    out = _radial_factor(spec, q1) * _angular_factor(spec, q2)
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


# Bytes in one psi block of the streamed residual, and in one row chunk of
# its stencil arithmetic.  A chunk's psi rows and its residual and scratch
# buffers stay in the L2 cache (2 MB per core on the 2-vCPU Xeon measured);
# a psi block is larger, since each psi call pays a per-call cost on its
# phi row.  On the nine-state ladder, 256 KB chunks ran 26% faster than one
# chunk per 1 MB block, and 64, 128 and 512 KB chunks 18%, 5% and 16% slower
# than 256 KB; blocks of 0.5 to 4 MB were within the run-to-run spread, and
# 0.25 MB blocks 26% slower.
_BLOCK_BYTES = 2 ** 20
_CHUNK_BYTES = 2 ** 18


def _abs_max(x):
    """max|x| in two reductions and no |x| array; a NaN in x stays NaN."""
    return max(x.max(), -x.min())


def dc_operator_residual(params: DCParams, E: float, psi, grid: GridSpec) -> float:
    """Max of |(-Laplacian + V - E) psi| / (|E| max|psi|) over a Coulomb-side grid interior.

    The polar Laplacian (including the (1/r) d_r term) is applied by
    second-order central differences, so the result converges as O(h^2).
    With V = V_r(r) + B(phi)/r^2 the five-point stencil at node (i, j),
    divided by its positive angular weight side_i = 1/(r_i h_phi)^2, is

        (g_i + beta_j) psi - (psi[j+1] + psi[j-1]) - a_i psi[i+1] - b_i psi[i-1],

    where beta = h_phi^2 B + 2, g = (2/h_r^2 + V_r - E)(r h_phi)^2 and
    a, b = (1/h_r^2 +- 1/(2 h_r r))(r h_phi)^2.  Each row's max|.| is then
    scaled back by its side_i, which gives the max of the undivided stencil.
    These row and column weights are built once per grid.

    The grid is streamed in blocks of interior rows with a one-row halo,
    so no array grows past a block: ``psi`` is called on an ``(rows, 1)``
    column of r and a ``(1, n_phi)`` row of phi, and must broadcast over
    them.  A separable state then costs O(rows + n_phi) kernel work and one
    outer product per block.  The stencil runs over row chunks of a block,
    small enough that a chunk's psi rows and its residual and scratch
    buffers (both allocated once) stay in cache: eight array passes and
    two row reductions per chunk, and two reductions per block for max|psi|.
    Every node is computed by the same operations whatever the block and
    chunk heights, so the result does not depend on them.
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
    inv_side = (ri * hf) ** 2
    g = (2.0 / hr ** 2 + V_r - E) * inv_side
    beta = hf ** 2 * B + 2.0
    a = (1.0 / hr ** 2 + 1.0 / (2.0 * hr * ri)) * inv_side
    b = (1.0 / hr ** 2 - 1.0 / (2.0 * hr * ri)) * inv_side
    side = 1.0 / inv_side
    height = max(1, _BLOCK_BYTES // (8 * ff.size))
    chunk = max(1, _CHUNK_BYTES // (8 * ff.size))
    acc_buf = np.empty((min(chunk, height, ri.size), B.size))
    tmp_buf = np.empty_like(acc_buf)
    worst, psi_max = [], []
    for i0 in range(1, rr.size - 1, height):
        i1 = min(i0 + height, rr.size - 1)
        block = np.broadcast_to(psi(rr[i0 - 1:i1 + 1, None], phi), (i1 - i0 + 2, ff.size))
        for c0 in range(i0, i1, chunk):
            c1 = min(c0 + chunk, i1)
            rows = slice(c0 - 1, c1 - 1)
            near = block[c0 - i0:c1 - i0 + 2]  # the chunk's rows and their halo
            acc, tmp = acc_buf[:c1 - c0], tmp_buf[:c1 - c0]
            np.add(g[rows, None], beta, out=acc)
            acc *= near[1:-1, 1:-1]
            acc -= near[1:-1, 2:]
            acc -= near[1:-1, :-2]
            np.multiply(a[rows, None], near[2:, 1:-1], out=tmp)
            acc -= tmp
            np.multiply(b[rows, None], near[:-2, 1:-1], out=tmp)
            acc -= tmp
            # np.maximum and max keep a NaN row visible
            worst.append((np.maximum(acc.max(1), -acc.min(1)) * side[rows]).max())
        psi_max.append(_abs_max(block))
        del block, near  # so the next block is never built while this one is alive
    # np.max over the block maxima keeps a NaN block visible
    scale = abs(E) * float(np.max(psi_max))
    if scale == 0.0:
        raise DomainError("wavefunction vanishes identically on the grid")
    return float(np.max(worst)) / scale


def default_grid(spec: WavefunctionSpec, n_r: int = 380, n_phi: int = 260) -> GridSpec:
    """A window holding the bulk of a Coulomb-side state, clear of walls and origin."""
    kappa = math.sqrt(-spec.E)
    sqrtA = math.sqrt(spec.A)
    r_peak = (sqrtA + 2.0 * spec.n + 1.0) / kappa
    r_lo = 0.25 * r_peak / (1.0 + spec.n)
    r_hi = r_peak + (3.0 + 2.0 * spec.n) / kappa
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
    s = max(math.sqrt(spec1.A) + spec1.n, math.sqrt(spec2.A) + spec2.n)
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
    """Normalized overlap of two Coulomb-side states of the same system under r dr dphi.

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
    """The oscillator state of ``bound_state`` as (psi, E), psi a callable of (rho, theta)."""
    spec = bound_state(params, n, m)
    return (lambda rho, theta: wavefunction(spec, rho, theta)), spec.E
