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
from numpy.lib.stride_tricks import sliding_window_view

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
    x = 2.0 * math.sqrt(-spec.E) * q1 if isinstance(spec.params, DCParams) \
        else math.sqrt(spec.params.omega2) * q1 ** 2
    return q1 ** math.sqrt(spec.A) * np.exp(-0.5 * x) * _laguerre(spec, x)


def _laguerre(spec: WavefunctionSpec, x):
    """The state's L_n^nu(x): nu = 2 sqrt(A) on the Coulomb side, sqrt(A) on the oscillator side."""
    nu = (2.0 if isinstance(spec.params, DCParams) else 1.0) * math.sqrt(spec.A)
    return specfun.laguerre(spec.n, nu, x)


def _angular_factor(spec: WavefunctionSpec, q2):
    """cos^a u sin^b u P_m^{(a-1/2, b-1/2)}(-cos 2u) inside the cell, u = k phi/2 or k theta."""
    k = spec.params.k.value
    u = (0.5 * k if isinstance(spec.params, DCParams) else k) * np.asarray(q2, dtype=float)
    cosu = np.cos(u)
    sinu = np.sin(u)
    if np.any(cosu <= 0.0) or np.any(sinu <= 0.0):
        raise DomainError("wavefunction evaluated on or beyond a wall of the cell")
    return cosu ** spec.a * sinu ** spec.b * _jacobi(spec, -np.cos(2.0 * u))


def _jacobi(spec: WavefunctionSpec, z):
    """The state's P_m^{(a-1/2, b-1/2)}(z), z = -cos 2u."""
    return specfun.jacobi(spec.m, spec.a - 0.5, spec.b - 0.5, z)


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
# phi row.  On the nine-state ladder (best of 21 ladders, one pinned vCPU),
# 256 KB chunks of 1 MB blocks took 0.56 s; one chunk per block was 22%
# slower, and 64, 128 and 512 KB chunks 16%, 6% and 10% slower.  Blocks of
# 2 and 4 MB were within the run-to-run spread but hold more memory, and
# 0.5 and 0.25 MB blocks were 18% and 43% slower.
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

        (-b_i psi[i-1] + g_i psi - a_i psi[i+1]) + beta_j psi - psi[j+1] - psi[j-1],

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
    buffers (both allocated once) stay in cache.  Per chunk, the radial
    half is one batched matmul of each row's (-b_i, g_i, -a_i) with a
    read-only window of that row and its two neighbours (built once per
    block), then four array passes add beta_j psi and the angular
    neighbours, and two row reductions take max|.|; two reductions per
    block give max|psi|.  Every node is computed by the same fixed
    three-term product and the same passes whatever the block and chunk
    heights, so the result does not depend on them.
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
    radial_row = np.stack([-b, g, -a], axis=1)[:, None, :]  # (rows, 1, 3)
    height = max(1, _BLOCK_BYTES // (8 * ff.size))
    chunk = max(1, _CHUNK_BYTES // (8 * ff.size))
    acc_buf = np.empty((min(chunk, height, ri.size), B.size))
    tmp_buf = np.empty_like(acc_buf)
    worst, psi_max = [], []
    for i0 in range(1, rr.size - 1, height):
        i1 = min(i0 + height, rr.size - 1)
        block = np.broadcast_to(psi(rr[i0 - 1:i1 + 1, None], phi), (i1 - i0 + 2, ff.size))
        # window[i] is the read-only (3, n_phi - 2) view of rows i-1, i, i+1
        window = sliding_window_view(block[:, 1:-1], 3, axis=0).transpose(0, 2, 1)
        for c0 in range(i0, i1, chunk):
            c1 = min(c0 + chunk, i1)
            rows = slice(c0 - 1, c1 - 1)
            mid = block[c0 - i0 + 1:c1 - i0 + 1]  # the chunk's rows
            acc, tmp = acc_buf[:c1 - c0], tmp_buf[:c1 - c0]
            np.matmul(radial_row[rows], window[c0 - i0:c1 - i0], out=acc[:, None])
            np.multiply(beta, mid[:, 1:-1], out=tmp)
            acc += tmp
            acc -= mid[:, 2:]
            acc -= mid[:, :-2]
            # np.maximum and max keep a NaN row visible
            worst.append((np.maximum(acc.max(1), -acc.min(1)) * side[rows]).max())
        psi_max.append(_abs_max(block))
        del block, window, mid  # so the next block is never built while this one is alive
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


def _overlap_sums(spec1: WavefunctionSpec, spec2: WavefunctionSpec) -> tuple[float, float, float]:
    """(log mass, radial sum, angular sum), exact Gauss rules of max(n_i) + 1, max(m_i) + 1 nodes.

    In s = K r, K = kappa_1 + kappa_2, kappa = sqrt(-E), r R_1 R_2 dr is s^alpha
    e^-s L_1 L_2 ds / K^(alpha+1), alpha = sqrt(A_1) + sqrt(A_2) + 1: Gauss-Laguerre
    of mass Gamma(alpha+1) / K^(alpha+1).  In z = -cos 2u, Phi_1 Phi_2 du is a system
    constant times (1-z)^p (1+z)^q P_1 P_2 dz, p = a - 1/2, q = b - 1/2: Gauss-Jacobi,
    whose first diagonal entry (q-p)/(p+q+2) is 0/0 in the general form at p = q = 0.
    """
    kappa1, kappa2 = math.sqrt(-spec1.E), math.sqrt(-spec2.E)
    K, alpha = kappa1 + kappa2, math.sqrt(spec1.A) + math.sqrt(spec2.A) + 1.0
    j = np.arange(max(spec1.n, spec2.n) + 1)
    s, w = specfun.gauss_rule(2 * j + alpha + 1.0, np.sqrt(j[1:] * (j[1:] + alpha)))
    radial = w @ (_laguerre(spec1, 2.0 * kappa1 / K * s) * _laguerre(spec2, 2.0 * kappa2 / K * s))
    p, q = spec1.a - 0.5, spec1.b - 0.5
    i = np.arange(1, max(spec1.m, spec2.m) + 1)
    t = 2 * i + p + q
    z, w = specfun.gauss_rule(
        np.append((q - p) / (p + q + 2.0), (q * q - p * p) / (t * (t + 2.0))),
        2.0 / t * np.sqrt(i * (i + p) * (i + q) * (i + p + q) / ((t - 1.0) * (t + 1.0))))
    angular = w @ (_jacobi(spec1, z) * _jacobi(spec2, z))
    return math.lgamma(alpha + 1.0) - (alpha + 1.0) * math.log(K), float(radial), float(angular)


def orthogonality_check(spec1: WavefunctionSpec, spec2: WavefunctionSpec) -> float:
    """Normalized overlap of two Coulomb-side states of the same system under r dr dphi.

    Each separated factor is a weight times a polynomial, so every overlap and
    norm is one exact Gauss sum per axis (``_overlap_sums``).
    """
    if spec1.params != spec2.params:
        raise DomainError("overlap needs two states of the same system")
    (mass, rad, ang), (mass1, rad1, ang1), (mass2, rad2, ang2) = (
        _overlap_sums(spec1, spec2), _overlap_sums(spec1, spec1), _overlap_sums(spec2, spec2))
    return rad * ang * math.exp(mass - 0.5 * (mass1 + mass2)) / math.sqrt(rad1 * ang1 * rad2 * ang2)


def ttw_bound_state(params: TTWParams, n: int, m: int):
    """The oscillator state of ``bound_state`` as (psi, E), psi a callable of (rho, theta)."""
    spec = bound_state(params, n, m)
    return (lambda rho, theta: wavefunction(spec, rho, theta)), spec.E
