"""Orthogonal-polynomial and quadrature primitives.

All polynomial values come from forward three-term recurrences; the
trigonometric / hypergeometric closed forms are reserved for tests.
Every evaluator accepts scalars or numpy arrays in ``x``.
"""

import functools

import numpy as np

from .errors import DomainError

# Inputs within CLAMP_EPS of the ends of [-1, 1] are snapped to the end;
# anything further out is rejected.
CLAMP_EPS = 1e-12


def _check_degree(n):
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError(f"polynomial degree must be a non-negative integer, got {n!r}")


def clamp_unit(x, eps=CLAMP_EPS):
    """Snap x into [-1, 1] when within eps of the ends, else raise."""
    x = np.asarray(x, dtype=float)
    if (np.abs(x) > 1.0 + eps).any():
        worst = float(np.abs(x).max())
        raise DomainError(f"argument {worst} lies outside [-1, 1] beyond tolerance {eps}")
    out = np.minimum(np.maximum(x, -1.0), 1.0)
    return out if out.ndim else float(out)


def chebyshev_recurrence(n, x, second_kind=False):
    """T_n(x), or U_n(x) with second_kind, for n >= 0 and x already in [-1, 1].

    Both kinds share T_0 = U_0 = 1 and the step 2 x cur - prev; only the
    degree-one start differs (x against 2x).  A float x stays a float.
    """
    if n == 0:
        return np.ones_like(x) if np.ndim(x) else 1.0
    prev, cur = 1.0, (2.0 * x if second_kind else x)
    for _ in range(n - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def chebyshev_T(n, x):
    """First-kind Chebyshev value T_n(x) for x in [-1, 1]."""
    _check_degree(n)
    return chebyshev_recurrence(n, clamp_unit(x))


def chebyshev_U(n, x):
    """Second-kind Chebyshev value U_n(x) for x in [-1, 1]."""
    _check_degree(n)
    return chebyshev_recurrence(n, clamp_unit(x), second_kind=True)


def laguerre(n, alpha, x):
    """Generalized Laguerre value L_n^alpha(x), alpha > -1, x >= 0."""
    _check_degree(n)
    if alpha <= -1.0:
        raise DomainError(f"Laguerre parameter must exceed -1, got {alpha}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise DomainError("Laguerre argument must be non-negative")
    prev = np.ones_like(x)
    if n == 0:
        return prev if prev.ndim else float(prev)
    cur = 1.0 + alpha - x
    for j in range(1, n):
        prev, cur = cur, ((2 * j + 1 + alpha - x) * cur - (j + alpha) * prev) / (j + 1)
    return cur if cur.ndim else float(cur)


def jacobi(m, a, b, x):
    """Jacobi value P_m^{(a,b)}(x), a, b > -1, x in [-1, 1]."""
    _check_degree(m)
    if a <= -1.0 or b <= -1.0:
        raise DomainError(f"Jacobi parameters must exceed -1, got ({a}, {b})")
    x = np.asarray(clamp_unit(x), dtype=float)
    prev = np.ones_like(x)
    if m == 0:
        return prev if prev.ndim else float(prev)
    cur = 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x
    for j in range(2, m + 1):
        c1 = 2.0 * j * (j + a + b) * (2 * j + a + b - 2)
        c2 = (2 * j + a + b - 1) * (a * a - b * b)
        c3 = (2 * j + a + b - 1) * (2 * j + a + b) * (2 * j + a + b - 2)
        c4 = 2.0 * (j + a - 1) * (j + b - 1) * (2 * j + a + b)
        prev, cur = cur, ((c2 + c3 * x) * cur - c4 * prev) / c1
    return cur if cur.ndim else float(cur)


@functools.lru_cache(maxsize=64)
def _legendre_rule(n):
    """The n-point Gauss-Legendre rule on [-1, 1], built once per process.

    The arrays are shared by every later call, so they are read-only.
    """
    t, w = np.polynomial.legendre.leggauss(n)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def quadrature_nodes(n, lo, hi):
    """Gauss-Legendre (nodes, weights) on [lo, hi], as two arrays.

    Exact for polynomials of degree <= 2n - 1.  The [-1, 1] rule is cached
    per n; the returned arrays are fresh, so callers may write to them.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"node count must be a positive integer, got {n!r}")
    if not lo < hi:
        raise DomainError(f"degenerate interval [{lo}, {hi}]")
    t, w = _legendre_rule(int(n))
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    return mid + half * t, half * w
