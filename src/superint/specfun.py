"""Orthogonal-polynomial and Gauss-rule primitives.

All polynomial values come from forward three-term recurrences; the
trigonometric / hypergeometric closed forms are reserved for tests.
Every evaluator accepts scalars or numpy arrays in ``x``, and the Chebyshev
recurrence any real x.  Gauss rules come from one builder, ``gauss_rule``,
over a weight's Jacobi matrix.
"""

import numpy as np

from .errors import DomainError


def _check_degree(n):
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError(f"polynomial degree must be a non-negative integer, got {n!r}")


def chebyshev_recurrence(n, x, second_kind=False):
    """T_n(x), or U_n(x) with second_kind, for n >= 0 and any real x.

    Both kinds share T_0 = U_0 = 1 and the step 2 x cur - prev; only the
    degree-one start differs (x against 2x).  Only operators touch x, so a
    float x stays a float and an array an array.
    """
    if n == 0:
        return x ** 0  # 1.0 in the type and shape of x
    prev, cur = 1.0, (2.0 * x if second_kind else x)
    for _ in range(n - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


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
    x = np.asarray(x, dtype=float)
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


def gauss_rule(diag, off):
    """Gauss (nodes, weights) of a unit-mass weight from its Jacobi matrix's diagonals.

    Exact to degree 2 len(diag) - 1 (Golub and Welsch, Math. Comp. 23 (1969)
    221).  The weights are Christoffel numbers 1 / sum_j p_j(x_i)^2 over the
    orthonormal recurrence, not squared eigenvector components, whose 1e-16
    absolute error swamps the small weights of the outer nodes.
    """
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    prev, cur, total = 0.0, np.ones_like(x), np.ones_like(x)
    for j in range(len(off)):
        prev, cur = cur, ((x - diag[j]) * cur - (off[j - 1] if j else 0.0) * prev) / off[j]
        total += cur * cur
    return x, 1.0 / total
