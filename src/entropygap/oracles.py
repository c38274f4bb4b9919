"""Independent reference routes for the spectral calculus.

Gauss-Legendre quadrature evaluates the integral forms of the logarithmic
kernels, and central finite differences recompute Frechet derivatives from
matrix-function values alone.  None of these touch the divided-difference
path they are used to check.
"""

from __future__ import annotations

import numpy as np

from .calculus import ScalarFunction, matrix_function
from .errors import DomainError
from .linalg import _eigvalsh, _per_matrix, check_hermitian, check_positive


# Rules computed so far, by node count; their arrays are read-only.
_GAUSS_LEGENDRE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre_unit(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of n-point Gauss-Legendre quadrature on (0, 1).

    Each rule is computed once and returned as read-only arrays afterwards.
    """
    if n < 1:
        raise DomainError(f"node count must be positive, got {n}")
    rule = _GAUSS_LEGENDRE.get(n)
    if rule is None:
        x, w = np.polynomial.legendre.leggauss(n)
        rule = ((x + 1.0) / 2.0, w / 2.0)
        for array in rule:
            array.flags.writeable = False
        _GAUSS_LEGENDRE[n] = rule
    return rule


def dd_log_quadrature(s, t, nodes: int = 64) -> float | np.ndarray:
    """Integral form of the log divided difference.

    Evaluates integral_0^1 dl / (l*t + (1 - l)*s), which equals
    (log t - log s) / (t - s) for positive s, t, with an n-node
    Gauss-Legendre rule.  ``s`` and ``t`` broadcast against each other, and
    each pair's nodes are summed along the last axis, so a pair gets the bits
    it gets alone; scalar arguments give a float.
    """
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    smallest = float(np.minimum(np.min(s), np.min(t)))
    if not smallest > 0:
        raise DomainError(f"integral kernel needs positive arguments; smallest is {smallest:.6g}")
    x, w = gauss_legendre_unit(nodes)
    return _per_matrix(np.sum(w / (x * t[..., None] + (1.0 - x) * s[..., None]), axis=-1))


def log_quad_form_quadrature(a, h, nodes: int = 128) -> float:
    """Resolvent integral form of the log-kernel curvature form.

    Evaluates integral_0^inf tr[h (a + l)^-1 h (a + l)^-1] dl by
    Gauss-Legendre after the substitution l = u / (1 - u), under which the
    integrand becomes tr[h K_u^-1 h K_u^-1] with K_u = (1 - u) a + u I,
    smooth on [0, 1].  Batched linear solves keep this route independent of
    any eigendecomposition.
    """
    a = check_hermitian(a, "base point")
    if a.ndim != 2:
        raise DomainError(f"base point must be a single matrix, got shape {a.shape}")
    h = check_hermitian(h, "direction")
    if h.shape != a.shape:
        raise DomainError(f"direction shape {h.shape} does not match base point {a.shape}")
    check_positive(_eigvalsh(a), "resolvent integral needs a positive definite base point")
    x, w = gauss_legendre_unit(nodes)
    eye = np.eye(a.shape[0])
    pencil = (1.0 - x)[:, None, None] * a + x[:, None, None] * eye
    solved = np.linalg.solve(pencil, np.broadcast_to(h, pencil.shape).copy())
    values = np.einsum("nij,nji->n", solved, solved).real
    return float(np.sum(w * values))


def frechet_central_difference(func: ScalarFunction, a, h, step: float = 1e-5) -> np.ndarray:
    """Central difference (f(a + step*h) - f(a - step*h)) / (2*step)."""
    if not step > 0:
        raise DomainError(f"step must be positive, got {step}")
    plus = matrix_function(func, a + step * h)
    minus = matrix_function(func, a - step * h)
    return (plus - minus) / (2.0 * step)
