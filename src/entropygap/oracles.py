"""Independent reference routes for the spectral calculus.

Gauss-Legendre quadrature evaluates the integral forms of the logarithmic
kernels, and central finite differences recompute Frechet derivatives from
matrix-function values alone.  None of these touch the divided-difference
path they are used to check.

Both quadratures integrate over l in [0, inf) after the substitution
l = c u / (1 - u), with c the geometric mean of the two scalars or of the
extreme eigenvalues.  That centring puts the integrand's poles symmetrically
about [0, 1], at a distance set by the condition number, which in turn sets
the node count the resolvent integral needs (Trefethen, "Is Gauss quadrature
better than Clenshaw-Curtis?", SIAM Rev. 2008).
"""

from __future__ import annotations

import math

import numpy as np

from .calculus import ScalarFunction, matrix_function
from .errors import DomainError, NumericError
from .linalg import _eigvalsh, _per_matrix, check_hermitian, check_positive


DD_LOG_NODES = 64  # nodes of the log divided-difference rule

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


def dd_log_quadrature(s, t) -> float | np.ndarray:
    """Integral form of the log divided difference.

    Evaluates integral_0^inf dl / ((s + l)(t + l)), which equals
    (log t - log s) / (t - s) for positive s, t, with a DD_LOG_NODES-node
    Gauss-Legendre rule after the substitution l = c u / (1 - u) centred at
    c = sqrt(s t): the integrand c / (((1 - u) s + c u)((1 - u) t + c u)) has
    its poles at u = -delta and u = 1 + delta, delta = 1 / (sqrt(t/s) - 1),
    as far from [0, 1] at one end as at the other.  ``s`` and ``t`` broadcast
    against each other, and each pair's nodes are summed along the last axis,
    so a pair gets the bits it gets alone; scalar arguments give a float.
    """
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    smallest = float(np.minimum(np.min(s), np.min(t)))
    if not smallest > 0:
        raise DomainError(f"integral kernel needs positive arguments; smallest is {smallest:.6g}")
    x, w = gauss_legendre_unit(DD_LOG_NODES)
    s, t = s[..., None], t[..., None]
    c = np.sqrt(s * t)
    cx = c * x
    return _per_matrix(np.sum(w * c / (((1.0 - x) * s + cx) * ((1.0 - x) * t + cx)), axis=-1))


# Node counts the resolvent rule rounds up to: 8 * 2**(k/2), so that a run
# memoizes a handful of rules whatever spectra it draws.
RESOLVENT_NODES = tuple(math.ceil(8 * 2 ** (k / 2)) for k in range(17))


def resolvent_nodes(smallest: float, largest: float) -> int:
    """Gauss-Legendre node count of :func:`log_quad_form_quadrature` for a
    spectrum in [smallest, largest], both positive.

    After the centred substitution the integrand's poles lie at u = -delta
    and u = 1 + delta, delta = 1 / (sqrt(kappa) - 1) for kappa = largest /
    smallest, so it is analytic inside the Bernstein ellipse of [0, 1] with
    log rho = 2 atanh(kappa**-0.25), and an n-node rule errs by about
    rho**(-2n).  The count is 1.25 times the n of rho**(-2n) = 1e-16, rounded
    up the ladder :data:`RESOLVENT_NODES`.  Above its last rung (kappa beyond
    about 1e9) this raises ``NumericError``: the rule would not be accurate,
    and a gap it reported would be false.
    """
    # kappa**-0.25 through logarithms, which neither overflow nor underflow.
    q = math.exp(0.25 * (math.log(smallest) - math.log(largest)))
    needed = 0.0 if q >= 1.0 else 1.25 * math.log(1e16) / (4.0 * math.atanh(q))
    for nodes in RESOLVENT_NODES:
        if nodes >= needed:
            return nodes
    raise NumericError(
        f"resolvent quadrature needs {math.ceil(needed)} nodes at condition number "
        f"{largest / smallest:.3g}; at most {RESOLVENT_NODES[-1]} are allowed"
    )


def log_quad_form_quadrature(a, h) -> float:
    """Resolvent integral form of the log-kernel curvature form.

    Evaluates integral_0^inf tr[h (a + l)^-1 h (a + l)^-1] dl by
    Gauss-Legendre after the substitution l = c u / (1 - u), centred at the
    geometric mean c = sqrt(lo hi) of the extreme eigenvalues lo, hi of
    ``a``: the integral becomes c integral_0^1 tr[h K_u^-1 h K_u^-1] du with
    K_u = (1 - u) a + c u I, whose poles sit symmetrically about [0, 1].  The
    node count comes from the condition number hi / lo
    (:func:`resolvent_nodes`), which raises ``NumericError`` before any
    pencil is built when no allowed count is accurate.  The eigenvalues only
    place the nodes; the integrand comes from batched linear solves alone, so
    this route stays independent of the eigendecomposition it checks.
    """
    a = check_hermitian(a, "base point")
    if a.ndim != 2:
        raise DomainError(f"base point must be a single matrix, got shape {a.shape}")
    h = check_hermitian(h, "direction")
    if h.shape != a.shape:
        raise DomainError(f"direction shape {h.shape} does not match base point {a.shape}")
    spectrum = _eigvalsh(a)
    check_positive(spectrum, "resolvent integral needs a positive definite base point")
    lo, hi = float(spectrum[0]), float(spectrum[-1])
    x, w = gauss_legendre_unit(resolvent_nodes(lo, hi))
    c = math.sqrt(lo) * math.sqrt(hi)
    pencil = (1.0 - x)[:, None, None] * a
    diagonal = np.arange(a.shape[0])
    pencil[:, diagonal, diagonal] += (c * x)[:, None]
    # solve broadcasts h over the nodes; the leading axis keeps numpy < 2 from
    # reading a 2-D right-hand side as a stack of vectors.
    solved = np.linalg.solve(pencil, h[None])
    values = np.einsum("nij,nji->n", solved, solved).real
    return c * float(np.sum(w * values))


def frechet_central_difference(func: ScalarFunction, a, h, step: float = 1e-5) -> np.ndarray:
    """Central difference (f(a + step*h) - f(a - step*h)) / (2*step)."""
    if not step > 0:
        raise DomainError(f"step must be positive, got {step}")
    plus = matrix_function(func, a + step * h)
    minus = matrix_function(func, a - step * h)
    return (plus - minus) / (2.0 * step)
