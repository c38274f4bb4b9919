"""Independent reference routes for the spectral calculus.

Gauss-Legendre quadrature evaluates the integral forms of the logarithmic
kernels, and central finite differences recompute Frechet derivatives from
matrix-function values alone.  None of these touch the divided-difference
path they are used to check.

Both quadratures integrate over l in [0, inf) after the substitution
l = c u / (1 - u), with c the geometric mean of the two scalars or of the
extreme eigenvalues.  That centring puts the integrand's poles symmetrically
about [0, 1], at a distance set by the condition number, which in turn sets
the node count both rules need (Trefethen, "Is Gauss quadrature better than
Clenshaw-Curtis?", SIAM Rev. 2008): :func:`resolvent_nodes`, from an error
constant fitted against 40-digit arithmetic.  Past the count, what limits
either rule is the error of numpy's ``leggauss`` nodes and weights, which
grows with the count: about 3e-13 relative at a condition number of 1e4 and
2e-9 at 1e9.
"""

from __future__ import annotations

import math

import numpy as np

from .calculus import ScalarFunction, matrix_function
from .errors import DomainError, NumericError
from .linalg import CHUNK_BYTES, _eigvalsh, _per_matrix, check_hermitian, check_positive


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
    (log t - log s) / (t - s) for positive s, t, by Gauss-Legendre after the
    substitution l = c u / (1 - u) centred at c = sqrt(s t): the integrand
    c / (((1 - u) s + c u)((1 - u) t + c u)) has its poles at u = -delta and
    u = 1 + delta, delta = 1 / (sqrt(t/s) - 1), as far from [0, 1] at one
    end as at the other.  It is the resolvent integrand of the spectrum
    {s, t}, so each pair takes :func:`resolvent_nodes` of its ratio, and a
    ratio beyond about 1e9 raises ``NumericError``.  ``s`` and ``t``
    broadcast against each other; the pairs that take the same count are
    evaluated together, each pair's nodes summed along the last axis, so a
    pair gets the bits it gets alone; scalar arguments give a float.  An
    argument outside (0, inf) raises ``DomainError``.
    """
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    for arg in (s, t):
        check_positive(arg, "integral kernel needs positive finite arguments", "argument")
    lo, hi = np.minimum(s, t), np.maximum(s, t)
    nodes = _node_counts(lo, hi)
    lo, hi, values = lo[..., None], hi[..., None], np.empty(nodes.shape)
    for count in sorted(set(nodes.ravel().tolist())):
        x, w = gauss_legendre_unit(count)
        group = nodes == count
        s, t, y = lo[group], hi[group], 1.0 - x
        c = np.sqrt(s * t)
        cx = c * x
        values[group] = np.add.reduce(w * c / ((y * s + cx) * (y * t + cx)), axis=-1)
    return _per_matrix(values)


# Node counts the centred rules round up to: 8 * 2**(k/2), so that a run
# memoizes a handful of rules whatever spectra it draws.
RESOLVENT_NODES = tuple(math.ceil(8 * 2 ** (k / 2)) for k in range(17))
_RUNGS = np.array(RESOLVENT_NODES)
# C of the centred rule's relative truncation error C rho**(-2n), fitted
# against 40-digit arithmetic at condition numbers from 1 to 1e9, where it
# reaches 128.5 (tests/test_calculus.py); the count makes that error 1e-16.
RESOLVENT_ERROR_CONSTANT = 130.0
_LOG_TARGET = math.log(1e16 * RESOLVENT_ERROR_CONSTANT)
# The largest log kappa each rung serves: the n of C rho**(-2n) = 1e-16 is
# log(1e16 C) / (4 atanh(kappa**-0.25)), which is at most a rung's n up to
# kappa = tanh(log(1e16 C) / (4n))**-4.
_LOG_KAPPA_LIMITS = -4.0 * np.log(np.tanh(_LOG_TARGET / (4.0 * _RUNGS)))


def resolvent_nodes(smallest, largest) -> int | np.ndarray:
    """Gauss-Legendre node count of the centred rules for a spectrum in
    [smallest, largest], both positive and finite with smallest <= largest,
    else ``DomainError``.

    After the centred substitution the integrand's poles lie at u = -delta
    and u = 1 + delta, delta = 1 / (sqrt(kappa) - 1) for kappa = largest /
    smallest, so it is analytic inside the Bernstein ellipse of [0, 1] with
    log rho = 2 atanh(kappa**-0.25), and an n-node rule errs by about
    C rho**(-2n) relative, C = :data:`RESOLVENT_ERROR_CONSTANT`.  The count is
    the n of C rho**(-2n) = 1e-16, rounded up the ladder
    :data:`RESOLVENT_NODES`.  Above its last rung (kappa beyond about 1e9)
    this raises ``NumericError``: the rule would not be accurate, and a gap
    it reported would be false.  The bounds broadcast against each other,
    one count per pair; scalar bounds give an int.
    """
    smallest, largest = np.asarray(smallest, dtype=float), np.asarray(largest, dtype=float)
    for bound in (smallest, largest):
        check_positive(bound, "resolvent rule needs a positive finite spectrum", "bound")
    flipped = smallest > largest
    if flipped.any():
        below, above = (np.broadcast_to(bound, flipped.shape)[flipped][0] for bound in (smallest, largest))
        raise DomainError(f"resolvent rule needs smallest <= largest, got {below:.6g} > {above:.6g}")
    nodes = _node_counts(smallest, largest)
    return int(nodes) if nodes.ndim == 0 else nodes


def _node_counts(smallest, largest) -> np.ndarray:
    # The counts of resolvent_nodes for bounds already checked, through
    # logarithms, which neither overflow nor underflow.
    log_kappa = np.log(largest) - np.log(smallest)
    rungs = np.searchsorted(_LOG_KAPPA_LIMITS, log_kappa)  # the first rung that serves kappa
    if rungs.max() == len(_RUNGS):
        worst = np.argmax(log_kappa)
        needed = _LOG_TARGET / (4.0 * np.arctanh(np.exp(-0.25 * log_kappa.flat[worst])))
        raise NumericError(
            f"resolvent quadrature needs {math.ceil(needed)} nodes at condition number "
            f"{(largest / smallest).flat[worst]:.3g}; at most {RESOLVENT_NODES[-1]} are allowed"
        )
    return _RUNGS[rungs]


def log_quad_form_quadrature(a, h) -> float | np.ndarray:
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

    Takes one matrix or a stack of them, shape ``(..., n, n)``, with ``h`` of
    the same shape, and returns one value per matrix: a float for a single
    matrix.  The matrices whose spectra take the same node count are solved
    together, in stacks of at most about :data:`CHUNK_BYTES` of pencils, and
    each matrix gets the bits it gets alone.
    """
    a = check_hermitian(a, "base point")
    h = check_hermitian(h, "direction")
    if h.shape != a.shape:
        raise DomainError(f"direction shape {h.shape} does not match base point {a.shape}")
    shape, n = a.shape[:-2], a.shape[-1]
    a, h = a.reshape(-1, n, n), h.reshape(-1, n, n)
    spectrum = _eigvalsh(a)
    check_positive(spectrum, "resolvent integral needs a positive definite base point")
    lo, hi = spectrum[:, 0], spectrum[:, -1]
    nodes = _node_counts(lo, hi)  # of a spectrum checked above, in ascending order
    c = np.sqrt(lo) * np.sqrt(hi)
    values = np.empty(len(a))
    for count in sorted(set(nodes.tolist())):
        x, w = gauss_legendre_unit(count)
        group = np.flatnonzero(nodes == count)
        size = max(1, CHUNK_BYTES // (16 * n * n * count))
        for first in range(0, len(group), size):
            part = group[first:first + size]
            pencil = (1.0 - x)[:, None, None] * a[part, None]
            # The diagonal, a stride n + 1 view of each pencil's entries.
            pencil.reshape(len(part), count, n * n)[..., ::n + 1] += (c[part, None] * x)[..., None]
            # solve broadcasts h over the nodes; the node axis keeps numpy < 2
            # from reading a right-hand side as a stack of vectors.
            solved = np.linalg.solve(pencil, h[part, None]).reshape(-1, n, n)
            traces = np.einsum("nij,nji->n", solved, solved).real.reshape(len(part), -1)
            values[part] = c[part] * np.sum(w * traces, axis=-1)
    return _per_matrix(values.reshape(shape))


def frechet_central_difference(func: ScalarFunction, a, h, step: float = 1e-5) -> np.ndarray:
    """Central difference (f(a + step*h) - f(a - step*h)) / (2*step)."""
    if not step > 0:
        raise DomainError(f"step must be positive, got {step}")
    plus = matrix_function(func, a + step * h)
    minus = matrix_function(func, a - step * h)
    return (plus - minus) / (2.0 * step)
