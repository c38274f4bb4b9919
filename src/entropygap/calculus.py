"""Spectral functional calculus: matrix functions, first divided differences,
Frechet derivatives, and the curvature quadratic form.

For Hermitian ``a = U diag(lam) U^H`` and a scalar function ``g``, the first
Frechet derivative acts as a Schur multiplier in the eigenbasis,

    Dg(a)[h] = U (K o (U^H h U)) U^H,    K[i, j] = g^[1](lam_i, lam_j),

where ``g^[1](s, t) = (g(t) - g(s)) / (t - s)`` is the first divided
difference with confluent value ``g'(t)``.  The quadratic form
``tr h^H Dg'(a)[h]`` built from the same kernel for ``g = f'`` is the
curvature form whose convexity and monotonicity the campaigns certify.

One broadcasting function, :func:`divided_difference`, holds this rule;
:func:`loewner` applies it to the pairs of a spectrum, and campaign C8 checks
it on scalar pairs, so C8 checks the code every kernel comes from.

The matrix routines take one matrix or a stack of them, shape ``(..., n, n)``,
and return one value per matrix: a float for a single matrix, else an array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError
from .linalg import (
    _adjoint,
    _eigh,
    _per_matrix,
    check_hermitian,
    check_positive,
    eigh,
    hermitize,
)

# Relative eigenvalue gap below which the difference quotient is replaced by
# the confluent derivative value.
CONFLUENT_THRESHOLD = 1e-7


@dataclass(frozen=True)
class ScalarFunction:
    """A named scalar function on (0, inf) with its first two derivatives.

    ``f``, ``f1`` and ``f2`` must accept numpy arrays elementwise.  The
    derivatives are supplied analytically; :meth:`check_derivatives` probes
    their consistency by central differences.
    """

    name: str
    f: Callable
    f1: Callable
    f2: Callable

    def check_derivatives(self, points=(0.5, 1.0, 2.0, 5.0), tol: float = 1e-6) -> None:
        """Raise if f1 or f2 disagrees with a central difference of its parent."""
        for t in points:
            h = 1e-6 * t
            pairs = ((float(self.f1(t)), self.f, "f1"), (float(self.f2(t)), self.f1, "f2"))
            for got, parent, label in pairs:
                approx = float(parent(t + h) - parent(t - h)) / (2.0 * h)
                if abs(got - approx) > tol * max(1.0, abs(approx)):
                    raise AssertionError(
                        f"{self.name}.{label}({t}) = {got!r} disagrees with the "
                        f"central difference {approx!r}"
                    )


def _one(t):
    return np.ones_like(np.asarray(t, dtype=float))


def _zero(t):
    return np.zeros_like(np.asarray(t, dtype=float))


T_LOG_T = ScalarFunction(
    "t_log_t",
    f=lambda t: t * np.log(t),
    f1=lambda t: np.log(t) + 1.0,
    f2=lambda t: 1.0 / np.asarray(t, dtype=float),
)

LOG = ScalarFunction(
    "log",
    f=np.log,
    f1=lambda t: 1.0 / np.asarray(t, dtype=float),
    f2=lambda t: -1.0 / np.asarray(t, dtype=float) ** 2,
)

IDENTITY = ScalarFunction(
    "identity",
    f=lambda t: np.asarray(t, dtype=float) * 1.0,
    f1=_one,
    f2=_zero,
)

SQUARE = ScalarFunction(
    "square",
    f=lambda t: np.asarray(t, dtype=float) ** 2,
    f1=lambda t: 2.0 * np.asarray(t, dtype=float),
    f2=lambda t: 2.0 * _one(t),
)

# Cubic power; its curvature form is not jointly convex, so it serves the
# falsification campaign only.
CUBE = ScalarFunction(
    "cube",
    f=lambda t: np.asarray(t, dtype=float) ** 3,
    f1=lambda t: 3.0 * np.asarray(t, dtype=float) ** 2,
    f2=lambda t: 6.0 * np.asarray(t, dtype=float),
)


@lru_cache
def power(p: float) -> ScalarFunction:
    """The power function ``t -> t**p`` for an exponent in [1, 2]; cached by ``p``."""
    p = float(p)
    if not 1.0 <= p <= 2.0:
        raise DomainError(f"power exponent must lie in [1, 2], got {p}")
    return ScalarFunction(
        f"power({p:g})",
        f=lambda t: np.power(t, p),
        f1=lambda t: p * np.power(t, p - 1.0),
        f2=lambda t: p * (p - 1.0) * np.power(t, p - 2.0),
    )


BUILTIN_NAMES = ("t_log_t", "power", "log", "identity", "square", "cube")

_FIXED_BUILTINS = {
    "t_log_t": T_LOG_T,
    "log": LOG,
    "identity": IDENTITY,
    "square": SQUARE,
    "cube": CUBE,
}


def by_name(name: str, p: float | None = None) -> ScalarFunction:
    """Look up a built-in scalar function; ``power`` needs the exponent ``p``."""
    if name == "power":
        if p is None:
            raise DomainError("function 'power' needs an exponent p")
        return power(p)
    try:
        return _FIXED_BUILTINS[name]
    except KeyError:
        raise DomainError(f"unknown scalar function {name!r}; choose from {BUILTIN_NAMES}") from None


def divided_difference(g, dg, s, t) -> float | np.ndarray:
    """First divided difference ``(g(t) - g(s)) / (t - s)`` on (0, inf).

    ``s`` and ``t`` broadcast against each other; scalar arguments give a
    float.  Where the relative gap ``|t - s| / max(s, t)`` is at most
    :data:`CONFLUENT_THRESHOLD` the quotient would lose precision to
    cancellation, so the confluent value ``dg((s + t) / 2)`` is used instead.
    The value is symmetric in ``s`` and ``t``: ``(-x)/(-y) == x/y`` bitwise,
    except for the sign of a zero quotient.
    """
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    smallest = float(np.minimum(np.min(s), np.min(t)))
    if not smallest > 0:
        raise DomainError(f"divided difference needs positive arguments; smallest is {smallest:.6g}")
    diff = t - s
    near = np.abs(diff) <= CONFLUENT_THRESHOLD * np.maximum(s, t)
    quotient = (g(t) - g(s)) / np.where(near, 1.0, diff)
    return _per_matrix(np.where(near, dg((s + t) / 2.0), quotient))


def loewner(func: ScalarFunction, which: str, eigenvalues) -> np.ndarray:
    """Divided-difference kernel of ``func.f`` or ``func.f1`` on a spectrum.

    K[i, j] is the divided difference at (lam_i, lam_j); the diagonal carries
    the derivative values.  A stacked spectrum gives a stack of kernels.
    """
    if which not in ("f", "f1"):
        raise DomainError(f"which must be 'f' or 'f1', got {which!r}")
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.size == 0:
        raise DomainError("empty spectrum")
    g, dg = (func.f, func.f1) if which == "f" else (func.f1, func.f2)
    return divided_difference(g, dg, lam[..., None, :], lam[..., :, None])


def matrix_function(func: ScalarFunction, a) -> np.ndarray:
    """Evaluate ``U diag(f(lam)) U^H`` for positive definite ``a``."""
    vals, vecs = eigh(a)
    check_positive(vals, f"matrix function {func.name} needs a positive definite argument")
    return hermitize((vecs * func.f(vals)[..., None, :]) @ _adjoint(vecs))


def frechet_derivative(func: ScalarFunction, which: str, a, h) -> np.ndarray:
    """Frechet derivative of the matrix function along a Hermitian direction.

    Computed as the Schur product of the divided-difference kernel with the
    direction rotated into the eigenbasis of ``a``.
    """
    dec = eigh(a)
    h = check_hermitian(h, "direction")
    if h.shape != dec.basis.shape:
        raise DomainError(f"direction shape {h.shape} does not match base point")
    kernel = loewner(func, which, dec.eigenvalues)
    u = dec.basis
    rotated = _adjoint(u) @ h @ u
    return hermitize(u @ (kernel * rotated) @ _adjoint(u))


def quad_form(func: ScalarFunction, a, h) -> float | np.ndarray:
    """Curvature form ``tr h^H Df'(a)[h]`` as a weighted sum of |entries|^2.

    In the eigenbasis of ``a`` this is sum_ij |h~[i, j]|^2 K[i, j] with K the
    divided-difference kernel of ``f'``; the value is real by construction.
    """
    a = check_hermitian(a)
    h = check_hermitian(h, "direction")
    if h.shape != a.shape:
        raise DomainError(f"direction shape {h.shape} does not match base point")
    return _per_matrix(_quad_form(func, a, h))


def _quad_form(func: ScalarFunction, a: np.ndarray, h: np.ndarray) -> np.ndarray:
    # quad_form without the checks of its arguments, for stored-Hermitian
    # inputs of equal shape; one value per matrix.
    dec = _eigh(a)
    kernel = loewner(func, "f1", dec.eigenvalues)
    rotated = _adjoint(dec.basis) @ h @ dec.basis
    weights = rotated.real**2 + rotated.imag**2
    return np.sum(weights * kernel, axis=(-2, -1))
