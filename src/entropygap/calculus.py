"""Spectral functional calculus: matrix functions, first divided differences,
Frechet derivatives, and the curvature quadratic form.

For Hermitian ``a = U diag(lam) U^H`` and a scalar function ``g``, the first
Frechet derivative acts as a Schur multiplier in the eigenbasis,

    Dg(a)[h] = U (K o (U^H h U)) U^H,    K[i, j] = g^[1](lam_i, lam_j),

where ``g^[1](s, t) = (g(t) - g(s)) / (t - s)`` is the first divided
difference with confluent value ``g'(t)``.  The quadratic form
``tr h^H Dg'(a)[h]`` built from the same kernel for ``g = f'`` is the
curvature form whose convexity and monotonicity the campaigns certify.

Each built-in function carries ``dd`` and ``dd1``, the divided differences of
``f`` and ``f'``, as closed forms free of cancellation.  On the ordered pair
``lo <= hi``, with ``d = hi - lo`` and ``u = d / lo``, they are
``log1p(u) / d`` for log (and for ``f'`` of t log t), ``hi log1p(u) / d +
log lo`` for t log t, ``-1 / (lo hi)`` for ``f'`` of log, polynomials for t,
t**2 and t**3, and for t**q ``lo**q expm1(q log1p(u)) / d`` up to ``hi = 2 lo``
and the plain quotient beyond (Higham, Functions of Matrices, sec. 4.6;
Higham and Lin, SIMAX 2011).  Where ``hi**q`` is no normal float, or t log
t's form overflows at tiny pairs, the kernel comes from its value at
``(lo / hi, 1)`` by homogeneity.  A quotient by ``d`` takes its confluent value
where ``s == t`` exactly and nowhere else.  Against 50-digit arithmetic the
error is at most 3.8e-16 relative at gaps from 0 to 1e10 (absolute near the
zero of t log t's kernel at 1/e), and C8's largest gap at 1x1-8x8, seeds 42
and 7, is 4.2e-15.  The ordered pair makes every kernel symmetric bitwise.

:func:`divided_difference` selects a kernel; :func:`loewner` applies it to the
pairs of a spectrum, and campaign C8 checks it on scalar pairs, so C8 checks
the code every kernel comes from.

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
    _check_pair,
    _eigh,
    _per_matrix,
    _schur,
    check_positive,
    eigh,
    hermitize,
)


@dataclass(frozen=True)
class ScalarFunction:
    """A named scalar function on (0, inf) with its two divided differences.

    ``f`` acts elementwise on arrays.  ``dd`` and ``dd1`` are the first
    divided differences of ``f`` and of ``f'``, on broadcasting arrays
    ``lo <= hi`` of positive values, so ``dd(t, t)`` is ``f'(t)`` and
    ``dd1(t, t)`` is ``f''(t)``.
    """

    name: str
    f: Callable
    dd: Callable
    dd1: Callable


_TINY = np.finfo(float).tiny


def _over(numerator, d, confluent):
    # numerator / d, and the confluent value where d == 0, that is, s == t.
    return np.divide(numerator, d, out=np.array(confluent, dtype=float), where=d != 0)


def _constant(c: float) -> Callable:
    return lambda lo, hi: np.full(np.broadcast(lo, hi).shape, c)


def _log_dd(lo, hi):
    # (log hi - log lo) / (hi - lo), without the difference of logarithms
    # where it would cancel.  Where d / lo overflows, hi / lo is beyond the
    # float range and the difference cannot cancel, so it is taken there; 1 / lo
    # overflows only at a subnormal lo, and its value is read only where s == t.
    d = hi - lo
    with np.errstate(over="ignore"):
        u = d / lo
        value = _over(np.log1p(u), d, 1.0 / lo)
        far = np.isinf(u)
        if far.any():
            np.divide(np.log(hi) - np.log(lo), d, out=value, where=far)
    return value


def _power_dd(q: float) -> Callable:
    # Divided difference of t**q: the expm1 form up to hi = 2 lo, where the
    # plain quotient would cancel, and the plain quotient beyond, where it
    # cannot and expm1's argument, so its rounding, grows with the gap.
    def quotient(lo, hi, hi_q):
        d = hi - lo
        lo_q = np.power(lo, q)
        near = lo_q * np.expm1(q * np.log1p(np.minimum(d, lo) / lo))  # d <= lo where read
        return _over(np.where(hi <= 2.0 * lo, near, hi_q - lo_q), d, q * lo_q / lo)

    def dd(lo, hi):
        # Where hi**q is no normal float (above 1.3e154 or below 1.5e-154 at
        # q = 2, where the quotient is infinite or loses digits) or the
        # quotient is not finite (q lo**(q - 1) overflows at a subnormal lo
        # for q near 0), t**q being homogeneous, the kernel is hi**(q - 1)
        # times its value at (lo / hi, 1), with lo / hi kept at least the
        # smallest normal float, below which its q-th power is lost.
        with np.errstate(over="ignore", invalid="ignore"):
            hi_q = np.power(hi, q)
            value = quotient(lo, hi, hi_q)
            rescue = ~np.isfinite(value) | (hi_q < _TINY)
            if rescue.any():
                scaled = quotient(np.maximum(lo / hi, _TINY), 1.0, 1.0)
                value = np.where(rescue, np.power(hi, q - 1.0) * scaled, value)
        return value
    return dd


def _t_log_t_dd(lo, hi):
    # hi times the log kernel plus log lo.  Where that overflows with the log
    # kernel, at pairs below about 1e-306, it is taken at (lo / hi, 1) plus
    # log hi, t log t's homogeneity (1 + log lo at s == t).
    value = hi * _log_dd(lo, hi) + np.log(lo)
    over = np.isinf(value)
    if over.any():
        ratio = lo / hi
        value = np.where(over, (_log_dd(ratio, 1.0) + np.log(ratio)) + np.log(hi), value)
    return value


def _log_dd1(lo, hi):
    # -1 / (lo hi).  Where the product overflows, hi is above 1.3e154 and lo
    # above 1, so it is taken in two divisions, (-1 / hi) / lo, neither of
    # which overflows.
    with np.errstate(over="ignore"):
        product = lo * hi
    return np.where(np.isinf(product), -1.0 / hi / lo, -1.0 / product)


T_LOG_T = ScalarFunction("t_log_t", f=lambda t: t * np.log(t), dd=_t_log_t_dd, dd1=_log_dd)

LOG = ScalarFunction("log", f=np.log, dd=_log_dd, dd1=_log_dd1)

IDENTITY = ScalarFunction("identity", f=lambda t: np.asarray(t, dtype=float) * 1.0,
                          dd=_constant(1.0), dd1=_constant(0.0))

SQUARE = ScalarFunction("square", f=lambda t: np.asarray(t, dtype=float) ** 2,
                        dd=lambda lo, hi: lo + hi, dd1=_constant(2.0))

# Cubic power; its curvature form is not jointly convex, so it serves the
# falsification campaign only.
CUBE = ScalarFunction("cube", f=lambda t: np.asarray(t, dtype=float) ** 3,
                      dd=lambda lo, hi: lo * lo + lo * hi + hi * hi,
                      dd1=lambda lo, hi: 3.0 * (lo + hi))


@lru_cache
def power(p: float) -> ScalarFunction:
    """The power function ``t -> t**p`` for an exponent in [1, 2]; cached by ``p``."""
    p = float(p)
    if not 1.0 <= p <= 2.0:
        raise DomainError(f"power exponent must lie in [1, 2], got {p}")
    dd1 = _power_dd(p - 1.0)
    return ScalarFunction(
        f"power({p:g})",
        f=lambda t: np.power(t, p),
        dd=_power_dd(p),
        dd1=lambda lo, hi: p * dd1(lo, hi),
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


def divided_difference(func: ScalarFunction, which: str, s, t) -> float | np.ndarray:
    """First divided difference of ``func.f`` (``which="f"``) or of its
    derivative (``which="f1"``) at ``(s, t)`` on (0, inf).

    ``s`` and ``t`` broadcast against each other; scalar arguments give a
    float, and an argument outside (0, inf) raises ``DomainError``.  The
    kernel is evaluated on the ordered pair, so the value is symmetric in
    ``s`` and ``t`` bitwise.
    """
    if which not in ("f", "f1"):
        raise DomainError(f"which must be 'f' or 'f1', got {which!r}")
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    for arg in (s, t):
        check_positive(arg, "divided difference needs positive finite arguments", "argument")
    return _per_matrix((func.dd if which == "f" else func.dd1)(np.minimum(s, t), np.maximum(s, t)))


def loewner(func: ScalarFunction, which: str, eigenvalues) -> np.ndarray:
    """Divided-difference kernel of ``f`` or ``f'`` on a spectrum.

    K[i, j] is the divided difference at (lam_i, lam_j); the diagonal carries
    the derivative values.  A stacked spectrum gives a stack of kernels.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    return divided_difference(func, which, lam[..., None, :], lam[..., :, None])


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
    a, h = _check_pair(a, h)
    dec = _eigh(a)
    return hermitize(_schur(loewner(func, which, dec.eigenvalues), dec.basis, h))


def quad_form(func: ScalarFunction, a, h) -> float | np.ndarray:
    """Curvature form ``tr h^H Df'(a)[h]`` as a weighted sum of |entries|^2.

    In the eigenbasis of ``a`` this is sum_ij |h~[i, j]|^2 K[i, j] with K the
    divided-difference kernel of ``f'``; the value is real by construction.
    """
    a, h = _check_pair(a, h)
    return _per_matrix(_quad_form(*_curvature(func, a), h))


def _curvature(func: ScalarFunction, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The curvature operator L_a = Df'(a) of f at stored-Hermitian ``a`` (each
    # matrix of a stack): the Loewner kernel of f' and the eigenbasis of ``a``,
    # L_a h being _schur(kernel, basis, h).
    dec = _eigh(a)
    return loewner(func, "f1", dec.eigenvalues), dec.basis


def _quad_form(kernel: np.ndarray, basis: np.ndarray, h: np.ndarray) -> np.ndarray:
    # tr h^H L h for the curvature operator L given by _curvature, without
    # checks of ``h``; one value per matrix.
    rotated = _adjoint(basis) @ h @ basis
    weights = rotated.real**2 + rotated.imag**2
    return np.sum(weights * kernel, axis=(-2, -1))
