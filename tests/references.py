"""Finite-difference references for the spectral calculus.

Both routes recompute a derivative from function values alone, so they share
nothing with the divided-difference path they check: the central difference
of :func:`entropygap.matrix_function` for the Frechet derivative, and the
second difference quotient of :func:`entropygap.entropy_gap` for the gap's
second differential.  Their inputs go through the package's own checks, so a
bad input gets the package's message.
"""

from __future__ import annotations

from contextlib import suppress

import numpy as np

from entropygap import DomainError, EntropyGapSpec, ScalarFunction, entropy_gap, matrix_function
from entropygap.linalg import _check_pair, _positive_eigenvalues, check_positive


def frechet_central_difference(func: ScalarFunction, a, h, step: float = 1e-5) -> np.ndarray:
    """Central difference (f(a + step*h) - f(a - step*h)) / (2*step)."""
    check_positive(step, "finite difference needs a positive finite step", "step")
    a, h = _check_pair(a, h)
    plus = matrix_function(func, a + step * h)
    minus = matrix_function(func, a - step * h)
    return (plus - minus) / (2.0 * step)


def _check_fd(rho, h, spec: EntropyGapSpec, step: float) -> tuple[np.ndarray, np.ndarray]:
    # The one check of the fd references' single state, its direction and the step.
    check_positive(step, "finite difference needs a positive finite step", "step")
    rho, h = _check_pair(rho, h, "state", spec.space.dim)
    if rho.ndim != 2:
        raise DomainError(f"state must be a single matrix, got shape {rho.shape}")
    return rho, h


def _fd_quotient(rho: np.ndarray, h: np.ndarray, spec: EntropyGapSpec, step: float) -> float:
    # The quotient of second_differential_fd for inputs checked by _check_fd.
    # The gaps take the states' eigenvalues; only when they fail is the cone
    # probed, for its message, so a DomainError that names the step means
    # that rho + step*h or rho - step*h leaves the cone.
    states = np.stack([rho + step * h, rho, rho - step * h])
    try:
        plus, center, minus = entropy_gap(states, spec)
    except DomainError:
        _positive_eigenvalues(states[::2],
                              f"state +- step*direction leaves the positive definite cone at step {step:g}")
        raise
    return float((plus - 2.0 * center + minus) / step**2)


def second_differential_fd(rho, h, spec: EntropyGapSpec, step: float) -> float:
    """Second difference quotient ``(G(rho+s*h) - 2 G(rho) + G(rho-s*h)) / s**2``."""
    return _fd_quotient(*_check_fd(rho, h, spec, step), spec, step)


def second_differential_fd_auto(rho, h, spec: EntropyGapSpec,
                                step: float = 1e-4, max_halvings: int = 10) -> float:
    """Like :func:`second_differential_fd`, halving the step when the
    perturbed state leaves the positive definite cone (at most
    ``max_halvings`` times).  Invalid input raises its ``DomainError`` at
    once, before any step is tried."""
    rho, h = _check_fd(rho, h, spec, step)
    for halvings in range(max_halvings + 1):
        with suppress(DomainError):  # the quotient's only DomainError: the cone
            return _fd_quotient(rho, h, spec, step / 2.0**halvings)
    raise DomainError(
        f"perturbed state stayed outside the positive definite cone after "
        f"{max_halvings} halvings from step {step:g}"
    )
