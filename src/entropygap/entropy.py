"""Entropy-like functionals on bipartite spaces.

The central object is the gap functional

    G(rho) = tr f(d2 * rho) / d2 - tr f(tr_2 rho)

for a scalar function ``f`` on (0, inf).  Its second differential along a
Hermitian direction ``h`` has the closed spectral form

    d2 * Q(d2 * rho, h) - Q(tr_2 rho, tr_2 h),

where Q is the curvature form of ``f`` (:func:`entropygap.calculus.quad_form`),
and can independently be recomputed by a second difference quotient of G.

The spectral functionals take one state or a stack of them, shape
``(..., n, n)``, and return a float for one state, else one value per state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bipartite import BipartiteSpace, partial_trace_2
from .calculus import ScalarFunction, _curvature, _quad_form
from .errors import DomainError
from .linalg import _eigvalsh, _per_matrix, check_hermitian, check_positive, eigh


@dataclass(frozen=True)
class EntropyGapSpec:
    """A gap functional: scalar function plus the bipartite split."""

    function: ScalarFunction
    space: BipartiteSpace


def von_neumann_entropy(rho) -> float | np.ndarray:
    """Spectral entropy ``-sum_i lam_i log lam_i`` of a positive definite matrix."""
    vals = eigh(rho).eigenvalues
    check_positive(vals, "entropy needs a positive definite argument")
    return _per_matrix(-np.sum(vals * np.log(vals), axis=-1))


def entropy_gap(rho, spec: EntropyGapSpec) -> float | np.ndarray:
    """Evaluate ``tr f(d2 * rho) / d2 - tr f(tr_2 rho)``.

    Both traces are taken over the spectrum directly, ``sum_i f(lam_i)``,
    which is cheaper and better conditioned than tracing a reconstructed
    matrix; the first term uses the exact spectral mapping
    ``eig(d2 * rho) = d2 * eig(rho)``.
    """
    rho = check_hermitian(rho, "state")
    space = spec.space
    if rho.shape[-2:] != (space.dim, space.dim):
        raise DomainError(f"state must have shape ({space.dim}, {space.dim}), got {rho.shape}")
    vals = _eigvalsh(rho)
    check_positive(vals, "state must be positive definite")
    marginal_vals = _eigvalsh(partial_trace_2(rho, space))
    check_positive(marginal_vals, "partial trace of the state must be positive definite")
    f, d2 = spec.function.f, space.d2
    return _per_matrix(np.sum(f(d2 * vals), axis=-1) / d2 - np.sum(f(marginal_vals), axis=-1))


def second_differential_spectral(rho, h, spec: EntropyGapSpec) -> float | np.ndarray:
    """Second differential of the gap along ``h``, by the spectral formula.

    Returns ``d2 * Q(d2 * rho, h) - Q(tr_2 rho, tr_2 h)`` with Q the
    curvature form of ``spec.function``.
    """
    rho = check_hermitian(rho, "state")
    h = check_hermitian(h, "direction")
    space = spec.space
    if rho.shape[-2:] != (space.dim, space.dim) or h.shape != rho.shape:
        raise DomainError("state and direction must both live on the composite space")
    d2 = space.d2
    func = spec.function
    composite = d2 * _quad_form(*_curvature(func, d2 * rho), h)
    marginal = _quad_form(*_curvature(func, partial_trace_2(rho, space)), partial_trace_2(h, space))
    return _per_matrix(composite - marginal)


def second_differential_fd(rho, h, spec: EntropyGapSpec, step: float) -> float:
    """Second difference quotient ``(G(rho+s*h) - 2 G(rho) + G(rho-s*h)) / s**2``."""
    if not step > 0:
        raise DomainError(f"step must be positive, got {step}")
    rho = check_hermitian(rho, "state")
    if rho.ndim != 2:
        raise DomainError(f"state must be a single matrix, got shape {rho.shape}")
    h = check_hermitian(h, "direction")
    for sign, label in ((1.0, "plus"), (-1.0, "minus")):
        shifted = rho + sign * step * h
        smallest = float(_eigvalsh(shifted).min())
        if smallest <= 0:
            raise DomainError(
                f"state {label} step*direction leaves the positive definite cone "
                f"(smallest eigenvalue {smallest:.6g}); reduce the step from {step:g}"
            )
    plus = entropy_gap(rho + step * h, spec)
    center = entropy_gap(rho, spec)
    minus = entropy_gap(rho - step * h, spec)
    return float((plus - 2.0 * center + minus) / step**2)


def second_differential_fd_auto(rho, h, spec: EntropyGapSpec,
                                step: float = 1e-4, max_halvings: int = 10) -> float:
    """Like :func:`second_differential_fd`, halving the step when the
    perturbed state leaves the positive definite cone (at most
    ``max_halvings`` times)."""
    current = step
    for _ in range(max_halvings + 1):
        try:
            return second_differential_fd(rho, h, spec, current)
        except DomainError:
            current /= 2.0
    raise DomainError(
        f"perturbed state stayed outside the positive definite cone after "
        f"{max_halvings} halvings from step {step:g}"
    )
