"""Entropy-like functionals on bipartite spaces.

The central object is the gap functional

    G(rho) = tr f(d2 * rho) / d2 - tr f(tr_2 rho)

for a scalar function ``f`` on (0, inf).  Its second differential along a
Hermitian direction ``h`` has the closed spectral form

    d2 * Q(d2 * rho, h) - Q(tr_2 rho, tr_2 h),

where Q is the curvature form of ``f`` (:func:`entropygap.calculus.quad_form`).
The tests recompute it independently, by a second difference quotient of G
(``second_differential_fd`` in ``tests/references.py``).

The spectral functionals take one state or a stack of them, shape
``(..., n, n)``, and return a float for one state, else one value per state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bipartite import BipartiteSpace, partial_trace_2
from .calculus import ScalarFunction, _curvature, _quad_form
from .linalg import _as_square, _check_pair, _per_matrix, _positive_eigenvalues, check_hermitian


@dataclass(frozen=True)
class EntropyGapSpec:
    """A gap functional: scalar function plus the bipartite split."""

    function: ScalarFunction
    space: BipartiteSpace


def von_neumann_entropy(rho) -> float | np.ndarray:
    """Spectral entropy ``-sum_i lam_i log lam_i`` of a positive definite matrix."""
    vals = _positive_eigenvalues(check_hermitian(rho), "entropy needs a positive definite argument")
    return _per_matrix(-np.sum(vals * np.log(vals), axis=-1))


def _gap_and_scale(rho, spec: EntropyGapSpec) -> tuple[np.ndarray, np.ndarray]:
    # The gap of each state, and the sum of the magnitudes of its terms.
    space, f = spec.space, spec.function.f
    rho = check_hermitian(_as_square(rho, "state", space.dim), "state")
    vals = _positive_eigenvalues(rho, "state must be positive definite")
    marginal_vals = _positive_eigenvalues(partial_trace_2(rho, space),
                                          "partial trace of the state must be positive definite")
    composite, marginal = f(space.d2 * vals), f(marginal_vals)
    return (np.sum(composite, axis=-1) / space.d2 - np.sum(marginal, axis=-1),
            np.sum(np.abs(composite), axis=-1) / space.d2 + np.sum(np.abs(marginal), axis=-1))


def entropy_gap(rho, spec: EntropyGapSpec) -> float | np.ndarray:
    """Evaluate ``tr f(d2 * rho) / d2 - tr f(tr_2 rho)``.

    Both traces are taken over the spectrum directly, ``sum_i f(lam_i)``,
    which is cheaper and better conditioned than tracing a reconstructed
    matrix; the first term uses the exact spectral mapping
    ``eig(d2 * rho) = d2 * eig(rho)``.
    """
    return _per_matrix(_gap_and_scale(rho, spec)[0])


def _second_differential_terms(rho, h, spec: EntropyGapSpec) -> tuple[np.ndarray, np.ndarray]:
    # d2 * Q(d2 * rho, h) and Q(tr_2 rho, tr_2 h), per state.
    space, func = spec.space, spec.function
    rho, h = _check_pair(rho, h, "state", space.dim)
    return (space.d2 * _quad_form(*_curvature(func, space.d2 * rho), h),
            _quad_form(*_curvature(func, partial_trace_2(rho, space)), partial_trace_2(h, space)))


def second_differential_spectral(rho, h, spec: EntropyGapSpec) -> float | np.ndarray:
    """Second differential of the gap along ``h``, by the spectral formula.

    Returns ``d2 * Q(d2 * rho, h) - Q(tr_2 rho, tr_2 h)`` with Q the
    curvature form of ``spec.function``.
    """
    return _per_matrix(np.subtract(*_second_differential_terms(rho, h, spec)))
