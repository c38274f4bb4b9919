"""Bipartite tensor spaces: partial traces, embeddings, the conditional
expectation onto the first factor, and averaging channels, each stored by its
structure (a pinching as a frame and block labels).

A composite space H1 (x) H2 with dimensions (d1, d2) uses row-major
composite indices (a, i) -> a * d2 + i throughout, matching ``kron``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

from .linalg import (
    MAX_DIM,
    RngStream,
    _adjoint,
    hermitize,
    random_unitary,
)

# Largest block count that random_pinching draws.
MAX_PINCHING_BLOCKS = 8


@dataclass(frozen=True)
class BipartiteSpace:
    """Dimensions (d1, d2) of a two-factor tensor space."""

    d1: int
    d2: int

    def __post_init__(self):
        if self.d1 < 1 or self.d2 < 1:
            raise DomainError(f"factor dimensions must be positive, got ({self.d1}, {self.d2})")
        if self.d1 * self.d2 > MAX_DIM:
            raise DomainError(
                f"composite dimension {self.d1 * self.d2} exceeds the supported maximum {MAX_DIM}"
            )

    @property
    def dim(self) -> int:
        return self.d1 * self.d2


def _check_dim(x, dim: int, name: str = "matrix") -> np.ndarray:
    # One matrix or a stack of them, shape (..., dim, dim).
    x = np.asarray(x, dtype=complex)
    if x.ndim < 2 or x.shape[-2:] != (dim, dim):
        raise DomainError(f"{name} must have shape ({dim}, {dim}), got {x.shape}")
    return x


def _blocks(x, space: BipartiteSpace) -> np.ndarray:
    # Each composite index split into its factors.
    x = _check_dim(x, space.dim)
    return x.reshape(x.shape[:-2] + (space.d1, space.d2, space.d1, space.d2))


def partial_trace_2(x, space: BipartiteSpace) -> np.ndarray:
    """Trace out the second factor: out[a, b] = sum_j x[(a, j), (b, j)].

    Takes one matrix or a stack of them, shape ``(..., dim, dim)``.
    """
    return np.einsum("...ajbj->...ab", _blocks(x, space))


def partial_trace_1(x, space: BipartiteSpace) -> np.ndarray:
    """Trace out the first factor: out[i, j] = sum_a x[(a, i), (a, j)].

    Takes one matrix or a stack of them, shape ``(..., dim, dim)``.
    """
    return np.einsum("...aiaj->...ij", _blocks(x, space))


def embed_1(a, space: BipartiteSpace) -> np.ndarray:
    """Embed a first-factor operator as ``a (x) I`` on the composite space.

    Takes one operator or a stack of them, shape ``(..., d1, d1)``.
    """
    a = _check_dim(a, space.d1, "first-factor operator")
    out = a[..., :, None, :, None] * np.eye(space.d2)[:, None, :]
    return out.reshape(a.shape[:-2] + (space.dim, space.dim))


def conditional_expectation_1(rho, space: BipartiteSpace) -> np.ndarray:
    """Projection onto operators acting trivially on the second factor.

    Maps rho to (tr_2 rho) (x) I / d2.  Trace preserving, idempotent, and
    positive-definiteness preserving.  Takes one matrix or a stack of them.
    """
    return embed_1(partial_trace_2(rho, space), space) / space.d2


def _mix_unitaries(weights: np.ndarray, unitaries: np.ndarray, x: np.ndarray) -> np.ndarray:
    # sum_i w_i u_i^H x u_i, summed term by term in order, with weights
    # (..., m) and unitaries (..., m, n, n) broadcasting against x (..., n, n).
    out = np.zeros(np.broadcast_shapes(unitaries.shape[:-3] + x.shape[-2:], x.shape), dtype=complex)
    for i in range(weights.shape[-1]):
        u = unitaries[..., i, :, :]
        out += weights[..., i, None, None] * (_adjoint(u) @ x @ u)
    return out


def _pinch(frame: np.ndarray, labels: np.ndarray, x: np.ndarray) -> np.ndarray:
    # v (M o (v^H x v)) v^H with the block mask M[i, j] = (labels[i] == labels[j]);
    # frames, labels and inputs broadcast over their leading axes.
    mask = labels[..., :, None] == labels[..., None, :]
    return frame @ (mask * (_adjoint(frame) @ x @ frame)) @ _adjoint(frame)


@dataclass(frozen=True, eq=False)
class Pinching:
    """Pinching ``x -> sum_k P_k x P_k``, ``P_k`` the projection onto the
    columns ``i`` of the unitary ``frame`` with ``labels[i] == k``.

    Idempotent, trace preserving and unital by construction.
    """

    frame: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.frame, dtype=complex)
        labels = np.asarray(self.labels)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise DomainError(f"frame must be a square unitary, got shape {v.shape}")
        if labels.shape != (v.shape[0],) or labels.dtype.kind not in "iu":
            raise DomainError(f"labels must be {v.shape[0]} integers, one per frame column")
        defect = float(np.linalg.norm(_adjoint(v) @ v - np.eye(v.shape[0])))
        if defect > 1e-10:
            raise DomainError(f"frame is not unitary (defect {defect:.3e})")
        object.__setattr__(self, "frame", v)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.frame.shape[0]


@dataclass(frozen=True)
class ConditionalExpectation1:
    """:func:`conditional_expectation_1` on ``space`` as a channel."""

    space: BipartiteSpace

    @property
    def dim(self) -> int:
        return self.space.dim


@dataclass(frozen=True, eq=False)
class MixedUnitaryChannel:
    """Convex combination of unitary conjugations ``x -> sum_i p_i u_i^H x u_i``."""

    weights: np.ndarray
    unitaries: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        u = np.asarray(self.unitaries, dtype=complex)
        if w.ndim != 1 or u.ndim != 3 or u.shape[0] != w.shape[0] or u.shape[1] != u.shape[2]:
            raise DomainError("terms must pair m weights with m square unitaries")
        if w.size == 0:
            raise DomainError("a channel needs at least one term")
        if float(w.min()) < 0 or abs(float(w.sum()) - 1.0) > 1e-12:
            raise DomainError("weights must be nonnegative and sum to one")
        defect = float(np.linalg.norm(_adjoint(u) @ u - np.eye(u.shape[1]), axis=(1, 2)).max())
        if defect > 1e-10:
            raise DomainError(f"terms are not unitary (max defect {defect:.3e})")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "unitaries", u)

    @property
    def dim(self) -> int:
        return self.unitaries.shape[1]

    @property
    def terms(self) -> list[tuple[float, np.ndarray]]:
        return list(zip(self.weights.tolist(), self.unitaries))


def apply_channel(
    channel: Pinching | ConditionalExpectation1 | MixedUnitaryChannel, x
) -> np.ndarray:
    """Apply a channel to one matrix or a stack of them, shape ``(..., dim, dim)``.

    Every channel here is trace preserving and unital.  Hermitian input
    yields Hermitian output; a stored-Hermitian input matrix is
    re-symmetrized so its output is stored Hermitian as well.
    """
    x = _check_dim(x, channel.dim)
    if isinstance(channel, Pinching):
        out = _pinch(channel.frame, channel.labels, x)
    elif isinstance(channel, ConditionalExpectation1):
        out = conditional_expectation_1(x, channel.space)
    else:
        out = _mix_unitaries(channel.weights, channel.unitaries, x)
    hermitian = (x == _adjoint(x)).all(axis=(-2, -1))
    return np.where(hermitian[..., None, None], hermitize(out), out)


def _random_labels(dim: int, rng: RngStream) -> np.ndarray:
    # The block labels of a random pinching: a uniform block count, one
    # index per block at random, the rest assigned uniformly.
    count = int(rng.gen.integers(1, min(dim, MAX_PINCHING_BLOCKS) + 1))
    perm = rng.gen.permutation(dim)
    labels = np.empty(dim, dtype=int)
    labels[perm[:count]] = np.arange(count)  # one index per block, none empty
    if dim > count:
        labels[perm[count:]] = rng.gen.integers(0, count, size=dim - count)
    return labels


def random_pinching(dim: int, rng: RngStream) -> Pinching:
    """Pinching onto a random block partition in a random unitary frame."""
    if dim < 1:
        raise DomainError(f"dim must be positive, got {dim}")
    labels = _random_labels(dim, rng)
    return Pinching(random_unitary(dim, rng), labels)


def _random_weights(rng: RngStream, n_terms: int) -> np.ndarray:
    # The weights of a random mixed-unitary channel, drawn before its unitaries.
    raw = rng.gen.uniform(0.1, 1.0, size=n_terms)
    return raw / raw.sum()


def random_mixed_unitary(dim: int, rng: RngStream, n_terms: int) -> MixedUnitaryChannel:
    """Generic mixed-unitary channel with random weights and Haar unitaries."""
    if n_terms < 1:
        raise DomainError(f"term count must be positive, got {n_terms}")
    weights = _random_weights(rng, n_terms)
    return MixedUnitaryChannel(weights, random_unitary(dim, [rng] * n_terms))
