"""Bipartite tensor spaces: the partial trace over the second factor, the
embedding, the conditional expectation onto the first factor, and averaging
channels, each stored by its structure (a pinching as a frame and block
labels).

A composite space H1 (x) H2 with dimensions (d1, d2) uses row-major
composite indices (a, i) -> a * d2 + i throughout, matching ``numpy.kron``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

from .linalg import (
    RngStream,
    Streams,
    _adjoint,
    _as_square,
    _check_dim,
    _draw,
    _schur,
    _stored_hermitian,
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
        _check_dim(self.d1 * self.d2)

    @property
    def dim(self) -> int:
        return self.d1 * self.d2


def _blocks(x, space: BipartiteSpace) -> np.ndarray:
    # Each composite index split into its factors.
    x = _as_square(x, dim=space.dim)
    return x.reshape(x.shape[:-2] + (space.d1, space.d2, space.d1, space.d2))


def partial_trace_2(x, space: BipartiteSpace) -> np.ndarray:
    """Trace out the second factor: out[a, b] = sum_j x[(a, j), (b, j)].

    Takes one matrix or a stack of them, shape ``(..., dim, dim)``.
    """
    return np.einsum("...ajbj->...ab", _blocks(x, space))


def embed_1(a, space: BipartiteSpace) -> np.ndarray:
    """Embed a first-factor operator as ``a (x) I`` on the composite space.

    Takes one operator or a stack of them, shape ``(..., d1, d1)``.
    """
    a = _as_square(a, "first-factor operator", space.d1)
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
    # Schur multiplication in the frame by the block mask M[i, j] = (labels[i]
    # == labels[j]); frames, labels and inputs broadcast over their leading axes.
    return _schur(labels[..., :, None] == labels[..., None, :], frame, x)


def _check_unitary(u: np.ndarray, what: str) -> None:
    # Every matrix of the stack u, shape (..., n, n), unitary to 1e-10.
    defect = np.linalg.norm(_adjoint(u) @ u - np.eye(u.shape[-1]), axis=(-2, -1)).max(initial=0.0)
    if not defect <= 1e-10:  # also catches NaN
        raise DomainError(f"{what} (max defect {defect:.3e})")


class _Stackable:
    # One channel, or a stack of them along the leading axes of every field.

    def __getitem__(self, k):
        """Member ``k`` of a stack of channels, not checked again."""
        arrays = vars(self)
        if min(value.ndim for value in arrays.values()) < 2:
            raise TypeError(f"a single {type(self).__name__} has no members")
        member = object.__new__(type(self))
        vars(member).update({name: value[k] for name, value in arrays.items()})
        return member


@dataclass(frozen=True, eq=False)
class Pinching(_Stackable):
    """Pinching ``x -> sum_k P_k x P_k``, ``P_k`` the projection onto the
    columns ``i`` of the unitary ``frame`` with ``labels[i] == k``.

    Idempotent, trace preserving and unital by construction.  A stack of
    pinchings has frames ``(..., n, n)`` and labels ``(..., n)``.
    """

    frame: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        v = _as_square(self.frame, "frame")
        labels = np.asarray(self.labels)
        if labels.shape != v.shape[:-1] or labels.dtype.kind not in "iu":
            raise DomainError(f"labels must be {v.shape[-1]} integers, one per frame column")
        _check_unitary(v, "frame is not unitary")
        object.__setattr__(self, "frame", v)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.frame.shape[-1]


@dataclass(frozen=True)
class ConditionalExpectation1:
    """:func:`conditional_expectation_1` on ``space`` as a channel."""

    space: BipartiteSpace

    @property
    def dim(self) -> int:
        return self.space.dim


@dataclass(frozen=True, eq=False)
class MixedUnitaryChannel(_Stackable):
    """Convex combination of unitary conjugations ``x -> sum_i p_i u_i^H x u_i``.

    A stack of channels of ``m`` terms each has weights ``(..., m)`` and
    unitaries ``(..., m, n, n)``.
    """

    weights: np.ndarray
    unitaries: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        u = _as_square(self.unitaries, "unitaries")
        if w.ndim < 1 or u.shape[:-2] != w.shape:
            raise DomainError("terms must pair m weights with m square unitaries")
        if w.shape[-1] == 0:
            raise DomainError("a channel needs at least one term")
        if not ((w >= 0).all() and (abs(w.sum(axis=-1) - 1.0) <= 1e-12).all()):
            raise DomainError("weights must be nonnegative and sum to one")
        _check_unitary(u, "terms are not unitary")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "unitaries", u)

    @property
    def dim(self) -> int:
        return self.unitaries.shape[-1]


def apply_channel(channel: Pinching | ConditionalExpectation1 | MixedUnitaryChannel, x) -> np.ndarray:
    """Apply a channel to one matrix or a stack of them, shape ``(..., dim, dim)``.

    A stack of channels broadcasts against the inputs, each matrix getting
    the bits its own channel gives it alone.  Every channel here is trace
    preserving and unital.  A stored-Hermitian input matrix gives a
    stored-Hermitian output: re-symmetrized, except the conditional
    expectation's, which is stored Hermitian as computed.
    """
    x = _as_square(x, dim=channel.dim)
    if isinstance(channel, ConditionalExpectation1):
        return conditional_expectation_1(x, channel.space)
    if isinstance(channel, Pinching):
        out = _pinch(channel.frame, channel.labels, x)
    else:
        out = _mix_unitaries(channel.weights, channel.unitaries, x)
    return np.where(_stored_hermitian(x).all(axis=(-2, -1), keepdims=True), hermitize(out), out)


def random_pinching(dim: int, rng: Streams) -> Pinching:
    """Pinching onto a random block partition in a random unitary frame.

    Each stream draws its labels, then its frame; a sequence of streams
    gives a stack, one pinching per stream.
    """
    _check_dim(dim)

    def draw_labels(gen, out):  # a uniform block count, then a random partition into that many
        count = int(gen.integers(1, min(dim, MAX_PINCHING_BLOCKS) + 1))
        perm = gen.permutation(dim)
        out[perm[:count]] = np.arange(count)  # one index per block, none empty
        if dim > count:
            out[perm[count:]] = gen.integers(0, count, size=dim - count)

    labels = _draw(rng, (dim,), fill=draw_labels, dtype=int)
    return Pinching(random_unitary(dim, rng), labels)


def random_mixed_unitary(dim: int, rng: Streams, n_terms: int) -> MixedUnitaryChannel:
    """Generic mixed-unitary channel with random weights and Haar unitaries.

    Each stream draws its weights, then its unitaries; a sequence of
    streams gives a stack, one channel per stream.
    """
    if n_terms < 1:
        raise DomainError(f"term count must be positive, got {n_terms}")

    raw = _draw(rng, (n_terms,), (0.1, 1.0))
    weights = raw / raw.sum(axis=-1, keepdims=True)
    streams = [rng] if isinstance(rng, RngStream) else rng
    unitaries = random_unitary(dim, [stream for stream in streams for _ in range(n_terms)])
    return MixedUnitaryChannel(weights, unitaries.reshape(weights.shape + (dim, dim)))
