"""Bipartite tensor spaces: partial traces, embeddings, the conditional
expectation onto the first factor, and mixed-unitary channels.

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
    hermitize,
    is_stored_hermitian,
    kron,
    random_unitary,
)

# A pinching over B blocks averages 2**(B - 1) sign unitaries; the cap keeps
# the term count at or below 128.
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
    x = np.asarray(x, dtype=complex)
    if x.shape != (dim, dim):
        raise DomainError(f"{name} must have shape ({dim}, {dim}), got {x.shape}")
    return x


def _blocks(x, space: BipartiteSpace) -> np.ndarray:
    # One matrix or a stack, each composite index split into its factors.
    x = np.asarray(x, dtype=complex)
    if x.shape[-2:] != (space.dim, space.dim):
        raise DomainError(f"matrix must have shape ({space.dim}, {space.dim}), got {x.shape}")
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
    """Embed a first-factor operator as ``a (x) I`` on the composite space."""
    a = _check_dim(a, space.d1, "first-factor operator")
    return kron(a, np.eye(space.d2))


def conditional_expectation_1(rho, space: BipartiteSpace) -> np.ndarray:
    """Projection onto operators acting trivially on the second factor.

    Maps rho to (tr_2 rho) (x) I / d2.  Trace preserving, idempotent, and
    positive-definiteness preserving.
    """
    return embed_1(partial_trace_2(rho, space), space) / space.d2


def _apply_terms(weights: np.ndarray, unitaries: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Works for a single matrix or a stack of them (broadcasting over the
    # leading axis).
    out = np.zeros(x.shape, dtype=complex)
    for wi, ui in zip(weights, unitaries):
        out += wi * (ui.conj().T @ x @ ui)
    return out


def _idempotence_defect(weights: np.ndarray, unitaries: np.ndarray) -> float:
    # Probe on the full matrix-unit basis (a complete check, since the map is
    # linear) up to dimension 16; beyond that, on a fixed seeded Hermitian
    # probe set.
    dim = unitaries.shape[1]
    if dim <= 16:
        probes = np.eye(dim * dim, dtype=complex).reshape(dim * dim, dim, dim)
    else:
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7, spawn_key=(dim,))))
        z = gen.standard_normal((16, dim, dim)) + 1j * gen.standard_normal((16, dim, dim))
        probes = (z + z.conj().transpose(0, 2, 1)) / 2.0
    once = _apply_terms(weights, unitaries, probes)
    twice = _apply_terms(weights, unitaries, once)
    return float(np.linalg.norm(twice - once, axis=(1, 2)).max())


@dataclass(frozen=True, eq=False)
class MixedUnitaryChannel:
    """Convex combination of unitary conjugations ``x -> sum_i p_i u_i^H x u_i``.

    ``is_conditional_expectation`` may only be claimed when idempotence holds
    on a probe basis; the constructor enforces that.
    """

    weights: np.ndarray
    unitaries: np.ndarray
    is_conditional_expectation: bool = False

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        u = np.asarray(self.unitaries, dtype=complex)
        if w.ndim != 1 or u.ndim != 3 or u.shape[0] != w.shape[0] or u.shape[1] != u.shape[2]:
            raise DomainError("terms must pair m weights with m square unitaries")
        if w.size == 0:
            raise DomainError("a channel needs at least one term")
        if float(w.min()) < 0 or abs(float(w.sum()) - 1.0) > 1e-12:
            raise DomainError("weights must be nonnegative and sum to one")
        eye = np.eye(u.shape[1])
        defect = max(float(np.linalg.norm(ui.conj().T @ ui - eye)) for ui in u)
        if defect > 1e-10:
            raise DomainError(f"terms are not unitary (max defect {defect:.3e})")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "unitaries", u)
        if self.is_conditional_expectation:
            probe = _idempotence_defect(w, u)
            if probe > 1e-8:
                raise DomainError(
                    "channel claimed as a conditional expectation is not idempotent "
                    f"(probe defect {probe:.3e})"
                )

    @property
    def dim(self) -> int:
        return self.unitaries.shape[1]

    @property
    def terms(self) -> list[tuple[float, np.ndarray]]:
        return list(zip(self.weights.tolist(), self.unitaries))


def apply_channel(channel: MixedUnitaryChannel, x) -> np.ndarray:
    """Apply ``sum_i p_i u_i^H x u_i``; trace preserving and unital.

    Hermitian input yields Hermitian output; stored-Hermitian input is
    re-symmetrized so the output is stored Hermitian as well.
    """
    x = _check_dim(x, channel.dim)
    out = _apply_terms(channel.weights, channel.unitaries, x)
    if is_stored_hermitian(x):
        out = hermitize(out)
    return out


def pinching(v, blocks) -> MixedUnitaryChannel:
    """Conditional expectation zeroing matrix entries between index blocks.

    ``blocks`` partitions range(dim) in the frame of the unitary ``v``.  With
    B blocks the channel averages the 2**(B - 1) sign unitaries
    ``v diag(eps) v^H`` whose first-block sign is fixed to +1; averaging the
    signs cancels every cross-block entry and fixes the block diagonal.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise DomainError(f"frame must be a square unitary, got shape {v.shape}")
    dim = v.shape[0]
    blocks = [sorted(int(i) for i in block) for block in blocks]
    if not blocks or any(len(b) == 0 for b in blocks):
        raise DomainError("blocks must be nonempty")
    if len(blocks) > MAX_PINCHING_BLOCKS:
        raise DomainError(f"at most {MAX_PINCHING_BLOCKS} blocks are supported, got {len(blocks)}")
    flat = sorted(i for block in blocks for i in block)
    if flat != list(range(dim)):
        raise DomainError("blocks must partition range(dim)")

    labels = np.empty(dim, dtype=int)
    for k, block in enumerate(blocks):
        labels[block] = k
    count = len(blocks)
    m = 2 ** (count - 1)
    unitaries = np.empty((m, dim, dim), dtype=complex)
    for pattern in range(m):
        signs = np.ones(count)
        for k in range(1, count):
            if (pattern >> (k - 1)) & 1:
                signs[k] = -1.0
        eps = signs[labels]
        unitaries[pattern] = (v * eps) @ v.conj().T
    weights = np.full(m, 1.0 / m)
    return MixedUnitaryChannel(weights, unitaries, is_conditional_expectation=True)


def random_pinching(dim: int, rng: RngStream) -> MixedUnitaryChannel:
    """Pinching onto a random block partition in a random unitary frame."""
    if dim < 1:
        raise DomainError(f"dim must be positive, got {dim}")
    count = int(rng.gen.integers(1, min(dim, MAX_PINCHING_BLOCKS) + 1))
    perm = rng.gen.permutation(dim)
    assignment = np.empty(dim, dtype=int)
    assignment[perm[:count]] = np.arange(count)  # one index per block, none empty
    if dim > count:
        assignment[perm[count:]] = rng.gen.integers(0, count, size=dim - count)
    blocks = [np.flatnonzero(assignment == k).tolist() for k in range(count)]
    frame = random_unitary(dim, rng)
    return pinching(frame, blocks)


def conditional_expectation_1_channel(space: BipartiteSpace) -> MixedUnitaryChannel:
    """Realize :func:`conditional_expectation_1` as a mixed-unitary channel.

    Averages the d2**2 shift-and-phase unitaries ``I (x) w`` on the second
    factor with equal weights; the average of ``w^H b w`` over that family is
    tr(b) I / d2.  The construction is deterministic.
    """
    d1, d2 = space.d1, space.d2
    omega = np.exp(2j * np.pi / d2)
    shift = np.zeros((d2, d2), dtype=complex)
    shift[(np.arange(d2) + 1) % d2, np.arange(d2)] = 1.0
    clock = np.diag(omega ** np.arange(d2))
    eye1 = np.eye(d1)
    words = []
    for a in range(d2):
        xa = np.linalg.matrix_power(shift, a)
        for b in range(d2):
            words.append(xa @ np.linalg.matrix_power(clock, b))
    unitaries = np.stack([kron(eye1, w) for w in words])
    weights = np.full(d2 * d2, 1.0 / d2**2)
    return MixedUnitaryChannel(weights, unitaries, is_conditional_expectation=True)


def random_mixed_unitary(dim: int, rng: RngStream, n_terms: int) -> MixedUnitaryChannel:
    """Generic mixed-unitary channel with random weights and Haar unitaries."""
    if n_terms < 1:
        raise DomainError(f"term count must be positive, got {n_terms}")
    raw = rng.gen.uniform(0.1, 1.0, size=n_terms)
    weights = raw / raw.sum()
    unitaries = np.stack([random_unitary(dim, rng) for _ in range(n_terms)])
    return MixedUnitaryChannel(weights, unitaries)
