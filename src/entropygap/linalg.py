"""Dense complex Hermitian linear algebra with seeded random sampling.

Matrices are plain ``numpy.ndarray`` values of dtype complex128.  A matrix is
*stored Hermitian* when ``a[i, j] == conj(a[j, i])`` holds bitwise; every
factory here routes through :func:`hermitize`, which guarantees that exactly,
and :func:`eigh` rejects inputs that do not satisfy it.  Composite indices on
tensor products are row-major, ``(a, i) -> a * d2 + i``, the convention of
``numpy.kron``.

Except for :func:`kron`, every routine also takes a stack of matrices, shape
``(..., n, n)``, and treats each matrix of it exactly as it would treat that
matrix alone: stacked LAPACK calls, matrix products and reductions over the
trailing axes give the same bits per matrix.  The random factories draw a
stack when given a sequence of streams, one matrix per stream.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, NumericError

# Largest composite dimension the dense routines accept.
MAX_DIM = 64


class SpectralDecomposition(NamedTuple):
    """Ascending eigenvalues and unitary eigenbasis of a Hermitian matrix
    (or of each matrix of a stack)."""

    eigenvalues: np.ndarray
    basis: np.ndarray


class RngStream:
    """Reproducible random stream keyed by ``(seed, stream)``.

    Two streams built from the same pair replay the same draw sequence, so a
    computation is rerun exactly by rebuilding its stream.  A stream is
    stateful: derive one stream per independent computation.
    """

    def __init__(self, seed: int, stream: int = 0):
        for name, value in (("seed", seed), ("stream", stream)):
            if not 0 <= int(value) < 2**64:
                raise DomainError(f"{name} must be a 64-bit unsigned integer, got {value!r}")
        self.seed = int(seed)
        self.stream = int(stream)
        key = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        self.gen = np.random.Generator(np.random.PCG64(key))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream})"


def _is_square(a: np.ndarray) -> bool:
    return a.ndim >= 2 and a.shape[-1] == a.shape[-2]


def _as_square(a, name: str = "matrix") -> np.ndarray:
    """``a`` as a complex square matrix or stack of them."""
    a = np.asarray(a, dtype=complex)
    if not _is_square(a):
        raise DomainError(f"{name} must be square, got shape {a.shape}")
    return a


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _per_matrix(values) -> float | np.ndarray:
    """One value per matrix: a float for a single matrix, else the array."""
    return float(values) if np.ndim(values) == 0 else values


def hermitize(a) -> np.ndarray:
    """Return the Hermitian part ``(a + a^H) / 2`` of a square matrix.

    Conjugate symmetry of the result is bitwise: both members of a symmetric
    entry pair come from the same commutative additions, and the diagonal
    imaginary parts cancel exactly.
    """
    a = _as_square(a)
    return (a + _adjoint(a)) / 2.0


def is_stored_hermitian(a) -> bool:
    """True when ``a`` (every matrix of it) equals its conjugate transpose
    entry-for-entry."""
    a = np.asarray(a)
    if not _is_square(a):
        return False
    return bool((a == _adjoint(a)).all())


def check_hermitian(a, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is stored Hermitian with finite entries."""
    a = _as_square(a, name)
    if not np.isfinite(a.view(float)).all():
        raise DomainError(f"{name} has non-finite entries")
    if not (a == _adjoint(a)).all():
        defect = float(np.abs(a - _adjoint(a)).max())
        raise DomainError(
            f"{name} is not stored Hermitian (max asymmetry {defect:.3e}); "
            "construct it with hermitize()"
        )
    return a


def check_positive(eigenvalues, what: str) -> None:
    """Raise ``DomainError("<what>; smallest eigenvalue is ...")`` unless every
    eigenvalue is positive."""
    smallest = float(np.min(eigenvalues))
    if not smallest > 0:  # also catches NaN
        raise DomainError(f"{what}; smallest eigenvalue is {smallest:.6g}")


def _eigh(a: np.ndarray) -> SpectralDecomposition:
    # For matrices that are stored Hermitian by construction or were checked
    # at the caller's boundary.
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver did not converge: {exc}") from exc
    return SpectralDecomposition(vals, vecs)


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    # The eigenvalues alone, under the same terms as _eigh.
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver did not converge: {exc}") from exc


def eigh(a) -> SpectralDecomposition:
    """Eigendecomposition of a stored-Hermitian matrix, eigenvalues ascending."""
    return _eigh(check_hermitian(a))


def kron(a, b) -> np.ndarray:
    """Kronecker product of two square matrices, row-major composite indices."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    for m, name in ((a, "left factor"), (b, "right factor")):
        if m.ndim != 2 or not _is_square(m):
            raise DomainError(f"{name} must be square, got shape {m.shape}")
    if a.shape[0] * b.shape[0] > MAX_DIM:
        raise DomainError(
            f"composite dimension {a.shape[0] * b.shape[0]} exceeds the "
            f"supported maximum {MAX_DIM}"
        )
    return np.kron(a, b)


Streams = RngStream | Sequence[RngStream]


def _draw(rng: Streams, draw: Callable) -> np.ndarray:
    """``draw(generator)`` from one stream, or stacked over a sequence of them.

    Each stream makes the same generator calls in the same order either way.
    """
    if isinstance(rng, RngStream):
        return draw(rng.gen)
    return np.stack([draw(stream.gen) for stream in rng])


def random_unitary(dim: int, rng: Streams) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix.

    The R factor's diagonal phases are divided out, which makes the
    factorization unique and the law exactly Haar.  A sequence of streams
    gives a stack, one unitary per stream.
    """
    if dim < 1:
        raise DomainError(f"dim must be positive, got {dim}")
    z = _draw(rng, lambda gen: gen.standard_normal((dim, dim))
              + 1j * gen.standard_normal((dim, dim)))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))[..., None, :]


def random_pd(dim: int, rng: Streams, eig_range: tuple[float, float] = (0.1, 3.0)) -> np.ndarray:
    """Random positive definite matrix with spectrum uniform in ``eig_range``.

    Eigenvectors are Haar-distributed; the matrix is stored Hermitian.  A
    sequence of streams gives a stack, one matrix per stream.
    """
    lo, hi = float(eig_range[0]), float(eig_range[1])
    if not lo > 0:
        raise DomainError(f"lower eigenvalue bound must be positive, got {lo}")
    if hi < lo:
        raise DomainError(f"eigenvalue range is empty: ({lo}, {hi})")
    u = random_unitary(dim, rng)
    vals = _draw(rng, lambda gen: gen.uniform(lo, hi, size=dim))
    return hermitize((u * vals[..., None, :]) @ _adjoint(u))


def random_hermitian(dim: int, rng: Streams) -> np.ndarray:
    """Random Hermitian matrix with entries of magnitude at most 1.

    Not necessarily definite; intended for perturbation directions.  A
    sequence of streams gives a stack, one matrix per stream.  Each matrix
    draws its real parts, then its imaginary parts, in one generator call, so
    a stream repeated ``k`` times in the sequence gives the same stack as
    ``k`` consecutive draws from it.
    """
    if dim < 1:
        raise DomainError(f"dim must be positive, got {dim}")
    s = 1.0 / np.sqrt(2.0)
    parts = _draw(rng, lambda gen: gen.uniform(-s, s, size=(2, dim, dim)))
    return hermitize(parts[..., 0, :, :] + 1j * parts[..., 1, :, :])
