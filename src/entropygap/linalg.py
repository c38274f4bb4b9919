"""Dense complex Hermitian linear algebra with seeded random sampling.

Matrices are plain ``numpy.ndarray`` values of dtype complex128.  A matrix is
*stored Hermitian* when ``a[i, j] == conj(a[j, i])`` holds bitwise; every
factory here routes through :func:`hermitize`, which guarantees that exactly,
and :func:`eigh` rejects inputs that do not satisfy it.  Composite indices on
tensor products are row-major, ``(a, i) -> a * d2 + i``, the convention of
``numpy.kron``.

Every routine also takes a stack of matrices, shape ``(..., n, n)``, and
treats each matrix of it exactly as it would treat that matrix alone: stacked
LAPACK calls, matrix products and reductions over the trailing axes give the
same bits per matrix.  The random factories draw a stack when given a
sequence of streams, one matrix per stream: each draw allocates the stack
once and each stream fills its own row in place (``_draw``), and a uniform
draw maps ``random()`` values as ``lo + (hi - lo) * u``, numpy's arithmetic
for ``uniform``, so every value has the bits of a ``uniform`` call.

Each input precondition is written once, here: a dimension, positive and at
most :data:`MAX_DIM` (``_check_dim``), the shape (``_as_square``), stored
Hermitian with finite entries (:func:`check_hermitian`), a base point with its
direction (``_check_pair``) and positive finite values, empty input rejected
(:func:`check_positive`, and ``_positive_eigenvalues`` for spectra).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import DomainError, NumericError

# Largest composite dimension the dense routines accept.
MAX_DIM = 64

# Memory budget of one stacked computation: a campaign's chunk of samples, or
# the pencils of one stacked solve of the resolvent quadrature.
CHUNK_BYTES = 1 << 22


class SpectralDecomposition(NamedTuple):
    """Ascending eigenvalues and unitary eigenbasis of a Hermitian matrix
    (or of each matrix of a stack)."""

    eigenvalues: np.ndarray
    basis: np.ndarray


# The constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx).
# Each hashmix call XORs its word with the running constant, steps the
# constant by a multiplication, and multiplies the word by the new value;
# the constants do not depend on the data, so they are tabulated.  The seed's
# pool takes the first 16 calls, then each 32-bit word of a spawn key takes
# four, one per pool word.  The output hash steps its own constant likewise.
_HASH_A = [0x43B0D7E5 * pow(0x931E8875, n, 1 << 32) % (1 << 32) for n in range(25)]
_HASH_B = [0x8B51F9DD * pow(0x58F38DED, n, 1 << 32) % (1 << 32) for n in range(9)]
_KEY_XOR = np.array([_HASH_A[16:20], _HASH_A[20:24]], dtype=np.uint32)
_KEY_MUL = np.array([_HASH_A[17:21], _HASH_A[21:25]], dtype=np.uint32)
_OUT_XOR = np.array([_HASH_B[0:4], _HASH_B[4:8]], dtype=np.uint32)
_OUT_MUL = np.array([_HASH_B[1:5], _HASH_B[5:9]], dtype=np.uint32)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    z = _MIX_L * x - _MIX_R * y
    return z ^ (z >> 16)


def _stream_words(seed: int, streams: list[int]) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(stream,)).generate_state(4, uint64)``
    for each of ``streams``, one row each, computed in one pass.

    The pool of ``SeedSequence(seed)`` is the seed's part of the mixing; each
    stream's 32-bit words, one below 2**32 and two from there on, are mixed
    into it, and the pool is hashed out to PCG64's four 64-bit words.
    """
    for name, values in (("seed", [seed]), ("stream", streams)):
        for value in (min(values, default=0), max(values, default=0)):
            if not 0 <= value < 2**64:
                raise DomainError(f"{name} must be a 64-bit unsigned integer, got {value!r}")
    # Arrays throughout, so the 32-bit products wrap without a warning.
    keys = np.array(streams, dtype="<u8").view("<u4").reshape(-1, 2)
    hashed = (keys[:, :, None] ^ _KEY_XOR) * _KEY_MUL
    hashed ^= hashed >> 16
    pool = _mix(np.random.SeedSequence(seed).pool, hashed[:, 0])
    wide = keys[:, 1] != 0
    if wide.any():
        pool[wide] = _mix(pool[wide], hashed[wide, 1])
    out = (pool[:, None, :] ^ _OUT_XOR) * _OUT_MUL
    out ^= out >> 16
    return out.reshape(-1, 8).astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _SeedWords(ISeedSequence):
    # PCG64 asks its seed sequence for four uint64 words, once.
    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


class RngStream:
    """Reproducible random stream keyed by ``(seed, stream)``.

    Two streams built from the same pair replay the same draw sequence, so a
    computation is rerun exactly by rebuilding its stream.  A stream is
    stateful: derive one stream per independent computation.

    The generator is PCG64 seeded as by ``SeedSequence(seed,
    spawn_key=(stream,))``.  Its seed words are computed in one numpy pass for
    a whole :meth:`chunk` of streams; a stream built alone is a chunk of one.
    """

    def __init__(self, seed: int, stream: int = 0, *, _words: np.ndarray | None = None):
        # ``_words`` is passed by chunk(), which has hashed them already.
        self.seed = int(seed)
        self.stream = int(stream)
        if _words is None:
            (_words,) = _stream_words(self.seed, [self.stream])
        self.gen = np.random.Generator(np.random.PCG64(_SeedWords(_words)))

    @classmethod
    def chunk(cls, seed: int, streams) -> list[RngStream]:
        """``[RngStream(seed, stream) for stream in streams]``, with the seed
        words of all the streams computed in one pass."""
        seed, streams = int(seed), [int(stream) for stream in streams]
        words = _stream_words(seed, streams)
        return [cls(seed, stream, _words=row) for stream, row in zip(streams, words)]

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream})"


def _as_square(a, name: str = "matrix", dim: int | None = None) -> np.ndarray:
    """``a`` as a complex square matrix or stack of them, of side ``dim`` when
    given: the one shape check."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or dim not in (None, a.shape[-1]):
        want = "be square" if dim is None else f"have shape ({dim}, {dim})"
        raise DomainError(f"{name} must {want}, got shape {a.shape}")
    return a


def _check_dim(dim: int) -> None:
    # The one check of a dimension: positive and at most MAX_DIM.
    if dim < 1:
        raise DomainError(f"dim must be positive, got {dim}")
    if dim > MAX_DIM:
        raise DomainError(f"composite dimension {dim} exceeds the supported maximum {MAX_DIM}")


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _stored_hermitian(a: np.ndarray) -> np.ndarray:
    # The one test of stored Hermitian, entry for entry, for the caller to reduce.
    return a == _adjoint(a)


def _schur(kernel: np.ndarray, basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Schur multiplication by ``kernel`` in the unitary frame ``basis``:
    ``basis (kernel o (basis^H x basis)) basis^H``, broadcasting over the
    leading axes of all three."""
    adjoint = _adjoint(basis)
    return basis @ (kernel * (adjoint @ x @ basis)) @ adjoint


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


def check_hermitian(a, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is stored Hermitian with finite entries."""
    a = _as_square(a, name)
    if not np.isfinite(a.view(float)).all():
        raise DomainError(f"{name} has non-finite entries")
    if not _stored_hermitian(a).all():
        defect = float(np.abs(a - _adjoint(a)).max())
        raise DomainError(
            f"{name} is not stored Hermitian (max asymmetry {defect:.3e}); "
            "construct it with hermitize()"
        )
    return a


def _check_pair(a, h, name: str = "base point", dim: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    # The one check of a base point ``a``, of side ``dim`` when given, and a
    # direction ``h`` of its shape, both through check_hermitian.
    a = check_hermitian(_as_square(a, name, dim), name)
    h = check_hermitian(h, "direction")
    if h.shape != a.shape:
        raise DomainError(f"direction shape {h.shape} does not match base point shape {a.shape}")
    return a, h


def check_positive(values, what: str, noun: str = "eigenvalue") -> None:
    """Raise ``DomainError("<what>; smallest <noun> is ...")`` unless every
    value is positive, ``"<what>; largest <noun> is inf"`` unless every value
    is finite, and ``"<what>; got no <noun>s"`` on an empty array: the one
    domain check of eigenvalues and scalar arguments."""
    values = np.asarray(values)  # its methods cost half of np.min and np.max
    if not values.size:
        raise DomainError(f"{what}; got no {noun}s")
    smallest, largest = float(values.min()), float(values.max())
    if not smallest > 0:  # also catches NaN
        raise DomainError(f"{what}; smallest {noun} is {smallest:.6g}")
    if not largest < np.inf:
        raise DomainError(f"{what}; largest {noun} is {largest:.6g}")


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


def _positive_eigenvalues(a: np.ndarray, what: str) -> np.ndarray:
    # The one check that stored-Hermitian ``a`` is positive definite.
    values = _eigvalsh(a)
    check_positive(values, what)
    return values


def eigh(a) -> SpectralDecomposition:
    """Eigendecomposition of a stored-Hermitian matrix, eigenvalues ascending."""
    return _eigh(check_hermitian(a))


Streams = RngStream | Sequence[RngStream]


def _draw(rng: Streams, shape: tuple[int, ...], bounds: tuple[float, float] | None = None,
          fill: Callable | None = None, dtype=float) -> np.ndarray:
    """A ``shape`` array drawn from one stream, or a stack of them, one row
    per stream of a sequence (an empty sequence gives an empty stack).

    The stack is allocated once and each stream fills its own row in place,
    in sequence order, by ``fill(generator, out=row)``: by default standard
    normal values, or with ``bounds = (lo, hi)`` ``random()`` values mapped
    onto them as ``lo + (hi - lo) * u`` over the whole stack, which is the
    arithmetic of numpy's ``uniform(lo, hi)``, so each value has its bits.
    Each stream makes the same generator calls in the same order either way.
    """
    if fill is None:
        fill = np.random.Generator.standard_normal if bounds is None else np.random.Generator.random
    streams = [rng] if isinstance(rng, RngStream) else rng
    out = np.empty((len(streams),) + shape, dtype)
    for stream, row in zip(streams, out):
        fill(stream.gen, out=row)
    if bounds is not None:
        lo, hi = bounds
        out *= hi - lo
        out += lo
    return out[0] if isinstance(rng, RngStream) else out


def random_unitary(dim: int, rng: Streams) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix.

    The R factor's diagonal phases are divided out, which makes the
    factorization unique and the law exactly Haar.  A sequence of streams
    gives a stack, one unitary per stream.  Each matrix draws its real parts,
    then its imaginary parts, in one generator call, so a stream repeated
    ``k`` times in the sequence gives the same stack as ``k`` consecutive
    draws.
    """
    _check_dim(dim)
    parts = _draw(rng, (2, dim, dim))
    z = parts[..., 0, :, :] + 1j * parts[..., 1, :, :]
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
    if not lo <= hi < np.inf:  # also catches NaN
        raise DomainError(f"upper eigenvalue bound must be finite and at least {lo}, got {hi}")
    u = random_unitary(dim, rng)
    vals = _draw(rng, (dim,), (lo, hi))
    return hermitize((u * vals[..., None, :]) @ _adjoint(u))


def random_hermitian(dim: int, rng: Streams) -> np.ndarray:
    """Random Hermitian matrix with entries of magnitude at most 1.

    Not necessarily definite; intended for perturbation directions.  A
    sequence of streams gives a stack, one matrix per stream.  Each matrix
    draws its real parts, then its imaginary parts, in one generator call, so
    a stream repeated ``k`` times in the sequence gives the same stack as
    ``k`` consecutive draws from it.
    """
    _check_dim(dim)
    s = 1.0 / np.sqrt(2.0)
    parts = _draw(rng, (2, dim, dim), (-s, s))
    return hermitize(parts[..., 0, :, :] + 1j * parts[..., 1, :, :])
