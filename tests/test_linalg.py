"""Deterministic linear-algebra substrate: hermitization, eigh, draws."""

import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropygap import (
    LOG,
    MAX_DIM,
    T_LOG_T,
    BipartiteSpace,
    DomainError,
    EntropyGapSpec,
    NumericError,
    RngStream,
    check_hermitian,
    check_positive,
    divided_difference,
    eigh,
    entropy_gap,
    frechet_derivative,
    hermitize,
    loewner,
    matrix_function,
    quad_form,
    random_hermitian,
    random_pd,
    random_pinching,
    random_unitary,
    second_differential_spectral,
    von_neumann_entropy,
)
from entropygap.linalg import _stream_words
from entropygap.oracles import dd_log_quadrature, log_quad_form_quadrature, resolvent_nodes
from references import frechet_central_difference, second_differential_fd, second_differential_fd_auto

SRC = Path(__file__).resolve().parent.parent / "src"


def test_hermitize_is_bitwise_symmetric():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = hermitize(a)
    assert np.array_equal(h, h.conj().T)


def test_check_hermitian_rejects_asymmetric_storage():
    a = np.array([[1.0, 2.0], [2.0 + 1e-18j, 1.0]])
    with pytest.raises(DomainError, match="hermitize"):
        check_hermitian(a)


@pytest.mark.parametrize("spectrum", [[np.nan, 1.0], [1.0, np.nan], [0.0, 1.0], [-1e-300, 1.0]])
def test_check_positive_rejects_nan_and_nonpositive_eigenvalues(spectrum):
    with pytest.raises(DomainError, match="^x; smallest eigenvalue is"):
        check_positive(np.array(spectrum), "x")
    check_positive(np.array([1e-300, 1.0]), "x")


def test_check_positive_rejects_an_infinite_value():
    with pytest.raises(DomainError, match="^x; largest argument is inf$"):
        check_positive(np.array([1.0, np.inf]), "x", "argument")
    check_positive(np.array([1.0, np.finfo(float).max]), "x")


EMPTY = np.zeros(0)
EMPTY_MATRIX = np.zeros((0, 0), dtype=complex)

EMPTY_INPUTS = {
    "divided_difference": lambda: divided_difference(LOG, "f", EMPTY, EMPTY),
    "loewner": lambda: loewner(LOG, "f1", EMPTY),
    "dd_log_quadrature": lambda: dd_log_quadrature(EMPTY, EMPTY),
    "resolvent_nodes": lambda: resolvent_nodes(EMPTY, EMPTY),
    "log_quad_form_quadrature": lambda: log_quad_form_quadrature(EMPTY_MATRIX, EMPTY_MATRIX),
    "quad_form": lambda: quad_form(T_LOG_T, EMPTY_MATRIX, EMPTY_MATRIX),
    "entropy_gap": lambda: entropy_gap(np.zeros((0, 4, 4), dtype=complex),
                                       EntropyGapSpec(T_LOG_T, BipartiteSpace(2, 2))),
    "von_neumann_entropy": lambda: von_neumann_entropy(EMPTY_MATRIX),
    "matrix_function": lambda: matrix_function(T_LOG_T, EMPTY_MATRIX),
}


@pytest.mark.parametrize("routine", EMPTY_INPUTS)
def test_empty_input_raises_domain_error(routine):
    # check_positive rejects an empty array of values, so every routine that
    # checks a spectrum or its scalar arguments rejects empty input.
    with pytest.raises(DomainError, match="; got no (eigenvalue|argument|bound)s$"):
        EMPTY_INPUTS[routine]()


def _pair_routines():
    spec = EntropyGapSpec(T_LOG_T, BipartiteSpace(2, 2))
    return {
        "frechet_derivative": lambda a, h: frechet_derivative(T_LOG_T, "f", a, h),
        "quad_form": lambda a, h: quad_form(T_LOG_T, a, h),
        "log_quad_form_quadrature": log_quad_form_quadrature,
        "frechet_central_difference": lambda a, h: frechet_central_difference(T_LOG_T, a, h),
        "second_differential_spectral": lambda a, h: second_differential_spectral(a, h, spec),
        "second_differential_fd": lambda a, h: second_differential_fd(a, h, spec, 1e-4),
        "second_differential_fd_auto": lambda a, h: second_differential_fd_auto(a, h, spec),
    }


@pytest.mark.parametrize("routine", list(_pair_routines()))
def test_mismatched_pair_gives_the_one_message(routine):
    rng = RngStream(17, 0)
    a, h = random_pd(4, rng), random_hermitian(4, rng)
    call = _pair_routines()[routine]
    with pytest.raises(DomainError, match=re.escape("direction shape (3, 3) does not match base point shape (4, 4)")):
        call(a, h[:3, :3])
    with pytest.raises(DomainError, match=re.escape("direction shape (2, 4, 4) does not match base point shape (4, 4)")):
        call(a, np.stack([h, h]))


def test_check_hermitian_rejects_non_finite():
    a = np.array([[np.inf, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(DomainError, match="finite"):
        check_hermitian(a)


def test_eigh_identity():
    dec = eigh(np.eye(3, dtype=complex))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])
    u = dec.basis
    assert np.linalg.norm(u.conj().T @ u - np.eye(3)) <= 1e-12 * 3


def test_eigh_diagonal_sorts_ascending():
    dec = eigh(np.diag([2.0, 1.0]).astype(complex))
    assert dec.eigenvalues.tolist() == [1.0, 2.0]
    recon = dec.basis @ np.diag(dec.eigenvalues) @ dec.basis.conj().T
    assert np.linalg.norm(recon - np.diag([2.0, 1.0])) <= 1e-12


@pytest.mark.parametrize("dim", range(1, 7))
def test_eigh_reconstruction_and_orthonormality(dim):
    rng = RngStream(11, dim)
    for _ in range(20):
        a = 2.0 * random_hermitian(dim, rng)
        dec = eigh(a)
        u = dec.basis
        assert np.linalg.norm(u.conj().T @ u - np.eye(dim)) <= 1e-12 * dim
        recon = u @ np.diag(dec.eigenvalues) @ u.conj().T
        assert np.linalg.norm(recon - a) <= 1e-10 * max(1.0, np.linalg.norm(a))
        assert np.all(np.diff(dec.eigenvalues) >= 0)


def test_eigh_requires_stored_symmetry():
    with pytest.raises(DomainError):
        eigh(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))


def test_eigh_that_does_not_converge_is_a_numeric_error(monkeypatch):
    def fails(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fails)
    with pytest.raises(NumericError, match="^eigensolver did not converge: Eigenvalues did not converge$"):
        eigh(np.eye(2, dtype=complex))


_DIMENSIONED = {
    "random_unitary": lambda dim: random_unitary(dim, RngStream(1, 0)),
    "random_hermitian": lambda dim: random_hermitian(dim, RngStream(1, 0)),
    "random_pinching": lambda dim: random_pinching(dim, RngStream(1, 0)),
    "BipartiteSpace": lambda dim: BipartiteSpace(1, dim),
}


@pytest.mark.parametrize("name", _DIMENSIONED)
def test_every_dimension_is_positive_and_at_most_max_dim(name):
    build = _DIMENSIONED[name]
    build(1)
    build(MAX_DIM)
    oversized = f"composite dimension {MAX_DIM + 1} exceeds the supported maximum {MAX_DIM}"
    with pytest.raises(DomainError, match=f"^{oversized}$"):
        build(MAX_DIM + 1)
    # A space checks its factors first, with its own message.
    positive = "factor dimensions must be positive, got (1, 0)" if name == "BipartiteSpace" \
        else "dim must be positive, got 0"
    with pytest.raises(DomainError, match=f"^{re.escape(positive)}$"):
        build(0)


def test_random_pd_scalar_case():
    rng = RngStream(1, 0)
    m = random_pd(1, rng, (1.0, 2.0))
    assert m.shape == (1, 1)
    assert 1.0 <= m[0, 0].real <= 2.0
    assert m[0, 0].imag == 0.0


@pytest.mark.parametrize("dim", range(1, 7))
def test_random_pd_spectrum_in_range(dim):
    for draw in range(100):
        rng = RngStream(21, draw)
        vals = np.linalg.eigvalsh(random_pd(dim, rng, (0.1, 3.0)))
        assert vals.min() >= 0.1 - 1e-12
        assert vals.max() <= 3.0 + 1e-12


def test_random_pd_rejects_nonpositive_low():
    with pytest.raises(DomainError):
        random_pd(2, RngStream(0, 0), (0.0, 1.0))
    with pytest.raises(DomainError):
        random_pd(2, RngStream(0, 0), (2.0, 1.0))


@pytest.mark.parametrize("hi", [np.nan, np.inf])
def test_random_pd_rejects_a_non_finite_high(hi):
    # Neither compares below the lower bound. The spectrum is mapped from
    # random() draws, where no uniform call is left to raise OverflowError,
    # so this check is what keeps NaN and inf out of the draws.
    with pytest.raises(DomainError, match="upper eigenvalue bound"):
        random_pd(2, RngStream(0, 0), (0.1, hi))


def test_random_pd_deterministic_per_stream():
    a = random_pd(4, RngStream(7, 5), (0.1, 3.0))
    b = random_pd(4, RngStream(7, 5), (0.1, 3.0))
    assert np.array_equal(a, b)


def test_random_hermitian_scalar_case():
    m = random_hermitian(1, RngStream(2, 0))
    assert m.shape == (1, 1)
    assert m[0, 0].imag == 0.0
    assert abs(m[0, 0].real) <= 1.0


def test_random_hermitian_exactly_self_adjoint():
    m = random_hermitian(5, RngStream(2, 1))
    assert np.array_equal(m, m.conj().T)


def test_random_hermitian_streams_differ():
    a = random_hermitian(4, RngStream(9, 0))
    b = random_hermitian(4, RngStream(9, 1))
    assert not np.array_equal(a, b)


def _two_call_hermitian(dim: int, gen) -> np.ndarray:
    # The draw as two generator calls: all real parts, then all imaginary parts.
    s = 1.0 / np.sqrt(2.0)
    re = gen.uniform(-s, s, size=(dim, dim))
    im = gen.uniform(-s, s, size=(dim, dim))
    return hermitize(re + 1j * im)


HERMITIAN_DIMS = [1, 2, 3, 4, 5, 6, 7, 8, 64]


@pytest.mark.parametrize("dim", HERMITIAN_DIMS)
def test_random_hermitian_repeated_stream_equals_consecutive_draws(dim):
    rng = RngStream(5, 1)
    stacked = random_hermitian(dim, [rng] * 4)
    after_stack = rng.gen.random()
    rng = RngStream(5, 1)
    singles = np.stack([random_hermitian(dim, rng) for _ in range(4)])
    assert stacked.tobytes() == singles.tobytes()
    assert rng.gen.random() == after_stack


@pytest.mark.parametrize("dim", HERMITIAN_DIMS)
def test_random_hermitian_keeps_its_draws(dim):
    # Single and distinct-stream draws give the bits of the two-call draw and
    # leave each stream where the two calls leave it.
    single_rng, reference = RngStream(11, 3), RngStream(11, 3).gen
    single = random_hermitian(dim, single_rng)
    assert single.tobytes() == _two_call_hermitian(dim, reference).tobytes()
    assert single_rng.gen.random() == reference.random()
    streams = [RngStream(11, i) for i in range(3)]
    stack = random_hermitian(dim, streams)
    expected = np.stack([_two_call_hermitian(dim, RngStream(11, i).gen) for i in range(3)])
    assert stack.tobytes() == expected.tobytes()


def _two_call_unitary(dim: int, gens) -> np.ndarray:
    # random_unitary with two generator calls per matrix, all real parts,
    # then all imaginary parts; a sequence of generators gives a stack.
    def gaussian(gen):
        return gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    if isinstance(gens, np.random.Generator):
        z = gaussian(gens)
    else:
        z = np.stack([gaussian(gen) for gen in gens])
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))[..., None, :]


@pytest.mark.parametrize("dim", HERMITIAN_DIMS)
def test_random_unitary_keeps_its_draws(dim):
    # Single and distinct-stream draws give the bits of the two-call draw and
    # leave each stream where the two calls leave it.
    single_rng, reference = RngStream(12, 3), RngStream(12, 3).gen
    single = random_unitary(dim, single_rng)
    assert single.tobytes() == _two_call_unitary(dim, reference).tobytes()
    assert single_rng.gen.random() == reference.random()
    streams = RngStream.chunk(12, range(3))
    references = [RngStream(12, i).gen for i in range(3)]
    stack = random_unitary(dim, streams)
    assert stack.tobytes() == _two_call_unitary(dim, references).tobytes()
    assert [stream.gen.random() for stream in streams] == [gen.random() for gen in references]


@pytest.mark.parametrize("dim", HERMITIAN_DIMS)
def test_random_unitary_repeated_stream_equals_consecutive_draws(dim):
    # As random_mixed_unitary draws its terms: one stream repeated per term.
    rng, reference = RngStream(6, 1), RngStream(6, 1).gen
    stacked = random_unitary(dim, [rng] * 4)
    assert stacked.tobytes() == _two_call_unitary(dim, [reference] * 4).tobytes()
    assert rng.gen.random() == reference.random()
    rng = RngStream(6, 1)
    singles = np.stack([random_unitary(dim, rng) for _ in range(4)])
    assert stacked.tobytes() == singles.tobytes()


# Ranges of uniform draws: random_pd's default spectrum and a small one, a
# zero-width one, C8's scalar pairs and random_mixed_unitary's weights.
UNIFORM_RANGES = [(0.1, 3.0), (1e-4, 1.0), (1.0, 1.0), (0.1, 10.0), (0.1, 1.0)]


def _stream_kinds(seed: int):
    # Makers of a single stream, distinct streams and one stream repeated;
    # each call builds them afresh.
    return [lambda: RngStream(seed, 3), lambda: RngStream.chunk(seed, range(3)),
            lambda: [RngStream(seed, 5)] * 3]


def _as_streams(rng):
    return [rng] if isinstance(rng, RngStream) else rng


def _uniform_pd(dim: int, rng, eig_range) -> np.ndarray:
    # random_pd with each spectrum drawn by numpy's uniform, after every unitary.
    u = random_unitary(dim, rng)
    vals = np.stack([stream.gen.uniform(*eig_range, size=dim) for stream in _as_streams(rng)])
    return hermitize((u * vals.reshape(u.shape[:-1])[..., None, :]) @ u.conj().swapaxes(-1, -2))


@pytest.mark.parametrize("eig_range", UNIFORM_RANGES)
@pytest.mark.parametrize("dim", [1, 4])
def test_random_pd_keeps_its_uniform_draws(eig_range, dim):
    # Its spectra are numpy's uniform draws bit for bit, from a single,
    # distinct or repeated stream, and each stream is left where uniform
    # leaves it: lo + (hi - lo) * random() is not fused into a multiply-add.
    for make in _stream_kinds(14):
        rng, reference = make(), make()
        got = random_pd(dim, rng, eig_range)
        assert got.tobytes() == _uniform_pd(dim, reference, eig_range).tobytes()
        after = [stream.gen.random() for stream in _as_streams(rng)]
        assert after == [stream.gen.random() for stream in _as_streams(reference)]


@pytest.mark.parametrize("factory", [random_unitary, random_pd, random_hermitian])
def test_random_factories_give_an_empty_stack_for_no_streams(factory):
    stack = factory(3, [])
    assert stack.shape == (0, 3, 3) and stack.dtype == complex


def test_random_unitary_is_unitary():
    rng = RngStream(4, 0)
    for dim in (1, 2, 5):
        u = random_unitary(dim, rng)
        assert np.linalg.norm(u.conj().T @ u - np.eye(dim)) <= 1e-12 * dim


def test_rng_stream_validates_inputs():
    with pytest.raises(DomainError):
        RngStream(-1, 0)
    with pytest.raises(DomainError):
        RngStream(0, 2**64)
    with pytest.raises(DomainError, match="seed"):
        RngStream.chunk(-1, [0])
    with pytest.raises(DomainError, match="seed"):
        RngStream.chunk(2**64, [0])
    with pytest.raises(DomainError, match="stream .* got -1"):
        RngStream.chunk(0, [3, -1, 5])
    with pytest.raises(DomainError, match="stream .* got 18446744073709551616"):
        RngStream.chunk(0, [3, 2**64, 5])


@pytest.mark.parametrize("name, build", [
    ("seed", lambda: RngStream(7.9)), ("seed", lambda: RngStream("7")),
    ("seed", lambda: RngStream(True)), ("seed", lambda: RngStream(np.float64(7.0))),
    ("seed", lambda: RngStream.chunk(7.0, [0])), ("seed", lambda: RngStream.chunk(np.True_, [0])),
    ("stream", lambda: RngStream(7, 1.5)), ("stream", lambda: RngStream(7, "1")),
    ("stream", lambda: RngStream(7, False)), ("stream", lambda: RngStream.chunk(1, [0.5, 1.5])),
    ("stream", lambda: RngStream.chunk(1, [0, True])),
    ("stream", lambda: RngStream.chunk(1, np.array([0.0, 1.0]))),
])
def test_rng_stream_rejects_a_seed_or_stream_that_is_no_integer(name, build):
    # int() would truncate each of these to an integer's stream.
    with pytest.raises(DomainError, match=f"^{name} must be a 64-bit unsigned integer, got"):
        build()


def test_rng_stream_takes_numpy_integers_as_ints():
    streams = [RngStream(np.uint64(7), np.int32(3)), *RngStream.chunk(np.int64(7), np.arange(3, 4))]
    for stream in streams:
        assert type(stream.seed) is int and type(stream.stream) is int
        assert stream.gen.random() == RngStream(7, 3).gen.random()


def _seed_sequence_words(seed: int, streams) -> np.ndarray:
    return np.stack([np.random.SeedSequence(seed, spawn_key=(stream,)).generate_state(4, np.uint64)
                     for stream in streams])


HASH_SEEDS = [0, 1, 42, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1]
# Indices 0-599, 400 random ones below 2**32, and indices of two 32-bit words.
HASH_STREAMS = (list(range(600)) + np.random.default_rng(0).integers(0, 2**32, 400).tolist()
                + [2**32, 2**32 + 1, 2**40 + 7, 2**64 - 1])


@pytest.mark.parametrize("seed", HASH_SEEDS)
def test_stream_words_are_the_seed_sequence_words(seed):
    words = _stream_words(seed, HASH_STREAMS)
    assert words.dtype == np.uint64
    assert words.tobytes() == _seed_sequence_words(seed, HASH_STREAMS).tobytes()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1),
       streams=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=6))
def test_stream_words_match_seed_sequence_on_any_64_bit_pair(seed, streams):
    assert _stream_words(seed, streams).tobytes() == _seed_sequence_words(seed, streams).tobytes()


def test_chunk_streams_draw_as_single_streams():
    indices = [0, 7, 7, 2**32, 2**40 + 7, 2**64 - 1]
    chunk = RngStream.chunk(42, indices)
    assert [repr(stream) for stream in chunk] == [repr(RngStream(42, index)) for index in indices]
    for stream, index in zip(chunk, indices):
        single = RngStream(42, index).gen
        numpy_own = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(42, spawn_key=(index,))))
        draws = stream.gen.standard_normal(5).tobytes()
        assert draws == single.standard_normal(5).tobytes()
        assert draws == numpy_own.standard_normal(5).tobytes()
    assert RngStream.chunk(42, []) == []


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1), dim=st.integers(min_value=1, max_value=6))
def test_hermitize_fixes_any_draw(seed, dim):
    gen = np.random.default_rng(seed)
    raw = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    h = hermitize(raw)
    assert np.array_equal(h, h.conj().swapaxes(-1, -2))


# Each run of a campaign after the first, in one process, must find its heap
# pages still mapped: glibc keeps two chunk budgets of freed heap on top.
_SECOND_RUN_FAULTS = """
import resource, sys
from entropygap import CampaignConfig, run_campaign
for campaign in sys.argv[1:]:
    config = CampaignConfig(campaign, d1=8, d2=8, samples=8, seed=42)
    run_campaign(config)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_campaign(config)
    print(campaign, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap padding is glibc's")
def test_a_second_8x8_run_takes_no_fresh_pages():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = subprocess.run([sys.executable, "-W", "error", "-c", _SECOND_RUN_FAULTS,
                            "C1", "C4", "C8", "C9"], env=env, capture_output=True, text=True,
                           timeout=120, check=True)
    faults = {campaign: int(count) for campaign, count in map(str.split, child.stdout.splitlines())}
    assert list(faults) == ["C1", "C4", "C8", "C9"]
    assert all(count <= 16 for count in faults.values()), faults
