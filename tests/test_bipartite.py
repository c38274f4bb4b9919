"""Tensor-product plumbing: partial traces, the factor-1 projection, channels."""

import numpy as np
import pytest

from entropygap import (
    MAX_PINCHING_BLOCKS,
    BipartiteSpace,
    DomainError,
    ConditionalExpectation1,
    MixedUnitaryChannel,
    Pinching,
    RngStream,
    apply_channel,
    conditional_expectation_1,
    embed_1,
    hermitize,
    kron,
    partial_trace_1,
    partial_trace_2,
    random_hermitian,
    random_mixed_unitary,
    random_pd,
    random_pinching,
    random_unitary,
)

SPACE = BipartiteSpace(2, 3)


def _state(dim: int, seed: int, index: int = 0) -> np.ndarray:
    return random_pd(dim, RngStream(seed, index))


# -- space validation ---------------------------------------------------------


def test_space_dim():
    assert SPACE.dim == 6


def test_space_rejects_bad_dims():
    with pytest.raises(DomainError):
        BipartiteSpace(0, 2)
    with pytest.raises(DomainError):
        BipartiteSpace(9, 8)


# -- partial traces -----------------------------------------------------------


def test_partial_trace_2_on_product():
    rng = RngStream(101, 0)
    a = random_hermitian(2, rng)
    b = random_hermitian(3, rng)
    got = partial_trace_2(kron(a, b), SPACE)
    expected = np.trace(b) * a
    assert np.linalg.norm(got - expected) <= 1e-13


def test_partial_trace_2_of_identity():
    got = partial_trace_2(np.eye(6, dtype=complex), SPACE)
    assert np.array_equal(got, 3.0 * np.eye(2))


def test_partial_trace_1_on_product():
    rng = RngStream(101, 1)
    a = random_hermitian(2, rng)
    b = random_hermitian(3, rng)
    got = partial_trace_1(kron(a, b), SPACE)
    expected = np.trace(a) * b
    assert np.linalg.norm(got - expected) <= 1e-13


def test_partial_trace_1_of_identity():
    got = partial_trace_1(np.eye(6, dtype=complex), SPACE)
    assert np.array_equal(got, 2.0 * np.eye(3))


@pytest.mark.parametrize("which", [partial_trace_1, partial_trace_2])
def test_partial_traces_preserve_trace(which):
    for index in range(10):
        x = random_hermitian(6, RngStream(103, index))
        assert abs(np.trace(which(x, SPACE)) - np.trace(x)) <= 1e-12


def test_partial_traces_preserve_stored_symmetry():
    x = random_hermitian(6, RngStream(103, 99))
    for reduced in (partial_trace_1(x, SPACE), partial_trace_2(x, SPACE)):
        assert np.array_equal(reduced, reduced.conj().T)


def test_partial_trace_rejects_wrong_shape():
    with pytest.raises(DomainError):
        partial_trace_2(np.eye(5, dtype=complex), SPACE)


# -- embedding and duality ----------------------------------------------------


def test_embed_identity():
    assert np.array_equal(embed_1(np.eye(2, dtype=complex), SPACE), np.eye(6))


def test_embed_then_trace_back():
    a = random_hermitian(2, RngStream(107, 0))
    assert np.linalg.norm(partial_trace_2(embed_1(a, SPACE), SPACE) - 3.0 * a) <= 1e-13


def test_embed_scales_frobenius_norm():
    a = random_hermitian(2, RngStream(107, 1))
    lhs = np.linalg.norm(embed_1(a, SPACE)) ** 2
    assert abs(lhs - 3.0 * np.linalg.norm(a) ** 2) <= 1e-12 * max(1.0, lhs)


def test_embedding_is_adjoint_of_partial_trace():
    for index in range(10):
        rng = RngStream(109, index)
        a = random_hermitian(2, rng)
        x = random_hermitian(6, rng)
        lhs = np.trace(embed_1(a, SPACE) @ x)
        rhs = np.trace(a @ partial_trace_2(x, SPACE))
        assert abs(lhs - rhs) <= 1e-11


# -- conditional expectation onto factor 1 ------------------------------------


def test_projection_is_idempotent():
    rho = _state(6, 113)
    once = conditional_expectation_1(rho, SPACE)
    twice = conditional_expectation_1(once, SPACE)
    assert np.linalg.norm(twice - once) <= 1e-12


def test_projection_on_product_state():
    rng = RngStream(113, 1)
    a = random_hermitian(2, rng)
    b = random_hermitian(3, rng)
    got = conditional_expectation_1(kron(a, b), SPACE)
    expected = (np.trace(b) / 3.0) * embed_1(a, SPACE)
    assert np.linalg.norm(got - expected) <= 1e-13


def test_projection_preserves_trace():
    rho = _state(6, 113, 2)
    assert abs(np.trace(conditional_expectation_1(rho, SPACE)) - np.trace(rho)) <= 1e-12


def test_projection_preserves_definiteness():
    for index in range(10):
        rho = _state(6, 127, index)
        floor = np.linalg.eigvalsh(rho).min()
        projected_floor = np.linalg.eigvalsh(conditional_expectation_1(rho, SPACE)).min()
        assert projected_floor >= floor - 1e-10


# -- oracles: the structural channels as averages of unitary conjugations -----
#
# A pinching and the conditional expectation onto the first factor are both
# averages of unitary conjugations.  These constructions of them share no
# code with the structural maps, which must agree with them.


def sign_unitaries(frame, labels, patterns) -> np.ndarray:
    """The sign unitaries ``v diag(eps) v^H`` of the given sign patterns.

    Over B blocks a pattern is an integer below 2**(B - 1) whose bit k - 1
    flips the sign of block k; block 0 keeps +1.  Averaging the conjugations
    by all 2**(B - 1) of them cancels every cross-block entry in the frame
    and fixes the block diagonal.
    """
    labels = np.asarray(labels)
    count = int(labels.max()) + 1
    patterns = np.asarray(patterns)[:, None]
    flips = (patterns >> np.arange(count - 1)) & 1
    signs = np.concatenate([np.ones((len(patterns), 1)), 1.0 - 2.0 * flips], axis=1)
    eps = signs[:, labels]
    return (frame * eps[:, None, :]) @ frame.conj().T


def sign_unitary_pinching(frame, labels) -> MixedUnitaryChannel:
    """A pinching as the uniform mixture of all its sign unitaries."""
    m = 2 ** int(np.max(labels))
    return MixedUnitaryChannel(np.full(m, 1.0 / m), sign_unitaries(frame, labels, range(m)))


def sign_average(frame, labels, x) -> np.ndarray:
    """The pinching of ``x`` as the sign-unitary average, 256 terms at a time."""
    m = 2 ** int(np.max(labels))
    total = np.zeros_like(x)
    for start in range(0, m, 256):
        u = sign_unitaries(frame, labels, range(start, min(m, start + 256)))
        total += (u.conj().transpose(0, 2, 1) @ x @ u).sum(axis=0)
    return total / m


def weyl_unitaries(space: BipartiteSpace) -> np.ndarray:
    """The d2**2 shift-and-clock unitaries ``I (x) X^a Z^b``; the average of
    ``w^H b w`` over them is tr(b) I / d2, so their uniform mixture is the
    conditional expectation onto the first factor."""
    d1, d2 = space.d1, space.d2
    omega = np.exp(2j * np.pi / d2)
    shift = np.zeros((d2, d2), dtype=complex)
    shift[(np.arange(d2) + 1) % d2, np.arange(d2)] = 1.0
    clock = np.diag(omega ** np.arange(d2))
    words = [np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
             for a in range(d2) for b in range(d2)]
    return np.stack([kron(np.eye(d1), w) for w in words])


def weyl_expectation(space: BipartiteSpace) -> MixedUnitaryChannel:
    """The conditional expectation onto the first factor as a Weyl mixture."""
    return MixedUnitaryChannel(np.full(space.d2**2, 1.0 / space.d2**2), weyl_unitaries(space))


def term_by_term(channel: MixedUnitaryChannel, x) -> np.ndarray:
    """``sum_i p_i u_i^H x u_i`` one term at a time, re-symmetrized, as
    earlier versions applied every channel to a stored-Hermitian input."""
    out = np.zeros(x.shape, dtype=complex)
    for wi, ui in zip(channel.weights, channel.unitaries):
        out += wi * (ui.conj().T @ x @ ui)
    return hermitize(out)


def _labels(dim: int, count: int, rng: RngStream) -> np.ndarray:
    # ``count`` nonempty blocks, indices assigned in a random order.
    return rng.gen.permutation(np.arange(dim) % count)


def _pinching_cases():
    for dim in range(1, 17):
        for count in sorted({1, min(8, dim), dim}):
            yield dim, count


@pytest.mark.parametrize("dim,count", list(_pinching_cases()))
def test_pinching_matches_sign_unitary_average(dim, count):
    rng = RngStream(131, 100 * dim + count)
    channel = Pinching(random_unitary(dim, rng), _labels(dim, count, rng))
    for _ in range(3):
        x = random_hermitian(dim, rng)
        expected = sign_average(channel.frame, channel.labels, x)
        assert np.linalg.norm(apply_channel(channel, x) - expected) <= 1e-14 * np.linalg.norm(x)


def _spaces():
    return [(d1, d2) for d1 in range(1, 17) for d2 in range(1, 17) if d1 * d2 <= 16]


@pytest.mark.parametrize("d1,d2", _spaces())
def test_expectation_matches_weyl_average(d1, d2):
    space = BipartiteSpace(d1, d2)
    oracle = weyl_expectation(space)
    for index in range(3):
        x = random_hermitian(space.dim, RngStream(132, index))
        got = apply_channel(ConditionalExpectation1(space), x)
        assert np.linalg.norm(got - term_by_term(oracle, x)) <= 1e-14 * np.linalg.norm(x)


STRUCTURAL_CASES = ([("pinching", dim, count) for dim, count in _pinching_cases()]
                    + [("expectation", d1, d2) for d1, d2 in _spaces()])


@pytest.mark.parametrize("family,a,b", STRUCTURAL_CASES)
def test_structural_channels_are_idempotent_trace_preserving_and_unital(family, a, b):
    # a pinching of dimension a over b blocks, or the expectation on (a, b)
    if family == "pinching":
        rng = RngStream(133, 100 * a + b)
        channel = Pinching(random_unitary(a, rng), _labels(a, b, rng))
    else:
        channel = ConditionalExpectation1(BipartiteSpace(a, b))
    dim = channel.dim
    eye = np.eye(dim, dtype=complex)
    assert np.linalg.norm(apply_channel(channel, eye) - eye) <= 1e-14 * dim
    for index in range(3):
        x = random_hermitian(dim, RngStream(134, index))
        once = apply_channel(channel, x)
        twice = apply_channel(channel, once)
        assert np.linalg.norm(twice - once) <= 1e-14 * np.linalg.norm(x)
        assert abs(np.trace(once) - np.trace(x)) <= 1e-14 * np.linalg.norm(x) * dim
        assert np.array_equal(once, once.conj().T)


def test_projection_channel_trivial_factor():
    space = BipartiteSpace(3, 1)
    channel = weyl_expectation(space)
    assert len(channel.terms) == 1
    weight, unitary = channel.terms[0]
    assert weight == 1.0
    assert np.array_equal(unitary, np.eye(3))
    x = random_hermitian(3, RngStream(131, 0))
    assert np.array_equal(apply_channel(ConditionalExpectation1(space), x), x)


@pytest.mark.parametrize("d1", [1, 2, 3, 4])
@pytest.mark.parametrize("d2", [1, 2, 3, 4])
def test_projection_channel_matches_map_on_matrix_units(d1, d2):
    space = BipartiteSpace(d1, d2)
    oracle = weyl_expectation(space)
    channel = ConditionalExpectation1(space)
    dim = space.dim
    for a in range(dim):
        for b in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[a, b] = 1.0
            direct = conditional_expectation_1(unit, space)
            assert np.linalg.norm(apply_channel(oracle, unit) - direct) <= 1e-10
            assert np.array_equal(apply_channel(channel, unit), direct)


def test_projection_channel_weights_uniform():
    channel = weyl_expectation(SPACE)
    assert len(channel.terms) == 9
    for weight, unitary in channel.terms:
        assert weight == pytest.approx(1.0 / 9.0, abs=1e-15)
        assert np.linalg.norm(unitary.conj().T @ unitary - np.eye(6)) <= 1e-12


# -- pinchings ----------------------------------------------------------------


def test_pinching_single_block_is_identity():
    channel = Pinching(np.eye(4, dtype=complex), np.zeros(4, dtype=int))
    x = random_hermitian(4, RngStream(137, 0))
    assert np.linalg.norm(apply_channel(channel, x) - x) <= 1e-14


def test_pinching_singleton_blocks_zero_off_diagonal():
    channel = Pinching(np.eye(4, dtype=complex), np.arange(4))
    x = random_hermitian(4, RngStream(137, 1))
    got = apply_channel(channel, x)
    assert np.linalg.norm(got - np.diag(np.diag(x))) <= 1e-14


def test_pinching_zeroes_exactly_the_off_block_entries():
    channel = Pinching(np.eye(5, dtype=complex), np.array([0, 0, 1, 1, 1]))
    x = random_hermitian(5, RngStream(137, 2))
    got = apply_channel(channel, x)
    expected = x.copy()
    expected[:2, 2:] = 0.0
    expected[2:, :2] = 0.0
    assert np.linalg.norm(got - expected) <= 1e-14


def test_pinching_respects_block_cap():
    # The cap bounds the random draw; the structural map takes any count.
    counts = {len(set(random_pinching(16, RngStream(138, i)).labels.tolist())) for i in range(60)}
    assert max(counts) == MAX_PINCHING_BLOCKS
    channel = Pinching(np.eye(9, dtype=complex), np.arange(9))
    x = random_hermitian(9, RngStream(138, 99))
    assert np.array_equal(apply_channel(channel, x), np.diag(np.diag(x)))


def test_pinching_requires_partition():
    # Labels assign every frame column to exactly one block.
    with pytest.raises(DomainError, match="labels"):
        Pinching(np.eye(3, dtype=complex), np.array([0, 1]))
    with pytest.raises(DomainError, match="labels"):
        Pinching(np.eye(3, dtype=complex), np.array([0.0, 1.0, 1.0]))
    with pytest.raises(DomainError, match="unitary"):
        Pinching(2.0 * np.eye(3, dtype=complex), np.array([0, 1, 1]))


def test_random_pinching_idempotent():
    for index in range(10):
        rng = RngStream(139, index)
        channel = random_pinching(6, rng)
        x = random_hermitian(6, rng)
        once = apply_channel(channel, x)
        twice = apply_channel(channel, once)
        assert np.linalg.norm(twice - once) <= 1e-8


# -- mixed-unitary channels ---------------------------------------------------


def test_apply_identity_channel():
    channel = MixedUnitaryChannel((1.0,), (np.eye(3, dtype=complex),))
    x = random_hermitian(3, RngStream(149, 0))
    assert np.array_equal(apply_channel(channel, x), x)


@pytest.mark.parametrize("family", ["pinching", "expectation", "mixed"])
def test_channels_trace_preserving_and_unital(family):
    rng = RngStream(151, 0)
    if family == "pinching":
        channel = random_pinching(6, rng)
    elif family == "expectation":
        channel = ConditionalExpectation1(SPACE)
    else:
        channel = random_mixed_unitary(6, rng, 4)
    eye = np.eye(6, dtype=complex)
    assert np.linalg.norm(apply_channel(channel, eye) - eye) <= 1e-10
    for index in range(5):
        x = random_hermitian(6, RngStream(151, index + 1))
        out = apply_channel(channel, x)
        assert abs(np.trace(out) - np.trace(x)) <= 1e-10
        assert np.array_equal(out, out.conj().T)


@pytest.mark.parametrize("family", ["pinching", "expectation", "mixed"])
def test_channels_apply_to_stacks_as_to_single_matrices(family):
    rng = RngStream(152, 0)
    channel = {"pinching": lambda: random_pinching(6, rng),
               "expectation": lambda: ConditionalExpectation1(SPACE),
               "mixed": lambda: random_mixed_unitary(6, rng, 3)}[family]()
    stack = np.stack([random_hermitian(6, rng) for _ in range(4)])
    stack[1] = stack[1] + 1j * np.eye(6)  # not Hermitian: kept as computed
    got = apply_channel(channel, stack.reshape(2, 2, 6, 6)).reshape(4, 6, 6)
    for out, x in zip(got, stack):
        assert out.tobytes() == apply_channel(channel, x).tobytes()
    assert not np.array_equal(got[1], got[1].conj().T)


def _term_loop(channel: MixedUnitaryChannel, x) -> np.ndarray:
    # apply_channel's mixed branch as it was written before the stacked
    # routine: one term at a time, re-symmetrized where the input is stored
    # Hermitian.
    out = np.zeros(x.shape, dtype=complex)
    for wi, ui in zip(channel.weights, channel.unitaries):
        out += wi * (ui.conj().T @ x @ ui)
    hermitian = (x == x.conj().swapaxes(-1, -2)).all(axis=(-2, -1))
    return np.where(hermitian[..., None, None], hermitize(out), out)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 6, 9, 16, 64])
def test_apply_mixed_unitary_matches_the_term_loop_bitwise(dim):
    for n_terms in range(1, 6):
        rng = RngStream(154, 10 * dim + n_terms)
        channel = random_mixed_unitary(dim, rng, n_terms)
        stack = np.stack([random_hermitian(dim, rng) for _ in range(3)] + [random_pd(dim, rng)])
        stack[1] = stack[1] + 1j * np.eye(dim)  # not Hermitian: kept as computed
        for x in (stack[0], stack[1], stack, stack.reshape(2, 2, dim, dim)):
            assert apply_channel(channel, x).tobytes() == _term_loop(channel, x).tobytes()


def test_random_mixed_unitary_draws_terms_in_order():
    # One stacked draw of the terms replays n_terms consecutive draws.
    channel = random_mixed_unitary(4, RngStream(153, 0), 3)
    rng = RngStream(153, 0)
    raw = rng.gen.uniform(0.1, 1.0, size=3)
    expected = np.stack([random_unitary(4, rng) for _ in range(3)])
    assert channel.weights.tobytes() == (raw / raw.sum()).tobytes()
    assert channel.unitaries.tobytes() == expected.tobytes()


def test_random_mixed_unitary_structure():
    channel = random_mixed_unitary(4, RngStream(157, 0), 5)
    assert len(channel.terms) == 5
    assert abs(sum(w for w, _ in channel.terms) - 1.0) <= 1e-12
    assert all(w > 0 for w, _ in channel.terms)


def test_channel_rejects_bad_weights():
    u = np.eye(2, dtype=complex)
    with pytest.raises(DomainError, match="sum to one"):
        MixedUnitaryChannel((0.5, 0.4), (u, u))


def test_channel_rejects_non_unitary_terms():
    with pytest.raises(DomainError, match="unitary"):
        MixedUnitaryChannel((1.0,), (np.diag([2.0, 1.0]).astype(complex),))


def test_channel_rejects_dimension_mismatch():
    for channel in (MixedUnitaryChannel((1.0,), (np.eye(3, dtype=complex),)),
                    Pinching(np.eye(3, dtype=complex), np.zeros(3, dtype=int)),
                    ConditionalExpectation1(BipartiteSpace(3, 1))):
        with pytest.raises(DomainError):
            apply_channel(channel, np.eye(4, dtype=complex))
