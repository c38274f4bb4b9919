"""Tensor-product plumbing: the partial trace, the factor-1 projection, channels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    got = partial_trace_2(np.kron(a, b), SPACE)
    expected = np.trace(b) * a
    assert np.linalg.norm(got - expected) <= 1e-13


def test_partial_trace_2_of_identity():
    got = partial_trace_2(np.eye(6, dtype=complex), SPACE)
    assert np.array_equal(got, 3.0 * np.eye(2))


@pytest.mark.parametrize("which", [partial_trace_2])
def test_partial_traces_preserve_trace(which):
    for index in range(10):
        x = random_hermitian(6, RngStream(103, index))
        assert abs(np.trace(which(x, SPACE)) - np.trace(x)) <= 1e-12


_SHAPES = [(1, 1), (1, 4), (2, 3), (3, 2), (4, 4)]


@pytest.mark.parametrize("d1,d2", _SHAPES)
def test_partial_trace_2_reads_the_row_major_composite_index(d1, d2):
    # (a, j) -> a*d2 + j, as in numpy.kron: out[a, b] = sum_j x[a*d2 + j, b*d2 + j].
    space = BipartiteSpace(d1, d2)
    x = random_hermitian(space.dim, RngStream(115, d1 * 8 + d2))
    expected = np.array([[sum(x[a * d2 + j, b * d2 + j] for j in range(d2))
                          for b in range(d1)] for a in range(d1)])
    assert np.linalg.norm(partial_trace_2(x, space) - expected) <= 1e-13 * space.dim


@pytest.mark.parametrize("d1,d2", _SHAPES)
def test_embed_1_is_numpy_kron_with_the_identity(d1, d2):
    space = BipartiteSpace(d1, d2)
    a = random_hermitian(d1, RngStream(117, d1 * 8 + d2))
    assert np.array_equal(embed_1(a, space), np.kron(a, np.eye(d2)))


def test_partial_trace_2_of_a_stack_is_each_member():
    stack = random_hermitian(6, [RngStream(119, k) for k in range(3)])
    got = partial_trace_2(stack.reshape(3, 1, 6, 6), SPACE)
    assert got.shape == (3, 1, 2, 2)
    for k in range(3):
        assert got[k, 0].tobytes() == partial_trace_2(stack[k], SPACE).tobytes()


def test_partial_traces_preserve_stored_symmetry():
    x = random_hermitian(6, RngStream(103, 99))
    reduced = partial_trace_2(x, SPACE)
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
    got = conditional_expectation_1(np.kron(a, b), SPACE)
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
    return np.stack([np.kron(np.eye(d1), w) for w in words])


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
    assert channel.weights.tolist() == [1.0]
    assert np.array_equal(channel.unitaries, [np.eye(3)])
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
    assert len(channel.weights) == 9
    for weight, unitary in zip(channel.weights, channel.unitaries):
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


@pytest.mark.parametrize("n_terms", range(1, 6))
def test_random_mixed_unitary_keeps_its_uniform_weights(n_terms):
    # Each stream's weights are numpy's uniform(0.1, 1) draw over its sum,
    # bit for bit, from a single, distinct or repeated stream, and each
    # stream is left where those draws and its unitaries leave it.
    makers = [lambda: RngStream(155, 3), lambda: RngStream.chunk(155, range(3)),
              lambda: [RngStream(155, 5)] * 3]
    for make in makers:
        rng, reference = make(), make()
        got = random_mixed_unitary(4, rng, n_terms)
        streams = [rng] if isinstance(rng, RngStream) else rng
        reference = [reference] if isinstance(reference, RngStream) else reference
        raw = [stream.gen.uniform(0.1, 1.0, size=n_terms) for stream in reference]
        random_unitary(4, [stream for stream in reference for _ in range(n_terms)])
        assert got.weights.tobytes() == np.stack([row / row.sum() for row in raw]).tobytes()
        assert [s.gen.random() for s in streams] == [s.gen.random() for s in reference]


def test_random_pinching_gives_an_empty_stack_for_no_streams():
    pinching = random_pinching(3, [])
    assert pinching.frame.shape == (0, 3, 3) and pinching.labels.shape == (0, 3)


def test_random_mixed_unitary_gives_an_empty_stack_for_no_streams():
    channel = random_mixed_unitary(3, [], 2)
    assert channel.weights.shape == (0, 2) and channel.unitaries.shape == (0, 2, 3, 3)


# -- stacks of channels -------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 3, 6, 16])
def test_channel_factories_on_streams_replay_their_single_calls(dim):
    # Frames, labels, weights and unitaries, each stream's next draw after
    # them, and each member of the stack, as one call per stream gives them.
    streams, singles = RngStream.chunk(161, range(4)), [RngStream(161, i) for i in range(4)]
    pinchings = random_pinching(dim, streams)
    mixed = random_mixed_unitary(dim, streams, 3)
    alone = [(random_pinching(dim, rng), random_mixed_unitary(dim, rng, 3)) for rng in singles]
    assert [stream.gen.random() for stream in streams] == [rng.gen.random() for rng in singles]
    for k, (pinching, channel) in enumerate(alone):
        for stack, single, names in ((pinchings, pinching, ("frame", "labels")),
                                     (mixed, channel, ("weights", "unitaries"))):
            assert type(stack[k]) is type(single)
            for name in names:
                assert getattr(stack, name)[k].tobytes() == getattr(single, name).tobytes()
                assert getattr(stack[k], name).tobytes() == getattr(single, name).tobytes()
    assert len(list(mixed)) == 4
    with pytest.raises(IndexError):
        mixed[4]
    with pytest.raises(TypeError):
        alone[0][1][0]  # a single channel has no members


@pytest.mark.parametrize("family", ["pinching", "mixed"])
def test_apply_channel_on_a_stack_of_channels_equals_one_call_per_channel(family):
    streams = RngStream.chunk(162, range(5))
    channels = (random_pinching(6, streams) if family == "pinching"
                else random_mixed_unitary(6, streams, 3))
    rng = RngStream(162, 99)
    x = np.stack([random_hermitian(6, rng) for _ in range(5)])
    x[2] = x[2] + 1j * np.eye(6)  # not Hermitian: kept as computed
    inputs = np.stack([x, x[::-1]])  # (2, 5, 6, 6), broadcast against the 5 channels
    got = apply_channel(channels, inputs)
    for k in range(5):
        for j in range(2):
            assert got[j, k].tobytes() == apply_channel(channels[k], inputs[j, k]).tobytes()
    assert not np.array_equal(got[0, 2], got[0, 2].conj().swapaxes(-1, -2))
    assert np.array_equal(got[0, 1], got[0, 1].conj().swapaxes(-1, -2))


def test_channel_stacks_reject_one_bad_member():
    frames = np.stack([np.eye(3, dtype=complex)] * 3)
    frames[1, 0, 0] = 2.0
    with pytest.raises(DomainError, match="unitary"):
        Pinching(frames, np.zeros((3, 3), dtype=int))
    with pytest.raises(DomainError, match="labels"):
        Pinching(np.stack([np.eye(3, dtype=complex)] * 3), np.zeros((2, 3), dtype=int))
    unitaries = np.stack([np.eye(2, dtype=complex)] * 6).reshape(3, 2, 2, 2)
    weights = np.full((3, 2), 0.5)
    MixedUnitaryChannel(weights, unitaries)
    bad = unitaries.copy()
    bad[2, 1] = np.diag([2.0, 1.0])
    with pytest.raises(DomainError, match="unitary"):
        MixedUnitaryChannel(weights, bad)
    for row in ([0.5, 0.4], [1.5, -0.5], [np.nan, 0.5]):
        bad = weights.copy()
        bad[1] = row
        with pytest.raises(DomainError, match="sum to one"):
            MixedUnitaryChannel(bad, unitaries)
    with pytest.raises(DomainError, match="pair"):
        MixedUnitaryChannel(weights[:2], unitaries)


@settings(max_examples=200, deadline=None)
@given(d1=st.integers(1, 4), d2=st.integers(1, 4), data=st.data())
def test_conditional_expectation_output_is_stored_hermitian(d1, d2, data):
    # apply_channel returns the conditional expectation as computed, without
    # re-symmetrizing it: it is stored Hermitian already wherever its input is.
    space = BipartiteSpace(d1, d2)
    n = space.dim
    entries = data.draw(st.lists(st.floats(-1e300, 1e300), min_size=4 * n * n, max_size=4 * n * n))
    z = np.array(entries).reshape(2, 2, n, n)
    x = hermitize(z[0] + 1j * z[1])
    out = apply_channel(ConditionalExpectation1(space), x)
    assert out.tobytes() == conditional_expectation_1(x, space).tobytes()
    assert np.array_equal(out, out.conj().swapaxes(-1, -2))
    assert np.array_equal(hermitize(out), out)


def test_random_mixed_unitary_structure():
    channel = random_mixed_unitary(4, RngStream(157, 0), 5)
    assert channel.weights.shape == (5,) and channel.unitaries.shape == (5, 4, 4)
    assert abs(channel.weights.sum() - 1.0) <= 1e-12
    assert (channel.weights > 0).all()


def test_channel_rejects_bad_weights():
    u = np.eye(2, dtype=complex)
    with pytest.raises(DomainError, match="sum to one"):
        MixedUnitaryChannel((0.5, 0.4), (u, u))


def test_channel_rejects_no_terms():
    with pytest.raises(DomainError, match="^a channel needs at least one term$"):
        MixedUnitaryChannel(np.zeros(0), np.zeros((0, 2, 2), dtype=complex))
    with pytest.raises(DomainError, match="^term count must be positive, got 0$"):
        random_mixed_unitary(2, RngStream(1, 0), 0)


def test_channel_rejects_non_unitary_terms():
    with pytest.raises(DomainError, match="unitary"):
        MixedUnitaryChannel((1.0,), (np.diag([2.0, 1.0]).astype(complex),))


def test_channel_rejects_dimension_mismatch():
    for channel in (MixedUnitaryChannel((1.0,), (np.eye(3, dtype=complex),)),
                    Pinching(np.eye(3, dtype=complex), np.zeros(3, dtype=int)),
                    ConditionalExpectation1(BipartiteSpace(3, 1))):
        with pytest.raises(DomainError):
            apply_channel(channel, np.eye(4, dtype=complex))
