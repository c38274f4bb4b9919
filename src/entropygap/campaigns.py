"""Seeded randomized campaigns certifying convexity and monotonicity of the
entropy-gap calculus.

Each campaign draws ``samples`` independent test cases, evaluates the signed
slack ("margin") of one inequality per case, and reports the margins, the
violation count, and the inputs achieving the worst margin.  A sample passes
when its margin is at least ``-tolerance``.

=========  ===================================================================
campaign   margin (nonnegative in exact arithmetic except C9)
=========  ===================================================================
C1         segment convexity of the gap G:
           t G(rho) + (1-t) G(sigma) - G(t rho + (1-t) sigma), worst weight
C2         second differential of G along a random Hermitian direction
C3         monotonicity of the curvature form Q under averaging channels (a
           pinching, the conditional expectation onto the first factor, or a
           mixed-unitary channel): Q(x, h) - Q(Phi(x), Phi(h))
C4         joint midpoint convexity of Q:
           (Q(x1, h1) + Q(x2, h2)) / 2 - Q(midpoint, midpoint)
C5         C1 with f = t log t, where G(rho) = log(d2) tr rho - S(rho) +
           S(tr_2 rho): the concavity of S(rho) - S(tr_2 rho)
C6         C1 with f = t**p, where G(rho) = d2**(p-1) tr rho**p -
           tr (tr_2 rho)**p
C7         midpoint operator convexity of (A, B) -> B^H A^-1 B: smallest
           eigenvalue of the midpoint defect
C8         kernel identities: -|difference|, the larger of the log divided
           difference against its integral form (absolute) and the t log t
           curvature form against the resolvent quadrature (relative), so a
           difference above the tolerance is a violation; a base point too
           ill-conditioned for the quadrature (condition number beyond about
           1e9) is a NumericError
C9         C4 with f = t**3 as a falsification search: C4's draws, with the
           directions replaced by the lowest Ritz vector of the margin as a
           quadratic form in (h1, h2), of the drawn norm; a violation is the
           expected outcome, absence of one is inconclusive
=========  ===================================================================

C5 and C6 are presets that run the sampler of C1, and C9 C4's draws, with the
function of :data:`PRESET_FUNCTIONS`; C7 uses none and C8 that of t log t.  Invalid
values are rejected for every campaign; a config records a setting only where
its campaign reads it, else its default (for ``function``, the preset).

C1-C3, C5 and C6 use the bipartite split (d1, d2); C4 and C7-C9 use only the
dimension d1 * d2.  Per-sample randomness comes from ``RngStream(seed, sample_index)``,
so dropping a sample never changes the draws of the others and margin lists
are reproducible bit-for-bit for a fixed config.  A chunk's streams are built
by ``RngStream.chunk``, which seeds them all in one pass with the same words.

Samples are evaluated in chunks of up to :data:`CHUNK_BYTES` of matrices.
Every sample of a chunk draws from its own stream, making the generator calls
it would make alone, and a sampler then computes the margins of the whole
chunk on stacks of matrices.  Stacked routines give each matrix the bits it
gets alone, so margins do not depend on the chunk size.  A sampler makes for
its chunk the calls that one sample would make alone, in the same order, so a
chunk of one sample raises what that sample raises.

C3 applies its channels a family at a time, each family on stacks: the
pinchings, the conditional expectation, and the mixed-unitary channels a
term count at a time.  The frames of the pinchings and the unitaries of the
mixed-unitary channels, each stream's last draws, are drawn as one stack per
family.  C8's resolvent reference takes the chunk as one stack.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .bipartite import (
    BipartiteSpace,
    ConditionalExpectation1,
    MixedUnitaryChannel,
    Pinching,
    _mix_unitaries,
    _pinch,
    _random_labels,
    _random_weights,
    conditional_expectation_1,
)
from .calculus import (
    BUILTIN_NAMES,
    LOG,
    T_LOG_T,
    _quad_form,
    by_name,
    divided_difference,
    loewner,
    power,
    quad_form,
)
from .entropy import EntropyGapSpec, _entropy_gap, entropy_gap, second_differential_spectral
from .errors import DomainError, NumericError
from .linalg import (
    CHUNK_BYTES,
    RngStream,
    _adjoint,
    _eigh,
    _eigvalsh,
    check_hermitian,
    hermitize,
    random_hermitian,
    random_pd,
    random_unitary,
)
from .oracles import dd_log_quadrature, log_quad_form_quadrature

CAMPAIGN_IDS = tuple(f"C{i}" for i in range(1, 10))
CHANNEL_FAMILIES = ("pinching", "expectation", "mixed", "uniform")

# The function each campaign fixes whatever the config names: C5 and C6 run as
# C1, C9 on C4's draws, C7 uses none and C8 t log t.
PRESET_FUNCTIONS = {"C5": "t_log_t", "C6": "power", "C7": "t_log_t", "C8": "t_log_t", "C9": "cube"}

# The settings that only some campaigns read, in the order they are decided,
# each with whether a config's campaign reads it.  A config records a setting
# its campaign does not read at the field default, and function at the preset.
_READ = {
    "function": lambda config: config.campaign not in PRESET_FUNCTIONS,
    "p": lambda config: config.function == "power",
    "weights": lambda config: config.campaign in ("C1", "C5", "C6"),
    "channel_family": lambda config: config.campaign == "C3",
}

# C8 draws its scalar pairs from this interval regardless of the matrix
# spectrum range.
_C8_PAIR_RANGE = (0.1, 10.0)

# A chunk of samples holds up to CHUNK_BYTES of matrices, a sample budgeted
# as _SAMPLE_MATRICES complex matrices of the campaign's dimension, more than
# a stacked sampler holds per sample at once except C9, whose Lanczos basis
# takes it to about 50; at dimension 64 a chunk holds 2 samples, at dimension
# 4 it holds 512.  That covers the channel each C3 sample keeps until its
# chunk is done: one frame for a pinching, at most five unitaries for a
# mixed-unitary channel.
_SAMPLE_MATRICES = 32

# What a failed sample may raise and have recorded; anything else propagates.
_SAMPLE_ERRORS = (DomainError, NumericError, np.linalg.LinAlgError)


def _typed(name: str, value, kind: type):
    # A bool is an int to Python, but no count, seed or tolerance; an int
    # beyond the float range is no float.
    if type(value) is kind:
        return value
    try:
        if isinstance(value, bool) or not isinstance(
                value, {int: numbers.Integral, float: numbers.Real, bool: bool}[kind]):
            raise TypeError
        return kind(value)
    except (TypeError, OverflowError):
        raise ValueError(f"{name} must be of type {kind.__name__}, got {value!r}") from None


@dataclass(frozen=True)
class CampaignConfig:
    """Configuration of one verification campaign.

    ``normalize`` rescales every positive definite draw to unit trace;
    ``relative`` divides each margin by 1 + the Frobenius norms of the drawn
    inputs; ``channel_family`` restricts the C3 channel draw ("uniform" picks
    among the three families per sample).  Construction rejects an invalid
    field with ``ValueError``, then records unread settings by ``_READ``.
    """

    campaign: str
    d1: int = 2
    d2: int = 2
    samples: int = 200
    seed: int = 42
    tolerance: float = 1e-8
    function: str = "t_log_t"
    p: float = 1.5
    weights: tuple[float, ...] = (0.5, 0.25, 0.75)
    eig_low: float = 0.1
    eig_high: float = 3.0
    normalize: bool = False
    relative: bool = False
    channel_family: str = "uniform"

    def __post_init__(self):
        # Types first: a float seed would run the margins of its integer part,
        # a true tolerance as 1.0, and any non-empty string is a true flag.
        for kind, names in ((int, ("d1", "d2", "samples", "seed")), (bool, ("normalize", "relative")),
                            (float, ("tolerance", "p", "eig_low", "eig_high"))):
            for name in names:
                object.__setattr__(self, name, _typed(name, getattr(self, name), kind))
        try:  # a string is a sequence too, of one-character strings
            if isinstance(self.weights, str) or not isinstance(self.weights, (Sequence, np.ndarray)):
                raise ValueError
            object.__setattr__(self, "weights", tuple(_typed("weights", t, float) for t in self.weights))
        except (TypeError, ValueError):  # TypeError: iterating a 0-d array
            raise ValueError(f"weights must be a sequence of reals, got {self.weights!r}") from None
        for name, names in (("campaign", CAMPAIGN_IDS), ("channel_family", CHANNEL_FAMILIES),
                            ("function", BUILTIN_NAMES)):
            if getattr(self, name) not in names:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}; choose from {names}")
        self.space()  # bounds d1, d2 and the product
        if self.samples < 1:
            raise ValueError(f"samples must be positive, got {self.samples}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not 0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")
        if not self.weights or any(not 0.0 < t < 1.0 for t in self.weights):
            raise ValueError(f"segment weights must lie strictly inside (0, 1), got {self.weights}")
        if not 0 < self.eig_low <= self.eig_high < math.inf:
            raise ValueError(f"eigenvalue range eig_low={self.eig_low}, eig_high={self.eig_high} "
                             "must satisfy 0 < eig_low <= eig_high < inf")
        power(self.p)  # raises unless p is a valid exponent
        for name, read in _READ.items():
            if not read(self):
                default = getattr(CampaignConfig, name)
                if name == "function":
                    default = PRESET_FUNCTIONS[self.campaign]
                object.__setattr__(self, name, default)

    def space(self) -> BipartiteSpace:
        return BipartiteSpace(self.d1, self.d2)

    def scalar_function(self):
        return by_name(self.function, p=self.p)


@dataclass
class CampaignReport:
    """Outcome of one campaign.

    ``margins`` is ordered by sample index (successful samples only; failed
    ones are listed under ``errors`` with their sample, exception type and
    message), ``violations`` counts margins below ``-tolerance``, and
    ``witness`` carries the inputs achieving the worst margin plus the sample
    they came from.
    """

    config: CampaignConfig
    margins: list[float]
    violations: int
    worst_margin: float | None
    witness: dict | None
    errors: list[dict]
    wall_time: float


# A sampler takes the config and one stream per sample of a chunk, and
# returns the chunk's margins and one witness dict per sample; the witness
# holds the inputs of the sample's margin, its matrices first in drawing order.


def _draw_pd(config: CampaignConfig, streams, dim: int) -> np.ndarray:
    m = random_pd(dim, streams, (config.eig_low, config.eig_high))
    if config.normalize:
        m = m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None]
    return m


def _norms(witness: dict) -> float:
    # 1 + the Frobenius norms of the witness matrices, one norm per matrix.
    return 1.0 + sum(float(np.linalg.norm(v)) for v in witness.values()
                     if isinstance(v, np.ndarray))


def _sample_c1(config: CampaignConfig, streams):
    space = config.space()
    gap = EntropyGapSpec(config.scalar_function(), space)
    rho = _draw_pd(config, streams, space.dim)
    sigma = _draw_pd(config, streams, space.dim)
    t = np.array(config.weights)[:, None]  # one row per weight
    chord = t * entropy_gap(rho, gap) + (1.0 - t) * entropy_gap(sigma, gap)
    mixed = t[..., None, None] * rho + (1.0 - t[..., None, None]) * sigma
    slack = chord - _entropy_gap(mixed, gap)
    worst = slack.argmin(axis=0)  # the first weight of the smallest slack
    margins = slack[worst, np.arange(len(rho))]
    witnesses = [{"rho": r, "sigma": s, "weight": config.weights[k]}
                 for r, s, k in zip(rho, sigma, worst)]
    return margins.tolist(), witnesses


def _sample_c2(config: CampaignConfig, streams):
    space = config.space()
    gap = EntropyGapSpec(config.scalar_function(), space)
    rho = _draw_pd(config, streams, space.dim)
    h = random_hermitian(space.dim, streams)
    margins = second_differential_spectral(rho, h, gap)
    return margins.tolist(), [{"rho": r, "h": d} for r, d in zip(rho, h)]


def _sample_c3(config: CampaignConfig, streams):
    space = config.space()
    func = config.scalar_function()
    x = _draw_pd(config, streams, space.dim)
    h = random_hermitian(space.dim, streams)
    witnesses = []
    for rng, xi, hi in zip(streams, x, h):
        family = config.channel_family
        if family == "uniform":
            family = ("pinching", "expectation", "mixed")[int(rng.gen.integers(0, 3))]
        # A pinching's frame and a mixed channel's unitaries, the stream's
        # last draws, come below.
        if family == "pinching":
            channel = _random_labels(space.dim, rng)
        elif family == "expectation":
            channel = ConditionalExpectation1(space)
        else:
            channel = _random_weights(rng, int(rng.gen.integers(2, 6)))
        witnesses.append({"x": xi, "h": hi, "family": family, "channel": channel})
    families = np.array([w["family"] for w in witnesses])
    pinched = np.flatnonzero(families == "pinching")
    if pinched.size:
        frames = random_unitary(space.dim, [streams[j] for j in pinched])
        labels = np.stack([witnesses[j]["channel"] for j in pinched])
        for j, frame, block_labels in zip(pinched, frames, labels):
            witnesses[j]["channel"] = Pinching(frame, block_labels)
    mixed = np.flatnonzero(families == "mixed")
    if mixed.size:
        # Each channel's terms, consecutive in one stack: its weights, then
        # its unitaries drawn from its stream repeated once per term.
        weights = np.concatenate([witnesses[j]["channel"] for j in mixed])
        counts = np.array([len(witnesses[j]["channel"]) for j in mixed])
        unitaries = random_unitary(space.dim, [streams[j] for j in np.repeat(mixed, counts)])
        starts = np.cumsum(counts) - counts
        for j, w, u in zip(mixed, np.split(weights, starts[1:]), np.split(unitaries, starts[1:])):
            witnesses[j]["channel"] = MixedUnitaryChannel(w, u)
    before = quad_form(func, x, h)
    pair = np.stack([x, h])  # replaced by the channel outputs, a family at a time
    if pinched.size:
        pair[:, pinched] = hermitize(_pinch(frames, labels, pair[:, pinched]))
    expected = families == "expectation"
    pair[:, expected] = conditional_expectation_1(pair[:, expected], space)
    if mixed.size:
        for m in np.unique(counts):  # the channels of m terms as one stack
            terms = starts[counts == m, None] + np.arange(m)
            group = mixed[counts == m]
            pair[:, group] = hermitize(_mix_unitaries(weights[terms], unitaries[terms],
                                                      pair[:, group]))
    return (before - quad_form(func, pair[0], pair[1])).tolist(), witnesses


def _q_midpoint_margin(func, x1, h1, x2, h2, spectral=None):
    """(Q(x1, h1) + Q(x2, h2)) / 2 - Q(midpoint, midpoint), per matrix.

    The three forms are evaluated as one stack, from ``spectral`` (see
    :func:`_midpoint_spectral`) where the caller has it.  The inputs must be
    stored Hermitian already; they are not checked again.
    """
    q = _quad_form(func, np.stack([x1, x2, (x1 + x2) / 2.0]),
                   np.stack([h1, h2, (h1 + h2) / 2.0]), spectral)
    return (0.5 * q[0] + 0.5 * q[1]) - q[2]


def _midpoint_spectral(func, x1, x2):
    # The Loewner kernels of f' and the eigenbases of x1, x2 and their
    # midpoint, stacked on the first axis.
    dec = _eigh(np.stack([x1, x2, (x1 + x2) / 2.0]))
    return loewner(func, "f1", dec.eigenvalues), dec.basis


def _pair_inner(a, b) -> np.ndarray:
    # Re tr(a^H b) summed over the two matrices of a direction pair, per sample.
    return np.sum(a.real * b.real + a.imag * b.imag, axis=(-3, -2, -1))


def _lowest_directions(func, x1, h1, x2, h2, spectral=None):
    """C9's directions: the lowest Ritz vector, of the drawn pair's norm, of
    the midpoint margin ``<v, A v>`` in ``v = (h1, h2)``, where
    ``A v = (L1 h1 - Lm g, L2 h2 - Lm g) / 2``, ``g = (h1 + h2) / 2`` and
    ``L_x h = U (K o U^H h U) U^H`` with ``K`` the Loewner kernel of ``f'``.

    Lanczos takes ``min(8, 2 n^2)`` steps from the drawn pair.  The basis is
    one array, read in the real coordinates of the pairs, and each new vector
    is orthogonalized twice against all of it at once (classical Gram-Schmidt
    twice, as stable as orthogonalizing against one vector after another).
    ``A v`` is hermitized, and so is the Ritz vector, so the witness is stored
    Hermitian.  ``spectral`` is :func:`_midpoint_spectral`, where the caller
    has it.
    """
    kernel, u = _midpoint_spectral(func, x1, x2) if spectral is None else spectral
    kernel, u = np.moveaxis(kernel, 0, 1), np.moveaxis(u, 0, 1)  # sample first
    uh = _adjoint(u)
    count, steps = len(x1), min(8, 2 * x1.shape[-1] ** 2)
    t = np.zeros((count, steps, steps))  # tridiagonal; eigh reads its lower triangle
    basis = np.zeros((count, steps, 2) + x1.shape[1:], dtype=complex)
    real = basis.view(float).reshape(count, steps, -1)  # the same memory
    drawn = np.stack([h1, h2], axis=1)
    norm = np.sqrt(_pair_inner(drawn, drawn))[:, None, None, None]
    basis[:, 0] = drawn / norm
    for j in range(steps):
        q = basis[:, j]
        g = np.stack([q[:, 0], q[:, 1], (q[:, 0] + q[:, 1]) / 2.0], axis=1)
        lg = u @ (kernel * (uh @ g @ u)) @ uh
        w = hermitize(0.5 * (lg[:, :2] - lg[:, 2:])).view(float).reshape(count, 1, -1)
        block = real[:, :j + 1]
        overlaps = w @ block.swapaxes(1, 2)
        t[:, j, j] = overlaps[:, 0, j]
        if j + 1 == steps:
            break
        w -= overlaps @ block
        w -= (w @ block.swapaxes(1, 2)) @ block
        t[:, j + 1, j] = beta = np.sqrt(np.sum(w * w, axis=(1, 2)))
        # A zero w has exhausted the Krylov space; it stays zero.
        real[:, j + 1] = w[:, 0] / np.where(beta > 0, beta, 1.0)[:, None]
    ritz = _eigh(t).basis[:, None, :, 0]  # the coefficients of the lowest Ritz vector
    v = hermitize(norm * (ritz @ real).view(complex).reshape(drawn.shape))
    return v[:, 0], v[:, 1]


def _sample_c4(config: CampaignConfig, streams, lowest: bool = False):
    dim = config.space().dim
    x1 = _draw_pd(config, streams, dim)
    h1 = random_hermitian(dim, streams)
    x2 = _draw_pd(config, streams, dim)
    h2 = random_hermitian(dim, streams)
    for m, name in ((x1, "matrix"), (h1, "direction"), (x2, "matrix"), (h2, "direction")):
        check_hermitian(m, name)
    func = config.scalar_function()
    spectral = None
    if lowest:  # the margin reuses the base points' decompositions
        spectral = _midpoint_spectral(func, x1, x2)
        h1, h2 = _lowest_directions(func, x1, h1, x2, h2, spectral)
    margins = _q_midpoint_margin(func, x1, h1, x2, h2, spectral)
    return margins.tolist(), [dict(zip(("x1", "h1", "x2", "h2"), m)) for m in zip(x1, h1, x2, h2)]


def _sample_c9(config: CampaignConfig, streams):
    return _sample_c4(config, streams, lowest=True)


def _congruence_inverse(a, b) -> np.ndarray:
    # (A, B) -> B^H A^-1 B, Hermitian positive semidefinite for any B.
    return hermitize(_adjoint(b) @ np.linalg.solve(a, b))


def _sample_c7(config: CampaignConfig, streams):
    dim = config.space().dim
    a1 = _draw_pd(config, streams, dim)
    b1 = random_hermitian(dim, streams) + 1j * random_hermitian(dim, streams)
    a2 = _draw_pd(config, streams, dim)
    b2 = random_hermitian(dim, streams) + 1j * random_hermitian(dim, streams)
    for a in (a1, a2):
        check_hermitian(a)
    defect = (
        0.5 * _congruence_inverse(a1, b1)
        + 0.5 * _congruence_inverse(a2, b2)
        - _congruence_inverse((a1 + a2) / 2.0, (b1 + b2) / 2.0)
    )
    margins = _eigvalsh(defect).min(axis=-1)
    witnesses = [{"a1": m1, "b1": n1, "a2": m2, "b2": n2} for m1, n1, m2, n2 in zip(a1, b1, a2, b2)]
    return margins.tolist(), witnesses


def _sample_c8(config: CampaignConfig, streams):
    dim = config.space().dim
    lo, hi = _C8_PAIR_RANGE
    s, t = np.array([rng.gen.uniform(lo, hi, size=2) for rng in streams]).T
    dd_gaps = np.abs(divided_difference(LOG, "f", s, t) - dd_log_quadrature(s, t))
    a = _draw_pd(config, streams, dim)
    h = random_hermitian(dim, streams)
    references = log_quad_form_quadrature(a, h)
    qf_gaps = np.abs(quad_form(T_LOG_T, a, h) - references) / np.abs(references)
    witnesses = [{"s": si, "t": ti, "a": ai, "h": hi}
                 for si, ti, ai, hi in zip(s.tolist(), t.tolist(), a, h)]
    return (-np.maximum(dd_gaps, qf_gaps)).tolist(), witnesses


_SAMPLERS = {
    "C1": _sample_c1,
    "C2": _sample_c2,
    "C3": _sample_c3,
    "C4": _sample_c4,
    "C5": _sample_c1,
    "C6": _sample_c1,
    "C7": _sample_c7,
    "C8": _sample_c8,
    "C9": _sample_c9,
}


def _chunk_samples(dim: int) -> int:
    return max(1, CHUNK_BYTES // (_SAMPLE_MATRICES * 16 * dim * dim))


def _evaluate(config: CampaignConfig, indices, errors: list) -> list:
    """``(index, margin, witness)`` of each sample in ``indices`` that succeeds.

    The samples are evaluated as one chunk; a non-finite margin counts as a
    ``NumericError`` (the samplers validate their draws, so this is a net for
    what their checks miss).
    If the chunk raises, each sample is evaluated again as a chunk of one,
    and each failure is appended to ``errors`` against its own sample.
    """
    streams = RngStream.chunk(config.seed, indices)
    try:
        margins, witnesses = _SAMPLERS[config.campaign](config, streams)
        for margin in margins:
            if not math.isfinite(margin):
                raise NumericError(f"margin is not finite: {margin!r}")
    except _SAMPLE_ERRORS as exc:
        if len(indices) > 1:
            return [outcome for index in indices
                    for outcome in _evaluate(config, [index], errors)]
        kind = type(exc).__name__
        errors.append({"sample": indices[0], "type": kind, "message": f"{kind}: {exc}"})
        return []
    return list(zip(indices, margins, witnesses))


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Run one campaign and assemble its report.

    Samples are evaluated chunk by chunk and recorded in sample order.  A
    sample whose evaluation raises a domain, numeric or LAPACK error is
    recorded under ``errors`` and the campaign continues.
    """
    start = perf_counter()
    margins: list[float] = []
    errors: list[dict] = []
    worst = None  # (margin, sample, witness) of the first smallest margin
    size = _chunk_samples(config.space().dim)
    for first in range(0, config.samples, size):
        indices = range(first, min(first + size, config.samples))
        for index, margin, witness in _evaluate(config, indices, errors):
            if config.relative:
                margin = margin / _norms(witness)
            margins.append(margin)
            if worst is None or margin < worst[0]:
                worst = (margin, index, witness)

    witness = None
    if worst is not None:
        witness = dict(worst[2])
        witness["sample"] = worst[1]
    return CampaignReport(
        config=config,
        margins=margins,
        violations=int(sum(1 for m in margins if m < -config.tolerance)),
        worst_margin=None if worst is None else worst[0],
        witness=witness,
        errors=errors,
        wall_time=perf_counter() - start,
    )
