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
chunk of one sample raises what that sample raises.  It returns one array of
margins and per-sample stacks of inputs, and only the worst witness is built.

C1, C5 and C6 take the gaps of both states and every mixture in one
``entropy_gap`` call.  C3 groups a chunk's samples by channel family and term
count; each group's channels are one stack from one ``random_pinching`` or
``random_mixed_unitary`` call (frames and unitaries being the streams' last
draws), applied in one ``apply_channel`` call.  C4 takes the curvature
operators of both base points and their midpoint as one stack from one
``eigh`` call, and C9 reuses that stack for its Lanczos steps and its margin.
The pinching and C9's Lanczos step apply the one Schur multiplier,
``linalg._schur``, that ``frechet_derivative`` applies, and every curvature
form is its quadratic form.  C8's resolvent reference takes the chunk as one
stack.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from time import perf_counter

import numpy as np

from .bipartite import (
    BipartiteSpace,
    ConditionalExpectation1,
    apply_channel,
    random_mixed_unitary,
    random_pinching,
)
from .calculus import (
    BUILTIN_NAMES,
    LOG,
    T_LOG_T,
    _curvature,
    _quad_form,
    by_name,
    divided_difference,
    power,
    quad_form,
)
from .entropy import EntropyGapSpec, entropy_gap, second_differential_spectral
from .errors import DomainError, NumericError
from .linalg import (
    CHUNK_BYTES,
    RngStream,
    _adjoint,
    _draw,
    _eigh,
    _eigvalsh,
    _schur,
    check_hermitian,
    hermitize,
    random_hermitian,
    random_pd,
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


# A sampler takes the config and one stream per sample of a chunk and returns
# its margins as one float array and its inputs as per-sample stacks by name,
# matrices first in drawing order: a (count, n, n) array of matrices, a list of
# anything else.  Sample k's witness is {name: stack[k]}.


def _draw_pd(config: CampaignConfig, streams, dim: int) -> np.ndarray:
    m = random_pd(dim, streams, (config.eig_low, config.eig_high))
    if config.normalize:
        m = m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None]
    return m


def _scales(inputs: dict) -> np.ndarray:
    # 1 + each sample's Frobenius norms, one matrix at a time: a stacked norm differs in bits.
    stacks = [v for v in inputs.values() if isinstance(v, np.ndarray)]
    return np.array([1.0 + sum(float(np.linalg.norm(m)) for m in matrices)
                     for matrices in zip(*stacks)])


def _sample_c1(config: CampaignConfig, streams):
    space = config.space()
    gap = EntropyGapSpec(config.scalar_function(), space)
    rho = _draw_pd(config, streams, space.dim)
    sigma = _draw_pd(config, streams, space.dim)
    t = np.array(config.weights)[:, None]  # one row per weight
    mixed = t[..., None, None] * rho + (1.0 - t[..., None, None]) * sigma
    gaps = entropy_gap(np.concatenate([rho[None], sigma[None], mixed]), gap)
    slack = (t * gaps[0] + (1.0 - t) * gaps[1]) - gaps[2:]
    worst = slack.argmin(axis=0)  # the first weight of the smallest slack
    margins = slack[worst, np.arange(len(rho))]
    return margins, {"rho": rho, "sigma": sigma, "weight": t[worst, 0].tolist()}


def _sample_c2(config: CampaignConfig, streams):
    space = config.space()
    gap = EntropyGapSpec(config.scalar_function(), space)
    rho = _draw_pd(config, streams, space.dim)
    h = random_hermitian(space.dim, streams)
    return second_differential_spectral(rho, h, gap), {"rho": rho, "h": h}


def _sample_c3(config: CampaignConfig, streams):
    space = config.space()
    x = _draw_pd(config, streams, space.dim)
    h = random_hermitian(space.dim, streams)
    families, channels = [], [None] * len(streams)
    groups = {}  # the samples of each (family, term count)
    for j, rng in enumerate(streams):
        family = config.channel_family
        if family == "uniform":
            family = ("pinching", "expectation", "mixed")[int(rng.gen.integers(0, 3))]
        terms = int(rng.gen.integers(2, 6)) if family == "mixed" else 0
        groups.setdefault((family, terms), []).append(j)
        families.append(family)
    pair = np.stack([x, h])
    outputs = np.empty_like(pair)
    for (family, terms), group in groups.items():  # each stream's last draws
        members = [streams[j] for j in group]
        if family == "pinching":
            channel = random_pinching(space.dim, members)
        elif family == "mixed":
            channel = random_mixed_unitary(space.dim, members, terms)
        else:
            channel = ConditionalExpectation1(space)
        outputs[:, group] = apply_channel(channel, pair[:, group])
        for k, j in enumerate(group):
            channels[j] = channel if family == "expectation" else channel[k]
    q = quad_form(config.scalar_function(), np.stack([x, outputs[0]]), np.stack([h, outputs[1]]))
    return q[0] - q[1], {"x": x, "h": h, "family": families, "channel": channels}


def _q_midpoint_margin(kernel, basis, h1, h2):
    """(Q(x1, h1) + Q(x2, h2)) / 2 - Q(midpoint, midpoint), per matrix, from
    the curvature stack of ``(x1, x2, (x1 + x2) / 2)`` on axis -3."""
    q = _quad_form(kernel, basis, np.stack([h1, h2, (h1 + h2) / 2.0], axis=-3))
    return (0.5 * q[..., 0] + 0.5 * q[..., 1]) - q[..., 2]


def _pair_inner(a, b) -> np.ndarray:
    # Re tr(a^H b) summed over the two matrices of a direction pair, per sample.
    return np.sum(a.real * b.real + a.imag * b.imag, axis=(-3, -2, -1))


def _lowest_directions(kernel, basis, h1, h2):
    """C9's directions: the lowest Ritz vector, of the drawn pair's norm, of
    the midpoint margin ``<v, A v>`` in ``v = (h1, h2)``, where
    ``A v = (L1 h1 - Lm g, L2 h2 - Lm g) / 2``, ``g = (h1 + h2) / 2`` and
    ``L_x`` is the curvature operator at ``x``, from the curvature stack of
    :func:`_q_midpoint_margin`.

    Lanczos takes ``min(8, 2 n^2)`` steps from the drawn pair.  Its basis is
    one array, read in the real coordinates of the pairs, and each new vector
    is orthogonalized twice against all of it at once (classical Gram-Schmidt
    twice, as stable as orthogonalizing against one vector after another).
    ``A v`` is hermitized, and so is the Ritz vector, so the witness is stored
    Hermitian.
    """
    count, steps = len(h1), min(8, 2 * h1.shape[-1] ** 2)
    t = np.zeros((count, steps, steps))  # tridiagonal; eigh reads its lower triangle
    lanczos = np.zeros((count, steps, 2) + h1.shape[1:], dtype=complex)
    real = lanczos.view(float).reshape(count, steps, -1)  # the same memory
    drawn = np.stack([h1, h2], axis=1)
    norm = np.sqrt(_pair_inner(drawn, drawn))[:, None, None, None]
    lanczos[:, 0] = drawn / norm
    for j in range(steps):
        q = lanczos[:, j]
        lg = _schur(basis, kernel, np.stack([q[:, 0], q[:, 1], (q[:, 0] + q[:, 1]) / 2.0], axis=1))
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
    curvature = _curvature(config.scalar_function(), np.stack([x1, x2, (x1 + x2) / 2.0], axis=-3))
    if lowest:
        h1, h2 = _lowest_directions(*curvature, h1, h2)
    return _q_midpoint_margin(*curvature, h1, h2), {"x1": x1, "h1": h1, "x2": x2, "h2": h2}


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
    return _eigvalsh(defect).min(axis=-1), {"a1": a1, "b1": b1, "a2": a2, "b2": b2}


def _sample_c8(config: CampaignConfig, streams):
    dim = config.space().dim
    lo, hi = _C8_PAIR_RANGE
    s, t = _draw(streams, lambda gen: gen.uniform(lo, hi, size=2)).T
    dd_gaps = np.abs(divided_difference(LOG, "f", s, t) - dd_log_quadrature(s, t))
    a = _draw_pd(config, streams, dim)
    h = random_hermitian(dim, streams)
    references = log_quad_form_quadrature(a, h)
    qf_gaps = np.abs(quad_form(T_LOG_T, a, h) - references) / np.abs(references)
    return -np.maximum(dd_gaps, qf_gaps), {"s": s.tolist(), "t": t.tolist(), "a": a, "h": h}


_SAMPLERS = {
    "C1": _sample_c1,
    "C2": _sample_c2,
    "C3": _sample_c3,
    "C4": _sample_c4,
    "C5": _sample_c1,
    "C6": _sample_c1,
    "C7": _sample_c7,
    "C8": _sample_c8,
    "C9": partial(_sample_c4, lowest=True),
}


def _chunk_samples(dim: int) -> int:
    return max(1, CHUNK_BYTES // (_SAMPLE_MATRICES * 16 * dim * dim))


def _attempt(config: CampaignConfig, indices):
    # The (indices, margins, inputs) block of a chunk, or the error it raises.
    # A non-finite margin is a NumericError, a net for what the samplers'
    # checks of their draws miss.
    streams = RngStream.chunk(config.seed, indices)
    try:
        margins, inputs = _SAMPLERS[config.campaign](config, streams)
        finite = np.isfinite(margins)
        if not finite.all():
            raise NumericError(f"margin is not finite: {float(margins[~finite][0])!r}")
    except _SAMPLE_ERRORS as exc:
        return exc
    return indices, margins, inputs


def _evaluate(config: CampaignConfig, indices, errors: list, raised=None) -> list:
    """``(indices, margins, inputs)`` blocks, as a sampler returns them, of
    the samples in ``indices`` that succeed, each failure appended to
    ``errors`` against its own sample; ``raised`` is the error the chunk is
    already known to raise.  A chunk that raises is split in halves, and
    each half that raises is split again, so one failing sample of n costs
    2 log2(n) + 1 sampler calls.  Once both halves of a block raise, its
    samples run one at a time instead, so however many fail, the chunk
    costs at most about three times its samples.
    """
    if raised is None:
        raised = _attempt(config, indices)
        if not isinstance(raised, Exception):
            return [raised]
    if len(indices) == 1:
        kind = type(raised).__name__
        errors.append({"sample": indices[0], "type": kind, "message": f"{kind}: {raised}"})
        return []
    half = len(indices) // 2
    parts = [indices[:half], indices[half:]]
    outcomes = [_attempt(config, part) for part in parts]
    both = all(isinstance(outcome, Exception) for outcome in outcomes)
    blocks = []
    for part, outcome in zip(parts, outcomes):
        if not isinstance(outcome, Exception):
            blocks.append(outcome)
        elif both and len(part) > 1:
            blocks.extend(block for k in range(len(part)) for block in _evaluate(config, part[k:k + 1], errors))
        else:
            blocks.extend(_evaluate(config, part, errors, outcome))
    return blocks


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Run one campaign and assemble its report.

    Samples are evaluated chunk by chunk, each chunk's margins scaled,
    counted and searched as one block, and recorded in sample order.  A
    sample whose evaluation raises a domain, numeric or LAPACK error is
    recorded under ``errors`` and the campaign continues.
    """
    start = perf_counter()
    margins: list[float] = []
    errors: list[dict] = []
    violations, worst, witness = 0, None, None  # worst: the first smallest margin
    size = _chunk_samples(config.space().dim)
    for first in range(0, config.samples, size):
        indices = range(first, min(first + size, config.samples))
        for block, values, inputs in _evaluate(config, indices, errors):
            if config.relative:
                values = values / _scales(inputs)
            margins.extend(values.tolist())
            violations += int(np.count_nonzero(values < -config.tolerance))
            k = int(values.argmin())
            if worst is None or values[k] < worst:
                worst = float(values[k])
                witness = {name: stack[k] for name, stack in inputs.items()}
                witness["sample"] = block[k]
    return CampaignReport(
        config=config,
        margins=margins,
        violations=violations,
        worst_margin=worst,
        witness=witness,
        errors=errors,
        wall_time=perf_counter() - start,
    )
