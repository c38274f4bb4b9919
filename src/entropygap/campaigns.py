"""Seeded randomized campaigns certifying convexity and monotonicity of the
entropy-gap calculus.

Each campaign draws ``samples`` independent test cases, evaluates the signed
slack ("margin") of one inequality per case, and reports the margins, the
violation count, and the inputs achieving the worst margin.  A margin ``m``
of scale ``S``, the sum of the magnitudes of the terms it subtracts, passes
when ``m >= -tolerance * min(1, S)``; below that it is a violation if also
``m < -_ROUNDING * S``, its rounding error's bound, else a NumericError.

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
           difference above the tolerance is a violation (its scale is 1); a
           base point too ill-conditioned for the quadrature (condition
           number beyond about 1e9) is a NumericError
C9         C4 with f = t**3 as a falsification search: C4's draws, with the
           directions replaced by the lowest Ritz vector of the margin as a
           quadratic form in (h1, h2), of the drawn norm; a violation is the
           expected outcome, absence of one is inconclusive
=========  ===================================================================

C5 and C6 are presets that run C1's draw and margin, and C9 C4's draw, with the
function their row of ``_CAMPAIGNS`` fixes; C7 uses none and C8 that of t log t.
Invalid values are rejected for every campaign; a config records a setting only
where its campaign reads it, else its default (for ``function``, the row's).

C1-C3, C5 and C6 use the bipartite split (d1, d2); C4 and C7-C9 use only the
dimension d1 * d2.  Per-sample randomness comes from ``RngStream(seed, sample_index)``,
so dropping a sample never changes the draws of the others and margin lists
are reproducible bit-for-bit for a fixed config.  A chunk's streams are built
by ``RngStream.chunk``, which seeds them all in one pass with the same words.

Each campaign is a draw and a margin, evaluated in chunks of up to
:data:`CHUNK_BYTES` of matrices.  Every sample of a chunk draws from its own
stream, which fills that sample's row of each drawn stack in place with the
values it would draw alone, and the margin then checks the whole chunk's
inputs and computes its margins on stacks of matrices.  Stacked routines give
each matrix the bits it gets alone, so margins do not depend on the chunk
size, and :func:`replay` recomputes a report's worst margin bit for bit from
its witness, as stacks of one, through the same margin.  A chunk makes the
calls that one sample would make alone, in the same order, so a chunk of one
sample raises what that sample raises; only the worst witness is built.  A
chunk whose sampler call raises is bisected plainly, down to the samples that
raise alone, at 2n - 1 sampler calls when all n of its samples raise; a
margin's verdict, a NumericError included, is judged in the chunk that
computed it, which is not drawn again.

C1, C5 and C6 take the gaps and scales of both states and every mixture in
one ``_gap_and_scale`` call.  C3 groups a chunk's samples by channel family and term
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
from collections.abc import Callable, Sequence
from dataclasses import dataclass, fields
from functools import partial
from time import perf_counter
from typing import NamedTuple

import numpy as np

from .bipartite import (
    BipartiteSpace,
    ConditionalExpectation1,
    MixedUnitaryChannel,
    Pinching,
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
from .entropy import EntropyGapSpec, _gap_and_scale, _second_differential_terms
from .errors import DomainError, NumericError
from .linalg import (
    CHUNK_BYTES,
    RngStream,
    _adjoint,
    _check_pair,
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

CHANNEL_FAMILIES = ("pinching", "expectation", "mixed", "uniform")

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

# A margin's rounding error is at most this multiple of its scale: on inputs
# whose exact margin is 0, |margin| / (eps * scale) reached 11.3 (see README).
_ROUNDING = 16 * np.finfo(float).eps


def _typed(name: str, value, kind: type):
    # A bool is an int to Python, but no count, seed or tolerance; an int
    # beyond the float range is no float.
    if type(value) is kind:
        return value
    try:
        if isinstance(value, bool) or not isinstance(
                value, {int: numbers.Integral, float: numbers.Real}[kind]):
            raise TypeError
        return kind(value)
    except (TypeError, OverflowError):
        raise ValueError(f"{name} must be of type {kind.__name__}, got {value!r}") from None


@dataclass(frozen=True)
class CampaignConfig:
    """Configuration of one verification campaign.

    ``tolerance`` is the violation threshold of a margin of scale at least
    1, and ``tolerance * scale`` that of a smaller one; ``channel_family``
    restricts the C3 channel draw ("uniform" picks among the three families
    per sample).  Construction rejects an invalid field with ``ValueError``,
    then records unread settings by its campaign's row.
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
    channel_family: str = "uniform"

    def __post_init__(self):
        # Types first: a float seed would run the margins of its integer part,
        # and a true tolerance as 1.0.
        for kind, names in ((int, ("d1", "d2", "samples", "seed")),
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
        row = _CAMPAIGNS[self.campaign]
        object.__setattr__(self, "function", row.function or self.function)
        for name in _ROW_SETTINGS + ("p",):  # p is read where the function is power
            if name not in row.reads and (name != "p" or self.function != "power"):
                object.__setattr__(self, name, getattr(CampaignConfig, name))

    def space(self) -> BipartiteSpace:
        return BipartiteSpace(self.d1, self.d2)

    def scalar_function(self):
        return by_name(self.function, p=self.p)


@dataclass
class CampaignReport:
    """Outcome of one campaign.

    ``margins`` is ordered by sample index (successful samples only; failed
    ones are listed under ``errors`` with their sample, exception type and
    message), ``violations`` counts margins below their threshold, and
    ``witness`` carries the inputs achieving the worst margin, its scale and
    the sample they came from.
    """

    config: CampaignConfig
    margins: list[float]
    violations: int
    worst_margin: float | None
    witness: dict | None
    errors: list[dict]
    wall_time: float


# A draw takes the config and one stream per sample of a chunk and returns its
# inputs as per-sample stacks by name, matrices first in drawing order: a
# (count, n, n) array of matrices, a sequence of anything else.  A margin checks
# such inputs, adds their "scale", and returns one float array.  Sample k's
# witness is {name: stack[k]}, and replay runs it, as stacks of one, through its margin.


def _draw_pd(config: CampaignConfig, streams, dim: int) -> np.ndarray:
    return random_pd(dim, streams, (config.eig_low, config.eig_high))


def _scaled(inputs: dict, margins, *terms) -> np.ndarray:
    # The margins, once inputs holds their scale: the summed magnitudes of their terms.
    inputs["scale"] = sum(map(np.abs, terms)).tolist()
    return margins


def _draw_c1(config: CampaignConfig, streams) -> dict:
    dim = config.space().dim
    return {"rho": _draw_pd(config, streams, dim), "sigma": _draw_pd(config, streams, dim)}


def _margin_c1(config: CampaignConfig, inputs: dict) -> np.ndarray:
    rho, sigma = inputs["rho"], inputs["sigma"]
    gap = EntropyGapSpec(config.scalar_function(), config.space())
    t = np.array(config.weights)[:, None]  # one row per weight
    mixed = t[..., None, None] * rho + (1.0 - t[..., None, None]) * sigma
    gaps, scales = _gap_and_scale(np.concatenate([rho[None], sigma[None], mixed]), gap)
    slack = (t * gaps[0] + (1.0 - t) * gaps[1]) - gaps[2:]
    worst = slack.argmin(axis=0)  # the first weight of the smallest slack
    inputs["weight"] = t[worst, 0].tolist()
    return _scaled(inputs, slack[worst, np.arange(len(rho))], scales[0], scales[1])  # those of rho and sigma


def _draw_c2(config: CampaignConfig, streams) -> dict:
    dim = config.space().dim
    return {"rho": _draw_pd(config, streams, dim), "h": random_hermitian(dim, streams)}


def _margin_c2(config: CampaignConfig, inputs: dict) -> np.ndarray:
    gap = EntropyGapSpec(config.scalar_function(), config.space())
    composite, marginal = _second_differential_terms(inputs["rho"], inputs["h"], gap)
    return _scaled(inputs, composite - marginal, composite, marginal)


class _Members(Sequence):
    """Each sample's channel of a C3 chunk, built only when indexed, from the
    ``(channel, indices)`` of its group: member ``k`` of that stack of channels
    for sample ``indices[k]``, or the one conditional expectation."""

    def __init__(self, groups: list):
        self.groups = groups
        self._placed = sorted((j, k, channel) for channel, indices in groups for k, j in enumerate(indices))

    def __len__(self) -> int:
        return len(self._placed)

    def __getitem__(self, j):
        _, k, channel = self._placed[j]
        return channel if isinstance(channel, ConditionalExpectation1) else channel[k]


def _draw_c3(config: CampaignConfig, streams) -> dict:
    space = config.space()
    x = _draw_pd(config, streams, space.dim)
    h = random_hermitian(space.dim, streams)
    families, groups = [], {}  # groups: the samples of each (family, term count)
    for j, rng in enumerate(streams):
        family = config.channel_family
        if family == "uniform":
            family = ("pinching", "expectation", "mixed")[int(rng.gen.integers(0, 3))]
        terms = int(rng.gen.integers(2, 6)) if family == "mixed" else 0
        groups.setdefault((family, terms), []).append(j)
        families.append(family)
    channels = []
    for (family, terms), group in groups.items():  # each stream's last draws
        members = [streams[j] for j in group]
        if family == "pinching":
            channel = random_pinching(space.dim, members)
        elif family == "mixed":
            channel = random_mixed_unitary(space.dim, members, terms)
        else:
            channel = ConditionalExpectation1(space)
        channels.append((channel, group))
    return {"x": x, "h": h, "family": families, "channel": _Members(channels)}


_FAMILY_OF = {Pinching: "pinching", ConditionalExpectation1: "expectation", MixedUnitaryChannel: "mixed"}


def _margin_c3(config: CampaignConfig, inputs: dict) -> np.ndarray:
    # A plain sequence of channels, as a replayed witness holds, is one group
    # per channel.  Each sample's family is derived from its channel's kind.
    x, h, channels = inputs["x"], inputs["h"], inputs["channel"]
    groups = getattr(channels, "groups", None) or [(channel, [j]) for j, channel in enumerate(channels)]
    pair = np.stack([x, h])
    outputs = np.empty_like(pair)
    families = [None] * len(x)
    for channel, group in groups:
        outputs[:, group] = apply_channel(channel, pair[:, group])
        for j in group:
            families[j] = _FAMILY_OF[type(channel)]
    inputs["family"] = families
    q = quad_form(config.scalar_function(), np.stack([x, outputs[0]]), np.stack([h, outputs[1]]))
    return _scaled(inputs, q[0] - q[1], q[0], q[1])


def _q_midpoint_margin(curvature, h1, h2, inputs=None):
    """(Q(x1, h1) + Q(x2, h2)) / 2 - Q(midpoint, midpoint), per matrix, from
    the curvature stack of ``(x1, x2, (x1 + x2) / 2)`` on axis -3; its scale
    is written into ``inputs``, where given."""
    q = _quad_form(*curvature, np.stack([h1, h2, (h1 + h2) / 2.0], axis=-3))
    terms = 0.5 * q[..., 0], 0.5 * q[..., 1], q[..., 2]
    return _scaled({} if inputs is None else inputs, (terms[0] + terms[1]) - terms[2], *terms)


def _pair_inner(a, b) -> np.ndarray:
    # Re tr(a^H b) summed over the two matrices of a direction pair, per sample.
    return np.sum(a.real * b.real + a.imag * b.imag, axis=(-3, -2, -1))


def _lowest_directions(curvature, h1, h2):
    """C9's directions: the lowest Ritz vector, of the drawn pair's norm, of
    the midpoint margin ``<v, A v>`` in ``v = (h1, h2)``, where
    ``A v = (L1 h1 - Lm g, L2 h2 - Lm g) / 2``, ``g = (h1 + h2) / 2`` and
    ``L_x`` is the curvature operator at ``x``, from the curvature stack of
    :func:`_midpoint_curvature`.

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
        lg = _schur(*curvature, np.stack([q[:, 0], q[:, 1], (q[:, 0] + q[:, 1]) / 2.0], axis=1))
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


def _draw_c4(config: CampaignConfig, streams) -> dict:
    dim = config.space().dim
    return {"x1": _draw_pd(config, streams, dim), "h1": random_hermitian(dim, streams),
            "x2": _draw_pd(config, streams, dim), "h2": random_hermitian(dim, streams)}


def _midpoint_curvature(config: CampaignConfig, inputs: dict):
    # The curvature stack of the checked pairs' x1, x2 and midpoint, which C9's Lanczos steps share.
    x1, x2 = inputs["x1"], inputs["x2"]
    for x, h in ((x1, inputs["h1"]), (x2, inputs["h2"])):
        _check_pair(x, h)
    return _curvature(config.scalar_function(), np.stack([x1, x2, (x1 + x2) / 2.0], axis=-3))


def _margin_c4(config: CampaignConfig, inputs: dict) -> np.ndarray:
    return _q_midpoint_margin(_midpoint_curvature(config, inputs), inputs["h1"], inputs["h2"], inputs)


def _margin_c9(config: CampaignConfig, inputs: dict) -> np.ndarray:
    curvature = _midpoint_curvature(config, inputs)
    inputs["h1"], inputs["h2"] = _lowest_directions(curvature, inputs["h1"], inputs["h2"])
    return _q_midpoint_margin(curvature, inputs["h1"], inputs["h2"], inputs)


def _congruence_inverse(a, b) -> np.ndarray:
    # (A, B) -> B^H A^-1 B, Hermitian positive semidefinite for any B.
    return hermitize(_adjoint(b) @ np.linalg.solve(a, b))


def _draw_c7(config: CampaignConfig, streams) -> dict:
    dim = config.space().dim
    return {"a1": _draw_pd(config, streams, dim),
            "b1": random_hermitian(dim, streams) + 1j * random_hermitian(dim, streams),
            "a2": _draw_pd(config, streams, dim),
            "b2": random_hermitian(dim, streams) + 1j * random_hermitian(dim, streams)}


def _margin_c7(config: CampaignConfig, inputs: dict) -> np.ndarray:
    a1, b1, a2, b2 = (inputs[key] for key in ("a1", "b1", "a2", "b2"))
    for a in (a1, a2):
        check_hermitian(a)
    terms = (0.5 * _congruence_inverse(a1, b1), 0.5 * _congruence_inverse(a2, b2),
             _congruence_inverse((a1 + a2) / 2.0, (b1 + b2) / 2.0))
    defect = terms[0] + terms[1] - terms[2]
    # Frobenius norms as sums over the trailing axes, which give each matrix
    # its bits alone: a norm without axes takes a BLAS dot.
    norms = [np.sqrt(np.sum(parts * parts, axis=(-2, -1))) for parts in (t.view(float) for t in terms)]
    return _scaled(inputs, _eigvalsh(defect).min(axis=-1), *norms)


def _draw_c8(config: CampaignConfig, streams) -> dict:
    dim = config.space().dim
    s, t = _draw(streams, (2,), _C8_PAIR_RANGE).T
    return {"s": s.tolist(), "t": t.tolist(), "a": _draw_pd(config, streams, dim),
            "h": random_hermitian(dim, streams)}


def _margin_c8(config: CampaignConfig, inputs: dict) -> np.ndarray:
    s, t, a, h = (inputs[key] for key in ("s", "t", "a", "h"))
    dd_gaps = np.abs(divided_difference(LOG, "f", s, t) - dd_log_quadrature(s, t))
    references = log_quad_form_quadrature(a, h)  # checks a and h, once for both forms
    qf_gaps = np.abs(_quad_form(*_curvature(T_LOG_T, a), h) - references) / np.abs(references)
    inputs["scale"] = [1.0] * len(a)  # both gaps are relative or of fixed scale
    return -np.maximum(dd_gaps, qf_gaps)


class _Campaign(NamedTuple):
    draw: Callable
    margin: Callable
    function: str | None = None  # the function it fixes; None reads the config's
    reads: tuple[str, ...] = ()  # the settings besides function and p that it reads
    replay_margin: Callable | None = None  # the margin that replays its witness, if not its own
    search: bool = False  # a falsification search: not in --all, inconclusive without a violation


_CAMPAIGNS = {
    "C1": _Campaign(_draw_c1, _margin_c1, reads=("weights",)),
    "C2": _Campaign(_draw_c2, _margin_c2),
    "C3": _Campaign(_draw_c3, _margin_c3, reads=("channel_family",)),
    "C4": _Campaign(_draw_c4, _margin_c4),
    "C5": _Campaign(_draw_c1, _margin_c1, "t_log_t", ("weights",)),
    "C6": _Campaign(_draw_c1, _margin_c1, "power", ("weights",)),
    "C7": _Campaign(_draw_c7, _margin_c7, "t_log_t"),
    "C8": _Campaign(_draw_c8, _margin_c8, "t_log_t"),
    "C9": _Campaign(_draw_c4, _margin_c9, "cube", replay_margin=_margin_c4, search=True),
}

CAMPAIGN_IDS = tuple(_CAMPAIGNS)

# The settings that some rows read and others do not.
_ROW_SETTINGS = tuple(dict.fromkeys(name for row in _CAMPAIGNS.values() for name in row.reads))


def _sample(draw, margin, config: CampaignConfig, streams):
    inputs = draw(config, streams)
    return margin(config, inputs), inputs


_SAMPLERS = {campaign: partial(_sample, row.draw, row.margin) for campaign, row in _CAMPAIGNS.items()}


def _reported(config: CampaignConfig, inputs: dict, margins: np.ndarray):
    # Which margins are violations, by their scales, and by position the NumericError of each one
    # not finite (a net for what the checks miss) or below its threshold within its rounding error.
    scale = np.asarray(inputs["scale"])
    threshold, floor = config.tolerance * np.minimum(1.0, scale), _ROUNDING * scale
    below = margins < -threshold
    faulted = ~np.isfinite(margins) | below & (margins >= -floor)
    if not faulted.any():
        return below, {}
    return below & ~faulted, {
        j: NumericError(f"margin {margins[j]:.3e} is within its rounding error {floor[j]:.3e} of 0"
                        if math.isfinite(margins[j]) else f"margin is not finite: {float(margins[j])!r}")
        for j in np.flatnonzero(faulted).tolist()}


def _same_report(config: CampaignConfig, earlier: CampaignConfig) -> bool:
    """Whether the report of ``earlier``, given ``config``, is that of
    ``config``: both rows draw and measure alike, and the configs differ in
    their campaign alone."""
    rows = _CAMPAIGNS[config.campaign], _CAMPAIGNS[earlier.campaign]
    return rows[0][:2] == rows[1][:2] and all(
        getattr(config, field.name) == getattr(earlier, field.name)
        for field in fields(config) if field.name != "campaign")


def _chunk_samples(dim: int) -> int:
    return max(1, CHUNK_BYTES // (_SAMPLE_MATRICES * 16 * dim * dim))


def _checked(function, *args):
    # function(*args), where a floating-point overflow, invalid operation or
    # division by zero raises a NumericError naming it; a kernel that replaces
    # a form where that form overflows silences the event itself.
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return function(*args)
    except FloatingPointError as exc:
        raise NumericError(str(exc)) from None


def _error(sample: int, exc: Exception) -> dict:
    return {"sample": sample, "type": type(exc).__name__, "message": f"{type(exc).__name__}: {exc}"}


def _evaluate(config: CampaignConfig, indices, errors: list) -> list:
    """The ``(indices, margins, inputs)`` blocks of ``indices`` in sample order.
    A chunk whose sampler call raises, a floating-point event included, is
    split in halves, each evaluated alike, down to single samples, whose errors
    go to ``errors``: one raising sample of n costs 2 log2(n) + 1 sampler calls,
    and n of them 2n - 1.
    """
    try:
        return [(indices, *_checked(_SAMPLERS[config.campaign], config, RngStream.chunk(config.seed, indices)))]
    except _SAMPLE_ERRORS as exc:
        if len(indices) == 1:
            errors.append(_error(indices[0], exc))
            return []
    half = len(indices) // 2
    return _evaluate(config, indices[:half], errors) + _evaluate(config, indices[half:], errors)


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Run one campaign and assemble its report.

    Samples are evaluated chunk by chunk, each chunk's margins judged,
    counted and searched as one block, and recorded in sample order.  A
    sample that raises a domain, numeric or LAPACK error, or whose margin
    :func:`_reported` faults, is recorded under ``errors``, and the campaign continues.
    """
    start = perf_counter()
    margins: list[float] = []
    errors: list[dict] = []
    violations, worst, witness = 0, None, None  # worst: the first smallest margin
    size = _chunk_samples(config.space().dim)
    for first in range(0, config.samples, size):
        indices = range(first, min(first + size, config.samples))
        for block, values, inputs in _evaluate(config, indices, errors):
            violated, faults = _reported(config, inputs, values)
            errors.extend(_error(block[j], exc) for j, exc in faults.items())
            kept = np.delete(np.arange(len(values)), list(faults)) if faults else np.arange(len(values))
            margins.extend(values[kept].tolist())
            violations += int(np.count_nonzero(violated))
            if not kept.size:
                continue
            k = int(kept[values[kept].argmin()])
            if worst is None or values[k] < worst:
                worst = float(values[k])
                witness = {name: stack[k] for name, stack in inputs.items()}
                witness["sample"] = block[k]
    errors.sort(key=lambda error: error["sample"])  # those raised and those judged
    return CampaignReport(
        config=config,
        margins=margins,
        violations=violations,
        worst_margin=worst,
        witness=witness,
        errors=errors,
        wall_time=perf_counter() - start,
    )


def replay(report: CampaignReport) -> float:
    """The worst margin of ``report`` recomputed from its witness, each value
    a stack of one, by the margin its campaign's row replays it with, which
    checks and judges it; a floating-point event raises a NumericError.  A
    witness value that the margin derives (its scale, which older witnesses
    lack, C1's weight, C3's family) must be the one it derives, else
    ``ValueError``."""
    config, witness = report.config, report.witness
    if witness is None:
        raise ValueError(f"the {config.campaign} report has no witness to replay")
    inputs = {name: value[None] if isinstance(value, np.ndarray) else [value]
              for name, value in witness.items() if name != "sample"}
    stored = dict(inputs)
    row = _CAMPAIGNS[config.campaign]
    margins = _checked(row.replay_margin or row.margin, config, inputs)
    for name, value in stored.items():
        if inputs[name] is not value and inputs[name] != value:
            raise ValueError(f"the witness {name} is {value[0]!r}, but its margin derives {inputs[name][0]!r}")
    _, faults = _reported(config, inputs, margins)
    if faults:
        raise faults[0]
    return float(margins[0])
