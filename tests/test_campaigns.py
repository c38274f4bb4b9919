"""Campaign runner: determinism, per-statement margins, error capture."""

import hashlib
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from entropygap import (
    CAMPAIGN_IDS,
    CUBE,
    BipartiteSpace,
    CampaignConfig,
    DomainError,
    EntropyGapSpec,
    MixedUnitaryChannel,
    RngStream,
    T_LOG_T,
    apply_channel,
    entropy_gap,
    frechet_derivative,
    hermitize,
    quad_form,
    random_hermitian,
    random_pd,
    random_unitary,
    render_report,
    run_campaign,
    second_differential_spectral,
)
from entropygap import campaigns
from entropygap.calculus import _curvature
from entropygap.campaigns import _SAMPLERS, _q_midpoint_margin
from test_bipartite import sign_unitary_pinching, term_by_term, weyl_expectation


def _run(campaign: str, **overrides) -> object:
    base = dict(campaign=campaign, d1=2, d2=2, samples=20, seed=42)
    base.update(overrides)
    return run_campaign(CampaignConfig(**base))


# -- configuration validation --------------------------------------------------


def test_config_rejects_unknown_campaign():
    with pytest.raises(ValueError, match="campaign"):
        _run("C10")


@pytest.mark.parametrize(
    "overrides",
    [
        {"samples": 0},
        {"tolerance": 0.0},
        {"d1": 0},
        {"d1": 9, "d2": 8},
        {"seed": -1},
        {"eig_low": 0.0},
        {"eig_low": 2.0, "eig_high": 1.0},
        {"weights": (0.0, 0.5)},
        {"weights": ()},
        {"channel_family": "depolarizing"},
        {"seed": 2**64},
        {"function": "power", "p": 3.0},
        {"function": "nosuch"},
    ],
)
def test_config_rejects_invalid_fields(overrides):
    with pytest.raises(ValueError):
        _run("C1", **overrides)


@pytest.mark.parametrize("name,value", [("tolerance", True), ("tolerance", "1e-8"), ("p", None),
                                        ("eig_low", True), ("eig_high", "3")])
def test_config_names_a_float_field_of_the_wrong_type(name, value):
    with pytest.raises(ValueError, match=name):
        CampaignConfig("C1", **{name: value})
    with pytest.raises(ValueError, match="weights"):
        CampaignConfig("C1", weights=(0.5, value))


@pytest.mark.parametrize("value", [0.5, None, "0.5", (0.5, "0.25"), np.array(0.5), np.array([[0.5]])])
def test_config_names_the_whole_weights_value(value):
    with pytest.raises(ValueError, match=re.escape(f"weights must be a sequence of reals, got {value!r}")):
        CampaignConfig("C1", weights=value)


def test_config_stores_float_fields_as_float():
    config = CampaignConfig("C6", tolerance=np.float32(0.5), p=1, eig_low=1, eig_high=np.int64(2),
                            weights=[np.float64(0.5), 0.25])
    values = (config.tolerance, config.p, config.eig_low, config.eig_high, *config.weights)
    assert values == (0.5, 1.0, 1.0, 2.0, 0.5, 0.25)
    assert all(type(value) is float for value in values)


def test_config_stores_numpy_integers_as_int():
    config = CampaignConfig("C1", d1=np.int64(2), d2=np.uint8(3), samples=np.int32(4),
                            seed=np.uint64(2**64 - 1))
    values = (config.d1, config.d2, config.samples, config.seed)
    assert values == (2, 3, 4, 2**64 - 1)
    assert all(type(value) is int for value in values)


# -- determinism and sample independence ---------------------------------------


@pytest.mark.parametrize("campaign", CAMPAIGN_IDS)
def test_margins_reproducible(campaign):
    first = _run(campaign, samples=8)
    second = _run(campaign, samples=8)
    assert first.margins == second.margins
    assert first.violations == second.violations
    assert first.worst_margin == second.worst_margin


@pytest.mark.parametrize("campaign", CAMPAIGN_IDS)
def test_samples_are_independent_streams(campaign):
    # Margins of a shorter run are a prefix of a longer run's margins.
    short = _run(campaign, samples=10)
    long = _run(campaign, samples=20)
    assert _bits(long.margins[:10]) == _bits(short.margins)
    assert len(long.margins) == 20


# SHA-256 of the rendered report of each campaign that reads a curvature form
# or a Schur multiplier, at seed 42 and 20 samples: C2-C4 with t log t and
# t**2, C3 once per channel family, C8 and C9 with their presets.  The earlier
# reports in tests/data rerun these campaigns only within KERNEL_MARGIN_MOVES,
# so a change that moves their last bits fails here and nowhere else.
CURVATURE_PINS = {
    "C2 t_log_t 2x2": "114f87f495cc249200b940876e92098fab7f0d14f1b62851b89cb5ccd5fbde7a",
    "C3 pinching t_log_t 2x2": "d67676ccb554ab50cf0c8581f4b118c991c912a582338588b6d9bc2fda5b0e71",
    "C3 expectation t_log_t 2x2": "806d80b5d2f3750897dbf26928ccba1318d1f88f3f7589c2a3eac1d8dd0e82f0",
    "C3 mixed t_log_t 2x2": "70795b58b86b85afc88f811d1b8f2430dce0dda65a40dc0ea346df091dff9777",
    "C4 t_log_t 2x2": "125a965f3fa37bc5bd3286a36d58f3d792d206e68fb54c7f3547ac47439bdb53",
    "C2 square 2x2": "6f451c03d76e05611774354c140cb48eaa1f6129ea6ba19dbc10188ea634d45a",
    "C3 pinching square 2x2": "f0a1881b82e562538d43fa40fa11cf8990a752884aacd12f93575771ea42cb74",
    "C3 expectation square 2x2": "d0e07e63e7cc1f607f94ee8920db508747305371b2fb29d83fa1454647160a39",
    "C3 mixed square 2x2": "e1cb72f5175b3dc5d2a2dbc84a623b353ad3880d0c98b557564ee9b4585de79f",
    "C4 square 2x2": "d166c0bdf53b3e0d1ba63a930e6e5c882c8df33e11836897d2056e0664f90607",
    "C8 t_log_t 2x2": "5793bacb2fbe1f53ad1bbd641d1c610bb53833f88c5eaff5b9c97b8674b4cc3b",
    "C9 cube 2x2": "9971cd6040c8432c66a4e6bd391fc9f825f9dec26213e949ea2420c96d976b58",
    "C2 t_log_t 1x3": "a167116e5d165999f8caf6e2b73ada6a6a6491d2f4760819a7a024555a3ea60e",
    "C3 pinching t_log_t 1x3": "aae835223a89405bdfc99adf70544ee40101592822bc86b0804db46ecaf3f329",
    "C3 expectation t_log_t 1x3": "bdf30e697700c099532665e82523ef60df3dbc74e594858af2c8aa26201d43f1",
    "C3 mixed t_log_t 1x3": "c5f7491e6f73984b4965048df4677a7ac00373ae656fa6702872155336393ea4",
    "C4 t_log_t 1x3": "56cb25f3943361837aab881b64aaded82c3c2f77a698b7ce927973034d0dc03f",
    "C2 square 1x3": "0f24c7e930adb3cf93611c1291f39f9fee5878acd53ea38a472708509b1f3045",
    "C3 pinching square 1x3": "5e3c3f8d7a263e58860a4d32b0883dc505f9714b6ee41a554cf5c2d18fd65cce",
    "C3 expectation square 1x3": "725559a9345b01895405802f0b32a4517173ad0f449323c81b8e2fa9a64baffa",
    "C3 mixed square 1x3": "5695f072b26e255d51bf4a900efd0d901c8dbd56b0fc3cbbb673bd3f00dea2fe",
    "C4 square 1x3": "30bfbf6f018c45c3793ebd90c57f1351bc385739d0814b8fa392698c27a35c38",
    "C8 t_log_t 1x3": "43f1b36b0b9eeb7119f5822393a6d60c44a32aa75aca96c6103551e2090aa189",
    "C9 cube 1x3": "78e9f965c6ee9773377c8dd19adc9a8607035dcf483f236cb68a2498bab9f99b",
}


@pytest.mark.parametrize("label", CURVATURE_PINS)
def test_curvature_campaign_reports_keep_their_bits(label):
    campaign, *family, function, shape = label.split()
    d1, d2 = (int(d) for d in shape.split("x"))
    report = _run(campaign, d1=d1, d2=d2, function=function, channel_family=(family or ["uniform"])[0])
    assert hashlib.sha256(render_report(report).encode("utf-8")).hexdigest() == CURVATURE_PINS[label]


# -- chunked evaluation -----------------------------------------------------------

SHAPES = [(1, 1), (2, 2), (2, 3), (3, 2)]


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _poison(monkeypatch, sample: int) -> None:
    """Give one sample's positive definite draws a NaN entry."""
    original = campaigns.random_pd

    def poisoned(dim, streams, eig_range):
        m = original(dim, streams, eig_range)
        for j, stream in enumerate(streams):
            if stream.stream == sample:
                m[j, 0, 0] = np.nan
        return m

    monkeypatch.setattr(campaigns, "random_pd", poisoned)


def _with_chunk(monkeypatch, dim: int, samples: int | None):
    """Budget chunks of ``samples`` samples, or restore the default budget."""
    per_sample = campaigns._SAMPLE_MATRICES * 16 * dim * dim
    budget = campaigns.CHUNK_BYTES if samples is None else samples * per_sample
    monkeypatch.setattr(campaigns, "CHUNK_BYTES", budget)


@pytest.mark.parametrize("d1,d2", SHAPES)
@pytest.mark.parametrize("campaign", CAMPAIGN_IDS)
@pytest.mark.parametrize("poisoned", [False, True], ids=["clean", "poisoned"])
@pytest.mark.parametrize("relative", [False, True], ids=["absolute", "relative"])
def test_chunk_size_does_not_change_margins_or_errors(monkeypatch, campaign, d1, d2, poisoned,
                                                      relative):
    # The relative scaling, the violation count and the worst-witness pick
    # run once per chunk, so the whole report is compared.
    if poisoned:
        _poison(monkeypatch, 4)
    default = campaigns.CHUNK_BYTES
    reports = []
    for chunk in (1, 3, None):
        _with_chunk(monkeypatch, d1 * d2, chunk)
        reports.append(_run(campaign, d1=d1, d2=d2, samples=7, relative=relative))
        monkeypatch.setattr(campaigns, "CHUNK_BYTES", default)
    assert campaigns._chunk_samples(d1 * d2) >= 7  # the default is one chunk here
    first = reports[0]
    if poisoned:
        assert [e["sample"] for e in first.errors] == [4]
        # Every sampler validates its positive definite draws.
        assert first.errors[0]["type"] == "DomainError"
        assert first.errors[0]["message"].startswith("DomainError: ")
    else:
        assert first.errors == []
    for other in reports[1:]:
        assert _bits(other.margins) == _bits(first.margins)
        assert render_report(other) == render_report(first)


def _recomputed_margin(report) -> float:
    """The worst margin recomputed from its witness with the single-matrix API."""
    config, w = report.config, report.witness
    space = BipartiteSpace(config.d1, config.d2)
    func = config.scalar_function()
    if config.campaign in ("C1", "C5", "C6"):
        gap = EntropyGapSpec(func, space)
        t = w["weight"]
        mixed = entropy_gap(t * w["rho"] + (1.0 - t) * w["sigma"], gap)
        chord = t * entropy_gap(w["rho"], gap) + (1.0 - t) * entropy_gap(w["sigma"], gap)
        return chord - mixed
    if config.campaign == "C2":
        return second_differential_spectral(w["rho"], w["h"], EntropyGapSpec(func, space))
    if config.campaign == "C3":
        after = (apply_channel(w["channel"], w["x"]), apply_channel(w["channel"], w["h"]))
        return quad_form(func, w["x"], w["h"]) - quad_form(func, *after)
    if config.campaign in ("C4", "C9"):
        average = 0.5 * quad_form(func, w["x1"], w["h1"]) + 0.5 * quad_form(func, w["x2"], w["h2"])
        return average - quad_form(func, (w["x1"] + w["x2"]) / 2.0, (w["h1"] + w["h2"]) / 2.0)

    def congruence(a, b):
        return hermitize(b.conj().T @ np.linalg.solve(a, b))

    defect = (0.5 * congruence(w["a1"], w["b1"]) + 0.5 * congruence(w["a2"], w["b2"])
              - congruence((w["a1"] + w["a2"]) / 2.0, (w["b1"] + w["b2"]) / 2.0))
    return float(np.linalg.eigvalsh(defect).min())


@pytest.mark.parametrize("d1,d2", SHAPES)
@pytest.mark.parametrize("campaign", ["C1", "C2", "C3", "C4", "C5", "C6", "C7", "C9"])
def test_worst_margin_recomputes_from_its_witness(campaign, d1, d2):
    report = _run(campaign, d1=d1, d2=d2, samples=12)
    assert _bits([_recomputed_margin(report)]) == _bits([report.worst_margin])


@pytest.mark.parametrize("d1,d2", SHAPES)
@pytest.mark.parametrize("campaign", ["C1", "C2"])
def test_relative_scale_takes_one_norm_per_matrix(campaign, d1, d2):
    absolute = _run(campaign, d1=d1, d2=d2, samples=9)
    relative = _run(campaign, d1=d1, d2=d2, samples=9, relative=True)
    expected = []
    for index, margin in enumerate(absolute.margins):
        rng = RngStream(42, index)
        rho = random_pd(d1 * d2, rng, (0.1, 3.0))
        if campaign == "C1":  # a second state
            other = random_pd(d1 * d2, rng, (0.1, 3.0))
        else:  # a direction
            other = random_hermitian(d1 * d2, rng)
        expected.append(margin / (1.0 + (float(np.linalg.norm(rho))
                                         + float(np.linalg.norm(other)))))
    assert _bits(relative.margins) == _bits(expected)


# -- report invariants ----------------------------------------------------------


@pytest.mark.parametrize("campaign", [c for c in CAMPAIGN_IDS if c != "C9"])
def test_small_runs_pass_and_report_consistently(campaign):
    report = _run(campaign)
    assert len(report.margins) == 20
    assert report.errors == []
    assert report.violations == sum(1 for m in report.margins if m < -1e-8)
    assert report.violations == 0
    assert report.worst_margin == min(report.margins)
    assert report.witness is not None and "sample" in report.witness


def test_empty_run_reports_no_worst_margin():
    with pytest.raises(ValueError):
        _run("C1", samples=0)


# -- statement-specific behavior -------------------------------------------------


def test_c1_identity_function_margins_are_zero():
    report = _run("C1", samples=50, function="identity")
    assert len(report.margins) == 50
    assert max(abs(m) for m in report.margins) <= 1e-14
    assert report.violations == 0


def test_c1_entropy_function_at_seed_42():
    report = _run("C1", samples=100, function="t_log_t", tolerance=1e-8)
    assert report.violations == 0
    assert report.worst_margin >= -1e-8


@pytest.mark.parametrize("d1,d2", SHAPES)
def test_presets_run_their_base_campaign_bitwise(d1, d2):
    # C9 runs C4's draws with other directions; see the falsification tests.
    for preset, base, function in (("C5", "C1", "t_log_t"), ("C6", "C1", "power")):
        report = _run(preset, d1=d1, d2=d2, samples=9, function="log", p=1.25)
        expected = _run(base, d1=d1, d2=d2, samples=9, function=function, p=1.25)
        assert report.config.function == function
        assert _bits(report.margins) == _bits(expected.margins)


@pytest.mark.parametrize(
    "campaign,function,recorded_function,recorded_p",
    [
        ("C1", "power", "power", 1.2),
        ("C1", "t_log_t", "t_log_t", 1.5),
        ("C2", "log", "log", 1.5),
        ("C5", "power", "t_log_t", 1.5),
        ("C6", "t_log_t", "power", 1.2),
        ("C7", "power", "t_log_t", 1.5),
        ("C8", "power", "t_log_t", 1.5),
        ("C9", "power", "cube", 1.5),
    ],
)
def test_config_records_the_function_and_exponent_that_run(campaign, function,
                                                           recorded_function, recorded_p):
    config = CampaignConfig(campaign, function=function, p=1.2)
    assert (config.function, config.p) == (recorded_function, recorded_p)


@pytest.mark.parametrize("campaign", CAMPAIGN_IDS)
def test_config_records_weights_and_family_only_where_they_are_read(campaign):
    config = CampaignConfig(campaign, weights=[0.3], channel_family="pinching")
    reads_weights = campaign in ("C1", "C5", "C6")
    assert config.weights == ((0.3,) if reads_weights else CampaignConfig.weights)
    assert config.channel_family == ("pinching" if campaign == "C3" else "uniform")


INVALID_SETTINGS = [
    {"samples": 0},
    {"tolerance": float("inf")},
    {"tolerance": float("nan")},
    {"eig_high": float("inf")},
    {"eig_low": float("nan")},
    {"weights": (1.5,)},
    {"channel_family": "depolarizing"},
    {"function": "nosuch"},
    {"function": "power", "p": 3.0},
    {"p": float("nan")},
    # Types: a float seed would run the margins of its integer part, and "no"
    # is a true flag.
    {"seed": 1.5},
    {"seed": True},
    {"seed": 42.0},
    {"d1": 1.5},
    {"d2": True},
    {"samples": 2.5},
    {"samples": "5"},
    {"normalize": "no"},
    {"normalize": 1},
    {"relative": None},
    {"relative": np.float64(0.0)},
    # A true tolerance or bound would run as 1.0, and a string one fails a
    # comparison with TypeError.
    {"tolerance": True},
    {"tolerance": "1e-8"},
    {"p": False},
    {"p": "1.5"},
    {"eig_low": True},
    {"eig_high": "3"},
    {"eig_high": 3.0 + 0j},
    {"tolerance": 10**400},
    {"weights": (0.5, True)},
    {"weights": ("0.5",)},
    # Not a sequence of reals: a scalar, no value, a string, a set.
    {"weights": 0.5},
    {"weights": None},
    {"weights": "0.5"},
    {"weights": {0.5}},
]


@pytest.mark.parametrize("overrides", INVALID_SETTINGS)
@pytest.mark.parametrize("campaign", CAMPAIGN_IDS)
def test_config_rejects_invalid_settings_for_every_campaign(campaign, overrides):
    # Whether or not the campaign reads the setting, construction raises.
    with pytest.raises(ValueError):
        CampaignConfig(campaign, **overrides)


def test_replace_validates_the_new_config():
    with pytest.raises(ValueError, match="samples"):
        replace(CampaignConfig("C1"), samples=0)
    assert replace(CampaignConfig("C1", weights=(0.3,)), campaign="C7").weights == (0.5, 0.25, 0.75)


@pytest.mark.parametrize("d1,d2", SHAPES)
def test_c7_margins_ignore_the_function(d1, d2):
    report = _run("C7", d1=d1, d2=d2, samples=9, function="power", p=1.2)
    default = _run("C7", d1=d1, d2=d2, samples=9)
    assert report.config == default.config
    assert _bits(report.margins) == _bits(default.margins)


def test_c5_records_no_error_on_a_wide_spectrum():
    # G is about 1e-9 here, so a relative check of G against its closed form
    # fails on rounding alone; the sampler no longer makes one.
    report = _run("C5", d1=1, d2=2, samples=2000, eig_low=1e-4, eig_high=1.0)
    assert report.errors == []
    assert report.violations == 0


def test_c6_covers_the_exponent_range():
    for p in (1.0, 1.5, 2.0):
        report = _run("C6", samples=30, p=p)
        assert report.violations == 0


def test_c8_kernel_gaps_below_tolerance():
    report = _run("C8", samples=100)
    # margin = -gap, so margins above -1e-8 mean gaps under 1e-8, well inside
    # the 1e-7 requirement.
    assert report.violations == 0
    assert min(report.margins) > -1e-8
    assert max(-m for m in report.margins) <= 1e-7


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("d,samples", [(1, 200), (2, 200), (3, 200), (4, 200), (8, 20)])
def test_c8_kernel_agrees_with_its_quadratures_to_rounding(d, samples, seed):
    # The closed-form kernels leave C8 only the quadratures' own rounding.
    report = _run("C8", d1=d, d2=d, samples=samples, seed=seed)
    assert report.errors == []
    assert -report.worst_margin <= 5e-15


@pytest.mark.parametrize("overrides", [
    dict(d1=8, d2=8, samples=20, normalize=True),
    dict(samples=200, eig_low=1e-9, eig_high=1e3),
    dict(d1=4, d2=4, samples=100, eig_low=1e-4, eig_high=1.0),
], ids=["8x8-normalized", "2x2-wide", "4x4-small"])
def test_c8_reports_no_false_violation_on_wide_or_small_spectra(overrides):
    # The kernel is right on these spectra; a violation would be the
    # reference quadrature's error.
    report = _run("C8", **overrides)
    assert report.errors == []
    assert report.violations == 0


@pytest.mark.parametrize("d1,d2", [(1, 2), (2, 2), (2, 3)])
def test_c8_records_an_ill_conditioned_sample_against_itself(monkeypatch, d1, d2):
    # Sample 4's base point gets condition number 1e12, beyond the resolvent
    # rule's last rung; its chunk raises and the sample alone is recorded,
    # whatever the chunk size.
    original = campaigns.random_pd

    def drawn(dim, streams, eig_range):
        m = original(dim, streams, eig_range)
        for j, stream in enumerate(streams):
            if stream.stream == 4:
                m[j] = np.diag(np.geomspace(1e-12, 1.0, dim))
        return m

    monkeypatch.setattr(campaigns, "random_pd", drawn)
    default = campaigns.CHUNK_BYTES
    reports = []
    for chunk in (1, 3, None):
        _with_chunk(monkeypatch, d1 * d2, chunk)
        reports.append(_run("C8", d1=d1, d2=d2, samples=7))
        monkeypatch.setattr(campaigns, "CHUNK_BYTES", default)
    first = reports[0]
    assert [(e["sample"], e["type"]) for e in first.errors] == [(4, "NumericError")]
    assert "condition number 1e+12" in first.errors[0]["message"]
    assert len(first.margins) == 6 and first.violations == 0
    for other in reports[1:]:
        assert _bits(other.margins) == _bits(first.margins)
        assert other.errors == first.errors


@pytest.mark.parametrize("offset,violated", [(0.5, False), (1.5, True)])
def test_c8_flags_a_gap_above_the_tolerance(monkeypatch, offset, violated):
    # A reference off by `offset` tolerances gives a gap of about that size;
    # the margin is the negated gap, so the usual rule flags it past 1x.
    tolerance = 1e-8
    original = campaigns.dd_log_quadrature
    monkeypatch.setattr(campaigns, "dd_log_quadrature",
                        lambda s, t: original(s, t) + offset * tolerance)
    report = _run("C8", samples=10, tolerance=tolerance)
    assert report.errors == []
    assert report.violations == (10 if violated else 0)


@pytest.mark.parametrize("family", ["pinching", "expectation", "mixed"])
def test_c3_channel_family_is_forced(family):
    report = _run("C3", samples=10, d2=3, channel_family=family)
    assert report.witness["family"] == family
    assert report.violations == 0


def test_c3_uniform_family_mixes():
    report = _run("C3", samples=60, channel_family="uniform")
    assert report.violations == 0


def _mixed_unitary_c3(config, index):
    """One C3 sample drawn and evaluated one matrix at a time, with every
    channel as a mixed-unitary channel: a pinching as the average of its sign
    unitaries, the expectation as the Weyl average.

    Returns the family, x, h, the channel, Q(x, h), Q(Phi x, Phi h) and the
    stream's next draw.
    """
    space = config.space()
    dim = space.dim
    func = config.scalar_function()
    rng = RngStream(config.seed, index)
    x = random_pd(dim, rng, (config.eig_low, config.eig_high))
    h = random_hermitian(dim, rng)
    family = config.channel_family
    if family == "uniform":
        family = ("pinching", "expectation", "mixed")[int(rng.gen.integers(0, 3))]
    if family == "pinching":
        count = int(rng.gen.integers(1, min(dim, 8) + 1))
        perm = rng.gen.permutation(dim)
        labels = np.empty(dim, dtype=int)
        labels[perm[:count]] = np.arange(count)
        if dim > count:
            labels[perm[count:]] = rng.gen.integers(0, count, size=dim - count)
        channel = sign_unitary_pinching(random_unitary(dim, rng), labels)
    elif family == "expectation":
        channel = weyl_expectation(space)
    else:
        n_terms = int(rng.gen.integers(2, 6))
        raw = rng.gen.uniform(0.1, 1.0, size=n_terms)
        unitaries = np.stack([random_unitary(dim, rng) for _ in range(n_terms)])
        channel = MixedUnitaryChannel(raw / raw.sum(), unitaries)
    q_after = quad_form(func, term_by_term(channel, x), term_by_term(channel, h))
    return family, x, h, channel, quad_form(func, x, h), q_after, int(rng.gen.integers(2**63))


def _scaled(config, margin, x, h) -> float:
    if config.relative:
        return margin / (1.0 + (float(np.linalg.norm(x)) + float(np.linalg.norm(h))))
    return margin


@pytest.mark.parametrize("relative", [False, True], ids=["absolute", "relative"])
@pytest.mark.parametrize("d1,d2", SHAPES + [(3, 3)])
def test_c3_matches_its_mixed_unitary_form(d1, d2, relative):
    families = set()
    for seed in (42, 7):
        config = CampaignConfig(campaign="C3", d1=d1, d2=d2, samples=24, seed=seed,
                                relative=relative)
        report = run_campaign(config)
        streams = [RngStream(seed, index) for index in range(config.samples)]
        campaigns._sample_c3(config, streams)
        assert report.errors == []
        for index, (margin, stream) in enumerate(zip(report.margins, streams)):
            family, x, h, _, q, q_after, next_draw = _mixed_unitary_c3(config, index)
            families.add(family)
            expected = _scaled(config, q - q_after, x, h)
            if family == "mixed":
                assert _bits([margin]) == _bits([expected])
            else:
                budget = _scaled(config, 1e-14 * (1.0 + abs(q) + abs(q_after)), x, h)
                assert abs(margin - expected) <= budget
            # The sample left its stream where the one-matrix draws leave it.
            assert int(stream.gen.integers(2**63)) == next_draw

        mixed = run_campaign(replace(config, channel_family="mixed"))
        margins = []
        for index in range(config.samples):
            _, x, h, channel, q, q_after, _ = _mixed_unitary_c3(mixed.config, index)
            margins.append(_scaled(config, q - q_after, x, h))
            if index == mixed.witness["sample"]:
                worst = (x, h, channel)
        assert _bits(mixed.margins) == _bits(margins)
        assert _bits([mixed.worst_margin]) == _bits([min(margins)])
        x, h, channel = worst
        assert mixed.witness["x"].tobytes() == x.tobytes()
        assert mixed.witness["h"].tobytes() == h.tobytes()
        assert mixed.witness["channel"].weights.tobytes() == channel.weights.tobytes()
        assert mixed.witness["channel"].unitaries.tobytes() == channel.unitaries.tobytes()
    if d1 * d2 > 1:
        assert families == {"pinching", "expectation", "mixed"}


def test_c3_mixed_channels_of_every_term_count_match_across_chunk_sizes(monkeypatch):
    # 40 mixed channels at 2x2 share one default chunk and draw every term
    # count from 2 to 5; chunks of 1 and 3 give each sample the same bits.
    config = CampaignConfig("C3", d1=2, d2=2, samples=40, channel_family="mixed")

    def sample(indices):
        return campaigns._sample_c3(config, RngStream.chunk(config.seed, indices))

    margins, inputs = sample(range(40))
    assert {len(channel.weights) for channel in inputs["channel"]} == {2, 3, 4, 5}
    assert campaigns._chunk_samples(4) >= 40
    for size in (1, 3):
        chunked = [sample(range(first, min(first + size, 40))) for first in range(0, 40, size)]
        assert _bits(np.concatenate([part for part, _ in chunked])) == _bits(margins)
        for key in ("x", "h"):
            stacked = np.concatenate([part[key] for _, part in chunked])
            assert stacked.tobytes() == inputs[key].tobytes()
        channels = [channel for _, part in chunked for channel in part["channel"]]
        assert len(channels) == 40
        for got, want in zip(channels, inputs["channel"]):
            for key in ("weights", "unitaries"):
                assert getattr(got, key).tobytes() == getattr(want, key).tobytes()
    default = campaigns.CHUNK_BYTES
    reports = []
    for chunk in (1, 3, None):
        _with_chunk(monkeypatch, 4, chunk)
        reports.append(run_campaign(config))
        monkeypatch.setattr(campaigns, "CHUNK_BYTES", default)
    assert _bits(reports[0].margins) == _bits(margins)
    for other in reports[1:]:
        assert _bits(other.margins) == _bits(margins)
        assert other.witness["sample"] == reports[0].witness["sample"]
        assert other.witness["channel"].unitaries.tobytes() == \
            reports[0].witness["channel"].unitaries.tobytes()


# -- config variants --------------------------------------------------------------


def test_normalize_draws_unit_trace_states():
    report = _run("C1", samples=5, normalize=True)
    assert abs(np.trace(report.witness["rho"]).real - 1.0) <= 1e-12


def test_relative_margins_divide_by_scale():
    absolute = _run("C2", samples=10, relative=False)
    relative = _run("C2", samples=10, relative=True)
    assert len(absolute.margins) == len(relative.margins)
    # Scales exceed 1, so relative margins shrink in magnitude.
    for a, r in zip(absolute.margins, relative.margins):
        assert abs(r) < abs(a) or a == r == 0.0


def test_custom_weights_are_used():
    near_edge = _run("C1", samples=10, weights=(0.01, 0.99))
    default = _run("C1", samples=10)
    assert near_edge.margins != default.margins
    assert near_edge.violations == 0


# -- error capture -----------------------------------------------------------------


def test_sampler_errors_are_recorded_and_skipped(monkeypatch):
    clean = _run("C1", samples=5)
    original = _SAMPLERS["C1"]
    chunks = []

    def flaky(config, streams):
        chunks.append([stream.stream for stream in streams])
        if 2 in chunks[-1]:
            raise DomainError("synthetic failure for testing")
        return original(config, streams)

    monkeypatch.setitem(_SAMPLERS, "C1", flaky)
    report = _run("C1", samples=5)
    # The failure is raised inside the chunk, then inside the half that
    # holds sample 2, until sample 2 runs alone.
    assert chunks == [[0, 1, 2, 3, 4], [0, 1], [2, 3, 4], [2], [3, 4]]
    assert report.errors == [{"sample": 2, "type": "DomainError",
                              "message": "DomainError: synthetic failure for testing"}]
    assert _bits(report.margins) == _bits(clean.margins[:2] + clean.margins[3:])


@pytest.mark.parametrize("chunk", [1, None], ids=["single", "default"])
@pytest.mark.parametrize("value,text", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")])
def test_a_non_finite_margin_is_a_numeric_error_of_its_sample(monkeypatch, chunk, value, text):
    clean = _run("C2", samples=6)
    original = _SAMPLERS["C2"]

    def broken(config, streams):
        margins, inputs = original(config, streams)
        margins[[stream.stream == 3 for stream in streams]] = value
        return margins, inputs

    monkeypatch.setitem(_SAMPLERS, "C2", broken)
    _with_chunk(monkeypatch, 4, chunk)
    report = _run("C2", samples=6)
    assert report.errors == [{"sample": 3, "type": "NumericError",
                              "message": f"NumericError: margin is not finite: {text}"}]
    assert _bits(report.margins) == _bits(clean.margins[:3] + clean.margins[4:])
    assert report.violations == clean.violations


@pytest.mark.parametrize("failing", [[0], [300], [511], list(range(5, 512, 16)), list(range(512))],
                         ids=["first", "middle", "last", "every-16th", "all"])
def test_a_failing_chunk_is_bisected_at_a_bounded_cost(monkeypatch, failing):
    # NaN margins in a chunk of 512 samples.  With one, each halving reruns
    # one half that fails and one that does not: 1 + 2 * 9 sampler calls,
    # where rerunning every sample alone took 513.  With failures in both
    # halves of a block, its samples run alone: the chunk, both halves and
    # 512 samples, no more than three times the chunk's samples in all.  The
    # report is the one that chunks of one sample give, byte for byte.
    original = _SAMPLERS["C2"]
    calls = []

    def broken(config, streams):
        calls.append(len(streams))
        margins, inputs = original(config, streams)
        margins[[stream.stream in failing for stream in streams]] = np.nan
        return margins, inputs

    monkeypatch.setitem(_SAMPLERS, "C2", broken)
    assert campaigns._chunk_samples(4) == 512
    report = _run("C2", samples=512)
    if len(failing) == 1:
        assert len(calls) <= 2 * math.ceil(math.log2(512)) + 1
    else:
        assert len(calls) <= 512 + 2 * math.ceil(math.log2(512)) + 1
    assert sum(calls) <= 3 * 512
    _with_chunk(monkeypatch, 4, 1)
    alone = _run("C2", samples=512)
    assert report.errors == alone.errors == [{"sample": k, "type": "NumericError",
                                              "message": "NumericError: margin is not finite: nan"}
                                             for k in failing]
    assert _bits(report.margins) == _bits(alone.margins)
    assert render_report(report) == render_report(alone)


# -- the falsification campaign ------------------------------------------------------


def _two_call_hermitian(dim: int, rng: RngStream) -> np.ndarray:
    # The direction draw as two generator calls, real parts then imaginary.
    s = 1.0 / np.sqrt(2.0)
    re = rng.gen.uniform(-s, s, size=(dim, dim))
    im = rng.gen.uniform(-s, s, size=(dim, dim))
    return hermitize(re + 1j * im)


def _per_matrix_midpoint_margin(x1, h1, x2, h2) -> float:
    average = 0.5 * quad_form(CUBE, x1, h1) + 0.5 * quad_form(CUBE, x2, h2)
    return average - quad_form(CUBE, (x1 + x2) / 2.0, (h1 + h2) / 2.0)


def _per_matrix_c4_draws(config, index):
    dim = config.d1 * config.d2
    rng = RngStream(config.seed, index)
    x1 = random_pd(dim, rng, (config.eig_low, config.eig_high))
    h1 = _two_call_hermitian(dim, rng)
    x2 = random_pd(dim, rng, (config.eig_low, config.eig_high))
    h2 = _two_call_hermitian(dim, rng)
    return x1, h1, x2, h2


def _hermitian_basis(n: int) -> list:
    """An orthonormal basis of the n x n Hermitian matrices under Re tr(a^H b)."""
    basis = []
    for i in range(n):
        for j in range(i, n):
            for value in ((1.0,) if i == j else (1 / np.sqrt(2), 1j / np.sqrt(2))):
                e = np.zeros((n, n), dtype=complex)
                e[i, j], e[j, i] = value, np.conj(value)
                basis.append(e)
    return basis


def _dense_midpoint_operator(func, x1, x2):
    """The midpoint margin's operator on direction pairs as a real symmetric
    matrix, a column per basis pair, one Frechet derivative at a time; and the
    coordinates of a pair in that basis."""
    zero = np.zeros_like(x1)
    pairs = [(e, zero) for e in _hermitian_basis(len(x1))] + \
            [(zero, e) for e in _hermitian_basis(len(x1))]

    def coordinates(h1, h2):
        return np.array([np.vdot(e1, h1).real + np.vdot(e2, h2).real for e1, e2 in pairs])

    columns = []
    for h1, h2 in pairs:
        mid = frechet_derivative(func, "f1", (x1 + x2) / 2.0, (h1 + h2) / 2.0)
        columns.append(coordinates((frechet_derivative(func, "f1", x1, h1) - mid) / 2.0,
                                   (frechet_derivative(func, "f1", x2, h2) - mid) / 2.0))
    return np.array(columns).T, coordinates


def _lowest_ritz_value(a, start, steps: int) -> float:
    """Lowest Ritz value of ``steps`` Lanczos steps on the dense matrix ``a``
    from ``start``, each vector orthogonalized twice against all before it."""
    basis, alphas, betas = [start / np.linalg.norm(start)], [], []
    for step in range(steps):
        w = a @ basis[-1]
        alphas.append(basis[-1] @ w)
        if step == steps - 1:
            break
        for _ in range(2):
            for b in basis:
                w = w - (b @ w) * b
        betas.append(np.linalg.norm(w))
        basis.append(w / betas[-1])
    return np.linalg.eigvalsh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))[0]


@pytest.mark.parametrize("d1,d2", [(1, 1), (1, 2), (2, 2), (2, 3)])
def test_c9_margin_is_the_lowest_ritz_value_of_a_dense_reference(d1, d2):
    n = d1 * d2
    steps = min(8, 2 * n * n)
    for seed in (42, 7):
        report = _run("C9", d1=d1, d2=d2, samples=6, seed=seed)
        for index, margin in enumerate(report.margins):
            x1, h1, x2, h2 = _per_matrix_c4_draws(report.config, index)
            a, coordinates = _dense_midpoint_operator(CUBE, x1, x2)
            start = coordinates(h1, h2)
            scale = np.linalg.norm(a, 2) * (start @ start)
            # The dense matrix is the margin's operator: symmetric, and its
            # form at the drawn pair is the drawn pair's margin.
            assert np.abs(a - a.T).max() <= 1e-13 * np.linalg.norm(a, 2)
            drawn = _per_matrix_midpoint_margin(x1, h1, x2, h2)
            assert abs(start @ a @ start - drawn) <= 1e-13 * scale
            expected = _lowest_ritz_value(a, start, steps) * (start @ start)
            assert abs(margin - expected) <= 1e-12 * scale
            if steps == 2 * n * n:  # the Krylov space is the whole space
                assert abs(margin - np.linalg.eigvalsh(a)[0] * (start @ start)) <= 1e-12 * scale


@pytest.mark.parametrize("d1,d2", SHAPES + [(3, 3)])
def test_c9_keeps_the_c4_draws_and_lowers_their_margins(d1, d2):
    config = CampaignConfig("C9", d1=d1, d2=d2, samples=9)
    drawn_streams = [RngStream(42, index) for index in range(9)]
    lowest_streams = [RngStream(42, index) for index in range(9)]
    drawn, drawn_inputs = _SAMPLERS["C4"](replace(config, campaign="C4"), drawn_streams)
    lowest, inputs = _SAMPLERS["C9"](config, lowest_streams)
    assert _bits(run_campaign(config).margins) == _bits(lowest)
    assert (lowest <= drawn).all()
    for key in ("x1", "x2"):
        assert inputs[key].tobytes() == drawn_inputs[key].tobytes()
    for k in range(9):
        # The witness directions keep the drawn pair's norm.
        norms = [np.linalg.norm(np.stack([p["h1"][k], p["h2"][k]])) for p in (inputs, drawn_inputs)]
        assert abs(norms[0] - norms[1]) <= 1e-14 * norms[1]
    # No stream is drawn from beyond the draws of C4.
    for a, b in zip(drawn_streams, lowest_streams):
        assert a.gen.integers(2**63) == b.gen.integers(2**63)


def _midpoint_curvature(func, x1, x2):
    # The curvature stack of C4 and C9: x1, x2 and their midpoint on axis -3.
    return _curvature(func, np.stack([x1, x2, (x1 + x2) / 2.0], axis=-3))


@pytest.mark.parametrize("d1,d2", [(2, 2), (3, 3)])
def test_c9_routine_finds_no_violation_for_t_log_t(d1, d2):
    # t log t is a matrix entropy, so its midpoint form is positive
    # semidefinite; (x1, x2) is a null direction, because Q(x, x) = tr x.
    config = CampaignConfig("C4", d1=d1, d2=d2)
    _, inputs = campaigns._sample_c4(config, [RngStream(42, index) for index in range(40)])
    x1, h1, x2, h2 = (inputs[key] for key in ("x1", "h1", "x2", "h2"))

    def scale(*mats):
        return 1.0 + sum(np.linalg.norm(m, axis=(-2, -1)) for m in mats)

    curvature = _midpoint_curvature(T_LOG_T, x1, x2)
    g1, g2 = campaigns._lowest_directions(*curvature, h1, h2)
    assert (_q_midpoint_margin(*curvature, g1, g2) >= -1e-14 * scale(x1, g1, x2, g2)).all()
    null = _q_midpoint_margin(*curvature, x1, x2)
    assert (np.abs(null) <= 1e-14 * scale(x1, x1, x2, x2)).all()
    # From the null direction the first residual is rounding alone.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g1, g2 = campaigns._lowest_directions(*curvature, x1, x2)
    assert (_q_midpoint_margin(*curvature, g1, g2) >= -1e-14 * scale(x1, g1, x2, g2)).all()


@pytest.mark.parametrize("eig_range", [(0.1, 3.0), (1e-6, 1e3)])
def test_c9_routine_keeps_its_basis_orthogonal_over_the_whole_space(eig_range):
    # At dimension 2 the 8 Lanczos steps span the whole space of pairs, so
    # with orthonormal vectors the lowest Ritz value is the form's minimum,
    # 0 for t log t, and the witness keeps the drawn norm.  Once a Ritz value
    # has converged, a basis orthogonalized against its last two vectors only
    # loses both: its witness misses both by up to 1e-8 on these draws.
    config = CampaignConfig("C4", d1=1, d2=2, eig_low=eig_range[0], eig_high=eig_range[1])
    _, inputs = campaigns._sample_c4(config, [RngStream(5, index) for index in range(40)])
    x1, h1, x2, h2 = (inputs[key] for key in ("x1", "h1", "x2", "h2"))
    curvature = _midpoint_curvature(T_LOG_T, x1, x2)
    g1, g2 = campaigns._lowest_directions(*curvature, h1, h2)
    drawn, lowest = np.stack([h1, h2], axis=1), np.stack([g1, g2], axis=1)
    norms = campaigns._pair_inner(lowest, lowest) / campaigns._pair_inner(drawn, drawn)
    assert np.abs(norms - 1.0).max() <= 1e-14
    scale = 1.0 + sum(np.linalg.norm(m, axis=(-2, -1)) for m in (x1, g1, x2, g2))
    assert (np.abs(_q_midpoint_margin(*curvature, g1, g2)) <= 1e-14 * scale).all()


def test_c9_routine_survives_an_exactly_invariant_start():
    # With x1 == x2 and h1 == h2 the drawn pair is a null vector bit for bit:
    # the first residual is exactly zero and the Krylov space is exhausted.
    x = random_pd(4, [RngStream(3, 0)])
    h = random_hermitian(4, [RngStream(3, 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g1, g2 = campaigns._lowest_directions(*_midpoint_curvature(CUBE, x, x), h, h)
    assert np.isfinite(np.stack([g1, g2])).all()
    assert _q_midpoint_margin(*_midpoint_curvature(CUBE, x, x), g1, g2)[0] == 0.0


def test_c9_margin_detects_a_constructed_violation():
    # Scalars embedded as 2x2 diagonals: the cube curvature form fails joint
    # midpoint convexity along a mixed (base, direction) segment.
    x1 = np.diag([1.8, 1.8]).astype(complex)
    h1 = np.diag([0.506, 0.506]).astype(complex)
    x2 = np.diag([0.2, 0.2]).astype(complex)
    h2 = np.diag([1.494, 1.494]).astype(complex)
    assert _q_midpoint_margin(*_midpoint_curvature(CUBE, x1, x2), h1, h2) < -1.0


@pytest.mark.parametrize("dim", [1, 2, 4, 9, 64])
def test_c9_direct_sum_witness_violates_at_every_dimension(dim):
    # The 1x1 counterexample x1 = 0.1, h1 = 1, x2 = 3, h2 = 0, whose margin
    # is 0.3 - 6 * 1.55 / 4 = -2.025, padded with an identity block that
    # the directions leave alone.
    pad = np.ones(dim - 1)
    x1, x2 = (np.diag(np.r_[value, pad]).astype(complex) for value in (0.1, 3.0))
    h1 = np.diag(np.r_[1.0, 0.0 * pad]).astype(complex)
    margin = _q_midpoint_margin(*_midpoint_curvature(CUBE, x1, x2), h1, np.zeros_like(h1))
    assert abs(margin + 2.025) <= 1e-14


def test_c9_with_entropy_function_still_searches_cube():
    # The campaign pins f = cube regardless of the configured function.
    report = _run("C9", samples=5, function="t_log_t")
    assert report.config.function == "cube"
    assert _bits(report.margins) == _bits(_run("C9", samples=5).margins)
    assert report.violations == 5
