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
from entropygap import bipartite, campaigns
from entropygap.calculus import _curvature
from entropygap.campaigns import _SAMPLERS, _q_midpoint_margin
from kernels import HASWELL, HASWELL_ON_AVX512, SKYLAKEX, recorded
from test_bipartite import sign_unitary_pinching, term_by_term, weyl_expectation
from test_linalg import UNIFORM_RANGES


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
# so a change that moves their last bits fails here and nowhere else.  Each
# pin table holds one set of values per kernel set (see kernels.py).
CURVATURE_PINS = {SKYLAKEX: {
    "C2 t_log_t 2x2": "73d3ed7b5f80b8d683aebbc6db7e544af64497233fd4ff2ca20e7cfb0d4538f3",
    "C3 pinching t_log_t 2x2": "5a535c4710c06b33806129a9696e3d832ab233691bfffcffe88d02da6934b461",
    "C3 expectation t_log_t 2x2": "160ca0022422ad3f36dc3a91424933fef941ad4703705f7a8d32b730b2ef3800",
    "C3 mixed t_log_t 2x2": "5f4622b4eb334a308b387986102304b904430ebf91c332155be8f1a311c792b0",
    "C4 t_log_t 2x2": "2d1faddcfdea9ccce96de4a414ce30c33c0c89d3ee30b36083689e35041c46f0",
    "C2 square 2x2": "b50bbc2a176231e76dcf49cf04f80d4c704d57adfd38fdf2a9ec7a2ff6967aae",
    "C3 pinching square 2x2": "7481d6977f3107ca77d26a47820b9de4847df8e0c2acfdd9db35cd889a2f3fbe",
    "C3 expectation square 2x2": "5be10a5909e0b28bf4675097233247ca8d916f56d9c0046848e1610427b23188",
    "C3 mixed square 2x2": "7ba2fb03bdc9e8c75162f96b2ca541b01d84001a1589a5c5e5d10300998cea66",
    "C4 square 2x2": "26ec5bb0f4a72ce5db65f057671644308ccd969a75ecc530adaf3b05cc60012d",
    "C8 t_log_t 2x2": "6acdaea1d3e96206f3a6a5ab855b9e8e194bad9cc146bd09aa274ee9c820ae55",
    "C9 cube 2x2": "2559d28efdf49c19148d1c34acb86cd216a80e577b255d91ede7f7946fbe7bbe",
    "C2 t_log_t 1x3": "c45366b2dd68cc8d6667fafb6215cfb16b1224d38b9a8ba20a8cbf6382562236",
    "C3 pinching t_log_t 1x3": "d0f09b1fc603fce92643b61db3486bc0c6dbff50aa6655f8d83db4b52acb3ae1",
    "C3 expectation t_log_t 1x3": "fac16eff2ac12db0a000633980e8022ed9ba068cff926ec27592483e8ea10605",
    "C3 mixed t_log_t 1x3": "da9fb8f671fd94ecd1a863948f6b6d8bc99c536e786d2ccc3fcc4281dbc80c30",
    "C4 t_log_t 1x3": "bcf13e45e476759e0c4fb75ea1b3b1a9dd9d35b29ddc7b19e2047a58a8e4062a",
    "C2 square 1x3": "37c17efa80bdae123f4f5fbcbd1fb8d68ae991ee058c0ff5cbb29f30554b4d80",
    "C3 pinching square 1x3": "eb56229dfa00e3f46184af24709c9d53bad3cc7b6d50995291db0baab650fd50",
    "C3 expectation square 1x3": "d6d9507c2475ee0f3607ed3b48f601f1824086fafefcc8d6e42c9f2a59242634",
    "C3 mixed square 1x3": "9df467b3e95ba6b5c0f30af07f0cb95e58d617dd678f50fbdb8d49db224beec3",
    "C4 square 1x3": "ed1deecd0271a6371bb1ed4383970f8408ae1fe07b68131c574d316656532d39",
    "C8 t_log_t 1x3": "6457b891f00fca1c3d9abf4ee8f6ceee88aada6f45433c3d47fd462d1ed34e95",
    "C9 cube 1x3": "564b82f8a83e46fb2b460d114b7651ef43a16e38a8caacba99e2ed97a0ca1f18",
}, HASWELL: {
    "C2 t_log_t 2x2": "932e6c7e29fc5e81eb80444f266a1e2843fbb9e8ba54b648209f6c7bfabb8aa3",
    "C3 pinching t_log_t 2x2": "f2dc7e3d9e80cc9605571c2460003977a8a5faecff93ede73ff2c87e132c1067",
    "C3 expectation t_log_t 2x2": "f81a535dc0fa629e4660b370ca389d40d795564072a0c14d9f3558068ff0e5d1",
    "C3 mixed t_log_t 2x2": "802ec7b5a6dc585c0dde7c308af15138289191cfd7066a997504060bfbb6b6bf",
    "C4 t_log_t 2x2": "9557066a7bff1fc52674239fdd790dc0a37d9ff03902848eaa5a0cc17187ebf5",
    "C2 square 2x2": "43e70f6fdedda0063955557d407dacc924e6af9e432edfa087f0c169f1f26257",
    "C3 pinching square 2x2": "7ce761c336a28b77df01c42eeaf88f3c17ee90ae5bc03c16a016c11bc4f3a4ac",
    "C3 expectation square 2x2": "3d1f6e4f1d7367485dafe7eb11e31a515921a653f94d82e745aa4cfabf5334df",
    "C3 mixed square 2x2": "b80c0a33fed85e61eea8877fa249f33d0db45ff06a7a285f94324cc4dba8757a",
    "C4 square 2x2": "c18b36da42e390de932f9db5b639d8a7824eebfaae5c95ed080bb608c8d77e8c",
    "C8 t_log_t 2x2": "46d608f0fe543e9abafdff3a424d8fca2709ce529abd530e180e02f2ce971cb4",
    "C9 cube 2x2": "23959a5ad4f98e65e1a4d95bffc8c4568831d0127fbb40e41697c26a279a9773",
    "C2 t_log_t 1x3": "9ee76cded26ef831d27d10625bc1f8aa7168bbb46b95941bd03dac8637a3e2a2",
    "C3 pinching t_log_t 1x3": "711bb8b0c9a5969d4688df6a88e3bd326d3ca0a2aee553b6bb922999e7ceb8bc",
    "C3 expectation t_log_t 1x3": "f6b0c5a532975cb29a236219923c26ec59ff3b7b80d7b38252d62ec0b65c97d1",
    "C3 mixed t_log_t 1x3": "7a37a9922359c08d2750064bb99af9f4af6f344f529fc0d5edaa562e59833700",
    "C4 t_log_t 1x3": "22ea3c6d9a9be47e4a2b179dc8b0144aa959a9953010c32bb27d382f9e9446a3",
    "C2 square 1x3": "fe9eb5ca17d9ff9ec1b9e9e63bd4a31c9473a46edb7eed36ec4742419c77ccd9",
    "C3 pinching square 1x3": "df0c5075442b6ba6ffbebc1ffd5b5c7fdbc168224f70dd5c35cac2bf2ee62f85",
    "C3 expectation square 1x3": "27c159129d08a8ff3819497e469d7f4b1c5e6dd2b9eab930300ab787c964c20b",
    "C3 mixed square 1x3": "ca0f23d9f02092a242ea6a212e041818b582f69e09de03b6fc1bcb1d4601da64",
    "C4 square 1x3": "cea912c22e559cb705b4542e214c873b0b4cdedaa007a00c2283239ffbe68f70",
    "C8 t_log_t 1x3": "ce9626c4a83bde75f350a65519889021efdf667947d2e4605a9a67dc4addbcb6",
    "C9 cube 1x3": "f08dc9345ff5abbc4ad856482dd4d4e5a56be1aba53f18b6c5faa78615706e42",
}, HASWELL_ON_AVX512: {
    "C2 t_log_t 2x2": "932e6c7e29fc5e81eb80444f266a1e2843fbb9e8ba54b648209f6c7bfabb8aa3",
    "C3 pinching t_log_t 2x2": "f2dc7e3d9e80cc9605571c2460003977a8a5faecff93ede73ff2c87e132c1067",
    "C3 expectation t_log_t 2x2": "f81a535dc0fa629e4660b370ca389d40d795564072a0c14d9f3558068ff0e5d1",
    "C3 mixed t_log_t 2x2": "3bc683ef61eb80f8f83b841c8644d9b8993ff18c87bd91c5fa6eb2c3ee1b2eb4",
    "C4 t_log_t 2x2": "4dfd4a3ca87c1fd9915b96b36b63b5f05fce5c1062666d3c9995633cdde56a2c",
    "C2 square 2x2": "43e70f6fdedda0063955557d407dacc924e6af9e432edfa087f0c169f1f26257",
    "C3 pinching square 2x2": "7ce761c336a28b77df01c42eeaf88f3c17ee90ae5bc03c16a016c11bc4f3a4ac",
    "C3 expectation square 2x2": "3d1f6e4f1d7367485dafe7eb11e31a515921a653f94d82e745aa4cfabf5334df",
    "C3 mixed square 2x2": "b80c0a33fed85e61eea8877fa249f33d0db45ff06a7a285f94324cc4dba8757a",
    "C4 square 2x2": "c18b36da42e390de932f9db5b639d8a7824eebfaae5c95ed080bb608c8d77e8c",
    "C8 t_log_t 2x2": "24b4b846714e6f29c6c033b7569ec54f38c85cfd67035b0f39b400c1c70e3d70",
    "C9 cube 2x2": "23959a5ad4f98e65e1a4d95bffc8c4568831d0127fbb40e41697c26a279a9773",
    "C2 t_log_t 1x3": "9ee76cded26ef831d27d10625bc1f8aa7168bbb46b95941bd03dac8637a3e2a2",
    "C3 pinching t_log_t 1x3": "a7e30bf5b1c7b17c523def43f5594b140f715a3d3569e55d0c994b8b07f1e977",
    "C3 expectation t_log_t 1x3": "06c80a399a748680682c8d254d9816ce51e481822dc18080d03560f360f2ee54",
    "C3 mixed t_log_t 1x3": "50d98a34ea454621f6d36ea99c3692ad82247f533b57bbab4700c26f2fec16e0",
    "C4 t_log_t 1x3": "a2c011d161c91244bea48a9932f536a47b0f7cf09fd61fd69dd97204732af378",
    "C2 square 1x3": "fe9eb5ca17d9ff9ec1b9e9e63bd4a31c9473a46edb7eed36ec4742419c77ccd9",
    "C3 pinching square 1x3": "df0c5075442b6ba6ffbebc1ffd5b5c7fdbc168224f70dd5c35cac2bf2ee62f85",
    "C3 expectation square 1x3": "27c159129d08a8ff3819497e469d7f4b1c5e6dd2b9eab930300ab787c964c20b",
    "C3 mixed square 1x3": "ca0f23d9f02092a242ea6a212e041818b582f69e09de03b6fc1bcb1d4601da64",
    "C4 square 1x3": "cea912c22e559cb705b4542e214c873b0b4cdedaa007a00c2283239ffbe68f70",
    "C8 t_log_t 1x3": "aac41c76b52fe2b74c988f89344cd1361d94a3c15060ce771962a3120077582f",
    "C9 cube 1x3": "f08dc9345ff5abbc4ad856482dd4d4e5a56be1aba53f18b6c5faa78615706e42",
}}


# The same for the campaigns that read no curvature form: the gap campaigns
# C1, C5 and C6, which take spectra alone, and C7, which takes linear solves.
GAP_AND_CONGRUENCE_PINS = {SKYLAKEX: {
    "C1 t_log_t 2x2": "974a816ac1a2bcb7b0a8f3cbc00ab2699d808446bfae0e7d3876a8e50ae37f51",
    "C5 t_log_t 2x2": "0944e68a72f53653603ce5437cff621125953ca30321d16c28b7fa5b40b619d0",
    "C6 power 2x2": "4c0cd47cfc2f8ea0a16e1e2efaae667858b376b859ebf4f9a0127bee8f93ffc5",
    "C7 t_log_t 2x2": "fbe4297acab65e4b6f9468d194a149e6519e1dbaa92fa9f2f31b134ed2b52abd",
    "C1 t_log_t 1x3": "4621c79cec986e23eb5b837e6a9f79eba512c26353887a040293702404a711ed",
    "C5 t_log_t 1x3": "c2ec2dc4b3eddc5118b5725698e599ce821f3509a47997c037952144805cc7f2",
    "C6 power 1x3": "e60226ea36aa7aba3703a45208f6d75b53326aac1d0365618cb53821add61757",
    "C7 t_log_t 1x3": "e79acfb21c1d276b7c596104b304d08bef549519c4a822cdc75a046765270771",
}, HASWELL: {
    "C1 t_log_t 2x2": "c0c9b867ee663f7dcf04e53bda184a9f0323b0fb742032636fabc7e01284818b",
    "C5 t_log_t 2x2": "5924b2144a210893673763c757e01856bdb9ffd2f349de51cb52107bd83c824b",
    "C6 power 2x2": "aa602b48cd793973c64de109ca117c0f383176e7562b1d35ac4db335492ca84c",
    "C7 t_log_t 2x2": "23a5473e373e2d13c2a8d973c583dde1b282007978213d1aeaf3f90f3f6fa85b",
    "C1 t_log_t 1x3": "9eb8a407e64273d954515d2ef2328881132137e19671358441a476374d4881cc",
    "C5 t_log_t 1x3": "9aa07902c52035812e0774886f5487ab6ab481dc8bf5464a2e3a46ffecbaf62a",
    "C6 power 1x3": "287cd1ab90e451ffc4bcd3235b2fe3b0f3a5beef2de02292cb335997de982179",
    "C7 t_log_t 1x3": "fc828501beb632ab37877fde9b121a3fbbe70afc86ade55c9f5256ae1750008b",
}, HASWELL_ON_AVX512: {
    "C1 t_log_t 2x2": "c0c9b867ee663f7dcf04e53bda184a9f0323b0fb742032636fabc7e01284818b",
    "C5 t_log_t 2x2": "5924b2144a210893673763c757e01856bdb9ffd2f349de51cb52107bd83c824b",
    "C6 power 2x2": "5df7f58bc2b37f1b1b4e66f0d6a3709b7547f9305d126c7d5568a2c185adc43a",
    "C7 t_log_t 2x2": "23a5473e373e2d13c2a8d973c583dde1b282007978213d1aeaf3f90f3f6fa85b",
    "C1 t_log_t 1x3": "9eb8a407e64273d954515d2ef2328881132137e19671358441a476374d4881cc",
    "C5 t_log_t 1x3": "9aa07902c52035812e0774886f5487ab6ab481dc8bf5464a2e3a46ffecbaf62a",
    "C6 power 1x3": "38ee498b4ef8f3f62a77f6df6adabe4c51d744f84f71b4c15d8f43bc15e509cf",
    "C7 t_log_t 1x3": "fc828501beb632ab37877fde9b121a3fbbe70afc86ade55c9f5256ae1750008b",
}}


# C1 and C4 at 8x8 and 3 samples, whose witnesses are two and four 64x64
# matrices. The writer emits json.dumps's bytes itself, as json.dumps with an
# indent runs a slow pure-Python encoder, and writes each base64 payload
# unescaped: base64 holds nothing to escape.
WITNESS_64X64_PINS = {SKYLAKEX: {
    "C1 t_log_t 8x8": "a93c614f54e47e4e2ac5ec6bb6c696c3c95076c2e56c084da62d9a558ae63c8e",
    "C4 t_log_t 8x8": "729cd482a36f7d6406ae07baaefc4377e9376456423d635bef2bbf4907f62679",
}, HASWELL: {
    "C1 t_log_t 8x8": "c49d52f66278477f724e0ce8e109fe21d184bca55461ab3ce182ab73828175e4",
    "C4 t_log_t 8x8": "91a883c29e18660e9e8038c0ef3a94fbb8cb1bf9d11b46054f513153d860c983",
}, HASWELL_ON_AVX512: {
    "C1 t_log_t 8x8": "c49d52f66278477f724e0ce8e109fe21d184bca55461ab3ce182ab73828175e4",
    "C4 t_log_t 8x8": "91a883c29e18660e9e8038c0ef3a94fbb8cb1bf9d11b46054f513153d860c983",
}}


def _pinned_report_sha(label: str, samples: int = 20) -> str:
    campaign, *family, function, shape = label.split()
    d1, d2 = (int(d) for d in shape.split("x"))
    report = _run(campaign, d1=d1, d2=d2, samples=samples, function=function,
                  channel_family=(family or ["uniform"])[0])
    return hashlib.sha256(render_report(report).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("label", CURVATURE_PINS[SKYLAKEX])
def test_curvature_campaign_reports_keep_their_bits(label):
    assert _pinned_report_sha(label) == recorded(CURVATURE_PINS)[label]


@pytest.mark.parametrize("label", GAP_AND_CONGRUENCE_PINS[SKYLAKEX])
def test_gap_and_congruence_campaign_reports_keep_their_bits(label):
    assert _pinned_report_sha(label) == recorded(GAP_AND_CONGRUENCE_PINS)[label]


@pytest.mark.parametrize("label", WITNESS_64X64_PINS[SKYLAKEX])
def test_reports_with_64x64_witnesses_keep_their_bits(label):
    assert _pinned_report_sha(label, samples=3) == recorded(WITNESS_64X64_PINS)[label]


@pytest.mark.parametrize("pins", [CURVATURE_PINS, GAP_AND_CONGRUENCE_PINS, WITNESS_64X64_PINS])
def test_every_kernel_set_pins_the_same_reports(pins):
    assert all(values.keys() == pins[SKYLAKEX].keys() for values in pins.values())


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
@pytest.mark.parametrize("eig_range", [(0.1, 3.0), (1e6, 1e7)], ids=["default", "large"])
def test_chunk_size_does_not_change_margins_or_errors(monkeypatch, campaign, d1, d2, poisoned, eig_range):
    # The scales, the verdicts, the violation count and the worst-witness
    # pick run once per chunk, so the whole report is compared.
    if poisoned:
        _poison(monkeypatch, 4)
    default = campaigns.CHUNK_BYTES
    reports = []
    for chunk in (1, 3, None):
        _with_chunk(monkeypatch, d1 * d2, chunk)
        reports.append(_run(campaign, d1=d1, d2=d2, samples=7, eig_low=eig_range[0], eig_high=eig_range[1]))
        monkeypatch.setattr(campaigns, "CHUNK_BYTES", default)
    assert campaigns._chunk_samples(d1 * d2) >= 7  # the default is one chunk here
    first = reports[0]
    if poisoned:
        assert [e["sample"] for e in first.errors] == [4]
        # Every margin validates its positive definite inputs.
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


# -- scale-aware verdicts ----------------------------------------------------------

# Spectra at the scales a verdict must hold at.
SCALE_RANGES = [(0.1, 3.0), (1e4, 1e5), (1e6, 1e7), (1e-10, 1e-9)]

# Inputs whose exact margin is 0, per campaign: (function, {input: the input
# it copies}).  C1's gap is linear for identity and power(1); for t log t,
# Q(x, x) = tr x, which makes C2 along h = rho and C3 and C4 (whose margin C9
# evaluates) along h = x vanish; and B^H A^-1 B = A at B = A in C7.
EXACT_ZEROS = {
    "C1-identity": ("C1", "identity", {}),
    "C1-power1": ("C1", "power", {}),
    "C2": ("C2", "t_log_t", {"h": "rho"}),
    "C3": ("C3", "t_log_t", {"h": "x"}),
    "C4": ("C4", "t_log_t", {"h1": "x1", "h2": "x2"}),
    "C7": ("C7", "t_log_t", {"b1": "a1", "b2": "a2"}),
}


@pytest.mark.parametrize("eig_range", SCALE_RANGES, ids=lambda r: f"{r[0]:g}-{r[1]:g}")
@pytest.mark.parametrize("family", EXACT_ZEROS)
def test_an_exact_zero_margin_stays_within_its_rounding_floor(family, eig_range):
    # This pins the floor's constant, 16: over 2,000 samples a range, shape
    # and seed, |margin| / (eps * scale) reached 11.3 (C3), 9.4 (C2), 8.2
    # (C4), 1.8 (C1) and 0.8 (C7).
    campaign, function, copies = EXACT_ZEROS[family]
    row = campaigns._CAMPAIGNS[campaign]
    for d1, d2, samples in [(1, 1, 40), (2, 2, 40), (2, 3, 40), (4, 4, 40), (8, 8, 4)]:
        for seed in (42, 7):
            config = CampaignConfig(campaign, d1=d1, d2=d2, seed=seed, function=function, p=1.0,
                                    eig_low=eig_range[0], eig_high=eig_range[1])
            inputs = row.draw(config, RngStream.chunk(seed, range(samples)))
            for name, copied in copies.items():
                inputs[name] = inputs[copied].copy()
            margins = row.margin(config, inputs)
            assert (np.abs(margins) <= campaigns._ROUNDING * np.array(inputs["scale"])).all()


FLOOR_2_40 = campaigns._ROUNDING * 2.0**40  # the rounding floor of scale 2**40, about 3.9e-3


@pytest.mark.parametrize("margin,scale,verdict", [
    (-1e-6, 2.0**40, "error"),  # below the tolerance, within the floor
    (-FLOOR_2_40, 2.0**40, "error"),
    (np.nextafter(-FLOOR_2_40, -1.0), 2.0**40, "violation"),
    (-5e-9, 2.0**40, "pass"),
    (-5e-9, 0.25, "violation"),  # below 1, the threshold is tolerance * scale
    (-2e-9, 0.25, "pass"),
    (-2e-9, 2.0**-40, "violation"),
])
def test_a_margin_is_judged_against_its_scale(monkeypatch, margin, scale, verdict):
    # Sample 3's margin and scale are set; whatever the chunk size, the
    # sample is judged alone, and an error is recorded against it.
    clean = _run("C2", samples=6)
    original = _SAMPLERS["C2"]

    def judged(config, streams):
        margins, inputs = original(config, streams)
        for j, stream in enumerate(streams):
            if stream.stream == 3:
                margins[j], inputs["scale"][j] = margin, scale
        return margins, inputs

    monkeypatch.setitem(_SAMPLERS, "C2", judged)
    reports = []
    for chunk in (1, 3, None):
        _with_chunk(monkeypatch, 4, chunk)
        reports.append(_run("C2", samples=6))
    for report in reports:
        assert render_report(report) == render_report(reports[0])
    report = reports[0]
    if verdict == "error":
        floor = campaigns._ROUNDING * scale
        message = f"NumericError: margin {margin:.3e} is within its rounding error {floor:.3e} of 0"
        assert report.errors == [{"sample": 3, "type": "NumericError", "message": message}]
        assert _bits(report.margins) == _bits(clean.margins[:3] + clean.margins[4:])
        assert report.violations == 0
    else:
        assert report.errors == []
        assert report.violations == (verdict == "violation")
        assert report.margins[3] == margin
    if verdict == "violation":
        assert (report.worst_margin, report.witness["sample"], report.witness["scale"]) == (margin, 3, scale)


def test_rounding_error_at_small_scale_is_no_violation(monkeypatch):
    # C3 at 4x4 on spectra in [1e-10, 1e-9]: one margin of about -1.5e-5
    # sits on forms of about 2.4e11, inside its rounding error.
    reports = []
    for chunk in (1, 3, None):
        _with_chunk(monkeypatch, 16, chunk)
        reports.append(_run("C3", d1=4, d2=4, samples=40, eig_low=1e-10, eig_high=1e-9))
    for report in reports:
        assert render_report(report) == render_report(reports[0])
    report = reports[0]
    assert report.violations == 0
    assert [error["type"] for error in report.errors] == ["NumericError"]
    assert "within its rounding error" in report.errors[0]["message"]


@pytest.mark.parametrize("function,p", [("identity", 1.5), ("power", 1.0)])
def test_a_linear_gap_shows_no_violation_at_large_scale(function, p):
    # The exact C1 margin is 0; at spectra in [1e6, 1e7] its rounding
    # reaches 1e-7, above the tolerance, and is no violation.
    report = _run("C1", d1=4, d2=4, samples=100, function=function, p=p, eig_low=1e6, eig_high=1e7)
    assert report.violations == 0
    assert report.errors and {error["type"] for error in report.errors} == {"NumericError"}
    assert min(report.margins) >= -1e-8


def test_c9_finds_its_violations_at_small_scale():
    # On spectra in [1e-10, 1e-9] C9's margins are about -3e-9, inside the
    # tolerance but far below it times their scale.
    report = _run("C9", samples=50, eig_low=1e-10, eig_high=1e-9)
    assert report.errors == []
    assert report.violations == 50
    assert report.worst_margin > -1e-8


# Each campaign and function whose margins and scales are homogeneous of a
# degree in the positive definite draws: (campaign, function, degree).  C1
# with t log t is left out, as its f takes a logarithm and scales only to
# within rounding.
HOMOGENEOUS = [("C2", "t_log_t", -1), ("C3", "t_log_t", -1), ("C4", "t_log_t", -1), ("C7", "t_log_t", -1),
               ("C8", "t_log_t", 0), ("C9", "cube", 1),
               ("C1", "identity", 1), ("C1", "square", 2), ("C1", "cube", 3)]


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("campaign,function,degree", HOMOGENEOUS, ids=str)
def test_scaling_the_draws_by_a_power_of_four_scales_margins_exactly(monkeypatch, campaign, function, degree, d):
    # A power of four and its square root are exact factors, and LAPACK's
    # routines and every kernel keep them exact for 4**k, k from about -115
    # to 110: margins and scales are the unscaled ones times 4**(k * degree)
    # bit for bit, so the worst sample is the same.
    config = CampaignConfig(campaign, d1=d, d2=d, samples=40, function=function)
    original = campaigns.random_pd

    def sampled(k):
        monkeypatch.setattr(campaigns, "random_pd", lambda *args: original(*args) * 4.0**k)
        streams = RngStream.chunk(config.seed, range(config.samples))
        margins, inputs = campaigns._checked(_SAMPLERS[campaign], config, streams)
        return margins, np.array(inputs["scale"])

    margins, scales = sampled(0)
    for k in (-115, -40, 1, 40, 110):
        factor = 4.0 ** (k * degree)
        scaled_margins, scaled_scales = sampled(k)
        assert _bits(scaled_margins) == _bits(margins * factor)
        assert _bits(scaled_scales) == _bits(scales * factor)
        assert scaled_margins.argmin() == margins.argmin()


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
    # Types: a float seed would run the margins of its integer part.
    {"seed": 1.5},
    {"seed": True},
    {"seed": 42.0},
    {"d1": 1.5},
    {"d2": True},
    {"samples": 2.5},
    {"samples": "5"},
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
    # At 8x8, [1e-3, 3e-2] is where unit trace puts a spectrum drawn in [0.1, 3].
    dict(d1=8, d2=8, samples=20, eig_low=1e-3, eig_high=3e-2),
    dict(samples=200, eig_low=1e-9, eig_high=1e3),
    dict(d1=4, d2=4, samples=100, eig_low=1e-4, eig_high=1.0),
], ids=["8x8-unit-trace", "2x2-wide", "4x4-small"])
def test_c8_reports_no_false_violation_on_wide_or_small_spectra(overrides):
    # The kernel is right on these spectra; a violation would be the
    # reference quadrature's error.
    report = _run("C8", **overrides)
    assert report.errors == []
    assert report.violations == 0


@pytest.mark.parametrize("overrides", [
    dict(samples=20, eig_low=1e160, eig_high=1e161),
    dict(d1=1, d2=1, samples=40, eig_low=1e157, eig_high=1e158),
    dict(samples=20, eig_low=1e-200, eig_high=1e-190),
    dict(samples=20, eig_low=1e200, eig_high=1e201),
    dict(d1=8, d2=8, samples=5, eig_low=1e160, eig_high=1e161),
], ids=["2x2-1e160", "1x1-1e157", "2x2-1e-200", "2x2-1e200", "8x8-1e160"])
def test_c8_references_hold_on_spectra_near_the_float_limits(overrides):
    # The resolvent reference's traces sank below the normal range or
    # overflowed here, and its pencils are now taken at a power of two near
    # the spectrum's geometric mean: no false violation and no error.
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


@pytest.mark.parametrize("pair_range", UNIFORM_RANGES)
def test_c8_pairs_keep_their_uniform_draws(monkeypatch, pair_range):
    # Each sample's (s, t) is numpy's uniform draw of two values, bit for
    # bit, from a single, distinct or repeated stream, and each stream is
    # left where that draw and the sample's matrices leave it.
    monkeypatch.setattr(campaigns, "_C8_PAIR_RANGE", pair_range)
    config = CampaignConfig("C8", d1=1, d2=2)
    makers = [lambda: [RngStream(17, 3)], lambda: RngStream.chunk(17, range(3)),
              lambda: [RngStream(17, 5)] * 3]
    for make in makers:
        streams, reference = make(), make()
        _, inputs = _SAMPLERS["C8"](config, streams)
        pairs = np.stack([stream.gen.uniform(*pair_range, size=2) for stream in reference])
        random_pd(2, reference, (config.eig_low, config.eig_high))
        random_hermitian(2, reference)
        assert _bits(inputs["s"]) + _bits(inputs["t"]) == _bits(pairs[:, 0]) + _bits(pairs[:, 1])
        assert [s.gen.random() for s in streams] == [s.gen.random() for s in reference]


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


@pytest.mark.parametrize("d1,d2", SHAPES + [(3, 3)])
def test_c3_matches_its_mixed_unitary_form(d1, d2):
    families = set()
    for seed in (42, 7):
        config = CampaignConfig(campaign="C3", d1=d1, d2=d2, samples=24, seed=seed)
        report = run_campaign(config)
        streams = [RngStream(seed, index) for index in range(config.samples)]
        campaigns._draw_c3(config, streams)
        assert report.errors == []
        for index, (margin, stream) in enumerate(zip(report.margins, streams)):
            family, x, h, _, q, q_after, next_draw = _mixed_unitary_c3(config, index)
            families.add(family)
            expected = q - q_after
            if family == "mixed":
                assert _bits([margin]) == _bits([expected])
            else:
                assert abs(margin - expected) <= 1e-14 * (1.0 + abs(q) + abs(q_after))
            # The sample left its stream where the one-matrix draws leave it.
            assert int(stream.gen.integers(2**63)) == next_draw

        mixed = run_campaign(replace(config, channel_family="mixed"))
        margins = []
        for index in range(config.samples):
            _, x, h, channel, q, q_after, _ = _mixed_unitary_c3(mixed.config, index)
            margins.append(q - q_after)
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
        inputs = campaigns._draw_c3(config, RngStream.chunk(config.seed, indices))
        return campaigns._margin_c3(config, inputs), inputs

    # A sample's channel is built only when its stack is indexed.
    built = []
    member = bipartite._Stackable.__getitem__
    monkeypatch.setattr(bipartite._Stackable, "__getitem__",
                        lambda channel, k: built.append(k) or member(channel, k))
    margins, inputs = sample(range(40))
    assert built == []
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
    built.clear()
    run_campaign(config)  # one chunk: its worst sample's channel alone is built
    assert len(built) == 1


# -- config variants --------------------------------------------------------------


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


@pytest.mark.parametrize("campaign,eig_range,event", [
    ("C2", (5e-324, 1e-320), "invalid value encountered in subtract"),
    ("C1", (1e307, 1.7e308), "overflow encountered in "),
])
def test_a_floating_point_event_is_a_numeric_error_of_its_sample(campaign, eig_range, event):
    # Near the ends of the float range a margin's arithmetic overflows, or
    # subtracts two infinities; each sample where it does is recorded with
    # the event named, and nothing is warned, whatever the warnings filter.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = _run(campaign, samples=8, eig_low=eig_range[0], eig_high=eig_range[1])
    assert report.margins == [] and report.witness is None
    assert [error["sample"] for error in report.errors] == list(range(8))
    assert all(error["type"] == "NumericError" and error["message"].startswith(f"NumericError: {event}")
               for error in report.errors)


@pytest.mark.parametrize("failing", [[0], [300], [511], list(range(5, 512, 16)), list(range(512))],
                         ids=["first", "middle", "last", "every-16th", "all"])
def test_a_failing_chunk_is_bisected_at_a_bounded_cost(monkeypatch, failing):
    # NaN margins in a chunk of 512 samples.  A NaN margin is a verdict,
    # judged in the chunk that computed it, so the chunk runs once however
    # many fail, well inside the bounds that bisection once needed.  The
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


@pytest.mark.parametrize("failing", [[0], [300], [511], list(range(5, 512, 16)), list(range(512))],
                         ids=["first", "middle", "last", "every-16th", "all"])
def test_a_raising_chunk_is_bisected_at_a_bounded_cost(monkeypatch, failing):
    # A sampler that raises DomainError for any chunk holding a failing
    # stream, in a chunk of 512 samples.  Each chunk that raises is split in
    # halves: one failure costs the chunk and two halves per level, 1 + 2 * 9
    # sampler calls, and failures anywhere at most the 2 * 512 - 1 chunks of
    # the whole bisection.  The report is the one that chunks of one sample
    # give, byte for byte.
    original = _SAMPLERS["C2"]
    calls, fails = [], set(failing)

    def raising(config, streams):
        calls.append(len(streams))
        if any(stream.stream in fails for stream in streams):
            raise DomainError("synthetic failure for testing")
        return original(config, streams)

    monkeypatch.setitem(_SAMPLERS, "C2", raising)
    assert campaigns._chunk_samples(4) == 512
    report = _run("C2", samples=512)
    if len(failing) == 1:
        assert len(calls) <= 2 * math.ceil(math.log2(512)) + 1
    else:
        assert len(calls) <= 2 * 512 - 1
    _with_chunk(monkeypatch, 4, 1)
    alone = _run("C2", samples=512)
    assert report.errors == alone.errors == [{"sample": k, "type": "DomainError",
                                              "message": "DomainError: synthetic failure for testing"}
                                             for k in failing]
    assert render_report(report) == render_report(alone)


def test_a_chunk_whose_only_faults_are_verdicts_calls_the_sampler_once(monkeypatch):
    # Non-finite margins and one within its rounding error, at samples on
    # either side of the worst: each is recorded against its own sample, in
    # sample order, left out of the margins, the count and the witness, and
    # the chunk is drawn once.  The report is that of chunks of one sample.
    clean = _run("C2", samples=64)
    worst = clean.witness["sample"]
    faults = {worst: np.nan, 0: np.inf, 63: -np.inf, 17: -1e-6}
    original = _SAMPLERS["C2"]
    calls = []

    def judged(config, streams):
        calls.append(len(streams))
        margins, inputs = original(config, streams)
        for j, stream in enumerate(streams):
            if stream.stream in faults:
                margins[j] = faults[stream.stream]
                if stream.stream == 17:
                    inputs["scale"][j] = 2.0**40
        return margins, inputs

    monkeypatch.setitem(_SAMPLERS, "C2", judged)
    report = _run("C2", samples=64)
    assert calls == [64]
    floor = campaigns._ROUNDING * 2.0**40
    messages = {0: "margin is not finite: inf", 17: f"margin -1.000e-06 is within its rounding error {floor:.3e} of 0",
                worst: "margin is not finite: nan", 63: "margin is not finite: -inf"}
    assert report.errors == [{"sample": k, "type": "NumericError", "message": f"NumericError: {messages[k]}"}
                             for k in sorted(faults)]
    kept = [m for k, m in enumerate(clean.margins) if k not in faults]
    assert _bits(report.margins) == _bits(kept)
    assert report.worst_margin == min(kept) and report.witness["sample"] != worst
    assert report.violations == clean.violations
    _with_chunk(monkeypatch, 4, 1)
    assert render_report(report) == render_report(_run("C2", samples=64))


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
    inputs = campaigns._draw_c4(config, [RngStream(42, index) for index in range(40)])
    x1, h1, x2, h2 = (inputs[key] for key in ("x1", "h1", "x2", "h2"))

    def scale(*mats):
        return 1.0 + sum(np.linalg.norm(m, axis=(-2, -1)) for m in mats)

    curvature = _midpoint_curvature(T_LOG_T, x1, x2)
    g1, g2 = campaigns._lowest_directions(curvature, h1, h2)
    assert (_q_midpoint_margin(curvature, g1, g2) >= -1e-14 * scale(x1, g1, x2, g2)).all()
    null = _q_midpoint_margin(curvature, x1, x2)
    assert (np.abs(null) <= 1e-14 * scale(x1, x1, x2, x2)).all()
    # From the null direction the first residual is rounding alone.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g1, g2 = campaigns._lowest_directions(curvature, x1, x2)
    assert (_q_midpoint_margin(curvature, g1, g2) >= -1e-14 * scale(x1, g1, x2, g2)).all()


@pytest.mark.parametrize("eig_range", [(0.1, 3.0), (1e-6, 1e3)])
def test_c9_routine_keeps_its_basis_orthogonal_over_the_whole_space(eig_range):
    # At dimension 2 the 8 Lanczos steps span the whole space of pairs, so
    # with orthonormal vectors the lowest Ritz value is the form's minimum,
    # 0 for t log t, and the witness keeps the drawn norm.  Once a Ritz value
    # has converged, a basis orthogonalized against its last two vectors only
    # loses both: its witness misses both by up to 1e-8 on these draws.
    config = CampaignConfig("C4", d1=1, d2=2, eig_low=eig_range[0], eig_high=eig_range[1])
    inputs = campaigns._draw_c4(config, [RngStream(5, index) for index in range(40)])
    x1, h1, x2, h2 = (inputs[key] for key in ("x1", "h1", "x2", "h2"))
    curvature = _midpoint_curvature(T_LOG_T, x1, x2)
    g1, g2 = campaigns._lowest_directions(curvature, h1, h2)
    drawn, lowest = np.stack([h1, h2], axis=1), np.stack([g1, g2], axis=1)
    norms = campaigns._pair_inner(lowest, lowest) / campaigns._pair_inner(drawn, drawn)
    assert np.abs(norms - 1.0).max() <= 1e-14
    scale = 1.0 + sum(np.linalg.norm(m, axis=(-2, -1)) for m in (x1, g1, x2, g2))
    assert (np.abs(_q_midpoint_margin(curvature, g1, g2)) <= 1e-14 * scale).all()


def test_c9_routine_survives_an_exactly_invariant_start():
    # With x1 == x2 and h1 == h2 the drawn pair is a null vector bit for bit:
    # the first residual is exactly zero and the Krylov space is exhausted.
    x = random_pd(4, [RngStream(3, 0)])
    h = random_hermitian(4, [RngStream(3, 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g1, g2 = campaigns._lowest_directions(_midpoint_curvature(CUBE, x, x), h, h)
    assert np.isfinite(np.stack([g1, g2])).all()
    assert _q_midpoint_margin(_midpoint_curvature(CUBE, x, x), g1, g2)[0] == 0.0


def test_c9_margin_detects_a_constructed_violation():
    # Scalars embedded as 2x2 diagonals: the cube curvature form fails joint
    # midpoint convexity along a mixed (base, direction) segment.
    x1 = np.diag([1.8, 1.8]).astype(complex)
    h1 = np.diag([0.506, 0.506]).astype(complex)
    x2 = np.diag([0.2, 0.2]).astype(complex)
    h2 = np.diag([1.494, 1.494]).astype(complex)
    assert _q_midpoint_margin(_midpoint_curvature(CUBE, x1, x2), h1, h2) < -1.0


@pytest.mark.parametrize("dim", [1, 2, 4, 9, 64])
def test_c9_direct_sum_witness_violates_at_every_dimension(dim):
    # The 1x1 counterexample x1 = 0.1, h1 = 1, x2 = 3, h2 = 0, whose margin
    # is 0.3 - 6 * 1.55 / 4 = -2.025, padded with an identity block that
    # the directions leave alone.
    pad = np.ones(dim - 1)
    x1, x2 = (np.diag(np.r_[value, pad]).astype(complex) for value in (0.1, 3.0))
    h1 = np.diag(np.r_[1.0, 0.0 * pad]).astype(complex)
    margin = _q_midpoint_margin(_midpoint_curvature(CUBE, x1, x2), h1, np.zeros_like(h1))
    assert abs(margin + 2.025) <= 1e-14


def test_c9_with_entropy_function_still_searches_cube():
    # The campaign pins f = cube regardless of the configured function.
    report = _run("C9", samples=5, function="t_log_t")
    assert report.config.function == "cube"
    assert _bits(report.margins) == _bits(_run("C9", samples=5).margins)
    assert report.violations == 5
