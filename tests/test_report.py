"""JSON report round-trips: exact floats, matrices, channels, files."""

import base64
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropygap import (
    CAMPAIGN_IDS,
    CHANNEL_FAMILIES,
    CUBE,
    CampaignConfig,
    CampaignReport,
    ConditionalExpectation1,
    MixedUnitaryChannel,
    Pinching,
    apply_channel,
    emit_report,
    emit_reports,
    is_stored_hermitian,
    load_report,
    load_reports,
    matrix_from_json,
    matrix_to_json,
    quad_form,
    random_hermitian,
    render_report,
    report_from_dict,
    report_to_dict,
    run_campaign,
)
from entropygap import RngStream
from entropygap.cli import EXIT_PASS, main
from test_bipartite import sign_unitary_pinching, term_by_term, weyl_expectation


def _report(campaign: str = "C1", **overrides) -> CampaignReport:
    base = dict(campaign=campaign, d1=2, d2=2, samples=5, seed=7)
    base.update(overrides)
    return run_campaign(CampaignConfig(**base))


def test_matrix_encoding_layout():
    m = np.array([[1.0 + 2.0j, 0.0], [3.5, -1.0j]])
    encoded = matrix_to_json(m)
    assert encoded["shape"] == [2, 2]
    raw = base64.b64decode(encoded["base64"])
    # -1.0j is complex(-0.0, -1.0), and the zero keeps its sign.
    assert raw == struct.pack("<8d", 1.0, 2.0, 0.0, 0.0, 3.5, 0.0, -0.0, -1.0)
    # The decode README gives.
    decoded = np.frombuffer(base64.b64decode(encoded["base64"]), "<c16").reshape(encoded["shape"])
    assert np.array_equal(decoded, m)
    assert np.array_equal(matrix_from_json(encoded), m)


def test_matrix_from_json_reads_earlier_nested_pairs():
    m = np.array([[1.0 + 2.0j, 0.0], [3.5, -1.0j]])
    assert np.array_equal(matrix_from_json(_nested(m)), m)
    assert matrix_from_json(_nested(m)).tobytes() == matrix_from_json(matrix_to_json(m)).tobytes()


def test_decoded_matrix_is_a_writable_native_array():
    decoded = matrix_from_json(matrix_to_json(np.eye(3)))
    assert decoded.dtype == np.dtype(complex) and decoded.flags.writeable
    decoded[0, 0] = 2.0


def test_matrix_round_trip_is_bitwise():
    m = random_hermitian(5, RngStream(307, 0))
    through_text = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))
    assert through_text.tobytes() == m.tobytes()


def test_matrix_from_json_rejects_a_shape_that_does_not_fit():
    encoded = matrix_to_json(np.eye(2))
    with pytest.raises(ValueError):
        matrix_from_json({"shape": [3, 3], "base64": encoded["base64"]})


def test_empty_report_round_trips_to_equality():
    report = CampaignReport(
        config=CampaignConfig(campaign="C1", samples=1),
        margins=[],
        violations=0,
        worst_margin=None,
        witness=None,
        errors=[],
        wall_time=0.0,
    )
    assert report_from_dict(report_to_dict(report)) == report


def test_wall_time_is_not_serialized():
    report = _report()
    assert report.wall_time > 0.0
    data = report_to_dict(report)
    assert "wall_time" not in data
    assert "wall_time" not in render_report(report)


def test_identity_run_shows_zero_violations():
    report = _report(function="identity")
    assert '"violations": 0' in render_report(report)


def test_witness_matrices_round_trip_exactly():
    report = _report(campaign="C2")
    recovered = report_from_dict(json.loads(render_report(report)))
    assert recovered.config == report.config
    assert recovered.margins == report.margins
    assert recovered.violations == report.violations
    assert recovered.worst_margin == report.worst_margin
    assert recovered.errors == report.errors
    assert set(recovered.witness) == set(report.witness)
    for key in ("rho", "h"):
        assert np.array_equal(recovered.witness[key], report.witness[key])
    assert recovered.witness["sample"] == report.witness["sample"]


def test_channel_witness_round_trips():
    probe = random_hermitian(6, RngStream(311, 0))
    for family in ("pinching", "expectation", "mixed"):
        report = _report(campaign="C3", d2=3, channel_family=family)
        recovered = report_from_dict(json.loads(render_report(report)))
        original = report.witness["channel"]
        decoded = recovered.witness["channel"]
        assert type(decoded) is type(original)
        if family == "pinching":
            assert np.array_equal(decoded.frame, original.frame)
            assert np.array_equal(decoded.labels, original.labels)
        elif family == "expectation":
            assert decoded == original
        else:
            assert np.array_equal(decoded.weights, original.weights)
            assert np.array_equal(decoded.unitaries, original.unitaries)
        assert np.array_equal(apply_channel(decoded, probe), apply_channel(original, probe))


def test_render_is_deterministic():
    a = render_report(_report())
    b = render_report(_report())
    assert a == b


def test_emit_and_load(tmp_path):
    report = _report(campaign="C8")
    path = tmp_path / "report.json"
    emit_report(report, path)
    loaded = load_report(path)
    assert loaded.margins == report.margins
    assert loaded.wall_time == 0.0
    # A second emit produces identical bytes.
    text = path.read_bytes()
    emit_report(report, path)
    assert path.read_bytes() == text


def test_emit_reports_unwritable_path():
    report = _report()
    with pytest.raises(OSError, match="no-such-directory"):
        emit_report(report, "/no-such-directory/report.json")


def test_load_reports_missing_path(tmp_path):
    with pytest.raises(OSError, match="missing.json"):
        load_report(tmp_path / "missing.json")


# Every matrix must come back from the text bit for bit.


def _nested(m) -> list:
    # The matrix layout of earlier versions: rows of [re, im] pairs.
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _through_text(report: CampaignReport) -> CampaignReport:
    return report_from_dict(json.loads(render_report(report)))


def _same_bits(a, b) -> bool:
    return np.asarray(a, dtype=complex).tobytes() == np.asarray(b, dtype=complex).tobytes()


def _assert_same_witness(got, expected):
    assert (got is None) == (expected is None)
    if expected is None:
        return
    assert list(got) == list(expected)
    for key, value in expected.items():
        decoded = got[key]
        assert type(decoded) is type(value), key
        if isinstance(value, np.ndarray):
            assert decoded.shape == value.shape and _same_bits(decoded, value), key
        elif isinstance(value, Pinching):
            assert _same_bits(decoded.frame, value.frame)
            assert np.array_equal(decoded.labels, value.labels)
        elif isinstance(value, MixedUnitaryChannel):
            assert decoded.weights.tobytes() == np.asarray(value.weights, dtype=float).tobytes()
            assert _same_bits(decoded.unitaries, value.unitaries)
        elif isinstance(value, float):
            assert _bits([decoded]) == _bits([value]), key
        else:
            assert isinstance(value, (ConditionalExpectation1, int, str)), key
            assert decoded == value, key


SPECIAL = (float("nan"), float("inf"), float("-inf"), -0.0, 5e-324)


def _hand_built(witness, margins=(0.5,), errors=()) -> CampaignReport:
    # No margins is a run of one sample that failed: a config needs a sample.
    return CampaignReport(
        config=CampaignConfig(campaign="C1", samples=max(len(margins), 1)),
        margins=list(margins),
        violations=0,
        worst_margin=min(margins) if margins else None,
        witness=witness,
        errors=list(errors),
        wall_time=0.0,
    )


@pytest.mark.parametrize("dims", [(1, 1), (2, 3), (8, 8)])
@pytest.mark.parametrize("campaign", CAMPAIGN_IDS)
def test_every_witness_round_trips_bitwise(campaign, dims):
    report = _report(campaign=campaign, d1=dims[0], d2=dims[1], samples=1 if dims == (8, 8) else 3)
    assert report.witness is not None
    _assert_same_witness(_through_text(report).witness, report.witness)


@pytest.mark.parametrize("dims", [(1, 1), (2, 3)])
@pytest.mark.parametrize("family", CHANNEL_FAMILIES)
def test_every_channel_family_round_trips_bitwise(family, dims):
    report = _report(campaign="C3", d1=dims[0], d2=dims[1], channel_family=family)
    if family == "pinching" and dims != (1, 1):
        assert len(set(report.witness["channel"].labels.tolist())) > 1
    _assert_same_witness(_through_text(report).witness, report.witness)


# Bit patterns no arithmetic produces on the way: quiet and signalling NaNs
# with payloads, both infinities, both zeros, the smallest subnormal.
_PATTERNS = np.array([0x7FF8000000000000, 0x7FF8000000000ABC, 0xFFF0DEADBEEF0001, 0x7FF0000000000001,
                      0x7FF0000000000000, 0xFFF0000000000000, 0x8000000000000000, 0x0,
                      0x1, 0x3FF0000000000000], dtype=np.uint64)


def test_special_floats_round_trip_bitwise():
    square = np.broadcast_to(_PATTERNS.view(complex).reshape(5, 1), (5, 5)).copy()
    report = _hand_built({"rho": square, "sample": 0}, margins=SPECIAL)
    recovered = _through_text(report)
    _assert_same_witness(recovered.witness, report.witness)
    assert recovered.witness["rho"].view(np.uint64).ravel().tolist() == \
        square.view(np.uint64).ravel().tolist()
    assert _bits(recovered.margins) == _bits(report.margins)


def test_noncontiguous_real_and_integer_matrices_round_trip():
    m = random_hermitian(4, RngStream(313, 0)) + 0.5j * np.arange(16).reshape(4, 4)
    real = np.arange(6, dtype=float).reshape(2, 3) - 2.5
    strided = np.arange(64, dtype=complex).reshape(8, 8)[::2, 1::3]
    assert not m.T.flags.c_contiguous and not strided.flags.c_contiguous
    witness = {"rho": m.T, "h": real, "ints": np.eye(2, dtype=int), "strided": strided,
               "one": np.array([[-0.0 + 5e-324j]]), "sample": 1}
    recovered = _through_text(_hand_built(witness)).witness
    for key, value in witness.items():
        if key != "sample":
            assert recovered[key].shape == value.shape
            assert recovered[key].tobytes() == np.asarray(value, dtype=complex).tobytes(), key


def test_64x64_matrix_round_trips_bitwise():
    m = random_hermitian(64, RngStream(331, 0)) * np.float64(1 / 3)
    encoded = matrix_to_json(m)
    assert encoded["shape"] == [64, 64]
    assert len(encoded["base64"]) == 4 * -(-64 * 64 * 16 // 3)
    assert matrix_from_json(json.loads(json.dumps(encoded))).tobytes() == m.tobytes()


def test_empty_matrices_keep_their_shape():
    witness = {"none": np.zeros((0, 0)), "rows": np.zeros((2, 0))}
    recovered = _through_text(_hand_built(witness)).witness
    assert recovered["none"].shape == (0, 0) and recovered["rows"].shape == (2, 0)


def test_report_without_witness_round_trips():
    report = _hand_built(None, margins=())
    assert _through_text(report) == report


def test_escaped_error_message_round_trips():
    errors = [{"sample": 2, "message": 'NumericError: "zero" pivot in \\ \u03c1 \u2264 \u221e\n'}]
    report = _hand_built({"rho": np.eye(2), "sample": 0}, errors=errors)
    text = render_report(report)
    assert text.isascii()
    assert json.loads(text)["errors"] == errors
    assert _through_text(report).errors == errors


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    data=st.data(),
)
def test_random_bit_patterns_round_trip(rows, cols, data):
    words = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=2 * rows * cols,
                               max_size=2 * rows * cols))
    m = np.array(words, dtype=np.uint64).view(complex).reshape(rows, cols)
    report = _hand_built({"x": m, "h": m.T, "sample": 0})
    _assert_same_witness(_through_text(report).witness, report.witness)


def test_emitted_file_is_rendered_utf8_bytes(tmp_path):
    report = _report(campaign="C2")
    path = tmp_path / "report.json"
    emit_report(report, path)
    assert path.read_bytes() == render_report(report).encode("utf-8")
    assert b"\r" not in path.read_bytes()


def _bits(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def test_all_out_document_matches_oracle_and_reads_back(tmp_path, capsys):
    path = tmp_path / "all.json"
    assert main(["--all", "--samples", "4", "--seed", "5", "--out", str(path)]) == EXIT_PASS
    capsys.readouterr()
    loaded = load_reports(path)
    assert sorted(loaded) == [f"C{i}" for i in range(1, 9)]
    for campaign, report in loaded.items():
        fresh = run_campaign(CampaignConfig(campaign=campaign, samples=4, seed=5))
        assert report.config == fresh.config
        assert _bits(report.margins) == _bits(fresh.margins)
        assert _bits([report.worst_margin]) == _bits([fresh.worst_margin])
        assert report.violations == fresh.violations
        _assert_same_witness(report.witness, fresh.witness)
    payload = {"campaigns": {c: report_to_dict(r) for c, r in loaded.items()}}
    assert path.read_text(encoding="utf-8") == json.dumps(payload, indent=2) + "\n"


def test_emit_reports_matches_oracle(tmp_path):
    reports = [_report(campaign=c) for c in ("C3", "C1")]
    path = tmp_path / "both.json"
    emit_reports(reports, path)
    payload = {"campaigns": {r.config.campaign: report_to_dict(r) for r in reports}}
    assert path.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def test_emit_reports_rejects_two_reports_of_one_campaign(tmp_path):
    # The document keys reports by campaign id; the second report of C2
    # would replace the first.
    reports = [_report(campaign="C2", seed=seed) for seed in (1, 2)]
    path = tmp_path / "twice.json"
    with pytest.raises(ValueError, match=r"one report per campaign, got campaigns \['C2', 'C2'\]"):
        emit_reports(reports, path)
    assert not path.exists()
    emit_reports(iter([reports[0], _report(campaign="C3")]), path)
    assert list(load_reports(path)) == ["C2", "C3"]


def test_load_reports_reads_single_report_document(tmp_path):
    report = _report(campaign="C4")
    path = tmp_path / "c4.json"
    emit_report(report, path)
    loaded = load_reports(path)
    assert list(loaded) == ["C4"]
    assert loaded["C4"].margins == report.margins


def test_load_report_reads_documents_with_retired_config_fields(tmp_path):
    # Earlier versions wrote "fd_step" after the weights and "threads" last;
    # no campaign read either.
    report = _report(campaign="C2")
    data = report_to_dict(report)
    config = {}
    for key, value in data["config"].items():
        config[key] = value
        if key == "weights":
            config["fd_step"] = 0.0001
    config["threads"] = 1
    data["config"] = config
    path = tmp_path / "earlier.json"
    path.write_bytes((json.dumps(data, indent=2) + "\n").encode("utf-8"))
    loaded = load_report(path)
    assert loaded.config == report.config
    assert render_report(loaded) == render_report(report)


def test_load_report_reads_c6_documents_that_recorded_t_log_t(tmp_path):
    # Earlier versions recorded the configured function for C6, which read
    # only the exponent; the config now records "power", and a rerun of the
    # loaded config gives the margins the document holds.
    report = _report(campaign="C6", p=1.25)
    data = report_to_dict(report)
    assert data["config"]["function"] == "power"
    data["config"]["function"] = "t_log_t"
    path = tmp_path / "earlier.json"
    path.write_bytes((json.dumps(data, indent=2) + "\n").encode("utf-8"))
    loaded = load_report(path)
    assert loaded.config == report.config
    rerun = run_campaign(loaded.config)
    assert _bits(rerun.margins) == _bits(loaded.margins)
    assert rerun.violations == loaded.violations


def test_load_report_reads_c7_documents_that_recorded_power(tmp_path):
    # Earlier versions recorded the configured function and exponent for C7,
    # which reads neither; the config now records t_log_t at the default
    # exponent, and a rerun of the loaded config gives the document's margins.
    report = _report(campaign="C7")
    data = report_to_dict(report)
    assert (data["config"]["function"], data["config"]["p"]) == ("t_log_t", 1.5)
    data["config"]["function"] = "power"
    data["config"]["p"] = 1.2
    path = tmp_path / "earlier.json"
    path.write_bytes((json.dumps(data, indent=2) + "\n").encode("utf-8"))
    loaded = load_report(path)
    assert loaded.config == report.config
    rerun = run_campaign(loaded.config)
    assert _bits(rerun.margins) == _bits(loaded.margins)
    assert rerun.violations == loaded.violations


@pytest.mark.parametrize("campaign,unread", [
    ("C1", {"channel_family": "pinching"}),
    ("C3", {"weights": [0.3]}),
    ("C7", {"weights": [0.3], "channel_family": "pinching"}),
])
def test_load_report_reads_documents_that_recorded_unread_settings(tmp_path, campaign, unread):
    # Earlier versions recorded the weights and the channel family as given
    # for every campaign; a config now records them at their defaults where
    # its campaign does not read them, and a rerun gives the document's margins.
    report = _report(campaign=campaign)
    data = report_to_dict(report)
    data["config"].update(unread)
    path = tmp_path / "earlier.json"
    path.write_bytes((json.dumps(data, indent=2) + "\n").encode("utf-8"))
    loaded = load_report(path)
    assert loaded.config == report.config
    rerun = run_campaign(loaded.config)
    assert _bits(rerun.margins) == _bits(loaded.margins)
    assert rerun.violations == loaded.violations


def test_report_from_dict_rejects_an_invalid_config():
    data = report_to_dict(_report())
    data["config"]["tolerance"] = -1.0
    with pytest.raises(ValueError, match="tolerance"):
        report_from_dict(data)


@pytest.mark.parametrize("field,value", [("seed", 1.5), ("seed", True), ("d1", 2.0),
                                         ("samples", "5"), ("normalize", "no"), ("relative", 0)])
def test_load_report_rejects_a_config_field_of_the_wrong_type(tmp_path, field, value):
    # A hand-edited seed of 1.5 would otherwise replay the margins of seed 1.
    data = report_to_dict(_report())
    data["config"][field] = value
    path = tmp_path / "edited.json"
    path.write_bytes((json.dumps(data, indent=2) + "\n").encode("utf-8"))
    with pytest.raises(ValueError, match=field):
        load_report(path)


@pytest.mark.parametrize("family", ["pinching", "expectation"])
def test_load_report_reads_c3_documents_in_the_mixed_unitary_layout(tmp_path, family):
    # Earlier versions stored every C3 channel as its weights and unitaries,
    # with a flag claiming idempotence: a pinching as its sign unitaries, the
    # expectation as the Weyl unitaries.
    report = _report(campaign="C3", d2=3, channel_family=family)
    channel = report.witness["channel"]
    if family == "pinching":
        earlier = sign_unitary_pinching(channel.frame, channel.labels)
        assert len(earlier.unitaries) > 1
    else:
        earlier = weyl_expectation(channel.space)
    data = report_to_dict(report)
    # Written again: the terms without the flag, each matrix as base64.
    data["witness"]["channel"] = {"channel": {
        "weights": earlier.weights.tolist(),
        "unitaries": [matrix_to_json(u) for u in earlier.unitaries]}}
    rewritten = json.dumps(data, indent=2) + "\n"
    for key in ("x", "h"):
        data["witness"][key] = {"matrix": _nested(report.witness[key])}
    data["witness"]["channel"] = {"channel": {
        "weights": earlier.weights.tolist(),
        "unitaries": [_nested(u) for u in earlier.unitaries],
        "is_conditional_expectation": True}}
    text = json.dumps(data, indent=2) + "\n"
    single, both = tmp_path / "earlier.json", tmp_path / "earlier-all.json"
    single.write_bytes(text.encode("utf-8"))
    both.write_bytes((json.dumps({"campaigns": {"C3": data}}, indent=2) + "\n").encode("utf-8"))
    probe = random_hermitian(6, RngStream(317, 0))
    expected = term_by_term(earlier, probe)
    for loaded in (load_report(single), load_reports(both)["C3"], load_reports(single)["C3"]):
        assert loaded.margins == report.margins
        decoded = loaded.witness["channel"]
        assert apply_channel(decoded, probe).tobytes() == expected.tobytes()
        # The same map as the structural channel the campaign applied.
        difference = apply_channel(decoded, probe) - apply_channel(channel, probe)
        assert np.linalg.norm(difference) <= 1e-14 * np.linalg.norm(probe)
        assert render_report(loaded) == rewritten


def test_load_report_rejects_multi_campaign_document(tmp_path):
    path = tmp_path / "all.json"
    emit_reports([_report(campaign="C1")], path)
    with pytest.raises(ValueError, match="load_reports"):
        load_report(path)


def test_all_campaigns_document_unwritable_path():
    with pytest.raises(OSError, match="cannot write report to /no-such-directory"):
        emit_reports([_report()], "/no-such-directory/all.json")


# Reports written by the writer before matrices were stored as base64, with
# every matrix as nested [re, im] pairs: verify --campaign C1 --samples 3,
# --campaign C3 --samples 3 with --channel-family pinching and mixed, and
# verify --all --samples 3 (seed 42, d1 = d2 = 2).
DATA = Path(__file__).parent / "data"
EARLIER_REPORTS = ["c1-2x2.json", "c3-pinching-2x2.json", "c3-mixed-2x2.json", "all-samples-3.json"]


# The largest move of a margin, relative to 1 + |margin|, over 1x1-8x8 and
# seeds 42 and 7 when the divided differences became closed forms; only the
# campaigns that read a kernel moved.
KERNEL_MARGIN_MOVES = {"C2": 1.5e-13, "C3": 2.2e-12, "C4": 2.1e-13, "C8": 7.5e-13, "C9": 1.3e-12}


def _assert_rerun_margins(campaign, margins, rerun):
    budget = KERNEL_MARGIN_MOVES.get(campaign)
    if budget is None:
        assert _bits(margins) == _bits(rerun)
    else:
        assert len(margins) == len(rerun)
        assert all(abs(a - b) <= budget * (1.0 + abs(a)) for a, b in zip(margins, rerun))


@pytest.mark.parametrize("name", EARLIER_REPORTS)
def test_reports_with_nested_pair_matrices_still_load_bit_for_bit(name):
    text = (DATA / name).read_text(encoding="utf-8")
    assert '"base64"' not in text and '"matrix": [' in text
    loaded = load_reports(DATA / name)
    if "campaigns" not in json.loads(text):
        (only,) = loaded.values()
        assert render_report(load_report(DATA / name)) == render_report(only)
    for campaign, report in loaded.items():
        rerun = run_campaign(report.config)
        assert report.config == rerun.config
        _assert_rerun_margins(campaign, report.margins, rerun.margins)
        assert report.violations == rerun.violations
        _assert_same_witness(report.witness, rerun.witness)


def test_earlier_reports_cover_both_matrix_channels():
    families = {load_report(DATA / name).witness["family"]
                for name in ("c3-pinching-2x2.json", "c3-mixed-2x2.json")}
    assert families == {"pinching", "mixed"}
    frame_labels = load_report(DATA / "c3-pinching-2x2.json").witness["channel"].labels
    assert len(set(frame_labels.tolist())) > 1


def test_reports_of_the_c9_descent_still_load():
    # Written by verify --campaign C9 --samples 3 --out when C9 appended the
    # margin of a greedy descent from its worst sample as one more entry.
    report = load_report(DATA / "c9-2x2.json")
    assert len(report.margins) == 4
    assert report.witness["sample"] == "descent"
    assert report.worst_margin == min(report.margins)
    mats = [report.witness[key] for key in ("x1", "h1", "x2", "h2")]
    assert all(m.shape == (4, 4) and m.dtype == complex and is_stored_hermitian(m) for m in mats)
    # The matrices decode to the inputs of the worst margin, which the
    # closed-form kernels recompute within C9's budget.
    average = 0.5 * quad_form(CUBE, mats[0], mats[1]) + 0.5 * quad_form(CUBE, mats[2], mats[3])
    midpoint = quad_form(CUBE, (mats[0] + mats[2]) / 2.0, (mats[1] + mats[3]) / 2.0)
    _assert_rerun_margins("C9", [report.worst_margin], [average - midpoint])
