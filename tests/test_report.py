"""JSON report round-trips: exact floats, matrices, channels, files."""

import base64
import builtins
import codecs
import hashlib
import io
import json
import os
import re
import stat
import struct
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from entropygap import (
    CAMPAIGN_IDS,
    CHANNEL_FAMILIES,
    CUBE,
    BipartiteSpace,
    CampaignConfig,
    CampaignReport,
    ConditionalExpectation1,
    DomainError,
    MixedUnitaryChannel,
    NumericError,
    Pinching,
    apply_channel,
    emit_report,
    emit_reports,
    load_report,
    load_reports,
    matrix_from_json,
    matrix_to_json,
    quad_form,
    random_hermitian,
    random_mixed_unitary,
    random_pinching,
    render_report,
    replay,
    report_from_dict,
    report_to_dict,
    run_campaign,
)
from entropygap import RngStream, campaigns
from entropygap.cli import EXIT_NUMERIC, EXIT_PASS, EXIT_VIOLATION, main
from entropygap.report import _FIELDS, _NUMPY_DECODE_MIN, _b64decode
from kernels import HASWELL, HASWELL_ON_AVX512, SKYLAKEX, recorded
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


@pytest.mark.parametrize("m", [np.array([[1.0 + 2.0j, 0.0], [3.5, -1.0j]]), np.zeros((0, 0)), np.zeros((1, 0))],
                         ids=["2x2", "0x0", "1x0"])
def test_matrix_from_json_reads_earlier_nested_pairs(m):
    # A matrix loads 2-D whatever its shape: [] is the 0x0 matrix, [[]] the 1x0 one.
    assert matrix_from_json(_nested(m)).shape == m.shape
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


@pytest.mark.parametrize("shape,payload", [
    ([-1], ""),
    ([2, -2], ""),
    ([-2, -2], matrix_to_json(np.eye(2))["base64"]),
    ([3, 3], matrix_to_json(np.eye(2))["base64"]),
    ([-1, 4], matrix_to_json(np.eye(2))["base64"]),
    ([2**64], ""),
    ([], ""),
    ([1], "AAAA"),
])
def test_matrix_from_json_rejects_a_shape_that_does_not_fit(shape, payload):
    # A negative entry, which reshape would take as "whatever fits", or a
    # product other than the entry count.
    size = len(base64.b64decode(payload))
    match = f"matrix field 'shape' must be non-negative integers for the {size} bytes of 'base64', 16 per entry"
    with pytest.raises(ValueError, match=re.escape(f"{match}, got {shape}")):
        matrix_from_json({"shape": shape, "base64": payload})


@pytest.mark.parametrize("matrix,fault", [
    ([[1]], "1 at row 0, column 0"),
    ([[["a", 1]]], '["a", 1] at row 0, column 0'),
    ([[[1, None]]], "[1, null] at row 0, column 0"),
    ([[[1, 2, 3]]], "[1, 2, 3] at row 0, column 0"),
    ([[[0, 1]], [[1, True]]], "[1, true] at row 1, column 0"),
    ([[[0, 1]], 2], "2 at row 1"),
    ([[[0, 1]], []], "0 pairs at row 1 and 1 at row 0"),
])
@pytest.mark.parametrize("where", ["witness", "frame"])
def test_report_from_dict_names_malformed_nested_pairs(matrix, fault, where):
    # Earlier versions' matrix layout, in a witness matrix and in a pinching's frame.
    if where == "witness":
        data = report_to_dict(_report())
        data["witness"]["rho"] = {"matrix": matrix}
    else:
        data = report_to_dict(_report(campaign="C3", d2=3, channel_family="pinching"))
        data["witness"]["channel"]["channel"]["frame"] = matrix
    message = f"matrix must be an object or equally long rows of [re, im] number pairs, got {fault}"
    with pytest.raises(ValueError, match=re.escape(message)):
        report_from_dict(data)


def test_report_from_dict_names_a_witness_matrix_that_is_no_array():
    data = report_to_dict(_report())
    data["witness"]["rho"] = {"matrix": "[[1]]"}
    with pytest.raises(ValueError, match=re.escape("matrix must be an object or equally long rows of "
                                                   "[re, im] number pairs, got a string")):
        report_from_dict(data)


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
    errors = [{"sample": 2, "type": "NumericError",
               "message": 'NumericError: "zero" pivot in \\ \u03c1 \u2264 \u221e\n'}]
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


# -- the reader: payloads of 16 K characters and more are decoded in numpy -------
# The reader must return b64decode(text, validate=True)'s bytes on either path,
# or raise its exception with its message.


def _outcome(decode, text):
    # What decode(text) returns, or the type and message of what it raises.
    try:
        return decode(text)
    except Exception as exc:
        return type(exc), str(exc)


def _stdlib_decode(text: str) -> bytes:
    return base64.b64decode(text, validate=True)


def test_payloads_near_the_numpy_threshold_decode_as_b64decode():
    # Every residue of the length mod 4 and mod 16 on both sides of it: a
    # length that is a multiple of 4 with 0, 1 and 2 padding characters, any
    # other a valid text cut short.
    rng = np.random.default_rng(17)
    for length in range(_NUMPY_DECODE_MIN - 32, _NUMPY_DECODE_MIN + 33):
        data = rng.bytes(3 * length // 4 + 3)
        if length % 4:
            texts = [base64.b64encode(data).decode()[:length]]
        else:
            texts = [base64.b64encode(data[:3 * length // 4 - pad]).decode() for pad in (0, 1, 2)]
        for text in texts:
            assert len(text) == length
            expected = _outcome(_stdlib_decode, text)
            assert isinstance(expected, bytes) == (length % 4 == 0)
            assert _outcome(_b64decode, text) == expected, (length, text[-4:])


def test_only_the_last_group_of_a_long_payload_reaches_b64decode(monkeypatch):
    # A 64x64 witness is decoded in numpy but its last group of at most 16
    # characters, and so is a payload at the threshold whose last full group
    # ends in padding. The longest valid payload below the threshold is
    # decoded by b64decode alone.
    m = random_hermitian(64, RngStream(331, 1))
    long_payload = matrix_to_json(m)["base64"]
    rng = np.random.default_rng(3)
    padded = base64.b64encode(rng.bytes(3 * _NUMPY_DECODE_MIN // 4 - 2)).decode()
    short_payload = base64.b64encode(rng.bytes(3 * _NUMPY_DECODE_MIN // 4 - 3)).decode()
    assert len(long_payload) % 16 == 8 and padded.endswith("==") and len(padded) == _NUMPY_DECODE_MIN
    lengths = []
    real = base64.b64decode
    monkeypatch.setattr(base64, "b64decode", lambda text, **kw: lengths.append(len(text)) or real(text, **kw))
    assert matrix_from_json({"shape": [64, 64], "base64": long_payload}).tobytes() == m.tobytes()
    assert _b64decode(padded) == real(padded, validate=True)
    assert lengths == [8, 16]
    lengths.clear()
    assert _b64decode(short_payload) == real(short_payload, validate=True)
    assert lengths == [_NUMPY_DECODE_MIN - 4]


_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def _corrupt(kind, text, data):
    # One corruption of a valid payload, placed by hypothesis.
    at = data.draw(st.integers(0, len(text) - 1))
    if kind == "non-alphabet byte":
        return text[:at] + data.draw(st.sampled_from("!-_.*\x00\x7f \t")) + text[at + 1:]
    if kind == "padding inside":
        return text[:at] + "=" + text[at + 1:]
    if kind == "padding":
        padded = text.rstrip("=") + "=" * data.draw(st.integers(0, 3))
        return padded if padded != text else padded + "="
    if kind == "newline":
        return text[:at] + data.draw(st.sampled_from(["\n", "\r\n"])) + text[at:]
    if kind == "non-ASCII":
        return text[:at] + data.draw(st.sampled_from("\x80\xe9\u2028\U0001f600")) + text[at + 1:]
    cut = data.draw(st.integers(1, 3))
    if data.draw(st.booleans()):
        return text[:at] + text[at + cut:]
    return text[:at] + data.draw(st.text(st.sampled_from(_ALPHABET), min_size=cut, max_size=cut)) + text[at:]


# Entries of a payload shorter than the threshold, and of one around it.
_THRESHOLD_ENTRIES = 3 * _NUMPY_DECODE_MIN // 64


@settings(max_examples=300, deadline=None)
@given(
    entries=st.integers(1, 40) | st.integers(_THRESHOLD_ENTRIES - 8, _THRESHOLD_ENTRIES + 40),
    kind=st.sampled_from(["non-alphabet byte", "padding inside", "padding", "newline", "non-ASCII", "length"]),
    data=st.data(),
)
def test_a_corrupted_payload_fails_as_b64decode_does(entries, kind, data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    payload = base64.b64encode(np.random.default_rng(seed).bytes(16 * entries)).decode()
    text = _corrupt(kind, payload, data)
    assert text != payload
    expected = _outcome(_stdlib_decode, text)
    assert _outcome(_b64decode, text) == expected
    matrix = _outcome(lambda t: matrix_from_json({"shape": [entries], "base64": t}).tobytes(), text)
    if not isinstance(expected, bytes):
        assert matrix == expected
    elif len(expected) == 16 * entries:
        assert matrix == expected
    else:
        assert matrix[0] is ValueError and matrix[1].startswith("matrix field ")


# -- the writer: json.dumps' bytes, emitted without json.dumps -------------------
# json.dumps with an indent runs a slow pure-Python encoder, so the writer emits
# its bytes itself, every string escaped but a witness matrix's base64 payload.


def _dumped(tree: dict) -> str:
    return json.dumps(tree, indent=2) + "\n"


@pytest.mark.parametrize("campaign", CAMPAIGN_IDS)
def test_render_is_json_dumps_at_8x8(campaign):
    # Each witness matrix is a 64x64 payload of 87,384 base64 characters.
    report = _report(campaign=campaign, d1=8, d2=8, samples=3)
    assert render_report(report) == _dumped(report_to_dict(report))


def _spliced_cases() -> dict:
    rng = RngStream(11, 0)
    return {
        "no witness, no margins": _hand_built(None, margins=()),
        "escaped error message": _hand_built({"rho": np.eye(2), "sample": 0}, errors=[
            {"sample": 1, "message": 'NumericError: {"base64": ""} "x\\" \u03c1 \u2264 \u221e\n'},
        ]),
        "0x0 matrix": _hand_built({"none": np.zeros((0, 0)), "rho": np.eye(2), "sample": 0}),
        # The key dumps as "x\"base64": "", one more match than there are payloads.
        "key ending in base64": _hand_built({'x"base64': "", "rho": np.eye(2), "sample": 0}),
        "channels": _hand_built({
            "pinching": random_pinching(4, rng),
            "mixed": random_mixed_unitary(4, rng, 3),
            "expectation": ConditionalExpectation1(BipartiteSpace(2, 2)),
            "sample": 0,
        }),
    }


@pytest.mark.parametrize("case", list(_spliced_cases()))
def test_render_is_json_dumps_for_hand_built_reports(case):
    report = _spliced_cases()[case]
    assert render_report(report) == _dumped(report_to_dict(report))


def test_emit_reports_of_hand_built_reports_is_json_dumps(tmp_path):
    reports = [replace(report, config=replace(report.config, campaign=campaign))
               for campaign, report in zip(("C1", "C2", "C5", "C6", "C7"), _spliced_cases().values())]
    path = tmp_path / "several.json"
    emit_reports(reports, path)
    tree = {"campaigns": {r.config.campaign: report_to_dict(r) for r in reports}}
    assert path.read_bytes() == _dumped(tree).encode("utf-8")


_KEYS = st.text(st.sampled_from('"\\/\x00\x1f\n\t\x7f\u2028a\u00e9\U0001f600')) | st.text(max_size=4)
_FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, *SPECIAL])
_SCALARS = _FLOATS | st.integers() | st.integers(2**64, 10**80) | st.booleans() | st.none() | _KEYS
_TREES = st.recursive(_SCALARS, lambda children: st.lists(children, max_size=3)
                      | st.dictionaries(_KEYS, children, max_size=3), max_leaves=12)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    margins=st.lists(_FLOATS, max_size=4),
    worst=st.none() | _FLOATS,
    witness=st.none() | st.dictionaries(_KEYS, _SCALARS | st.sampled_from([np.zeros((0, 0)), np.eye(2)]),
                                        max_size=4),
    errors=st.lists(st.dictionaries(_KEYS, _TREES, max_size=4), max_size=3),
)
def test_render_and_emit_reports_are_json_dumps_for_any_tree(tmp_path, margins, worst, witness, errors):
    report = CampaignReport(config=CampaignConfig(campaign="C1"), margins=margins, violations=0,
                            worst_margin=worst, witness=witness, errors=errors, wall_time=0.0)
    assert render_report(report) == _dumped(report_to_dict(report))
    reports = [report, replace(report, config=CampaignConfig(campaign="C2"), witness=None)]
    emit_reports(reports, tmp_path / "several.json")
    tree = {"campaigns": {r.config.campaign: report_to_dict(r) for r in reports}}
    assert (tmp_path / "several.json").read_bytes() == _dumped(tree).encode("utf-8")


@pytest.mark.parametrize("witness, errors", [
    # Outside a witness every string is escaped, one shaped as a matrix too.
    ({"rho": np.eye(2), "sample": 0}, [{"sample": 1, "shape": [1], "base64": 'a"b'}]),
    ({"rho": np.eye(2)}, [{"witness": {"m": {"shape": [1], "base64": 'a"b'}}}]),
    # So is a witness value, and the witness itself is no matrix.
    ({'x"base64': 'a"b', "none": np.zeros((0, 0)), "sample": 0}, []),
    ({"shape": "1x1", "base64": 'a"b'}, []),
])
def test_render_escapes_every_string_but_a_witness_matrix_payload(witness, errors):
    report = _hand_built(witness, errors=errors)
    assert render_report(report) == _dumped(report_to_dict(report))


@pytest.mark.parametrize("key", [1, 1.5, True, None])
def test_a_key_that_is_no_string_raises_type_error_and_writes_nothing(tmp_path, key):
    # json.dumps would write the key as a string, which would load as another key.
    path = tmp_path / "report.json"
    path.write_bytes(b"earlier document\n")
    for report in (_hand_built({key: 0.5}), _hand_built(None, errors=[{"sample": 0, key: 1}])):
        with pytest.raises(TypeError, match="report keys must be str"):
            emit_report(report, path)
        with pytest.raises(TypeError, match="report keys must be str"):
            emit_reports([report], path)
    assert path.read_bytes() == b"earlier document\n"


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


# -- documents the CLI writes at 8x8, read back ---------------------------------
# all.json holds 64x64 witnesses, whose payloads the reader decodes in numpy. It
# is written with 5 samples and then rewritten in place with 3, so its checks
# also cover a document that shrank over a longer one. At 8x8 a chunk holds 2
# samples, so the run of 3 judges and searches two chunks. The C9 run finds its
# violation (t^3 is no matrix entropy); in errors.json the identity margins are
# lost in rounding, so its C1 report holds errors entries.
CLI_DOCUMENTS = {
    "all.json": [(["--all", "--d1", "8", "--d2", "8", "--samples", "5"], EXIT_PASS),
                 (["--all", "--d1", "8", "--d2", "8", "--samples", "3"], EXIT_PASS)],
    "c9.json": [(["--campaign", "C9", "--d1", "8", "--d2", "8", "--samples", "3"], EXIT_VIOLATION)],
    "errors.json": [(["--all", "--function", "identity", "--eig-range", "1e6,1e7", "--d1", "4", "--d2", "4",
                      "--samples", "100"], EXIT_NUMERIC)],
}


@pytest.fixture(scope="module")
def cli_documents(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli")
    for name, runs in CLI_DOCUMENTS.items():
        for args, code in runs:
            assert main([*args, "--out", str(directory / name)]) == code, (name, args)
    return directory


@pytest.mark.parametrize("name", ["all.json", "errors.json"])
def test_cli_document_is_json_dumps_of_its_loaded_reports(cli_documents, name):
    path = cli_documents / name
    reports = load_reports(path)
    tree = {"campaigns": {campaign: report_to_dict(r) for campaign, r in reports.items()}}
    assert path.read_bytes() == (json.dumps(tree, indent=2) + "\n").encode("utf-8")
    assert any(report.errors for report in reports.values()) == (name == "errors.json")


def test_cli_document_at_8x8_reruns_and_replays_bit_for_bit(cli_documents):
    path = cli_documents / "all.json"
    assert max(map(len, re.findall(r'"base64": "([^"]*)"', path.read_text()))) >= _NUMPY_DECODE_MIN
    reports = load_reports(path)
    assert sorted(reports) == [f"C{i}" for i in range(1, 9)]
    for campaign, report in reports.items():
        rerun = run_campaign(report.config)
        assert len(report.margins) == 3 and _bits(report.margins) == _bits(rerun.margins), campaign
        for key, value in rerun.witness.items():
            if isinstance(value, np.ndarray):
                assert value.tobytes() == report.witness[key].tobytes(), (campaign, key)
        assert _bits([replay(report)]) == _bits([report.worst_margin]), campaign


def test_cli_c9_document_replays_its_violation(cli_documents):
    # C9's witness holds the Lanczos directions and replays through C4's margin,
    # the only replay through another campaign's margin.
    c9 = load_report(cli_documents / "c9.json")
    assert c9.violations > 0
    assert _bits([replay(c9)]) == _bits([c9.worst_margin])


@pytest.mark.parametrize("campaign,field", [("C1", "weight"), ("C2", "scale"), ("C3", "family")])
def test_cli_document_witness_does_not_replay_once_edited(cli_documents, campaign, field):
    report = load_reports(cli_documents / "all.json")[campaign]
    edited = {"weight": 0.123, "scale": 2.5,
              "family": "pinching" if report.witness.get("family") == "mixed" else "mixed"}[field]
    with pytest.raises(ValueError):
        replay(replace(report, witness={**report.witness, field: edited}))


def test_cli_document_without_the_margins_of_one_report_does_not_load(cli_documents, tmp_path):
    data = json.loads((cli_documents / "all.json").read_text(encoding="utf-8"))
    del data["campaigns"]["C2"]["margins"]
    broken = tmp_path / "all-broken.json"
    broken.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ValueError, match="report field 'margins' must be an array of numbers, got nothing"):
        load_reports(broken)


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


# An existing file is overwritten in place and cut to the new length.


def _emit_one(report, path):
    emit_report(report, path)
    return render_report(report).encode("utf-8")


def _emit_two(report, path):
    reports = [report, replace(report, config=replace(report.config, campaign="C2"))]
    emit_reports(reports, path)
    return _dumped({"campaigns": {r.config.campaign: report_to_dict(r) for r in reports}}).encode("utf-8")


WRITERS = {"emit_report": _emit_one, "emit_reports": _emit_two}


@pytest.mark.parametrize("writer", WRITERS)
@pytest.mark.parametrize("stale", ["longer", "shorter"])
def test_emit_replaces_the_whole_of_an_existing_file(tmp_path, writer, stale):
    report = _report(campaign="C1")
    path = tmp_path / "report.json"
    size = len(render_report(report))
    path.write_bytes(b"stale\n" * (size if stale == "longer" else 1))
    expected = WRITERS[writer](report, path)
    assert path.read_bytes() == expected


@pytest.mark.parametrize("writer", WRITERS)
def test_emit_keeps_the_inode_mode_and_hard_links_of_a_file(tmp_path, writer):
    path = tmp_path / "report.json"
    path.write_bytes(b"x" * 100_000)
    path.chmod(0o640)
    before = path.stat()
    link = tmp_path / "link.json"
    os.link(path, link)
    expected = WRITERS[writer](_report(campaign="C1"), path)
    after = path.stat()
    assert after.st_ino == before.st_ino
    assert stat.S_IMODE(after.st_mode) == 0o640
    assert link.read_bytes() == expected


def test_emit_creates_a_file_with_the_mode_open_gives(tmp_path):
    reference = tmp_path / "reference"
    with open(reference, "wb"):
        pass
    path = tmp_path / "report.json"
    emit_report(_report(), path)
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)


def test_emit_opens_the_file_without_truncating_it(tmp_path, monkeypatch):
    # On ext4, cutting a file to zero and writing it again makes close()
    # start writeback, which cost most of the time of writing a report.
    calls = []
    real_open = os.open

    def spy(path, flags, *args, **kwargs):
        calls.append(flags)
        return real_open(path, flags, *args, **kwargs)

    report = _report()
    monkeypatch.setattr(os, "open", spy)
    emit_report(report, tmp_path / "report.json")
    assert len(calls) == 1
    assert calls[0] & (os.O_WRONLY | os.O_CREAT) == os.O_WRONLY | os.O_CREAT
    assert not calls[0] & os.O_TRUNC


@pytest.mark.parametrize("writer", WRITERS)
def test_emit_to_a_directory_raises_os_error(tmp_path, writer):
    with pytest.raises(OSError, match="cannot write report to"):
        WRITERS[writer](_report(), tmp_path)


def test_emit_and_load_make_one_descriptor_call_and_open_no_file_object(tmp_path, monkeypatch):
    # A file object's fstat, isatty and lseek calls took a large share of
    # the time of writing and reading a small report between campaign runs.
    flags = []
    real_open = os.open

    def spy(path, mode, *args, **kwargs):
        flags.append(mode)
        return real_open(path, mode, *args, **kwargs)

    def no_file_object(*args, **kwargs):
        raise AssertionError("a report was read or written through a file object")

    report = _report()
    path = tmp_path / "report.json"
    monkeypatch.setattr(os, "open", spy)
    monkeypatch.setattr(builtins, "open", no_file_object)
    monkeypatch.setattr(io, "open", no_file_object)
    emit_report(report, path)
    assert len(flags) == 1
    loaded = load_report(path)
    assert len(flags) == 2
    assert not flags[1] & (os.O_WRONLY | os.O_RDWR)
    monkeypatch.undo()
    assert render_report(loaded) == render_report(report)


# A pipe or a device cannot be cut to a length: the writer streams the
# document into it, and the reader reads one to the end.


def _in_thread(target, *args) -> tuple[threading.Thread, list]:
    results = []
    thread = threading.Thread(target=lambda: results.append(target(*args)), daemon=True)
    thread.start()
    return thread, results


@pytest.mark.parametrize("writer", WRITERS)
def test_emit_to_a_device(writer):
    WRITERS[writer](_report(), os.devnull)


@pytest.mark.parametrize("writer", WRITERS)
def test_emit_streams_the_document_into_a_fifo(tmp_path, writer):
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    reader, received = _in_thread(Path.read_bytes, fifo)
    expected = WRITERS[writer](_report(), fifo)
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert received == [expected]


def test_load_reads_a_document_from_a_fifo_to_its_end(tmp_path):
    # A FIFO reports size 0, and this document is several pipes' worth.
    report = _report(campaign="C4", d1=8, d2=8, samples=2)
    text = render_report(report)
    assert len(text) > 300_000
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    writer, _ = _in_thread(fifo.write_bytes, text.encode("utf-8"))
    loaded = load_report(fifo)
    writer.join(timeout=60)
    assert not writer.is_alive()
    assert render_report(loaded) == text


def test_load_reads_a_document_with_crlf_line_endings(tmp_path):
    report = _report(campaign="C3")
    path = tmp_path / "crlf.json"
    path.write_bytes(render_report(report).replace("\n", "\r\n").encode("utf-8"))
    assert render_report(load_report(path)) == render_report(report)


def test_load_rejects_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.json"
    path.write_bytes(codecs.BOM_UTF8 + render_report(_report()).encode("utf-8"))
    with pytest.raises(json.JSONDecodeError, match="Unexpected UTF-8 BOM"):
        load_report(path)


def test_load_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(render_report(_report()).encode("utf-8").replace(b'"C1"', b'"C\xb9"'))
    with pytest.raises(UnicodeDecodeError):
        load_report(path)


def test_load_from_a_directory_raises_os_error(tmp_path):
    with pytest.raises(OSError, match="cannot read report from"):
        load_report(tmp_path)


def test_reports_that_cannot_be_written_leave_an_existing_file_unchanged(tmp_path):
    path = tmp_path / "report.json"
    path.write_bytes(b"earlier document\n")
    unserializable = replace(_report(), witness={"x": object()})
    with pytest.raises(TypeError, match="cannot serialize witness value"):
        emit_report(unserializable, path)
    with pytest.raises(TypeError, match="cannot serialize witness value"):
        emit_reports([unserializable], path)
    with pytest.raises(ValueError, match="one report per campaign"):
        emit_reports([_report(seed=1), _report(seed=2)], path)
    assert path.read_bytes() == b"earlier document\n"


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


@pytest.mark.parametrize("edit,field", [(lambda config: config.update(foo=1), "foo"),
                                        (lambda config: config.pop("campaign"), "campaign")])
def test_report_from_dict_names_an_unknown_or_missing_config_field(edit, field):
    data = report_to_dict(_report())
    edit(data["config"])
    with pytest.raises(ValueError, match=f"'{field}'"):
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


@pytest.mark.parametrize("document,kind", [([], "an array"), ("report", "a string"), (3, "an integer"),
                                           (None, "null"), (True, "a boolean"), ((), "tuple")])
def test_report_from_dict_rejects_a_document_that_is_no_object(document, kind):
    with pytest.raises(ValueError, match=f"a report must be a JSON object, got {kind}"):
        report_from_dict(document)


@pytest.mark.parametrize("field", ["config", "margins", "violations", "worst_margin", "witness", "errors"])
def test_report_from_dict_names_a_missing_report_field(field):
    data = report_to_dict(_report())
    del data[field]
    with pytest.raises(ValueError, match=f"report field '{field}' must be .*, got nothing"):
        report_from_dict(data)


@pytest.mark.parametrize("field,value,kind", [
    ("config", [], "an array"), ("config", None, "null"),
    ("margins", {}, "an object"), ("margins", "0.5", "a string"),
    ("violations", "0", "a string"), ("violations", 0.0, "a number"), ("violations", False, "a boolean"),
    ("worst_margin", "0.5", "a string"), ("worst_margin", [0.5], "an array"),
    ("witness", [], "an array"), ("witness", 1, "an integer"),
    ("errors", {}, "an object"), ("errors", None, "null"),
    # Entries: margins are numbers, errors objects.
    ("margins", [0.5, None], "null at index 1"), ("margins", ["1.5"], "a string at index 0"),
    ("margins", [True], "a boolean at index 0"), ("margins", [[0.5]], "an array at index 0"),
    ("errors", [1], "an integer at index 0"), ("errors", [None], "null at index 0"),
])
def test_report_from_dict_names_a_report_field_of_the_wrong_json_type(field, value, kind):
    data = report_to_dict(_report())
    data[field] = value
    with pytest.raises(ValueError, match=f"report field '{field}' must be .*, got {kind}"):
        report_from_dict(data)


@pytest.mark.parametrize("entry,match", [
    ({"sample": "1", "type": "NumericError", "message": "m"}, "'sample' must be an integer, got a string"),
    ({"sample": True, "type": "NumericError", "message": "m"}, "'sample' must be an integer, got a boolean"),
    ({"sample": 1, "type": 3, "message": "m"}, "'type' must be a string, got an integer"),
    ({"sample": 1, "type": "NumericError"}, "'message' must be a string, got nothing"),
])
def test_report_from_dict_names_a_field_of_an_errors_entry_and_its_index(entry, match):
    # An errors entry is an object with an integer sample and a string type
    # and message; the second entry here is not.
    data = report_to_dict(_report())
    data["errors"] = [{"sample": 0, "type": "NumericError", "message": "m"}, entry]
    with pytest.raises(ValueError, match=f"errors entry 1 field {match}"):
        report_from_dict(data)


_MISSING = object()  # a field deleted from the document


@pytest.mark.parametrize("field,value,match", [
    ("base64", 12, "matrix field 'base64' must be a string, got an integer"),
    ("base64", None, "matrix field 'base64' must be a string, got null"),
    ("shape", "ab", "matrix field 'shape' must be a list of integers, got a string"),
    ("shape", [4, 4.0], "matrix field 'shape' must be a list of integers, got a number at index 1"),
    ("shape", [4, True], "matrix field 'shape' must be a list of integers, got a boolean at index 1"),
    ("shape", None, "matrix field 'shape' must be a list of integers, got null"),
    ("shape", _MISSING, "matrix field 'shape' must be a list of integers, got nothing"),
    # A shape that does not fit the entries its base64 holds: rho at 2x2 holds 16.
    ("shape", [-1], "matrix field 'shape' must be non-negative integers for the 256 bytes of 'base64', "
                    "16 per entry, got [-1]"),
    ("shape", [-4, -4], "matrix field 'shape' must be non-negative integers for the 256 bytes of 'base64', "
                        "16 per entry, got [-4, -4]"),
    ("shape", [3, 3], "matrix field 'shape' must be non-negative integers for the 256 bytes of 'base64', "
                      "16 per entry, got [3, 3]"),
    # The fields of a witness channel, missing or of the wrong JSON type.
    ("frame", _MISSING, "channel field 'frame' must be a matrix, got nothing"),
    ("frame", 3, "channel field 'frame' must be a matrix, got an integer"),
    ("labels", _MISSING, "channel field 'labels' must be a list of integers, got nothing"),
    ("labels", [0, 1.0], "channel field 'labels' must be a list of integers, got a number at index 1"),
    ("d1", "2", "channel field 'd1' must be an integer, got a string"),
    ("d2", _MISSING, "channel field 'd2' must be an integer, got nothing"),
    ("weights", _MISSING, "channel field 'weights' must be a list of numbers, got nothing"),
    ("weights", [0.5, True], "channel field 'weights' must be a list of numbers, got a boolean at index 1"),
    ("unitaries", _MISSING, "channel field 'unitaries' must be a list of matrices, got nothing"),
    ("unitaries", [3], "channel field 'unitaries' must be a list of matrices, got an integer at index 0"),
])
def test_report_from_dict_names_a_witness_matrix_field_of_the_wrong_json_type(field, value, match):
    # A matrix field is set in C1's witness, a channel field in that of C3
    # with a channel of the family that stores it.
    family = {"frame": "pinching", "labels": "pinching", "d1": "expectation", "d2": "expectation",
              "weights": "mixed", "unitaries": "mixed"}.get(field)
    if family is None:
        data = report_to_dict(_report())
        target = data["witness"]["rho"]["matrix"]
    else:
        data = report_to_dict(_report(campaign="C3", d2=3, channel_family=family))
        target = data["witness"]["channel"]["channel"]
    if value is _MISSING:
        del target[field]
    else:
        target[field] = value
    with pytest.raises(ValueError, match=re.escape(match)):
        report_from_dict(data)


# One value of each JSON type, by the name the loader gives its type.
JSON_VALUES = {"an object": {}, "an array": [], "a string": "s", "an integer": 1, "a number": 0.5,
               "a boolean": True, "null": None}


def _field_table_cases():
    # For every field of every kind of object in the loader's table: the field
    # missing, of a JSON type it may not hold and, for an array, holding an
    # item of a type it may not hold.
    for kind, table in _FIELDS.items():
        for name, (_, types, items) in table.items():
            wrong = next(found for found, value in JSON_VALUES.items() if type(value) not in types)
            cases = [(_MISSING, "nothing"), (JSON_VALUES[wrong], wrong)]
            if items:
                bad = next(found for found, value in JSON_VALUES.items() if type(value) not in items)
                cases.append(([JSON_VALUES[bad]], f"{bad} at index 0"))
            for value, found in cases:
                yield pytest.param(kind, name, value, found, id=f"{kind}-{name}-{found}")


def _object_holding(kind, name):
    # A report document, an object of kind in it that holds field name, and
    # how the loader names that object.
    data = report_to_dict(_report())
    if kind == "report":
        return data, data, kind
    if kind == "errors entry":
        data["errors"] = [{"sample": 0, "type": "NumericError", "message": "m"}]
        return data, data["errors"][0], "errors entry 0"
    if kind == "matrix":
        return data, data["witness"]["rho"]["matrix"], kind
    for family in ("pinching", "expectation", "mixed"):
        data = report_to_dict(_report(campaign="C3", d2=3, channel_family=family))
        if name in data["witness"]["channel"]["channel"]:
            return data, data["witness"]["channel"]["channel"], kind
    raise AssertionError(f"no witness holds a {kind} field {name!r}")


@pytest.mark.parametrize("kind,name,value,found", _field_table_cases())
def test_every_field_of_the_loader_table_is_checked(kind, name, value, found):
    # Generated from the table itself, so a field added to it is checked too.
    data, target, owner = _object_holding(kind, name)
    if value is _MISSING:
        del target[name]
    else:
        target[name] = value
    what = _FIELDS[kind][name][0]
    with pytest.raises(ValueError, match=re.escape(f"{owner} field {name!r} must be {what}, got {found}")):
        report_from_dict(data)


@pytest.mark.parametrize("field", ["normalize", "relative"])
def test_report_from_dict_refuses_a_retired_setting_it_cannot_honour(field):
    # Earlier versions could rescale draws to unit trace or divide margins by
    # a norm; a document that did either holds what this version does not
    # compute, and one that did neither loads.
    data = report_to_dict(_report())
    data["config"][field] = False
    assert report_from_dict(data).config == _report().config
    data["config"][field] = True
    with pytest.raises(ValueError, match=f"config field '{field}' is True"):
        report_from_dict(data)


def test_report_from_dict_reads_a_worst_margin_written_as_an_integer():
    data = report_to_dict(_report())
    data["worst_margin"] = 0
    assert report_from_dict(data).worst_margin == 0.0


@pytest.mark.parametrize("document,match", [
    ([], "a report must be a JSON object, got an array"),
    ({"campaigns": []}, "'campaigns' must be a JSON object, got an array"),
    ({"campaigns": {"C1": []}}, "the report of campaign 'C1' must be a JSON object, got an array"),
    ({"campaigns": {"C1": "report"}}, "the report of campaign 'C1' must be a JSON object, got a string"),
])
def test_load_reports_names_what_is_no_object(tmp_path, document, match):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    with pytest.raises(ValueError, match=match):
        load_reports(path)


def test_load_reports_names_a_missing_field_of_one_report(tmp_path):
    path = tmp_path / "all.json"
    emit_reports([_report(campaign="C1"), _report(campaign="C2")], path)
    data = json.loads(path.read_text(encoding="utf-8"))
    del data["campaigns"]["C2"]["margins"]
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ValueError, match="report field 'margins' must be an array of numbers, got nothing"):
        load_reports(path)


def test_load_reports_names_a_report_under_another_campaigns_key(tmp_path):
    path = tmp_path / "all.json"
    emit_reports([_report(campaign="C2")], path)
    data = json.loads(path.read_text(encoding="utf-8"))
    data["campaigns"] = {"C1": data["campaigns"]["C2"]}
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ValueError, match="the report of campaign 'C1' is a C2 report"):
        load_reports(path)


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


# The earlier reports were written on the SKYLAKEX kernel set, where a rerun
# of each gives its margins and witness.  On another kernel set, the SHA-256
# of each rerun's rendered report is pinned, and the float.hex of the margin
# that each witness replays to, by file and campaign.
EARLIER_RERUN_PINS = {SKYLAKEX: None, HASWELL: {
    "c1-2x2.json C1": "0832f289e914639c1a2502c28d3328e1abbe0c66472a1959b82ba06c0b09ba0c",
    "c3-pinching-2x2.json C3": "080b8bfac86a2a9de3ff5d321861626fe76317fced7011084c11b251cac75895",
    "c3-mixed-2x2.json C3": "01c75b15eb199d42868d6d4ce7be7b1cfefee0b0dfb62b29412323ff3fbd8411",
    "all-samples-3.json C1": "0832f289e914639c1a2502c28d3328e1abbe0c66472a1959b82ba06c0b09ba0c",
    "all-samples-3.json C2": "9fdec3d8692d560fce0922562b0da47dac360d24ea5b44473f70dbc183bdf0d4",
    "all-samples-3.json C3": "f872d3180fe737388cb904f947b5914a0616db32fe7d9f38adc163fec2046771",
    "all-samples-3.json C4": "86846092f6483178f7f2ae7fc51983853d7547393ca7e17100fc3b5d6c2b482e",
    "all-samples-3.json C5": "127fdaa462fdf51b2df0c649660f7e3e2b2145ddf9bf6cff4e8ab0312fa8f0cf",
    "all-samples-3.json C6": "209dcbb34dd9063004d93ac447685082939d427dbe94152fba3e5a7aba85d3db",
    "all-samples-3.json C7": "0daf88ce809d8ab23262d9aac5174c14cd230499fa221f244f41fc4b13739c20",
    "all-samples-3.json C8": "6989e55e26aa1b5b9ab723a4c59bf757e66d402c4d6692e2bc95b73476c7c823",
}, HASWELL_ON_AVX512: {
    "c1-2x2.json C1": "0832f289e914639c1a2502c28d3328e1abbe0c66472a1959b82ba06c0b09ba0c",
    "c3-pinching-2x2.json C3": "080b8bfac86a2a9de3ff5d321861626fe76317fced7011084c11b251cac75895",
    "c3-mixed-2x2.json C3": "01c75b15eb199d42868d6d4ce7be7b1cfefee0b0dfb62b29412323ff3fbd8411",
    "all-samples-3.json C1": "0832f289e914639c1a2502c28d3328e1abbe0c66472a1959b82ba06c0b09ba0c",
    "all-samples-3.json C2": "9fdec3d8692d560fce0922562b0da47dac360d24ea5b44473f70dbc183bdf0d4",
    "all-samples-3.json C3": "f872d3180fe737388cb904f947b5914a0616db32fe7d9f38adc163fec2046771",
    "all-samples-3.json C4": "86846092f6483178f7f2ae7fc51983853d7547393ca7e17100fc3b5d6c2b482e",
    "all-samples-3.json C5": "127fdaa462fdf51b2df0c649660f7e3e2b2145ddf9bf6cff4e8ab0312fa8f0cf",
    "all-samples-3.json C6": "022125d64ea614b5b82afcaad4d7b210ab3f2fa9851322d1835d44a79f71abe4",
    "all-samples-3.json C7": "0daf88ce809d8ab23262d9aac5174c14cd230499fa221f244f41fc4b13739c20",
    "all-samples-3.json C8": "6989e55e26aa1b5b9ab723a4c59bf757e66d402c4d6692e2bc95b73476c7c823",
}}
EARLIER_REPLAY_PINS = {SKYLAKEX: None, HASWELL: {
    "c1-2x2.json C1": "0x1.e69004870ccb0p-4",
    "c3-pinching-2x2.json C3": "0x1.5ff24a608e288p-1",
    "c3-mixed-2x2.json C3": "0x1.290aa67e53931p-1",
    "all-samples-3.json C1": "0x1.e69004870ccb0p-4",
    "all-samples-3.json C2": "0x1.5c1d2411691b2p-1",
    "all-samples-3.json C3": "0x1.3e196908fcd8ep-1",
    "all-samples-3.json C4": "0x1.fea52005bcab2p-2",
    "all-samples-3.json C5": "0x1.e69004870ccb0p-4",
    "all-samples-3.json C6": "0x1.6faaf690598a8p-3",
    "all-samples-3.json C7": "0x1.5293a71ce8107p-7",
    "all-samples-3.json C8": "-0x1.0000000000000p-56",
    "c9-2x2.json C9": "0x1.5a34430b0c639p+3",
}, HASWELL_ON_AVX512: {
    "c1-2x2.json C1": "0x1.e69004870ccb0p-4",
    "c3-pinching-2x2.json C3": "0x1.5ff24a608e288p-1",
    "c3-mixed-2x2.json C3": "0x1.290aa67e53931p-1",
    "all-samples-3.json C1": "0x1.e69004870ccb0p-4",
    "all-samples-3.json C2": "0x1.5c1d2411691b2p-1",
    "all-samples-3.json C3": "0x1.3e196908fcd8ep-1",
    "all-samples-3.json C4": "0x1.fea52005bcab0p-2",
    "all-samples-3.json C5": "0x1.e69004870ccb0p-4",
    "all-samples-3.json C6": "0x1.6faaf690598a8p-3",
    "all-samples-3.json C7": "0x1.5293a71ce8107p-7",
    "all-samples-3.json C8": "-0x1.0000000000000p-56",
    "c9-2x2.json C9": "0x1.5a34430b0c639p+3",
}}


@pytest.mark.parametrize("name", EARLIER_REPORTS)
def test_reports_with_nested_pair_matrices_still_load_bit_for_bit(name):
    text = (DATA / name).read_text(encoding="utf-8")
    assert '"base64"' not in text and '"matrix": [' in text
    loaded = load_reports(DATA / name)
    if "campaigns" not in json.loads(text):
        (only,) = loaded.values()
        assert render_report(load_report(DATA / name)) == render_report(only)
    pins = recorded(EARLIER_RERUN_PINS)
    for campaign, report in loaded.items():
        rerun = run_campaign(report.config)
        assert report.config == rerun.config
        assert report.violations == rerun.violations
        # These reports were written before witnesses recorded their scale.
        assert "scale" not in report.witness
        if pins is None:
            _assert_rerun_margins(campaign, report.margins, rerun.margins)
            _assert_same_witness(report.witness, {k: v for k, v in rerun.witness.items() if k != "scale"})
        else:
            assert hashlib.sha256(render_report(rerun).encode("utf-8")).hexdigest() == pins[f"{name} {campaign}"]


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
    assert all(m.shape == (4, 4) and m.dtype == complex and np.array_equal(m, m.conj().swapaxes(-1, -2))
               for m in mats)
    # The matrices decode to the inputs of the worst margin, which the
    # closed-form kernels recompute within C9's budget.
    average = 0.5 * quad_form(CUBE, mats[0], mats[1]) + 0.5 * quad_form(CUBE, mats[2], mats[3])
    midpoint = quad_form(CUBE, (mats[0] + mats[2]) / 2.0, (mats[1] + mats[3]) / 2.0)
    _assert_rerun_margins("C9", [report.worst_margin], [average - midpoint])


# Every campaign, and C3 with each channel family.
REPLAY_CASES = ([(campaign, "uniform") for campaign in CAMPAIGN_IDS if campaign != "C3"]
                + [("C3", family) for family in CHANNEL_FAMILIES])


@pytest.mark.parametrize("eig_range", [(0.1, 3.0), (1e-10, 1e-9)], ids=["default", "small"])
@pytest.mark.parametrize("d1,d2", [(1, 3), (2, 2), (8, 8)])
@pytest.mark.parametrize("campaign,family", REPLAY_CASES)
def test_replay_recomputes_the_worst_margin_bit_for_bit(tmp_path, campaign, family, d1, d2, eig_range):
    # The witness's scale replays too, at every spectrum scale.
    report = _report(campaign, d1=d1, d2=d2, samples=3, channel_family=family,
                     eig_low=eig_range[0], eig_high=eig_range[1])
    path = tmp_path / "report.json"
    emit_report(report, path)
    for replayed in (report, load_report(path)):
        assert _bits([replay(replayed)]) == _bits([report.worst_margin])


@pytest.mark.parametrize("name", EARLIER_REPORTS + ["c9-2x2.json"])
def test_earlier_witnesses_replay_to_their_worst_margin(name):
    # Exactly, but for the campaigns whose kernels have changed since.
    pins = recorded(EARLIER_REPLAY_PINS)
    for campaign, report in load_reports(DATA / name).items():
        if pins is None:
            _assert_rerun_margins(campaign, [report.worst_margin], [replay(report)])
        else:
            assert replay(report).hex() == pins[f"{name} {campaign}"]


def test_replay_refuses_a_report_without_a_witness():
    report = _report(campaign="C2")
    with pytest.raises(ValueError, match="no witness"):
        replay(replace(report, witness=None))


@pytest.mark.parametrize("campaign", CAMPAIGN_IDS)
def test_replay_checks_the_witness(campaign):
    # The first matrix of every witness is one its margin checks.
    report = _report(campaign=campaign)
    key = next(key for key, value in report.witness.items() if isinstance(value, np.ndarray))
    edited = report.witness[key].copy()
    edited[0, -1] += 1.0
    with pytest.raises(DomainError, match=r"not stored Hermitian \(max asymmetry 1.000e\+00\)"):
        replay(replace(report, witness={**report.witness, key: edited}))


@pytest.mark.parametrize("campaign", ["C1", "C5", "C6"])
def test_replay_refuses_a_weight_its_margin_does_not_pick(campaign):
    report = _report(campaign=campaign)
    stored = report.witness["weight"]
    with pytest.raises(ValueError, match=rf"witness weight is 0.123, but its margin derives {stored}"):
        replay(replace(report, witness={**report.witness, "weight": 0.123}))


@pytest.mark.parametrize("campaign", CAMPAIGN_IDS)
def test_replay_refuses_a_scale_its_margin_does_not_derive(campaign):
    report = _report(campaign=campaign)
    stored = report.witness["scale"]
    with pytest.raises(ValueError, match=rf"witness scale is 2.5, but its margin derives {stored}"):
        replay(replace(report, witness={**report.witness, "scale": 2.5}))


@pytest.mark.parametrize("family", ["pinching", "expectation", "mixed"])
def test_replay_refuses_a_family_that_does_not_name_the_channel(family):
    report = _report(campaign="C3", channel_family=family)
    assert report.witness["family"] == family
    for other in {"pinching", "expectation", "mixed", "uniform"} - {family}:
        with pytest.raises(ValueError, match=f"witness family is '{other}', but its margin derives '{family}'"):
            replay(replace(report, witness={**report.witness, "family": other}))


def test_replay_refuses_a_non_finite_witness_or_margin(monkeypatch):
    report = _report(campaign="C7")
    b1 = report.witness["b1"].copy()
    b1[0, 0] = np.nan
    with pytest.raises(NumericError):
        replay(replace(report, witness={**report.witness, "b1": b1}))
    # A margin that comes out non-finite fails the check a campaign applies.
    row = campaigns._CAMPAIGNS["C7"]
    monkeypatch.setitem(campaigns._CAMPAIGNS, "C7", row._replace(margin=lambda config, inputs: np.array([np.inf])))
    with pytest.raises(NumericError, match="margin is not finite: inf"):
        replay(report)


def test_replay_names_a_floating_point_event_of_its_margin():
    report = _report(samples=3)
    witness = {**report.witness, "rho": report.witness["rho"] * 1e307}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="^overflow encountered in "):
            replay(replace(report, witness=witness))
