"""JSON serialization of campaign reports.

One report is one JSON document, the text of
``json.dumps(report_to_dict(report), indent=2)`` plus a newline.  A complex
matrix is stored as ``{"shape": [rows, cols], "base64": ...}``, the RFC 4648
base64 of its row-major little-endian complex128 bytes, so every entry comes
back bit for bit (NaN payloads and signed zeros included) with no decimal
conversion either way.  Earlier versions wrote a matrix as nested lists of
``[re, im]`` pairs; :func:`matrix_from_json` still reads those.  Wall time is
deliberately not serialized, so identical configurations produce
byte-identical documents.

A payload of 16 K characters or more (from about 28x28 entries up) is decoded
in numpy, twelve bits per table lookup, and a shorter one, or one that fails
there, by ``base64.b64decode(..., validate=True)``.  Either path gives that
call's bytes or raises its error: ``tests/test_report.py``'s
``test_payloads_near_the_numpy_threshold_decode_as_b64decode`` and
``test_a_corrupted_payload_fails_as_b64decode_does`` check both against it.

The writer emits the bytes of that ``json.dumps`` call itself: with an
``indent``, ``json.dumps`` runs a pure-Python encoder, which took most of the
time of rendering a small report.  Each string but a witness matrix's base64
payload, which needs no escaping, goes through ``json.dumps``'s escaper.  A
key that is no string raises ``TypeError``: it would load as another key.

An existing file is overwritten in place and then cut to the new length, so
it keeps its inode; the write is not atomic.  It is not cut to zero first,
because on ext4 a file truncated to zero and written again is flushed on
close, which took most of the time of writing a small report.  Only a
regular file is cut: a pipe or a device takes the bytes as a plain stream.

A document is read to the end of the file, so one sent through a pipe or a
FIFO loads too, and decoded as strict UTF-8, so a byte order mark is
rejected.  Both directions use bare descriptor calls (``os.open``,
``os.write``, ``os.read``): a Python file object adds ``isatty``, ``lseek``
and further ``fstat`` calls around them, which took a large share of the
time of reading or writing a small report between campaign runs.
"""

from __future__ import annotations

import base64
import json
import os
import stat
from dataclasses import fields
from functools import partial

import numpy as np

from .bipartite import BipartiteSpace, ConditionalExpectation1, MixedUnitaryChannel, Pinching
from .campaigns import CampaignConfig, CampaignReport

# Stored matrix entries: little-endian complex128, whatever the platform.
_ENTRY = np.dtype("<c16")


def matrix_to_json(m) -> dict:
    """Encode a complex matrix as its shape and the base64 of its bytes."""
    m = np.asarray(m, dtype=_ENTRY)
    return {"shape": list(m.shape), "base64": base64.b64encode(m.tobytes()).decode("ascii")}


def matrix_from_json(value) -> np.ndarray:
    """Decode :func:`matrix_to_json`'s encoding, or the earlier nested
    ``[re, im]`` lists, back into a complex matrix.  A ``base64`` that is no
    string, a ``shape`` that is no list of non-negative integers whose
    product is the entry count, and nested lists that are no rows of pairs
    of numbers raise ``ValueError`` naming the field."""
    if not isinstance(value, dict):
        return _nested_pairs(value)
    data = _b64decode(_field("matrix", value, "base64"))
    shape = _field("matrix", value, "shape")
    try:
        matrix = np.frombuffer(data, dtype=_ENTRY).reshape(shape)
    except ValueError:
        matrix = None
    # reshape takes a negative entry as "whatever fits", so the shape must also come back as given.
    if matrix is None or matrix.shape != tuple(shape):
        raise ValueError(f"matrix field 'shape' must be non-negative integers for the {len(data)} bytes of "
                         f"'base64', {_ENTRY.itemsize} per entry, got {shape}")
    return matrix.astype(complex)


def _nested_pairs(value) -> np.ndarray:
    # Earlier versions' layout: equally long rows of [re, im] number pairs.
    fault = next(_pair_faults(value), None) if type(value) is list else _json_type(value)
    if fault is not None:
        raise ValueError(f"matrix must be an object or equally long rows of [re, im] number pairs, got {fault}")
    rows = [[complex(re, im) for re, im in row] for row in value]
    return np.array(rows, dtype=complex).reshape(len(rows), len(rows[0]) if rows else 0)  # [] is 0x0


def _pair_faults(rows):
    for i, row in enumerate(rows):
        if type(row) is not list:
            yield f"{json.dumps(row)} at row {i}"
        elif len(row) != len(rows[0]):
            yield f"{len(row)} pairs at row {i} and {len(rows[0])} at row 0"
        for j, pair in enumerate(row if type(row) is list else ()):
            if type(pair) is not list or len(pair) != 2 or not _NUMBERS.issuperset(map(type, pair)):
                yield f"{json.dumps(pair)} at row {i}, column {j}"


# A base64 payload at least this long (from about 28x28 entries up) is decoded
# in numpy, a shorter one by b64decode alone: numpy's fixed cost per call makes
# it the slower of the two up to about 24x24 entries (12,288 characters).
_NUMPY_DECODE_MIN = 1 << 14

# The 12-bit value of each pair of base64 characters, indexed by the pair read
# as a little-endian uint16.  A pair holding a character outside the alphabet,
# "=" included, maps to 0xFFFF, outside 12 bits.
_SEXTETS = np.full(256, 1 << 12, dtype=np.uint32)
_SEXTETS[np.frombuffer(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", np.uint8)] = range(64)
_PAIRS = np.minimum(_SEXTETS << 6 | _SEXTETS[:, None], 0xFFFF).astype(np.uint16).ravel()


def _b64decode(text: str) -> bytes:
    """``base64.b64decode(text, validate=True)``: its bytes, or its error."""
    if len(text) >= _NUMPY_DECODE_MIN and text.isascii():
        # Each 16-character group but the last is eight pairs of 12 bits,
        # which make three big-endian 32-bit words.  The last group, with any
        # padding, goes to b64decode.  Where a pair or that call fails, the
        # whole text goes to b64decode, which raises its own error.
        groups = (len(text) - 1) // 16
        raw = text.encode("ascii")
        # Looked up transposed, so that each of the eight columns is contiguous.
        pairs = _PAIRS.take(np.frombuffer(raw, "<u2", 8 * groups).reshape(groups, 8).T)
        if pairs.max() < 1 << 12:
            try:
                tail = base64.b64decode(raw[16 * groups:], validate=True)
            except ValueError:
                pass
            else:
                u0, u1, u2, u3, u4, u5, u6, u7 = pairs.astype(np.uint32)
                words = np.empty((groups, 3), ">u4")
                words[:, 0] = u0 << 20 | u1 << 8 | u2 >> 4
                words[:, 1] = (u2 & 0xF) << 28 | u3 << 16 | u4 << 4 | u5 >> 8
                words[:, 2] = (u5 & 0xFF) << 24 | u6 << 12 | u7
                return words.tobytes() + tail
    return base64.b64decode(text, validate=True)


def _encode_value(value):
    if isinstance(value, Pinching):
        return {"channel": {"frame": matrix_to_json(value.frame), "labels": value.labels.tolist()}}
    if isinstance(value, ConditionalExpectation1):
        return {"channel": {"d1": value.space.d1, "d2": value.space.d2}}
    if isinstance(value, MixedUnitaryChannel):
        return {
            "channel": {
                "weights": [float(w) for w in value.weights],
                "unitaries": [matrix_to_json(u) for u in value.unitaries],
            }
        }
    if isinstance(value, np.ndarray):
        return {"matrix": matrix_to_json(value)}
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot serialize witness value of type {type(value)!r}")


def _decode_value(value):
    if isinstance(value, dict) and set(value) == {"channel"}:
        payload = value["channel"]
        _check_object("witness field 'channel'", payload)
        field = partial(_field, "channel", payload)
        if "frame" in payload or "labels" in payload:
            return Pinching(matrix_from_json(field("frame")), np.array(field("labels")))
        if "d1" in payload or "d2" in payload:
            return ConditionalExpectation1(BipartiteSpace(field("d1"), field("d2")))
        # Earlier versions stored every channel this way, adding a flag
        # "is_conditional_expectation" that no longer exists.
        return MixedUnitaryChannel(
            weights=np.array(field("weights"), dtype=float),
            unitaries=np.stack([matrix_from_json(u) for u in field("unitaries")]),
        )
    if isinstance(value, dict) and set(value) == {"matrix"}:
        return matrix_from_json(value["matrix"])
    return value


def report_to_dict(report: CampaignReport) -> dict:
    """Plain-JSON form of a report, without the wall time."""
    config = {field.name: getattr(report.config, field.name) for field in fields(report.config)}
    config["weights"] = list(config["weights"])
    witness = None
    if report.witness is not None:
        witness = {key: _encode_value(value) for key, value in report.witness.items()}
    return {
        "config": config,
        "margins": [float(m) for m in report.margins],
        "violations": int(report.violations),
        "worst_margin": None if report.worst_margin is None else float(report.worst_margin),
        "witness": witness,
        "errors": [dict(e) for e in report.errors],
    }


# Config fields that earlier versions wrote, each with the one value dropped
# (None: any); another asks for draws or margins this version does not make.
_RETIRED_CONFIG_FIELDS = {"fd_step": None, "threads": None, "normalize": False, "relative": False}
_CONFIG_FIELDS = frozenset(field.name for field in fields(CampaignConfig))

# Each field of each kind of object a document holds: what it must be, the
# JSON types json.loads may return for it and, for an array, the set of its
# items' types.  A channel's matrix is a matrix object or, as earlier versions wrote
# it, nested lists.
_INTEGER, _STRING, _NUMBERS = ("an integer", (int,), None), ("a string", (str,), None), {int, float}
_FIELDS = {
    "report": {
        "config": ("an object", (dict,), None),
        "margins": ("an array of numbers", (list,), _NUMBERS),
        "violations": _INTEGER,
        "worst_margin": ("a number or null", (int, float, type(None)), None),
        "witness": ("an object or null", (dict, type(None)), None),
        "errors": ("an array of objects", (list,), {dict}),
    },
    "errors entry": {"sample": _INTEGER, "type": _STRING, "message": _STRING},
    "matrix": {"shape": ("a list of integers", (list,), {int}), "base64": _STRING},
    "channel": {
        "frame": ("a matrix", (dict, list), None),
        "labels": ("a list of integers", (list,), {int}),
        "d1": _INTEGER,
        "d2": _INTEGER,
        "weights": ("a list of numbers", (list,), _NUMBERS),
        "unitaries": ("a list of matrices", (list,), {dict, list}),
    },
}
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}


def _json_type(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _check_object(what: str, value) -> None:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {_json_type(value)}")


def _field(kind: str, payload: dict, name: str, index: int | None = None):
    """Field ``name`` of ``payload``, an object of ``kind`` (entry ``index``
    of its array, if given), if it is what ``_FIELDS`` says; else ValueError
    naming both and what it holds: nothing, a JSON type, or one at index k."""
    what, types, items = _FIELDS[kind][name]
    value = payload.get(name)
    fault = "nothing" if name not in payload else None if type(value) in types else _json_type(value)
    if fault is None and items and not items.issuperset(map(type, value)):
        fault = next(f"{_json_type(v)} at index {k}" for k, v in enumerate(value) if type(v) not in items)
    if fault is not None:
        owner = kind if index is None else f"{kind} {index}"
        raise ValueError(f"{owner} field {name!r} must be {what}, got {fault}")
    return value


def report_from_dict(data: dict) -> CampaignReport:
    """Rebuild a report from its JSON form (wall time comes back as 0).

    A document that is no JSON object, or whose field or entry is missing
    or of the wrong JSON type, raises ``ValueError`` naming that field, as
    does an invalid config and a retired config field at a value this
    version cannot honour.
    """
    _check_object("a report", data)
    for name in _FIELDS["report"]:
        _field("report", data, name)
    for k, entry in enumerate(data["errors"]):
        for name in _FIELDS["errors entry"]:
            _field("errors entry", entry, name, k)
    for key, dropped in _RETIRED_CONFIG_FIELDS.items():
        if dropped is not None and data["config"].get(key, dropped) is not dropped:
            raise ValueError(f"config field {key!r} is {data['config'][key]!r}, not {json.dumps(dropped)}: "
                             "this version makes no such draws or margins")
    config = {key: value for key, value in data["config"].items() if key not in _RETIRED_CONFIG_FIELDS}
    unknown = sorted(config.keys() - _CONFIG_FIELDS)
    if unknown or "campaign" not in config:
        raise ValueError(f"unknown config fields {unknown}" if unknown else "missing config field 'campaign'")
    witness = data["witness"]
    return CampaignReport(
        config=CampaignConfig(**config),
        margins=[float(m) for m in data["margins"]],
        violations=data["violations"],
        worst_margin=None if data["worst_margin"] is None else float(data["worst_margin"]),
        witness=None if witness is None else {key: _decode_value(value) for key, value in witness.items()},
        errors=[dict(e) for e in data["errors"]],
        wall_time=0.0,
    )


# O_BINARY exists only on Windows, where it keeps "\n" from becoming "\r\n".
_BINARY = getattr(os, "O_BINARY", 0)

# The default capacity of a pipe on Linux.
_PIPE_CAPACITY = 1 << 16


def _write(path, text: str) -> None:
    # The file is written over in place, then cut to the bytes just written;
    # see the module docstring for why it is not opened with O_TRUNC.
    data = text.encode("utf-8")
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | _BINARY, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            try:
                os.ftruncate(fd, len(data))
            except OSError:
                # A pipe or a device cannot be cut, and needs no cutting.
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    raise
        finally:
            os.close(fd)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


_escape = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # float.__repr__ to JSON


def _emit(value, out: list, newline: str, witnesses: set, raw: bool = False) -> None:
    # Append to ``out`` the text json.dumps(value, indent=2) writes for
    # ``value`` nested after ``newline``.  Below a dict whose id is in
    # ``witnesses`` (``raw``), each matrix_to_json payload goes out unescaped.
    if isinstance(value, float):
        text = float.__repr__(value)
        out.append(_NON_FINITE.get(text, text))
    elif isinstance(value, str):
        out.append(_escape(value))
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif not isinstance(value, (list, tuple, dict)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    elif not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        payload = raw and value.keys() == _FIELDS["matrix"].keys()
        raw = raw or id(value) in witnesses
        separator, inner = "{", newline + "  "
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            out += separator, inner, _escape(key), ": "
            if payload and key == "base64":
                out += '"', item, '"'
            else:
                _emit(item, out, inner, witnesses, raw)
            separator = ","
        out += newline, "}"
    else:
        separator, inner = "[", newline + "  "
        for item in value:
            out += separator, inner
            _emit(item, out, inner, witnesses, raw)
            separator = ","
        out += newline, "]"


def _dump(tree: dict) -> str:
    """``json.dumps(tree, indent=2)`` plus a newline.

    ``tree`` is one report_to_dict value or ``{"campaigns": {id: value}}``.
    """
    reports = tree["campaigns"].values() if "campaigns" in tree else (tree,)
    out = []
    _emit(tree, out, "\n", {id(report["witness"]) for report in reports})
    out.append("\n")
    return "".join(out)


def render_report(report: CampaignReport) -> str:
    """The report as a JSON text, stable for identical configurations."""
    return _dump(report_to_dict(report))


def emit_report(report: CampaignReport, path) -> None:
    """Write one report as a single JSON document."""
    _write(path, render_report(report))


def emit_reports(reports, path) -> None:
    """Write several reports as one ``{"campaigns": {id: report, ...}}`` document.

    The document keys each report by its campaign id, so two reports of one
    campaign raise ``ValueError`` and nothing is written.
    """
    reports = list(reports)
    ids = [r.config.campaign for r in reports]
    if len(set(ids)) < len(ids):
        raise ValueError(f"a document holds one report per campaign, got campaigns {ids}")
    tree = {"campaigns": {campaign: report_to_dict(r) for campaign, r in zip(ids, reports)}}
    _write(path, _dump(tree))


def _read(path):
    try:
        fd = os.open(path, os.O_RDONLY | _BINARY)
        try:
            # A regular file comes in one read and its end in the next.  A
            # pipe or a FIFO reports size 0 and is read a pipe's worth at a
            # time, rather than a byte at a time.
            size = (os.fstat(fd).st_size or _PIPE_CAPACITY) + 1
            chunks = []
            while chunk := os.read(fd, size):
                chunks.append(chunk)
        finally:
            os.close(fd)
    except OSError as exc:
        raise OSError(f"cannot read report from {path}: {exc}") from exc
    # Decoded as strict UTF-8 before parsing: json.loads would take bytes
    # that begin with a byte order mark, and it rejects the text.
    return json.loads(b"".join(chunks).decode("utf-8"))


def load_report(path) -> CampaignReport:
    """Read a report document written by :func:`emit_report`."""
    data = _read(path)
    if isinstance(data, dict) and "campaigns" in data:
        raise ValueError(f"{path} holds several campaigns; read it with load_reports")
    return report_from_dict(data)


def load_reports(path) -> dict[str, CampaignReport]:
    """Read the reports of a document by campaign id.

    Reads both the single-report document of :func:`emit_report` and the
    ``{"campaigns": ...}`` document of :func:`emit_reports`.  A
    ``campaigns`` value or entry that is no JSON object, or a report under
    another campaign's key, raises ``ValueError``.
    """
    data = _read(path)
    if isinstance(data, dict) and "campaigns" in data:
        _check_object("'campaigns'", data["campaigns"])
        for campaign, entry in data["campaigns"].items():
            _check_object(f"the report of campaign {campaign!r}", entry)
        reports = {campaign: report_from_dict(entry) for campaign, entry in data["campaigns"].items()}
        for campaign, report in reports.items():
            if report.config.campaign != campaign:
                raise ValueError(f"the report of campaign {campaign!r} is a {report.config.campaign} report")
        return reports
    report = report_from_dict(data)
    return {report.config.campaign: report}
