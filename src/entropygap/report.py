"""JSON serialization of campaign reports.

One report is one JSON document.  Complex matrices are encoded as nested
arrays of ``[re, im]`` pairs, and numbers keep full double precision (the
encoder emits shortest round-trip decimals).  Wall time is deliberately not
serialized, so identical configurations produce byte-identical documents.

The text of a document is ``json.dumps(report_to_dict(report), indent=2)``
plus a newline.  :func:`render_report` produces exactly that text, but
formats each matrix in one pass: ``json`` falls back to its pure-Python
encoder whenever ``indent`` is set, and a 64x64 witness holds 8,192 floats.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .bipartite import BipartiteSpace, ConditionalExpectation1, MixedUnitaryChannel, Pinching
from .campaigns import CampaignConfig, CampaignReport


def matrix_to_json(m) -> list:
    """Encode a complex matrix as nested lists of [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_from_json(rows) -> np.ndarray:
    """Decode the nested [re, im] encoding back into a complex matrix."""
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)


def _encode_value(value, encode_matrix):
    if isinstance(value, Pinching):
        return {"channel": {"frame": encode_matrix(value.frame), "labels": value.labels.tolist()}}
    if isinstance(value, ConditionalExpectation1):
        return {"channel": {"d1": value.space.d1, "d2": value.space.d2}}
    if isinstance(value, MixedUnitaryChannel):
        return {
            "channel": {
                "weights": [float(w) for w in value.weights],
                "unitaries": [encode_matrix(u) for u in value.unitaries],
            }
        }
    if isinstance(value, np.ndarray):
        return {"matrix": encode_matrix(value)}
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot serialize witness value of type {type(value)!r}")


def _decode_value(value):
    if isinstance(value, dict) and set(value) == {"channel"}:
        payload = value["channel"]
        if "frame" in payload:
            return Pinching(matrix_from_json(payload["frame"]), np.array(payload["labels"]))
        if "d1" in payload:
            return ConditionalExpectation1(BipartiteSpace(payload["d1"], payload["d2"]))
        # Earlier versions stored every channel this way, adding a flag
        # "is_conditional_expectation" that no longer exists.
        return MixedUnitaryChannel(
            weights=np.array(payload["weights"], dtype=float),
            unitaries=np.stack([matrix_from_json(u) for u in payload["unitaries"]]),
        )
    if isinstance(value, dict) and set(value) == {"matrix"}:
        return matrix_from_json(value["matrix"])
    return value


def _report_tree(report: CampaignReport, encode_matrix) -> dict:
    config = asdict(report.config)
    config["weights"] = list(config["weights"])
    witness = None
    if report.witness is not None:
        witness = {key: _encode_value(value, encode_matrix)
                   for key, value in report.witness.items()}
    return {
        "config": config,
        "margins": [float(m) for m in report.margins],
        "violations": int(report.violations),
        "worst_margin": None if report.worst_margin is None else float(report.worst_margin),
        "witness": witness,
        "errors": [dict(e) for e in report.errors],
    }


def report_to_dict(report: CampaignReport) -> dict:
    """Plain-JSON form of a report, without the wall time."""
    return _report_tree(report, matrix_to_json)


# Config fields that earlier versions wrote and no campaign read.
_RETIRED_CONFIG_FIELDS = ("fd_step", "threads")


def report_from_dict(data: dict) -> CampaignReport:
    """Rebuild a report from its JSON form (wall time comes back as 0)."""
    config = {key: value for key, value in data["config"].items()
              if key not in _RETIRED_CONFIG_FIELDS}
    witness = None
    if data["witness"] is not None:
        witness = {key: _decode_value(value) for key, value in data["witness"].items()}
    return CampaignReport(
        config=CampaignConfig(**config),
        margins=[float(m) for m in data["margins"]],
        violations=int(data["violations"]),
        worst_margin=None if data["worst_margin"] is None else float(data["worst_margin"]),
        witness=witness,
        errors=[dict(e) for e in data["errors"]],
        wall_time=0.0,
    )


def _matrix_text(m: np.ndarray, depth: int) -> str:
    """``json.dumps(matrix_to_json(m), indent=2)`` nested ``depth`` levels deep."""
    array = np.ascontiguousarray(m, dtype=complex)
    if array.ndim != 2 or array.size == 0:
        return _json_text(matrix_to_json(m), depth)
    rows, cols = array.shape
    i0, i1, i2, i3 = ("\n" + "  " * (depth + k) for k in range(4))
    # Separators after each float: inside a pair, between the pairs of a
    # row, between rows, and the closing brackets after the last float.
    separators = ["," + i3, i2 + "]," + i2 + "[" + i3] * cols
    separators[-1] = i2 + "]" + i1 + "]," + i1 + "[" + i2 + "[" + i3
    separators *= rows
    separators[-1] = i2 + "]" + i1 + "]" + i0 + "]"
    values = array.view(float).ravel().tolist()
    parts = [""] * (2 * len(values))
    parts[0::2] = map(float.__repr__, values)
    parts[1::2] = separators
    text = "[" + i1 + "[" + i2 + "[" + i3 + "".join(parts)
    if not np.isfinite(array).all():
        # json's spellings; the text holds nothing else with an "n" or "i".
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def _json_text(value, depth: int) -> str:
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def _render(node, depth: int) -> str:
    """``json.dumps(node, indent=2)`` nested ``depth`` levels deep.

    ``node`` is plain JSON with string keys, except that matrices are left as
    arrays.  Only dicts and the lists that hold matrices are laid out here;
    every other value is json's own text.
    """
    if isinstance(node, np.ndarray):
        return _matrix_text(node, depth)
    if not isinstance(node, (dict, list, tuple)) or not node:
        # Nothing to indent, so json's C encoder gives the same text.
        return json.dumps(node)
    if isinstance(node, dict):
        items = (f"{json.dumps(key)}: {_render(value, depth + 1)}" for key, value in node.items())
    elif any(isinstance(item, np.ndarray) for item in node):
        items = (_render(item, depth + 1) for item in node)
    else:
        return _json_text(node, depth)
    opening, closing = "{}" if isinstance(node, dict) else "[]"
    inner = "\n" + "  " * (depth + 1)
    return opening + inner + ("," + inner).join(items) + "\n" + "  " * depth + closing


def _document(tree) -> str:
    return _render(tree, 0) + "\n"


def _write(path, text: str) -> None:
    # Bytes, not text mode: newlines stay "\n" on every platform.
    path = Path(path)
    try:
        path.write_bytes(text.encode("utf-8"))
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def render_report(report: CampaignReport) -> str:
    """The report as a JSON text, stable for identical configurations.

    Equal to ``json.dumps(report_to_dict(report), indent=2) + "\\n"``.
    """
    return _document(_report_tree(report, np.asarray))


def emit_report(report: CampaignReport, path) -> None:
    """Write one report as a single JSON document."""
    _write(path, render_report(report))


def emit_reports(reports, path) -> None:
    """Write several reports as one ``{"campaigns": {id: report, ...}}`` document."""
    tree = {"campaigns": {r.config.campaign: _report_tree(r, np.asarray) for r in reports}}
    _write(path, _document(tree))


def _read(path):
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read report from {path}: {exc}") from exc
    return json.loads(text)


def load_report(path) -> CampaignReport:
    """Read a report document written by :func:`emit_report`."""
    data = _read(path)
    if "campaigns" in data:
        raise ValueError(f"{path} holds several campaigns; read it with load_reports")
    return report_from_dict(data)


def load_reports(path) -> dict[str, CampaignReport]:
    """Read the reports of a document by campaign id.

    Reads both the single-report document of :func:`emit_report` and the
    ``{"campaigns": ...}`` document of :func:`emit_reports`.
    """
    data = _read(path)
    if "campaigns" in data:
        return {campaign: report_from_dict(d) for campaign, d in data["campaigns"].items()}
    report = report_from_dict(data)
    return {report.config.campaign: report}
