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
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict
from pathlib import Path

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
    ``[re, im]`` lists, back into a complex matrix."""
    if isinstance(value, dict):
        data = base64.b64decode(value["base64"], validate=True)
        return np.frombuffer(data, dtype=_ENTRY).reshape(value["shape"]).astype(complex)
    return np.array([[complex(re, im) for re, im in row] for row in value], dtype=complex)


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


def report_to_dict(report: CampaignReport) -> dict:
    """Plain-JSON form of a report, without the wall time."""
    config = asdict(report.config)
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


def _write(path, text: str) -> None:
    # Bytes, not text mode: newlines stay "\n" on every platform.
    path = Path(path)
    try:
        path.write_bytes(text.encode("utf-8"))
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def render_report(report: CampaignReport) -> str:
    """The report as a JSON text, stable for identical configurations."""
    return json.dumps(report_to_dict(report), indent=2) + "\n"


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
    _write(path, json.dumps(tree, indent=2) + "\n")


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
