"""Command-line behavior: exit codes, summary table, report files."""

import json

import pytest

from entropygap import CampaignConfig, DomainError
from entropygap.campaigns import _SAMPLERS
from entropygap.cli import (
    EXIT_NUMERIC,
    EXIT_PASS,
    EXIT_USAGE,
    EXIT_VIOLATION,
    _config,
    build_parser,
    main,
)


def test_passing_campaign_exits_zero(capsys):
    code = main(["--campaign", "C1", "--samples", "10"])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert "campaign" in out and "worst_margin" in out
    lines = [line for line in out.splitlines() if line.startswith("C1")]
    assert len(lines) == 1
    assert " 10 " in lines[0] or lines[0].split()[1] == "10"


def test_violation_exits_one(capsys):
    # log is not a matrix entropy: its curvature form is negative, so the
    # second-differential campaign must flag every sample.
    code = main(["--campaign", "C2", "--function", "log", "--samples", "5"])
    assert code == EXIT_VIOLATION
    assert "C2" in capsys.readouterr().out


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["--campaign", "C1", "--all"])
    assert excinfo.value.code == EXIT_USAGE


def test_unknown_function_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["--campaign", "C1", "--function", "exp"])
    assert excinfo.value.code == EXIT_USAGE


def test_bad_weights_exit_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["--campaign", "C1", "--weights", "a,b"])
    assert excinfo.value.code == EXIT_USAGE


def test_requires_campaign_or_all():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == EXIT_USAGE


def test_invalid_config_exits_two(capsys):
    # Parses fine, fails campaign validation: weights outside (0, 1).
    code = main(["--campaign", "C1", "--weights", "0.5,1.5", "--samples", "2"])
    assert code == EXIT_USAGE
    assert "weights" in capsys.readouterr().err


def test_out_of_range_exponent_exits_two(capsys):
    code = main(["--campaign", "C6", "--p", "2.5", "--samples", "2"])
    assert code == EXIT_USAGE
    assert "exponent" in capsys.readouterr().err


def test_numeric_error_exits_three(capsys, monkeypatch):
    original = _SAMPLERS["C1"]

    def flaky(config, streams):
        raise DomainError("synthetic numeric failure")

    monkeypatch.setitem(_SAMPLERS, "C1", flaky)
    code = main(["--campaign", "C1", "--samples", "3"])
    assert code == EXIT_NUMERIC
    out = capsys.readouterr().out
    assert original is not _SAMPLERS["C1"]
    assert "C1" in out


def test_single_report_file(tmp_path, capsys):
    path = tmp_path / "c2.json"
    code = main(["--campaign", "C2", "--samples", "8", "--out", str(path)])
    assert code == EXIT_PASS
    data = json.loads(path.read_text())
    assert data["config"]["campaign"] == "C2"
    assert data["config"]["samples"] == 8
    assert data["violations"] == 0
    assert len(data["margins"]) == 8
    capsys.readouterr()


def test_report_bytes_reproducible(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for path in (first, second):
        assert main(["--campaign", "C3", "--samples", "6", "--out", str(path)]) == EXIT_PASS
    assert first.read_bytes() == second.read_bytes()
    capsys.readouterr()


def test_all_runs_eight_campaigns(tmp_path, capsys):
    path = tmp_path / "all.json"
    code = main(["--all", "--samples", "5", "--out", str(path)])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    for cid in (f"C{i}" for i in range(1, 9)):
        assert any(line.startswith(cid) for line in out.splitlines())
    data = json.loads(path.read_text())
    assert sorted(data["campaigns"]) == [f"C{i}" for i in range(1, 9)]
    assert all(entry["violations"] == 0 for entry in data["campaigns"].values())


def test_all_records_the_function_each_campaign_ran(tmp_path, capsys):
    # C5, C7 and C8 fix t log t and C6 the power function, whatever
    # --function says; p is recorded as given only with the power function,
    # the weights only by C1, C5 and C6 and the channel family only by C3.
    path = tmp_path / "all.json"
    code = main(["--all", "--function", "power", "--p", "1.2", "--samples", "5",
                 "--weights", "0.3,0.6", "--channel-family", "pinching", "--out", str(path)])
    capsys.readouterr()
    assert code == EXIT_PASS
    documents = json.loads(path.read_text())["campaigns"]
    recorded = {cid: (entry["config"]["function"], entry["config"]["p"],
                      entry["config"]["weights"], entry["config"]["channel_family"])
                for cid, entry in documents.items()}
    given, default = [0.3, 0.6], [0.5, 0.25, 0.75]
    assert recorded == {
        "C1": ("power", 1.2, given, "uniform"),
        "C2": ("power", 1.2, default, "uniform"),
        "C3": ("power", 1.2, default, "pinching"),
        "C4": ("power", 1.2, default, "uniform"),
        "C5": ("t_log_t", 1.5, given, "uniform"),
        "C6": ("power", 1.2, given, "uniform"),
        "C7": ("t_log_t", 1.5, default, "uniform"),
        "C8": ("t_log_t", 1.5, default, "uniform"),
    }


@pytest.mark.parametrize("argv,field", [
    (["--campaign", "C1", "--eig-range", "0.1,inf"], "eig_high"),
    (["--campaign", "C2", "--function", "log", "--tolerance", "inf"], "tolerance"),
])
def test_non_finite_settings_exit_two(capsys, argv, field):
    code = main(argv + ["--samples", "2"])
    assert code == EXIT_USAGE
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("campaign", ["C7", "--all"])
def test_an_invalid_setting_exits_two_where_it_is_not_read(capsys, campaign):
    which = ["--all"] if campaign == "--all" else ["--campaign", campaign]
    code = main(which + ["--function", "power", "--p", "3", "--samples", "2"])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert "exponent" in captured.err
    assert captured.out == ""  # nothing ran


def test_settings_not_given_take_the_config_defaults():
    args = build_parser().parse_args(["--campaign", "C3"])
    assert _config(args, "C3") == CampaignConfig("C3")
    args = build_parser().parse_args(["--campaign", "C3", "--eig-range", "0.2,2", "--normalize"])
    assert _config(args, "C3") == CampaignConfig("C3", eig_low=0.2, eig_high=2.0, normalize=True)


def test_c9_prints_inconclusive_note(capsys):
    # Equal base points, the identity up to rounding: the form is positive
    # semidefinite there, so no direction gives a violation.
    code = main(["--campaign", "C9", "--samples", "5", "--eig-range", "1,1"])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert "inconclusive" in out


@pytest.mark.parametrize("seed", ["42", "7", "1"])
@pytest.mark.parametrize("dims,samples", [("1", []), ("2", []), ("3", []), ("4", []),
                                          ("8", ["--samples", "3"])])
def test_c9_finds_a_counterexample(capsys, seed, dims, samples):
    # t^3 is no matrix entropy, and the lowest directions show it: 1x1 to 4x4
    # at the default 200 samples, 8x8 at 3 to keep the suite short.
    code = main(["--campaign", "C9", "--d1", dims, "--d2", dims, "--seed", seed, *samples])
    out = capsys.readouterr().out
    assert code == EXIT_VIOLATION
    assert "inconclusive" not in out


def test_unwritable_out_exits_two(capsys):
    code = main(["--campaign", "C1", "--samples", "2", "--out", "/no-such-dir/x.json"])
    assert code == EXIT_USAGE
    assert "cannot write" in capsys.readouterr().err
