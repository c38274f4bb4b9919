"""Command-line behavior: exit codes, summary table, report files."""

import json
import os
import warnings

import pytest

from entropygap import (
    CAMPAIGN_IDS,
    CampaignConfig,
    DomainError,
    load_reports,
    render_report,
    report_to_dict,
    run_campaign,
)
from entropygap import cli
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


def test_out_rewrites_a_longer_document_to_the_new_bytes(tmp_path, capsys):
    path = tmp_path / "all.json"
    assert main(["--all", "--samples", "5", "--out", str(path)]) == EXIT_PASS
    longer = path.read_bytes()
    assert main(["--all", "--samples", "3", "--out", str(path)]) == EXIT_PASS
    capsys.readouterr()
    reports = load_reports(path)
    tree = {"campaigns": {campaign: report_to_dict(r) for campaign, r in reports.items()}}
    assert len(path.read_bytes()) < len(longer)
    assert path.read_bytes() == (json.dumps(tree, indent=2) + "\n").encode("utf-8")
    assert all(len(r.margins) == 3 for r in reports.values())


def test_out_to_a_device_exits_zero(capsys):
    assert main(["--campaign", "C1", "--samples", "2", "--out", os.devnull]) == EXIT_PASS
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


@pytest.mark.parametrize("options,runs,reused", [
    ([], 7, {"C5": "C1"}),
    (["--function", "power"], 7, {"C6": "C1"}),
    (["--function", "power", "--p", "1.2"], 7, {"C6": "C1"}),
    (["--function", "cube"], 8, {}),
    (["--function", "log"], 8, {}),
])
def test_all_runs_each_distinct_campaign_once(tmp_path, capsys, monkeypatch, options, runs, reused):
    # A campaign with the draw, margin and config of one run before it, but
    # for its id, takes that report under its own config: C5 repeats C1 at
    # the defaults, C6 repeats it with --function power at any p.
    ran = []

    def counted(config):
        ran.append(config.campaign)
        return run_campaign(config)

    monkeypatch.setattr(cli, "run_campaign", counted)
    path = tmp_path / "all.json"
    main(["--all", "--samples", "4", *options, "--out", str(path)])
    capsys.readouterr()
    assert len(ran) == runs
    assert sorted(set(CAMPAIGN_IDS[:8]) - set(ran)) == sorted(reused)
    reports = load_reports(path)
    assert tuple(reports) == CAMPAIGN_IDS[:8]
    tree = {"campaigns": {campaign: report_to_dict(r) for campaign, r in reports.items()}}
    assert path.read_bytes() == (json.dumps(tree, indent=2) + "\n").encode("utf-8")
    for report in reports.values():
        assert render_report(report) == render_report(run_campaign(report.config))
    for campaign, source in reused.items():
        assert reports[campaign].margins == reports[source].margins


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
    args = build_parser().parse_args(["--campaign", "C3", "--eig-range", "0.2,2"])
    assert _config(args, "C3") == CampaignConfig("C3", eig_low=0.2, eig_high=2.0)


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


# Runs on inputs where a wrong code path once read as a violation, a crash
# or a warning, each with the exit it must give and why.
EXPECTED_EXITS = [
    # C8 at dimension 64 on spectra in [1e-3, 3e-2], where unit trace puts a
    # spectrum drawn in [0.1, 3], and where a resolvent quadrature not centred
    # on it reports false gaps, read as violations.
    pytest.param("--campaign C8 --d1 8 --d2 8 --samples 20 --eig-range 1e-3,3e-2", EXIT_PASS,
                 id="C8-8x8-unit-trace-spectrum"),
    # C8 on spectra in [1e-6, 1] at dimension 64 takes resolvent node counts
    # in the hundreds, where a fitted error constant too small for them would
    # leave truncation above the tolerance and read as a false violation.
    pytest.param("--campaign C8 --d1 8 --d2 8 --samples 10 --eig-range 1e-6,1", EXIT_PASS,
                 id="C8-8x8-node-counts-in-the-hundreds"),
    # t^3 is no matrix entropy, and C9's Lanczos directions must show it.
    pytest.param("--campaign C9 --d1 8 --d2 8 --samples 5", EXIT_VIOLATION, id="C9-8x8-finds-its-violation"),
    # C8 on spectra in [1e-4, 1] puts the base points of one chunk on several
    # resolvent node counts, and 40 mixed-unitary C3 channels at 4x4 draw
    # every term count from 2 to 5.
    pytest.param("--campaign C8 --d1 2 --d2 2 --samples 200 --eig-range 1e-4,1", EXIT_PASS,
                 id="C8-one-chunk-on-several-node-counts"),
    pytest.param("--campaign C3 --channel-family mixed --d1 4 --d2 4 --samples 40", EXIT_PASS,
                 id="C3-mixed-4x4-every-term-count"),
    # C3's other families run at 1x3 and 4x4, each through its stack of
    # channels.
    pytest.param("--campaign C3 --channel-family pinching --d1 1 --d2 3 --samples 40", EXIT_PASS,
                 id="C3-pinching-1x3-channel-stack"),
    pytest.param("--campaign C3 --channel-family pinching --d1 4 --d2 4 --samples 40", EXIT_PASS,
                 id="C3-pinching-4x4-channel-stack"),
    pytest.param("--campaign C3 --channel-family expectation --d1 1 --d2 3 --samples 40", EXIT_PASS,
                 id="C3-expectation-1x3-channel-stack"),
    pytest.param("--campaign C3 --channel-family expectation --d1 4 --d2 4 --samples 40", EXIT_PASS,
                 id="C3-expectation-4x4-channel-stack"),
    pytest.param("--campaign C3 --channel-family uniform --d1 1 --d2 3 --samples 40", EXIT_PASS,
                 id="C3-uniform-1x3-channel-stack"),
    pytest.param("--campaign C3 --channel-family uniform --d1 4 --d2 4 --samples 40", EXIT_PASS,
                 id="C3-uniform-4x4-channel-stack"),
    # C4 and C9 run at 1x1, 1x3 and 4x4 on their stack of curvature
    # operators; C9 must find its violation there too.
    pytest.param("--campaign C4 --d1 1 --d2 1 --samples 40", EXIT_PASS, id="C4-1x1-curvature-stack"),
    pytest.param("--campaign C4 --d1 1 --d2 3 --samples 40", EXIT_PASS, id="C4-1x3-curvature-stack"),
    pytest.param("--campaign C4 --d1 4 --d2 4 --samples 40", EXIT_PASS, id="C4-4x4-curvature-stack"),
    pytest.param("--campaign C9 --d1 1 --d2 1 --samples 40", EXIT_VIOLATION, id="C9-1x1-finds-its-violation"),
    pytest.param("--campaign C9 --d1 1 --d2 3 --samples 40", EXIT_VIOLATION, id="C9-1x3-finds-its-violation"),
    pytest.param("--campaign C9 --d1 4 --d2 4 --samples 40", EXIT_VIOLATION, id="C9-4x4-finds-its-violation"),
    # Uniform draws map random() values onto their range over the whole
    # stack: C1 and C7 run on the zero-width range [1, 1], where the map's
    # scale is 0, and C7 on the wide range [1e-4, 1].
    pytest.param("--campaign C1 --eig-range 1,1 --samples 40", EXIT_PASS, id="C1-zero-width-range"),
    pytest.param("--campaign C7 --eig-range 1,1 --samples 40", EXIT_PASS, id="C7-zero-width-range"),
    pytest.param("--campaign C7 --eig-range 1e-4,1 --samples 40", EXIT_PASS, id="C7-wide-range"),
    # Verdicts follow the spectrum's scale.  identity's C1 margin is 0, and on
    # [1e6, 1e7] its rounding error passes the tolerance: those samples are
    # numeric errors, not violations.  So is C3's one margin of -1.5e-5 on
    # forms of 2.4e11 on [1e-10, 1e-9].  There C9's margins, about -3e-9, lie
    # inside the tolerance but far below it times their scale, and all
    # violate; C2's large positive margins pass where the rounding floor is
    # wide.
    pytest.param("--all --function identity --eig-range 1e6,1e7 --d1 4 --d2 4 --samples 100", EXIT_NUMERIC,
                 id="all-identity-1e6-rounding-is-no-violation"),
    pytest.param("--campaign C3 --eig-range 1e-10,1e-9 --d1 4 --d2 4 --samples 40", EXIT_NUMERIC,
                 id="C3-1e-10-margin-within-its-rounding"),
    pytest.param("--campaign C9 --eig-range 1e-10,1e-9 --samples 50", EXIT_VIOLATION,
                 id="C9-1e-10-violates-below-tolerance-times-scale"),
    pytest.param("--campaign C2 --eig-range 1e-10,1e-9 --d1 4 --d2 4 --samples 40", EXIT_PASS,
                 id="C2-1e-10-large-margins-pass"),
    # C8 near the float limits: on [1e160, 1e161], at 2x2 and 8x8, the
    # resolvent reference's traces sank to about 1e-320 and lost their digits
    # as subnormals, and on [1e-200, 1e-190] they overflowed.  The references
    # run on the spectrum divided by a power of two near its geometric mean.
    pytest.param("--campaign C8 --eig-range 1e160,1e161 --samples 20", EXIT_PASS, id="C8-1e160-no-subnormal-traces"),
    pytest.param("--campaign C8 --eig-range 1e-200,1e-190 --samples 20", EXIT_PASS, id="C8-1e-200-no-overflow"),
    pytest.param("--campaign C8 --d1 8 --d2 8 --samples 5 --eig-range 1e160,1e161", EXIT_PASS,
                 id="C8-8x8-1e160-no-subnormal-traces"),
    # Margins at the ends of the float range: C2 on [5e-324, 1e-320]
    # subtracts infinities, C1 on [1e307, 1.7e308] overflows, and so do C2-C4
    # and C7 with log on [1e-300, 1e-290].  Each such sample is a numeric
    # error naming its floating-point event, and no warning is emitted.
    pytest.param("--campaign C2 --eig-range 5e-324,1e-320", EXIT_NUMERIC, id="C2-subnormal-spectrum"),
    pytest.param("--campaign C1 --eig-range 1e307,1.7e308", EXIT_NUMERIC, id="C1-1e307-overflows"),
    pytest.param("--all --function log --eig-range 1e-300,1e-290 --samples 100", EXIT_NUMERIC,
                 id="all-log-1e-300-overflows"),
]


@pytest.mark.parametrize("args,code", EXPECTED_EXITS)
def test_run_gives_its_exit_code_and_an_empty_stderr(capsys, args, code):
    # Every warning is an error, and a traceback exits 1 too, so the empty
    # stderr is what tells a violation from a crash.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exit_code = main(args.split())
    assert (exit_code, capsys.readouterr().err) == (code, "")
