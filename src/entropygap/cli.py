"""Command-line front end for the verification campaigns.

``verify --campaign C1 ...`` runs a single campaign; ``verify --all`` runs
C1 through C8 with shared settings and prints a summary table.  A campaign
whose report is that of one already run, but for its config (C5 or C6 where
it repeats C1), takes that report instead of running again.  Exit codes:
0 all pass, 1 at least one violation, 2 usage error, 3 numeric error
encountered in some sample.  A violation is a margin below
``-tolerance * min(1, scale)`` and beyond its rounding error; a margin
within its rounding error of 0 but below that threshold is a numeric error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

from .calculus import BUILTIN_NAMES
from .campaigns import _CAMPAIGNS, CAMPAIGN_IDS, CHANNEL_FAMILIES, CampaignConfig, CampaignReport
from .campaigns import _same_report, run_campaign
from .report import emit_report, emit_reports

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from None


def _parse_eig_range(text: str) -> tuple[float, float]:
    low_high = _parse_floats(text)
    if len(low_high) != 2:
        raise argparse.ArgumentTypeError(f"eig-range must be 'low,high', got {text!r}")
    return low_high


# The config fields a command line can set.  One not given is not passed, so
# CampaignConfig holds the only defaults.
_SETTINGS = {field.name for field in fields(CampaignConfig)} - {"campaign"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Seeded randomized verification of entropy-gap convexity and monotonicity.",
        epilog="Invalid values are rejected for every campaign; a report records a setting "
               "only where its campaign reads it.",
        argument_default=argparse.SUPPRESS,
    )
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--campaign", choices=CAMPAIGN_IDS, help="run one campaign")
    which.add_argument("--all", action="store_true", default=False,
                       help="run C1 through C8 with shared settings")
    add = parser.add_argument
    add("--d1", type=int, help=f"first factor dimension (default {CampaignConfig.d1})")
    add("--d2", type=int, help=f"second factor dimension (default {CampaignConfig.d2})")
    add("--samples", type=int, help=f"samples per campaign (default {CampaignConfig.samples})")
    add("--seed", type=int, help=f"base seed (default {CampaignConfig.seed})")
    add("--tolerance", type=float, help="violation threshold of a margin of scale 1 or more, "
        f"times the scale below 1 (default {CampaignConfig.tolerance})")
    add("--function", choices=BUILTIN_NAMES,
        help=f"scalar function of C1-C4 (default {CampaignConfig.function}); C5-C9 fix their own")
    add("--p", type=float, help=f"exponent of --function power and C6 (default {CampaignConfig.p})")
    add("--weights", type=_parse_floats, help="segment weights of C1, C5 and C6, comma "
        f"separated (default {','.join(map(str, CampaignConfig.weights))})")
    add("--eig-range", type=_parse_eig_range, help="spectrum range of positive definite "
        f"draws (default {CampaignConfig.eig_low},{CampaignConfig.eig_high})")
    add("--channel-family", choices=CHANNEL_FAMILIES,
        help=f"channel family of C3 (default {CampaignConfig.channel_family})")
    add("--out", type=Path, default=None, help="write a JSON report here")
    return parser


def _config(args, campaign: str) -> CampaignConfig:
    given = dict(vars(args))
    if "eig_range" in given:
        given["eig_low"], given["eig_high"] = given.pop("eig_range")
    return CampaignConfig(campaign, **{name: value for name, value in given.items()
                                       if name in _SETTINGS})


_HEADER = f"{'campaign':<10}{'samples':>8}{'errors':>8}{'violations':>12}{'worst_margin':>16}{'time_s':>9}"


def _summary_line(report: CampaignReport) -> str:
    worst = "-" if report.worst_margin is None else f"{report.worst_margin:.3e}"
    return (
        f"{report.config.campaign:<10}{report.config.samples:>8}"
        f"{len(report.errors):>8}{report.violations:>12}{worst:>16}"
        f"{report.wall_time:>9.2f}"
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    campaigns = [campaign for campaign, row in _CAMPAIGNS.items() if not row.search] if args.all else [args.campaign]

    try:
        configs = [_config(args, campaign) for campaign in campaigns]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    reports: list[CampaignReport] = []
    print(_HEADER)
    for config in configs:
        earlier = next((report for report in reports if _same_report(config, report.config)), None)
        report = run_campaign(config) if earlier is None else replace(earlier, config=config, wall_time=0.0)
        reports.append(report)
        print(_summary_line(report))
        if _CAMPAIGNS[config.campaign].search and report.violations == 0:
            print(f"{config.campaign}: no counterexample found; the search is inconclusive, not a proof")

    if args.out is not None:
        try:
            if args.all:
                emit_reports(reports, args.out)
            else:
                emit_report(reports[0], args.out)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE

    if any(report.errors for report in reports):
        return EXIT_NUMERIC
    if any(report.violations for report in reports):
        return EXIT_VIOLATION
    return EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
