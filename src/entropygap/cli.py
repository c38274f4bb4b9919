"""Command-line front end for the verification campaigns.

``verify --campaign C1 ...`` runs a single campaign; ``verify --all`` runs
C1 through C8 with shared settings and prints a summary table.  Exit codes:
0 all pass, 1 at least one violation, 2 usage error, 3 numeric error
encountered in some sample.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .calculus import BUILTIN_NAMES
from .campaigns import CAMPAIGN_IDS, CHANNEL_FAMILIES, CampaignConfig, CampaignReport, run_campaign
from .report import emit_report, emit_reports

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

_ALL_CAMPAIGNS = tuple(f"C{i}" for i in range(1, 9))


def _parse_weights(text: str) -> tuple[float, ...]:
    try:
        weights = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"weights must be comma-separated floats, got {text!r}")
    return weights


def _parse_eig_range(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"eig-range must be 'low,high', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"eig-range must be 'low,high', got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Seeded randomized verification of entropy-gap convexity and monotonicity.",
    )
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--campaign", choices=CAMPAIGN_IDS, help="run one campaign")
    which.add_argument("--all", action="store_true", help="run C1 through C8 with shared settings")
    parser.add_argument("--d1", type=int, default=2, help="first factor dimension (default 2)")
    parser.add_argument("--d2", type=int, default=2, help="second factor dimension (default 2)")
    parser.add_argument("--samples", type=int, default=200, help="samples per campaign (default 200)")
    parser.add_argument("--seed", type=int, default=42, help="base seed (default 42)")
    parser.add_argument("--tolerance", type=float, default=1e-8,
                        help="margin tolerance (default 1e-8)")
    parser.add_argument("--function", choices=BUILTIN_NAMES, default="t_log_t",
                        help="scalar function of C1-C4 (default t_log_t); "
                             "C5-C9 fix their own")
    parser.add_argument("--p", type=float, default=1.5,
                        help="exponent for --function power and campaign C6 (default 1.5)")
    parser.add_argument("--weights", type=_parse_weights, default=(0.5, 0.25, 0.75),
                        help="segment weights, comma separated (default 0.5,0.25,0.75)")
    parser.add_argument("--eig-range", type=_parse_eig_range, default=(0.1, 3.0),
                        help="spectrum range for positive definite draws (default 0.1,3)")
    parser.add_argument("--normalize", action="store_true",
                        help="rescale positive definite draws to unit trace")
    parser.add_argument("--relative", action="store_true",
                        help="divide margins by 1 + the Frobenius norms of the drawn inputs")
    parser.add_argument("--channel-family", choices=CHANNEL_FAMILIES, default="uniform",
                        help="channel family for C3 (default uniform)")
    parser.add_argument("--out", type=Path, default=None, help="write a JSON report here")
    return parser


def _config(args, campaign: str) -> CampaignConfig:
    return CampaignConfig(
        campaign=campaign,
        d1=args.d1,
        d2=args.d2,
        samples=args.samples,
        seed=args.seed,
        tolerance=args.tolerance,
        function=args.function,
        p=args.p,
        weights=tuple(args.weights),
        eig_low=args.eig_range[0],
        eig_high=args.eig_range[1],
        normalize=args.normalize,
        relative=args.relative,
        channel_family=args.channel_family,
    )


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
    campaigns = _ALL_CAMPAIGNS if args.all else (args.campaign,)

    reports: list[CampaignReport] = []
    print(_HEADER)
    for campaign in campaigns:
        try:
            config = _config(args, campaign)
            report = run_campaign(config)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        reports.append(report)
        print(_summary_line(report))
        if campaign == "C9" and report.violations == 0:
            print("C9: no counterexample found; the search is inconclusive, not a proof")

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
