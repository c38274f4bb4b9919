"""Workload definitions for the campaign benchmark.

A workload is a closed loop of rounds.  A round runs one job per campaign in
the workload's mix, in a fixed order; a job is one ``run_campaign`` call plus
writing its report and reading it back.  Every job of round ``r`` uses the
seed derived from ``(workload seed, r)``, so the same workload seed always
yields the same job configurations, and running the campaigns interleaved by
round lets a slow phase of a shared machine hit every campaign alike.

Samples per job are sized so that each job takes tens of milliseconds: long
enough that per-job fixed costs do not swamp the per-sample work, short
enough that one run holds many jobs per campaign for stable medians.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class JobSpec:
    """The configuration fields of one job; every other field keeps its default."""

    campaign: str
    d1: int
    d2: int
    samples: int
    seed: int


@dataclass(frozen=True)
class Workload:
    """A campaign mix at one ``(d1, d2)``; ``mix`` pairs campaigns with samples per job."""

    name: str
    d1: int
    d2: int
    mix: tuple[tuple[str, int], ...]

    @property
    def campaigns(self) -> tuple[str, ...]:
        return tuple(campaign for campaign, _ in self.mix)


# README.md gives why each workload exists and which layer it isolates.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-2x2", 2, 2, (("C1", 16), ("C2", 16), ("C3", 16), ("C4", 16), ("C5", 16),
                                     ("C6", 16), ("C7", 16), ("C8", 4), ("C9", 16))),
        Workload("channels-4x4", 4, 4, (("C3", 4),)),
        Workload("sweep-8x8", 8, 8, (("C1", 4), ("C2", 4), ("C4", 4), ("C5", 4), ("C6", 4),
                                     ("C7", 4), ("C8", 1))),
    )
}


def round_seed(seed: int, round_index: int) -> int:
    """64-bit campaign seed of one round, derived from the workload seed."""
    digest = hashlib.sha256(f"{seed}:{round_index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def round_jobs(workload: Workload, seed: int, round_index: int) -> list[JobSpec]:
    """The jobs of one round, in the order they run."""
    job_seed = round_seed(seed, round_index)
    return [
        JobSpec(campaign, workload.d1, workload.d2, samples, job_seed)
        for campaign, samples in workload.mix
    ]


# Set-up jobs draw from one fixed seed: a single C3 sample costs from 1 ms to
# over 500 ms depending on the channel it draws, which would swamp set-up.
SETUP_SEED = 0


def setup_jobs(workload: Workload) -> list[JobSpec]:
    """One 1-sample job per campaign of the workload, as the set-up probe runs them."""
    return [JobSpec(campaign, workload.d1, workload.d2, 1, SETUP_SEED)
            for campaign in workload.campaigns]
