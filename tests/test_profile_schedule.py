"""The cProfile harness (scripts/profile_schedule.py) reports per phase."""

from __future__ import annotations

import cProfile
import pstats
import random
import sys
from pathlib import Path

from repro.core.scheduler import HRMSScheduler
from repro.machine.configs import perfect_club_machine
from repro.workloads.synthetic import random_ddg

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

import profile_schedule  # noqa: E402


def test_report_prints_one_phase_line(capsys):
    assert profile_schedule.main(["--size", "24", "--top", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    phase_lines = [text for text in lines if "phases (cumulative s)" in text]
    assert len(phase_lines) == 1
    fields = phase_lines[0].split(": ", 2)[2].split(", ")
    assert [field.split()[0] for field in fields] == [
        "ordering", "mindist", "bounds", "mrt",
    ]


def test_phase_seconds_finds_every_phase():
    graph = random_ddg(random.Random(7), 24, name="phases")
    scheduler = HRMSScheduler()
    profiler = cProfile.Profile()
    profiler.enable()
    scheduler.schedule(graph, perfect_club_machine())
    profiler.disable()
    seconds = profile_schedule.phase_seconds(
        pstats.Stats(profiler), scheduler
    )
    # HRMS orders once, then every attempt queries MinDist, folds
    # bounds and scans the table: all four phases are in the profile.
    assert all(value > 0 for value in seconds.values()), seconds
