"""Smoke-run every script in ``examples/`` so the examples cannot rot.

Each example is executed as a subprocess (the way users run them) with the
smallest budget its flags allow; the test only asserts a clean exit,
non-empty output and an empty temporary directory afterwards (an example
removes what it makes), not specific numbers.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES_DIR = os.path.join(REPO_ROOT, "examples")

#: Every example with the arguments that keep its runtime test-friendly.
EXAMPLES = {
    "quickstart.py": ["--generations", "2", "--population", "4", "--duration", "1.0"],
    "chaos_campaign.py": ["--generations", "2", "--population", "4", "--duration", "1.0",
                          "--job-timeout", "1.5"],
    "compare_ccas_under_attack.py": ["--duration", "1.5"],
    "bbr_stall_investigation.py": ["--duration", "1.5"],
    "link_fuzzing_with_realism.py": ["--generations", "2", "--population", "4", "--duration", "1.0"],
    "triage_attack.py": ["--duration", "2.0", "--budget", "20"],
    "coverage_map.py": ["--generations", "2", "--population", "4", "--duration", "1.0"],
    "dashboard_demo.py": ["--generations", "2", "--population", "4", "--duration", "1.0"],
    "resume_campaign.py": ["--generations", "2", "--population", "4", "--duration", "1.0"],
    "watch_campaign.py": ["--generations", "2", "--population", "4", "--duration", "1.0"],
    "worker_fleet.py": ["--generations", "2", "--population", "4", "--duration", "1.0"],
}


def test_every_example_is_covered():
    scripts = {name for name in os.listdir(EXAMPLES_DIR) if name.endswith(".py")}
    assert scripts == set(EXAMPLES), (
        "examples/ and the smoke-test table diverged; add the new script "
        "(with tiny-budget args) to EXAMPLES"
    )


@pytest.mark.parametrize("script", sorted(EXAMPLES))
def test_example_runs_clean(script, tmp_path):
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["TMPDIR"] = str(tmp_path)
    completed = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, script)] + EXAMPLES[script],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip(), f"{script} produced no output"
    assert not os.listdir(tmp_path), f"{script} left temporary files behind"
