"""Setuptools configuration.

Plain ``setup.py`` (no ``pyproject.toml``) so the package installs in
environments without the ``wheel`` package or network access (legacy
``pip install -e . --no-use-pep517 --no-build-isolation`` path).
"""

from setuptools import find_packages, setup

setup(
    name="repro-ccfuzz",
    version="1.0.0",
    description=(
        "Reproduction of CC-Fuzz: genetic algorithm-based fuzzing for "
        "stress testing congestion control algorithms (HotNets 2022)"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    entry_points={
        "console_scripts": [
            "repro-fuzz = repro.cli:fuzz_main",
            "repro-simulate = repro.cli:simulate_main",
            "repro-trace = repro.cli:trace_main",
            "repro-campaign = repro.cli:campaign_main",
            "repro-triage = repro.cli:triage_main",
            "repro-coverage = repro.cli:coverage_main",
        ]
    },
)
