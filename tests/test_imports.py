"""What each entry point loads, and the lazy ``repro`` / ``repro.campaign`` facades.

A process should load only the subsystems its command runs: every fleet
worker, status poll and CLI call starts a fresh interpreter, and each one
pays for what it imports.  The loading checks run in a fresh interpreter
each, since this test process has long since imported everything.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from typing import Set

import pytest

import repro
import repro.campaign

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Subsystems no campaign run needs: only their own commands load them.
OFF_THE_RUN_PATH = ("repro.analysis", "repro.attacks", "repro.triage", "repro.serve")
#: Campaign modules a single-process runner never uses.
NOT_THE_RUNNER = ("repro.campaign.report", "repro.campaign.replay", "repro.campaign.worker")

#: A one-scenario campaign of two short evaluations.
TINY_SPEC = {
    "name": "imports", "ccas": ["reno"],
    "budget": {"population_size": 2, "generations": 1, "duration": 0.5},
}
#: Builds a runner over ``TINY_SPEC`` (``argv[1]``) and the corpus ``argv[2]``.
BUILD_RUNNER = (
    "import sys\n"
    "from repro.campaign import CampaignRunner, CampaignSpec, CorpusStore\n"
    "runner = CampaignRunner(CampaignSpec.from_json(sys.argv[1]), CorpusStore(sys.argv[2]), "
    "register_attacks=False)\n"
)


def _python(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports ``repro`` from this tree."""
    path = os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )


def _loaded_after(code: str, *argv: str) -> Set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    done = _python(f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))", *argv)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def _under(modules: Set[str], *packages: str) -> Set[str]:
    return {
        name for name in modules
        for package in packages
        if name == package or name.startswith(package + ".")
    }


class TestFacades:
    """``repro`` and ``repro.campaign`` serve their names from one table."""

    FACADES = [repro, repro.campaign]

    @pytest.mark.parametrize("package", FACADES, ids=lambda package: package.__name__)
    def test_every_name_is_the_object_its_defining_module_holds(self, package):
        for name in package.__all__:
            value = getattr(package, name)
            if name == "__version__":
                assert isinstance(value, str)
                continue
            assert value.__module__.startswith(package.__name__ + "."), name
            defining = importlib.import_module(value.__module__)
            assert getattr(defining, name) is value, name

    @pytest.mark.parametrize("package", FACADES, ids=lambda package: package.__name__)
    def test_dir_and_star_import_list_every_name(self, package):
        assert set(package.__all__) <= set(dir(package))
        namespace: dict = {}
        exec(f"from {package.__name__} import *", namespace)
        assert {name: namespace[name] for name in package.__all__} == {
            name: getattr(package, name) for name in package.__all__
        }

    @pytest.mark.parametrize("package", FACADES, ids=lambda package: package.__name__)
    def test_an_unknown_name_is_an_attribute_error_naming_the_module(self, package):
        with pytest.raises(AttributeError, match=f"module '{package.__name__}' has no attribute"):
            package.no_such_name
        assert not hasattr(package, "no_such_name")


class TestWhatEachEntryPointLoads:
    def test_every_subpackage_imports_first(self):
        # No eager ``repro/__init__`` fixes the order any more: whichever
        # subpackage a process reaches first must import on its own.
        names = sorted(info.name for info in pkgutil.iter_modules(repro.__path__, "repro."))
        assert "repro.tcp" in names
        failed = {}
        for name in names:
            done = _python(f"import {name}")
            if done.returncode:
                failed[name] = done.stderr
        assert failed == {}

    def test_import_repro_loads_no_submodule(self):
        assert _under(_loaded_after("import repro"), "repro") == {"repro"}

    def test_import_cli_loads_no_subsystem_off_the_run_path(self):
        loaded = _loaded_after("import repro.cli")
        assert _under(loaded, *OFF_THE_RUN_PATH, "multiprocessing") == set()

    def test_serial_runner_construction_loads_only_the_runner(self, tmp_path):
        # What the benchmark's set-up probe does: import the CLI, build a runner.
        loaded = _loaded_after(
            "import repro.cli\n" + BUILD_RUNNER, json.dumps(TINY_SPEC), str(tmp_path / "corpus")
        )
        assert "repro.campaign.scheduler" in loaded
        assert _under(loaded, *OFF_THE_RUN_PATH, *NOT_THE_RUNNER, "multiprocessing") == set()

    def test_status_of_a_finished_campaign_loads_no_subsystem_off_the_run_path(self, tmp_path):
        from repro.cli import campaign_main

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(TINY_SPEC))
        corpus_dir = str(tmp_path / "corpus")
        assert campaign_main(
            ["run", "--spec", str(spec_file), "--corpus", corpus_dir, "--no-attacks", "-q"]
        ) == 0
        loaded = _loaded_after(
            "import sys\nfrom repro.cli import campaign_main\n"
            "campaign_main(['status', sys.argv[1], '--json'])",
            corpus_dir,
        )
        assert "repro.obs.status" in loaded
        assert _under(loaded, *OFF_THE_RUN_PATH, "multiprocessing") == set()

    def test_a_process_backend_loads_the_supervisor_with_its_first_batch(self, tmp_path):
        spec = dict(TINY_SPEC, backend="process", workers=1)
        loaded = _loaded_after(
            BUILD_RUNNER + "assert 'repro.exec.supervisor' not in sys.modules\nrunner.run()",
            json.dumps(spec), str(tmp_path / "corpus"),
        )
        assert {"repro.exec.supervisor", "multiprocessing"} <= loaded
