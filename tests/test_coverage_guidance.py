"""Coverage-guided search: default bit-identity, novelty coverage, CLI.

Two acceptance properties anchor this file:

* ``guidance="score"`` (the default) is *bit-identical* to the
  pre-coverage fuzzer — the GA smoke history golden in
  ``test_sim_golden.py`` pins that against the seed capture, and the tests
  here additionally pin it against an explicitly-archived run; and
* ``guidance="novelty"`` discovers at least twice the behavior cells of
  ``guidance="score"`` on the builtin CUBIC smoke configuration (fixed
  seed, deterministic simulator — the comparison is exact, not
  statistical).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.attacks import cubic_two_burst_trace
from repro.campaign import CampaignRunner, CampaignSpec, CorpusStore, GaBudget
from repro.core.fuzzer import CCFuzz, FuzzConfig
from repro.coverage import (
    GUIDANCE_MODES,
    BehaviorArchive,
    make_guidance,
    signature_from_summary,
)
from repro.netsim.simulation import SimulationConfig
from repro.obs import read_manifest
from repro.tcp.cca import cca_factory


def _history(result):
    return [
        [s.best_fitness, s.mean_fitness, s.evaluations, s.cache_hits]
        for s in result.generations
    ]


#: The builtin CUBIC smoke configuration: fuzz CUBIC in traffic mode,
#: population seeded entirely from the builtin two-burst attack (a single
#: behavior cell), strong elitism.  Score guidance exploits the attack;
#: novelty guidance has to diversify to rank well.
def _cubic_smoke_config(guidance: str) -> FuzzConfig:
    return FuzzConfig(
        mode="traffic",
        population_size=6,
        generations=15,
        k_elite=4,
        crossover_fraction=0.0,
        duration=2.0,
        seed=16,
        guidance=guidance,
        novelty_weight=2.0,
        immigrant_fraction=1.0,
    )


def _run_cubic_smoke(guidance: str):
    seeds = [cubic_two_burst_trace(duration=2.0)] * 6
    fuzzer = CCFuzz(cca_factory("cubic"), config=_cubic_smoke_config(guidance), seed_traces=seeds)
    return fuzzer.run()


class TestScoreGuidanceBitIdentity:
    def test_default_guidance_is_score(self):
        assert FuzzConfig().guidance == "score"
        assert CampaignSpec().guidance == "score"

    def test_archive_maintenance_does_not_perturb_score_runs(self):
        """An injected archive changes nothing about a score-guided search."""
        config = dict(
            mode="traffic", population_size=6, generations=3, duration=1.0,
            max_traffic_packets=60, seed=21,
        )
        plain = CCFuzz(cca_factory("reno"), config=FuzzConfig(**config)).run()
        archived = CCFuzz(
            cca_factory("reno"), config=FuzzConfig(**config), archive=BehaviorArchive()
        ).run()
        assert _history(plain) == _history(archived)
        assert plain.best_fitness == archived.best_fitness
        assert plain.best_trace.fingerprint() == archived.best_trace.fingerprint()

    def test_score_runs_still_report_coverage(self):
        result = CCFuzz(
            cca_factory("reno"),
            config=FuzzConfig(
                mode="traffic", population_size=6, generations=2, duration=1.0,
                max_traffic_packets=60, seed=21,
            ),
        ).run()
        assert result.guidance == "score"
        assert result.behavior_cells >= 1
        assert result.coverage["cells"] == result.behavior_cells
        assert result.generations[-1].behavior_cells == result.behavior_cells


class TestNoveltyCoverage:
    def test_novelty_fills_at_least_twice_the_cells(self):
        """The headline acceptance criterion (exact: fixed seed, pure simulator)."""
        score_run = _run_cubic_smoke("score")
        novelty_run = _run_cubic_smoke("novelty")
        assert score_run.behavior_cells >= 1
        assert novelty_run.behavior_cells >= 2 * score_run.behavior_cells, (
            f"novelty filled {novelty_run.behavior_cells} cells vs "
            f"{score_run.behavior_cells} for score"
        )

    def test_novelty_population_contains_immigrants_and_explorers(self):
        result = _run_cubic_smoke("novelty")
        origins = {ind.origin for ind in result.final_population}
        assert origins & {"immigrant", "explore"}, origins

    def test_immigrants_are_mode_and_duration_compatible(self):
        result = _run_cubic_smoke("novelty")
        for individual in result.final_population:
            assert individual.trace.duration == 2.0

    def test_archive_immigrants_keep_the_link_packet_budget(self):
        """A link trace is the service curve (section 3.2): a shared archive's
        4 Mbps elites must not immigrate into a 12 Mbps search, where the
        packet-count-preserving mutation would keep them as the degenerate
        "just lower the bandwidth" winners."""
        archive = BehaviorArchive()
        for rate_mbps, budget in ((4.0, 667), (12.0, 2000)):
            config = FuzzConfig(
                mode="link", guidance="novelty", population_size=10, generations=6,
                duration=2.0, average_rate_mbps=rate_mbps,
                sim=SimulationConfig(duration=2.0, bottleneck_rate_mbps=rate_mbps),
            )
            result = CCFuzz(cca_factory("reno"), config=config, archive=archive).run()
            counts = {ind.trace.packet_count for ind in result.final_population}
            assert counts == {budget}, f"{rate_mbps} Mbps population holds {counts}"


class TestValidation:
    def test_unknown_guidance_rejected(self):
        # "elites" (MAP-Elites per-cell selection) was removed: no campaign,
        # flag or benchmark selected it.
        for name in ("random", "elites"):
            with pytest.raises(ValueError, match="guidance"):
                FuzzConfig(guidance=name)
            with pytest.raises(ValueError, match="guidance"):
                CampaignSpec(guidance=name)
            with pytest.raises(ValueError, match="guidance"):
                make_guidance(name)

    def test_every_mode_builds_the_strategy_it_names(self):
        assert GUIDANCE_MODES == ("score", "novelty")
        for name in GUIDANCE_MODES:
            assert make_guidance(name).name == name
            assert FuzzConfig(guidance=name).guidance == name

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            FuzzConfig(novelty_weight=-1.0)
        with pytest.raises(ValueError):
            FuzzConfig(immigrant_fraction=1.5)


class TestCampaignCoverage:
    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        corpus_dir = str(tmp_path_factory.mktemp("coverage-corpus"))
        spec = CampaignSpec(
            name="coverage-smoke",
            ccas=["cubic"],
            modes=["traffic"],
            objectives=["throughput"],
            budget=GaBudget(population_size=4, generations=2, duration=1.5),
            seed=0,
            guidance="novelty",
        )
        corpus = CorpusStore(corpus_dir)
        runner = CampaignRunner(spec, corpus, register_attacks=False)
        result = runner.run()
        return corpus_dir, corpus, result

    def test_campaign_writes_behavior_map(self, campaign):
        corpus_dir, _, result = campaign
        map_path = BehaviorArchive.corpus_path(corpus_dir)
        assert os.path.exists(map_path)
        archive = BehaviorArchive.load(map_path)
        assert len(archive) == result.coverage["cells"] >= 1
        assert read_manifest(corpus_dir)["result"]["coverage"]["cells"] == len(archive)

    def test_scenario_outcomes_report_cells(self, campaign):
        _, _, result = campaign
        assert sum(o.behavior_cells for o in result.outcomes) == result.coverage["cells"]
        assert "cells" in result.outcomes[0].summary_row()

    def test_corpus_entries_annotated_by_cell(self, campaign):
        _, corpus, _ = campaign
        annotated = [entry for entry in corpus.entries() if entry.behavior]
        assert annotated, "harvested entries should carry behavior signatures"
        for entry in annotated:
            signature = signature_from_summary({"behavior_signature": entry.behavior})
            assert signature is not None
            assert corpus.index_rows()[entry.fingerprint]["behavior_cell"] == signature.cell_key()
        cells = {row.get("behavior_cell") for row in corpus.index_rows().values()}
        assert cells - {None, ""} == {entry.behavior["cell"] for entry in annotated}

    def test_campaign_resumes_existing_map(self, campaign):
        corpus_dir, corpus, result = campaign
        spec = CampaignSpec(
            name="coverage-smoke-2",
            ccas=["cubic"],
            modes=["traffic"],
            objectives=["throughput"],
            budget=GaBudget(population_size=4, generations=1, duration=1.5),
            seed=1,
            guidance="novelty",
        )
        runner = CampaignRunner(spec, corpus, register_attacks=False)
        second = runner.run()
        # Coverage accumulates: the second campaign starts from the saved map.
        assert second.coverage["cells"] >= result.coverage["cells"]


class TestCoverageCli:
    def test_fuzz_guidance_and_coverage_output(self, tmp_path, capsys):
        """The run's behavior map is its corpus's ``behavior_map.json``."""
        from repro.cli import fuzz_main

        corpus_dir = str(tmp_path / "corpus")
        exit_code = fuzz_main([
            "--cca", "cubic", "--mode", "traffic", "--population", "4",
            "--generations", "2", "--duration", "1.0", "--seed", "3",
            "--guidance", "novelty", "--output-dir", corpus_dir,
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "behavior coverage (novelty guidance)" in output
        archive = BehaviorArchive.load(BehaviorArchive.corpus_path(corpus_dir))
        assert len(archive) >= 1

    def test_coverage_map_renders_campaign_corpus(self, tmp_path, capsys):
        from repro.cli import campaign_main, coverage_main

        corpus_dir = str(tmp_path / "corpus")
        spec_path = str(tmp_path / "spec.json")
        spec = CampaignSpec(
            name="cli-coverage",
            ccas=["cubic"],
            modes=["traffic"],
            objectives=["throughput"],
            budget=GaBudget(population_size=4, generations=1, duration=1.0),
            guidance="novelty",
        )
        with open(spec_path, "w") as handle:
            handle.write(spec.to_json())
        assert campaign_main(["run", "--spec", spec_path, "--corpus", corpus_dir]) == 0
        capsys.readouterr()
        # The CI coverage smoke's assert: a novelty campaign leaves a
        # non-empty behavior map next to its corpus.
        with open(BehaviorArchive.corpus_path(corpus_dir)) as handle:
            assert json.load(handle)["cells"], "novelty campaign filled no behavior cells"

        assert coverage_main(["map", corpus_dir]) == 0
        output = capsys.readouterr().out
        assert "behavior coverage:" in output
        assert "cubic" in output

        assert coverage_main(["gaps", corpus_dir]) == 0
        assert "empty goodput x stall cells" in capsys.readouterr().out

        assert coverage_main(["diff", corpus_dir, corpus_dir]) == 0
        assert "shared" in capsys.readouterr().out
        # The CI coverage smoke's diff: on a finished corpus the directory
        # reader and the file reader see the same cells.
        map_path = BehaviorArchive.corpus_path(corpus_dir)
        assert coverage_main(["diff", corpus_dir, map_path]) == 0
        output = capsys.readouterr().out
        assert "only in A (0)" in output and "only in B (0)" in output

        assert coverage_main(["map", corpus_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cells"]

    def test_map_and_gaps_text_is_byte_identical_to_the_recorded_render(self, tmp_path, capsys):
        """``map``/``gaps`` are text renderers of ``shape_coverage`` (what
        ``/api/coverage`` serves); the golden holds the stdout of the
        renderers they replaced, over a 4-scenario novelty campaign's map."""
        from repro.cli import coverage_main

        golden_path = os.path.join(os.path.dirname(__file__), "golden_coverage_render.json")
        with open(golden_path) as handle:
            golden = json.load(handle)
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps(golden["behavior_map"]))
        empty_path = str(tmp_path / "empty.json")
        BehaviorArchive().save(empty_path)

        def stdout_of(argv):
            assert coverage_main(argv) == 0
            return capsys.readouterr().out

        assert sorted(golden["stdout"]) == ["gaps", "map --top 10", "map --top 30"]
        for command, expected in golden["stdout"].items():
            name, *options = command.split()
            assert stdout_of([name, str(map_path), *options]) == expected, command
        assert sorted(golden["stdout_empty"]) == ["gaps", "map"]
        for name, expected in golden["stdout_empty"].items():
            assert stdout_of([name, empty_path]) == expected, name
