"""Tests for the campaign subsystem: spec, corpus, scheduler, replay."""

from __future__ import annotations

import json
import os

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    CorpusStore,
    GaBudget,
    NetworkCondition,
    replay_corpus,
)
from repro.core.fuzzer import CCFuzz, FuzzConfig
from repro.traces.trace import LinkTrace, LossTrace, PacketTrace, TrafficTrace

TINY_BUDGET = {"population_size": 4, "generations": 2, "duration": 1.0}


def tiny_spec(**overrides) -> CampaignSpec:
    payload = {
        "name": "test",
        "ccas": ["reno", "cubic"],
        "modes": ["traffic"],
        "objectives": ["throughput"],
        "conditions": [{"name": "base"}, {"name": "shallow", "queue_capacity": 20}],
        "budget": dict(TINY_BUDGET),
        "seed": 7,
        "seed_limit": 3,
    }
    payload.update(overrides)
    return CampaignSpec.from_dict(payload)


def traffic_trace(times, duration=1.0) -> TrafficTrace:
    return TrafficTrace(timestamps=times, duration=duration, max_packets=max(len(times), 8))


class TestSpec:
    def test_expand_is_full_cross_product_in_order(self):
        spec = tiny_spec()
        scenarios = spec.expand()
        assert len(scenarios) == spec.scenario_count == 4
        assert [s.scenario_id for s in scenarios] == [
            "reno/traffic/throughput/base",
            "reno/traffic/throughput/shallow",
            "cubic/traffic/throughput/base",
            "cubic/traffic/throughput/shallow",
        ]

    def test_scenario_seed_is_stable_under_matrix_growth(self):
        # Adding a CCA must not reshuffle existing scenarios' GA seeds.
        small = {s.scenario_id: s.seed for s in tiny_spec().expand()}
        grown = {s.scenario_id: s.seed for s in tiny_spec(ccas=["reno", "cubic", "bbr"]).expand()}
        for scenario_id, seed in small.items():
            assert grown[scenario_id] == seed

    def test_scenario_builds_configs_from_condition(self):
        scenario = tiny_spec().expand()[1]
        sim = scenario.sim_config()
        assert sim.queue_capacity == 20
        assert sim.duration == 1.0
        config = scenario.fuzz_config()
        assert isinstance(config, FuzzConfig)
        assert config.sim.queue_capacity == 20
        assert config.seed == scenario.seed

    def test_json_roundtrip(self):
        spec = tiny_spec()
        clone = CampaignSpec.from_json(spec.to_json())
        assert clone.to_dict() == spec.to_dict()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"ccas": ["no-such-cca"]},
            {"ccas": []},
            {"modes": ["warp"]},
            {"objectives": ["vibes"]},
            {"conditions": [{"name": "base"}, {"name": "base"}]},
            {"budget": {"population_size": 1}},
            {"backend": "quantum"},
        ],
    )
    def test_invalid_specs_rejected(self, overrides):
        with pytest.raises(ValueError):
            tiny_spec(**overrides)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign spec keys"):
            CampaignSpec.from_dict({"name": "x", "turbo": True})

    def test_condition_validation(self):
        # The ranges (and messages) are SimulationConfig's.
        for field, value, message in (
            ("bottleneck_rate_mbps", -1, "bottleneck_rate_mbps must be positive"),
            ("queue_capacity", 0, "queue_capacity must be at least 1"),
            ("propagation_delay", -0.1, "propagation_delay must be non-negative"),
        ):
            with pytest.raises(ValueError, match=message):
                NetworkCondition(**{field: value})
        with pytest.raises(ValueError):
            GaBudget(generations=0)


class TestCorpusStore:
    def test_orphan_tmp_files_swept_on_load(self, tmp_path):
        """A crash between atomic_json_dump's temp write and its rename
        leaves ``*.tmp`` litter; reopening the corpus must sweep it."""
        store = CorpusStore(str(tmp_path / "corpus"))
        trace = traffic_trace([0.1, 0.2, 0.3])
        store.add(trace, scenario_id="s", cca="reno", objective="throughput", score=1.0)
        store.fold()
        orphans = [
            os.path.join(store.path, "index.json.tmp"),
            os.path.join(store.path, "entries", "deadbeef.json.tmp"),
        ]
        for path in orphans:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("{garbage")
        reloaded = CorpusStore(store.path)
        assert len(reloaded) == 1  # real entries untouched
        for path in orphans:
            assert not os.path.exists(path)

    def test_add_and_reload_roundtrip(self, tmp_path):
        store = CorpusStore(str(tmp_path / "corpus"))
        trace = traffic_trace([0.1, 0.2, 0.3])
        assert store.add(trace, scenario_id="reno/traffic/throughput/base",
                         cca="reno", objective="throughput", score=-1.5,
                         condition={"queue_capacity": 60})
        assert len(store) == 1
        store.fold()
        reloaded = CorpusStore(str(tmp_path / "corpus"))
        assert len(reloaded) == 1
        entry = reloaded.get(trace.fingerprint())
        assert entry.cca == "reno"
        assert entry.score == -1.5
        assert entry.trace.timestamps == trace.timestamps
        assert isinstance(entry.trace, TrafficTrace)

    def test_duplicate_traces_are_deduped(self, tmp_path):
        store = CorpusStore(str(tmp_path / "corpus"))
        trace = traffic_trace([0.1, 0.2])
        assert store.add(trace, scenario_id="a", score=-5.0)
        assert not store.add(trace.copy(), scenario_id="b", score=-9.0)
        assert len(store) == 1
        entry = store.get(trace.fingerprint())
        assert entry.rediscoveries == 1
        # The worse rediscovery must not overwrite the recorded best score.
        assert entry.score == -5.0
        assert entry.scenario_id == "a"

    def test_rediscovery_with_higher_score_upgrades_provenance(self, tmp_path):
        store = CorpusStore(str(tmp_path / "corpus"))
        trace = traffic_trace([0.4])
        store.add(trace, scenario_id="a", cca="reno", score=-9.0)
        store.add(trace.copy(), scenario_id="b", cca="cubic", score=-1.0)
        entry = store.get(trace.fingerprint())
        assert entry.score == -1.0
        assert entry.scenario_id == "b"
        assert entry.cca == "cubic"

    def test_seeds_for_filters_mode_and_duration(self, tmp_path):
        store = CorpusStore(str(tmp_path / "corpus"))
        match = traffic_trace([0.1, 0.5])
        store.add(match, scenario_id="m", score=-1.0)
        store.add(traffic_trace([0.2], duration=2.0), scenario_id="wrong-duration", score=-0.5)
        store.add(LinkTrace(timestamps=[0.1], duration=1.0), scenario_id="wrong-mode", score=-0.5)
        seeds = store.seeds_for("traffic", 1.0, limit=10)
        assert [seed.fingerprint() for seed in seeds] == [match.fingerprint()]

    def test_seeds_for_prefers_builtins_then_best_scores(self, tmp_path):
        store = CorpusStore(str(tmp_path / "corpus"))
        builtin = traffic_trace([0.9])
        good = traffic_trace([0.1])
        bad = traffic_trace([0.2])
        store.add(bad, scenario_id="bad", score=-8.0)
        store.add(good, scenario_id="good", score=-1.0)
        store.add(builtin, scenario_id="builtin/x", origin="builtin")
        seeds = store.seeds_for("traffic", 1.0, limit=2)
        assert [s.fingerprint() for s in seeds] == [builtin.fingerprint(), good.fingerprint()]

    def test_builtin_reregistration_is_idempotent(self, tmp_path):
        # Each campaign run re-registers the builtin library; that must not
        # inflate rediscoveries (which counts genuine re-finds by a search).
        store = CorpusStore(str(tmp_path / "corpus"))
        trace = traffic_trace([0.7])
        store.add(trace, scenario_id="builtin/x", origin="builtin")
        assert not store.add(trace.copy(), scenario_id="builtin/x", origin="builtin")
        assert store.get(trace.fingerprint()).rediscoveries == 0

    def test_seeds_for_prefers_matching_objective(self, tmp_path):
        # Scores from different objectives are on incomparable scales, so a
        # scenario's own objective wins over a "higher" cross-objective score.
        store = CorpusStore(str(tmp_path / "corpus"))
        delay_find = traffic_trace([0.1])
        throughput_find = traffic_trace([0.2])
        store.add(delay_find, scenario_id="d", objective="delay", score=100.0)
        store.add(throughput_find, scenario_id="t", objective="throughput", score=-3.0)
        seeds = store.seeds_for("traffic", 1.0, limit=1, objective="throughput")
        assert [s.fingerprint() for s in seeds] == [throughput_find.fingerprint()]

    def test_rediscovery_under_different_objective_keeps_provenance(self, tmp_path):
        # A 'delay' score (seconds, positive) must never displace a
        # 'throughput' score (negated Mbps): the scales are incomparable.
        store = CorpusStore(str(tmp_path / "corpus"))
        trace = traffic_trace([0.5])
        store.add(trace, scenario_id="t", objective="throughput", score=-6.0)
        store.add(trace.copy(), scenario_id="d", objective="delay", score=0.25)
        entry = store.get(trace.fingerprint())
        assert entry.objective == "throughput"
        assert entry.score == -6.0
        assert entry.rediscoveries == 1

    def test_link_seeds_require_matching_bottleneck_rate(self, tmp_path):
        # A link trace IS the service curve: a 5 Mbps curve seeded into a
        # 12 Mbps search would be the degenerate "just lower the bandwidth"
        # solution, so rate-incompatible link entries are filtered out.
        store = CorpusStore(str(tmp_path / "corpus"))
        slow = LinkTrace(timestamps=[i * 0.0024 for i in range(417)], duration=1.0)   # ~5 Mbps
        fast = LinkTrace(timestamps=[i * 0.001 for i in range(1000)], duration=1.0)   # 12 Mbps
        store.add(slow, scenario_id="slow", score=-1.0)
        store.add(fast, scenario_id="fast", score=-9.0)
        seeds = store.seeds_for("link", 1.0, limit=10, bottleneck_rate_mbps=12.0)
        assert [s.fingerprint() for s in seeds] == [fast.fingerprint()]
        # Without a rate constraint both remain available.
        assert len(store.seeds_for("link", 1.0, limit=10)) == 2

    def test_rediscovery_count_persists_across_reload(self, tmp_path):
        # A folded rediscovery must land in the entry file AND the index
        # row, and survive a cold reload.
        store = CorpusStore(str(tmp_path / "corpus"))
        trace = traffic_trace([0.15, 0.35])
        store.add(trace, scenario_id="a", objective="throughput", score=-5.0)
        store.add(trace.copy(), scenario_id="b", objective="throughput", score=-7.0)
        store.add(trace.copy(), scenario_id="c", objective="throughput", score=-2.0)
        store.fold()
        reloaded = CorpusStore(str(tmp_path / "corpus"))
        entry = reloaded.get(trace.fingerprint())
        assert entry.rediscoveries == 2
        assert entry.score == -2.0                       # best like-for-like find
        assert entry.scenario_id == "c"
        assert reloaded.index_rows()[trace.fingerprint()]["rediscoveries"] == 2

    def test_unscored_entry_upgraded_by_first_scored_rediscovery(self, tmp_path):
        # A builtin entry has score None; any scored re-find is comparable
        # and must attach the discovery provenance while origin stays put.
        store = CorpusStore(str(tmp_path / "corpus"))
        trace = traffic_trace([0.45])
        store.add(trace, scenario_id="builtin/x", origin="builtin")
        store.add(
            trace.copy(), scenario_id="reno/traffic/throughput/base",
            cca="reno", objective="throughput", score=-3.0,
        )
        entry = store.get(trace.fingerprint())
        assert entry.origin == "builtin"
        assert entry.rediscoveries == 1
        assert entry.score == -3.0
        assert entry.cca == "reno"
        assert entry.scenario_id == "reno/traffic/throughput/base"

    def test_rediscovery_under_different_condition_keeps_provenance(self, tmp_path):
        # Same objective but different network condition: still incomparable
        # scales, so the recorded best must not be displaced.
        store = CorpusStore(str(tmp_path / "corpus"))
        trace = traffic_trace([0.25])
        store.add(trace, scenario_id="a", objective="throughput", score=-6.0,
                  condition={"queue_capacity": 60})
        store.add(trace.copy(), scenario_id="b", objective="throughput", score=-1.0,
                  condition={"queue_capacity": 20})
        entry = store.get(trace.fingerprint())
        assert entry.rediscoveries == 1
        assert entry.score == -6.0
        assert entry.condition == {"queue_capacity": 60}

    def test_triage_reregistration_is_idempotent(self, tmp_path):
        # Re-triaging a corpus re-adds the same minimized variants; like the
        # builtin bootstrap, that must not count as a rediscovery.
        store = CorpusStore(str(tmp_path / "corpus"))
        trace = traffic_trace([0.65])
        store.add(trace, scenario_id="triage/abc", origin="triage", derived_from="abc")
        assert not store.add(trace.copy(), scenario_id="triage/abc", origin="triage",
                             derived_from="abc")
        assert store.get(trace.fingerprint()).rediscoveries == 0

    def test_legacy_entry_payload_loads_without_triage_fields(self):
        # Corpora written before the triage subsystem have no derived_from /
        # triage keys; they must load with empty defaults.
        from repro.campaign import CorpusEntry

        trace = traffic_trace([0.1])
        payload = {
            "fingerprint": trace.fingerprint(),
            "mode": "traffic",
            "scenario_id": "a",
            "trace": trace.to_dict(),
        }
        entry = CorpusEntry.from_dict(payload)
        assert entry.derived_from == ""
        assert entry.triage == {}

    def test_legacy_entry_file_takes_a_rediscovery_and_a_verdict(self, tmp_path):
        # An entry file from before the triage subsystem lacks most fields;
        # re-finding and annotating it must fill them with their defaults.
        store = CorpusStore(str(tmp_path / "corpus"))
        trace = traffic_trace([0.35])
        store.add(trace, scenario_id="a", score=-2.0)
        store.fold()
        legacy = {"fingerprint": trace.fingerprint(), "mode": "traffic", "scenario_id": "a",
                  "trace": trace.to_dict()}
        (tmp_path / "corpus" / "entries" / f"{trace.fingerprint()}.json").write_text(
            json.dumps(legacy), encoding="utf-8"
        )
        reloaded = CorpusStore(str(tmp_path / "corpus"))
        assert not reloaded.add(trace.copy(), scenario_id="b", score=-1.0)
        reloaded.annotate_triage(trace.fingerprint(), {"classification": "generic"})
        entry = reloaded.get(trace.fingerprint())
        assert (entry.rediscoveries, entry.score, entry.scenario_id) == (1, -1.0, "b")
        assert entry.triage == {"classification": "generic"} and entry.derived_from == ""
        assert reloaded.index_rows()[trace.fingerprint()]["triaged"] is True

    def test_annotate_triage_replaces_and_persists(self, tmp_path):
        # A verdict describes one triage run; a re-triage (e.g. --force with
        # different engines) must not inherit stale keys from the last run.
        store = CorpusStore(str(tmp_path / "corpus"))
        trace = traffic_trace([0.55])
        store.add(trace, scenario_id="a", score=-1.0)
        store.annotate_triage(trace.fingerprint(), {"classification": "generic"})
        store.annotate_triage(trace.fingerprint(), {"robustness_score": 0.75})
        store.fold()
        reloaded = CorpusStore(str(tmp_path / "corpus"))
        entry = reloaded.get(trace.fingerprint())
        assert entry.triage == {"robustness_score": 0.75}

    def test_mode_of_trace(self, tmp_path):
        # The corpus asks the trace for its mode; an untyped trace has none
        # and cannot be stored.
        store = CorpusStore(str(tmp_path / "corpus"))
        for trace, mode in (
            (traffic_trace([0.1]), "traffic"),
            (LinkTrace(timestamps=[0.1], duration=1.0), "link"),
            (LossTrace(timestamps=[0.1], duration=1.0), "loss"),
        ):
            assert trace.mode == mode
            store.add(trace, scenario_id=mode)
            assert store.get(trace.fingerprint()).mode == mode
            assert store.index_rows()[trace.fingerprint()]["mode"] == mode
        with pytest.raises(TypeError):
            store.add(PacketTrace(timestamps=[0.1], duration=1.0), scenario_id="untyped")

    def test_corpus_directory_layout(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        store = CorpusStore(str(corpus_dir))
        trace = traffic_trace([0.3])
        store.add(trace, scenario_id="x", score=0.0)
        assert not (corpus_dir / "index.json").exists()      # published by the fold
        store.fold()
        assert (corpus_dir / "index.json").exists()
        entry_file = corpus_dir / "entries" / f"{trace.fingerprint()}.json"
        assert entry_file.exists()
        payload = json.loads(entry_file.read_text())
        assert payload["trace"]["type"] == "TrafficTrace"


class TestCampaignRunner:
    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        corpus_dir = str(tmp_path_factory.mktemp("campaign") / "corpus")
        spec = tiny_spec()
        corpus = CorpusStore(corpus_dir)
        result = CampaignRunner(spec, corpus).run()
        return spec, corpus, result

    def test_runs_every_scenario(self, campaign):
        spec, _, result = campaign
        assert [o.scenario.scenario_id for o in result.outcomes] == [
            s.scenario_id for s in spec.expand()
        ]
        for outcome in result.outcomes:
            assert outcome.evaluations > 0
            assert outcome.best_fitness > float("-inf")

    def test_builtin_attacks_registered(self, campaign):
        _, corpus, result = campaign
        assert result.attacks_registered > 0
        origins = {entry.origin for entry in corpus.entries()}
        assert "builtin" in origins

    def test_harvest_populates_corpus_with_provenance(self, campaign):
        _, corpus, result = campaign
        fuzz_entries = [e for e in corpus.entries() if e.origin == "fuzz"]
        assert fuzz_entries
        scenario_ids = {o.scenario.scenario_id for o in result.outcomes}
        for entry in fuzz_entries:
            assert entry.scenario_id in scenario_ids
            assert entry.score is not None
            assert entry.cca in ("reno", "cubic")
            assert entry.condition["queue_capacity"] in (20, 60)

    def test_later_scenarios_are_seeded_from_corpus(self, campaign):
        _, _, result = campaign
        # The first scenario sees only builtins; every later one must have
        # been seeded (builtins + earlier discoveries).
        assert all(o.seeds_injected > 0 for o in result.outcomes)

    def test_cache_serves_repeat_lookups_within_a_scenario(self, campaign):
        _, _, result = campaign
        # Every hit is a scenario looking up a trace it evaluated itself.
        # None crosses scenarios: a cache key carries the scenario's CCA,
        # simulation and score identities, and no two scenarios here share
        # all three, so a seed another scenario evaluated is simulated again.
        assert sum(o.cache_hits for o in result.outcomes) > 0
        assert result.cache_stats["hits"] > 0

    def test_a_later_scenario_is_seeded_from_an_earlier_ones_harvest(self, tmp_path):
        """With the default ``seed_limit``, scenario 2 draws its seeds from
        the live corpus, scenario 1's harvest included."""
        from repro.journal.log import CampaignJournal

        spec = CampaignSpec.from_dict({
            "name": "live-seeds", "ccas": ["reno", "cubic"], "modes": ["traffic"],
            "objectives": ["throughput"], "conditions": [{"name": "base"}],
            "budget": {"population_size": 8, "generations": 3, "duration": 0.12},
            "seed": 7,
        })
        reno, cubic = [scenario.scenario_id for scenario in spec.expand()]
        corpus_dir = str(tmp_path / "corpus")
        CampaignRunner(spec, CorpusStore(corpus_dir), telemetry=False).run()
        view = CampaignJournal(CampaignJournal.corpus_path(corpus_dir)).replay()
        seeds = view.checkpoints[cubic]["fuzzer"]["seed_fingerprints"]
        assert set(seeds) & set(view.inserts_by_scenario[reno])

    def test_campaign_is_deterministic(self, campaign, tmp_path):
        spec, corpus, result = campaign
        corpus2 = CorpusStore(str(tmp_path / "corpus2"))
        result2 = CampaignRunner(tiny_spec(), corpus2).run()
        assert [o.best_fitness for o in result2.outcomes] == [
            o.best_fitness for o in result.outcomes
        ]
        assert sorted(corpus2.fingerprints()) == sorted(corpus.fingerprints())


class TestCorpusSeededFuzzing:
    def test_seed_traces_enter_initial_population(self, tmp_path):
        store = CorpusStore(str(tmp_path / "corpus"))
        seed_a = traffic_trace([0.10, 0.55, 0.80])
        seed_b = traffic_trace([0.25, 0.30])
        store.add(seed_a, scenario_id="a", score=-1.0)
        store.add(seed_b, scenario_id="b", score=-2.0)
        seeds = store.seeds_for("traffic", 1.0, limit=2)
        from repro.tcp.cca import cca_factory

        config = FuzzConfig(mode="traffic", population_size=4, generations=1, duration=1.0, seed=0)
        result = CCFuzz(cca_factory("reno"), config=config, seed_traces=seeds).run()
        # Both injected traces are visible in the run's provenance and, with a
        # single generation, still present in the final population.
        assert sorted(result.seed_fingerprints) == sorted(
            [seed_a.fingerprint(), seed_b.fingerprint()]
        )
        seeded = [ind for ind in result.final_population if ind.origin == "seed"]
        assert {ind.trace.fingerprint() for ind in seeded} == {
            seed_a.fingerprint(),
            seed_b.fingerprint(),
        }

    def test_unseeded_run_reports_no_seeds(self):
        from repro.tcp.cca import cca_factory

        config = FuzzConfig(mode="traffic", population_size=4, generations=1, duration=1.0)
        result = CCFuzz(cca_factory("reno"), config=config).run()
        assert result.seed_fingerprints == []


class TestReplay:
    @pytest.fixture(scope="class")
    def seeded_corpus(self, tmp_path_factory):
        corpus = CorpusStore(str(tmp_path_factory.mktemp("replay") / "corpus"))
        CampaignRunner(
            tiny_spec(ccas=["reno"], conditions=[{"name": "base"}]), corpus
        ).run()
        return corpus

    def test_replay_scores_every_entry(self, seeded_corpus):
        report = replay_corpus(seeded_corpus, "cubic")
        assert report.entry_count == len(seeded_corpus)
        for row in report.rows:
            assert isinstance(row.replay_score, float)

    def test_replay_is_deterministic(self, seeded_corpus):
        first = replay_corpus(seeded_corpus, "bbr")
        second = replay_corpus(seeded_corpus, "bbr")
        assert [row.replay_score for row in first.rows] == [
            row.replay_score for row in second.rows
        ]

    def test_replay_against_origin_cca_reproduces_recorded_scores(self, seeded_corpus):
        # Re-simulating a discovery against the CCA and condition it was
        # found with must give back exactly the recorded fitness.
        report = replay_corpus(seeded_corpus, "reno", mode="traffic")
        originals = {
            row.fingerprint: row for row in report.rows if row.original_score is not None
        }
        assert originals
        for row in originals.values():
            if row.origin_cca == "reno":
                assert row.replay_score == pytest.approx(row.original_score)
                assert row.delta == pytest.approx(0.0)

    def test_mode_filter(self, seeded_corpus):
        report = replay_corpus(seeded_corpus, "reno", mode="link")
        assert all(
            seeded_corpus.get(row.fingerprint).mode == "link" for row in report.rows
        )
        assert report.entry_count < len(seeded_corpus)
