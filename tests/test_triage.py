"""Tests for the triage subsystem: evaluation, engines, pipeline, corpus."""

from __future__ import annotations

import json

import pytest

from repro.campaign import CorpusStore
from repro.exec import BACKENDS, Evaluator, TraceCache, create_backend
from repro.exec.workers import EvaluationJob
from repro.netsim import SimulationConfig
from repro.scoring.objectives import make_score_function
from repro.tcp import Reno
from repro.tcp.cca import CCA_FACTORIES
from repro.traces import LinkTrace, LossTrace, TrafficTrace, validate_trace
from repro.triage import (
    DifferentialConfig,
    MinimizeConfig,
    RobustnessConfig,
    TraceScorer,
    TriageConfig,
    compare_ccas,
    minimize_trace,
    retention_floor,
    shift_trace,
    split_bursts,
    triage_corpus,
    triage_trace,
    validate_robustness,
)
from repro.triage.minimize import MAX_ROUNDS

SIM = SimulationConfig(duration=1.0)
SCORE = make_score_function("throughput", "traffic")


def traffic_trace(times, duration=1.0) -> TrafficTrace:
    return TrafficTrace(timestamps=times, duration=duration, max_packets=max(len(times), 8))


def burst(start, packets, span=0.02):
    return [start + i * span / max(packets, 1) for i in range(packets)]


#: A two-burst trace that measurably hurts Reno in a 1-second run.
def attack_trace() -> TrafficTrace:
    return traffic_trace(burst(0.3, 60, 0.05) + burst(0.6, 60, 0.05))


#: Small matrix so robustness tests stay fast (5 cells + baseline).
TINY_ROBUSTNESS = RobustnessConfig(
    bandwidth_factors=(0.9,),
    rtt_factors=(1.5,),
    queue_factors=(0.75,),
    time_shifts=(0.05,),
    sender_start_offsets=(0.05,),
)


class TestRetentionFloor:
    def test_negative_baseline_allows_bounded_degradation(self):
        assert retention_floor(-0.5, 0.9) == pytest.approx(-0.55)

    def test_positive_baseline_keeps_fraction(self):
        assert retention_floor(0.2, 0.9) == pytest.approx(0.18)

    def test_zero_baseline(self):
        assert retention_floor(0.0, 0.9) == 0.0


class TestSplitBursts:
    def test_splits_on_gaps(self):
        bursts = split_bursts([0.1, 0.11, 0.12, 0.5, 0.51])
        assert [len(b) for b in bursts] == [3, 2]

    def test_single_burst(self):
        assert len(split_bursts([0.1, 0.12, 0.14])) == 1

    def test_empty(self):
        assert split_bursts([]) == []


class TestShiftTrace:
    def test_preserves_count_and_bounds(self):
        trace = attack_trace()
        for delta in (-0.2, 0.1, 0.9, 1.3):
            shifted = shift_trace(trace, delta)
            assert shifted.packet_count == trace.packet_count
            assert all(0.0 <= t <= trace.duration for t in shifted.timestamps)
            validate_trace(shifted)

    def test_preserves_type_and_budget(self):
        trace = attack_trace()
        shifted = shift_trace(trace, 0.25)
        assert isinstance(shifted, TrafficTrace)
        assert shifted.max_packets == trace.max_packets


class TestBatchEvaluator:
    def make_jobs(self, traces):
        return [EvaluationJob(Reno, SIM, trace, SCORE) for trace in traces]

    def test_results_match_uncached(self):
        traces = [traffic_trace([0.1 * i]) for i in range(1, 4)]
        plain = Evaluator().evaluate(self.make_jobs(traces))
        cached = Evaluator(cache=TraceCache()).evaluate(self.make_jobs(traces))
        assert plain == cached

    def test_duplicates_coalesce_and_repeats_hit(self):
        trace = traffic_trace([0.2, 0.4])
        evaluator = Evaluator(cache=TraceCache())
        first = evaluator.evaluate(self.make_jobs([trace, trace.copy()]))
        assert first[0] == first[1]
        assert evaluator.simulations == 1
        assert evaluator.cache_hits == 1
        evaluator.evaluate(self.make_jobs([trace]))
        assert evaluator.simulations == 1
        assert evaluator.cache_hits == 2

    def test_distinct_configs_not_conflated(self):
        trace = traffic_trace([0.2])
        evaluator = Evaluator(cache=TraceCache())
        jobs = [
            EvaluationJob(Reno, SIM, trace, SCORE),
            EvaluationJob(Reno, SIM.with_overrides(queue_capacity=10), trace, SCORE),
        ]
        evaluator.evaluate(jobs)
        assert evaluator.simulations == 2

    def test_empty_batch(self):
        assert Evaluator().evaluate([]) == []


class TestMinimizer:
    def scorer(self, cache=None):
        return TraceScorer(Reno, SIM, SCORE, evaluator=Evaluator(cache=cache))

    def test_minimizes_attack_within_retention(self):
        trace = attack_trace()
        result = minimize_trace(trace, self.scorer(), MinimizeConfig(max_evaluations=120))
        assert result.events_after <= result.events_before
        assert result.minimized_score >= result.floor
        validate_trace(result.minimized)
        assert isinstance(result.minimized, TrafficTrace)
        assert result.minimized.duration == trace.duration
        assert result.minimized.metadata["minimized_from"] == trace.fingerprint()
        # The attack is padded with redundant packets; some must come off.
        assert result.reduced
        assert result.events_after < result.events_before

    def test_minimized_score_is_reproducible(self):
        # The recorded score must be the trace's true score, not an artifact
        # of the search path.
        trace = attack_trace()
        result = minimize_trace(trace, self.scorer(), MinimizeConfig(max_evaluations=120))
        assert self.scorer().scores([result.minimized])[0] == result.minimized_score

    def test_deterministic(self):
        trace = attack_trace()
        config = MinimizeConfig(max_evaluations=120)
        first = minimize_trace(trace, self.scorer(), config)
        second = minimize_trace(trace, self.scorer(), config)
        assert first.minimized.fingerprint() == second.minimized.fingerprint()
        assert first.evaluations == second.evaluations
        assert first.stages == second.stages

    def test_budget_is_respected(self):
        trace = attack_trace()
        evaluator = Evaluator()
        scorer = TraceScorer(Reno, SIM, SCORE, evaluator=evaluator)
        result = minimize_trace(trace, scorer, MinimizeConfig(max_evaluations=10))
        assert result.evaluations <= 10
        assert evaluator.simulations <= 10

    def test_link_trace_keeps_packet_budget(self):
        # ~1.5 Mbps service curve with a 0.3 s outage in the middle.
        times = [i * 0.008 for i in range(125) if not 0.4 <= i * 0.008 < 0.7]
        times += burst(0.7, 125 - len(times), 0.05)
        trace = LinkTrace(timestamps=sorted(times), duration=1.0)
        result = minimize_trace(trace, self.scorer(), MinimizeConfig(max_evaluations=60))
        assert result.events_after == result.events_before
        assert result.minimized_score >= result.floor
        validate_trace(result.minimized)

    def test_empty_link_trace_is_left_alone(self):
        trace = LinkTrace(timestamps=[], duration=1.0)
        result = minimize_trace(trace, self.scorer(), MinimizeConfig(max_evaluations=10))
        assert result.evaluations == 1 and not result.reduced

    def test_loss_trace_pruning(self):
        trace = LossTrace(timestamps=[0.1, 0.2, 0.3, 0.5, 0.7], duration=1.0)
        result = minimize_trace(trace, self.scorer(), MinimizeConfig(max_evaluations=80))
        assert result.events_after <= 5
        assert result.minimized_score >= result.floor
        validate_trace(result.minimized)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            MinimizeConfig(retention=0.0)
        with pytest.raises(ValueError):
            MinimizeConfig(retention=1.5)
        with pytest.raises(ValueError):
            MinimizeConfig(max_evaluations=0)

    def test_to_dict_is_json_serialisable(self):
        trace = traffic_trace([0.2, 0.4])
        result = minimize_trace(trace, self.scorer(), MinimizeConfig(max_evaluations=20))
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["original_fingerprint"] == trace.fingerprint()


class TestRobustness:
    def test_matrix_shape_and_breakdown(self):
        report = validate_robustness(
            attack_trace(), Reno, SIM, SCORE, config=TINY_ROBUSTNESS
        )
        assert len(report.cells) == TINY_ROBUSTNESS.cell_count() == 5
        assert set(report.by_dimension()) == {
            "bandwidth", "rtt", "queue", "time_shift", "sender_start",
        }
        assert 0.0 <= report.robustness_score <= 1.0
        for cell in report.cells:
            assert cell.held == (cell.score >= retention_floor(
                report.baseline_score, TINY_ROBUSTNESS.retention
            ))

    def test_link_traces_skip_the_bandwidth_dimension(self):
        # A link trace defines the service curve itself; the simulator never
        # reads bottleneck_rate_mbps, so bandwidth cells would be baseline
        # replicas that always "hold" and inflate the robustness score.
        trace = LinkTrace(timestamps=[i * 0.01 for i in range(100)], duration=1.0)
        report = validate_robustness(trace, Reno, SIM, SCORE, config=TINY_ROBUSTNESS)
        assert "bandwidth" not in report.by_dimension()
        assert len(report.cells) == TINY_ROBUSTNESS.cell_count() - len(
            TINY_ROBUSTNESS.bandwidth_factors
        )

    def test_batches_through_one_backend_call_batch(self):
        evaluator = Evaluator(cache=TraceCache())
        validate_robustness(
            attack_trace(), Reno, SIM, SCORE,
            evaluator=evaluator, config=TINY_ROBUSTNESS,
        )
        # baseline + 5 cells, all distinct configurations/traces.
        assert evaluator.simulations == 6

    def test_to_dict_is_json_serialisable(self):
        report = validate_robustness(
            attack_trace(), Reno, SIM, SCORE, config=TINY_ROBUSTNESS
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["robustness_score"] == round(report.robustness_score, 4)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            RobustnessConfig(retention=0.0)
        with pytest.raises(ValueError):
            RobustnessConfig(bandwidth_factors=(0.0,))


class TestDifferential:
    def test_panels_every_registered_cca(self):
        report = compare_ccas(attack_trace(), SIM, SCORE)
        assert sorted(row.cca for row in report.rows) == sorted(CCA_FACTORIES)
        assert report.rows[0].score == max(row.score for row in report.rows)
        assert report.classification in ("generic", "cca-specific", "class-specific")
        assert report.most_vulnerable == report.rows[0].cca

    def test_vulnerability_normalisation(self):
        report = compare_ccas(attack_trace(), SIM, SCORE)
        values = [row.vulnerability for row in report.rows]
        assert max(values) == 1.0
        assert min(values) >= 0.0

    def test_restricted_cca_panel(self):
        config = DifferentialConfig(ccas=["reno", "cubic"])
        report = compare_ccas(attack_trace(), SIM, SCORE, config=config)
        assert sorted(row.cca for row in report.rows) == ["cubic", "reno"]

    def test_unknown_cca_rejected(self):
        with pytest.raises(ValueError, match="unknown CCAs"):
            DifferentialConfig(ccas=["no-such-cca"])

    def test_negligible_spread_reads_as_generic(self):
        # Reno and CUBIC behave identically under no attack here (exact
        # score tie): a negligible relative spread must not be stretched
        # into fake specificity by the 0..1 normalisation.
        report = compare_ccas(
            traffic_trace([]), SIM, SCORE,
            config=DifferentialConfig(ccas=["reno", "cubic"]),
        )
        assert report.classification == "generic"
        assert all(row.vulnerability == 1.0 for row in report.rows)

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_bit_identical_across_backends(self, backend_name):
        # The satellite requirement: differential comparison must not depend
        # on which backend executed the batch.
        serial = compare_ccas(attack_trace(), SIM, SCORE)
        backend = create_backend(backend_name, workers=2)
        try:
            other = compare_ccas(
                attack_trace(), SIM, SCORE,
                evaluator=Evaluator(backend=backend),
            )
        finally:
            backend.close()
        assert [(r.cca, r.score, r.vulnerability) for r in other.rows] == [
            (r.cca, r.score, r.vulnerability) for r in serial.rows
        ]
        assert other.classification == serial.classification


class TestTriagePipeline:
    def tiny_config(self, **overrides) -> TriageConfig:
        params = dict(
            minimize=MinimizeConfig(max_evaluations=60),
            robustness=TINY_ROBUSTNESS,
        )
        params.update(overrides)
        return TriageConfig(**params)

    def test_full_pipeline_report(self):
        report = triage_trace(attack_trace(), cca="reno", config=self.tiny_config())
        assert report.minimization is not None
        assert report.robustness is not None
        assert report.differential is not None
        assert report.simulations > 0
        assert report.triaged_trace.fingerprint() == report.minimization.minimized.fingerprint()
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["fingerprint"] == attack_trace().fingerprint()
        assert payload["triaged_trace"]["type"] == "TrafficTrace"

    def test_engines_can_be_toggled_off(self):
        report = triage_trace(
            attack_trace(),
            cca="reno",
            config=self.tiny_config(
                run_minimize=False, run_robustness=False, run_differential=False
            ),
        )
        assert report.minimization is None
        assert report.robustness is None
        assert report.differential is None
        assert report.triaged_trace.fingerprint() == attack_trace().fingerprint()

    def test_baseline_is_simulated_exactly_once(self):
        report = triage_trace(
            attack_trace(),
            cca="reno",
            config=self.tiny_config(
                run_minimize=False, run_robustness=False, run_differential=False
            ),
        )
        assert report.simulations == 1

    def test_engines_share_the_default_cache(self):
        # The minimizer's baseline and the robustness matrix's unperturbed
        # cell revisit already-scored traces; those must be cache hits.
        report = triage_trace(attack_trace(), cca="reno", config=self.tiny_config())
        assert report.cache_hits > 0

    def test_shared_cache_reuses_evaluations(self):
        cache = TraceCache()
        config = self.tiny_config()
        first = triage_trace(attack_trace(), cca="reno", cache=cache, config=config)
        second = triage_trace(attack_trace(), cca="reno", cache=cache, config=config)
        assert second.simulations == 0
        assert second.baseline_score == first.baseline_score


class TestCorpusTriage:
    @pytest.fixture()
    def corpus(self, tmp_path):
        store = CorpusStore(str(tmp_path / "corpus"))
        store.add(
            attack_trace(),
            scenario_id="reno/traffic/throughput/base",
            cca="reno",
            objective="throughput",
            score=-1.0,
            condition={"queue_capacity": 60},
        )
        return store

    def tiny_config(self):
        return TriageConfig(
            minimize=MinimizeConfig(max_evaluations=60),
            robustness=TINY_ROBUSTNESS,
            run_differential=False,
        )

    def test_stores_provenance_linked_minimized_variant(self, corpus):
        result = triage_corpus(corpus, config=self.tiny_config())
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.stored
        minimized = corpus.get(row.minimized_fingerprint)
        assert minimized.origin == "triage"
        assert minimized.derived_from == row.fingerprint
        assert minimized.trace.packet_count < corpus.get(row.fingerprint).trace.packet_count
        assert minimized.triage["robustness_score"] == pytest.approx(
            row.report.robustness.robustness_score, abs=1e-4
        )
        # The original is annotated with the verdict and the link forward.
        original = corpus.get(row.fingerprint)
        assert original.triage["minimized_fingerprint"] == row.minimized_fingerprint

    def test_round_trips_through_reload(self, corpus, tmp_path):
        triage_corpus(corpus, config=self.tiny_config())
        reloaded = CorpusStore(corpus.path)
        triaged = [e for e in reloaded.entries() if e.origin == "triage"]
        assert len(triaged) == 1
        assert triaged[0].derived_from in reloaded.fingerprints()
        assert reloaded.get(triaged[0].derived_from).triage

    def test_second_run_is_idempotent(self, corpus):
        first = triage_corpus(corpus, config=self.tiny_config())
        assert first.stored == 1
        second = triage_corpus(corpus, config=self.tiny_config())
        assert second.rows == []
        assert second.skipped == len(corpus)
        assert second.simulations == 0
        # Skipping must be decidable from the index alone (the triaged flag),
        # never by loading entry files.
        rows = corpus.index_rows()
        assert all(row["origin"] == "triage" or row["triaged"] for row in rows.values())

    def test_force_retriages_annotated_entries(self, corpus):
        quick = TriageConfig(
            minimize=MinimizeConfig(max_evaluations=40),
            run_robustness=False,
            run_differential=False,
        )
        triage_corpus(corpus, config=quick)
        assert "robustness_score" not in corpus.get(corpus.fingerprints()[0]).triage
        # A later full pass must be able to fill in the skipped verdicts.
        assert triage_corpus(corpus, config=self.tiny_config()).rows == []
        forced = triage_corpus(corpus, config=self.tiny_config(), force=True)
        assert len(forced.rows) >= 1
        annotated = [e for e in corpus.entries() if e.origin != "triage"]
        assert all("robustness_score" in e.triage for e in annotated)

    def test_limit(self, corpus):
        corpus.add(
            traffic_trace(burst(0.2, 40, 0.05)),
            scenario_id="reno/traffic/throughput/base",
            cca="reno",
            objective="throughput",
            score=-2.0,
        )
        result = triage_corpus(corpus, config=self.tiny_config(), limit=1)
        assert len(result.rows) == 1
        # The limited-out entry is reported as remaining, not as triaged.
        assert result.skipped == 0
        assert result.remaining == 1

    def test_rankings_count_the_stored_verdicts(self, corpus):
        from collections import Counter

        from repro.serve import DashboardQuery

        corpus.add(
            traffic_trace(burst(0.2, 40, 0.05)),
            scenario_id="reno/traffic/throughput/base",
            cca="reno",
            objective="throughput",
            score=-2.0,
        )
        triage_corpus(corpus, config=TriageConfig(
            differential=DifferentialConfig(ccas=["bbr", "cubic", "reno"]),
            run_minimize=False,
            run_robustness=False,
        ))
        verdicts = [corpus.get(fingerprint).triage for fingerprint in corpus.fingerprints()]
        assert len(verdicts) == 2 and all("classification" in v for v in verdicts)
        query = DashboardQuery(corpus.path)
        try:
            rankings = query.rankings()
        finally:
            query.close()
        rows = rankings["rows"]
        # One triage column per CCA: the verdict stores no list of vulnerable CCAs.
        for row in rows:
            assert [key for key in row if key.startswith("triage_")] == ["triage_most_vulnerable"]
        counted = {row["cca"]: row["triage_most_vulnerable"] for row in rows}
        most = Counter(v["most_vulnerable"] for v in verdicts)
        assert {cca: n for cca, n in counted.items() if n} == dict(most)
        assert rankings["triage_classes"] == dict(Counter(v["classification"] for v in verdicts))

    def test_result_to_dict_serialisable(self, corpus):
        result = triage_corpus(corpus, config=self.tiny_config())
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["triaged"] == 1
        assert payload["stored"] == 1


class TestTriageCli:
    def test_repro_triage_on_trace_file(self, tmp_path, capsys):
        from repro.cli import triage_main

        trace_path = tmp_path / "attack.json"
        trace_path.write_text(attack_trace().to_json())
        out_report = tmp_path / "report.json"
        out_trace = tmp_path / "minimized.json"
        exit_code = triage_main(
            [
                "--trace", str(trace_path),
                "--cca", "reno",
                "--max-evaluations", "60",
                "--skip-robustness",
                "--skip-differential",
                "--output", str(out_report),
                "--output-trace", str(out_trace),
            ]
        )
        assert exit_code == 0
        stdout = capsys.readouterr().out
        assert "minimization:" in stdout
        payload = json.loads(out_report.read_text())
        assert payload["minimization"]["events_after"] <= payload["minimization"]["events_before"]
        minimized = TrafficTrace.from_json(out_trace.read_text())
        assert minimized.packet_count == payload["minimization"]["events_after"]

    def test_repro_triage_minimizes_the_builtin_cubic_attack(self, tmp_path, capsys):
        # The acceptance bar for the triage pipeline (CI's triage smoke):
        # fewer events, at least 90% of the attack score retained.
        from repro.cli import triage_main

        out_report = tmp_path / "report.json"
        assert triage_main(
            [
                "--attack", "cubic-two-burst", "--cca", "cubic", "--duration", "5.0",
                "--max-evaluations", "150", "--skip-robustness", "--skip-differential",
                "--output", str(out_report),
            ]
        ) == 0
        capsys.readouterr()
        minimization = json.loads(out_report.read_text())["minimization"]
        assert minimization["events_after"] < minimization["events_before"], minimization
        assert minimization["achieved_retention"] >= 0.9, minimization

    def test_link_minimization_converges_before_its_budget(self, tmp_path, capsys):
        # CI's link-mode triage smoke: segment merging runs out of merges
        # that change the rate structure long before 150 evaluations.
        from repro.cli import triage_main

        out_report = tmp_path / "report.json"
        assert triage_main(
            [
                "--attack", "bbr-stall-link", "--cca", "bbr", "--duration", "2.0",
                "--max-evaluations", "150", "--skip-robustness", "--skip-differential",
                "--output", str(out_report),
            ]
        ) == 0
        capsys.readouterr()
        minimization = json.loads(out_report.read_text())["minimization"]
        assert minimization["evaluations"] < 150, minimization
        assert minimization["stages"][0]["rounds"] < MAX_ROUNDS, minimization
        assert minimization["events_after"] == minimization["events_before"]
        assert minimization["achieved_retention"] >= 0.9, minimization

    def test_campaign_triage_subcommand(self, tmp_path, capsys):
        from repro.cli import campaign_main

        corpus = CorpusStore(str(tmp_path / "corpus"))
        corpus.add(
            attack_trace(),
            scenario_id="reno/traffic/throughput/base",
            cca="reno",
            objective="throughput",
            score=-1.0,
        )
        corpus.fold()
        exit_code = campaign_main(
            [
                "triage",
                "--corpus", str(tmp_path / "corpus"),
                "--max-evaluations", "60",
                "--skip-robustness",
                "--skip-differential",
            ]
        )
        assert exit_code == 0
        assert "stored" in capsys.readouterr().out
        reloaded = CorpusStore(str(tmp_path / "corpus"))
        assert any(e.origin == "triage" for e in reloaded.entries())

    def test_campaign_triage_requires_existing_corpus(self, tmp_path):
        from repro.cli import campaign_main

        with pytest.raises(SystemExit):
            campaign_main(["triage", "--corpus", str(tmp_path / "nope")])

    def test_repro_triage_on_corpus_entry(self, tmp_path, capsys):
        from repro.cli import triage_main

        corpus = CorpusStore(str(tmp_path / "corpus"))
        trace = attack_trace()
        corpus.add(
            trace,
            scenario_id="cubic/traffic/throughput/base",
            cca="cubic",
            objective="throughput",
            score=-1.0,
            condition={"queue_capacity": 20},
        )
        corpus.fold()
        exit_code = triage_main(
            [
                "--corpus", str(tmp_path / "corpus"),
                "--fingerprint", trace.fingerprint()[:10],
                "--max-evaluations", "40",
                "--skip-robustness",
                "--skip-differential",
            ]
        )
        assert exit_code == 0
        # The entry's own discovery CCA is the default triage context.
        assert "cca=cubic" in capsys.readouterr().out

    def test_repro_triage_rejects_ambiguous_fingerprint(self, tmp_path):
        from repro.cli import triage_main

        corpus = CorpusStore(str(tmp_path / "corpus"))
        corpus.add(attack_trace(), scenario_id="a", score=-1.0)
        with pytest.raises(SystemExit):
            triage_main(["--corpus", str(tmp_path / "corpus"), "--fingerprint", "zzz"])

    def test_repro_triage_rejects_typeless_trace(self, tmp_path):
        from repro.cli import triage_main
        from repro.traces import PacketTrace

        trace_path = tmp_path / "plain.json"
        trace_path.write_text(PacketTrace(timestamps=[0.1], duration=1.0).to_json())
        with pytest.raises(SystemExit):
            triage_main(["--trace", str(trace_path)])

    def test_output_trace_requires_the_minimizer(self, tmp_path):
        from repro.cli import triage_main

        trace_path = tmp_path / "attack.json"
        trace_path.write_text(attack_trace().to_json())
        with pytest.raises(SystemExit):
            triage_main(
                [
                    "--trace", str(trace_path),
                    "--skip-minimize",
                    "--output-trace", str(tmp_path / "out.json"),
                ]
            )
