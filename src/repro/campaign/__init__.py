"""Campaign orchestration: scenario-matrix fuzzing with a persistent corpus.

A *campaign* turns the one-off fuzzing runs of the paper into a systematic
benchmark sweep:

* :mod:`spec` — declarative campaign specs (CCAs × modes × objectives ×
  network conditions) expanded into a deterministic scenario matrix;
* :mod:`corpus` — the persistent on-disk attack corpus: fingerprint-deduped
  winning traces with full provenance;
* :mod:`scheduler` — the one scenario body, the campaign lifecycle around
  it, and the campaign-wide scope: every scenario through one shared
  evaluation backend, trace cache and archive, seeded from the live corpus
  (cache keys carry each scenario's identities, so hits stay within one);
* :mod:`worker` — the same body under a per-scenario scope: a fleet of
  worker processes claiming scenario leases over the shared journal;
* :mod:`replay` — regression mode: re-simulate the whole corpus against a
  CCA and report score deltas;
* :mod:`report` — plain-text campaign, corpus and replay summaries.
"""

from .corpus import CorpusEntry, CorpusReader, CorpusStore
from .replay import ReplayReport, ReplayRow, replay_corpus
from .report import (
    format_campaign_report,
    format_corpus_report,
    format_last_campaign,
    format_replay_report,
)
from .scheduler import CampaignResult, CampaignRunner, ScenarioOutcome
from .spec import CampaignSpec, GaBudget, NetworkCondition, Scenario
from .worker import FleetWorker, run_fleet

__all__ = [
    "CampaignResult",
    "CampaignRunner",
    "FleetWorker",
    "run_fleet",
    "CampaignSpec",
    "CorpusEntry",
    "CorpusReader",
    "CorpusStore",
    "GaBudget",
    "NetworkCondition",
    "ReplayReport",
    "ReplayRow",
    "Scenario",
    "ScenarioOutcome",
    "format_campaign_report",
    "format_corpus_report",
    "format_last_campaign",
    "format_replay_report",
    "replay_corpus",
]
