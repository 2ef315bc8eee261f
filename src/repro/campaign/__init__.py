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

Each name loads its submodule on first read, as in :mod:`repro`: building a
runner loads neither the fleet, the replay nor the report module.
"""

from .. import _lazy_exports

#: Each public name and the submodule that defines it.
_EXPORTS = {
    "CorpusEntry": "corpus",
    "CorpusReader": "corpus",
    "CorpusStore": "corpus",
    "ReplayReport": "replay",
    "ReplayRow": "replay",
    "replay_corpus": "replay",
    "format_campaign_report": "report",
    "format_corpus_report": "report",
    "format_last_campaign": "report",
    "format_replay_report": "report",
    "CampaignResult": "scheduler",
    "CampaignRunner": "scheduler",
    "ScenarioOutcome": "scheduler",
    "CampaignSpec": "spec",
    "GaBudget": "spec",
    "NetworkCondition": "spec",
    "Scenario": "spec",
    "FleetWorker": "worker",
    "run_fleet": "worker",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
