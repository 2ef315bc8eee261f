"""Read-only HTTP dashboard and query/replay API over a campaign corpus.

The ROADMAP's "live campaign dashboard" item: mount a corpus directory and
expose everything a campaign writes — telemetry stream, journal, corpus
index, behavior map, run manifest — as JSON endpoints plus a single-file
HTML dashboard, with a memoized replay endpoint that re-simulates stored
attacks on demand.

The subsystem's one hard rule is that it is **strictly observational**:
attaching a dashboard to a running campaign must leave
digests, corpus fingerprints and behavior maps bit-identical to an
unattached run.  Concretely, nothing in this package ever constructs the
writer-side objects (``CorpusStore`` sweeps temp files, ``CampaignJournal``
repairs torn tails — both would perturb a live directory).  Every file has
one parser, and this package calls it under the observer's policy — open
read-only, unusable reads as empty (:mod:`repro.storage` states the rules,
:mod:`repro.campaign.corpus` lists the files and their readers) —
so every endpoint degrades to well-formed JSON against torn, mid-compaction
or half-written state instead of erroring.  Queries re-read per request, and
replay memoizes entry files as they are first asked for: a dashboard must see
what a live campaign adds after the server started.
"""

from .query import DashboardQuery
from .replay import ReplayService
from .server import DEFAULT_HOST, DashboardServer

__all__ = ["DashboardQuery", "ReplayService", "DashboardServer", "DEFAULT_HOST"]
