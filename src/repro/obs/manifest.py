"""Run manifests: the queryable record of what a campaign run *was*.

``run_manifest.json`` is written into the corpus directory when a campaign
finishes.  The journal records what the campaign *found*; the manifest pins
what produced it — config fingerprints, per-scenario simulation
fingerprints, package/python versions, host facts — plus the result digest,
so a dashboard (or a human six months later) can answer "which code, which
config, which machine" without parsing logs.  The phase table and the final
metrics snapshot are ``metrics.jsonl``'s ``campaign_complete`` and last
``metrics`` records, and are not copied here.  Like every telemetry
artifact it is write-only from the campaign's point of view and carries
wall-clock data, so nothing in it may ever feed a digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..storage import publish_json, read_json_object

MANIFEST_FILENAME = "run_manifest.json"
MANIFEST_SCHEMA = 2


def spec_fingerprint(spec_dict: Dict[str, Any]) -> str:
    """Stable digest of a campaign spec's canonical JSON."""
    canonical = json.dumps(spec_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


def build_manifest(
    spec,
    *,
    result,
    started_at: Optional[float],
    resumed: bool,
) -> Dict[str, Any]:
    """Assemble the manifest payload for a finished campaign.

    ``spec`` is a :class:`~repro.campaign.spec.CampaignSpec`; ``result`` (a
    :class:`~repro.campaign.scheduler.CampaignResult`, when the run got that
    far) contributes totals and the deterministic digest.
    """
    from .. import __version__

    spec_dict = spec.to_dict()
    payload: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "campaign": spec.name,
        "resumed": resumed,
        "spec": spec_dict,
        "spec_fingerprint": spec_fingerprint(spec_dict),
        "scenarios": [
            dict(
                scenario.describe(),
                sim_fingerprint=scenario.sim_config().fingerprint(),
            )
            for scenario in spec.expand()
        ],
        "versions": {"repro": __version__, "python": sys.version.split()[0]},
        "host": {
            "hostname": platform.node(),
            # Not ``platform.platform()``: it asks ``uname -p`` in a child
            # process, which every campaign would pay for.
            "platform": "-".join((platform.system(), platform.release(), platform.machine())),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "pid": os.getpid(),
        },
        "started_at": started_at,
        "finished_at": time.time(),
    }
    if result is not None:
        payload["result"] = {
            "deterministic_digest": result.deterministic_digest(),
            "wall_time_s": result.wall_time_s,
            "total_evaluations": sum(o.evaluations for o in result.outcomes),
            "total_cache_hits": sum(o.cache_hits for o in result.outcomes),
            "scenarios_completed": len(result.outcomes),
            "attacks_registered": result.attacks_registered,
            "coverage": dict(result.coverage),
        }
    return payload


def write_manifest(payload: Dict[str, Any], corpus_dir: Union[str, Path]) -> Path:
    """Publish ``<corpus_dir>/run_manifest.json``."""
    target = Path(corpus_dir) / MANIFEST_FILENAME
    publish_json(target, payload)
    return target


def read_manifest(corpus_dir: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """The run manifest, or ``None`` when there is none or it is torn."""
    return read_json_object(Path(corpus_dir) / MANIFEST_FILENAME)
