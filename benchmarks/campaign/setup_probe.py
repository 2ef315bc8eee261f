"""What ``setup_s`` launches: import the CLI, construct a campaign, run nothing.

usage: setup_probe.py <spec-json> <corpus-dir>
"""

from __future__ import annotations

import json
import sys

from bench_workloads import require_source_tree


def main() -> int:
    require_source_tree()
    import repro.cli  # noqa: F401 - the import is the work being timed
    from repro.campaign import CampaignRunner, CampaignSpec, CorpusStore

    spec = CampaignSpec.from_dict(json.loads(sys.argv[1]))
    CampaignRunner(spec, CorpusStore(sys.argv[2]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
