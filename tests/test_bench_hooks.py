"""The benchmark's hooks still find, wrap and restore every package name they trace.

`bench/workloads.py` times the package by swapping (owner, attribute) pairs
for wrappers.  A refactor that renames or deletes one of them breaks
`bench/run.py --trace 1`; this test makes that a tier-1 failure instead.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracer  # noqa: E402
import workloads  # noqa: E402

from saps.cli import ExperimentConfig, run_experiment  # noqa: E402


def _current(owner, attr):
    # the same lookup as `tracer.Patches.wrap`
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class RecordingPatches(tracer.Patches):
    def __init__(self):
        super().__init__()
        self.originals = {}  # (owner, attr) -> what it was before the first wrap

    def wrap(self, owner, attr, make):
        self.originals.setdefault((owner, attr), _current(owner, attr))
        super().wrap(owner, attr, make)


def test_every_hook_resolves_runs_and_is_restored():
    rec, tr = workloads.Recorder(), tracer.Tracer()
    with RecordingPatches() as patches:
        workloads.harness_hooks(patches, rec)
        workloads.trace_hooks(patches, tr)
        for (owner, attr), original in patches.originals.items():
            assert _current(owner, attr) is not original, f"{owner!r}.{attr} not wrapped"
        rounds = 3
        run_experiment(ExperimentConfig(n=4, T=rounds, c=2, gamma=0.1, N=8, master_seed=1))
    assert len(patches.originals) >= 30
    for (owner, attr), original in patches.originals.items():
        assert _current(owner, attr) is original, f"{owner!r}.{attr} not restored"

    # the selector reaches its traced steps through the names the hooks patch
    layers = tracer.Layers(tr)
    assert len(rec.rounds) == rounds
    assert layers.count("matching.next_round") == rounds
    for step in ("matching.if_connected", "matching.max_match", "core.gossip_from_matching"):
        assert layers.count(step, "matching.next_round") >= rounds, step

