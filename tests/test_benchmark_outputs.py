"""The benchmark's one-extra ``construct`` ops, its exact verify ops
and its sampled verify ops, byte for byte.

Runs the seed-1 ``convex-construct`` scenes of the one-extra regime
(n < k < 4n-2), and every seed-1 ``convex-verify`` and ``simple-sample``
scene, through ``perfbench.harness.run_op`` and judges their outputs
with ``harness.judge`` against the digests recorded in
``perfbench/digests.json``.  A change that moves a guard or a witness of
a one-extra placement, any figure of a verify certificate, or a witness
of a sampled one, then fails here, and not only in the benchmark.  The
tests read ``perfbench/`` and change nothing there.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

import darkgallery.cli as cli  # noqa: E402
from perfbench import harness  # noqa: E402
from perfbench.scenes import scenes_for  # noqa: E402


def test_one_extra_construct_ops_match_the_recorded_digests(tmp_path):
    scenes = scenes_for("convex-construct", harness.DEFAULT_SEED)
    recorded = harness.load_digests("convex-construct")
    assert recorded is not None and len(recorded) == len(scenes)
    prepared = harness.prepare(scenes, str(tmp_path / "work"))
    picked = [i for i, s in enumerate(scenes) if s.label.startswith("one-extra-")]
    assert len(picked) == 79
    records = [harness.run_op(cli, prepared[i], i) for i in picked]
    ok, problems = harness.judge(prepared, records, recorded)
    assert all(ok), problems


def test_convex_verify_ops_match_the_recorded_digests(tmp_path):
    scenes = scenes_for("convex-verify", harness.DEFAULT_SEED)
    recorded = harness.load_digests("convex-verify")
    assert recorded is not None and len(recorded) == len(scenes) == 105
    prepared = harness.prepare(scenes, str(tmp_path / "work"))
    records = [harness.run_op(cli, prep, i) for i, prep in enumerate(prepared)]
    ok, problems = harness.judge(prepared, records, recorded)
    assert all(ok), problems


def test_simple_sample_ops_match_the_recorded_digests(tmp_path):
    scenes = scenes_for("simple-sample", harness.DEFAULT_SEED)
    recorded = harness.load_digests("simple-sample")
    assert recorded is not None and len(recorded) == len(scenes) == 100
    prepared = harness.prepare(scenes, str(tmp_path / "work"))
    records = [harness.run_op(cli, prep, i) for i, prep in enumerate(prepared)]
    ok, problems = harness.judge(prepared, records, recorded)
    assert all(ok), problems
