"""Tests of the benchmark itself: inputs, output checks and the tracer.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

import darkgallery.cli as cli  # noqa: E402
from darkgallery.construct import plan  # noqa: E402
from perfbench import checks, harness  # noqa: E402
from perfbench.scenes import WORKLOADS, scenes_for  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402


def _inputs(scenes):
    return [(s.label, s.argv, sorted(s.files.items())) for s in scenes]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = _inputs(scenes_for(workload, 7))
    assert first == _inputs(scenes_for(workload, 7))
    assert first != _inputs(scenes_for(workload, 8))


def test_inputs_are_made_without_the_program():
    code = ("import sys; sys.path.insert(0, %r)\n"
            "from perfbench.scenes import WORKLOADS, scenes_for\n"
            "for w in WORKLOADS: scenes_for(w, 3)\n"
            "assert not [m for m in sys.modules if m.startswith('darkgallery')]\n" % ROOT)
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)


def _one_op(tmp_path, workload, label_prefix, seed=harness.DEFAULT_SEED):
    scenes = scenes_for(workload, seed)
    index = next(i for i, s in enumerate(scenes) if s.label.startswith(label_prefix))
    prepared = harness.prepare(scenes, str(tmp_path / "work"))
    return prepared, index, harness.run_op(cli, prepared[index], index)


def _flip(text: str, pos: int) -> str:
    c = text[pos]
    swap = {"0": "1", "1": "2", "2": "3", "3": "4", "4": "5", "5": "6", "6": "7",
            "7": "8", "8": "9", "9": "0", "t": "f", "f": "t"}
    return text[:pos] + swap.get(c, chr(ord(c) ^ 1)) + text[pos + 1:]


def test_a_flipped_output_byte_fails_the_op(tmp_path):
    prepared, index, rec = _one_op(tmp_path, "convex-construct", "wedge-")
    recorded = harness.load_digests("convex-construct")
    assert recorded is not None
    ok, problems = harness.judge(prepared, [rec], recorded)
    assert ok == [True], problems
    for pos in range(0, len(rec.text), max(1, len(rec.text) // 40)):
        bad = harness.OpRecord(index, rec.seconds, rec.rc, _flip(rec.text, pos), None,
                                rec.host_s)
        # against the recorded digest
        assert harness.judge(prepared, [bad], recorded)[0] == [False], pos
        # against the first pass of the same run, on any seed
        assert harness.judge(prepared, [rec, bad], None)[0] == [True, False], pos


def test_invariants_catch_a_wrong_certificate(tmp_path):
    prepared, index, rec = _one_op(tmp_path, "convex-verify", "fixture-square", seed=3)
    scene = prepared[index].scene
    assert checks.check_output(scene, rec.rc, rec.text) == []
    wrong_depth = rec.text.replace('"min_depth": 13', '"min_depth": 12')
    assert wrong_depth != rec.text
    assert checks.check_output(scene, rec.rc, wrong_depth)
    assert checks.check_output(scene, 2, rec.text)  # exit code 2 without a witness


@pytest.mark.parametrize("n", range(3, 13))
def test_guard_count_table_matches_plan(n):
    for k in range(1, 4 * n + 3):
        assert checks.convex_guard_count(n, k) == plan(n, k).g


def _bindings():
    out = {}
    for name, mod in sys.modules.items():
        if name == "darkgallery" or name.startswith("darkgallery."):
            for attr, value in vars(mod).items():
                if callable(value):
                    out[(name, attr)] = value
    from darkgallery.geometry import SimplePolygon
    from darkgallery.documents import CertificateDocument, PlacementDocument

    for cls in (SimplePolygon, CertificateDocument, PlacementDocument):
        for attr, value in vars(cls).items():
            out[(cls.__qualname__, attr)] = value
    return out


def test_tracer_restores_bindings_and_skips_missing_names():
    import darkgallery.construct  # noqa: F401
    import darkgallery.darkness as darkness

    construct_module = sys.modules["darkgallery.construct"]
    before = _bindings()
    original = darkness.max_darkness
    spans = (("darkness", "max_darkness"), ("geometry", "no_such_function"),
             ("documents", "NoSuchClass.to_dict"), ("no_such_module", "main"))
    counts = (("geometry", "SimplePolygon.where"), ("geometry", "also_missing"))
    with pytest.raises(RuntimeError):
        with Tracer(spans, counts) as tracer:
            assert darkness.max_darkness is not original
            assert construct_module.max_darkness is darkness.max_darkness
            raise RuntimeError("leave the block by an exception")
    assert sorted(tracer.skipped) == sorted([
        "geometry.no_such_function", "documents.NoSuchClass.to_dict",
        "no_such_module.main", "geometry.also_missing"])
    assert _bindings() == before


def test_one_extra_construct_op_traces_its_certifications(tmp_path):
    scenes = scenes_for("convex-construct", harness.DEFAULT_SEED)
    index = next(i for i, s in enumerate(scenes) if s.label.startswith("one-extra-"))
    prepared = harness.prepare(scenes, str(tmp_path / "work"))
    n = prepared[index].scene.facts["n"]
    plain = harness.run_op(cli, prepared[index], index)
    with Tracer() as tracer:
        traced = harness.run_op(cli, prepared[index], index)
    assert traced.error is None and traced.text == plain.text
    attempts = tracer.under_count("darkness.max_darkness", "construct.place_4n_minus_2")
    assert tracer.calls("construct.place_4n_minus_2") == 1
    assert tracer.calls("geometry.halfplane_intersection") >= n
    assert attempts >= 1
    # scaffold attempts, then construct's own check, then min_depth's
    assert tracer.calls("darkness.max_darkness") == attempts + 2
    assert tracer.calls("darkness.has_j_dark") == 1
    assert tracer.calls("cli.main") == 1
    names = {span[1] for span in tracer.spans}
    assert "construct.construct" in names and "documents.CertificateDocument.to_dict" in names


def test_trace_overhead_pairs_leave_no_tracer_installed(tmp_path):
    import darkgallery.darkness as darkness

    scenes = scenes_for("convex-construct", harness.DEFAULT_SEED)[:2]
    original = darkness.max_darkness
    overhead = harness.trace_overhead(cli, harness.prepare(scenes, str(tmp_path / "work")))
    assert overhead > -1.0
    assert darkness.max_darkness is original


def test_host_scale_multiplies_times_and_takes_the_loops_out():
    records = [harness.OpRecord(i, 0.1 * (i + 1), 0, "", None, 0.001) for i in range(10)]
    ok = [True] * 9 + [False]
    raw = harness.end_to_end(records, ok, 5.51, 0.2)
    scaled = harness.end_to_end(records, ok, 5.51, 0.2, scale=2.0)
    assert raw["ops_per_s"][0] == pytest.approx(9 / 5.5)
    assert scaled["ops_per_s"][0] == pytest.approx(9 / 11.0)
    assert scaled["op_p50_s"][0] == pytest.approx(2 * raw["op_p50_s"][0])
    assert scaled["op_p90_s"][0] == pytest.approx(2 * raw["op_p90_s"][0])
    assert harness.host_scale(records) == pytest.approx(harness.HOST_REF_S / 0.001)


def test_overlap_of_open_and_closed_intervals():
    from fractions import Fraction as F

    assert harness._overlap(None, F(1), F(0), F(2))
    assert not harness._overlap(None, F(0), F(0), F(2))   # open end at the boundary
    assert harness._overlap(F(2), None, F(0), None)
    assert not harness._overlap(F(2), None, F(0), F(2))
    assert harness._overlap(F(0), F(1), F(1), F(3)) is False
