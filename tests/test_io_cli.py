"""The JSON document layer and the command line, end to end.

CLI tests run `python -m darkgallery` in a subprocess, with the package
these tests import first on its path, so they exercise
argument parsing, exit codes, stdout/stderr framing, and file output
exactly as a user would see them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import darkgallery
from darkgallery.documents import (
    CertificateDocument,
    DocumentError,
    PlacementDocument,
    point_from_json,
    point_to_json,
    rat_from_json,
    rat_to_json,
    region_from_dict,
    region_to_dict,
    sampler_from_json,
    sampler_to_json,
)
from darkgallery.fixtures import builtin_fixture
from darkgallery.geometry import ConvexPolygon, Point2, SimplePolygon, Wedge

COMB_REGION = {
    "kind": "simple",
    "vertices": [[0, 0], [6, 0], [6, 2], [5, 10], [4, 2], [3, 10],
                 [2, 2], [1, 10], [0, 2]],
}


SRC = os.path.dirname(os.path.dirname(darkgallery.__file__))
CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def run_cli(*argv, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "darkgallery", *argv],
        capture_output=True, text=True, env=CLI_ENV,
    )
    assert proc.returncode == expect, (
        "exit %d != %d\nargv: %r\nstdout: %s\nstderr: %s"
        % (proc.returncode, expect, argv, proc.stdout[:1500], proc.stderr[:1500]))
    return proc


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Constructed placements for the three builtin shapes, built once."""
    root = tmp_path_factory.mktemp("cli")
    outputs = {}
    for shape, k in (("triangle", 9), ("square", 13), ("wedge", 3)):
        out = str(root / ("%s.json" % shape))
        proc = run_cli("construct", "--shape", shape, "--k", str(k),
                       "--out", out, "--format", "json")
        outputs[shape] = (out, proc.stdout)
    return root, outputs


# --- scalar and region codecs ------------------------------------------------

def test_rational_json_forms():
    assert rat_to_json(Fraction(4, 2)) == 2
    assert rat_to_json(Fraction(3, 2)) == "3/2"
    assert rat_to_json(-7) == -7
    assert rat_from_json("3/2") == Fraction(3, 2)
    assert rat_from_json("-3/2") == Fraction(-3, 2)
    assert rat_from_json(5) == 5
    for bad in (True, "3/0x", "1.5", [1, 2], None):
        with pytest.raises(DocumentError):
            rat_from_json(bad)


def test_point_codec():
    p = Point2(Fraction(1, 3), -4)
    assert point_to_json(p) == ["1/3", -4]
    assert point_from_json(["1/3", -4]) == p
    with pytest.raises(DocumentError):
        point_from_json([1, 2, 3])


def test_region_codecs_round_trip():
    regions = [
        ConvexPolygon([Point2(0, 0), Point2(4, 0), Point2(2, 4)]),
        SimplePolygon([Point2(0, 0), Point2(4, 0), Point2(4, 2), Point2(2, 2),
                       Point2(2, 4), Point2(0, 4)]),
        Wedge(Point2(1, 2), Point2(3, 1), Point2(-1, 2)),
    ]
    for region in regions:
        d = region_to_dict(region)
        back = region_from_dict(d)
        assert type(back) is type(region)
        assert region_to_dict(back) == d
    with pytest.raises(DocumentError):
        region_from_dict({"kind": "pentagram"})
    with pytest.raises(DocumentError):
        region_from_dict({"kind": "wedge", "apex": [0, 0]})


def test_sampler_codec_round_trips():
    specs = [
        None,
        ("grid", 16),
        ("random", 7, 50),
        ("points", (Point2(1, 2), Point2(Fraction(1, 2), 3))),
    ]
    for spec in specs:
        assert sampler_from_json(sampler_to_json(spec)) == spec
    assert sampler_to_json(("grid", 16)) == {"kind": "grid", "resolution": 16}
    with pytest.raises(DocumentError):
        sampler_from_json({"kind": "everywhere"})
    with pytest.raises(DocumentError):
        sampler_to_json(("everywhere",))


def _certificate_dict():
    cert = CertificateDocument("sampled", 12, 9, 3, Point2(1, 2), sampler=("grid", 4))
    return cert.to_dict()


@pytest.mark.parametrize("path, bad", [
    pytest.param(("j_dark", 0, "found"), "no", id="found-no"),
    pytest.param(("j_dark", 0, "found"), 1, id="found-1"),
    pytest.param(("j_dark", 0, "j"), 2.0, id="j-2.0"),
    pytest.param(("min_depth",), 9.7, id="min_depth-9.7"),
    pytest.param(("guard_count",), "12", id="guard_count-str"),
    pytest.param(("guard_count",), True, id="guard_count-true"),
    pytest.param(("max_darkness",), None, id="max_darkness-null"),
    pytest.param(("sampler", "resolution"), 2.5, id="resolution-2.5"),
    pytest.param(("sampler", "resolution"), "x", id="resolution-x"),
])
def test_certificate_parsing_is_strict(path, bad):
    good = _certificate_dict()
    good["j_dark"] = [{"j": 2, "found": False, "witness": None}]
    assert CertificateDocument.from_dict(good).to_dict() == good
    node = good
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = bad
    with pytest.raises(DocumentError, match=path[-1]):
        CertificateDocument.from_dict(good)


@pytest.mark.parametrize("bad", [True, 1.5, "7"], ids=["true", "1.5", "str"])
def test_placement_and_random_sampler_seeds_are_integers(bad):
    region, guards = builtin_fixture("triangle")
    d = PlacementDocument(region, guards, seed=7).to_dict()
    assert PlacementDocument.from_dict(d).seed == 7
    d["metadata"]["seed"] = bad
    with pytest.raises(DocumentError, match="seed"):
        PlacementDocument.from_dict(d)
    for field in ("seed", "count"):
        spec = {"kind": "random", "seed": 3, "count": 10}
        spec[field] = bad
        with pytest.raises(DocumentError, match=field):
            sampler_from_json(spec)


def test_placement_documents_are_immutable_and_comparable():
    region, guards = builtin_fixture("triangle")
    doc = PlacementDocument(region, guards, name="triangle")
    same = PlacementDocument.loads(doc.dumps())
    assert same == doc and hash(same) == hash(doc)
    with pytest.raises(AttributeError):
        doc.name = "other"
    with pytest.raises(DocumentError):
        PlacementDocument.loads("{}")
    with pytest.raises(DocumentError):
        PlacementDocument.loads("not json")


# --- construct ------------------------------------------------------------------

def test_construct_builtins(work):
    _, outputs = work
    for shape, expect_g, expect_depth in (
        ("triangle", 10, 9), ("square", 14, 13), ("wedge", 4, 3),
    ):
        out, stdout = outputs[shape]
        doc = json.loads(stdout)
        assert len(doc["placement"]["guards"]) == expect_g
        cert = doc["certificate"]
        assert cert["mode"] == "exact"
        assert cert["min_depth"] == expect_depth
        assert not any(r["found"] for r in cert["j_dark"])
        with open(out) as fh:
            assert fh.read() == stdout


def test_construct_is_reproducible(work):
    _, outputs = work
    proc = run_cli("construct", "--shape", "triangle", "--k", "9", "--format", "json")
    assert proc.stdout == outputs["triangle"][1]


def test_construct_files_keep_rationals_exact(work):
    _, outputs = work
    doc = PlacementDocument.loads(outputs["triangle"][1])
    assert any(isinstance(c, str) and "/" in c
               for g in json.loads(outputs["triangle"][1])["placement"]["guards"]
               for c in g)
    again = PlacementDocument.loads(doc.dumps())
    assert again == doc
    assert again.dumps() == doc.dumps()


def test_construct_on_a_simple_region_file(tmp_path):
    regfile = str(tmp_path / "comb.json")
    with open(regfile, "w") as fh:
        json.dump(COMB_REGION, fh)
    out = str(tmp_path / "comb-place.json")
    proc = run_cli("construct", "--shape", regfile, "--k", "2",
                   "--out", out, "--format", "json")
    doc = json.loads(proc.stdout)
    assert doc["certificate"]["mode"] == "sampled"
    assert doc["certificate"]["min_depth"] >= 2
    saved = PlacementDocument.load(out)
    assert PlacementDocument.loads(saved.dumps()) == saved


# --- verify -----------------------------------------------------------------------

def test_verify_fixtures_exactly():
    for name, expect_depth in (("triangle", 9), ("square", 13), ("wedge", 9)):
        proc = run_cli("verify", "--region", name, "--guards", name,
                       "--format", "json")
        cert = json.loads(proc.stdout)
        assert cert["mode"] == "exact"
        assert cert["min_depth"] == expect_depth
        assert cert["j_dark"] == [{"j": 2, "found": False, "witness": None}]
        parsed = CertificateDocument.loads(proc.stdout)
        assert parsed.dumps() == proc.stdout
        assert CertificateDocument.loads(parsed.dumps()) == parsed


def test_verify_flags_a_2_dark_perturbation(work, tmp_path):
    _, outputs = work
    placement = json.loads(outputs["square"][1])["placement"]
    guards = [list(g) for g in placement["guards"]]
    guards[0] = [-200, 150]  # onto the left edge guards' vertical line
    badfile = str(tmp_path / "square-bad.json")
    with open(badfile, "w") as fh:
        json.dump({"region": placement["region"], "guards": guards}, fh)
    proc = run_cli("verify", "--region", "square", "--guards", badfile,
                   "--format", "json", expect=2)
    cert = json.loads(proc.stdout)
    assert cert["j_dark"][0]["found"] is True
    assert cert["j_dark"][0]["witness"] is not None


def test_verify_depth_targets_drive_the_exit_code():
    run_cli("verify", "--region", "triangle", "--guards", "triangle",
            "--depth", "9", expect=0)
    run_cli("verify", "--region", "triangle", "--guards", "triangle",
            "--depth", "10", expect=2)


def test_exact_mode_is_refused_on_simple_polygons(tmp_path):
    regfile = str(tmp_path / "comb.json")
    with open(regfile, "w") as fh:
        json.dump(COMB_REGION, fh)
    proc = run_cli("verify", "--region", regfile, "--guards", "triangle",
                   "--mode", "exact", expect=1)
    err = json.loads(proc.stderr)
    assert "exact" in err["error"]


def test_sampled_verify_echoes_its_sampler(work, tmp_path):
    regfile = str(tmp_path / "comb.json")
    with open(regfile, "w") as fh:
        json.dump(COMB_REGION, fh)
    out = str(tmp_path / "place.json")
    run_cli("construct", "--shape", regfile, "--k", "2", "--out", out)
    proc = run_cli("verify", "--region", regfile, "--guards", out,
                   "--depth", "2", "--grid", "8", "--format", "json")
    cert = json.loads(proc.stdout)
    assert cert["mode"] == "sampled"
    assert cert["sampler"] == {"kind": "grid", "resolution": 8}
    assert cert["min_depth"] >= 2


@pytest.mark.parametrize("grid", ["0", "-2"])
def test_sampled_verify_rejects_a_grid_below_one(tmp_path, grid):
    # 0 is a resolution too, not "no grid"
    regfile = str(tmp_path / "comb.json")
    with open(regfile, "w") as fh:
        json.dump(COMB_REGION, fh)
    out = str(tmp_path / "place.json")
    run_cli("construct", "--shape", regfile, "--k", "2", "--out", out)
    proc = run_cli("verify", "--region", regfile, "--guards", out,
                   "--grid", grid, "--format", "json", expect=1)
    assert proc.stdout == ""
    assert json.loads(proc.stderr) == {"error": "grid resolution must be at least 1"}


@pytest.mark.parametrize("mode", [[], ["--mode", "exact"]], ids=["default", "exact"])
@pytest.mark.parametrize("grid", ["8", "-3"])
def test_exact_verify_refuses_a_grid(mode, grid):
    # exact mode has no samples: a grid there was once ignored, exit 0
    proc = run_cli("verify", "--region", "triangle", "--guards", "triangle", *mode,
                   "--grid", grid, "--format", "json", expect=1)
    assert proc.stdout == ""
    assert json.loads(proc.stderr) == {"error": "--grid needs --mode sample"}


def _verify_inputs(tmp_path, mode):
    """(region, guards) arguments: the builtin triangle, or a comb region
    file and three guards under its spikes for sample mode."""
    if mode == "exact":
        return "triangle", "triangle"
    regfile = str(tmp_path / "comb.json")
    guardfile = str(tmp_path / "guards.json")
    with open(regfile, "w") as fh:
        json.dump(COMB_REGION, fh)
    with open(guardfile, "w") as fh:
        json.dump([[1, 1], [3, 1], [5, 1]], fh)
    return regfile, guardfile


@pytest.mark.parametrize("j", ["0", "-3"])
@pytest.mark.parametrize("mode", ["exact", "sample"])
def test_verify_rejects_j_below_one(tmp_path, mode, j):
    # sampling once reported a "0-dark point FOUND": g - d >= j always holds
    regfile, guardfile = _verify_inputs(tmp_path, mode)
    proc = run_cli("verify", "--region", regfile, "--guards", guardfile,
                   "--mode", mode, "--j", j, "--format", "json", expect=1)
    assert proc.stdout == ""
    assert json.loads(proc.stderr) == {"error": "j must be a positive integer"}


@pytest.mark.parametrize("depth", ["-1", "-5"])
@pytest.mark.parametrize("mode", ["exact", "sample"])
def test_verify_rejects_a_negative_depth(tmp_path, mode, depth):
    # a negative target was once "met", exit 0
    regfile, guardfile = _verify_inputs(tmp_path, mode)
    proc = run_cli("verify", "--region", regfile, "--guards", guardfile,
                   "--mode", mode, "--depth", depth, "--format", "json", expect=1)
    assert proc.stdout == ""
    assert json.loads(proc.stderr) == {"error": "depth must be a non-negative integer"}


# --- render -------------------------------------------------------------------------

def test_render_guards_only(work):
    root, outputs = work
    svg = str(root / "triangle.svg")
    run_cli("render", "--placement", outputs["triangle"][0], "--out", svg)
    text = open(svg).read()
    assert text.count("<circle") == 10
    assert "<line" not in text
    assert text.startswith("<svg")


def test_render_with_dark_rays(work):
    root, outputs = work
    svg = str(root / "square-rays.svg")
    run_cli("render", "--placement", outputs["square"][0], "--out", svg,
            "--show-dark-rays")
    text = open(svg).read()
    assert text.count("<circle") == 14
    assert text.count("<line") == 14 * 13


def test_render_zoom_window(work):
    root, _ = work
    region, guards = builtin_fixture("wedge")
    wfix = str(root / "wedge-fixture.json")
    PlacementDocument(region, guards, name="wedge").save(wfix)
    svg = str(root / "wedge-zoom.svg")
    run_cli("render", "--placement", wfix, "--out", svg,
            "--show-dark-rays", "--zoom=-50,150,50,250")
    text = open(svg).read()
    assert text.count("<line") == 10 * 9
    assert 'viewBox="0 0 640 640"' in text  # square window, square frame
    svg_b = str(root / "wedge-zoom-b.svg")
    run_cli("render", "--placement", wfix, "--out", svg_b,
            "--show-dark-rays", "--zoom=-50,150,50,250")
    assert open(svg_b).read() == text


# --- failure modes --------------------------------------------------------------------

def test_construct_refuses_a_star_region(tmp_path):
    # a regular pentagon's vertices in pentagram order turn left at every
    # corner, but wind around twice
    star = {"kind": "convex",
            "vertices": [[100, 0], [-81, 59], [31, -95], [31, 95], [-81, -59]]}
    regfile = str(tmp_path / "star.json")
    with open(regfile, "w") as fh:
        json.dump(star, fh)
    proc = run_cli("construct", "--shape", regfile, "--k", "3", expect=1)
    assert "wind around more than once" in json.loads(proc.stderr)["error"]


def test_cli_error_paths():
    proc = run_cli("construct", "--shape", "nonesuch", "--k", "3", expect=1)
    assert "error" in json.loads(proc.stderr)
    run_cli("construct", "--shape", "triangle", "--k", "0", expect=1)
    run_cli("verify", "--region", "triangle", "--guards", "/nonexistent.json",
            expect=1)

