"""Running one workload: input files, the closed loop, checks and metrics.

The load is a closed loop with one client: one process calls
``darkgallery.cli.main(argv)`` for one op at a time, in scene order,
and a run covers whole passes over the scene list so the mix stays
fixed.  Passes repeat until the run has measured ``seconds`` and made
at least ``MIN_OPS`` ops (so that ten ops lie beyond the 90th
percentile), or until ``HARD_STOP_S`` of measuring, whichever first.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Tuple

from . import checks
from .scenes import Scene, scenes_for
from .trace import SpanStats, Tracer

DEFAULT_SEED = 1
MIN_OPS = 100
HARD_STOP_S = 120.0
SETUP_SAMPLES = 5
OVERHEAD_STRIDE = 5

# The size thresholds the program picks its paths by.  They are written
# out here, not imported, because later versions may rename or delete
# the private constants that hold them.
PIECE_THRESHOLD = 48           # pieces: plain pair loop below, box prefilter from here
COORD_LIMIT = 1 << 28          # scaled |coordinate|: int64 sign filter only below
SAMPLE_WORK_THRESHOLD = 4096   # samples x guards: plain exact loop below, float pass from here

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

# The host's speed drifts by up to a third over minutes (see README), so
# end-to-end times are scaled to a reference speed.  This fixed loop is
# timed after every op and in every set-up interpreter; the scale is
# HOST_REF_S over its median time.  The loop never touches the program.
HOST_LOOP = "s = 0\nfor i in range(6000):\n    s += i * i % 7\n"
HOST_REF_S = 0.0006  # about the loop's time on a 2-core x86-64 container, Python 3.11
_HOST_LOOP_CODE = compile(HOST_LOOP, "<host loop>", "exec")

SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import darkgallery.cli\n"
    "t = time.perf_counter() - t\n"
    "loop = compile(sys.argv[2], '<host loop>', 'exec')\n"
    "h = []\n"
    "for _ in range(9):\n"
    "    t0 = time.perf_counter()\n"
    "    exec(loop, {})\n"
    "    h.append(time.perf_counter() - t0)\n"
    "print(darkgallery.cli.__file__)\n"
    "print(repr(t))\n"
    "print(repr(sorted(h)[4]))\n"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, broken set-up)."""


# ---------------------------------------------------------------------------
# inputs and single ops


class Prepared:
    """A scene with its input files written and its argv made absolute."""

    __slots__ = ("scene", "argv", "out_path")

    def __init__(self, scene: Scene, directory: str):
        os.makedirs(directory)
        for name, text in scene.files.items():
            with open(os.path.join(directory, name), "w") as fh:
                fh.write(text)
        named = set(scene.files) | {scene.out}
        self.scene = scene
        self.argv = [os.path.join(directory, a) if a in named else a for a in scene.argv]
        self.out_path = None if scene.out is None else os.path.join(directory, scene.out)


def prepare(scenes: List[Scene], workdir: str) -> List[Prepared]:
    return [Prepared(s, os.path.join(workdir, "%03d" % i)) for i, s in enumerate(scenes)]


class OpRecord:
    """One op: scene index, wall time, exit code, output, failure (or
    None), and the time of the host loop run right after it."""

    __slots__ = ("index", "seconds", "rc", "text", "error", "host_s")

    def __init__(self, index, seconds, rc, text, error, host_s):
        self.index = index
        self.seconds = seconds
        self.rc = rc
        self.text = text
        self.error = error
        self.host_s = host_s


def host_loop_s() -> float:
    t0 = time.perf_counter()
    exec(_HOST_LOOP_CODE, {})
    return time.perf_counter() - t0


def run_op(cli, prep: Prepared, index: int) -> OpRecord:
    """One timed ``cli.main`` call, then the host loop; the output is read
    after the clock stops."""
    if prep.out_path is not None and os.path.exists(prep.out_path):
        os.remove(prep.out_path)  # a failed op must not pass on a stale file
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(prep.argv)  # looked up per call, so a tracer's binding is used
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an op boundary: record the failure and keep measuring
        error = traceback.format_exc(limit=3)
    seconds = time.perf_counter() - t0
    host_s = host_loop_s()
    if error is None and rc not in (0, 2):
        error = "exit code %r: %s" % (rc, err.getvalue().strip()[:300])
    text = out.getvalue()
    if prep.out_path is not None:
        try:
            with open(prep.out_path) as fh:
                text = fh.read()
        except OSError as exc:
            error = error or "no output file: %s" % exc
    return OpRecord(index, seconds, rc, text, error, host_s)


def run_passes(cli, prepared: List[Prepared], seconds: float,
               tracer: Optional[Tracer] = None) -> Tuple[List[OpRecord], float]:
    """Whole passes until ``seconds`` and ``MIN_OPS`` are both reached."""
    records: List[OpRecord] = []
    start = time.perf_counter()
    while True:
        for i, prep in enumerate(prepared):
            if tracer is not None:
                tracer.op_id = len(records)
            records.append(run_op(cli, prep, i))
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and len(records) >= MIN_OPS):
            return records, elapsed


# ---------------------------------------------------------------------------
# correctness


def load_digests(workload: str) -> Optional[List[List[str]]]:
    try:
        with open(DIGESTS_PATH) as fh:
            return json.load(fh).get(workload)
    except OSError:
        return None


def judge(prepared: List[Prepared], records: List[OpRecord],
          recorded: Optional[List[List[str]]]) -> Tuple[List[bool], List[str]]:
    """(ok per record, problem lines).  The first op of each scene is
    checked in full; every later op of the same scene must reproduce its
    exit code and digest.  ``recorded`` lists [label, sha256] per scene."""
    first: Dict[int, Tuple[int, str, bool]] = {}
    ok: List[bool] = []
    problems: List[str] = []
    for rec in records:
        scene = prepared[rec.index].scene
        if rec.error is not None:
            ok.append(False)
            problems.append("%s: %s" % (scene.label, rec.error.strip().splitlines()[-1]))
            continue
        dig = checks.digest(rec.text)
        if rec.index not in first:
            bad = checks.check_output(scene, rec.rc, rec.text)
            if recorded is not None:
                want = recorded[rec.index] if rec.index < len(recorded) else None
                if want != [scene.label, dig]:
                    bad.append("digest %s differs from the recorded %r" % (dig[:12], want))
            first[rec.index] = (rec.rc, dig, not bad)
            problems += ["%s: %s" % (scene.label, b) for b in bad]
            ok.append(not bad)
            continue
        rc0, dig0, ok0 = first[rec.index]
        same = rec.rc == rc0 and dig == dig0
        if not same:
            problems.append("%s: output changed between passes" % scene.label)
        ok.append(ok0 and same)
    return ok, problems


# ---------------------------------------------------------------------------
# end-to-end metrics


def measure_setup(src: str) -> Tuple[float, float]:
    """Median time of ``import darkgallery.cli`` in fresh interpreters,
    raw and scaled by the host loop timed in the same interpreter."""
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, src, HOST_LOOP],
                              capture_output=True, text=True, timeout=120)
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 3:
            raise BenchError("importing darkgallery.cli failed: %s" % proc.stderr.strip()[-500:])
        if not os.path.abspath(lines[0]).startswith(os.path.abspath(src) + os.sep):
            raise BenchError("darkgallery was imported from %s, not from %s" % (lines[0], src))
        raw.append(float(lines[1]))
        scaled.append(float(lines[1]) * HOST_REF_S / float(lines[2]))
    return statistics.median(raw), statistics.median(scaled)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def end_to_end(records: List[OpRecord], ok: List[bool], elapsed: float,
               setup_s: float, scale: float = 1.0) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics, with every op time multiplied by ``scale``.
    ``elapsed`` is wall time of the passes; the host loops are taken out."""
    times = [r.seconds * scale for r in records]
    busy = (elapsed - sum(r.host_s for r in records)) * scale
    correct = sum(ok)
    return {
        "ops_per_s": (correct / busy, "op/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_p90_s": (statistics.quantiles(times, n=10)[8], "s"),
        "ok_frac": (correct / len(records), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def host_scale(records: List[OpRecord]) -> float:
    """HOST_REF_S over the median host-loop time of the run."""
    return HOST_REF_S / statistics.median(r.host_s for r in records)


# ---------------------------------------------------------------------------
# input shape (computed with tracing off, outside any timed call)


def _overlap(lo, hi, a, b) -> bool:
    """Does the open interval (lo, hi) meet the closed [a, b]?  None = unbounded."""
    low_open = lo is not None and (a is None or lo >= a)
    low = lo if low_open else a
    high_open = hi is not None and (b is None or hi <= b)
    high = hi if high_open else b
    if low is None or high is None:
        return True
    return low < high or (low == high and not low_open and not high_open)


def scene_shape(scene: Scene, text: str) -> Dict[str, float]:
    """g, n, guard lines, dark portions, in-region pieces and scale bits."""
    from darkgallery.darkness import collinear_groups, dark_portions
    from darkgallery.documents import point_from_json, region_from_dict
    from darkgallery.geometry import ConvexPolygon, Wedge, convex_hull, primitive_direction

    region_doc = scene.facts["region"]
    if scene.facts["command"] == "construct":
        guard_docs = json.loads(text)["placement"]["guards"]
    else:
        guard_docs = json.loads(scene.files["scene.json"])["guards"]
    guards = [point_from_json(p) for p in guard_docs]
    region = clip_region = region_from_dict(region_doc)
    corners = [region.apex] if isinstance(region, Wedge) else list(region.vertices)
    if not isinstance(region, (ConvexPolygon, Wedge)):  # the engine runs on the hull
        clip_region = ConvexPolygon(convex_hull(corners + guards).corners)
    lines = collinear_groups(guards)
    portions = pieces = 0
    for line in lines:
        axis = primitive_direction(line.members[-1] - line.members[0])
        span = clip_region.clip_line(line.members[0], axis)
        for part in dark_portions(line):
            portions += 1
            if span is not None and _overlap(part.lo, part.hi, span[0], span[1]):
                pieces += 1
    coords = [c for p in corners + guards for c in (Fraction(p.x), Fraction(p.y))]
    scale = lcm(*(c.denominator for c in coords))
    max_abs = max(abs(c * scale) for c in coords)
    return {
        "g": len(guards),
        "n": 0 if isinstance(region, Wedge) else len(corners),
        "guard_lines": len(lines),
        "dark_portions": portions,
        "pieces": pieces,
        "scale_bits": int(max_abs).bit_length(),
        "int64_eligible": float(max_abs < COORD_LIMIT),
        "box_prefilter": float(pieces >= PIECE_THRESHOLD),
    }


def shapes(prepared: List[Prepared], records: List[OpRecord],
           ok: List[bool]) -> List[Optional[Dict[str, float]]]:
    """The shape of every scene; None where no op of it was correct."""
    first_text: Dict[int, str] = {}
    for rec, good in zip(records, ok):
        if good:
            first_text.setdefault(rec.index, rec.text)
    return [scene_shape(p.scene, first_text[i]) if i in first_text else None
            for i, p in enumerate(prepared)]


# ---------------------------------------------------------------------------
# per-layer metrics


SPAN_METRICS = (
    "darkness.max_darkness",
    "darkness.min_depth",
    "darkness.has_j_dark",
    "construct.construct",
    "construct.place_4n_minus_2",
    "geometry.halfplane_intersection",
    "geometry.convex_hull",
    "sampling.sample_depth",
    "cli.main",
)
CALL_METRICS = (
    "construct.place_vertex_guards",
    "construct.place_wedge",
    "construct.place_general_position",
    "geometry.SimplePolygon.where",
    "geometry.strictly_between",
    "sampling.depth_at_sample",
    "sampling.visible",
)
DOCUMENT_SPANS = (
    "documents.region_from_dict",
    "documents.point_from_json",
    "documents.PlacementDocument.to_dict",
    "documents.CertificateDocument.to_dict",
)
SHAPE_METRICS = (
    ("darkness.guard_lines", "guard_lines", "count/op"),
    ("darkness.dark_portions", "dark_portions", "count/op"),
    ("darkness.pieces", "pieces", "count/op"),
    ("darkness.scale_bits", "scale_bits", "bits"),
    ("darkness.int64_eligible_frac", "int64_eligible", "ratio"),
    ("darkness.box_prefilter_frac", "box_prefilter", "ratio"),
)


def per_layer(tracer: Tracer, ops: int, shape_rows: List[Optional[Dict[str, float]]],
              op_weights: List[int], overhead: float) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric, normalized per op of the traced run."""
    out: Dict[str, Tuple[float, str]] = {}
    none = SpanStats()
    for name in SPAN_METRICS:
        st = tracer.stats.get(name, none)
        out[name + ".calls"] = (st.calls / ops, "count/op")
        out[name + ".self_s"] = (st.self_s / ops, "s/op")
    out["cli.main.total_s"] = (tracer.stats.get("cli.main", none).total_s / ops, "s/op")
    for name in CALL_METRICS:
        out[name + ".calls"] = (tracer.calls(name) / ops, "count/op")
    doc_stats = [tracer.stats.get(n, none) for n in DOCUMENT_SPANS]
    out["documents.calls"] = (sum(s.calls for s in doc_stats) / ops, "count/op")
    out["documents.self_s"] = (sum(s.self_s for s in doc_stats) / ops, "s/op")

    certs = tracer.calls("darkness.max_darkness") + tracer.calls("darkness.has_j_dark")
    out["darkness.certifications_per_op"] = (certs / ops, "count/op")
    attempts = tracer.under_count("darkness.max_darkness", "construct.place_4n_minus_2")
    placed = sum(1 for name, _, _ in tracer.results if name == "construct.place_4n_minus_2")
    out["construct.certify_attempts"] = (attempts / ops, "count/op")
    out["construct.certify_yield"] = (placed / attempts if attempts else 0.0, "ratio")

    sampled = [r for name, _, r in tracer.results if name == "sampling.sample_depth"]
    samples = sum(s for s, _ in sampled)
    fallbacks = (tracer.under_count("geometry.SimplePolygon.where", "sampling.sample_depth")
                 + tracer.under_count("geometry.strictly_between", "sampling.sample_depth"))
    out["sampling.samples"] = (samples / ops, "count/op")
    out["sampling.float_pass_frac"] = (
        sum(1 for s, g in sampled if s * g >= SAMPLE_WORK_THRESHOLD) / len(sampled)
        if sampled else 0.0, "ratio")
    out["sampling.exact_fallbacks_per_sample"] = (fallbacks / samples if samples else 0.0,
                                                  "ratio")

    weighted = [(row, w) for row, w in zip(shape_rows, op_weights) if row is not None]
    total_w = sum(w for _, w in weighted)
    for metric, key, unit in SHAPE_METRICS:
        value = sum(row[key] * w for row, w in weighted) / total_w if total_w else 0.0
        out[metric] = (value, unit)

    out["trace.spans"] = (len(tracer.spans) / ops, "count/op")
    out["trace.overhead_frac"] = (overhead, "ratio")
    return out


def trace_overhead(cli, prepared: List[Prepared]) -> float:
    """Mean traced / untraced time of one op, minus 1.

    Every OVERHEAD_STRIDE-th scene runs untraced and then, at once, under
    a fresh Tracer that is entered and left around that single op, so the
    host's drift cancels within each pair.
    """
    ratios = []
    for i in range(0, len(prepared), OVERHEAD_STRIDE):
        plain = run_op(cli, prepared[i], i).seconds
        with Tracer():
            traced = run_op(cli, prepared[i], i).seconds
        ratios.append(traced / plain)
    return statistics.mean(ratios) - 1.0


def write_spans(tracer: Tracer, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for span in sorted(tracer.spans):
            fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# one run


def result_line(ok: List[bool], metrics: Dict[str, Tuple[float, str]]) -> dict:
    return {
        "correct": all(ok),
        "attempted": len(ok),
        "failed": len(ok) - sum(ok),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    """One run; failure reasons and the input shape go to stderr."""
    log = sys.stderr
    src = os.path.join(root, "src")
    setup_raw_s, setup_s = measure_setup(src)
    scenes = scenes_for(workload, seed)
    import darkgallery.cli as cli

    workdir = os.path.join(root, "perfbench", "_work", "%s-seed%d-%d" % (workload, seed, os.getpid()))
    recorded = load_digests(workload) if seed == DEFAULT_SEED else None
    try:
        prepared = prepare(scenes, workdir)
        run_op(cli, prepared[0], 0)  # warm-up, not counted
        if not trace:
            records, elapsed = run_passes(cli, prepared, seconds)
            ok, problems = judge(prepared, records, recorded)
            scale = host_scale(records)
            metrics = end_to_end(records, ok, elapsed, setup_s, scale)
            raw = end_to_end(records, ok, elapsed, setup_raw_s)
            log.write("host: scale %.4f; unscaled %s\n" % (scale, json.dumps(
                {k: v for k, (v, _) in raw.items()}, sort_keys=True)))
        else:
            with Tracer() as tracer:
                records, elapsed = run_passes(cli, prepared, seconds, tracer=tracer)
            overhead = trace_overhead(cli, prepared)
            ok, problems = judge(prepared, records, recorded)
            weights = [0] * len(prepared)
            for rec in records:
                weights[rec.index] += 1
            rows = shapes(prepared, records, ok)
            metrics = per_layer(tracer, len(records), rows, weights, overhead)
            write_spans(tracer, os.path.join(root, "perfbench", "_work", "traces",
                                             "%s-seed%d.jsonl" % (workload, seed)))
            if tracer.skipped:
                log.write("trace: skipped missing %s\n" % ", ".join(tracer.skipped))
            work = {records[op].index: summary[0] * summary[1]
                    for name, op, summary in tracer.results if name == "sampling.sample_depth"}
            for i, (prep, row) in enumerate(zip(prepared, rows)):
                if row is not None and i in work:
                    row = dict(row, samples_x_guards=work[i])
                log.write("shape %-26s %s\n" % (prep.scene.label, json.dumps(row, sort_keys=True)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in problems[:20]:
        log.write("FAILED %s\n" % line)
    return result_line(ok, metrics)

