"""Output checks: canonical form, recorded digests and invariants.

Every op's output is the canonical JSON document the CLI wrote (stdout
for ``verify``, the ``--out`` file for ``construct``).  An op passes
when its exit code is one the scene allows, its text is canonical JSON,
its digest matches the one recorded for the same scene (on the default
seed, and across passes within a run), and its content satisfies the
invariants below.  The guard-count rules are written out here rather
than taken from the program, so the checker does not trust the code it
checks.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import List, Optional

from .scenes import Scene


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def convex_guard_count(n: int, k: int) -> int:
    """Tight guard count for depth k on a convex n-gon (the paper's table)."""
    if k <= n:
        return k
    if k < 4 * n - 2:
        return k + 1
    return k + 2


def wedge_guard_count(k: int) -> int:
    """Tight guard count for depth k on a wedge."""
    if k <= 2:
        return k
    if k <= 9:
        return k + 1
    return k + 2


def _rat(value) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError("not a rational: %r" % (value,))
    return Fraction(value)


def _point(value):
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError("not a point: %r" % (value,))
    return _rat(value[0]), _rat(value[1])


def _cross(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _in_region(region: dict, p) -> Optional[bool]:
    """Closed containment for convex and wedge regions; None for simple ones."""
    if region["kind"] == "convex":
        vs = [_point(v) for v in region["vertices"]]
        return all(_cross(vs[i], vs[(i + 1) % len(vs)], p) >= 0 for i in range(len(vs)))
    if region["kind"] == "wedge":
        apex = _point(region["apex"])
        d1, d2 = (_point(d) for d in region["directions"])
        rel = (p[0] - apex[0], p[1] - apex[1])
        s1 = d1[0] * rel[1] - d1[1] * rel[0]
        s2 = rel[0] * d2[1] - rel[1] * d2[0]
        if d1[0] * d2[1] - d1[1] * d2[0] < 0:
            s1, s2 = -s1, -s2
        return s1 >= 0 and s2 >= 0
    return None


def _check_certificate(cert: dict, region: dict, guard_count: int, js: List[int],
                       mode: str, sampler) -> List[str]:
    bad = []
    if cert.get("mode") != mode:
        bad.append("mode %r, expected %r" % (cert.get("mode"), mode))
    g = cert.get("guard_count")
    if g != guard_count:
        bad.append("guard_count %r, expected %d" % (g, guard_count))
    low, dark = cert.get("min_depth"), cert.get("max_darkness")
    if not isinstance(low, int) or not isinstance(dark, int) or low != guard_count - dark:
        bad.append("min_depth %r != guard_count - max_darkness %r" % (low, dark))
        return bad
    if not 0 <= dark <= guard_count:
        bad.append("max_darkness %d out of range" % dark)
    if cert.get("sampler") != sampler:
        bad.append("sampler %r, expected %r" % (cert.get("sampler"), sampler))
    witness = cert.get("witness")
    if witness is None or _in_region(region, _point(witness)) is False:
        bad.append("witness %r missing or outside the region" % (witness,))
    results = cert.get("j_dark")
    if [r.get("j") for r in results or []] != js:
        bad.append("j_dark queries %r, expected %r" % (results, js))
        return bad
    for r in results:
        # a j-dark point exists exactly when the maximum darkness reaches j
        if r["found"] != (dark >= r["j"]):
            bad.append("j=%d found=%r contradicts max_darkness %d" % (r["j"], r["found"], dark))
        if (r["witness"] is not None) != r["found"]:
            bad.append("j=%d witness present iff found" % r["j"])
        elif r["found"] and _in_region(region, _point(r["witness"])) is False:
            bad.append("j=%d witness outside the region" % r["j"])
    return bad


def _check_verify(scene: Scene, rc: int, doc: dict) -> List[str]:
    facts = scene.facts
    sampler = None if facts.get("grid") is None else {"kind": "grid", "resolution": facts["grid"]}
    mode = "exact" if facts["mode"] == "exact" else "sampled"
    bad = _check_certificate(doc, facts["region"], len(facts["guards"]), [2], mode, sampler)
    violated = any(r.get("found") for r in doc.get("j_dark") or [])
    if rc != (2 if violated else 0):
        bad.append("exit code %d, but a j-dark point was %sreported"
                   % (rc, "" if violated else "not "))
    return bad


def _check_construct(scene: Scene, rc: int, doc: dict) -> List[str]:
    facts = scene.facts
    k = facts["k"]
    if rc != 0:
        return ["exit code %d" % rc]
    placement, cert = doc.get("placement"), doc.get("certificate")
    if not isinstance(placement, dict) or not isinstance(cert, dict):
        return ["document lacks placement or certificate"]
    bad = []
    region = facts["region"]
    if placement.get("region") != region:
        bad.append("placement region differs from the input region")
    if region["kind"] == "wedge":
        want, name = wedge_guard_count(k), "wedge-cover"
    else:
        want, name = convex_guard_count(facts["n"], k), "convex-cover"
    guards = [_point(p) for p in placement.get("guards") or []]
    if len(guards) != want:
        bad.append("%d guards, plan says %d" % (len(guards), want))
    if len(set(guards)) != len(guards):
        bad.append("repeated guard")
    if any(_in_region(region, p) is False for p in guards):
        bad.append("a guard lies outside the region")
    meta = placement.get("metadata")
    if meta != {"name": name, "parameters": {"k": k}, "seed": None}:
        bad.append("metadata %r" % (meta,))
    bad += _check_certificate(cert, region, len(guards), [2] if k > 1 else [], "exact", None)
    if isinstance(cert.get("min_depth"), int) and cert["min_depth"] < k:
        bad.append("certified depth %d below the requested %d" % (cert["min_depth"], k))
    return bad


def check_output(scene: Scene, rc: int, text: str) -> List[str]:
    """Problems with one op's output; an empty list means the op is correct."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return ["output is not JSON: %s" % exc]
    if json.dumps(doc, sort_keys=True, indent=2) + "\n" != text:
        return ["output is not in canonical form"]
    if not isinstance(doc, dict):
        return ["output is not a JSON object"]
    try:
        if scene.facts["command"] == "construct":
            return _check_construct(scene, rc, doc)
        return _check_verify(scene, rc, doc)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return ["malformed document: %r" % (exc,)]
