"""Seeded scene lists for the three benchmark workloads.

A scene is one ``darkgallery`` CLI call: the input files it reads, the
argument vector, and what the checker needs to know about it.  Every
scene list is a pure function of (workload, seed): the generators draw
from one ``random.Random(seed)`` in a fixed order and serialize with
their own canonical writer, so the same seed gives byte-identical input
files whatever the program's document layer does.

Inputs that only the program can make (the builtin fixtures, full 4n-2
placements from ``place_4n_minus_2``, comb polygons and their
``comb_cover`` guards) are read from ``inputs.json``, recorded once by
``record_inputs.py``.  Generation never calls the program, so a change
to those functions cannot change the inputs the benchmark times.
"""

from __future__ import annotations

import functools
import json
import os
import random
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

Pt = Tuple[Fraction, Fraction]

INPUTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inputs.json")


class Scene:
    """One CLI op of a workload pass.

    ``argv`` refers to input files by bare name; ``files`` maps those
    names to their exact bytes; ``out`` names the file ``construct``
    writes (None for ``verify``, whose document goes to stdout).
    ``facts`` carries what the checker compares against: the command,
    the region as written, and per command the guards and sampling mode
    and grid (``verify``) or n and k (``construct``).
    """

    __slots__ = ("label", "argv", "files", "out", "facts")

    def __init__(self, label: str, argv: List[str], files: Dict[str, str],
                 out: Optional[str], facts: dict):
        self.label = label
        self.argv = argv
        self.files = files
        self.out = out
        self.facts = facts

    def __repr__(self):
        return "Scene(%s)" % self.label


# ---------------------------------------------------------------------------
# canonical input writer (independent of darkgallery.documents)


def _rat(q: Fraction):
    q = Fraction(q)
    return int(q) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def pts(points) -> list:
    return [[_rat(x), _rat(y)] for x, y in points]


def _region_json(kind: str, vertices=None, apex=None, directions=None) -> dict:
    if kind == "wedge":
        return {"kind": "wedge", "apex": pts([apex])[0], "directions": pts(directions)}
    return {"kind": kind, "vertices": pts(vertices)}


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# random geometry with exact coordinates


def _cross(u: Pt, v: Pt) -> Fraction:
    return u[0] * v[1] - u[1] * v[0]


def _chain_deltas(rng: random.Random, vals: List[int]) -> List[int]:
    lo, hi = vals[0], vals[-1]
    a, b = [lo], [lo]
    for v in vals[1:-1]:
        (a if rng.random() < 0.5 else b).append(v)
    a.append(hi)
    b.append(hi)
    return [a[i + 1] - a[i] for i in range(len(a) - 1)] + [
        b[i] - b[i + 1] for i in range(len(b) - 1)
    ]


def _angle_cmp(u: Pt, v: Pt) -> int:
    def half(w):
        return 0 if (w[1], w[0]) > (0, 0) else 1

    h = half(u) - half(v)
    if h:
        return h
    c = _cross(u, v)
    return -1 if c > 0 else (1 if c < 0 else 0)


def convex_polygon(rng: random.Random, n: int, size: int = 420) -> List[Pt]:
    """Strictly convex integer n-gon, ccw (Valtr's method)."""
    while True:
        xs = sorted(rng.randint(0, size) for _ in range(n))
        ys = sorted(rng.randint(0, size) for _ in range(n))
        dx = _chain_deltas(rng, xs)
        dy = _chain_deltas(rng, ys)
        rng.shuffle(dy)
        vecs = [(Fraction(a), Fraction(b)) for a, b in zip(dx, dy) if a or b]
        if len(vecs) < n:
            continue
        vecs.sort(key=functools.cmp_to_key(_angle_cmp))
        if any(_cross(vecs[i], vecs[(i + 1) % n]) <= 0 for i in range(n)):
            continue  # parallel steps would leave a straight vertex
        pts, x, y = [], Fraction(0), Fraction(0)
        for vx, vy in vecs:
            pts.append((x, y))
            x, y = x + vx, y + vy
        lx = min(p[0] for p in pts)
        ly = min(p[1] for p in pts)
        return [(px - lx, py - ly) for px, py in pts]


def star_polygon(rng: random.Random, n: int, size: int = 60) -> List[Pt]:
    """Simple integer n-gon, star-shaped about the origin (reflex-rich)."""
    while True:
        pts = set()
        while len(pts) < n:
            x, y = rng.randint(-size, size), rng.randint(-size, size)
            if abs(x) + abs(y) > size // 4:
                pts.add((Fraction(x), Fraction(y)))
        order = sorted(pts, key=functools.cmp_to_key(_angle_cmp))
        if all(_cross(order[i], order[(i + 1) % n]) > 0 for i in range(n)):
            return order


def _combination(rng: random.Random, corners: List[Pt], grain: int) -> Pt:
    """Positive random convex combination: strictly inside the corners' hull."""
    w = [rng.randint(1, grain) for _ in corners]
    total = sum(w)
    return (
        sum((c[0] * wi for c, wi in zip(corners, w)), Fraction(0)) / total,
        sum((c[1] * wi for c, wi in zip(corners, w)), Fraction(0)) / total,
    )


def _distinct(draw, count: int) -> List[Pt]:
    out, seen = [], set()
    while len(out) < count:
        p = draw()
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def _strictly_inside_convex(poly: List[Pt], p: Pt) -> bool:
    n = len(poly)
    return all(
        _cross((poly[(i + 1) % n][0] - poly[i][0], poly[(i + 1) % n][1] - poly[i][1]),
               (p[0] - poly[i][0], p[1] - poly[i][1])) > 0
        for i in range(n)
    )


def lattice_guards(rng: random.Random, poly: List[Pt], g: int) -> List[Pt]:
    """g points of a 10x10 integer grid spanning the polygon's box, inside it."""
    lx = min(p[0] for p in poly)
    ly = min(p[1] for p in poly)
    hx = max(p[0] for p in poly)
    hy = max(p[1] for p in poly)
    sx, sy = (hx - lx) // 11, (hy - ly) // 11
    grid = [(lx + sx * (i + 1), ly + sy * (j + 1)) for i in range(10) for j in range(10)]
    inside = [p for p in grid if _strictly_inside_convex(poly, p)]
    if len(inside) < g:
        return []
    return rng.sample(inside, g)


# ---------------------------------------------------------------------------
# stored inputs


@functools.lru_cache(maxsize=1)
def stored() -> dict:
    """inputs.json, with every guard list read back as exact points."""
    with open(INPUTS_PATH) as fh:
        doc = json.load(fh)
    for group in doc.values():
        for item in group:
            item["guards"] = [(Fraction(x), Fraction(y)) for x, y in item["guards"]]
    return doc


# ---------------------------------------------------------------------------
# scene builders


def _verify_scene(label: str, region: dict, guards: List[Pt], extra_argv: List[str],
                  facts: dict) -> Scene:
    doc = _dumps({"region": region, "guards": pts(guards)})
    argv = ["verify", "--region", "scene.json", "--guards", "scene.json",
            "--format", "json"] + extra_argv
    facts = dict(facts, command="verify", region=region, guards=guards)
    return Scene(label, argv, {"scene.json": doc}, None, facts)


def _construct_scene(label: str, region: dict, k: int, facts: dict) -> Scene:
    argv = ["construct", "--shape", "region.json", "--k", str(k),
            "--out", "out.json", "--format", "json"]
    facts = dict(facts, command="construct", region=region, k=k)
    return Scene(label, argv, {"region.json": _dumps(region)}, "out.json", facts)


def _spread(rng: random.Random, lo: int, hi: int, count: int) -> List[int]:
    """count values covering lo..hi evenly: one seeded pick per equal stratum."""
    out = []
    for i in range(count):
        a = lo + (hi - lo + 1) * i // count
        b = lo + (hi - lo + 1) * (i + 1) // count - 1
        out.append(rng.randint(a, max(a, b)))
    return out


def _shuffled(rng: random.Random, first: List[Scene], rest: List[Scene]) -> List[Scene]:
    """first in order (cheap ops: the warm-up runs scenes[0]), then rest
    in seeded order, so a slow stretch of the machine hits every kind."""
    rng.shuffle(rest)
    return first + rest


def convex_verify(seed: int) -> List[Scene]:
    """Exact ``verify`` (default ``--j 2``) on stored convex placements.

    Rational guards in 8-gons blow the common scale past 2**28 (eight
    small ones stay below 48 pieces); lattice guards keep the scale small
    and make many collinear guards; the 4n-2 placements have no 2-dark
    point, so the j-dark scan runs to the end; the fixtures add the
    wedge branch.
    """
    rng = random.Random(seed)
    fixtures = [_verify_scene("fixture-%s" % f["name"], f["region"], f["guards"], [],
                              {"mode": "exact"}) for f in stored()["fixtures"]]
    rest = []
    # g <= 7 keeps a rational scene below 48 pieces (plain pair loop)
    for i, g in enumerate(_spread(rng, 4, 7, 8) + _spread(rng, 12, 20, 44)):
        poly = convex_polygon(rng, 8)
        guards = _distinct(lambda: _combination(rng, poly, 64), g)
        rest.append(_verify_scene("rational-%02d-g%d" % (i, g), _region_json("convex", poly),
                                  guards, [], {"mode": "exact"}))
    for i, g in enumerate(_spread(rng, 20, 30, 44)):
        guards = []
        while not guards:
            poly = convex_polygon(rng, 8)
            guards = lattice_guards(rng, poly, g)
        rest.append(_verify_scene("lattice-%02d-g%d" % (i, g), _region_json("convex", poly),
                                  guards, [], {"mode": "exact"}))
    for i, full in enumerate(stored()["full_4n_minus_2"]):
        rest.append(_verify_scene("full-4n-2-%d-n%d" % (i, full["n"]), full["region"],
                                  full["guards"], [], {"mode": "exact"}))
    return _shuffled(rng, fixtures, rest)


def convex_construct(seed: int) -> List[Scene]:
    """``construct --out`` on convex n-gons and the builtin wedge.

    Mostly the one-extra regime (n < k < 4n-2), where the 4n-2 scaffold
    is built and certified; small n is weighted up so that the pass
    stays near 20 s.  The five n >= 10 ops stay under a tenth of the
    pass, so the 90th percentile falls inside the 30 n = 8 ops rather
    than on the edge between the two sizes.  Vertex-regime and wedge
    ops keep the cheap paths in the mix.
    """
    rng = random.Random(seed)
    wedge = next(f["region"] for f in stored()["fixtures"] if f["name"] == "wedge")
    first = [_construct_scene("wedge-k%d" % k, wedge, k, {"n": None}) for k in range(3, 10)]
    rest = []
    for i in range(15):
        n = (6, 8, 10, 12)[i % 4]
        k = rng.randint(1, n)
        rest.append(_construct_scene("vertex-%02d-n%d-k%d" % (i, n, k),
                                     _region_json("convex", convex_polygon(rng, n)), k,
                                     {"n": n}))
    for n, count in ((6, 44), (8, 30), (10, 3), (12, 2)):
        for i, k in enumerate(_spread(rng, n + 1, 4 * n - 3, count)):
            rest.append(_construct_scene("one-extra-%02d-n%d-k%d" % (i, n, k),
                                         _region_json("convex", convex_polygon(rng, n)), k,
                                         {"n": n}))
    return _shuffled(rng, first, rest)


# (spikes, guards per spike, grids): the four cheapest comb ops, on both
# sides of samples x guards = 4096 (only the 3-spike comb is below it)
COMBS = ((3, 2, (None,)), (4, 2, (24,)), (4, 3, (None,)), (5, 2, (None,)))
_COMB_REPEATS = 10


def simple_sample(seed: int) -> List[Scene]:
    """``verify --mode sample`` on combs and star polygons.

    Exit code 2 (a 2-dark witness) is expected.  The comb ops are fixed
    and repeated; the stars move with the seed and each runs with and
    without ``--grid 24``.
    """
    rng = random.Random(seed)
    combs = []
    for (s, k, grids), comb in zip(COMBS, stored()["combs"]):
        if (comb["spikes"], comb["k"]) != (s, k):
            raise ValueError("inputs.json holds comb %r, COMBS wants %r"
                             % ((comb["spikes"], comb["k"]), (s, k)))
        for grid in grids:
            combs.append(_sample_scene("comb-s%d-k%d" % (s, k), comb["region"],
                                       comb["guards"], grid))
    stars = []
    sizes = zip(_spread(rng, 20, 30, 30), reversed(_spread(rng, 12, 13, 30)))
    for i, (n, g) in enumerate(sizes):
        poly = star_polygon(rng, n)
        origin = (Fraction(0), Fraction(0))

        def draw():
            j = rng.randrange(n)
            return _combination(rng, [origin, poly[j], poly[(j + 1) % n]], 64)

        guards = _distinct(draw, g)
        for grid in (None, 24):
            stars.append(_sample_scene("star-%02d-n%d-g%d" % (i, n, g),
                                       _region_json("simple", poly), guards, grid))
    return _shuffled(rng, combs[:1], combs[1:] + combs * (_COMB_REPEATS - 1) + stars)


def _sample_scene(label: str, rj: dict, guards: List[Pt], grid: Optional[int]) -> Scene:
    extra = ["--mode", "sample"] + ([] if grid is None else ["--grid", str(grid)])
    return _verify_scene(label + ("" if grid is None else "-grid%d" % grid), rj, guards,
                         extra, {"mode": "sample", "grid": grid})


BUILDERS = {
    "convex-verify": convex_verify,
    "convex-construct": convex_construct,
    "simple-sample": simple_sample,
}


WORKLOADS = tuple(BUILDERS)


def scenes_for(workload: str, seed: int) -> List[Scene]:
    return BUILDERS[workload](seed)
