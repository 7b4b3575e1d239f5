"""Record the stored inputs that only the program itself can make.

    python3 perfbench/record_inputs.py

Writes perfbench/inputs.json: the builtin fixtures (region and guards),
full 4n-2 placements from ``place_4n_minus_2`` on fixed convex polygons,
and the comb polygons with their ``comb_cover`` guards.  The scene
generators read this file and never call the program, so a change to
these functions cannot change what the benchmark times.  Run it only
on the commit whose inputs are the reference.  It refuses to overwrite
an existing file: delete it first, on purpose.
"""

from __future__ import annotations

import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the polygons of the stored 4n-2 placements: fixed, not seeded per run
FULL_4N_MINUS_2_SIZES = (8, 8, 8, 8, 10, 10)
FULL_4N_MINUS_2_SEED = 4242


def main() -> int:
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from darkgallery.construct import place_4n_minus_2
    from darkgallery.fixtures import FIXTURES
    from darkgallery.geometry import ConvexPolygon, Point2
    from darkgallery.simple import comb_cover, make_comb
    from perfbench import scenes

    if os.path.exists(scenes.INPUTS_PATH):
        sys.stderr.write("%s exists; delete it first to record it again\n" % scenes.INPUTS_PATH)
        return 1

    def pts(points):
        return scenes.pts([(p.x, p.y) for p in points])

    fixtures = []
    for name in sorted(FIXTURES):
        region, gset = FIXTURES[name]()
        if name == "wedge":
            rj = {"kind": "wedge", "apex": pts([region.apex])[0],
                  "directions": pts([region.dir1, region.dir2])}
        else:
            rj = {"kind": "convex", "vertices": pts(region.vertices)}
        fixtures.append({"name": name, "region": rj, "guards": pts(gset.guards)})

    rng = random.Random(FULL_4N_MINUS_2_SEED)
    full = []
    for n in FULL_4N_MINUS_2_SIZES:
        poly = scenes.convex_polygon(rng, n)
        gset, _ = place_4n_minus_2(ConvexPolygon([Point2(x, y) for x, y in poly]))
        full.append({"n": n, "region": {"kind": "convex", "vertices": scenes.pts(poly)},
                     "guards": pts(gset.guards)})

    combs = []
    for s, k, _ in scenes.COMBS:
        comb = make_comb(s)
        combs.append({"spikes": s, "k": k,
                      "region": {"kind": "simple", "vertices": pts(comb.polygon.vertices)},
                      "guards": pts(comb_cover(comb, k).guards)})

    with open(scenes.INPUTS_PATH, "w") as fh:
        json.dump({"fixtures": fixtures, "full_4n_minus_2": full, "combs": combs},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
