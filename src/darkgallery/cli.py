"""Command-line front end: construct, verify, render.

Three subcommands, one job each:

* ``construct`` places guards for a requested coverage depth on a
  builtin region or a region file, and writes a placement document with
  an embedded certificate;
* ``verify`` re-checks a placement from its files -- exactly on convex
  polygons and wedges, by sampling on simple polygons -- and exits 0
  when the placement holds up, 2 when it finds a violating witness;
* ``render`` draws a placement as SVG.

All machine output is canonical JSON (sorted keys, fixed indent), so
rerunning a command on the same inputs reproduces files byte for byte.
Errors print a one-line JSON object on stderr and exit 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import List

from .construct import ConstructionError, construct, place_wedge
from .darkness import GuardSet, has_j_dark, min_depth
from .documents import (
    CertificateDocument,
    DocumentError,
    JDarkResult,
    PlacementDocument,
    _dumps,
    point_from_json,
    region_from_dict,
)
from .fixtures import builtin_fixture
from .geometry import ConvexPolygon, SimplePolygon, Wedge
from .render import render_placement
from .sampling import _scan
from .simple import fisk_cover

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_WITNESS = 2

BUILTIN_REGIONS = ("triangle", "square", "wedge")


class UsageError(Exception):
    """Bad arguments or bad input files; exits with code 1."""


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError("cannot read %s: %s" % (path, exc)) from None
    except json.JSONDecodeError as exc:
        raise UsageError("%s is not valid JSON: %s" % (path, exc)) from None


def _load_region(spec: str):
    """A region from a builtin name or a JSON file.

    Files may hold a bare region descriptor, a placement document, or
    the combined construct output; whichever it is, the region inside
    is used.
    """
    if spec in BUILTIN_REGIONS:
        return builtin_fixture(spec)[0]
    payload = _read_json(spec)
    if isinstance(payload, dict):
        if "placement" in payload and "region" not in payload:
            payload = payload["placement"]
        if isinstance(payload, dict) and "region" in payload:
            payload = payload["region"]
    return region_from_dict(payload)


def _load_guards(spec: str) -> GuardSet:
    """Guards from a builtin name or a JSON file.

    Files may hold a bare list of points, a placement document, or the
    combined construct output.
    """
    if spec in BUILTIN_REGIONS:
        return builtin_fixture(spec)[1]
    payload = _read_json(spec)
    if isinstance(payload, dict):
        if "placement" in payload and "guards" not in payload:
            payload = payload["placement"]
        if isinstance(payload, dict):
            payload = payload.get("guards")
    if not isinstance(payload, list) or not payload:
        raise UsageError("no guards found in %s" % (spec,))
    return GuardSet([point_from_json(p) for p in payload])


def _emit(args, payload: dict, summary_lines: List[str]) -> None:
    text = _dumps(payload)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    if args.format == "json":
        sys.stdout.write(text)
    else:
        for line in summary_lines:
            print(line)


def _exact_certificate(region, gset: GuardSet, js: List[int]) -> CertificateDocument:
    cert = min_depth(region, gset)
    results = []
    for j in js:
        found, witness = has_j_dark(region, gset, j)
        results.append(JDarkResult(j, found, witness.point if found else None))
    return CertificateDocument(
        "exact",
        len(gset),
        cert.min_depth,
        cert.max_darkness,
        cert.witness.point,
        results,
    )


def _sampled_certificate(region, gset: GuardSet, js: List[int], sampler) -> CertificateDocument:
    frame, samples, depths = _scan(region, gset, sampler)
    g = len(gset)
    low = min(depths)
    witness = frame.point(samples[depths.index(low)])
    results = []
    for j in js:
        i = next((i for i, d in enumerate(depths) if g - d >= j), None)
        results.append(JDarkResult(j, i is not None, None if i is None else frame.point(samples[i])))
    return CertificateDocument("sampled", g, low, g - low, witness, results, sampler)


def _certificate_summary(cert: CertificateDocument) -> List[str]:
    lines = [
        "%s verification of %d guards: min depth %d (max darkness %d)"
        % (cert.mode, cert.guard_count, cert.min_depth, cert.max_darkness)
    ]
    if cert.witness is not None:
        lines.append("  attained at (%s, %s)" % (cert.witness.x, cert.witness.y))
    for r in cert.j_dark:
        if r.found:
            lines.append(
                "  %d-dark point FOUND at (%s, %s)" % (r.j, r.witness.x, r.witness.y)
            )
        else:
            lines.append("  no %d-dark point" % r.j)
    return lines


def cmd_construct(args) -> int:
    region = _load_region(args.shape)
    k = args.k
    if isinstance(region, ConvexPolygon):
        gset = construct(region, k)
        name = "convex-cover"
    elif isinstance(region, Wedge):
        gset = place_wedge(region, k)
        name = "wedge-cover"
    else:
        gset = fisk_cover(region, k)
        name = "coloring-cover"
    if isinstance(region, SimplePolygon):
        cert = _sampled_certificate(region, gset, [], None)
    else:
        cert = _exact_certificate(region, gset, [2] if k > 1 else [])
    placement = PlacementDocument(
        region,
        gset,
        name=name,
        parameters={"k": k},
        seed=args.seed,
    )
    payload = {"placement": placement.to_dict(), "certificate": cert.to_dict()}
    shape_label = args.shape if args.shape in BUILTIN_REGIONS else "region file"
    summary = [
        "placed %d guards for depth %d on %s (%s)"
        % (len(gset), k, shape_label, name)
    ] + _certificate_summary(cert)
    if args.out:
        summary.append("wrote %s" % args.out)
    _emit(args, payload, summary)
    return EXIT_OK


def cmd_verify(args) -> int:
    region = _load_region(args.region)
    gset = _load_guards(args.guards)
    simple = isinstance(region, SimplePolygon)
    mode = args.mode or ("sample" if simple else "exact")
    if mode == "exact" and simple:
        raise UsageError(
            "exact mode is unsupported on simple polygons; use --mode sample"
        )
    if mode == "sample" and isinstance(region, Wedge):
        raise UsageError("sample mode needs a bounded polygon, not a wedge")
    if mode == "exact" and args.grid is not None:
        raise UsageError("--grid needs --mode sample")
    js = list(args.j or [])
    if any(j < 1 for j in js):
        raise UsageError("j must be a positive integer")
    target = args.depth
    if target is not None and target < 0:
        raise UsageError("depth must be a non-negative integer")
    if not js and target is None:
        js = [2]  # the default question: is there a 2-dark point?
    if mode == "exact":
        cert = _exact_certificate(region, gset, js)
    else:
        sampler = None if args.grid is None else ("grid", args.grid)
        cert = _sampled_certificate(region, gset, js, sampler)
    violated = any(r.found for r in cert.j_dark)
    if target is not None and cert.min_depth < target:
        violated = True
    payload = cert.to_dict()
    summary = _certificate_summary(cert)
    if target is not None:
        summary.append(
            "depth target %d: %s" % (target, "met" if cert.min_depth >= target else "VIOLATED")
        )
    _emit(args, payload, summary)
    return EXIT_WITNESS if violated else EXIT_OK


def _parse_zoom(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError("--zoom wants xmin,ymin,xmax,ymax")
    try:
        window = tuple(Fraction(p.strip()) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise UsageError("--zoom coordinates must be rational numbers") from None
    if window[0] >= window[2] or window[1] >= window[3]:
        raise UsageError("--zoom window must have positive extent")
    return window


def cmd_render(args) -> int:
    try:
        doc = PlacementDocument.load(args.placement)
    except OSError as exc:
        raise UsageError("cannot read %s: %s" % (args.placement, exc)) from None
    zoom = _parse_zoom(args.zoom) if args.zoom else None
    svg = render_placement(doc, show_dark_rays=args.show_dark_rays, zoom=zoom)
    with open(args.out, "w") as fh:
        fh.write(svg)
    if args.format == "json":
        sys.stdout.write(json.dumps({"out": args.out}, sort_keys=True) + "\n")
    else:
        print("wrote %s (%d guards%s)" % (
            args.out,
            len(doc.guards),
            ", with dark rays" if args.show_dark_rays else "",
        ))
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and kept: parsing
    leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="darkgallery",
        description="guard placement and coverage-depth certification "
        "where guards block guards",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "construct", help="place guards for a requested coverage depth"
    )
    p.add_argument(
        "--shape",
        required=True,
        help="builtin region (%s) or a JSON region file" % "|".join(BUILTIN_REGIONS),
    )
    p.add_argument("--k", type=int, required=True, help="coverage depth to achieve")
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="recorded in the document metadata; constructions are deterministic",
    )
    p.add_argument("--out", help="write the placement document here")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(run=cmd_construct)

    p = sub.add_parser("verify", help="re-check a placement and certify its depth")
    p.add_argument("--region", required=True, help="region file or builtin name")
    p.add_argument("--guards", required=True, help="guards file or builtin name")
    p.add_argument(
        "--j",
        type=int,
        action="append",
        help="look for a j-dark point (repeatable; default 2)",
    )
    p.add_argument("--depth", type=int, help="require this minimum depth")
    p.add_argument(
        "--mode",
        choices=("exact", "sample"),
        help="exact for convex/wedge regions (default), sample for simple polygons",
    )
    p.add_argument(
        "--grid",
        type=int,
        help="sample mode: add an NxN bounding-box grid to the sample set",
    )
    p.add_argument("--out", help="write the certificate document here")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("render", help="draw a placement as SVG")
    p.add_argument("--placement", required=True, help="placement document file")
    p.add_argument("--out", required=True, help="SVG output path")
    p.add_argument(
        "--show-dark-rays",
        action="store_true",
        help="draw all g*(g-1) dark rays",
    )
    p.add_argument(
        "--zoom",
        help="world window as xmin,ymin,xmax,ymax "
        "(write --zoom=-1,-1,1,1 when the first value is negative)",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(run=cmd_render)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except (UsageError, DocumentError, ConstructionError, ValueError, TypeError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
