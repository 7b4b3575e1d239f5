"""JSON wire format for placements and certificates.

Everything here is about moving exact rationals through JSON without
losing a bit: integers stay integers, everything else crosses the wire
as a "p/q" string.  Serialization is canonical -- keys sorted, fixed
indentation, trailing newline -- so that re-running a command on the
same input produces byte-identical files, which makes certificates
diffable and lets the test suite compare them as strings.

Two document types travel between commands: a PlacementDocument (a
region, its guards, and how they were made) and a CertificateDocument
(what a verification run concluded).  Parsing is strict: unknown region
kinds, malformed rationals, or missing fields raise DocumentError
rather than guessing.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Union

from .darkness import GuardSet
from .geometry import ConvexPolygon, Point2, SimplePolygon, Wedge

Region = Union[ConvexPolygon, Wedge, SimplePolygon]

_RAT_RE = re.compile(r"^(-?\d+)/([1-9]\d*)$")


class DocumentError(ValueError):
    """A document failed to parse or failed its invariants."""


def rat_to_json(value) -> Union[int, str]:
    """One exact rational as a JSON scalar: int when possible, else "p/q"."""
    f = Fraction(value)
    if f.denominator == 1:
        return int(f)
    return "%d/%d" % (f.numerator, f.denominator)


def rat_from_json(value) -> Fraction:
    if isinstance(value, bool):
        raise DocumentError("expected a rational, got %r" % (value,))
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        m = _RAT_RE.match(value)
        if m:
            return Fraction(int(m.group(1)), int(m.group(2)))
    raise DocumentError("not a rational (int or \"p/q\"): %r" % (value,))


def _typed(value, kind: type, field: str):
    """value when its type is exactly kind (int or bool: true is not an
    integer here), else DocumentError."""
    if type(value) is kind:
        return value
    raise DocumentError("%s must be %s, got %r" % (field, kind.__name__, value))


def point_to_json(p: Point2) -> List[Union[int, str]]:
    return [rat_to_json(p.x), rat_to_json(p.y)]


def point_from_json(value) -> Point2:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise DocumentError("a point is a [x, y] pair, got %r" % (value,))
    return Point2(rat_from_json(value[0]), rat_from_json(value[1]))


def region_to_dict(region: Region) -> dict:
    if isinstance(region, ConvexPolygon):
        return {
            "kind": "convex",
            "vertices": [point_to_json(v) for v in region.vertices],
        }
    if isinstance(region, SimplePolygon):
        return {
            "kind": "simple",
            "vertices": [point_to_json(v) for v in region.vertices],
        }
    if isinstance(region, Wedge):
        return {
            "kind": "wedge",
            "apex": point_to_json(region.apex),
            "directions": [point_to_json(region.dir1), point_to_json(region.dir2)],
        }
    raise DocumentError("cannot serialize region %r" % (region,))


def region_from_dict(d) -> Region:
    if not isinstance(d, dict):
        raise DocumentError("a region descriptor is an object, got %r" % (d,))
    kind = d.get("kind")
    try:
        if kind == "convex":
            return ConvexPolygon([point_from_json(v) for v in d["vertices"]])
        if kind == "simple":
            return SimplePolygon([point_from_json(v) for v in d["vertices"]])
        if kind == "wedge":
            d1, d2 = d["directions"]
            return Wedge(
                point_from_json(d["apex"]),
                point_from_json(d1),
                point_from_json(d2),
            )
    except KeyError as exc:
        raise DocumentError("region descriptor missing %s" % (exc,)) from None
    raise DocumentError("unknown region kind %r" % (kind,))


def _scalar_to_json(value):
    """Metadata parameter values: bool/int/str pass through, rationals wrap."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return rat_to_json(value)
    raise DocumentError("unsupported parameter value %r" % (value,))


def _scalar_from_json(value):
    if isinstance(value, str):
        m = _RAT_RE.match(value)
        if m:
            return Fraction(int(m.group(1)), int(m.group(2)))
    return value


def _dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class _Document:
    """An immutable document with a canonical JSON text: subclasses give
    to_dict and from_dict, and compare and hash by them."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self):
        return hash(self.dumps())

    def dumps(self) -> str:
        return _dumps(self.to_dict())

    @classmethod
    def loads(cls, text: str):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DocumentError("invalid JSON: %s" % (exc,)) from None
        return cls.from_dict(payload)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.dumps())

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.loads(fh.read())


class PlacementDocument(_Document):
    """A region, its guards, and the recipe that produced them."""

    __slots__ = ("region", "guards", "name", "parameters", "seed")

    def __init__(
        self,
        region: Region,
        guards,
        name: str = "",
        parameters: Optional[Dict[str, object]] = None,
        seed: Optional[int] = None,
    ):
        object.__setattr__(self, "region", region)
        object.__setattr__(self, "guards", GuardSet.coerce(guards))
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "parameters", dict(parameters or {}))
        object.__setattr__(self, "seed", None if seed is None else int(seed))

    def __repr__(self):
        return "PlacementDocument(%r, %d guards)" % (self.name, len(self.guards))

    def to_dict(self) -> dict:
        return {
            "region": region_to_dict(self.region),
            "guards": [point_to_json(g) for g in self.guards],
            "metadata": {
                "name": self.name,
                "parameters": {
                    key: _scalar_to_json(self.parameters[key])
                    for key in sorted(self.parameters)
                },
                "seed": self.seed,
            },
        }

    @classmethod
    def from_dict(cls, d) -> "PlacementDocument":
        if not isinstance(d, dict):
            raise DocumentError("a placement document is an object, got %r" % (d,))
        if "placement" in d and "region" not in d:
            d = d["placement"]  # combined construct output: unwrap
            if not isinstance(d, dict):
                raise DocumentError("'placement' must be an object, got %r" % (d,))
        try:
            region = region_from_dict(d["region"])
            guards = [point_from_json(g) for g in d["guards"]]
        except KeyError as exc:
            raise DocumentError("placement document missing %s" % (exc,)) from None
        meta = d.get("metadata", {})
        if not isinstance(meta, dict):
            raise DocumentError("metadata must be an object, got %r" % (meta,))
        seed = meta.get("seed")
        if seed is not None:
            seed = _typed(seed, int, "seed")
        raw = meta.get("parameters", {})
        if not isinstance(raw, dict):
            raise DocumentError("parameters must be an object, got %r" % (raw,))
        params = {key: _scalar_from_json(raw[key]) for key in raw}
        return cls(region, guards, meta.get("name", ""), params, seed)


class JDarkResult:
    """Outcome of one has-a-j-dark-point query inside a certificate."""

    __slots__ = ("j", "found", "witness")

    def __init__(self, j: int, found: bool, witness: Optional[Point2] = None):
        object.__setattr__(self, "j", int(j))
        object.__setattr__(self, "found", bool(found))
        object.__setattr__(self, "witness", witness)

    def __setattr__(self, name, value):
        raise AttributeError("JDarkResult is immutable")

    def __repr__(self):
        return "JDarkResult(j=%d, found=%r)" % (self.j, self.found)


def sampler_to_json(spec) -> Optional[dict]:
    """The sampler tuples of the sampling module, as JSON objects."""
    if spec is None:
        return None
    kind = spec[0]
    if kind == "grid":
        return {"kind": "grid", "resolution": int(spec[1])}
    if kind == "random":
        return {"kind": "random", "seed": int(spec[1]), "count": int(spec[2])}
    if kind == "points":
        pts = [p if isinstance(p, Point2) else Point2(p[0], p[1]) for p in spec[1]]
        return {"kind": "points", "points": [point_to_json(p) for p in pts]}
    raise DocumentError("unknown sampler spec %r" % (spec,))


def sampler_from_json(d):
    if d is None:
        return None
    if not isinstance(d, dict):
        raise DocumentError("a sampler spec is an object, got %r" % (d,))
    kind = d.get("kind")
    try:
        if kind == "grid":
            return ("grid", _typed(d["resolution"], int, "resolution"))
        if kind == "random":
            return ("random", _typed(d["seed"], int, "seed"), _typed(d["count"], int, "count"))
        if kind == "points":
            return ("points", tuple(point_from_json(p) for p in d["points"]))
    except KeyError as exc:
        raise DocumentError("sampler spec missing %s" % (exc,)) from None
    raise DocumentError("unknown sampler kind %r" % (kind,))


class CertificateDocument(_Document):
    """What one verification run concluded about one placement.

    Exact mode states the true minimum depth over the whole region;
    sampled mode states the minimum over its samples, which only ever
    over-estimates.  The witness is a point attaining the reported
    bound.  j_dark carries the outcomes of any explicit darkness
    queries that were run alongside.  sampler is the extra sample
    source used in sampled mode; null there means the verifier's own
    built-in set (vertices, guards, and dark-ray crossings) alone.
    """

    __slots__ = (
        "mode",
        "guard_count",
        "min_depth",
        "max_darkness",
        "witness",
        "j_dark",
        "sampler",
    )

    def __init__(
        self,
        mode: str,
        guard_count: int,
        min_depth: int,
        max_darkness: int,
        witness: Optional[Point2],
        j_dark: Sequence[JDarkResult] = (),
        sampler=None,
    ):
        if mode not in ("exact", "sampled"):
            raise DocumentError("mode must be 'exact' or 'sampled', got %r" % (mode,))
        if mode == "exact" and sampler is not None:
            raise DocumentError("exact certificates carry no sampler spec")
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "guard_count", int(guard_count))
        object.__setattr__(self, "min_depth", int(min_depth))
        object.__setattr__(self, "max_darkness", int(max_darkness))
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "j_dark", tuple(j_dark))
        object.__setattr__(self, "sampler", sampler)

    def __repr__(self):
        return "CertificateDocument(%s, g=%d, min_depth=%d)" % (
            self.mode,
            self.guard_count,
            self.min_depth,
        )

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "guard_count": self.guard_count,
            "min_depth": self.min_depth,
            "max_darkness": self.max_darkness,
            "witness": None if self.witness is None else point_to_json(self.witness),
            "j_dark": [
                {
                    "j": r.j,
                    "found": r.found,
                    "witness": None if r.witness is None else point_to_json(r.witness),
                }
                for r in self.j_dark
            ],
            "sampler": sampler_to_json(self.sampler),
        }

    @classmethod
    def from_dict(cls, d) -> "CertificateDocument":
        if not isinstance(d, dict):
            raise DocumentError("a certificate document is an object, got %r" % (d,))
        try:
            witness = d["witness"]
            results = [
                JDarkResult(
                    _typed(r["j"], int, "j"),
                    _typed(r["found"], bool, "found"),
                    None if r["witness"] is None else point_from_json(r["witness"]),
                )
                for r in d["j_dark"]
            ]
            return cls(
                d["mode"],
                _typed(d["guard_count"], int, "guard_count"),
                _typed(d["min_depth"], int, "min_depth"),
                _typed(d["max_darkness"], int, "max_darkness"),
                None if witness is None else point_from_json(witness),
                results,
                sampler_from_json(d.get("sampler")),
            )
        except KeyError as exc:
            raise DocumentError("certificate document missing %s" % (exc,)) from None
