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
from .geometry import ConvexPolygon, Point2, SimplePolygon, Wedge, _Frozen

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


def _at_least(value, low: int, field: str):
    """value when it is an int of at least low, else DocumentError."""
    if _typed(value, int, field) < low:
        raise DocumentError("%s must be at least %d, got %r" % (field, low, value))
    return value


def _array(value, field: str):
    """value when it is a JSON array (a list or tuple), else DocumentError."""
    if isinstance(value, (list, tuple)):
        return value
    raise DocumentError("%s must be an array, got %r" % (field, value))


def _built(make, field: str, *args):
    """make(*args), with a ValueError of the constructor (a clockwise or
    crossing vertex list, co-located guards) as a DocumentError naming
    field."""
    try:
        return make(*args)
    except ValueError as exc:
        raise DocumentError("%s: %s" % (field, exc)) from None


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
        if kind in ("convex", "simple"):
            vertices = [point_from_json(v) for v in _array(d["vertices"], "vertices")]
            make = ConvexPolygon if kind == "convex" else SimplePolygon
            return _built(make, "vertices", vertices)
        if kind == "wedge":
            directions = _array(d["directions"], "directions")
            if len(directions) != 2:
                raise DocumentError("directions must hold two points, got %r" % (directions,))
            apex = point_from_json(d["apex"])
            return _built(Wedge, "directions", apex, *map(point_from_json, directions))
    except KeyError as exc:
        raise DocumentError("region descriptor missing %s" % (exc,)) from None
    raise DocumentError("unknown region kind %r" % (kind,))


def _scalar_to_json(value, field: str):
    """Metadata parameter values: bool/int/str pass through, rationals
    wrap.  Anything else (a float, an array) is a DocumentError naming
    field."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return rat_to_json(value)
    raise DocumentError("%s must be null, a bool, an int, a string or a rational, got %r"
                        % (field, value))


def _scalar_from_json(value, field: str):
    """A metadata parameter value as _scalar_to_json writes it back: null,
    a bool, an int or a string, with "p/q" strings read as rationals.
    Anything else (a float, an array, an object) is a DocumentError
    naming field."""
    if isinstance(value, str):
        m = _RAT_RE.match(value)
        if m:
            return Fraction(int(m.group(1)), int(m.group(2)))
        return value
    if value is None or type(value) in (bool, int):
        return value
    raise DocumentError("%s must be null, a bool, an int or a string, got %r" % (field, value))


def _dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class _Document(_Frozen):
    """An immutable document with a canonical JSON text: subclasses give
    to_dict and from_dict, and compare and hash by them."""

    __slots__ = ()

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
        # refuse here what to_dict could not write, with the checks of from_dict
        parameters = dict(parameters or {})
        for key, value in parameters.items():
            _scalar_to_json(value, "parameters.%s" % (_typed(key, str, "parameter name"),))
        object.__setattr__(self, "region", region)
        object.__setattr__(self, "guards", GuardSet.coerce(guards))
        object.__setattr__(self, "name", _typed(name, str, "name"))
        object.__setattr__(self, "parameters", parameters)
        object.__setattr__(self, "seed", None if seed is None else _typed(seed, int, "seed"))

    def __repr__(self):
        return "PlacementDocument(%r, %d guards)" % (self.name, len(self.guards))

    def to_dict(self) -> dict:
        return {
            "region": region_to_dict(self.region),
            "guards": [point_to_json(g) for g in self.guards],
            "metadata": {
                "name": self.name,
                "parameters": {
                    key: _scalar_to_json(self.parameters[key], "parameters.%s" % key)
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
            guards = [point_from_json(g) for g in _array(d["guards"], "guards")]
        except KeyError as exc:
            raise DocumentError("placement document missing %s" % (exc,)) from None
        guards = _built(GuardSet, "guards", guards)
        meta = d.get("metadata", {})
        if not isinstance(meta, dict):
            raise DocumentError("metadata must be an object, got %r" % (meta,))
        raw = meta.get("parameters", {})
        if not isinstance(raw, dict):
            raise DocumentError("parameters must be an object, got %r" % (raw,))
        params = {key: _scalar_from_json(raw[key], "parameters.%s" % key) for key in raw}
        return cls(region, guards, meta.get("name", ""), params, meta.get("seed"))


class JDarkResult(_Frozen):
    """Outcome of one has-a-j-dark-point query inside a certificate."""

    __slots__ = ("j", "found", "witness")

    def __init__(self, j: int, found: bool, witness: Optional[Point2] = None):
        object.__setattr__(self, "j", _typed(j, int, "j"))
        object.__setattr__(self, "found", _typed(found, bool, "found"))
        object.__setattr__(self, "witness", witness)

    def __repr__(self):
        return "JDarkResult(j=%d, found=%r)" % (self.j, self.found)


def sampler_to_json(spec) -> Optional[dict]:
    """The sampler tuples of the sampling module, as JSON objects.  A
    spec of another kind or length than the sampler takes is a
    DocumentError naming it, and so is a resolution, seed or count that
    is not an int, a resolution below 1 or a negative count, as in
    sampler_from_json."""
    if spec is None:
        return None
    shape = (spec[0], len(spec)) if isinstance(spec, (list, tuple)) and spec else None
    if shape not in (("grid", 2), ("random", 3), ("points", 2)):
        raise DocumentError("sampler spec %r is not ('grid', resolution), "
                            "('random', seed, count) or ('points', points)" % (spec,))
    kind = spec[0]
    if kind == "grid":
        return {"kind": "grid", "resolution": _at_least(spec[1], 1, "resolution")}
    if kind == "random":
        return {"kind": "random", "seed": _typed(spec[1], int, "seed"),
                "count": _at_least(spec[2], 0, "count")}
    try:
        pts = [p if isinstance(p, Point2) else Point2(*p) for p in spec[1]]
    except (TypeError, ValueError):
        raise DocumentError("sampler points must be Point2s or (x, y) pairs, got %r"
                            % (spec[1],)) from None
    return {"kind": "points", "points": [point_to_json(p) for p in pts]}


def sampler_from_json(d):
    if d is None:
        return None
    if not isinstance(d, dict):
        raise DocumentError("a sampler spec is an object, got %r" % (d,))
    kind = d.get("kind")
    try:
        if kind == "grid":
            return ("grid", _at_least(d["resolution"], 1, "resolution"))
        if kind == "random":
            return ("random", _typed(d["seed"], int, "seed"), _at_least(d["count"], 0, "count"))
        if kind == "points":
            return ("points", tuple(point_from_json(p) for p in _array(d["points"], "points")))
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
    The counts are ints with 0 <= max_darkness <= guard_count and
    min_depth == guard_count - max_darkness; the constructor refuses
    anything else with a DocumentError naming the field.
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
        sampler_to_json(sampler)  # refuse here a spec that to_dict could not write
        g = _typed(guard_count, int, "guard_count")
        if not 0 <= _typed(max_darkness, int, "max_darkness") <= g:
            raise DocumentError("max_darkness %d is outside [0, guard_count %d]"
                                % (max_darkness, g))
        if _typed(min_depth, int, "min_depth") != g - max_darkness:
            raise DocumentError("min_depth %d != guard_count %d - max_darkness %d"
                                % (min_depth, g, max_darkness))
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "guard_count", g)
        object.__setattr__(self, "min_depth", min_depth)
        object.__setattr__(self, "max_darkness", max_darkness)
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
            entries = _array(d["j_dark"], "j_dark")
            if not all(isinstance(r, dict) for r in entries):
                raise DocumentError("j_dark entries must be objects, got %r" % (entries,))
            results = [
                JDarkResult(
                    r["j"],
                    r["found"],
                    None if r["witness"] is None else point_from_json(r["witness"]),
                )
                for r in entries
            ]
            return cls(
                d["mode"],
                d["guard_count"],
                d["min_depth"],
                d["max_darkness"],
                None if witness is None else point_from_json(witness),
                results,
                sampler_from_json(d.get("sampler")),
            )
        except KeyError as exc:
            raise DocumentError("certificate document missing %s" % (exc,)) from None
