"""Exact 2-D geometry kernel built on rational arithmetic.

The public API holds ``fractions.Fraction`` coordinates: ``Point2`` (with
``cross`` and ``orientation``), ``Line``, ``Halfplane`` with
``line_intersection`` and ``halfplane_intersection``, ``convex_hull``, and
the regions ``ConvexPolygon``, ``Wedge`` and ``SimplePolygon`` with their
``where`` and ``clip_line``.  Each is decided exactly, and most decide on
integers behind the Fraction interface: both polygon kinds keep integer
copies of their vertices that their validation and ``where`` (through
``_locate``) read, and ``halfplane_intersection`` and ``clip_line`` clip
with ``_clip``.

The engine decides only on frame integers.  ``_Frame`` is the one place
where a scene is scaled whole: a region and some points times one lcm,
with homogeneous integers for any other point and a way back to
``Point2``.  The exact darkness engine (its certificates, the boundary
census and the concurrency check), the sampler, the guard placers and the
simple-polygon triangulation read a frame's or a polygon's integers, test
them with integer signs (``_orient``, ``_locate``), take a convex region
as the frame's integer halfplanes (``_halfplanes``) and clip lines with
``_clip``; Fractions come back only in the points and values they report.
Floats are rejected at construction time: if you need to import measured
data, convert it to rationals yourself and own the rounding.
Every immutable value type of the package subclasses ``_Frozen``, which
refuses assignment and deletion and copies and pickles by slot.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from ._filter import _FLOAT_BITS

Rat = Fraction
RatLike = Union[int, Fraction, str]


def as_rat(value: RatLike) -> Rat:
    """Coerce to an exact rational.  Floats raise TypeError on purpose."""
    if isinstance(value, float):
        raise TypeError(
            "float %r is not allowed here; pass int, Fraction or 'p/q' string"
            % (value,)
        )
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError("cannot interpret %r as a rational number" % (value,))


def as_int(value, name: str) -> int:
    """value, when it is an int: a count, a depth or a seed.  Anything
    else raises TypeError naming it, bools, integral floats, Fractions
    and digit strings included, so no caller truncates or rounds."""
    if type(value) is not int:
        raise TypeError("%s must be an int, got %r" % (name, value))
    return value


def _thaw(cls, state):
    """The instance of cls whose slots hold state's (name, value) pairs:
    what copy and pickle rebuild a _Frozen value with."""
    obj = cls.__new__(cls)
    for name, value in state:
        object.__setattr__(obj, name, value)
    return obj


class _Frozen:
    """An immutable value: assignment and deletion raise AttributeError.
    Constructors write their slots with object.__setattr__.  copy and
    pickle restore the slots of every class along the MRO (no
    constructor reruns), except that a private slot is a cache and comes
    back as None."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __reduce__(self):
        state = tuple(
            (name, None if name.startswith("_") else getattr(self, name))
            for cls in type(self).__mro__ for name in cls.__dict__.get("__slots__", ()))
        return (_thaw, (type(self), state))


class Point2(_Frozen):
    """Immutable exact point (also used as a 2-vector)."""

    __slots__ = ("x", "y")

    def __init__(self, x: RatLike, y: RatLike):
        object.__setattr__(self, "x", as_rat(x))
        object.__setattr__(self, "y", as_rat(y))

    def __eq__(self, other):
        if not isinstance(other, Point2):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def __add__(self, other: "Point2") -> "Point2":
        return Point2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point2") -> "Point2":
        return Point2(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: RatLike) -> "Point2":
        s = as_rat(scalar)
        return Point2(self.x * s, self.y * s)

    __rmul__ = __mul__

    def __neg__(self) -> "Point2":
        return Point2(-self.x, -self.y)

    def __repr__(self):
        return "Point2(%s, %s)" % (self.x, self.y)

    def cross(self, other: "Point2") -> Rat:
        return self.x * other.y - self.y * other.x

    def dot(self, other: "Point2") -> Rat:
        return self.x * other.x + self.y * other.y

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0


def cross(o: Point2, a: Point2, b: Point2) -> Rat:
    """Signed area*2 of triangle (o, a, b)."""
    return (a - o).cross(b - o)


def orientation(o: Point2, a: Point2, b: Point2) -> int:
    """+1 if o->a->b turns left, -1 if right, 0 if collinear."""
    c = cross(o, a, b)
    if c > 0:
        return 1
    if c < 0:
        return -1
    return 0


def primitive_direction(d: Point2) -> Point2:
    """Scale a nonzero rational vector to a canonical primitive integer
    vector (gcd 1, positive x, or x == 0 and positive y)."""
    if d.is_zero():
        raise ValueError("zero vector has no direction")
    nx, ny = d.x.numerator, d.y.numerator
    dx, dy = d.x.denominator, d.y.denominator
    # common integer form: multiply by lcm of denominators
    ax = nx * dy
    ay = ny * dx
    g = gcd(abs(ax), abs(ay))
    ax //= g
    ay //= g
    if ax < 0 or (ax == 0 and ay < 0):
        ax, ay = -ax, -ay
    return Point2(ax, ay)


def _forward_step(d: Point2) -> Point2:
    """Primitive integer vector pointing the same way as d."""
    step = primitive_direction(d)
    return step if step.dot(d) > 0 else Point2(-step.x, -step.y)


class _LineRelation:
    """Singleton markers for degenerate line/line configurations."""

    __slots__ = ("_name",)

    def __init__(self, name):
        self._name = name

    def __repr__(self):
        return self._name


PARALLEL = _LineRelation("PARALLEL")
COINCIDENT = _LineRelation("COINCIDENT")


class Line(_Frozen):
    """Oriented line a*x + b*y = c through two distinct points.

    The positive side (side() == +1) is the left side when walking from
    the first defining point to the second.
    """

    __slots__ = ("a", "b", "c")

    def __init__(self, a: RatLike, b: RatLike, c: RatLike):
        a, b, c = as_rat(a), as_rat(b), as_rat(c)
        if a == 0 and b == 0:
            raise ValueError("degenerate line: a == b == 0")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @classmethod
    def through(cls, p: Point2, q: Point2) -> "Line":
        if p == q:
            raise ValueError("need two distinct points to span a line")
        a = p.y - q.y
        b = q.x - p.x
        return cls(a, b, a * p.x + b * p.y)

    def eval(self, p: Point2) -> Rat:
        return self.a * p.x + self.b * p.y - self.c

    def side(self, p: Point2) -> int:
        v = self.eval(p)
        if v > 0:
            return 1
        if v < 0:
            return -1
        return 0

    def contains(self, p: Point2) -> bool:
        return self.eval(p) == 0

    def direction(self) -> Point2:
        return Point2(self.b, -self.a)

    def __repr__(self):
        return "Line(%s, %s, %s)" % (self.a, self.b, self.c)


def line_intersection(l1: Line, l2: Line):
    """Intersection point of two lines, or PARALLEL / COINCIDENT."""
    det = l1.a * l2.b - l2.a * l1.b
    if det == 0:
        # same line iff the coefficient triples are proportional
        if l1.a * l2.c == l2.a * l1.c and l1.b * l2.c == l2.b * l1.c:
            return COINCIDENT
        return PARALLEL
    x = (l1.c * l2.b - l2.c * l1.b) / det
    y = (l1.a * l2.c - l2.a * l1.c) / det
    return Point2(x, y)


class Halfplane(_Frozen):
    """Closed halfplane: the set of points p with line.eval(p) >= 0.

    Built from an oriented line; keeps the left side of p -> q.
    """

    __slots__ = ("line",)

    def __init__(self, line: Line):
        object.__setattr__(self, "line", line)

    @classmethod
    def left_of(cls, p: Point2, q: Point2) -> "Halfplane":
        return cls(Line.through(p, q))

    def contains(self, p: Point2, strict: bool = False) -> bool:
        v = self.line.eval(p)
        return v > 0 if strict else v >= 0

    def __repr__(self):
        return "Halfplane(%r)" % (self.line,)


class HalfplaneResult:
    """Outcome of intersecting halfplanes.

    status is one of 'empty', 'bounded', 'unbounded'.  ``vertices`` are
    the region's corners (points on two non-parallel constraint lines):
    ccw from the lexicographically smallest when there are 3 or more,
    else in lexicographic (x, y) order, whatever the input order.
    """

    __slots__ = ("status", "vertices")

    def __init__(self, status: str, vertices: Sequence[Point2]):
        self.status = status
        self.vertices = list(vertices)

    def __repr__(self):
        return "HalfplaneResult(%r, %d vertices)" % (self.status, len(self.vertices))


def _clip(X: int, Y: int, W: int, dx: int, dy: int, halfplanes):
    """Clip the line (X/W, Y/W) + t*(dx, dy), W > 0, to the closed
    integer halfplanes a*x + b*y >= c.

    Returns (lo, hi), each end (num, den, j) with den > 0: the bound
    num/den on t and the index j of the halfplane that sets it, the first
    one on a tie.  An end that no halfplane bounds is None, and None
    stands for an empty clip.  Halfplane j keeps rate*W*t >= r, with
    rate = a*dx + b*dy and r = c*W - a*X - b*Y: a lower bound for
    rate > 0, an upper one for rate < 0, and a parallel halfplane
    (rate == 0) keeps all of the line when r <= 0, else none of it.
    Bounds on W*t compare by cross-multiplication, and the clip can only
    empty when a bound moves, so each move checks lo > hi.
    """
    lo = hi = None  # the j of each end; lo_n/lo_d and hi_n/hi_d bound W*t
    for j, (a, b, c) in enumerate(halfplanes):
        rate = a * dx + b * dy
        r = c * W - a * X - b * Y
        if rate > 0:
            if lo is None or r * lo_d > lo_n * rate:
                lo, lo_n, lo_d = j, r, rate
                if hi is not None and r * hi_d > hi_n * rate:
                    return None
        elif rate < 0:
            if hi is None or r * hi_d > hi_n * rate:
                hi, hi_n, hi_d = j, -r, -rate
                if lo is not None and lo_n * -rate > -r * lo_d:
                    return None
        elif r > 0:
            return None
    return (None if lo is None else (lo_n, lo_d * W, lo),
            None if hi is None else (hi_n, hi_d * W, hi))


def halfplane_intersection(halfplanes: Sequence[Halfplane]) -> HalfplaneResult:
    """Intersect closed halfplanes exactly in O(h^2) integer steps.

    Every constraint line a*x + b*y = c, scaled to integers, is clipped
    (_clip) by every constraint along (b, -a), from a point with small
    integers: (X, Y, W) = (0, c, b), or (c, 0, a) where b = 0, with W
    made positive, so each r of _clip is a product of two coefficients.
    The region is empty when no line keeps a piece, unbounded when a
    kept piece has an open end, and its corners are the kept pieces'
    ends: each where its line meets the constraint that set that end,
    kept as a primitive integer triple (X, Y, W), W > 0.  _hull_corners
    orders them at one lcm of their W's, and a Point2 is built only for
    each corner it returns.
    """
    hs = list(halfplanes)
    if not hs:
        return HalfplaneResult("unbounded", [])
    lines = []
    for h in hs:
        a, b, c = h.line.a, h.line.b, h.line.c
        m = lcm(a.denominator, b.denominator, c.denominator)
        lines.append((a.numerator * (m // a.denominator), b.numerator * (m // b.denominator),
                       c.numerator * (m // c.denominator)))

    corners = set()
    kept = unbounded = False
    for a, b, c in lines:
        X, Y, W = (0, c, b) if b else (c, 0, a)
        if W < 0:
            X, Y, W = -X, -Y, -W
        ends = _clip(X, Y, W, b, -a, lines)
        if ends is None:
            continue
        kept = True
        for end in ends:
            if end is None:
                unbounded = True
                continue
            aj, bj, cj = lines[end[2]]
            x, y, w = c * bj - cj * b, a * cj - aj * c, a * bj - aj * b
            g = gcd(x, y, w) if w > 0 else -gcd(x, y, w)
            corners.add((x // g, y // g, w // g))
    if not kept:
        return HalfplaneResult("empty", [])
    corners = list(corners)
    m = lcm(*(W for _, _, W in corners))
    ring = _hull_corners([(X * (m // W), Y * (m // W)) for X, Y, W in corners])
    return HalfplaneResult("unbounded" if unbounded else "bounded",
                           [Point2(Fraction(X, W), Fraction(Y, W))
                            for X, Y, W in (corners[i] for i in ring)])


class HullResult:
    """Convex hull with a label for every input point.

    labels[i] is 'corner' (extreme point), 'edge' (on the hull boundary
    but not extreme) or 'interior'.  corners are in ccw order starting
    from the lexicographically smallest.  degenerate is True when all
    inputs are collinear (fewer than 3 corners).
    """

    __slots__ = ("corners", "labels", "degenerate")

    def __init__(self, corners, labels, degenerate):
        self.corners = corners
        self.labels = labels
        self.degenerate = degenerate


def _hull_corners(pairs) -> list:
    """Indices of the convex hull corners of integer pairs, in ccw order
    from the lexicographically smallest pair: a monotone chain.

    Points on a hull edge are not corners.  Collinear input gives the
    indices of its two extreme pairs, a single distinct pair one index
    and no pairs none; where pairs repeat, the first index of each is
    used.
    """
    order = []
    for i in sorted(range(len(pairs)), key=pairs.__getitem__):
        if not order or pairs[order[-1]] != pairs[i]:
            order.append(i)
    if len(order) <= 1:
        return order

    def build(seq):
        chain = []
        for i in seq:
            while len(chain) >= 2 and _orient(pairs[chain[-2]], pairs[chain[-1]], pairs[i]) <= 0:
                chain.pop()
            chain.append(i)
        return chain

    corners = build(order)[:-1] + build(reversed(order))[:-1]
    return corners if len(corners) >= 3 else [order[0], order[-1]]


def convex_hull(points: Sequence[Point2]) -> HullResult:
    """Monotone-chain convex hull over exact coordinates, decided on the
    points scaled to integers."""
    pts = list(points)
    if not pts:
        return HullResult([], [], True)
    _, ints = _integers(pts)
    idx = _hull_corners(ints)
    corners = [pts[i] for i in idx]
    ring = [ints[i] for i in idx]
    corner_set = set(ring)
    if len(ring) < 3:
        return HullResult(corners, ["corner" if p in corner_set else "edge" for p in ints], True)
    labels = []
    for p in ints:
        if p in corner_set:
            labels.append("corner")
        elif any(_on_closed(p, a, b) for a, b in zip(ring, ring[1:] + ring[:1])):
            labels.append("edge")
        else:
            labels.append("interior")
    return HullResult(corners, labels, False)


def centroid(points: Sequence[Point2]) -> Point2:
    pts = list(points)
    if not pts:
        raise ValueError("centroid of nothing")
    sx = sum((p.x for p in pts), Fraction(0))
    sy = sum((p.y for p in pts), Fraction(0))
    n = len(pts)
    return Point2(sx / n, sy / n)


class _Region(_Frozen):
    """A closed region that says where a point lies: 'interior',
    'boundary' or 'exterior'."""

    __slots__ = ()

    def contains(self, p: Point2, closed: bool = True) -> bool:
        w = self.where(p)
        if w == "interior":
            return True
        return closed and w == "boundary"


class _Polygon(_Region):
    """Vertices (ccw) with their integer form: ``scale`` is the lcm of
    the vertices' denominators and ``ints`` the vertices times scale, as
    integer pairs, which subclasses validate and ``where`` reads through
    ``_locate``."""

    __slots__ = ("vertices", "scale", "ints")

    def __init__(self, vertices, scale, ints):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "ints", ints)

    def __len__(self):
        return len(self.vertices)

    def __repr__(self):
        return "%s(%d vertices)" % (type(self).__name__, len(self.vertices))

    def where(self, p: Point2) -> str:
        """'interior', 'boundary' or 'exterior'."""
        return _locate(self.ints, *_homogeneous(p, self.scale))

    def edges(self):
        vs = self.vertices
        n = len(vs)
        for i in range(n):
            yield vs[i], vs[(i + 1) % n]

    def bounding_box(self):
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
        return (min(xs), min(ys), max(xs), max(ys))


class ConvexPolygon(_Polygon):
    """Strictly convex polygon, vertices in ccw order.

    Rejects anything with repeated, collinear or clockwise vertices, and
    vertex lists that wind around more than once (a star): the
    constructions downstream rely on every vertex being a proper corner.
    Validation reads ``ints``: every corner turns left, and the hull of
    the vertices (_hull_corners) is all of them in their own order.
    """

    __slots__ = ()

    def __init__(self, vertices: Iterable[Point2]):
        vs = list(vertices)
        if len(vs) < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        n = len(vs)
        scale, iv = _integers(vs)
        for i in range(n):
            o = _orient(iv[i], iv[(i + 1) % n], iv[(i + 2) % n])
            if o < 0:
                raise ValueError("vertices must wind counterclockwise")
            if o == 0:
                raise ValueError(
                    "degenerate corner at index %d (repeated or collinear vertices)"
                    % ((i + 1) % n)
                )
        hull = _hull_corners(iv)
        if hull != [(hull[0] + i) % n for i in range(n)]:
            raise ValueError("vertices wind around more than once (a star is not convex)")
        super().__init__(vs, scale, iv)

    def halfplanes(self):
        return [Halfplane.left_of(a, b) for a, b in self.edges()]

    def clip_line(self, anchor: Point2, d: Point2):
        """Parameter interval (t_min, t_max) of {anchor + t*d} inside the
        closed polygon, or None when the line misses the polygon."""
        return _clip_line(self, anchor, d)


class Wedge(_Region):
    """Unbounded convex region: apex plus the cone between two rays.

    The two edge directions are stored so that cross(first, second) > 0,
    i.e. the region is swept ccw from the first ray to the second and the
    opening angle is < 180 degrees.
    """

    __slots__ = ("apex", "dir1", "dir2")

    def __init__(self, apex: Point2, dir1: Point2, dir2: Point2):
        if dir1.is_zero() or dir2.is_zero():
            raise ValueError("wedge edge directions must be nonzero")
        c = dir1.cross(dir2)
        if c == 0:
            raise ValueError("wedge edges must not be parallel")
        if c < 0:
            dir1, dir2 = dir2, dir1
        object.__setattr__(self, "apex", apex)
        object.__setattr__(self, "dir1", dir1)
        object.__setattr__(self, "dir2", dir2)

    def __repr__(self):
        return "Wedge(apex=%r)" % (self.apex,)

    def halfplanes(self):
        # inside = left of (apex -> apex+dir1) and left of (apex+dir2 -> apex)
        return [
            Halfplane.left_of(self.apex, self.apex + self.dir1),
            Halfplane.left_of(self.apex + self.dir2, self.apex),
        ]

    def where(self, p: Point2) -> str:
        # the signs of p against the integer halfplanes of a frame of it
        frame = _Frame(self, [p])
        (X, Y), = frame.ints
        s1, s2 = (a * X + b * Y - c for a, b, c in _halfplanes(self, frame.walls))
        if s1 < 0 or s2 < 0:
            return "exterior"
        if s1 == 0 or s2 == 0:
            return "boundary"
        return "interior"

    def clip_line(self, anchor: Point2, d: Point2):
        """Interval of the line inside the wedge; ends may be None (open)."""
        return _clip_line(self, anchor, d)


def _integers(points: Sequence[Point2], base: int = 1):
    """(scale, [(x, y), ...]): the points times scale, the lcm of base
    and of their denominators."""
    scale = lcm(base, *(c.denominator for p in points for c in (p.x, p.y)))
    return scale, [(p.x.numerator * (scale // p.x.denominator),
                    p.y.numerator * (scale // p.y.denominator)) for p in points]


def _homogeneous(p: Point2, scale: int):
    """Integers (X, Y, W), W > 0, with (X/W, Y/W) = scale * p."""
    x, y = p.x, p.y
    gx = gcd(scale, x.denominator)
    gy = gcd(scale, y.denominator)
    dx = x.denominator // gx
    dy = y.denominator // gy
    w = dx * dy // gcd(dx, dy)
    return (x.numerator * (scale // gx) * (w // dx),
            y.numerator * (scale // gy) * (w // dy), w)


class _Frame:
    """A region and some points, scaled to integers by one factor.

    The region is a ConvexPolygon or a SimplePolygon, whose vertices
    (ccw) are its walls, a Wedge, whose one wall is its apex, or None,
    the whole plane, with no walls.  ``scale`` is the lcm of every
    denominator of the walls and of the points; ``walls`` and ``ints``
    hold them times scale, as integer pairs.  ``sample(p)`` gives
    homogeneous integers (X, Y, W), W > 0, with (X/W, Y/W) = scale * p,
    and ``point`` maps them back.  ``unit`` divides the frame's integers
    into the sampler's float columns: scale, or past 2^_FLOAT_BITS (where
    ``_filter`` derives it) scale times the power of two that brings the
    largest coordinate into (1, 4).
    """

    __slots__ = ("scale", "walls", "ints", "unit")

    def __init__(self, region, pts: Sequence[Point2]):
        if isinstance(region, _Polygon):
            base, walls = region.scale, region.ints
        elif isinstance(region, Wedge):
            base, walls = _integers([region.apex])
        elif region is None:
            base, walls = 1, []
        else:
            raise TypeError("region must be a polygon, a Wedge or None, got %r" % (region,))
        self.scale, self.ints = _integers(pts, base)
        f = self.scale // base
        self.walls = [(x * f, y * f) for x, y in walls]
        self._set_unit()

    def _set_unit(self):
        # the largest coordinate lies in (2^(bits-1), 2^(bits+1))
        top = max((max(abs(x), abs(y)) for x, y in self.walls + self.ints), default=0)
        bits = top.bit_length() - self.scale.bit_length()
        self.unit = self.scale << (bits - 1) if bits > _FLOAT_BITS else self.scale

    def prefix(self, g: int) -> "_Frame":
        """The frame of the same region and the first g points, at this
        frame's scale (a multiple of the scale theirs alone would take)."""
        frame = object.__new__(_Frame)
        frame.scale, frame.walls, frame.ints = self.scale, self.walls, self.ints[:g]
        frame._set_unit()
        return frame

    def sample(self, p: Point2):
        return _homogeneous(p, self.scale)

    def point(self, s) -> Point2:
        X, Y, W = s
        d = W * self.scale
        return Point2(Fraction(X, d), Fraction(Y, d))

    def corners(self):
        """The walls, then the points, as homogeneous samples."""
        return [(x, y, 1) for x, y in self.walls + self.ints]


def _halfplanes(region, walls):
    """The closed convex region as integer halfplanes a*x + b*y >= c,
    given the walls of its frame: a ConvexPolygon's ccw edges, a Wedge's
    two rays from its apex, and none for the whole plane (None)."""
    if isinstance(region, ConvexPolygon):
        hps = []
        for (px, py), (qx, qy) in zip(walls, walls[1:] + walls[:1]):
            a = py - qy
            b = qx - px
            hps.append((a, b, a * px + b * py))
        return hps
    if isinstance(region, Wedge):
        (ax, ay), = walls
        # primitive integer edge directions keep their orientation (the
        # sign decides which side is inside)
        d1, d2 = _forward_step(region.dir1), _forward_step(region.dir2)
        d1x, d1y, d2x, d2y = int(d1.x), int(d1.y), int(d2.x), int(d2.y)
        return [(-d1y, d1x, -d1y * ax + d1x * ay), (d2y, -d2x, d2y * ax - d2x * ay)]
    if region is None:
        return []
    raise TypeError("region must be ConvexPolygon or Wedge, got %r" % (region,))


def _clip_line(region, anchor: Point2, d: Point2):
    """(lo, hi) of {anchor + t*d} in the closed convex region, as
    Fractions or None for an open end, or None when the line misses it:
    _clip on a frame of the region, the anchor and d."""
    if d.is_zero():
        raise ValueError("zero direction")
    frame = _Frame(region, [anchor, d])
    (X, Y), (dx, dy) = frame.ints
    ends = _clip(X, Y, 1, dx, dy, _halfplanes(region, frame.walls))
    if ends is None:
        return None
    return tuple(None if end is None else Fraction(end[0], end[1]) for end in ends)


def _locate(verts, X: int, Y: int, W: int) -> str:
    """Where the point (X/W, Y/W), W > 0, lies against the closed
    polygon with integer vertices verts (ccw, no repeats).

    A point on some edge is 'boundary'; otherwise the parity of the
    edges crossed by the ray to +x decides 'interior' or 'exterior'.  An
    edge straddles the ray's height half-open, as (a.y > y) != (b.y > y),
    and is crossed right of the point when the point is on its left for
    an upward edge, on its right for a downward one.  The side test c
    is never 0 for a straddling edge that passed the boundary test.
    """
    inside = False
    ax, ay = verts[-1]
    for bx, by in verts:
        ex = bx - ax
        ey = by - ay
        rx = X - ax * W
        ry = Y - ay * W
        c = ex * ry - ey * rx
        if c == 0:
            if 0 <= ex * rx + ey * ry <= (ex * ex + ey * ey) * W:
                return "boundary"
        elif (ay * W > Y) != (by * W > Y) and (c > 0) == (ey > 0):
            inside = not inside
        ax, ay = bx, by
    return "interior" if inside else "exterior"


def _orient(a, b, c) -> int:
    """Sign of cross(a, b, c) over integer pairs."""
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def _on_closed(p, a, b) -> bool:
    """p lies on the closed segment [a, b] (integer pairs, a != b)."""
    ex = b[0] - a[0]
    ey = b[1] - a[1]
    rx = p[0] - a[0]
    ry = p[1] - a[1]
    return ex * ry == ey * rx and 0 <= ex * rx + ey * ry <= ex * ex + ey * ey


def _segments_meet(a, b, c, d) -> bool:
    """Closed segments [a, b] and [c, d] of integer pairs share a point."""
    o1 = _orient(a, b, c)
    o2 = _orient(a, b, d)
    o3 = _orient(c, d, a)
    o4 = _orient(c, d, b)
    if o1 != o2 and o3 != o4:
        return True
    return ((o1 == 0 and _on_closed(c, a, b)) or (o2 == 0 and _on_closed(d, a, b))
            or (o3 == 0 and _on_closed(a, c, d)) or (o4 == 0 and _on_closed(b, c, d)))


class SimplePolygon(_Polygon):
    """Simple (non-self-intersecting) polygon, ccw, possibly reflex.

    Validation is the straightforward quadratic pass over edge pairs, on
    ``ints``: every test in it is a sign, which a positive scale keeps.
    """

    __slots__ = ()

    def __init__(self, vertices: Iterable[Point2]):
        vs = list(vertices)
        n = len(vs)
        if n < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        if len(set(vs)) != n:
            raise ValueError("repeated vertex")
        scale, iv = _integers(vs)
        for i in range(n):
            a, b = iv[i], iv[(i + 1) % n]
            if a == b:
                raise ValueError("zero-length edge")
            for j in range(i + 1, n):
                c, d = iv[j], iv[(j + 1) % n]
                if (j + 1) % n == i or (i + 1) % n == j:
                    # adjacent edges may continue straight through the shared
                    # vertex (a "straight" vertex) but must not fold back:
                    # collinear, their directions must not point apart
                    if (_orient(a, b, c) == 0 and _orient(a, b, d) == 0
                            and (b[0] - a[0]) * (d[0] - c[0]) + (b[1] - a[1]) * (d[1] - c[1]) < 0):
                        raise ValueError("adjacent edges overlap")
                    continue
                if _segments_meet(a, b, c, d):
                    raise ValueError("edges %d and %d cross" % (i, j))
        area2 = sum(iv[i - 1][0] * iv[i][1] - iv[i - 1][1] * iv[i][0] for i in range(n))
        if area2 <= 0:
            raise ValueError("vertices must wind counterclockwise")
        super().__init__(vs, scale, iv)

    # a binding of its own, which perfbench's tracer rebinds by this name
    where = _Polygon.where
