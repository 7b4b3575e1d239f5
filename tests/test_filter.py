"""The certified float filter against exact Fraction arithmetic.

Each primitive of ``darkgallery._filter`` runs on seeded inputs at scales
1, 2^53 - 1, 2^53 + 1, 2^520 and 2^1100, with near ties built in: every
sign it calls certain is the true sign, every bound covers the exact
error, the float-first sort is the exact stable sort, and values past the
float range come back unsure.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import inf, isfinite, nextafter, ulp

import numpy as np
import pytest

from darkgallery import sampling
from darkgallery._filter import (
    _FLOAT_BITS,
    _RATIO,
    _XY,
    _affine,
    _clusters,
    _floats,
    _interval,
    _leftmost,
    _margin,
    _midpoint,
    _nearest,
    _quotient_bound,
    _quotients,
    _rounding_bound,
    _scaled,
    _signs,
    _sorted_exact,
    _sorted_intervals,
    _sum_bound,
    _x_bounds,
)
from darkgallery.geometry import ConvexPolygon, Point2, _Frame

SCALES = [1, 2 ** 53 - 1, 2 ** 53 + 1, 2 ** 520, 2 ** 1100]
IDS = ["1", "2^53-1", "2^53+1", "2^520", "2^1100"]
ROWS = 150


def _ints(rng, scale):
    """An integer near a small multiple of scale."""
    return scale * rng.randrange(-64, 65) + rng.randrange(-3, 4)


def _near_crossings(rng, scale):
    """Columns (xi, yi, xj, yj, dxi, dyi, dxj, dyj) of integers at the
    scale: anchors i and j and directions, with j's offset from i within
    one unit of a multiple of j's direction in some rows, and the
    directions within one unit or 2^20 of parallel in others, so that
    un, vn or D nearly cancels."""
    rows = []
    for _ in range(ROWS):
        xi, yi = _ints(rng, scale), _ints(rng, scale)
        dxi, dyi, dxj, dyj = (_ints(rng, scale) or 1 for _ in range(4))
        kind = rng.randrange(4)
        if kind == 1:  # j's offset near a multiple of j's direction: un ~ 0
            k = rng.randrange(1, 5)
            xj, yj = xi + k * dxj + rng.randrange(-1, 2), yi + k * dyj + rng.randrange(-1, 2)
        elif kind == 2:  # directions nearly parallel: D ~ 0, or far below its terms
            step = rng.choice((1, 2 ** 20))
            dxj, dyj = 3 * dxi + step * rng.randrange(-1, 2), 3 * dyi + step * rng.randrange(-1, 2)
            xj, yj = _ints(rng, scale), _ints(rng, scale)
        else:
            xj, yj = _ints(rng, scale), _ints(rng, scale)
        rows.append((xi, yi, xj, yj, dxi, dyi, dxj, dyj))
    return [list(c) for c in zip(*rows)]


def _check(values, bounds, exact):
    """Every certain sign of values under bounds is the sign of exact,
    and every finite bound of a finite value covers its error; where the
    value or its bound is not finite, nothing is certain.  Returns the
    number of certain signs."""
    pos, neg = _signs(values, bounds)
    for v, b, p, n, x in zip(values.tolist(), bounds.tolist(), pos.tolist(), neg.tolist(), exact):
        assert not (p and x <= 0) and not (n and x >= 0)
        if isfinite(v) and isfinite(b):
            assert abs(Fraction(v) - x) <= Fraction(b)
        else:
            assert not (p or n)
    return int((pos | neg).sum())


@pytest.mark.parametrize("scale", SCALES, ids=IDS)
def test_sums_of_products_and_quotients_are_certified(scale):
    # the pair scan's un, vn and D and its parameter un/D, and the clip
    # pass's rate and r, as their callers compute them
    cols = _near_crossings(random.Random(scale % 1000003), scale)
    xi, yi, xj, yj, dxi, dyi, dxj, dyj = cols
    Xi, Yi, Xj, Yj, DXi, DYi, DXj, DYj = (_floats(c) for c in cols)
    ex = [b - a for a, b in zip(xi, xj)]
    ey = [b - a for a, b in zip(yi, yj)]
    un = [a * d - b * c for a, b, c, d in zip(ex, ey, dxj, dyj)]
    vn = [a * d - b * c for a, b, c, d in zip(ex, ey, dxi, dyi)]
    D = [a * d - b * c for a, b, c, d in zip(dxi, dyi, dxj, dyj)]
    r = [c - a * x - b * y for a, b, c, x, y in zip(dxi, dyi, xj, xi, yi)]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fex, fey = Xj - Xi, Yj - Yi
        sx, sy = np.abs(Xi) + np.abs(Xj), np.abs(Yi) + np.abs(Yj)
        fun = fex * DYj - fey * DXj
        eun = _sum_bound(sx * np.abs(DYj) + sy * np.abs(DXj))
        fvn = fex * DYi - fey * DXi
        evn = _sum_bound(sx * np.abs(DYi) + sy * np.abs(DXi))
        fD = DXi * DYj - DYi * DXj
        eD = _sum_bound(np.abs(DXi * DYj) + np.abs(DYi * DXj))
        qa, qb = DXi * Xi, DYi * Yi
        fr = Xj - qa - qb
        er = _sum_bound(np.abs(Xj) + np.abs(qa) + np.abs(qb))
        certain = sum(_check(v, e, x) for v, e, x in (
            (fun, eun, un), (fvn, evn, vn), (fD, eD, D), (fr, er, r)))
        room = np.abs(fD) - eD
        T = np.sign(fD) * fun / np.abs(fD)
        E = _quotient_bound(T, eun, eD, room)
    sure = room > 0
    for t, e, n, d, ok in zip(T.tolist(), E.tolist(), un, D, sure.tolist()):
        if ok and isfinite(t) and isfinite(e):
            assert abs(Fraction(t) - Fraction(n, d)) <= Fraction(e)
    finite = np.isfinite(E) & sure
    if scale == 1:
        # every value is exact, and so certain unless it is 0
        assert not (eun.any() or evn.any() or eD.any() or er.any())
        assert certain == sum(x != 0 for x in un + vn + D + r)
        assert finite.tolist() == [d != 0 for d in D]
    elif scale < 2 ** 60:
        assert 0 < certain < 4 * ROWS and eD.all() and finite.sum() > ROWS // 2
    else:
        # past the float range, or with products past it: nothing certain
        assert certain == 0 and not finite.any()


@pytest.mark.parametrize("scale", SCALES, ids=IDS)
def test_conversions_and_rounding_bounds_are_certified(scale):
    # _floats and _nearest round correctly; _rounding_bound covers a
    # rounded ratio, tiny ones included; _x_bounds holds ax + t*dx, and
    # _leftmost picks the exact leftmost of those points
    rng = random.Random(scale % 1000003 + 1)
    ints = [_ints(rng, scale) for _ in range(ROWS)]
    fl = _floats(ints)
    assert fl.tolist() == [_nearest(v, 1) for v in ints]
    for f, v in zip(fl.tolist(), ints):
        if isfinite(f):
            assert abs(Fraction(f) - v) <= Fraction(ulp(f)) / 2
        else:
            assert abs(v) >= 2 ** 1024 and f == (inf if v > 0 else -inf)
    ratios = [(_ints(rng, scale), rng.randrange(1, 2 ** 60)) for _ in range(ROWS)]
    ratios += [(rng.randrange(-9, 10), rng.randrange(1, 2 ** 60) * scale) for _ in range(ROWS)]
    T = np.array([_nearest(n, d) for n, d in ratios])
    E = _rounding_bound(T)
    for t, e, (n, d) in zip(T.tolist(), E.tolist(), ratios):
        assert abs(Fraction(t) - Fraction(n, d)) <= Fraction(e) if isfinite(t) else e == inf
    # points ax + (n/d)*dx on pieces, their x bounded as the witness
    # choice bounds them, and the exact (X, Y, W) of each
    ax, dx = ints[:ROWS // 2], [v or 1 for v in ints[ROWS // 2:]]
    ay = [_ints(rng, scale) for _ in ax]
    ts = ratios[:len(ax)]
    # a few exact ties in x, in other forms
    ax[1], dx[1], ts[1] = ax[0], dx[0] * 2, (ts[0][0], ts[0][1] * 2)
    pts = []
    for a, b, u, (n, d) in zip(ax, ay, dx, ts):
        pts.append((a * d + n * u, b * d + rng.randrange(-1, 2), d))
    Tp = np.array([_nearest(n, d) for n, d in ts])
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = _x_bounds(_floats(ax), _floats(dx), Tp, _rounding_bound(Tp))
    for low, high, (X, _, W) in zip(lo.tolist(), hi.tolist(), pts):
        assert low == -inf or Fraction(low) <= Fraction(X, W)
        assert high == inf or Fraction(X, W) <= Fraction(high)
    k, key = _leftmost(lo, hi, pts.__getitem__)
    want = min(range(len(pts)), key=lambda i: (_XY(pts[i]), i))
    assert (k, key) == (want, pts[want])
    if scale == 2 ** 1100:
        assert np.isinf(fl).sum() > ROWS * 9 // 10 and (lo == -inf).sum() > ROWS // 3


def _columns(rng, scale, n):
    """n points near one line at the scale, some one 1/W off it, as
    exact Fraction pairs, and their correctly rounded float columns."""
    W = rng.randrange(1, 2 ** 20)
    a = (_ints(rng, scale), _ints(rng, scale))
    d = (rng.randrange(1, 9), rng.randrange(-8, 9))
    pts = []
    for _ in range(n):
        k = Fraction(rng.randrange(-40, 41), rng.randrange(1, 5))
        off = Fraction(rng.randrange(-1, 2), W) if rng.randrange(2) else Fraction(0)
        pts.append((a[0] + k * d[0] * scale + off, a[1] + k * d[1] * scale))
    cols = [np.array([_nearest(c.numerator, c.denominator) for c in col])
            for col in zip(*pts)]
    return pts, cols


@pytest.mark.parametrize("scale", SCALES, ids=IDS)
def test_the_batch_margin_certifies_the_samplers_values(scale):
    # orientations of points against segments, elementwise and as one
    # matrix product, and the order values (h - q).(s - q), all under one
    # margin of the batch's columns
    rng = random.Random(scale % 1000003 + 2)
    pts, (x, y) = _columns(rng, scale, 40)
    cert = _margin(x, y)
    q, s = pts[:20], pts[20:]
    qx, qy, sx, sy = x[:20], y[:20], x[20:], y[20:]
    certain = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (hx0, hy0) in enumerate(q):
            # each point q[i] against the segments from q[0] to every s
            c = (np.column_stack((qy[i:i + 1] - qy[0], qx[0] - qx[i:i + 1]))
                 @ np.stack((sx - qx[0], sy - qy[0])))[0]
            exact = [(hy0 - q[0][1]) * (s1[0] - q[0][0]) - (hx0 - q[0][0]) * (s1[1] - q[0][1])
                     for s1 in s]
            certain += _check(c, np.full(len(s), cert), exact)
            o = (sx - qx[0]) * (qy[i] - qy[0]) - (sy - qy[0]) * (qx[i] - qx[0])
            certain += _check(o, np.full(len(s), cert), exact)
            dot = (qx[i] - qx[0]) * (sx - qx[0]) + (qy[i] - qy[0]) * (sy - qy[0])
            exact = [(hx0 - q[0][0]) * (s1[0] - q[0][0]) + (hy0 - q[0][1]) * (s1[1] - q[0][1])
                     for s1 in s]
            certain += _check(dot, np.full(len(s), cert), exact)
    if scale < 2 ** 60:
        assert isfinite(cert) and certain > 0
    else:
        assert cert == inf and certain == 0


def _holds(x, err, exact):
    """x +- err holds the Fraction exact, or the bound is not finite."""
    if not (isfinite(x) and isfinite(err)):
        return True
    return abs(Fraction(x) - exact) <= Fraction(err)


@pytest.mark.parametrize("scale", SCALES, ids=IDS)
def test_sampler_candidate_bounds_are_certified(scale):
    # the sampler's candidate columns: ax + t*dx for a parameter t known
    # to T +- E (_affine), the midpoint of two such parameters
    # (_midpoint), and a value times the float of a positive rational
    # (_scaled), as its candidates chain them: every bound holds the
    # exact value, and only values past the float range have none
    rng = random.Random(scale % 1000003 + 5)
    ax = [_ints(rng, scale) for _ in range(ROWS)]
    dx = [_ints(rng, scale) or 1 for _ in range(ROWS)]
    t0 = [Fraction(_ints(rng, scale), rng.randrange(1, 2 ** 60) * rng.choice((1, scale)))
          for _ in range(ROWS)]
    t1 = [t + Fraction(rng.randrange(1, 2 ** 40), rng.randrange(1, 2 ** 60)) for t in t0]
    T0 = np.array([_nearest(t.numerator, t.denominator) for t in t0])
    T1 = np.array([_nearest(t.numerator, t.denominator) for t in t1])
    # parameters off by more than one rounding, as the pair scan's are,
    # and anywhere within their bounds
    E0 = _rounding_bound(T0) * 3
    E1 = _rounding_bound(T1) * rng.choice((1, 2 ** 20))
    sign = np.array([rng.choice((-1.0, 1.0)) for _ in range(ROWS)])
    with np.errstate(invalid="ignore"):
        T0 = T0 + sign * 0.9 * E0
        T1 = T1 - sign * 0.9 * E1
    Tm, Em = _midpoint(T0, E0, T1, E1)
    units = [rng.randrange(1, 2 ** 66) for _ in range(3)] + [2 ** 600, 2 ** 1040]
    finite = 0
    for T, E, ts in ((T0, E0, t0), (Tm, Em, [(a + b) / 2 for a, b in zip(t0, t1)])):
        assert all(_holds(*te, t) for te, t in zip(zip(T.tolist(), E.tolist()), ts))
        x, err = _affine(_floats(ax), _floats(dx), T, E)
        exact = [a + t * d for a, t, d in zip(ax, ts, dx)]
        assert all(_holds(*xe, v) for xe, v in zip(zip(x.tolist(), err.tolist()), exact))
        for f in (1, 3):
            for unit in units:
                X, E2 = _scaled(x, err, _nearest(f, unit))
                assert all(_holds(*xe, v * f / unit)
                           for xe, v in zip(zip(X.tolist(), E2.tolist()), exact))
                assert np.isinf(E2).all() == (unit == 2 ** 1040)
                finite += int(np.isfinite(E2).sum())
    # a factor below 2^-1022 gives no bound
    assert np.isinf(_scaled(np.ones(2), np.zeros(2), 2.0 ** -1030)[1]).all()
    assert (finite > 0) == (scale < 2 ** 1000)


@pytest.mark.parametrize("scale", SCALES, ids=IDS)
def test_the_batch_margin_grows_by_the_input_error(scale):
    # columns off from the exact points by more than a rounding, as the
    # sampler's candidates are: the margin with their largest error
    # certifies every sign, and is the former margin at error 0
    rng = random.Random(scale % 1000003 + 6)
    pts, (x, y) = _columns(rng, scale, 40)
    assert _margin(x, y, err=0.0) == _margin(x, y)
    finite = np.isfinite(x) & np.isfinite(y)
    with np.errstate(invalid="ignore"):
        x = np.where(finite, x + x * (2.0 ** -48) * np.array([rng.randrange(-2, 3) for _ in x]), x)
        y = np.where(finite, y - y * (2.0 ** -50) * np.array([rng.randrange(-2, 3) for _ in y]), y)
    err = 0.0
    for (px, py), fx, fy in zip(pts, x.tolist(), y.tolist()):
        if isfinite(fx) and isfinite(fy):
            err = max(err, float(abs(Fraction(fx) - px)), float(abs(Fraction(fy) - py)))
    err *= 1 + 2.0 ** -50  # the float of the largest error, rounded up
    cert = _margin(x, y, err=err)
    assert cert > _margin(x, y) or cert == inf
    # one margin per input error: the grown one, and the former at 0
    both = np.broadcast_to(_margin(x, y, err=np.array([err, 0.0])), 2)
    assert both.tolist() == [cert, _margin(x, y)]
    q, s = pts[:20], pts[20:]
    qx, qy, sx, sy = x[:20], y[:20], x[20:], y[20:]
    certain = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (hx0, hy0) in enumerate(q):
            c = (np.column_stack((qy[i:i + 1] - qy[0], qx[0] - qx[i:i + 1]))
                 @ np.stack((sx - qx[0], sy - qy[0])))[0]
            exact = [(hy0 - q[0][1]) * (s1[0] - q[0][0]) - (hx0 - q[0][0]) * (s1[1] - q[0][1])
                     for s1 in s]
            pos, neg = _signs(c, cert)
            assert not any((p and v <= 0) or (n and v >= 0)
                           for p, n, v in zip(pos.tolist(), neg.tolist(), exact))
            certain += int((pos | neg).sum())
    if scale == 1:
        assert certain > 0


@pytest.mark.parametrize("scale", SCALES, ids=IDS)
def test_the_interval_sort_is_the_exact_stable_sort(scale):
    # homogeneous points one unit apart at the scale, in several forms,
    # with float x bounds: correctly rounded (lo = hi) or widened by an
    # error; the clusters come in exact order, and the sort is the exact
    # stable sort
    rng = random.Random(scale % 1000003 + 7)
    base = [scale * v + e for v in (-3, 0, 1, 7) for e in (-1, 0, 1)]
    points = []
    for _ in range(ROWS):
        d = rng.choice((1, 3, 2 ** 30))
        points.append((rng.choice(base) * d, rng.randrange(9) * d, d))
    x = np.array([_nearest(p[0], p[2]) for p in points])
    widths = np.array([rng.choice((0.0, 1.0, 2.0 ** -30)) for _ in points])
    with np.errstate(invalid="ignore"):
        wide = np.where(np.isfinite(x), np.abs(x) * widths * 2.0 ** -40, 0.0)
    for err in (np.zeros(ROWS), wide):
        lo, hi = _interval(x, err)
        lo, hi = np.where(err == 0, x, lo), np.where(err == 0, x, hi)
        order = _sorted_intervals(points, _XY, lo, hi)
        assert [points[i] for i in order] == sorted(points, key=_XY)
        assert order == sorted(range(ROWS), key=lambda i: (_XY(points[i]), i))
        pos, cluster = _clusters(np.zeros(ROWS, dtype=np.int64), lo, hi)
        xs = [Fraction(points[i][0], points[i][2]) for i in pos.tolist()]
        cuts = np.nonzero(np.diff(cluster))[0].tolist()
        assert all(max(xs[:k + 1]) < min(xs[k + 1:]) for k in cuts)
    assert len(cuts) < len({Fraction(p[0], p[2]) for p in points}) or scale < 2 ** 53


@pytest.mark.parametrize("scale", SCALES, ids=IDS)
def test_the_float_first_sort_is_the_exact_stable_sort(scale):
    # ratios and homogeneous points whose values differ by one unit at
    # the scale (one float at 2^53 + 1, past the range at 2^1100), in
    # several forms each
    rng = random.Random(scale % 1000003 + 3)
    base = [scale * v + e for v in (-3, 0, 1, 7) for e in (-1, 0, 1)]
    ratios = []
    for _ in range(ROWS):
        m = rng.choice((1, 2, 3))
        ratios.append((rng.choice(base) * m, rng.choice((1, 3)) * m))
    points = [(n, rng.choice(base) * d, d) for n, d in ratios]
    for items, key in ((ratios, _RATIO), (points, _XY)):
        order = _sorted_exact(items, key)
        assert [items[i] for i in order] == sorted(items, key=key)
    floats = {_nearest(*r) for r in ratios}
    assert len(floats) < len({Fraction(*r) for r in ratios}) or scale < 2 ** 53
    assert ({inf, -inf} <= floats) == (scale == 2 ** 1100)


def _is_nearest(f, x):
    """Whether the float f is the Fraction x rounded to nearest, ties to
    even, or +-inf where x is past the float range."""
    if not isfinite(f):
        return abs(x) >= 2 ** 1024 - 2 ** 970 and (f > 0) == (x > 0)
    F = Fraction(f)
    below = (F + Fraction(nextafter(f, -inf))) / 2
    above = (F + Fraction(nextafter(f, inf))) / 2
    if x in (below, above):
        return (F / Fraction(ulp(f))).numerator % 2 == 0
    return below < x < above


QUOTIENT_SCALES = [2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1]


@pytest.mark.parametrize("scale", QUOTIENT_SCALES, ids=["2^53-1", "2^53", "2^53+1"])
def test_quotients_round_correctly_across_2_53(scale):
    # numerators and denominators at, just under and just over 2^53, so
    # that CPython's float division of the operands covers some and the
    # integer division the rest; ties and quotients past the float range
    rng = random.Random(scale)
    sizes = [scale, 2 * scale, 3, 2 ** 1100, 1]
    nums, dens = [], []
    for _ in range(ROWS):
        nums.append(rng.choice(sizes) * rng.randrange(-9, 10) + rng.randrange(-2, 3))
        dens.append(max(1, rng.choice(sizes) * rng.randrange(1, 9) + rng.randrange(-2, 3)))
    # exact halves between two floats at 2^54 and a tie past 2^53
    nums += [2 ** 54 + 2, 2 ** 53 + 1, -(2 ** 53 + 3), 2 ** 1100, -(2 ** 1100), 0]
    dens += [2, 1, 1, 1, 1, scale]
    q = _quotients(nums, dens)
    assert q.dtype == np.float64 and len(q) == len(nums)
    assert q.tolist() == [_nearest(n, d) for n, d in zip(nums, dens)]
    assert all(_is_nearest(f, Fraction(n, d)) for f, n, d in zip(q.tolist(), nums, dens))
    small = [abs(n) < 2 ** 53 and d < 2 ** 53 for n, d in zip(nums, dens)]
    assert 0 < sum(small) < len(small) and np.isinf(q).any()
    assert _quotients([], []).tolist() == []


@pytest.mark.parametrize("bits", [0, _FLOAT_BITS + 40], ids=["unit-21", "unit-past-2^509"])
def test_sampler_columns_are_the_correctly_rounded_coordinates(bits):
    # a frame of thirds and sevenths, so its unit is 21, or shifted past
    # 2^_FLOAT_BITS, where the unit is scale times a power of two; the
    # columns of its integer pairs and of homogeneous samples are each
    # X / (W * unit) correctly rounded
    big = 2 ** bits
    region = ConvexPolygon([Point2(big, 0), Point2(big + 7, 0), Point2(big + 7, 9),
                            Point2(big, 9)])
    guards = [Point2(big + Fraction(a, 3), Fraction(b, 7)) for a, b in ((2, 5), (11, 40), (19, 61))]
    frame = _Frame(region, guards)
    assert frame.unit != 1 and (frame.unit == frame.scale == 21) == (bits == 0)
    rng = random.Random(bits)
    samples = [frame.sample(Point2(big + Fraction(rng.randrange(1, 700), rng.randrange(1, 100)),
                                   Fraction(rng.randrange(0, 900), rng.randrange(1, 2 ** 60))))
               for _ in range(ROWS)]
    for pts in (frame.walls + frame.ints, samples):
        xs, ys = sampling._columns(frame, pts)
        for p, x, y in zip(pts, xs.tolist(), ys.tolist()):
            W = frame.unit * (p[2] if len(p) == 3 else 1)
            assert _is_nearest(x, Fraction(p[0], W)) and _is_nearest(y, Fraction(p[1], W))
