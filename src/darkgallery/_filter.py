"""The certified float filter: every float-error decision of the package.

The exact engine and the sampler decide in floats with a proven error
bound, and in integers only where the floats cannot (the filters of
Shewchuk, DCG 1997, and Brönnimann, Burnikel and Pion, Discrete Appl.
Math. 2001); the comment below derives every bound this leaf module holds.
"""

from __future__ import annotations

from functools import cmp_to_key
from math import inf

import numpy as np

# u = 2^-53 is the unit roundoff.  Every float input is the correctly
# rounded value of an exact rational: within u times its magnitude, or
# 2^-1075 below 2^-1022, or +-inf past the float range.  Rounding is
# monotone, so fl(a) < fl(b) proves a < b with no margin: a float order
# never inverts the exact one (the pair scan's boxes, the sampler's level
# tests, _sorted_exact and _leftmost).  A float bound lo <= x orders the
# same way: lo > fl(a) puts lo at or past the float after fl(a), beyond
# every value that rounds to fl(a), so x > a; likewise hi < fl(a) proves
# x < a, and lo > hi' of two bounds, x > x'.  So intervals and correctly
# rounded floats mix in one order (_clusters, _sorted_intervals).
#
# Sums of products (_sum_bound).  Let v be a sum of at most three
# products of inputs or differences of two inputs, in floats in any
# order, fused or not (a matrix product included), and M its magnitude
# sum: v with each a - b read as |a| + |b| and each term as its absolute
# value, in floats.  A difference is off by (2u + u^2) times its
# magnitude, a product of two by (5u + O(u^2)) after its own rounding,
# and each of at most two additions adds u*M: |fl(v) - v| <= (7u +
# O(u^2))*M.  The float M is computed through at most five roundings,
# each lowering it by a factor 1 - u at most, so 8u*M bounds the error.
# |fl(v)| <= M, so v overflows only where M does, with bound inf.  Where
# the inputs are integers and M < 2^52, the float is exact and the bound
# 0: a nonzero factor of a term below 2^52 is below 2^52 itself, a zero
# one makes the term exact, so every input is an exact float and every
# partial sum an integer below 2^53.
#
# Quotients (_quotient_bound).  For floats N and D of n and d with |N - n|
# <= eN and |D - d| <= eD < |D|, d has the sign s of D, and T = fl(s*N /
# |D|) has, from n/d - N/D = ((n - N)*D + N*(D - d)) / (d*D),
#     |n/d - T| <= (eN + |T|*eD) / (|D| - eD) + u*|T|  (+ 2^-1075).
# The last term is one rounding (_rounding_bound): |t - fl(t)| <=
# u*|fl(t)|*(1 + u) or 2^-1075, which 8u*|T| + 2^-1022 covers.  With 8u
# in eN and eD where 7u is needed, the bound holds through its own six
# roundings and that of T +- E.
#
# A point's x (_affine, _x_bounds).  x = fl(x0 + T*fdx), for floats x0
# and fdx of integers ax and dx and |t - T| <= E, is off from ax + t*dx by
# about E*|fdx|*(1 + u) + 2u*|x0| + 3u*|T*fdx|; 8u where 3u is needed
# covers the bound's own roundings and those of x +- err, and E >= 2^-1022
# covers an underflow of the product, as |fdx| >= 1 unless dx = 0.
#
# A shifted parameter (_shifted).  For |t - T| <= E and F the correctly
# rounded float of an integer f, H = fl(T - F) is off from t - f by at
# most E + u*|F| + u*|H|: f is within u*|F| of F, and the subtraction
# rounds once (a float difference below 2^-1022 is exact).  E*(1 + 8u) +
# 8u*(|F| + |H|) covers the bound's own roundings and those of H +- EH,
# and is >= 2^-1022 where E is; H overflows only with the bound (inf).
#
# A midpoint (_midpoint).  For |t0 - T0| <= E0 and |t1 - T1| <= E1, the
# float T = fl(T0 + T1)/2 (halving is exact above 2^-1022) is off from
# (t0 + t1)/2 by (E0 + E1)/2 + u*|T|; (E0 + E1)*(1/2 + 8u) covers the
# rounding of that sum, and _rounding_bound(T) the rest, underflow
# included, so the bound is again >= 2^-1022.
#
# A scaled value (_scaled).  For |x - X| <= e and c_f the correctly
# rounded float of a positive rational c, normal (>= 2^-1022), so that
# |c - c_f| <= u*c_f: x*c - fl(X*c_f) is at most e*c_f*(1 + u) + u*|X|*c_f
# + u*|X*c_f| + 2^-1075; e*c_f*(1 + 8u) + 8u*|fl(X*c_f)| + 2^-1022 covers
# it with its own roundings and those of x +- err.  A c_f below 2^-1022
# gives no bound (inf).
#
# The batch margin (_margin).  Each value of the sampler's float pass, a
# side (b - a) x (p - a) or an order (h - q).(s - q), is a two-term sum of
# products of column differences with M <= 8*m^2, m the largest |column|,
# so 8u*8*m^2 bounds every error of the batch.  m >= 1 absorbs the error
# of inputs below 2^-1022; where 8*m^2 overflows the margin is inf.  A
# frame's coordinates below 2^(b + 1) give 8*m^2 <= 2^(2b + 5), finite for
# b <= 509 (_FLOAT_BITS); past that, geometry._Frame divides the columns
# by a power of two, which scales every value and margin exactly.
# A column with an input error err (the sampler's candidates, built from
# the pair scan's parameters) is the correctly rounded value of itself,
# and lies within err of the exact coordinate.  With e >= the err of
# every input of a value, each difference of the exact inputs is within
# 2e of that of the floats, at most 2m in size, so a product of two moves
# by at most 2m*2e + (2m + 2e)*2e and a two-term sum by 16*m*e + 8*e^2:
# the margin grows by that, as 17*m*e + 9*e^2 to cover its own
# roundings, and is the former margin where e = 0.  Each value of the
# float pass reads one sample and walls and guards, correctly rounded,
# so each sample's values take the margin grown by its own err.
#
# Every certain verdict is a strict comparison of a value with its bound:
# a NaN fails it, and so does an overflowed value, whose bound is inf.
_SLACK = 2.0 ** -50      # 8u
_UNDERFLOW = 2.0 ** -1022
_EXACT = 2.0 ** 52
_FLOAT_BITS = 509


def _nearest(n, d):
    """n/d (d > 0) rounded to the nearest float, or +-inf past the float
    range.  The int / int division is correctly rounded; math.copysign
    would convert n to float and overflow itself."""
    try:
        return n / d
    except OverflowError:
        return inf if n > 0 else -inf


def _floats(values):
    """The integers values as correctly rounded floats, +-inf past the
    float range: numpy converts a Python int by correct rounding, and
    refuses one past the range, which _nearest then maps to +-inf."""
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        return np.array([_nearest(v, 1) for v in values], dtype=np.float64)


def _quotients(nums, dens):
    """The floats of nums[k] / dens[k] (integers, dens[k] > 0), each
    correctly rounded, +-inf past the float range, as one array.  An int
    / int division is correctly rounded at any size, and CPython divides
    the floats themselves where both ints are below 2^53, which is then
    exact; a quotient past the float range sends the batch to _nearest."""
    try:
        return np.array([n / d for n, d in zip(nums, dens)], dtype=np.float64)
    except OverflowError:
        return np.array([_nearest(n, d) for n, d in zip(nums, dens)], dtype=np.float64)


def _sum_bound(M):
    """Bound on the error of a float sum of products of integers with
    float magnitude sum M: 0 below 2^52, else 8u*M."""
    return np.where(M < _EXACT, 0.0, _SLACK * M)


def _rounding_bound(T):
    """Bound on |t - T| for T the correctly rounded float of t."""
    return _SLACK * np.abs(T) + _UNDERFLOW


def _quotient_bound(T, e_num, e_den, room):
    """Bound on |n/d - T| for T the float quotient of the floats of n and
    d, off by at most e_num and e_den, with room = |fl(d)| - e_den > 0."""
    return (e_num + np.abs(T) * e_den) / room + _rounding_bound(T)


def _signs(value, bound):
    """(positive, negative): where value is certainly > 0 and certainly
    < 0, for |fl(value) - value| <= bound; neither is unsure."""
    return value > bound, value < -bound


def _margin(*columns, err=0.0):
    """The sampler's batch margin: a bound on the error of every two-term
    sum of products of differences of these columns, inf on overflow;
    given err, input errors (0: correctly rounded), the bound for the
    values that read inputs within err of their exact values, one per
    err."""
    m = max(1.0, *(float(np.abs(c).max(initial=0.0)) for c in columns))
    margin = _SLACK * (8.0 * m * m)
    if not np.any(err):
        return margin
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(err > 0, margin + err * (17.0 * m + 9.0 * err), margin)


def _interval(x, err):
    """(x - err, x + err), -inf and inf where a bound is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = x - err, x + err
    return np.where(np.isfinite(lo), lo, -inf), np.where(np.isfinite(hi), hi, inf)


def _affine(x0, fdx, T, E):
    """(x, err): the float x of ax + t*dx and a bound err on its error,
    for floats x0 and fdx of the integers ax and dx and |t - T| <= E."""
    with np.errstate(over="ignore", invalid="ignore"):
        tx = T * fdx
        return x0 + tx, E * np.abs(fdx) * (1 + _SLACK) + _SLACK * (np.abs(x0) + np.abs(tx))


def _x_bounds(x0, fdx, T, E):
    """The _interval of x = ax + t*dx, for floats x0 and fdx of the
    integers ax and dx and |t - T| <= E."""
    return _interval(*_affine(x0, fdx, T, E))


def _shifted(T, E, F):
    """(H, EH): the float of t - f and a bound on its error, for |t - T|
    <= E and F the correctly rounded float of the integer f."""
    with np.errstate(over="ignore", invalid="ignore"):
        H = T - F
        return H, E * (1 + _SLACK) + _SLACK * (np.abs(F) + np.abs(H))


def _midpoint(T0, E0, T1, E1):
    """(T, E): the float of (t0 + t1)/2 and a bound on its error, for
    |t0 - T0| <= E0 and |t1 - T1| <= E1."""
    with np.errstate(over="ignore", invalid="ignore"):
        T = (T0 + T1) * 0.5
        return T, (E0 + E1) * (0.5 + _SLACK) + _rounding_bound(T)


def _scaled(x, err, c):
    """(X, E): the float of x*c and a bound on its error, for |x - fl| <=
    err at the float x and c the correctly rounded float of a positive
    rational; no bound (inf) where c is below 2^-1022."""
    with np.errstate(over="ignore", invalid="ignore"):
        X = x * c
        if not c >= _UNDERFLOW:
            return X, np.full(np.shape(x), inf)
        return X, err * c * (1 + _SLACK) + _SLACK * np.abs(X) + _UNDERFLOW


def _clusters(group, lo, hi):
    """(order, cluster): the stable order of the items by (group, lo),
    and for each position of it the number of its cluster, counted from
    0 along the order: within a group, items whose intervals [lo, hi]
    overlap, directly or through a chain, share a cluster, and a cluster
    lies wholly before the next one (_sorted_clusters)."""
    order = np.lexsort((lo, group))
    return order, _sorted_clusters(group[order], lo[order], hi[order])


def _sorted_clusters(group, lo, hi):
    """The cluster numbers of _clusters for items already in (group, lo)
    order.

    A cluster starts where a group starts or where lo passes the reach,
    the largest hi of the group's items before it; no lo passes a NaN
    (not >), so a NaN hi reaches as far as inf.  The reach is at least
    hi[k - 1], so every cut falls where lo[k] > hi[k - 1], and the runs
    between those points lie whole within clusters.  Each run's largest
    hi (np.maximum.reduceat) is carried along its group by doubling
    steps, over windows of 1, 2, 4, ... runs, until a step raises none:
    then each run's value is at least the one a step back, so by
    induction it is the largest over the run and all runs before it.
    Where the values already rise along each group, as with near-point
    intervals, the first step raises none."""
    hi = np.where(np.isnan(hi), inf, hi)
    cut = np.ones(len(lo), dtype=bool)
    cut[1:] = (group[1:] != group[:-1]) | (lo[1:] > hi[:-1])
    heads = np.nonzero(cut)[0]
    rows, reach = group[heads], np.maximum.reduceat(hi, heads)
    step = 1
    while step < len(reach):
        grow = (rows[step:] == rows[:-step]) & (reach[:-step] > reach[step:])
        if not grow.any():
            break
        reach[step:] = np.where(grow, reach[:-step], reach[step:])
        step *= 2
    cut[heads[1:]] = (rows[1:] != rows[:-1]) | (lo[heads[1:]] > reach[:-1])
    return np.cumsum(cut) - 1


# sort key of integer ratios (num, den > 0) in value order, by cross-multiplication
_RATIO = cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])


def _xy_cmp(a, b) -> int:
    """Sign of the lexicographic (x, y) comparison of two homogeneous
    points (X, Y, W), W > 0, by cross-multiplication."""
    c = a[0] * b[2] - b[0] * a[2]
    return c if c else a[1] * b[2] - b[1] * a[2]


# sort key of homogeneous points in lexicographic (x, y) order
_XY = cmp_to_key(_xy_cmp)


def _sorted_exact(items, key):
    """The indices of the items in the stable order of key, _XY or
    _RATIO, sorted on floats first.

    Both keys order first by the ratio item[0] / item[-1] (x = X/W of a
    homogeneous point, or the value of a ratio (num, den)), whose float
    order never inverts theirs: a stable sort on the floats, then a stable
    re-sort of each run of equal floats with key, is the stable sort on
    key, with key comparing only within the runs.
    """
    n = len(items)
    floats = [_nearest(t[0], t[-1]) for t in items]
    order = sorted(range(n), key=floats.__getitem__)
    if len(set(floats)) == n:
        return order
    start = 0
    for end in range(1, n + 1):
        if end == n or floats[order[end]] != floats[order[start]]:
            if end - start > 1:
                order[start:end] = sorted(order[start:end], key=lambda i: key(items[i]))
            start = end
    return order


def _sorted_intervals(items, key, lo, hi):
    """The indices of the items in the stable order of key (_XY), given
    float bounds lo[k] <= x_k <= hi[k] on the ratio x_k = item[0] /
    item[-1] up to one positive factor, or lo[k] = hi[k] its correctly
    rounded float.

    Either way lo[b] > hi[a] proves x_a < x_b (see the comment above), so
    the clusters of _clusters are ordered; key compares only the items of
    a cluster of two or more, from index order, so that equal items keep
    it.
    """
    order, cluster = _clusters(np.zeros(len(lo), dtype=np.int64), lo, hi)
    out = order.tolist()
    sizes = np.bincount(cluster)
    ends = np.cumsum(sizes)
    for end, size in zip(ends[sizes > 1].tolist(), sizes[sizes > 1].tolist()):
        out[end - size:end] = sorted(sorted(out[end - size:end]), key=lambda i: key(items[i]))
    return out


def _leftmost(lo, hi, key):
    """(k, key(k)) for the lexicographically smallest of candidate points
    with lo[k] <= x <= hi[k], the first of equal points.

    key(k) builds the exact homogeneous point (X, Y, W) of candidate k,
    only where lo[k] <= min(hi): every candidate at the least x is among
    those.  They are compared on correctly rounded floats of x first,
    and _XY compares only the points that tie on it.
    """
    cands = [(k, key(k)) for k in np.nonzero(lo <= hi.min())[0].tolist()]
    xs = [_nearest(c[1][0], c[1][2]) for c in cands]
    low = min(xs)
    return min((c for c, x in zip(cands, xs) if x == low), key=lambda c: _XY(c[1]))
