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
# tests, _sorted_exact and _leftmost).
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
# A point's x (_x_bounds).  x = fl(x0 + T*fdx), for floats x0 and fdx of
# integers ax and dx and |t - T| <= E, is off from ax + t*dx by about
# E*|fdx|*(1 + u) + 2u*|x0| + 3u*|T*fdx|; 8u where 3u is needed covers
# the bound's own roundings and those of x +- err, and E >= 2^-1022
# covers an underflow of the product, as |fdx| >= 1 unless dx = 0.
#
# The batch margin (_margin).  Each value of the sampler's float pass, a
# side (b - a) x (p - a) or an order (h - q).(s - q), is a two-term sum of
# products of column differences with M <= 8*m^2, m the largest |column|,
# so 8u*8*m^2 bounds every error of the batch.  m >= 1 absorbs the error
# of inputs below 2^-1022; where 8*m^2 overflows the margin is inf.  A
# frame's coordinates below 2^(b + 1) give 8*m^2 <= 2^(2b + 5), finite for
# b <= 509 (_FLOAT_BITS); past that, geometry._Frame divides the columns
# by a power of two, which scales every value and margin exactly.
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


def _margin(*columns) -> float:
    """The sampler's batch margin: a bound on the error of every two-term
    sum of products of differences of these columns, inf on overflow."""
    m = max(1.0, *(float(np.abs(c).max(initial=0.0)) for c in columns))
    return _SLACK * (8.0 * m * m)


def _interval(x, err):
    """(x - err, x + err), -inf and inf where a bound is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = x - err, x + err
    return np.where(np.isfinite(lo), lo, -inf), np.where(np.isfinite(hi), hi, inf)


def _x_bounds(x0, fdx, T, E):
    """The _interval of x = ax + t*dx, for floats x0 and fdx of the
    integers ax and dx and |t - T| <= E."""
    with np.errstate(over="ignore", invalid="ignore"):
        tx = T * fdx
        err = E * np.abs(fdx) * (1 + _SLACK) + _SLACK * (np.abs(x0) + np.abs(tx))
        return _interval(x0 + tx, err)


# sort key of integer ratios (num, den > 0) in value order, by cross-multiplication
_RATIO = cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])


def _xy_cmp(a, b) -> int:
    """Sign of the lexicographic (x, y) comparison of two homogeneous
    points (X, Y, W), W > 0, by cross-multiplication."""
    c = a[0] * b[2] - b[0] * a[2]
    return c if c else a[1] * b[2] - b[1] * a[2]


# sort key of homogeneous points in lexicographic (x, y) order
_XY = cmp_to_key(_xy_cmp)


def _sorted_exact(items, key, floats=None):
    """The indices of the items in the stable order of key, _XY or
    _RATIO, sorted on floats first.

    Both keys order first by the ratio item[0] / item[-1] (x = X/W of a
    homogeneous point, or the value of a ratio (num, den)), whose float
    order never inverts theirs: a stable sort on the floats, then a stable
    re-sort of each run of equal floats with key, is the stable sort on
    key, with key comparing only within the runs.

    floats, when given, are the items' float keys, made by the caller:
    the ratios correctly rounded, or any other float monotone in them
    (such as X / (W * unit) for a positive unit), or (group, float)
    pairs with an integer group first, which sort the items by group
    and by key within a group.
    """
    n = len(items)
    if floats is None:
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
