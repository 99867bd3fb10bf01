"""Reference hull intersection and membership: Sutherland-Hodgman for
polygons, a Cyrus-Beck parameter clip for a segment against a hull, a
hand-written segment-segment case, and a membership test with a segment
branch (a dot product) and a polygon branch (an edge loop). The library
clips hulls of every shape, and tests membership in them, with one set of
half-planes (`_half_planes`), and is tested against these functions, kept as
they were before those rewrites.
"""

from fractions import Fraction

from bihsurf.admissibility import Point, _cross


def point_in_hull(pt: Point, hull) -> bool:
    """Membership in a hull of any dimension (point, segment or polygon)."""
    k = len(hull)
    if k == 0:
        return False
    if k == 1:
        return pt == hull[0]
    if k == 2:
        a, b = hull
        if _cross(a, b, pt) != 0:
            return False
        lo = (a[0] - pt[0]) * (b[0] - pt[0]) + (a[1] - pt[1]) * (b[1] - pt[1])
        return lo <= 0
    for i in range(k):
        if _cross(hull[i], hull[(i + 1) % k], pt) < 0:
            return False
    return True


def _clip_polygon(poly: list[Point], a: Point, b: Point) -> list[Point]:
    """Keep the part of poly on the left of the directed line a -> b."""
    out: list[Point] = []
    k = len(poly)
    for i in range(k):
        p, q = poly[i], poly[(i + 1) % k]
        sp, sq = _cross(a, b, p), _cross(a, b, q)
        if sp >= 0:
            out.append(p)
        if (sp > 0 > sq) or (sp < 0 < sq):
            t = sp / (sp - sq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    dedup: list[Point] = []
    for p in out:
        if not dedup or dedup[-1] != p:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def _clip_segment(seg: tuple[Point, Point], hull) -> list[Point]:
    """Intersection of a segment with a convex hull (exact parameter range)."""
    (ax, ay), (bx, by) = seg
    dx, dy = bx - ax, by - ay
    lo, hi = Fraction(0), Fraction(1)
    k = len(hull)
    if k == 1:
        return [hull[0]] if point_in_hull(hull[0], list(seg)) else []
    if k == 2:
        c, d = hull
        # segment-segment: either collinear overlap or a proper crossing
        if _cross(c, d, seg[0]) == 0 and _cross(c, d, seg[1]) == 0:
            cand = [p for p in (seg[0], seg[1], c, d) if point_in_hull(p, list(seg)) and point_in_hull(p, [c, d])]
            return sorted(set(cand))
        den = (bx - ax) * (d[1] - c[1]) - (by - ay) * (d[0] - c[0])
        if den == 0:
            return []
        t = ((c[0] - ax) * (d[1] - c[1]) - (c[1] - ay) * (d[0] - c[0])) / den
        if not (0 <= t <= 1):
            return []
        px, py = ax + t * dx, ay + t * dy
        return [(px, py)] if point_in_hull((px, py), [c, d]) else []
    for i in range(k):
        a2, b2 = hull[i], hull[(i + 1) % k]
        ea = _cross(a2, b2, seg[0])
        eb = _cross(a2, b2, seg[1])
        if ea < 0 and eb < 0:
            return []
        if ea < 0 or eb < 0:
            t = ea / (ea - eb)
            if ea < 0:
                lo = max(lo, t)
            else:
                hi = min(hi, t)
    if lo > hi:
        return []
    p1 = (ax + lo * dx, ay + lo * dy)
    p2 = (ax + hi * dx, ay + hi * dy)
    return [p1] if p1 == p2 else [p1, p2]


def intersect_hulls(h1, h2) -> list[Point]:
    """Vertices of the intersection of two convex hulls (exact; any dims)."""
    if not h1 or not h2:
        return []
    if len(h1) > len(h2):
        h1, h2 = h2, h1
    if len(h1) == 1:
        return [h1[0]] if point_in_hull(h1[0], h2) else []
    if len(h1) == 2:
        return _clip_segment((h1[0], h1[1]), h2)
    if len(h2) == 2:
        return _clip_segment((h2[0], h2[1]), h1)
    poly = list(h1)
    for i in range(len(h2)):
        poly = _clip_polygon(poly, h2[i], h2[(i + 1) % len(h2)])
        if not poly:
            return []
    return poly
