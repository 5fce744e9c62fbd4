"""Compact semantic landmark map.

A map stores line landmarks (two 3D control points, class, rough size, road
index), point landmarks (centroid, class, size, road index), and lane
polylines. Landmarks are fitted from labeled 3D point clusters; preselection
extracts the subset likely visible from a rough pose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# A landmark is kept by preselection when rough_size / distance exceeds this
# (0.017 rad is about 12 px at f = 700 px, a plausible resolvability floor
# for a segmentation net); synthworld renders by the same rule.
MIN_SIZE_RATIO = 0.017
# A lane enters localization as its chord between the polyline points this
# far ahead of the camera (meters, along its heading). On the default rig a
# lane on flat ground enters the 370-row image 6.0-6.2 m ahead, so from 7 m
# on the whole chord is in view and a rendered lane is the projected chord.
LANE_WINDOW_M = (7.0, 20.0)

_COINCIDENT_EPS = 1e-9
_MIN_SEGMENT_M = 1e-6
_POINT_SIZE_FLOOR_M = 1e-3
# Pair sums per block of fit_point_landmark's largest-distance scan.
_PAIR_BLOCK = 1 << 18


class DegenerateCluster(ValueError):
    """Cluster cannot support a line fit (fewer than 2 distinct points)."""


class ParseError(ValueError):
    """Malformed text input; names the input and carries the 1-based line
    number."""

    def __init__(self, what: str, line_no: int, reason: str):
        self.line_no = line_no
        super().__init__(f"{what} line {line_no}: {reason}")


class SemanticClass(Enum):
    """Landmark/detection classes. All but TRAFFIC_SIGN are line-shaped."""

    POLE_LIKE = "POLE"
    TRAFFIC_SIGN = "SIGN"
    LANE_LINE = "LANE"
    MILESTONE = "MILESTONE"

    @property
    def is_line_shaped(self) -> bool:
        return self is not SemanticClass.TRAFFIC_SIGN


@dataclass(frozen=True, eq=False)
class LineLandmark:
    """Line-shaped landmark summarized by two 3D control points."""

    p1: np.ndarray
    p2: np.ndarray
    semantic: SemanticClass
    size_m: float
    road_index: int
    id: int

    def __post_init__(self):
        object.__setattr__(self, "p1", np.asarray(self.p1, dtype=float))
        object.__setattr__(self, "p2", np.asarray(self.p2, dtype=float))
        if not self.semantic.is_line_shaped:
            raise ValueError(f"{self.semantic} is not a line-shaped class")
        # Python floats: np.isfinite costs several times more on 3-vectors.
        # Preselection divides the size by a distance, so an infinite size
        # would keep the landmark from anywhere, a NaN size never.
        if not all(map(math.isfinite, (*self.p1.tolist(), *self.p2.tolist(),
                                       self.size_m))):
            raise ValueError("control points and size_m must be finite")
        if float(np.linalg.norm(self.p2 - self.p1)) <= _MIN_SEGMENT_M:
            raise ValueError("control points coincide")
        if self.size_m <= 0:
            raise ValueError("size_m must be positive")


@dataclass(frozen=True, eq=False)
class PointLandmark:
    """Point-shaped landmark: cluster centroid plus its largest extent."""

    p: np.ndarray
    semantic: SemanticClass
    size_m: float
    road_index: int
    id: int

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        if self.semantic.is_line_shaped:
            raise ValueError(f"{self.semantic} is not a point-shaped class")
        if not all(map(math.isfinite, (*self.p.tolist(), self.size_m))):
            raise ValueError("point and size_m must be finite")
        if self.size_m <= 0:
            raise ValueError("size_m must be positive")


@dataclass(frozen=True, eq=False)
class LanePolyline:
    """Lane line stored as an ordered 3D point sequence along the travel
    direction."""

    points: np.ndarray
    road_index: int
    id: int

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 2:
            raise ValueError("polyline needs at least 2 points of shape (n, 3)")
        if not np.isfinite(pts).all():
            raise ValueError("polyline points must be finite")
        if np.any(np.linalg.norm(np.diff(pts, axis=0), axis=1) <= 0):
            raise ValueError("consecutive polyline points must be distinct")
        object.__setattr__(self, "points", pts)


@dataclass(eq=False)
class SemanticMap:
    lines: list = field(default_factory=list)
    points: list = field(default_factory=list)
    lanes: list = field(default_factory=list)

    def __post_init__(self):
        ids = [lm.id for lm in self.lines] + [lm.id for lm in self.points] + \
            [ln.id for ln in self.lanes]
        if len(ids) != len(set(ids)):
            raise ValueError("landmark ids must be unique within the map")


@dataclass(frozen=True, eq=False)
class RoughPose:
    """Approximate camera location used for landmark preselection."""

    position: np.ndarray
    heading: np.ndarray  # unit (x, z) direction in the ground plane
    road_index: int

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        heading = np.asarray(self.heading, dtype=float)
        norm = float(np.linalg.norm(heading))
        if not 1e-6 < norm < 1e6:
            raise ValueError("rough heading must have nonzero norm")
        object.__setattr__(self, "heading", heading / norm)


@dataclass(eq=False)
class PreselectedSet:
    """Landmarks surviving preselection, in map order; lane chords (see
    ``lane_chord``; id = polyline id) come last."""

    lines: list = field(default_factory=list)
    points: list = field(default_factory=list)


def fit_line_landmark(cluster, semantic: SemanticClass, road_index: int,
                      landmark_id: int = 0) -> LineLandmark:
    """Fit a line landmark to a 3D point cluster.

    Total least squares: the principal axis of the cluster through its
    centroid. The control points are the two extreme projections of the
    cluster onto that axis, ordered lexicographically; size is their
    separation.
    """
    pts = np.asarray(cluster, dtype=float).reshape(-1, 3)
    if pts.shape[0] < 2:
        raise DegenerateCluster("need at least 2 points to fit a line")
    centroid, axis = principal_axis(pts)
    centered = pts - centroid
    if float(np.max(np.linalg.norm(centered, axis=1))) < _COINCIDENT_EPS:
        raise DegenerateCluster("all cluster points coincide")
    t = centered @ axis
    p1 = centroid + t.min() * axis
    p2 = centroid + t.max() * axis
    if tuple(p2) < tuple(p1):
        p1, p2 = p2, p1
    size = float(np.linalg.norm(p2 - p1))
    if size <= _MIN_SEGMENT_M:
        raise DegenerateCluster("cluster has no measurable extent along its axis")
    return LineLandmark(p1, p2, semantic, size, road_index, landmark_id)


def fit_point_landmark(cluster, semantic: SemanticClass, road_index: int,
                       landmark_id: int = 0) -> PointLandmark:
    """Fit a point landmark: cluster centroid, size = largest pairwise
    distance (floored at 1 mm for singletons)."""
    pts = np.asarray(cluster, dtype=float).reshape(-1, 3)
    if pts.shape[0] == 0:
        raise ValueError("empty cluster")
    centroid = pts.mean(axis=0)
    # Each pair's ((dx^2 + dy^2) + dz^2), the sum pdist takes, over row
    # blocks against the rows from the block on: memory stays bounded
    # where one n x n table grows as n^2.
    rows = max(1, _PAIR_BLOCK // len(pts))
    largest = 0.0
    for start in range(0, len(pts), rows):
        squared = sum((c[start:start + rows, None] - c[None, start:]) ** 2
                      for c in pts.T)
        largest = max(largest, float(squared.max()))
    size = math.sqrt(largest)
    return PointLandmark(centroid, semantic, max(size, _POINT_SIZE_FLOOR_M),
                         road_index, landmark_id)


def principal_axis(pts: np.ndarray):
    """Centroid and unit principal axis of an (n, d) point set.

    The axis is the top eigenvector of the scatter matrix, signed so that
    its first nonzero component is positive.
    """
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    eigvals, eigvecs = np.linalg.eigh(centered.T @ centered)
    axis = eigvecs[:, int(np.argmax(eigvals))]
    for comp in axis:
        if comp < 0:
            return centroid, -axis
        if comp > 0:
            break
    return centroid, axis


def distances(points, position) -> np.ndarray:
    """The 3D distance from ``position`` to each row of the (n, 3)
    ``points``, each bit-equal to ``np.linalg.norm`` of that one
    difference vector."""
    d = position - np.asarray(points, dtype=float).reshape(-1, 3)
    # A stacked 1x3 @ 3x1 product is the BLAS dot np.linalg.norm takes for
    # one vector; norm(axis=1), einsum and (d * d).sum(1) round differently.
    return np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])


def resolvable(sizes, anchors, position) -> np.ndarray:
    """The size/distance rule, one entry per landmark: true where the size
    over the 3D distance from ``position`` to the landmark's anchor (a row
    of the (n, 3) ``anchors``) strictly exceeds ``MIN_SIZE_RATIO``."""
    dist = distances(anchors, position)
    positive = dist > 0
    # A zero distance divides by inf instead, so it warns of nothing.
    ratio = np.asarray(sizes, dtype=float) / np.where(positive, dist, np.inf)
    return positive & (ratio > MIN_SIZE_RATIO)


def lane_chord(lane: LanePolyline, position, heading):
    """The chord of a lane ``LANE_WINDOW_M`` ahead, a (2, 3) array: the
    points, near end first, where the polyline crosses those distances
    from ``position`` along the unit ground ``heading`` (x, z). None when
    the polyline does not reach both ends. Its points may run with or
    against the heading, but must advance along it monotonically."""
    pts = lane.points
    along = (pts[:, ::2] - position[::2]) @ heading
    if along[0] > along[-1]:
        along, pts = along[::-1], pts[::-1]
    near, far = LANE_WINDOW_M
    if along[0] > near or along[-1] < far:
        return None
    return np.column_stack([np.interp((near, far), along, c) for c in pts.T])


def preselect(semantic_map: SemanticMap, rough: RoughPose) -> PreselectedSet:
    """Select landmarks likely visible from a rough pose.

    Keeps landmarks on the same road that are ``resolvable`` from the rough
    position (distance to the first control point). Each lane polyline on
    the road whose ``lane_chord`` exists from the rough pose contributes
    that chord as a lane landmark. The result depends on its arguments
    alone.
    """
    road = rough.road_index
    pos = rough.position
    lines = [lm for lm in semantic_map.lines if lm.road_index == road]
    points = [lm for lm in semantic_map.points if lm.road_index == road]
    keep = resolvable([lm.size_m for lm in lines] + [lm.size_m for lm in points],
                      [lm.p1 for lm in lines] + [lm.p for lm in points],
                      pos).tolist()
    out = PreselectedSet(
        [lm for lm, kept in zip(lines, keep) if kept],
        [lm for lm, kept in zip(points, keep[len(lines):]) if kept])
    for lane in semantic_map.lanes:
        if lane.road_index != road:
            continue
        chord = lane_chord(lane, pos, rough.heading)
        if chord is not None:
            out.lines.append(LineLandmark(
                *chord, SemanticClass.LANE_LINE,
                float(np.linalg.norm(chord[1] - chord[0])), road, lane.id))
    return out


# --- text serialization -----------------------------------------------------
#
# Line-oriented ASCII, '#' starts a comment, fields whitespace-separated:
#   SEMMAP 1
#   L <id> <class> <road> <x1> <y1> <z1> <x2> <y2> <z2> <size>
#   P <id> <class> <road> <x> <y> <z> <size>
#   LANE <id> <road> <n> <x1> <y1> <z1> ... <xn> <yn> <zn>
# Coordinates in meters with 6 decimal places.

_HEADER = "SEMMAP 1"


def text_records(text: str):
    """Yield (1-based line number, whitespace-separated fields) for each line
    of a line-oriented text format, skipping blank lines and '#' comments."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if fields:
            yield line_no, fields


def _fmt(values) -> str:
    return " ".join(f"{v:.6f}" for v in values)


def serialize_map(semantic_map: SemanticMap) -> str:
    rows = [_HEADER]
    for lm in semantic_map.lines:
        rows.append(
            f"L {lm.id} {lm.semantic.value} {lm.road_index} "
            f"{_fmt(lm.p1)} {_fmt(lm.p2)} {lm.size_m:.6f}")
    for lm in semantic_map.points:
        rows.append(
            f"P {lm.id} {lm.semantic.value} {lm.road_index} "
            f"{_fmt(lm.p)} {lm.size_m:.6f}")
    for lane in semantic_map.lanes:
        rows.append(
            f"LANE {lane.id} {lane.road_index} {lane.points.shape[0]} "
            f"{_fmt(lane.points.ravel())}")
    return "\n".join(rows) + "\n"


def read_records(records, what: str, field_counts: dict, handle) -> None:
    """Pass each (line number, fields) record of ``records`` to ``handle``
    as its fields, after checking the record's tag and field count.

    ``field_counts`` maps each tag to its number of fields, the tag
    included, or to None where ``handle`` checks the count itself. A
    ValueError, from the checks or from ``handle``, becomes a ParseError
    naming ``what`` and the record's line.
    """
    for line_no, fields in records:
        try:
            if fields[0] not in field_counts:
                raise ValueError(f"unknown record tag {fields[0]!r}")
            expected = field_counts[fields[0]]
            if expected is not None and len(fields) != expected:
                raise ValueError(f"{fields[0]} record needs {expected} "
                                 f"fields, got {len(fields)}")
            handle(fields)
        except ValueError as exc:
            raise ParseError(what, line_no, str(exc)) from None


# Fields per map record, the tag included; a LANE record's count follows
# from the number of points it gives.
_MAP_FIELDS = {"L": 11, "P": 8, "LANE": None}


def parse_map(text: str) -> SemanticMap:
    records = text_records(text)
    line_no, fields = next(records, (1, None))
    if fields is None:
        raise ParseError("map", 1, "empty input, missing header")
    if fields != _HEADER.split():
        raise ParseError("map", line_no, f"expected {_HEADER!r} header")
    lines: list = []
    points: list = []
    lanes: list = []

    def handle(fields):
        vals = [float(f) for f in fields[4:]]
        if fields[0] == "L":
            lines.append(LineLandmark(
                vals[0:3], vals[3:6], SemanticClass(fields[2]), vals[6],
                int(fields[3]), int(fields[1])))
        elif fields[0] == "P":
            points.append(PointLandmark(
                vals[0:3], SemanticClass(fields[2]), vals[3],
                int(fields[3]), int(fields[1])))
        else:
            if len(fields) < 4:
                raise ValueError("LANE record needs id, road and count")
            n = int(fields[3])
            if len(fields) != 4 + 3 * n:
                raise ValueError(f"LANE record promises {n} points but has "
                                 f"{len(fields) - 4} coordinate fields")
            lanes.append(LanePolyline(
                np.array(vals).reshape(n, 3), int(fields[2]), int(fields[1])))

    read_records(records, "map", _MAP_FIELDS, handle)
    try:
        return SemanticMap(lines, points, lanes)
    except ValueError as exc:
        raise ParseError("map", len(text.splitlines()), str(exc)) from None


def save_map(semantic_map: SemanticMap, path) -> None:
    with open(path, "w") as fh:
        fh.write(serialize_map(semantic_map))
