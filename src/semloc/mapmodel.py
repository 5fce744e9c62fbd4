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
# Lane polyline points this far ahead of the rough position (meters, along
# the rough heading) are fitted into a synthetic lane landmark.
LANE_WINDOW_M = (5.0, 20.0)

_COINCIDENT_EPS = 1e-9
_MIN_SEGMENT_M = 1e-6
_POINT_SIZE_FLOOR_M = 1e-3
# Pair sums per block of fit_point_landmark's largest-distance scan.
_PAIR_BLOCK = 1 << 18


class DegenerateCluster(ValueError):
    """Cluster cannot support a line fit (fewer than 2 distinct points)."""


class ParseError(ValueError):
    """Malformed map text; carries the 1-based line number."""

    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        super().__init__(f"map line {line_no}: {reason}")


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
        # preselect's last (vertex indices, lane landmark); see _lane_landmark.
        object.__setattr__(self, "_window_fit", ((), None))


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
    """Landmarks surviving preselection, in map order; synthetic lane
    segments (fitted from polyline windows, id = polyline id) come last."""

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


def resolvable(sizes, anchors, position) -> np.ndarray:
    """The size/distance rule, one entry per landmark: true where the size
    over the 3D distance from ``position`` to the landmark's anchor (a row
    of the (n, 3) ``anchors``) strictly exceeds ``MIN_SIZE_RATIO``."""
    d = position - np.asarray(anchors, dtype=float).reshape(-1, 3)
    # A stacked 1x3 @ 3x1 product is the BLAS dot np.linalg.norm takes for
    # one vector, so each distance equals that of the single-vector norm;
    # norm(axis=1), einsum and (d * d).sum(1) round differently.
    dist = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])
    positive = dist > 0
    # A zero distance divides by inf instead, so it warns of nothing.
    ratio = np.asarray(sizes, dtype=float) / np.where(positive, dist, np.inf)
    return positive & (ratio > MIN_SIZE_RATIO)


def _lane_landmark(lane: LanePolyline, vertices: tuple) -> LineLandmark | None:
    """The lane landmark fitted to the given vertices of a polyline, or None
    when they are degenerate.

    Frames are about 1.4 m apart and lane vertices 7.5 m, so a lane's window
    keeps its vertices for several frames: each polyline remembers its last
    fit. The pair is read and replaced as one tuple, so concurrent callers
    never see one window's fit under another's indices.
    """
    last_vertices, landmark = lane._window_fit
    if last_vertices != vertices:
        try:
            landmark = fit_line_landmark(lane.points[list(vertices)],
                                         SemanticClass.LANE_LINE,
                                         lane.road_index, landmark_id=lane.id)
        except DegenerateCluster:
            landmark = None
        object.__setattr__(lane, "_window_fit", (vertices, landmark))
    return landmark


def preselect(semantic_map: SemanticMap, rough: RoughPose) -> PreselectedSet:
    """Select landmarks likely visible from a rough pose.

    Keeps landmarks on the same road that are ``resolvable`` from the rough
    position (distance to the first control point). Lane polylines on the
    road contribute a synthetic straight lane landmark fitted to their
    points ``LANE_WINDOW_M`` ahead along the rough heading.
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
    near, far = LANE_WINDOW_M
    for lane in semantic_map.lanes:
        if lane.road_index != road:
            continue
        ground_delta = lane.points[:, ::2] - pos[::2]  # (x, z)
        along = ground_delta @ rough.heading
        window = np.flatnonzero((along >= near) & (along <= far))
        if window.shape[0] >= 2:
            landmark = _lane_landmark(lane, tuple(window.tolist()))
            if landmark is not None:
                out.lines.append(landmark)
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


def _parse_class(tag: str, line_no: int, line_shaped: bool) -> SemanticClass:
    try:
        cls = SemanticClass(tag)
    except ValueError:
        raise ParseError(line_no, f"unknown class {tag!r}") from None
    if cls.is_line_shaped != line_shaped:
        kind = "line" if line_shaped else "point"
        raise ParseError(line_no, f"class {tag} is not {kind}-shaped")
    return cls


def _parse_floats(fields, line_no: int):
    try:
        return [float(f) for f in fields]
    except ValueError:
        raise ParseError(line_no, "malformed numeric field") from None


def parse_map(text: str) -> SemanticMap:
    lines: list = []
    points: list = []
    lanes: list = []
    saw_header = False
    for line_no, fields in text_records(text):
        if not saw_header:
            if fields != _HEADER.split():
                raise ParseError(line_no, f"expected {_HEADER!r} header")
            saw_header = True
            continue
        tag = fields[0]
        try:
            if tag == "L":
                if len(fields) != 11:
                    raise ParseError(line_no, f"L record needs 11 fields, got {len(fields)}")
                vals = _parse_floats(fields[4:], line_no)
                lines.append(LineLandmark(
                    vals[0:3], vals[3:6],
                    _parse_class(fields[2], line_no, line_shaped=True),
                    vals[6], int(fields[3]), int(fields[1])))
            elif tag == "P":
                if len(fields) != 8:
                    raise ParseError(line_no, f"P record needs 8 fields, got {len(fields)}")
                vals = _parse_floats(fields[4:], line_no)
                points.append(PointLandmark(
                    vals[0:3],
                    _parse_class(fields[2], line_no, line_shaped=False),
                    vals[3], int(fields[3]), int(fields[1])))
            elif tag == "LANE":
                if len(fields) < 4:
                    raise ParseError(line_no, "LANE record needs id, road and count")
                n = int(fields[3])
                if len(fields) != 4 + 3 * n:
                    raise ParseError(
                        line_no, f"LANE record promises {n} points but has "
                        f"{len(fields) - 4} coordinate fields")
                vals = _parse_floats(fields[4:], line_no)
                lanes.append(LanePolyline(
                    np.array(vals).reshape(n, 3), int(fields[2]), int(fields[1])))
            else:
                raise ParseError(line_no, f"unknown record tag {tag!r}")
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
    if not saw_header:
        raise ParseError(1, "empty input, missing header")
    try:
        return SemanticMap(lines, points, lanes)
    except ValueError as exc:
        raise ParseError(len(text.splitlines()), str(exc)) from None


def save_map(semantic_map: SemanticMap, path) -> None:
    with open(path, "w") as fh:
        fh.write(serialize_map(semantic_map))
