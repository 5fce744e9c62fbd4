"""Synthetic corridor worlds with exact ground truth.

Generates a straight road corridor (vertical poles, elevated signs, lane
polylines on the ground), a constant-speed camera trajectory, and per-frame
detections or rasterized masks. Detections reuse the package's own
projection code, carry the source landmark id as a hidden label, and can be
corrupted with Gaussian pixel noise, dropouts, and uniformly placed outlier
detections for robustness studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .camera import (CameraPose, Intrinsics, PoseTransform, project_line,
                     project_point)
from .features import DetectedLine, DetectedPoint, SemanticMask
from .mapmodel import (LanePolyline, LineLandmark, PointLandmark,
                       SemanticClass, SemanticMap, lane_chord, resolvable)
from .pipeline import FrameInput, heading_from_pose

DEFAULT_INTRINSICS = Intrinsics(fx=700.0, fy=700.0, cx=613.0, cy=185.0,
                                width=1226, height=370)
CURVE_WAVELENGTH_M = 180.0    # period of the optional S-curve
LANE_POINT_SPACING_M = 7.5    # between lane polyline points
POLE_LATERAL_JITTER_M = 1.0   # half-width of the pole lateral jitter


@dataclass(frozen=True)
class WorldConfig:
    corridor_length_m: float = 270.0
    # Optional gentle S-curve of the road centerline; zero gives a straight
    # corridor. The map and the renderer share one lane chord, so a curved
    # lane is as exact as a straight one at the true pose.
    curve_amplitude_m: float = 0.0
    lane_count: int = 2
    lane_spacing_m: float = 3.5
    # One roadside lattice of pole-like objects; every ``milestone_every``-th
    # entry is a milestone (shorter, closer to the road) instead of a lamp
    # pole, so nearest-neighbor matching works within two separate classes.
    pole_spacing_m: float = 13.0
    # Mapped poles are short (a sweeping Lidar only sees the lower part), so
    # the size/distance preselection rule stops keeping them around ~40 m
    # out. Keeping the reach below about 1.5 same-class spacings starves
    # shifted self-matches of the lattice: a slid pose cannot re-match
    # enough pairs to pass the half-count acceptance bar.
    pole_height_m: float = 0.65
    pole_lateral_m: float = 8.0
    pole_sides: int = 1            # 1 = right side only, 2 = both sides
    milestone_every: int = 2       # 0 disables milestones
    milestone_height_m: float = 0.52
    milestone_lateral_m: float = 5.5
    # Irregular layout, like real street furniture: per-landmark position
    # jitter as a fraction of the spacing, plus height variation (the lateral
    # variation is POLE_LATERAL_JITTER_M).
    layout_jitter_frac: float = 0.3
    pole_height_jitter_m: float = 0.05
    sign_spacing_m: float = 54.0   # first sign at half a spacing
    sign_lateral_m: float = 5.5
    sign_height_m: float = 3.0
    sign_size_m: float = 0.8
    camera_height_m: float = 1.6
    frame_spacing_m: float = 1.4
    trajectory_margin_m: float = 40.0  # stop before landmarks run out ahead
    pitch_roll_jitter_deg: float = 0.25
    pixel_noise_sigma: float = 0.0
    outlier_rate: float = 0.0
    dropout_rate: float = 0.0
    road_index: int = 0
    rng_seed: int = 0
    intrinsics: Intrinsics = DEFAULT_INTRINSICS

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not 0.0 <= self.outlier_rate <= 1.0 or not 0.0 <= self.dropout_rate <= 1.0:
            raise ValueError("rates must lie in [0, 1]")
        if self.pixel_noise_sigma < 0:
            raise ValueError("noise sigma must be non-negative")
        if min(self.lane_spacing_m, self.pole_spacing_m, self.sign_spacing_m,
               self.frame_spacing_m) <= 0:
            raise ValueError("spacings must be positive")


@dataclass(eq=False)
class RenderedFrame:
    """Detections for one frame plus hidden oracle data.

    ``line_labels`` / ``point_labels`` give the source landmark id per
    detection (None for injected outliers); ``exact_lines`` /
    ``exact_points`` hold the pre-noise geometry for the same entries.
    """

    frame: FrameInput
    line_labels: list = field(default_factory=list)
    point_labels: list = field(default_factory=list)
    exact_lines: list = field(default_factory=list)
    exact_points: list = field(default_factory=list)


def _centerline(config: WorldConfig, x: float):
    """Road centerline point (x, z) and heading angle at parameter x."""
    if config.curve_amplitude_m == 0.0:
        return x, 0.0, 0.0
    omega = 2.0 * math.pi / CURVE_WAVELENGTH_M
    z = config.curve_amplitude_m * math.sin(omega * x)
    yaw = math.atan2(config.curve_amplitude_m * omega * math.cos(omega * x), 1.0)
    return x, z, yaw


def _offset_from_center(config: WorldConfig, x: float, lateral: float):
    """Ground point a signed lateral offset to the right of the centerline."""
    cx, cz, yaw = _centerline(config, x)
    hx, hz = math.cos(yaw), math.sin(yaw)
    return cx - hz * lateral, cz + hx * lateral


def generate_world(config: WorldConfig):
    """Build the corridor map and its ground-truth trajectory.

    Returns (SemanticMap, list of CameraPose). The trajectory stops
    ``trajectory_margin_m`` before the corridor end so forward landmarks
    remain in view on every frame.
    """
    length = config.corridor_length_m
    if length <= 0:
        return SemanticMap(), []
    rng = np.random.default_rng(config.rng_seed)
    lines, points, lanes = [], [], []
    next_id = 0

    side_signs = [1.0]
    if config.pole_sides >= 2:
        side_signs.append(-1.0)
    n_poles = int(math.floor(length / config.pole_spacing_m)) + 1
    x_jitter = config.layout_jitter_frac * config.pole_spacing_m
    for side_sign in side_signs:
        for i in range(n_poles):
            if config.milestone_every and i % config.milestone_every == 1:
                semantic = SemanticClass.MILESTONE
                base_height = config.milestone_height_m
                base_lateral = config.milestone_lateral_m
            else:
                semantic = SemanticClass.POLE_LIKE
                base_height = config.pole_height_m
                base_lateral = config.pole_lateral_m
            x = i * config.pole_spacing_m + float(rng.uniform(-x_jitter, x_jitter))
            x = min(max(x, 0.0), length)
            height = base_height + \
                float(rng.uniform(-config.pole_height_jitter_m,
                                  config.pole_height_jitter_m))
            height = max(height, 0.3)
            lateral = side_sign * (
                base_lateral + float(rng.uniform(-POLE_LATERAL_JITTER_M,
                                                 POLE_LATERAL_JITTER_M)))
            px, pz = _offset_from_center(config, x, lateral)
            lines.append(LineLandmark(
                p1=[px, 0.0, pz], p2=[px, height, pz],
                semantic=semantic, size_m=height,
                road_index=config.road_index, id=next_id))
            next_id += 1

    x = config.sign_spacing_m / 2.0
    sign_jitter = config.layout_jitter_frac * config.sign_spacing_m
    sign_index = 0
    while x <= length:
        side = config.sign_lateral_m if sign_index % 2 == 0 else -config.sign_lateral_m
        sx = min(max(x + float(rng.uniform(-sign_jitter, sign_jitter)), 0.0), length)
        px, pz = _offset_from_center(config, sx, side)
        points.append(PointLandmark(
            p=[px, config.sign_height_m + float(rng.uniform(-0.5, 0.5)), pz],
            semantic=SemanticClass.TRAFFIC_SIGN, size_m=config.sign_size_m,
            road_index=config.road_index, id=next_id))
        next_id += 1
        sign_index += 1
        x += config.sign_spacing_m

    n_lane_pts = int(math.floor(length / LANE_POINT_SPACING_M)) + 1
    xs = np.arange(n_lane_pts) * LANE_POINT_SPACING_M
    for i in range(config.lane_count):
        lateral = (i - (config.lane_count - 1) / 2.0) * config.lane_spacing_m
        ground = [_offset_from_center(config, float(x), lateral) for x in xs]
        pts = np.array([[gx, 0.0, gz] for gx, gz in ground])
        lanes.append(LanePolyline(pts, config.road_index, next_id))
        next_id += 1

    jitter = math.radians(config.pitch_roll_jitter_deg)
    trajectory = []
    x = 0.0
    end = max(0.0, length - config.trajectory_margin_m)
    while x <= end + 1e-9:
        cx, cz, yaw = _centerline(config, x)
        pitch = float(rng.uniform(-jitter, jitter)) if jitter > 0 else 0.0
        roll = float(rng.uniform(-jitter, jitter)) if jitter > 0 else 0.0
        trajectory.append(CameraPose(cx, config.camera_height_m, cz,
                                     yaw, pitch, roll))
        x += config.frame_spacing_m
    return SemanticMap(lines, points, lanes), trajectory


def _in_image(uv, intrinsics: Intrinsics) -> bool:
    return bool(0.0 <= uv[0] <= intrinsics.width - 1 and
                0.0 <= uv[1] <= intrinsics.height - 1)


def _visible_lane_window(lane: LanePolyline, pose: CameraPose,
                         view: PoseTransform, intrinsics: Intrinsics):
    """Projected ends of the part of the lane's ``lane_chord`` from the pose
    (sampled every 0.5 m) that lands inside the image, seen through
    ``view``, the pose's transform. Returns (m1, m2) or None."""
    chord = lane_chord(lane, view.center, heading_from_pose(pose))
    if chord is None:
        return None
    a, b = chord
    n = max(2, int(float(np.linalg.norm(b - a)) / 0.5) + 1)
    kept = []
    for t in np.linspace(0.0, 1.0, n):
        uv = project_point(a + t * (b - a), view, intrinsics)
        if uv is not None and _in_image(uv, intrinsics):
            kept.append(uv)
    if len(kept) < 2:
        return None
    m1, m2 = np.array(kept[0]), np.array(kept[-1])
    if float(np.linalg.norm(m2 - m1)) < 2.0:
        return None
    return m1, m2


def _true_line_projections(semantic_map: SemanticMap, pose: CameraPose,
                           view: PoseTransform, config: WorldConfig):
    """(landmark id, class, m1, m2) for every line landmark fully visible
    from the pose, whose transform is ``view``, and for every lane chord in
    view. A landmark must also pass preselection's size/distance rule from
    the pose, so every preselectable landmark has its own rendering and no
    un-preselectable bait detections exist."""
    intr = config.intrinsics
    position = view.center
    out = []
    keep = resolvable([lm.size_m for lm in semantic_map.lines],
                      [lm.p1 for lm in semantic_map.lines], position)
    for lm, kept in zip(semantic_map.lines, keep.tolist()):
        if not kept:
            continue
        proj = project_line(lm, view, intr)
        if proj is None:
            continue
        m1, m2 = np.array(proj[:2]), np.array(proj[2:])
        if not (_in_image(m1, intr) and _in_image(m2, intr)):
            continue
        out.append((lm.id, lm.semantic, m1, m2))
    for lane in semantic_map.lanes:
        window = _visible_lane_window(lane, pose, view, intr)
        if window is not None:
            out.append((lane.id, SemanticClass.LANE_LINE, window[0], window[1]))
    return out


def _true_point_projections(semantic_map: SemanticMap, view: PoseTransform,
                            config: WorldConfig):
    """(landmark, pixel) for every point landmark visible and resolvable
    from the pose whose transform is ``view``."""
    intr = config.intrinsics
    position = view.center
    out = []
    keep = resolvable([lm.size_m for lm in semantic_map.points],
                      [lm.p for lm in semantic_map.points], position)
    for lm, kept in zip(semantic_map.points, keep.tolist()):
        if not kept:
            continue
        uv = project_point(lm.p, view, intr)
        if uv is None or not _in_image(uv, intr):
            continue
        out.append((lm, np.array(uv)))
    return out


def render_detections(semantic_map: SemanticMap, pose: CameraPose,
                      config: WorldConfig, frame_id: int = 0) -> RenderedFrame:
    """Render one frame of detections from the true pose.

    Visibility means both control points project inside the image.
    Gaussian noise, dropouts and outliers are applied per the config;
    outlier counts are ``round(rate * number of visible true detections)``
    per feature kind.
    """
    rng = np.random.default_rng((config.rng_seed, frame_id))
    intr = config.intrinsics
    frame = FrameInput(frame_id, road_index=config.road_index)
    rendered = RenderedFrame(frame)

    view = PoseTransform.of(pose)
    true_lines = _true_line_projections(semantic_map, pose, view, config)
    true_points = _true_point_projections(semantic_map, view, config)

    sigma = config.pixel_noise_sigma

    def noisy(uv):
        return uv + rng.normal(0.0, sigma, 2) if sigma > 0 else uv.copy()

    for lm_id, semantic, m1, m2 in true_lines:
        if rng.uniform() < config.dropout_rate:
            continue
        noisy1, noisy2 = noisy(m1), noisy(m2)
        if float(np.linalg.norm(noisy2 - noisy1)) < 1e-3:
            continue
        frame.det_lines.append(DetectedLine(noisy1, noisy2, semantic))
        rendered.line_labels.append(lm_id)
        rendered.exact_lines.append((m1, m2))
    for lm, uv in true_points:
        if rng.uniform() < config.dropout_rate:
            continue
        frame.det_points.append(DetectedPoint(noisy(uv), lm.semantic))
        rendered.point_labels.append(lm.id)
        rendered.exact_points.append(uv)

    if config.outlier_rate > 0:
        # Outlier lines carry pole-like classes only: a lane-class false
        # positive is by construction near-collinear with a true lane (any
        # road-parallel streak), which no infinite-line gate can reject.
        line_classes = [t[1] for t in true_lines
                        if t[1] is not SemanticClass.LANE_LINE] or \
            [SemanticClass.POLE_LIKE]
        n_out = int(round(config.outlier_rate * len(true_lines)))
        for _ in range(n_out):
            while True:
                a = np.array([rng.uniform(0, intr.width - 1),
                              rng.uniform(0, intr.height - 1)])
                b = np.array([rng.uniform(0, intr.width - 1),
                              rng.uniform(0, intr.height - 1)])
                if np.linalg.norm(b - a) >= 10.0:
                    break
            semantic = line_classes[int(rng.integers(len(line_classes)))]
            frame.det_lines.append(DetectedLine(a, b, semantic))
            rendered.line_labels.append(None)
            rendered.exact_lines.append(None)
        n_out = int(round(config.outlier_rate * len(true_points)))
        for _ in range(n_out):
            uv = np.array([rng.uniform(0, intr.width - 1),
                           rng.uniform(0, intr.height - 1)])
            frame.det_points.append(
                DetectedPoint(uv, SemanticClass.TRAFFIC_SIGN))
            rendered.point_labels.append(None)
            rendered.exact_points.append(None)
    return rendered


def render_frames(semantic_map: SemanticMap, trajectory,
                  config: WorldConfig) -> list:
    """Render the whole trajectory; frame k gets frame_id k."""
    return [render_detections(semantic_map, pose, config, frame_id=k)
            for k, pose in enumerate(trajectory)]


# --- mask rasterization -----------------------------------------------------


def _stroke(raster: np.ndarray, p0: np.ndarray, p1: np.ndarray):
    """3 px wide anti-alias-free stroke.

    Walks the major axis one pixel at a time and paints a perpendicular
    slab, so the stroke ends exactly at the (rounded) endpoints instead of
    overshooting like a square brush would.
    """
    dx, dy = float(p1[0] - p0[0]), float(p1[1] - p0[1])
    if abs(dy) < abs(dx):
        # x-major: the same walk over the transposed raster, (y, x) points.
        _stroke(raster.T, p0[::-1], p1[::-1])
        return
    h, w = raster.shape
    y0, y1 = int(round(p0[1])), int(round(p1[1]))
    step = 1 if y1 >= y0 else -1
    for y in range(y0, y1 + step, step):
        t = 0.0 if dy == 0 else (y - p0[1]) / dy
        x = int(round(p0[0] + t * dx))
        hw = 0 if y in (y0, y1) else 1  # taper: exact ends
        if 0 <= y < h:
            raster[y, max(0, x - hw):min(w, x + hw + 1)] = 255


def _disc(raster: np.ndarray, center: np.ndarray, radius: float):
    h, w = raster.shape
    x0 = max(0, int(math.floor(center[0] - radius)))
    x1 = min(w - 1, int(math.ceil(center[0] + radius)))
    y0 = max(0, int(math.floor(center[1] - radius)))
    y1 = min(h - 1, int(math.ceil(center[1] + radius)))
    if x0 > x1 or y0 > y1:
        return
    yy, xx = np.mgrid[y0:y1 + 1, x0:x1 + 1]
    inside = (xx - center[0]) ** 2 + (yy - center[1]) ** 2 <= radius ** 2
    raster[y0:y1 + 1, x0:x1 + 1][inside] = 255


def render_masks(semantic_map: SemanticMap, pose: CameraPose,
                 config: WorldConfig):
    """Rasterize visible landmarks into per-class 8-bit masks.

    Lines become 3 px wide strokes, signs filled discs, both at 255.
    Returns (SemanticMask, exact DetectedLine list, exact DetectedPoint
    list); the exact detections are the noise-free geometry the strokes
    were drawn from, for round-trip checks. Masks are always noiseless.
    """
    intr = config.intrinsics
    channels = {}

    def channel(semantic):
        if semantic not in channels:
            channels[semantic] = np.zeros((intr.height, intr.width), np.uint8)
        return channels[semantic]

    view = PoseTransform.of(pose)
    exact_lines, exact_points = [], []
    for lm_id, semantic, m1, m2 in _true_line_projections(semantic_map, pose,
                                                          view, config):
        _stroke(channel(semantic), m1, m2)
        exact_lines.append(DetectedLine(m1, m2, semantic))
    for lm, uv in _true_point_projections(semantic_map, view, config):
        depth = float((view.rotation @ (lm.p - view.center))[2])
        radius = max(4.0, intr.fx * lm.size_m / 2.0 / max(depth, 1.0))
        _disc(channel(lm.semantic), uv, min(radius, 20.0))
        exact_points.append(DetectedPoint(uv, lm.semantic))
    return SemanticMask(channels), exact_lines, exact_points
