"""Per-sequence localization driver and evaluation metrics.

The first two frames take externally supplied bootstrap poses; every later
frame is initialized by constant-velocity extrapolation of the previous two
estimates, preselects landmarks around that prediction, and runs
associate-and-localize. Frames whose association fails carry the prediction
forward (coasting).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .association import NoValidAssociation, associate_and_localize
from .camera import CameraPose, Intrinsics, wrap_angle
from .features import DetectedLine, DetectedPoint
from .mapmodel import (RoughPose, SemanticClass, SemanticMap, preselect,
                       read_records, text_records)
from .residual import ResidualConfig


class InsufficientBootstrap(ValueError):
    """Fewer than two initial poses were supplied."""


class FrameStatus(Enum):
    BOOTSTRAPPED = "Bootstrapped"
    LOCALIZED = "Localized"
    COASTED = "Coasted"


@dataclass(eq=False)
class FrameInput:
    """Detections for one frame plus the road the vehicle is on."""

    frame_id: int
    det_lines: list = field(default_factory=list)
    det_points: list = field(default_factory=list)
    road_index: int = 0


@dataclass(eq=False)
class FrameRecord:
    frame_id: int
    status: FrameStatus
    pose: CameraPose
    sqrt_cost: float = math.nan  # sqrt of the accepted total cost
    n_corr: int = 0


@dataclass(eq=False)
class TrajectoryResult:
    records: list = field(default_factory=list)

    def count(self, status: FrameStatus) -> int:
        return sum(1 for rec in self.records if rec.status is status)


@dataclass(frozen=True)
class EvaluationSummary:
    n_frames: int
    rms_position_m: float
    max_position_m: float
    rms_lateral_m: float
    rms_longitudinal_m: float
    rms_vertical_m: float
    mean_angle_rad: float
    max_angle_rad: float
    fraction_below_half_meter: float


def predict_pose(prev: CameraPose, prev2: CameraPose) -> CameraPose:
    """Constant-velocity extrapolation: 2*prev - prev2, with angle
    differences taken on the shortest arc before extrapolating."""
    position = 2.0 * prev.position - prev2.position
    angles = [a + wrap_angle(a - b) for a, b in zip(prev.angles, prev2.angles)]
    return CameraPose(*position, *angles)


def heading_from_pose(pose: CameraPose) -> np.ndarray:
    """Ground-plane (x, z) travel direction implied by the pose's yaw."""
    return np.array([math.cos(pose.yaw), math.sin(pose.yaw)])


def run_sequence(semantic_map: SemanticMap, frames, bootstrap,
                 intrinsics: Intrinsics,
                 residual_config: ResidualConfig = ResidualConfig()
                 ) -> TrajectoryResult:
    """Localize every frame of a sequence.

    ``bootstrap`` supplies the poses of the first two frames. Association
    failures record a Coasted frame whose estimate is the prediction, and
    the prediction chain continues from it.
    """
    if len(bootstrap) < 2:
        raise InsufficientBootstrap("need two bootstrap poses")

    result = TrajectoryResult()
    records = result.records
    for k, frame in enumerate(frames):
        if k < 2:
            records.append(FrameRecord(
                frame.frame_id, FrameStatus.BOOTSTRAPPED, bootstrap[k]))
            continue
        init = predict_pose(records[-1].pose, records[-2].pose)
        rough = RoughPose(init.position, heading_from_pose(init),
                          frame.road_index)
        selected = preselect(semantic_map, rough)
        try:
            fit, refined = associate_and_localize(
                selected, frame.det_lines, frame.det_points, init, intrinsics,
                residual_config)
            records.append(FrameRecord(
                frame.frame_id, FrameStatus.LOCALIZED, fit.pose,
                fit.residual_rms, len(refined)))
        except NoValidAssociation:
            records.append(FrameRecord(
                frame.frame_id, FrameStatus.COASTED, init))
    return result


def evaluate(result: TrajectoryResult, ground_truth: dict) -> EvaluationSummary:
    """Metrics against per-frame ground-truth poses.

    Position errors decompose in the true camera frame: lateral = camera
    right axis, vertical = camera down axis, longitudinal = optical axis.
    Angle error is the geodesic rotation angle between estimated and true
    orientations.
    """
    if not result.records:
        return EvaluationSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    sq_pos, sq_axis = [], []
    angle_errors = []
    below = 0
    for rec in result.records:
        if rec.frame_id not in ground_truth:
            raise ValueError(f"ground truth missing frame {rec.frame_id}")
        truth = ground_truth[rec.frame_id]
        delta = rec.pose.position - truth.position
        err_sq = float(delta @ delta)
        sq_pos.append(err_sq)
        if math.sqrt(err_sq) < 0.5:
            below += 1
        cam_err = truth.rotation() @ delta
        sq_axis.append(cam_err ** 2)
        rel = rec.pose.rotation() @ truth.rotation().T
        cos_angle = (float(np.trace(rel)) - 1.0) / 2.0
        angle_errors.append(math.acos(max(-1.0, min(1.0, cos_angle))))
    sq_axis = np.array(sq_axis)
    n = len(sq_pos)
    return EvaluationSummary(
        n_frames=n,
        rms_position_m=math.sqrt(sum(sq_pos) / n),
        max_position_m=math.sqrt(max(sq_pos)),
        rms_lateral_m=math.sqrt(float(sq_axis[:, 0].mean())),
        rms_vertical_m=math.sqrt(float(sq_axis[:, 1].mean())),
        rms_longitudinal_m=math.sqrt(float(sq_axis[:, 2].mean())),
        mean_angle_rad=sum(angle_errors) / n,
        max_angle_rad=max(angle_errors),
        fraction_below_half_meter=below / n,
    )


# --- file formats ---------------------------------------------------------


def serialize_detections(frames) -> str:
    """Detection file: an F record per frame followed by its DL/DP rows."""
    rows = []
    for frame in frames:
        rows.append(f"F {frame.frame_id} {frame.road_index}")
        for det in frame.det_lines:
            rows.append(
                f"DL {det.semantic.value} {det.m1[0]:.6f} {det.m1[1]:.6f} "
                f"{det.m2[0]:.6f} {det.m2[1]:.6f}")
        for det in frame.det_points:
            rows.append(f"DP {det.semantic.value} {det.m[0]:.6f} {det.m[1]:.6f}")
    return "\n".join(rows) + ("\n" if rows else "")


# Fields per detections record, the tag included.
_DETECTION_FIELDS = {"F": 3, "DL": 6, "DP": 4}


def parse_detections(text: str) -> list:
    frames: list[FrameInput] = []

    def handle(fields):
        if fields[0] == "F":
            frame_id = int(fields[1])
            if frames and frame_id <= frames[-1].frame_id:
                raise ValueError("frame ids must be strictly increasing")
            frames.append(FrameInput(frame_id, road_index=int(fields[2])))
        elif not frames:
            raise ValueError(f"{fields[0]} record before any F record")
        elif fields[0] == "DL":
            frames[-1].det_lines.append(DetectedLine(
                [float(fields[2]), float(fields[3])],
                [float(fields[4]), float(fields[5])],
                SemanticClass(fields[1])))
        else:
            frames[-1].det_points.append(DetectedPoint(
                [float(fields[2]), float(fields[3])],
                SemanticClass(fields[1])))

    read_records(text_records(text), "detections", _DETECTION_FIELDS, handle)
    return frames


def serialize_ground_truth(poses: dict) -> str:
    """Ground-truth file: GT <frame> <x> <y> <z> <yaw> <pitch> <roll>."""
    rows = [
        f"GT {frame_id} {p.x:.9f} {p.y:.9f} {p.z:.9f} "
        f"{p.yaw:.9f} {p.pitch:.9f} {p.roll:.9f}"
        for frame_id, p in sorted(poses.items())
    ]
    return "\n".join(rows) + ("\n" if rows else "")


def parse_ground_truth(text: str) -> dict:
    poses = {}

    def handle(fields):
        frame_id = int(fields[1])
        if frame_id in poses:
            raise ValueError(f"frame {frame_id} repeated")
        poses[frame_id] = CameraPose(*(float(f) for f in fields[2:]))

    read_records(text_records(text), "ground truth", {"GT": 8}, handle)
    return poses


def serialize_result(result: TrajectoryResult) -> str:
    rows = ["frame,status,Cx,Cy,Cz,yaw,pitch,roll,sqrtR,n_corr"]
    for rec in result.records:
        p = rec.pose
        rows.append(
            f"{rec.frame_id},{rec.status.value},{p.x:.9f},{p.y:.9f},{p.z:.9f},"
            f"{p.yaw:.9f},{p.pitch:.9f},{p.roll:.9f},{rec.sqrt_cost:.9f},"
            f"{rec.n_corr}")
    return "\n".join(rows) + "\n"


def parse_result(text: str) -> TrajectoryResult:
    """A result CSV; frame ids must be strictly increasing."""
    rows = [(line_no, raw) for line_no, raw
            in enumerate(text.splitlines(), start=1) if raw.strip()]
    if not rows or not rows[0][1].startswith("frame,"):
        raise ValueError("result CSV missing header")
    result = TrajectoryResult()
    for line_no, raw in rows[1:]:
        fields = raw.split(",")
        try:
            if len(fields) != 10:
                raise ValueError(f"row has {len(fields)} fields: {raw!r}")
            frame_id = int(fields[0])
            if result.records and frame_id <= result.records[-1].frame_id:
                raise ValueError("frame ids must be strictly increasing")
            pose = CameraPose(*(float(f) for f in fields[2:8]))
            result.records.append(FrameRecord(
                frame_id, FrameStatus(fields[1]), pose,
                float(fields[8]), int(fields[9])))
        except ValueError as exc:
            raise ValueError(f"result CSV line {line_no}: {exc}") from None
    return result
