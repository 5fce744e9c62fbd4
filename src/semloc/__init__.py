"""Monocular vehicle localization against a compact semantic landmark map."""

from .association import (AssociationConfig, NoValidAssociation,
                          associate_and_localize, closest_correspond,
                          pose_distance)
from .camera import (CameraPose, Intrinsics, PoseTransform,
                     angles_from_rotation, project_line, project_point,
                     rotation_from_angles)
from .features import (DetectedLine, DetectedPoint, SemanticMask,
                       extract_features)
from .mapmodel import (DegenerateCluster, LanePolyline, LineLandmark,
                       ParseError, PointLandmark, PreselectedSet, RoughPose,
                       SemanticClass, SemanticMap, fit_line_landmark,
                       fit_point_landmark, parse_map, preselect, save_map,
                       serialize_map)
from .pipeline import (EvaluationSummary, FrameInput, FrameRecord,
                       FrameStatus, InsufficientBootstrap, TrajectoryResult,
                       evaluate, predict_pose, run_sequence)
from .residual import (CorrespondenceSet, EmptyCorrespondence,
                       ReprojectionObjective, ResidualConfig, line_distance,
                       point_distance, soft_constraint)
from .solver import (SingularNormalEquations, SolveResult, TerminationReason,
                     cost_landscape, solve)
from .synthworld import (WorldConfig, generate_world, render_detections,
                         render_frames, render_masks)

__version__ = "0.1.0"
