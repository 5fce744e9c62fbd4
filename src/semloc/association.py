"""Simultaneous data association and localization.

Two stages: a gated nearest-neighbor matcher pairs each preselected
landmark with its closest same-class detection, and a hypothesize-validate
loop samples small pair subsets, solves the pose on each, and keeps the
first hypothesis whose refined pose survives the residual and pose-shift
gates. The accepted result is the pose optimized over the re-matched,
tightly gated correspondence set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .camera import CameraPose, Intrinsics, project_line, project_point, wrap_angle
from .mapmodel import PreselectedSet
from .residual import (CorrespondenceSet, EmptyCorrespondence,
                       ReprojectionObjective, ResidualConfig, SolverObjective,
                       line_distance, nearest_lane_height, point_distance)
from .solver import SingularNormalEquations, SolverConfig, solve


class NoValidAssociation(RuntimeError):
    """No hypothesis survived validation; coast on the motion model."""


@dataclass(frozen=True)
class AssociationConfig:
    """Gates and sampling parameters for associate-and-localize.

    Distances are pixels; ``max_pose_shift`` is the mixed-unit pose norm of
    ``pose_distance`` (meters and degrees). Defaults follow the reference
    tuning for urban scenes.
    """

    gate_line_init_px: float = 300.0      # initial line match gate
    gate_point_init_px: float = 300.0     # initial point match gate
    gate_line_refine_px: float = 10.0     # re-match line gate after validation
    gate_point_refine_px: float = 10.0    # re-match point gate after validation
    max_pose_shift: float = 30.0          # validated pose vs initial pose
    max_hypothesis_rms: float = 200.0     # sqrt(cost) bound for a hypothesis
    max_final_rms_per_pair: float = 4.0   # sqrt(cost) bound per refined pair
    hypothesis_lines: int = 4
    hypothesis_points: int = 1
    max_hypotheses: int = 500
    rng_seed: int = 0

    def __post_init__(self):
        if self.gate_line_refine_px > self.gate_line_init_px or \
                self.gate_point_refine_px > self.gate_point_init_px:
            raise ValueError("refinement gates must not exceed initial gates")
        if min(self.gate_line_init_px, self.gate_point_init_px,
               self.gate_line_refine_px, self.gate_point_refine_px,
               self.max_pose_shift, self.max_hypothesis_rms,
               self.max_final_rms_per_pair) <= 0:
            raise ValueError("gates must be positive")


def pose_distance(a: CameraPose, b: CameraPose) -> float:
    """Mixed-unit pose difference norm: meters for position, degrees for
    angles, angle differences taken on the shortest arc."""
    dp = a.position - b.position
    da = [math.degrees(wrap_angle(x - y))
          for x, y in zip(a.angles, b.angles)]
    return math.sqrt(float(dp @ dp) + sum(d * d for d in da))


def closest_correspond(preselected: PreselectedSet, det_lines, det_points,
                       pose: CameraPose, intrinsics: Intrinsics,
                       gate_line_px: float, gate_point_px: float) -> CorrespondenceSet:
    """Gated nearest-neighbor matching at a fixed pose.

    Each preselected landmark is projected (cheirality failures are
    skipped) and paired with the closest detection of the same class when
    that distance is within the gate. Ties go to the lowest detection
    index, and a detection may be claimed by more than one landmark; the
    hypothesis validation stage is the defense against such conflicts.
    """
    corr = CorrespondenceSet()
    # The projections name the module globals at call time, so a wrapper
    # installed on this module sees every call.
    for pairs, landmarks, detections, project, distance, gate in (
            (corr.line_pairs, preselected.lines, det_lines,
             lambda lm: project_line(lm, pose, intrinsics), line_distance,
             gate_line_px),
            (corr.point_pairs, preselected.points, det_points,
             lambda lm: project_point(lm.p, pose, intrinsics), point_distance,
             gate_point_px)):
        for lm_idx, lm in enumerate(landmarks):
            proj = project(lm)
            if proj is None:
                continue
            best, best_idx = math.inf, -1
            for det_idx, det in enumerate(detections):
                if det.semantic is not lm.semantic:
                    continue
                dist = distance(proj, det)
                if dist < best:
                    best, best_idx = dist, det_idx
            if best_idx >= 0 and best <= gate:
                pairs.append((lm_idx, best_idx))
    return corr


def _hypothesis_sizes(n_lines: int, n_points: int, config: AssociationConfig):
    """How many line/point pairs a hypothesis draws, degrading gracefully
    when one kind is scarce: use all of the scarce kind and top up with the
    other toward the usual total."""
    total = config.hypothesis_lines + config.hypothesis_points
    if n_points < config.hypothesis_points:
        k_lines = min(n_lines, total)
        k_points = n_points
    else:
        k_lines = min(n_lines, config.hypothesis_lines)
        k_points = min(n_points, total - k_lines)
    return k_lines, k_points


def _iter_hypotheses(base: CorrespondenceSet, config: AssociationConfig, rng):
    """Yield distinct (line pair subset, point pair subset) hypotheses in a
    seeded random order, at most ``max_hypotheses`` of them."""
    n_lines, n_points = len(base.line_pairs), len(base.point_pairs)
    if len(base) < 3:
        yield base
        return
    k_lines, k_points = _hypothesis_sizes(n_lines, n_points, config)
    n_combos = math.comb(n_lines, k_lines) * math.comb(n_points, k_points)
    if n_combos <= config.max_hypotheses:
        pool = [(lc, pc)
                for lc in combinations(range(n_lines), k_lines)
                for pc in combinations(range(n_points), k_points)]
        order = rng.permutation(len(pool))
        chosen = (pool[i] for i in order)
    else:
        def _draws():
            seen = set()
            attempts = 0
            while len(seen) < config.max_hypotheses and \
                    attempts < 10 * config.max_hypotheses:
                attempts += 1
                lc = tuple(sorted(rng.choice(n_lines, size=k_lines,
                                             replace=False))) if k_lines else ()
                pc = tuple(sorted(rng.choice(n_points, size=k_points,
                                             replace=False))) if k_points else ()
                if (lc, pc) in seen:
                    continue
                seen.add((lc, pc))
                yield lc, pc
        chosen = _draws()
    for lc, pc in chosen:
        yield CorrespondenceSet([base.line_pairs[i] for i in lc],
                                [base.point_pairs[i] for i in pc])


def associate_and_localize(preselected: PreselectedSet, det_lines, det_points,
                           init: CameraPose, intrinsics: Intrinsics,
                           assoc_config: AssociationConfig = AssociationConfig(),
                           solver_config: SolverConfig = SolverConfig(),
                           residual_config: ResidualConfig = ResidualConfig()):
    """Robust pose estimation with unknown correspondences.

    Returns (SolveResult, refined CorrespondenceSet) or raises
    NoValidAssociation. Deterministic for a fixed ``rng_seed``.
    """
    base = closest_correspond(preselected, det_lines, det_points, init,
                              intrinsics, assoc_config.gate_line_init_px,
                              assoc_config.gate_point_init_px)
    if len(base) == 0:
        raise NoValidAssociation("no gated pairs at the initial pose")
    # Lane height for the flat-ground term, pinned at the initial position
    # so the objective stays smooth across the whole solve.
    y_lane = nearest_lane_height(preselected.lines, init.position)
    rng = np.random.default_rng(assoc_config.rng_seed)

    def _solve_pairs(corr, start):
        """Optimize over a correspondence set; the returned result reports
        the gate cost (sqrt of the stacked-distance residual), while the
        minimization itself runs on the smooth split-row formulation."""
        reported = ReprojectionObjective(
            preselected, det_lines, det_points, corr, intrinsics,
            residual_config, y_lane)
        fit = solve(SolverObjective(reported), start, solver_config)
        gate_cost = reported.cost(fit.pose)
        return replace(fit, final_cost=gate_cost,
                       residual_rms=math.sqrt(gate_cost))

    for hypothesis in _iter_hypotheses(base, assoc_config, rng):
        try:
            fit = _solve_pairs(hypothesis, init)
        except (EmptyCorrespondence, SingularNormalEquations):
            continue
        if fit.residual_rms > assoc_config.max_hypothesis_rms:
            continue
        if pose_distance(fit.pose, init) > assoc_config.max_pose_shift:
            continue

        refined = closest_correspond(
            preselected, det_lines, det_points, fit.pose, intrinsics,
            assoc_config.gate_line_refine_px, assoc_config.gate_point_refine_px)
        if len(refined) == 0:
            continue
        try:
            final = _solve_pairs(refined, fit.pose)
        except (EmptyCorrespondence, SingularNormalEquations):
            continue
        if final.residual_rms > assoc_config.max_final_rms_per_pair * len(refined):
            continue
        if len(refined) < 0.5 * len(base):
            continue
        return final, refined

    raise NoValidAssociation("no hypothesis survived validation")
