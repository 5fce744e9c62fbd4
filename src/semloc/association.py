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

from .camera import (CameraPose, Intrinsics, PoseTransform, project_line,
                     project_point, wrap_angle)
from .mapmodel import PreselectedSet
from .residual import (CorrespondenceSet, ReprojectionObjective,
                       ResidualConfig, line_distance, nearest_lane_height,
                       point_distance)
from .solver import SingularNormalEquations, solve


class NoValidAssociation(RuntimeError):
    """No hypothesis survived validation; coast on the motion model."""


# Hypothesis sampling: each hypothesis solves the pose on this many line
# and point pairs, and a frame tries at most MAX_HYPOTHESES of them.
HYPOTHESIS_LINES = 4
HYPOTHESIS_POINTS = 1
MAX_HYPOTHESES = 500


@dataclass(frozen=True)
class AssociationConfig:
    """Gates for associate-and-localize.

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

    def __post_init__(self):
        if self.gate_line_refine_px > self.gate_line_init_px or \
                self.gate_point_refine_px > self.gate_point_init_px:
            raise ValueError("refinement gates must not exceed initial gates")
        # NaN fails every comparison, so it passes none of these bounds.
        if not all(0 < gate < math.inf for gate in (
                self.gate_line_init_px, self.gate_point_init_px,
                self.gate_line_refine_px, self.gate_point_refine_px,
                self.max_pose_shift, self.max_hypothesis_rms,
                self.max_final_rms_per_pair)):
            raise ValueError("gates must be positive and finite")


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
    view = PoseTransform.of(pose)
    # One projection per landmark through the module globals, so a wrapper
    # installed on this module sees every call. Each detection's geometry
    # is taken once; a line distance is then a few float operations per
    # (landmark, detection) pair.
    for pairs, landmarks, projections, detections, distance, gate in (
            (corr.line_pairs, preselected.lines,
             [project_line(lm, view, intrinsics) for lm in preselected.lines],
             [(det.semantic, det.geometry) for det in det_lines],
             line_distance, gate_line_px),
            (corr.point_pairs, preselected.points,
             [project_point(lm.p, view, intrinsics)
              for lm in preselected.points],
             [(det.semantic, det) for det in det_points],
             point_distance, gate_point_px)):
        for lm_idx, (lm, proj) in enumerate(zip(landmarks, projections)):
            if proj is None:
                continue
            best, best_idx = math.inf, -1
            for det_idx, (semantic, det) in enumerate(detections):
                if semantic is not lm.semantic:
                    continue
                dist = distance(proj, det)
                if dist < best:
                    best, best_idx = dist, det_idx
            if best_idx >= 0 and best <= gate:
                pairs.append((lm_idx, best_idx))
    return corr


def _hypothesis_sizes(n_lines: int, n_points: int):
    """How many line/point pairs a hypothesis draws, degrading gracefully
    when one kind is scarce: use all of the scarce kind and top up with the
    other toward the usual total."""
    total = HYPOTHESIS_LINES + HYPOTHESIS_POINTS
    if n_points < HYPOTHESIS_POINTS:
        k_lines = min(n_lines, total)
        k_points = n_points
    else:
        k_lines = min(n_lines, HYPOTHESIS_LINES)
        k_points = min(n_points, total - k_lines)
    return k_lines, k_points


def _iter_hypotheses(base: CorrespondenceSet, seed: int):
    """Yield distinct (line pair subset, point pair subset) hypotheses in a
    seeded random order, at most ``MAX_HYPOTHESES`` of them. A base that
    admits one hypothesis only is yielded as it is, and draws nothing."""
    n_lines, n_points = len(base.line_pairs), len(base.point_pairs)
    k_lines, k_points = _hypothesis_sizes(n_lines, n_points)
    n_combos = math.comb(n_lines, k_lines) * math.comb(n_points, k_points)
    if n_combos == 1:
        yield base
        return
    rng = np.random.default_rng(seed)
    if n_combos <= MAX_HYPOTHESES:
        pool = [(lc, pc)
                for lc in combinations(range(n_lines), k_lines)
                for pc in combinations(range(n_points), k_points)]
        order = rng.permutation(len(pool))
        chosen = (pool[i] for i in order)
    else:
        def _draws():
            seen = set()
            attempts = 0
            while len(seen) < MAX_HYPOTHESES and \
                    attempts < 10 * MAX_HYPOTHESES:
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
                           residual_config: ResidualConfig = ResidualConfig(),
                           seed: int = 0):
    """Robust pose estimation with unknown correspondences.

    Returns (SolveResult, refined CorrespondenceSet) or raises
    NoValidAssociation. Deterministic for a fixed ``seed``, which orders
    the hypotheses.
    """
    base = closest_correspond(preselected, det_lines, det_points, init,
                              intrinsics, assoc_config.gate_line_init_px,
                              assoc_config.gate_point_init_px)
    if len(base) == 0:
        raise NoValidAssociation("no gated pairs at the initial pose")
    # Lane height for the flat-ground term, pinned at the initial position
    # so the objective stays smooth across the whole solve.
    y_lane = nearest_lane_height(preselected.lines, init.position)

    def _objective(corr):
        return ReprojectionObjective(preselected, det_lines, det_points, corr,
                                     intrinsics, residual_config, y_lane)

    def _solve(objective, start):
        """Optimize over the objective's correspondence set; the returned
        result reports the gate cost (sqrt of the stacked-distance
        residual), while the minimization itself runs on the smooth
        split-row formulation."""
        fit = solve(objective, start)
        gate = objective.residual(fit.pose)
        return replace(fit, final_cost=float(gate @ gate))

    for hypothesis in _iter_hypotheses(base, seed):
        objective = _objective(hypothesis)
        try:
            fit = _solve(objective, init)
        except SingularNormalEquations:
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
        # Re-matching often returns the hypothesis's own pairs. Its
        # objective then already holds (r, J) at fit.pose, where the refine
        # solve starts, so that first evaluation projects nothing.
        if (refined.line_pairs, refined.point_pairs) != \
                (hypothesis.line_pairs, hypothesis.point_pairs):
            objective = _objective(refined)
        try:
            final = _solve(objective, fit.pose)
        except SingularNormalEquations:
            continue
        if final.residual_rms > assoc_config.max_final_rms_per_pair * len(refined):
            continue
        if len(refined) < 0.5 * len(base):
            continue
        return final, refined

    raise NoValidAssociation("no hypothesis survived validation")
