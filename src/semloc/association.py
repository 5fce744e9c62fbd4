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


class AssociationConfig:
    """Gates for associate-and-localize, fixed at the reference tuning for
    urban scenes.

    Distances are pixels; ``max_pose_shift`` is the mixed-unit pose norm of
    ``pose_distance`` (meters and degrees). Every gate is positive and
    finite, and each refinement gate is no larger than its initial gate.
    """

    gate_line_init_px = 300.0      # initial line match gate
    gate_point_init_px = 300.0     # initial point match gate
    gate_line_refine_px = 10.0     # re-match line gate after validation
    gate_point_refine_px = 10.0    # re-match point gate after validation
    max_pose_shift = 30.0          # validated pose vs initial pose
    max_hypothesis_rms = 200.0     # sqrt(cost) bound for a hypothesis
    max_final_rms_per_pair = 4.0   # sqrt(cost) bound per refined pair


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
    index, and a detection may be claimed by more than one landmark.
    Nothing downstream resolves such conflicts yet: hypothesis validation
    can accept a pose metres off with two landmarks on one detection (see
    ``tests/test_pipeline.py::TestNoFarOffAccept`` and ROADMAP item 1).
    """
    corr = CorrespondenceSet()
    view = PoseTransform.of(pose)
    # One projection per landmark through the module globals, so a wrapper
    # installed on this module sees every call. Each detection's geometry
    # (a line's frame, a point's (x, y)) is taken once as Python floats; a
    # distance is then a few float operations per (landmark, detection)
    # pair.
    for pairs, landmarks, projections, detections, distance, gate in (
            (corr.line_pairs, preselected.lines,
             [project_line(lm, view, intrinsics) for lm in preselected.lines],
             [(det.semantic, det.geometry) for det in det_lines],
             line_distance, gate_line_px),
            (corr.point_pairs, preselected.points,
             [project_point(lm.p, view, intrinsics)
              for lm in preselected.points],
             [(det.semantic, det.m.tolist()) for det in det_points],
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


def _combination(items, k: int, rank: int) -> list:
    """The ``rank``-th ``k``-subset of ``items`` in combinations order."""
    chosen, first = [], 0
    for slots in range(k, 0, -1):
        # Skip each whole block of subsets that take items[first] next.
        while rank >= (below := math.comb(len(items) - first - 1, slots - 1)):
            rank -= below
            first += 1
        chosen.append(items[first])
        first += 1
    return chosen


def _iter_hypotheses(base: CorrespondenceSet):
    """Yield at most ``MAX_HYPOTHESES`` distinct subsets of the base's line
    and point pairs, each decoded when tried from a rank drawn in a fixed
    order; a one-subset base is yielded as is and draws nothing."""
    n_lines, n_points = len(base.line_pairs), len(base.point_pairs)
    k_lines, k_points = _hypothesis_sizes(n_lines, n_points)
    n_point_subsets = math.comb(n_points, k_points)
    n_combos = math.comb(n_lines, k_lines) * n_point_subsets
    if n_combos == 1:
        yield base
        return
    rng = np.random.default_rng(0)
    if n_combos <= MAX_HYPOTHESES:
        ranks = rng.permutation(n_combos)
    else:
        ranks = rng.choice(n_combos, MAX_HYPOTHESES, replace=False)
    for rank in ranks.tolist():
        line_rank, point_rank = divmod(rank, n_point_subsets)
        yield CorrespondenceSet(
            _combination(base.line_pairs, k_lines, line_rank),
            _combination(base.point_pairs, k_points, point_rank))


def associate_and_localize(preselected: PreselectedSet, det_lines, det_points,
                           init: CameraPose, intrinsics: Intrinsics,
                           residual_config: ResidualConfig = ResidualConfig()):
    """Robust pose estimation with unknown correspondences.

    Returns (SolveResult, refined CorrespondenceSet) or raises
    NoValidAssociation. Deterministic: the hypotheses come in one fixed
    order.
    """
    base = closest_correspond(preselected, det_lines, det_points, init,
                              intrinsics, AssociationConfig.gate_line_init_px,
                              AssociationConfig.gate_point_init_px)
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
        fit.final_cost = float(gate @ gate)
        return fit

    for hypothesis in _iter_hypotheses(base):
        objective = _objective(hypothesis)
        try:
            fit = _solve(objective, init)
        except SingularNormalEquations:
            continue
        if fit.residual_rms > AssociationConfig.max_hypothesis_rms:
            continue
        if pose_distance(fit.pose, init) > AssociationConfig.max_pose_shift:
            continue

        refined = closest_correspond(
            preselected, det_lines, det_points, fit.pose, intrinsics,
            AssociationConfig.gate_line_refine_px,
            AssociationConfig.gate_point_refine_px)
        if len(refined) < 0.5 * len(base):
            continue
        # Re-matching often returns the hypothesis's own pairs. Its
        # objective then still holds (r, J) at fit.pose, where the refine
        # solve starts, whenever the solve returned the pose it evaluated
        # last; that first evaluation then projects nothing.
        if (refined.line_pairs, refined.point_pairs) != \
                (hypothesis.line_pairs, hypothesis.point_pairs):
            objective = _objective(refined)
        try:
            final = _solve(objective, fit.pose)
        except SingularNormalEquations:
            continue
        if final.residual_rms > \
                AssociationConfig.max_final_rms_per_pair * len(refined):
            continue
        return final, refined

    raise NoValidAssociation("no hypothesis survived validation")
