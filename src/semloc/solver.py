"""Damped least-squares (Levenberg-Marquardt) minimizer over the 6-DOF pose.

The normal equations are damped with the diagonal of J^T J (Marquardt
scaling) so that meter and radian parameters are conditioned alike. Steps
are accepted only when the cost decreases, which makes the accepted-cost
sequence monotone and the returned cost never worse than the initial one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .camera import POSE_PARAMS, CameraPose


class SingularNormalEquations(RuntimeError):
    """Damped normal equations unsolvable even at maximum damping;
    the constraint geometry is degenerate."""


class TerminationReason(Enum):
    STEP_TOLERANCE = "step_tolerance"
    COST_TOLERANCE = "cost_tolerance"
    MAX_ITERATIONS = "max_iterations"
    MAX_DAMPING = "max_damping"


# Levenberg-Marquardt settings. The damping is multiplied by DAMPING_FACTOR
# on a rejected step and divided by it on an accepted one.
INITIAL_DAMPING = 1e-3
DAMPING_FACTOR = 10.0
MAX_DAMPING = 1e10
MAX_ITERATIONS = 100
STEP_TOLERANCE = 1e-8      # norm of the mixed m/rad update
COST_TOLERANCE = 1e-10     # relative decrease per accepted step


@dataclass
class SolveResult:
    pose: CameraPose
    final_cost: float
    iterations: int
    termination_reason: TerminationReason
    cost_trace: list = field(default_factory=list)  # accepted costs, init first

    @property
    def residual_rms(self) -> float:
        """sqrt of the total cost, the quantity gates compare."""
        return math.sqrt(self.final_cost)


def solve(objective, init: CameraPose) -> SolveResult:
    """Minimize the objective's squared residual norm starting from ``init``.

    ``objective`` provides one method, ``residual_and_jacobian(pose)``,
    which returns the residual vector r, shape (n,), and its Jacobian,
    shape (n, 6) over the parameters in ``POSE_PARAMS`` order, as float
    arrays; the cost is r @ r. It is called once on ``init`` and once per
    candidate step, and an accepted candidate's (r, J) carries into the
    next iteration. The objective may return the same stored arrays again
    for the pose object it evaluated last, so ``solve`` treats r and J as
    read-only. Deterministic: the same inputs produce the same iterate
    sequence.
    """
    pose = init
    r, jac = objective.residual_and_jacobian(pose)
    cost = float(r @ r)
    trace = [cost]
    damping = INITIAL_DAMPING

    for iterations in range(1, MAX_ITERATIONS + 1):
        jtj = jac.T @ jac
        neg_gradient = -(jac.T @ r)
        diag = np.maximum(jtj.diagonal(), 1e-12)
        x = pose.as_vector()

        while True:
            damped = jtj.copy()
            damped.flat[::damped.shape[0] + 1] += damping * diag
            try:
                step = np.linalg.solve(damped, neg_gradient)
                solvable = bool(np.isfinite(step).all())
            except np.linalg.LinAlgError:
                solvable = False
            if not solvable:
                damping *= DAMPING_FACTOR
                if damping > MAX_DAMPING:
                    raise SingularNormalEquations(
                        "normal equations unsolvable at maximum damping")
                continue
            if math.sqrt(step @ step) < STEP_TOLERANCE:
                return SolveResult(pose, cost, iterations,
                                   TerminationReason.STEP_TOLERANCE, trace)
            candidate = CameraPose.from_vector(x + step)
            r_new, jac_new = objective.residual_and_jacobian(candidate)
            new_cost = float(r_new @ r_new)
            if math.isfinite(new_cost) and new_cost < cost:
                relative_drop = (cost - new_cost) / max(cost, 1e-300)
                pose, cost = candidate, new_cost
                r, jac = r_new, jac_new
                trace.append(cost)
                damping = max(damping / DAMPING_FACTOR, 1e-15)
                if relative_drop < COST_TOLERANCE:
                    return SolveResult(pose, cost, iterations,
                                       TerminationReason.COST_TOLERANCE, trace)
                break
            damping *= DAMPING_FACTOR
            if damping > MAX_DAMPING:
                return SolveResult(pose, cost, iterations,
                                   TerminationReason.MAX_DAMPING, trace)

    return SolveResult(pose, cost, MAX_ITERATIONS,
                       TerminationReason.MAX_ITERATIONS, trace)


def _param_index(dim: str) -> int:
    try:
        return POSE_PARAMS.index(dim)
    except ValueError:
        raise ValueError(
            f"unknown pose parameter {dim!r}, expected one of {POSE_PARAMS}"
        ) from None


def cost_landscape(objective, center: CameraPose, dim_a, dim_b,
                   half_range_a: float, half_range_b: float, grid_n: int):
    """Evaluate sqrt(cost) over a regular 2D grid of pose perturbations.

    The two selected parameters (names from ``POSE_PARAMS``) sweep
    +-half_range around the center pose; the other four stay fixed. Returns
    (a_values, b_values, grid) with grid[i, j] at a_values[i], b_values[j].
    """
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    ia, ib = _param_index(dim_a), _param_index(dim_b)
    if ia == ib:
        raise ValueError("landscape dimensions must differ")
    base = center.as_vector()
    a_values = base[ia] + np.linspace(-half_range_a, half_range_a, grid_n)
    b_values = base[ib] + np.linspace(-half_range_b, half_range_b, grid_n)
    grid = np.empty((grid_n, grid_n))
    for i, a in enumerate(a_values):
        for j, b in enumerate(b_values):
            vec = base.copy()
            vec[ia] = a
            vec[ib] = b
            r = objective.residual(CameraPose.from_vector(vec))
            grid[i, j] = math.sqrt(float(r @ r))
    return a_values, b_values, grid
