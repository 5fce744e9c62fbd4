import numpy as np
import pytest

from semloc.camera import CameraPose, Intrinsics
from semloc.synthworld import WorldConfig


@pytest.fixture
def intrinsics():
    return Intrinsics(fx=700.0, fy=700.0, cx=600.0, cy=180.0,
                      width=1226, height=370)


def paper_scale_world(seed=0, **overrides):
    """Corridor at the reference scale: 21 pole-like objects, 5 signs,
    2 lanes over 270 m."""
    return WorldConfig(rng_seed=seed, **overrides)


def noise_world(seed=0, sigma=1.0):
    """Near-field world used for the noise-robustness studies: frames carry
    few enough pole-like objects that the lanes make up a good share of each
    frame's line pairs, keeping the vertical pose directions observable."""
    return WorldConfig(rng_seed=seed, pixel_noise_sigma=sigma, pole_sides=1,
                       corridor_length_m=110.0, trajectory_margin_m=32.0,
                       pole_spacing_m=9.0, pole_height_m=0.5,
                       pole_height_jitter_m=0.05, pole_lateral_m=8.0,
                       milestone_height_m=0.42, milestone_lateral_m=5.5,
                       sign_spacing_m=11.0, sign_size_m=0.6,
                       layout_jitter_frac=0.2)


def clutter_world(seed=0):
    """Near-field world with wide same-class separations for the
    outlier/dropout robustness trials."""
    return WorldConfig(rng_seed=seed, outlier_rate=0.3, dropout_rate=0.2,
                       corridor_length_m=35.0, trajectory_margin_m=25.0,
                       pole_spacing_m=9.0, pole_sides=1, pole_height_m=2.6,
                       pole_height_jitter_m=0.2, pole_lateral_m=8.0,
                       milestone_height_m=2.0, milestone_lateral_m=5.5,
                       sign_spacing_m=7.0, sign_size_m=1.2, sign_lateral_m=6.5,
                       layout_jitter_frac=0.12)


def perturbed(pose: CameraPose, rng, max_pos_m, max_ang_rad):
    dp = rng.normal(size=3)
    dp = dp / np.linalg.norm(dp) * rng.uniform(0.0, max_pos_m)
    da = rng.normal(size=3)
    da = da / np.linalg.norm(da) * rng.uniform(0.0, max_ang_rad)
    return CameraPose(pose.x + dp[0], pose.y + dp[1], pose.z + dp[2],
                      pose.yaw + da[0], pose.pitch + da[1], pose.roll + da[2])
