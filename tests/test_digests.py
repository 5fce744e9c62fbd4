"""Per-world output digests: the check a change meant to be bit-identical
runs in tier-1.

Three short worlds are localized in-process, and the SHA-256 of each result
CSV is compared with the record in ``digests.json`` for this platform. A
platform is its numpy version, its machine and the CPU features numpy
reports, since BLAS picks its kernels by them. On a platform without a
record, two runs in this process must agree instead.

A change that moves output records the new digests with

    PYTHONPATH=src python tests/test_digests.py

and names the change in CHANGES.md.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from semloc.features import extract_features
from semloc.pipeline import FrameInput, run_sequence, serialize_result
from semloc.synthworld import (WorldConfig, generate_world, render_frames,
                               render_masks)

RECORDS = Path(__file__).with_name("digests.json")


def platform_key() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return {"numpy": np.__version__, "machine": platform.machine(),
            "cpu_features": " ".join(sorted(
                name for name, on in __cpu_features__.items() if on))}


def result_digest(config: WorldConfig, n_frames=None, masks=False) -> str:
    """SHA-256 of the result CSV of localizing ``config``'s world, from its
    detections or from features extracted from its rendered masks."""
    semantic_map, trajectory = generate_world(config)
    trajectory = trajectory[:n_frames]
    if masks:
        frames = [FrameInput(k, *extract_features(
                      render_masks(semantic_map, pose, config)[0]),
                      config.road_index)
                  for k, pose in enumerate(trajectory)]
    else:
        frames = [rendered.frame for rendered
                  in render_frames(semantic_map, trajectory, config)]
    result = run_sequence(semantic_map, frames, trajectory[:2],
                          config.intrinsics)
    return hashlib.sha256(serialize_result(result).encode()).hexdigest()


WORLDS = {
    "det 80 m, 1 px noise": lambda: result_digest(
        WorldConfig(corridor_length_m=80.0, pixel_noise_sigma=1.0)),
    "det 80 m, two-sided, outliers 0.3, dropout 0.2": lambda: result_digest(
        WorldConfig(corridor_length_m=80.0, pole_sides=2, outlier_rate=0.3,
                    dropout_rate=0.2)),
    "masks 80 m, first 10 frames": lambda: result_digest(
        WorldConfig(corridor_length_m=80.0), n_frames=10, masks=True),
}


def recorded_digests() -> dict | None:
    key = platform_key()
    for record in json.loads(RECORDS.read_text()):
        if {name: record[name] for name in key} == key:
            return record["digests"]
    return None


@pytest.mark.parametrize("world", list(WORLDS))
def test_digest(world):
    digest = WORLDS[world]()
    recorded = recorded_digests()
    if recorded is None:
        assert WORLDS[world]() == digest
    else:
        assert digest == recorded[world], \
            f"output of {world!r} moved on a recorded platform"


if __name__ == "__main__":
    key = platform_key()
    records = [record for record in json.loads(RECORDS.read_text())
               if {name: record[name] for name in key} != key]
    records.append({**key, "digests": {world: digest()
                                       for world, digest in WORLDS.items()}})
    RECORDS.write_text(json.dumps(records, indent=1) + "\n")
    print(f"recorded {len(WORLDS)} digests for numpy {key['numpy']} on "
          f"{key['machine']} in {RECORDS}")
