"""Benchmark inputs: synthetic worlds made from the run seed.

Each workload draws a block of ``WorldConfig`` seeds from the run seed
(run seed n with k worlds uses world seeds n*k .. n*k+k-1), synthesizes
them with ``semloc.synthworld`` and writes the files that ``semloc synth``
writes. A benchmark run synthesizes in a child process (this file run as a
script), so synthesis memory stays out of the measured process. Set-up then
parses those files back the way ``semloc localize`` and ``semloc
landscape`` do; the timed passes see only the parsed inputs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from semloc.camera import parse_intrinsics, serialize_intrinsics
from semloc.features import write_mask_files
from semloc.mapmodel import parse_map, save_map
from semloc.pipeline import (parse_detections, parse_ground_truth,
                             serialize_detections, serialize_ground_truth)
from semloc.synthworld import (WorldConfig, generate_world, render_frames,
                               render_masks)

WORKLOADS = ("det-nominal", "det-clutter", "masks", "landscape")

# Cold import of the CLI module in a fresh interpreter, timed inside it.
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import semloc.cli; "
                 "print(repr(time.perf_counter() - t))")


@dataclass(frozen=True)
class Scale:
    """How much input one run generates; ``FULL`` is the benchmark."""

    worlds: int = 4             # det-* worlds per run
    mask_worlds: int = 4
    mask_frames: int = 15       # masks: first frames of each world
    landscape_worlds: int = 2
    landscape_stride: int = 16  # one surface at every n-th frame
    grid_n: int = 41            # odd, so the centre cell is the truth
    corridor_m: float = 270.0
    setup_reps: int = 11


FULL = Scale()
TINY = Scale(worlds=1, mask_worlds=1, mask_frames=5,
             landscape_worlds=1, landscape_stride=6, grid_n=11,
             corridor_m=80.0, setup_reps=1)


def world_config(workload: str, world_seed: int, corridor_m: float) -> WorldConfig:
    """Paper-scale world of a workload; the seed picks layout and noise."""
    common = dict(rng_seed=world_seed, corridor_length_m=corridor_m)
    if workload in ("det-nominal", "landscape"):
        return WorldConfig(pixel_noise_sigma=1.0, **common)
    if workload == "det-clutter":
        return WorldConfig(pole_sides=2, outlier_rate=0.3, **common)
    if workload == "masks":
        return WorldConfig(**common)
    raise ValueError(f"unknown workload {workload!r}")


def world_seeds(workload: str, seed: int, scale: Scale) -> range:
    count = {"masks": scale.mask_worlds,
             "landscape": scale.landscape_worlds}.get(workload, scale.worlds)
    return range(seed * count, seed * count + count)


@dataclass
class WorldFiles:
    """One synthesized world on disk, plus its exact ground truth."""

    seed: int
    config: WorldConfig
    directory: Path
    n_frames: int
    truth: dict = field(default_factory=dict)   # frame id -> CameraPose

    @property
    def mask_dir(self) -> Path:
        return self.directory / "masks"


@dataclass
class SynthTimes:
    generate_s: list = field(default_factory=list)          # per world
    render_detections_ms: list = field(default_factory=list)  # per frame
    render_masks_ms: list = field(default_factory=list)       # per frame


def synthesize(workload: str, seed: int, scale: Scale, workdir: Path,
               times: SynthTimes) -> list:
    """Write every world of one run under ``workdir``; returns WorldFiles."""
    for world_seed in world_seeds(workload, seed, scale):
        config = world_config(workload, world_seed, scale.corridor_m)
        masks = workload == "masks"
        write_world(config, workdir / f"world{world_seed}",
                    scale.mask_frames if masks else None, masks, times)
    return load_worlds(workload, seed, scale, workdir)


def synthesize_in_child(workload: str, seed: int, scale: Scale, workdir: Path,
                        src_dir: Path) -> tuple:
    """``synthesize`` in a fresh interpreter; returns (WorldFiles, SynthTimes)."""
    spec = json.dumps({"workload": workload, "seed": seed,
                       "scale": asdict(scale), "workdir": str(workdir)})
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    subprocess.run([sys.executable, __file__, spec], env=env, timeout=170,
                   check=True)
    times = SynthTimes(**json.loads((workdir / "synth_times.json").read_text()))
    return load_worlds(workload, seed, scale, workdir), times


def load_worlds(workload: str, seed: int, scale: Scale, workdir: Path) -> list:
    """The WorldFiles of a run that ``synthesize`` wrote under ``workdir``."""
    worlds = []
    for world_seed in world_seeds(workload, seed, scale):
        directory = workdir / f"world{world_seed}"
        truth = parse_ground_truth((directory / "groundtruth.txt").read_text())
        worlds.append(WorldFiles(
            world_seed, world_config(workload, world_seed, scale.corridor_m),
            directory, len(truth), truth))
    return worlds


def write_world(config: WorldConfig, directory: Path, n_frames: int | None,
                with_masks: bool, times: SynthTimes) -> None:
    """Synthesize one world (optionally only its first ``n_frames``) into
    map, intrinsics, detections, ground truth, bootstrap and mask files."""
    directory.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    semantic_map, trajectory = generate_world(config)
    times.generate_s.append(time.perf_counter() - t0)
    trajectory = trajectory[:n_frames] if n_frames else trajectory

    t0 = time.perf_counter()
    rendered = render_frames(semantic_map, trajectory, config)
    times.render_detections_ms.append(
        (time.perf_counter() - t0) * 1e3 / len(trajectory))
    truth = dict(enumerate(trajectory))
    save_map(semantic_map, directory / "map.txt")
    (directory / "intrinsics.txt").write_text(
        serialize_intrinsics(config.intrinsics))
    (directory / "detections.txt").write_text(
        serialize_detections([r.frame for r in rendered]))
    (directory / "groundtruth.txt").write_text(serialize_ground_truth(truth))
    (directory / "bootstrap.txt").write_text(
        serialize_ground_truth({0: truth[0], 1: truth[1]}))
    if with_masks:
        for k, pose in truth.items():
            t0 = time.perf_counter()
            mask, _, _ = render_masks(semantic_map, pose, config)
            times.render_masks_ms.append((time.perf_counter() - t0) * 1e3)
            write_mask_files(directory / "masks", k, mask)


# --- set-up: what a CLI run pays before its first frame --------------------


@dataclass
class ParsedWorld:
    files: WorldFiles
    semantic_map: object
    intrinsics: object
    frames: list | None = None       # FrameInput list (detections)
    frame_ids: list | None = None    # mask frame ids (masks)
    bootstrap: list | None = None    # first two poses
    truth: dict | None = None        # landscape centres


@dataclass
class SetupTimes:
    total_s: list = field(default_factory=list)               # per set-up
    import_s: list = field(default_factory=list)
    parse_map_ms: list = field(default_factory=list)          # per world
    parse_detections_ms: list = field(default_factory=list)   # per world


def cold_import_s(src_dir: Path) -> float:
    """Seconds to import ``semloc.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def parse_world(workload: str, world: WorldFiles, times: SetupTimes) -> ParsedWorld:
    """Read one world's input files the way the CLI does."""
    d = world.directory
    t0 = time.perf_counter()
    semantic_map = parse_map((d / "map.txt").read_text())
    times.parse_map_ms.append((time.perf_counter() - t0) * 1e3)
    parsed = ParsedWorld(world, semantic_map,
                         parse_intrinsics((d / "intrinsics.txt").read_text()))
    if workload == "masks":
        # The listing ``semloc localize --masks`` makes before extraction.
        parsed.frame_ids = sorted({int(p.name.split("_", 1)[0])
                                   for p in world.mask_dir.glob("*.pgm")})
    else:
        t0 = time.perf_counter()
        parsed.frames = parse_detections((d / "detections.txt").read_text())
        times.parse_detections_ms.append((time.perf_counter() - t0) * 1e3)
    if workload == "landscape":
        parsed.truth = parse_ground_truth((d / "groundtruth.txt").read_text())
    else:
        poses = parse_ground_truth((d / "bootstrap.txt").read_text())
        parsed.bootstrap = [poses[k] for k in sorted(poses)[:2]]
    return parsed


def set_up(workload: str, worlds: list, times: SetupTimes, src_dir: Path) -> list:
    """One set-up: a cold CLI import plus parsing every world's input files.
    Appends its times to ``times`` and returns the parsed worlds. World
    synthesis is not part of it."""
    import_s = cold_import_s(src_dir)
    t0 = time.perf_counter()
    parsed = [parse_world(workload, w, times) for w in worlds]
    times.import_s.append(import_s)
    times.total_s.append(import_s + time.perf_counter() - t0)
    return parsed


if __name__ == "__main__":
    # Child of ``synthesize_in_child``: argv[1] is its JSON spec.
    _spec = json.loads(sys.argv[1])
    _times = SynthTimes()
    synthesize(_spec["workload"], _spec["seed"], Scale(**_spec["scale"]),
               Path(_spec["workdir"]), _times)
    (Path(_spec["workdir"]) / "synth_times.json").write_text(
        json.dumps(asdict(_times)))
