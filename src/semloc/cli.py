"""Command-line entry point.

Subcommands:
  compile-map   fit landmarks from labeled 3D point clusters into a map file
  synth         generate a synthetic world: map, detections, ground truth, masks
  localize      run the per-frame localization pipeline over a sequence
  eval          compare a result CSV against ground truth
  landscape     export the cost surface over two pose parameters as CSV

``localize`` and ``landscape`` read their inputs either from individual
flags or from a JSON manifest (--manifest); flags override manifest values.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .association import AssociationConfig, NoValidAssociation, closest_correspond
from .camera import parse_intrinsics, serialize_intrinsics
from .features import (ExtractionConfig, extract_features, mask_file_name,
                       read_mask_files, write_mask_files)
from .mapmodel import (MIN_SIZE_RATIO, DegenerateCluster, ParseError,
                       RoughPose, SemanticClass, SemanticMap,
                       fit_line_landmark, fit_point_landmark, parse_map,
                       preselect, save_map, text_records)
from .pipeline import (FrameInput, FrameStatus, evaluate, heading_from_pose,
                       parse_detections, parse_ground_truth, parse_result,
                       run_sequence, serialize_detections,
                       serialize_ground_truth, serialize_result)
from .residual import ReprojectionObjective, ResidualConfig, nearest_lane_height
from .solver import SolverConfig, cost_landscape
from .synthworld import (WorldConfig, generate_world, render_frames,
                         render_masks)


class CliError(Exception):
    pass


# Top-level manifest keys: input paths (resolved against the manifest's
# directory), the result path, run settings and the config blocks.
_INPUT_KEYS = ("map", "detections", "masks", "intrinsics", "bootstrap",
               "ground-truth")
_MANIFEST_KEYS = (*_INPUT_KEYS, "out", "seed", "road_index", "association",
                  "solver", "residual", "preselect", "extraction")


def _read(path, what):
    path = Path(path)
    if not path.exists():
        raise CliError(f"{what} file not found: {path}")
    return path.read_text()


def _check_keys(block: dict, allowed, what: str) -> None:
    unknown = set(block) - set(allowed)
    if unknown:
        raise CliError(f"unknown {what} settings: {sorted(unknown)}")


def _check_type(value, default, what: str, key: str) -> None:
    """A setting must have the type of its default; an int may stand in
    for a float, a bool for nothing else."""
    expected = type(default)
    if not (type(value) is expected or
            (expected is float and type(value) is int)):
        raise CliError(f"{what} setting {key!r} must be {expected.__name__}, "
                       f"got {value!r}")


def _config_from(block: dict, cls, what: str):
    fields = {f.name: f.default for f in dataclasses.fields(cls)}
    _check_keys(block, fields, what)
    for key, value in block.items():
        _check_type(value, fields[key], what, key)
    return cls(**block)


def _load_manifest(args) -> dict:
    """The run's inputs: the manifest (if any) with its input paths resolved
    against its directory, then each path flag given, and --out, in place of
    the manifest's value."""
    manifest = {}
    if args.manifest:
        try:
            manifest = json.loads(_read(args.manifest, "manifest"))
        except json.JSONDecodeError as exc:
            raise CliError(f"manifest is not valid JSON: {exc}") from None
        if not isinstance(manifest, dict):
            raise CliError("manifest must be a JSON object")
        _check_keys(manifest, _MANIFEST_KEYS, "manifest")
        for key in (*_INPUT_KEYS, "out"):
            if key in manifest:
                _check_type(manifest[key], "", "manifest", key)
        _check_type(manifest.get("road_index", 0), 0, "manifest", "road_index")
        _check_type(manifest.get("seed", 0), 0, "manifest", "seed")
        base = Path(args.manifest).parent
        for key in _INPUT_KEYS:
            if key in manifest:
                manifest[key] = str(base / manifest[key])
    for key in (*_INPUT_KEYS, "out"):
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            manifest[key] = value
    return manifest


def _required(manifest, key):
    if key not in manifest:
        raise CliError(f"missing required input {key!r} (flag or manifest)")
    return manifest[key]


def _read_input(manifest, key) -> str:
    return _read(_required(manifest, key), key.replace("-", " "))


def _configs(seed, manifest):
    """Config objects from the manifest blocks; ``seed``, when given,
    replaces the association RNG seed."""
    assoc_block = dict(manifest.get("association", {}))
    if seed is not None:
        assoc_block["rng_seed"] = seed
    elif "seed" in manifest and "rng_seed" not in assoc_block:
        assoc_block["rng_seed"] = manifest["seed"]
    assoc = _config_from(assoc_block, AssociationConfig, "association")
    solver = _config_from(dict(manifest.get("solver", {})), SolverConfig, "solver")
    residual = _config_from(dict(manifest.get("residual", {})), ResidualConfig,
                            "residual")
    preselect_block = manifest.get("preselect", {})
    _check_keys(preselect_block, ("min_size_ratio",), "preselect")
    min_size_ratio = preselect_block.get("min_size_ratio")
    if min_size_ratio is None:  # absent or null: the preselection default
        min_size_ratio = MIN_SIZE_RATIO
    _check_type(min_size_ratio, MIN_SIZE_RATIO, "preselect", "min_size_ratio")
    return assoc, solver, residual, min_size_ratio


def _frames_from_masks(mask_dir, manifest):
    """Build per-frame detections by running feature extraction over
    <frame>_<class>.pgm rasters found in a directory."""
    mask_dir = Path(mask_dir)
    if not mask_dir.is_dir():
        raise CliError(f"mask directory not found: {mask_dir}")
    frame_ids = sorted({_mask_frame_id(p.name) for p in mask_dir.glob("*.pgm")})
    if not frame_ids:
        raise CliError(f"no .pgm masks in {mask_dir}")
    extraction = _config_from(dict(manifest.get("extraction", {})),
                              ExtractionConfig, "extraction")
    road_index = manifest.get("road_index", 0)
    frames = []
    for frame_id in frame_ids:
        mask = read_mask_files(mask_dir, frame_id)
        det_lines, det_points = extract_features(mask, extraction)
        frames.append(FrameInput(frame_id, det_lines, det_points, road_index))
    return frames


def _mask_frame_id(name: str) -> int:
    """Frame id of a mask file, whose name must be <frame>_<class>.pgm."""
    match = re.fullmatch(r"([0-9]+)_(.*)\.pgm", name)
    if match is None:
        raise CliError(f"mask file {name}: expected <frame>_<class>.pgm")
    frame_id = int(match.group(1))
    try:
        semantic = SemanticClass(match.group(2))
    except ValueError:
        raise CliError(f"mask file {name}: unknown class "
                       f"{match.group(2)!r}") from None
    if name != mask_file_name(frame_id, semantic):
        raise CliError(f"mask file {name}: frame {frame_id} must be named "
                       f"{mask_file_name(frame_id, semantic)}")
    return frame_id


# --- compile-map ------------------------------------------------------------
#
# Cluster file format (line oriented, '#' comments):
#   CLUSTER <LINE|POINT> <class> <road_index>
#   <x> <y> <z>          (one labeled 3D point per row)
#   ...


def _parse_clusters(text: str, path: str):
    clusters = []
    header = None
    points: list = []

    def flush(line_no):
        if header is None:
            return
        if not points:
            raise CliError(f"{path}:{line_no}: cluster without points")
        clusters.append((header, np.array(points)))

    for line_no, fields in text_records(text):
        if fields[0] == "CLUSTER":
            flush(line_no)
            points = []
            if len(fields) != 4 or fields[1] not in ("LINE", "POINT"):
                raise CliError(
                    f"{path}:{line_no}: expected CLUSTER <LINE|POINT> "
                    f"<class> <road_index>")
            try:
                semantic = SemanticClass(fields[2])
            except ValueError:
                raise CliError(f"{path}:{line_no}: unknown class {fields[2]!r}") \
                    from None
            header = (fields[1], semantic, int(fields[3]), line_no)
        else:
            if header is None:
                raise CliError(f"{path}:{line_no}: point before any CLUSTER header")
            if len(fields) != 3:
                raise CliError(f"{path}:{line_no}: expected 3 coordinates")
            try:
                points.append([float(f) for f in fields])
            except ValueError:
                raise CliError(f"{path}:{line_no}: malformed coordinate") from None
    flush(len(text.splitlines()) + 1)
    return clusters


def cmd_compile_map(args) -> int:
    lines, points = [], []
    next_id = 0
    for path in args.clusters:
        for (kind, semantic, road, line_no), pts in \
                _parse_clusters(_read(path, "cluster"), str(path)):
            try:
                if kind == "LINE":
                    lines.append(fit_line_landmark(pts, semantic, road,
                                                   landmark_id=next_id))
                else:
                    points.append(fit_point_landmark(pts, semantic, road,
                                                     landmark_id=next_id))
            except (DegenerateCluster, ValueError) as exc:
                raise CliError(f"{path}:{line_no}: {exc}") from None
            next_id += 1
    save_map(SemanticMap(lines, points, []), args.out)
    print(f"wrote {len(lines)} line and {len(points)} point landmarks "
          f"to {args.out}")
    return 0


# --- synth ------------------------------------------------------------------


def cmd_synth(args) -> int:
    config = WorldConfig(
        corridor_length_m=args.length,
        pole_spacing_m=args.pole_spacing,
        pole_sides=args.pole_sides,
        frame_spacing_m=args.frame_spacing,
        pixel_noise_sigma=args.noise_sigma,
        outlier_rate=args.outlier_rate,
        dropout_rate=args.dropout_rate,
        rng_seed=args.seed if args.seed is not None else 0,
    )
    semantic_map, trajectory = generate_world(config)
    if len(trajectory) < 2:
        raise CliError(
            f"a {args.length:g} m corridor gives {len(trajectory)} frame(s); "
            f"localize needs 2 to bootstrap, and the trajectory stops "
            f"{config.trajectory_margin_m:g} m before the corridor end")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_map(semantic_map, out / "map.txt")
    (out / "intrinsics.txt").write_text(serialize_intrinsics(config.intrinsics))
    rendered = render_frames(semantic_map, trajectory, config)
    (out / "detections.txt").write_text(
        serialize_detections([r.frame for r in rendered]))
    truth = {k: pose for k, pose in enumerate(trajectory)}
    (out / "groundtruth.txt").write_text(serialize_ground_truth(truth))
    if not args.no_masks:
        masks_dir = out / "masks"
        for k, pose in enumerate(trajectory):
            mask, _, _ = render_masks(semantic_map, pose, config)
            write_mask_files(masks_dir, k, mask)
    print(f"synthesized {len(trajectory)} frames, "
          f"{len(semantic_map.lines)} poles, {len(semantic_map.points)} signs, "
          f"{len(semantic_map.lanes)} lanes -> {out}")
    return 0


# --- localize ---------------------------------------------------------------


def _load_bootstrap(text: str, frames) -> list:
    """The GT records of the first two input frames."""
    if len(frames) < 2:
        raise CliError(f"need two input frames to bootstrap, got {len(frames)}")
    poses = parse_ground_truth(text)
    ids = [frame.frame_id for frame in frames[:2]]
    for frame_id in ids:
        if frame_id not in poses:
            raise CliError(f"bootstrap file has no record for frame {frame_id}")
    return [poses[frame_id] for frame_id in ids]


def cmd_localize(args) -> int:
    manifest = _load_manifest(args)
    if ("detections" in manifest) == ("masks" in manifest):
        raise CliError("give exactly one of 'detections' or 'masks' "
                       "(flag or manifest)")
    semantic_map = parse_map(_read_input(manifest, "map"))
    if "masks" in manifest:
        frames = _frames_from_masks(manifest["masks"], manifest)
    else:
        frames = parse_detections(_read_input(manifest, "detections"))
    intrinsics = parse_intrinsics(_read_input(manifest, "intrinsics"))
    bootstrap = _load_bootstrap(_read_input(manifest, "bootstrap"), frames)
    assoc, solver, residual, min_size_ratio = _configs(args.seed, manifest)

    result = run_sequence(semantic_map, frames, bootstrap, intrinsics,
                          assoc, solver, residual, min_size_ratio)
    out = manifest.get("out", "result.csv")
    Path(out).write_text(serialize_result(result))
    n_loc = result.count(FrameStatus.LOCALIZED)
    n_coast = result.count(FrameStatus.COASTED)
    print(f"{len(result.records)} frames: {n_loc} localized, "
          f"{n_coast} coasted -> {out}")

    if "ground-truth" in manifest:
        truth = parse_ground_truth(_read_input(manifest, "ground-truth"))
        _print_summary(evaluate(result, truth))
    return 0


def _print_summary(summary) -> None:
    print(f"frames evaluated      {summary.n_frames}")
    print(f"rms position error    {summary.rms_position_m:.6f} m")
    print(f"max position error    {summary.max_position_m:.6f} m")
    print(f"rms lateral error     {summary.rms_lateral_m:.6f} m")
    print(f"rms longitudinal err  {summary.rms_longitudinal_m:.6f} m")
    print(f"rms vertical error    {summary.rms_vertical_m:.6f} m")
    print(f"mean angle error      {summary.mean_angle_rad:.6f} rad")
    print(f"max angle error       {summary.max_angle_rad:.6f} rad")
    print(f"below 0.5 m           {100.0 * summary.fraction_below_half_meter:.2f}%")


# --- eval -------------------------------------------------------------------


def cmd_eval(args) -> int:
    result = parse_result(_read(args.result, "result"))
    truth = parse_ground_truth(_read(args.ground_truth, "ground truth"))
    summary = evaluate(result, truth)
    _print_summary(summary)
    if args.json:
        Path(args.json).write_text(
            json.dumps(dataclasses.asdict(summary), indent=2) + "\n")
    return 0


# --- landscape --------------------------------------------------------------


def cmd_landscape(args) -> int:
    manifest = _load_manifest(args)
    out = _required(manifest, "out")
    semantic_map = parse_map(_read_input(manifest, "map"))
    frames = parse_detections(_read_input(manifest, "detections"))
    intrinsics = parse_intrinsics(_read_input(manifest, "intrinsics"))
    truth = parse_ground_truth(_read_input(manifest, "ground-truth"))
    assoc, _, residual, min_size_ratio = _configs(None, manifest)

    frame = next((f for f in frames if f.frame_id == args.frame), None)
    if frame is None:
        raise CliError(f"frame {args.frame} not present in detections")
    if args.frame not in truth:
        raise CliError(f"frame {args.frame} not present in ground truth")
    center = truth[args.frame]

    rough = RoughPose(center.position, heading_from_pose(center),
                      frame.road_index)
    selected = preselect(semantic_map, rough, min_size_ratio)
    corr = closest_correspond(selected, frame.det_lines, frame.det_points,
                              center, intrinsics,
                              assoc.gate_line_refine_px,
                              assoc.gate_point_refine_px)
    if len(corr) == 0:
        raise CliError("no correspondences at the center pose")
    y_lane = nearest_lane_height(selected.lines, center.position)
    objective = ReprojectionObjective(selected, frame.det_lines,
                                      frame.det_points, corr, intrinsics,
                                      residual, y_lane)
    try:
        dim_a, dim_b = args.dims.split(",")
        half_a, half_b = (float(v) for v in args.half_ranges.split(","))
    except ValueError:
        raise CliError("--dims and --half-ranges take two comma-separated "
                       "values") from None
    a_vals, b_vals, grid = cost_landscape(objective, center, dim_a.strip(),
                                          dim_b.strip(), half_a, half_b,
                                          args.grid)
    rows = ["a_value,b_value,sqrtR"]
    for i, a in enumerate(a_vals):
        for j, b in enumerate(b_vals):
            rows.append(f"{a:.9f},{b:.9f},{grid[i, j]:.9f}")
    Path(out).write_text("\n".join(rows) + "\n")
    print(f"wrote {args.grid}x{args.grid} landscape over "
          f"({dim_a.strip()}, {dim_b.strip()}) to {out}")
    return 0


# --- argument wiring --------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semloc",
        description="Monocular localization against a compact semantic map")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile-map", help="fit landmarks from point clusters")
    p.add_argument("clusters", nargs="+", help="labeled cluster files")
    p.add_argument("--out", required=True, help="output map file")
    p.set_defaults(func=cmd_compile_map)

    p = sub.add_parser("synth", help="generate a synthetic world")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--length", type=float, default=270.0,
                   help="corridor length in meters")
    p.add_argument("--pole-spacing", type=float, default=13.0)
    p.add_argument("--pole-sides", type=int, default=1, choices=(1, 2))
    p.add_argument("--frame-spacing", type=float, default=1.4)
    p.add_argument("--noise-sigma", type=float, default=0.0,
                   help="pixel noise sigma")
    p.add_argument("--outlier-rate", type=float, default=0.0)
    p.add_argument("--dropout-rate", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--no-masks", action="store_true",
                   help="skip writing per-frame mask images")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("localize", help="run the localization pipeline")
    p.add_argument("--manifest", help="JSON manifest with paths and configs")
    p.add_argument("--map")
    p.add_argument("--detections")
    p.add_argument("--masks",
                   help="directory of <frame>_<class>.pgm masks, used instead "
                        "of a detections file")
    p.add_argument("--intrinsics")
    p.add_argument("--bootstrap",
                   help="GT-format file; the records of the first two "
                        "input frames bootstrap the run")
    p.add_argument("--ground-truth", dest="ground_truth",
                   help="optional GT file for an immediate evaluation")
    p.add_argument("--out", help="result CSV path (default result.csv)")
    p.add_argument("--seed", type=int, default=None,
                   help="association RNG seed override")
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("eval", help="evaluate a result CSV")
    p.add_argument("--result", required=True)
    p.add_argument("--ground-truth", dest="ground_truth", required=True)
    p.add_argument("--json", help="also write the metrics as JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("landscape", help="export a cost surface CSV")
    p.add_argument("--manifest")
    p.add_argument("--map")
    p.add_argument("--detections")
    p.add_argument("--intrinsics")
    p.add_argument("--ground-truth", dest="ground_truth")
    p.add_argument("--frame", type=int, required=True)
    p.add_argument("--dims", default="x,z",
                   help="two of x,y,z,yaw,pitch,roll (comma-separated)")
    p.add_argument("--half-ranges", default="2.0,2.0",
                   help="half range per dimension (m or rad)")
    p.add_argument("--grid", type=int, default=21)
    p.add_argument("--out", help="cost surface CSV path (flag or manifest)")
    p.set_defaults(func=cmd_landscape)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ParseError, ValueError, NoValidAssociation,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
