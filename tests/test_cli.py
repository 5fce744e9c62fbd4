import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import semloc
from semloc.camera import parse_intrinsics, serialize_intrinsics
from semloc.cli import main
from semloc.mapmodel import SemanticClass, parse_map, serialize_map
from semloc.pipeline import (FrameStatus, parse_detections,
                             parse_ground_truth, parse_result,
                             serialize_detections, serialize_ground_truth)


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "world"
    code = run_cli("synth", "--out", out, "--length", "60", "--seed", "3",
                   "--no-masks")
    assert code == 0
    return out


CLUSTERS = ("CLUSTER LINE POLE 0\n"
            "10.0 0.0 3.0\n10.02 1.0 3.0\n9.98 2.0 3.0\n"
            "CLUSTER POINT SIGN 0\n"
            "20.0 2.0 -3.0\n20.5 2.5 -3.0\n")


def _commented(text):
    """The same records among blank lines, whole-line and trailing comments."""
    rows = ["# leading comment", ""]
    for row in text.splitlines():
        rows += [f"{row}  # trailing comment", "  ", "\t# indented comment"]
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("name", ["map.txt", "detections.txt",
                                  "groundtruth.txt", "intrinsics.txt",
                                  "clusters.txt"])
def test_comments_and_blank_lines_are_skipped(synth_dir, tmp_path, name):
    def compile_map(text):
        clusters, out = tmp_path / "clusters.txt", tmp_path / "compiled.txt"
        clusters.write_text(text)
        assert run_cli("compile-map", clusters, "--out", out) == 0
        return out.read_text()

    parsed = {
        "map.txt": lambda t: serialize_map(parse_map(t)),
        "detections.txt": lambda t: serialize_detections(parse_detections(t)),
        "groundtruth.txt":
            lambda t: serialize_ground_truth(parse_ground_truth(t)),
        "intrinsics.txt": lambda t: serialize_intrinsics(parse_intrinsics(t)),
        "clusters.txt": compile_map,
    }[name]
    plain = CLUSTERS if name == "clusters.txt" else \
        (synth_dir / name).read_text()
    assert parsed(_commented(plain)) == parsed(plain)


def _scipy_modules_after(tmp_path, script):
    """Names of the scipy modules loaded after a fresh interpreter has run
    ``script`` in ``tmp_path``."""
    src = str(Path(semloc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = script + (
        "\nimport sys\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=300,
                         cwd=tmp_path)
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_out_scipy(tmp_path):
    # With scipy.ndimage loaded at import, semloc.features took about 0.39 s
    # of a 0.53-0.55 s cold CLI start, and only mask extraction needs it.
    assert _scipy_modules_after(tmp_path, "import semloc, semloc.cli") == "[]"


def test_detection_commands_leave_out_scipy(tmp_path):
    # Every command but ``localize --masks``, in one interpreter: a scipy
    # import that a detections code path reaches only at run time fails here.
    (tmp_path / "clusters.txt").write_text(CLUSTERS)
    world = ("--map", "w/map.txt", "--detections", "w/detections.txt",
             "--intrinsics", "w/intrinsics.txt")
    commands = [
        ("synth", "--out", "w", "--length", "50", "--no-masks"),
        ("localize", *world, "--bootstrap", "w/groundtruth.txt",
         "--out", "result.csv"),
        ("eval", "--result", "result.csv",
         "--ground-truth", "w/groundtruth.txt"),
        ("landscape", *world, "--ground-truth", "w/groundtruth.txt",
         "--frame", "4", "--grid", "3", "--out", "landscape.csv"),
        ("compile-map", "clusters.txt", "--out", "compiled.txt"),
    ]
    script = ("from semloc.cli import main\n"
              f"assert [main(list(c)) for c in {commands!r}] == "
              f"{[0] * len(commands)!r}")
    assert _scipy_modules_after(tmp_path, script) == "[]"


def test_no_command_imports_scipy(tmp_path):
    # Every command, masks included, in one fresh interpreter: the scipy
    # modules loaded after the CLI import and after each command must be
    # none, so a run-time import on any code path fails here.
    (tmp_path / "clusters.txt").write_text(CLUSTERS)
    world = ("--map", "w/map.txt", "--intrinsics", "w/intrinsics.txt")
    commands = [
        ("synth", "--out", "w", "--length", "50"),
        ("localize", *world, "--detections", "w/detections.txt",
         "--bootstrap", "w/groundtruth.txt", "--out", "result.csv"),
        ("localize", *world, "--masks", "w/masks",
         "--bootstrap", "w/groundtruth.txt", "--out", "masks_result.csv"),
        ("eval", "--result", "result.csv",
         "--ground-truth", "w/groundtruth.txt"),
        ("landscape", *world, "--detections", "w/detections.txt",
         "--ground-truth", "w/groundtruth.txt", "--frame", "4", "--grid", "3",
         "--out", "landscape.csv"),
        ("compile-map", "clusters.txt", "--out", "compiled.txt"),
    ]
    script = (
        "import sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m.split('.')[0] == 'scipy')\n"
        "import semloc, semloc.cli\n"
        "seen = [('import', 0, scipy_modules())]\n"
        f"for command in {commands!r}:\n"
        "    code = semloc.cli.main(list(command))\n"
        "    seen.append((command[0], code, scipy_modules()))\n"
        "print(repr(seen))")
    src = str(Path(semloc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=300,
                         cwd=tmp_path)
    seen = ast.literal_eval(out.stdout.strip().splitlines()[-1])
    assert [name for name, _, _ in seen] == \
        ["import"] + [command[0] for command in commands]
    assert seen == [(name, 0, []) for name, _, _ in seen]
    assert (tmp_path / "masks_result.csv").read_text().count("\n") > 2


class TestCompileMap:
    def test_pole_cluster(self, tmp_path):
        cluster = tmp_path / "clusters.txt"
        cluster.write_text(
            "CLUSTER LINE POLE 0\n"
            "10.0 0.0 3.0\n10.02 1.0 3.0\n9.98 2.0 3.0\n"
            "CLUSTER POINT SIGN 0\n"
            "20.0 2.0 -3.0\n20.5 2.5 -3.0\n")
        out = tmp_path / "map.txt"
        assert run_cli("compile-map", cluster, "--out", out) == 0
        m = parse_map(out.read_text())
        assert len(m.lines) == 1
        assert len(m.points) == 1
        assert m.lines[0].semantic is SemanticClass.POLE_LIKE
        assert m.lines[0].size_m == pytest.approx(2.0, abs=0.01)

    def test_empty_input_empty_map(self, tmp_path):
        cluster = tmp_path / "empty.txt"
        cluster.write_text("# nothing here\n")
        out = tmp_path / "map.txt"
        assert run_cli("compile-map", cluster, "--out", out) == 0
        m = parse_map(out.read_text())
        assert not (m.lines or m.points or m.lanes)

    def test_malformed_cluster_fails(self, tmp_path, capsys):
        cluster = tmp_path / "bad.txt"
        cluster.write_text("CLUSTER LINE POLE 0\n1.0 2.0\n")
        out = tmp_path / "map.txt"
        assert run_cli("compile-map", cluster, "--out", out) == 1
        assert "bad.txt" in capsys.readouterr().err

    def test_degenerate_cluster_fails(self, tmp_path):
        cluster = tmp_path / "bad.txt"
        cluster.write_text("CLUSTER LINE POLE 0\n1 1 1\n1 1 1\n")
        assert run_cli("compile-map", cluster, "--out", tmp_path / "m.txt") == 1

    def test_malformed_road_index_fails(self, tmp_path, capsys):
        cluster = tmp_path / "bad.txt"
        cluster.write_text("# header comment\nCLUSTER LINE POLE x\n1 1 1\n")
        assert run_cli("compile-map", cluster, "--out", tmp_path / "m.txt") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cluster}:2: ") and "'x'" in err
        assert not (tmp_path / "m.txt").exists()


class TestSynth:
    def test_emits_artifacts(self, tmp_path):
        out = tmp_path / "world"
        assert run_cli("synth", "--out", out, "--length", "42",
                       "--frame-spacing", "2.0", "--seed", "1") == 0
        for name in ("map.txt", "detections.txt", "groundtruth.txt",
                     "intrinsics.txt"):
            assert (out / name).exists()
        masks = list((out / "masks").glob("*.pgm"))
        assert masks  # all four artifact kinds present by default

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("synth", "--out", out, "--length", "50",
                           "--seed", "9", "--no-masks") == 0
        for name in ("map.txt", "detections.txt", "groundtruth.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_summary_counts_each_class(self, tmp_path, capsys):
        out = tmp_path / "world"
        assert run_cli("synth", "--out", out, "--length", "60",
                       "--seed", "3", "--no-masks") == 0
        semantic_map = parse_map((out / "map.txt").read_text())
        classes = [lm.semantic for lm in semantic_map.lines]
        poles = classes.count(SemanticClass.POLE_LIKE)
        milestones = classes.count(SemanticClass.MILESTONE)
        assert poles and milestones and poles + milestones == len(classes)
        assert (f"{poles} poles, {milestones} milestones, "
                f"{len(semantic_map.points)} signs, "
                f"{len(semantic_map.lanes)} lanes -> {out}"
                in capsys.readouterr().out)

    def test_full_dropout_empty_frames(self, tmp_path):
        out = tmp_path / "world"
        assert run_cli("synth", "--out", out, "--length", "50",
                       "--dropout-rate", "1.0", "--seed", "0",
                       "--no-masks") == 0
        text = (out / "detections.txt").read_text()
        assert "DL" not in text and "DP" not in text

    @pytest.mark.parametrize("flag, value, field", [
        ("--length", "inf", "corridor_length_m"),
        ("--length", "nan", "corridor_length_m"),
        ("--noise-sigma", "nan", "pixel_noise_sigma"),
    ])
    def test_non_finite_setting_fails(self, tmp_path, capsys, flag, value,
                                      field):
        out = tmp_path / "world"
        assert run_cli("synth", "--out", out, "--no-masks", flag, value) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be finite")
        assert not out.exists()

    def test_short_corridor_fails(self, tmp_path, capsys):
        # 30 m minus the 40 m trajectory margin leaves one frame, and
        # localize needs two to bootstrap.
        out = tmp_path / "world"
        assert run_cli("synth", "--out", out, "--length", "30") == 1
        assert capsys.readouterr().err.startswith("error: a 30 m corridor")
        assert not out.exists()


class TestLocalize:
    def test_flags_run(self, synth_dir, tmp_path):
        result_csv = tmp_path / "result.csv"
        code = run_cli("localize",
                       "--map", synth_dir / "map.txt",
                       "--detections", synth_dir / "detections.txt",
                       "--intrinsics", synth_dir / "intrinsics.txt",
                       "--bootstrap", synth_dir / "groundtruth.txt",
                       "--ground-truth", synth_dir / "groundtruth.txt",
                       "--out", result_csv)
        assert code == 0
        result = parse_result(result_csv.read_text())
        assert len(result.records) > 5

    def test_manifest_and_determinism(self, synth_dir, tmp_path):
        manifest = tmp_path / "run.json"
        manifest.write_text(json.dumps({
            "map": str(synth_dir / "map.txt"),
            "detections": str(synth_dir / "detections.txt"),
            "intrinsics": str(synth_dir / "intrinsics.txt"),
            "bootstrap": str(synth_dir / "groundtruth.txt"),
            "seed": 5,
        }))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("localize", "--manifest", manifest, "--out", a) == 0
        assert run_cli("localize", "--manifest", manifest, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_map_fails(self, synth_dir, tmp_path, capsys):
        code = run_cli("localize",
                       "--map", tmp_path / "nope.txt",
                       "--detections", synth_dir / "detections.txt",
                       "--intrinsics", synth_dir / "intrinsics.txt",
                       "--bootstrap", synth_dir / "groundtruth.txt")
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_malformed_map_names_the_map(self, synth_dir, tmp_path, capsys):
        bad = tmp_path / "map.txt"
        bad.write_text("SEMMAP 1\nL 0 POLE 0 1.0 2.0 3.0 4.0 5.0\n")
        code = run_cli("localize",
                       "--map", bad,
                       "--detections", synth_dir / "detections.txt",
                       "--intrinsics", synth_dir / "intrinsics.txt",
                       "--bootstrap", synth_dir / "groundtruth.txt",
                       "--out", tmp_path / "result.csv")
        assert code == 1
        assert capsys.readouterr().err == (
            "error: map line 2: L record needs 11 fields, got 9\n")

    def test_directory_input_fails(self, synth_dir, tmp_path, capsys):
        code = run_cli("localize",
                       "--map", synth_dir / "map.txt",
                       "--detections", synth_dir,
                       "--intrinsics", synth_dir / "intrinsics.txt",
                       "--bootstrap", synth_dir / "groundtruth.txt",
                       "--out", tmp_path / "result.csv")
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("record", ["DL POLE nan 1 2 3",
                                        "DL LANE inf 0 1 1"])
    def test_non_finite_detected_line_fails(self, synth_dir, tmp_path, capsys,
                                            record):
        detections = tmp_path / "detections.txt"
        detections.write_text(
            (synth_dir / "detections.txt").read_text() + record + "\n")
        code = run_cli("localize",
                       "--map", synth_dir / "map.txt",
                       "--detections", detections,
                       "--intrinsics", synth_dir / "intrinsics.txt",
                       "--bootstrap", synth_dir / "groundtruth.txt",
                       "--out", tmp_path / "result.csv")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: detections line ") and \
            "finite" in err
        assert not (tmp_path / "result.csv").exists()

    @pytest.mark.parametrize("name, text, message", [
        ("intrinsics.txt", "K nan 700 613 185 0 1226 370\n",
         "error: non-finite intrinsics"),
        ("intrinsics.txt", "K 700 700 inf 185 0 1226 370\n",
         "error: non-finite intrinsics"),
        ("map.txt", None, "error: map line "),
    ])
    def test_non_finite_input_fails(self, synth_dir, tmp_path, capsys, name,
                                    text, message):
        # Each of these ran to exit 0 with every frame after the bootstrap
        # coasted, or with a landmark that preselection always or never
        # keeps.
        if text is None:
            text = (synth_dir / name).read_text() + \
                "L 99999 POLE 0 nan 0 3 10 2 3 2.0\n"
        (tmp_path / name).write_text(text)
        inputs = {key: synth_dir / key for key in ("map.txt",
                                                    "intrinsics.txt")}
        inputs[name] = tmp_path / name
        code = run_cli("localize",
                       "--map", inputs["map.txt"],
                       "--detections", synth_dir / "detections.txt",
                       "--intrinsics", inputs["intrinsics.txt"],
                       "--bootstrap", synth_dir / "groundtruth.txt",
                       "--out", tmp_path / "result.csv")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and "finite" in err
        assert not (tmp_path / "result.csv").exists()

    def test_unpadded_mask_names_fail(self, synth_dir, tmp_path, capsys):
        masks = tmp_path / "masks"
        masks.mkdir()
        (masks / "1_POLE.pgm").write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        code = run_cli("localize",
                       "--map", synth_dir / "map.txt",
                       "--masks", masks,
                       "--intrinsics", synth_dir / "intrinsics.txt",
                       "--bootstrap", synth_dir / "groundtruth.txt",
                       "--out", tmp_path / "result.csv")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "frame 1" in err

    @pytest.mark.parametrize("name", ["notes.pgm", "000003_FOO.pgm"])
    def test_foreign_mask_names_fail(self, synth_dir, tmp_path, capsys, name):
        masks = tmp_path / "masks"
        masks.mkdir()
        (masks / "000003_POLE.pgm").write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        (masks / name).write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        code = run_cli("localize",
                       "--map", synth_dir / "map.txt",
                       "--masks", masks,
                       "--intrinsics", synth_dir / "intrinsics.txt",
                       "--bootstrap", synth_dir / "groundtruth.txt",
                       "--out", tmp_path / "result.csv")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: mask file {name}: ")

    def test_bootstrap_by_frame_id(self, synth_dir, tmp_path, capsys):
        frames = parse_detections((synth_dir / "detections.txt").read_text())
        late = tmp_path / "late.txt"
        late.write_text(serialize_detections(frames[10:]))
        gt_text = (synth_dir / "groundtruth.txt").read_text()
        truth = parse_ground_truth(gt_text)
        result_csv = tmp_path / "result.csv"
        args = ("localize", "--map", synth_dir / "map.txt",
                "--detections", late,
                "--intrinsics", synth_dir / "intrinsics.txt",
                "--out", result_csv)
        assert run_cli(*args, "--bootstrap", synth_dir / "groundtruth.txt") == 0
        records = parse_result(result_csv.read_text()).records
        assert [r.frame_id for r in records[:2]] == [10, 11]
        for rec in records[:2]:
            assert np.allclose(rec.pose.as_vector(),
                               truth[rec.frame_id].as_vector(), atol=1e-6)

        partial = tmp_path / "partial.txt"
        partial.write_text(serialize_ground_truth(
            {k: pose for k, pose in truth.items() if k != 11}))
        capsys.readouterr()
        assert run_cli(*args, "--bootstrap", partial) == 1
        assert "frame 11" in capsys.readouterr().err

    def test_repeated_bootstrap_frame_fails(self, synth_dir, tmp_path,
                                            capsys):
        # A later record for a frame used to replace the first silently.
        gt_text = (synth_dir / "groundtruth.txt").read_text()
        first = gt_text.splitlines()[0].split()
        first[2] = "5.0"
        bootstrap = tmp_path / "bootstrap.txt"
        bootstrap.write_text(gt_text + " ".join(first) + "\n")
        code = run_cli("localize", "--map", synth_dir / "map.txt",
                       "--detections", synth_dir / "detections.txt",
                       "--intrinsics", synth_dir / "intrinsics.txt",
                       "--bootstrap", bootstrap,
                       "--out", tmp_path / "result.csv")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ground truth line ") and \
            "repeated" in err
        assert not (tmp_path / "result.csv").exists()

    def test_trailing_intrinsics_record_fails(self, synth_dir, tmp_path,
                                              capsys):
        intrinsics = tmp_path / "intrinsics.txt"
        intrinsics.write_text(
            (synth_dir / "intrinsics.txt").read_text() + "garbage\n")
        code = run_cli("localize", "--map", synth_dir / "map.txt",
                       "--detections", synth_dir / "detections.txt",
                       "--intrinsics", intrinsics,
                       "--bootstrap", synth_dir / "groundtruth.txt",
                       "--out", tmp_path / "result.csv")
        assert code == 1
        assert capsys.readouterr().err.startswith("error: intrinsics line 2: ")
        assert not (tmp_path / "result.csv").exists()

    def test_unknown_config_key_fails(self, synth_dir, tmp_path, capsys):
        manifest = tmp_path / "run.json"
        manifest.write_text(json.dumps({
            "map": str(synth_dir / "map.txt"),
            "detections": str(synth_dir / "detections.txt"),
            "intrinsics": str(synth_dir / "intrinsics.txt"),
            "bootstrap": str(synth_dir / "groundtruth.txt"),
            "association": {"bogus_knob": 1},
        }))
        assert run_cli("localize", "--manifest", manifest) == 1
        assert "bogus_knob" in capsys.readouterr().err


class TestManifest:
    def write(self, tmp_path, synth_dir, **blocks):
        manifest = tmp_path / "run.json"
        manifest.write_text(json.dumps({
            "map": str(synth_dir / "map.txt"),
            "detections": str(synth_dir / "detections.txt"),
            "intrinsics": str(synth_dir / "intrinsics.txt"),
            "bootstrap": str(synth_dir / "groundtruth.txt"),
            "ground-truth": str(synth_dir / "groundtruth.txt"),
            **blocks,
        }))
        return manifest

    def run_both(self, manifest, tmp_path):
        """Exit codes of localize and landscape on the manifest."""
        return [run_cli("localize", "--manifest", manifest,
                        "--out", tmp_path / "result.csv"),
                run_cli("landscape", "--manifest", manifest, "--frame", "4",
                        "--grid", "3", "--out", tmp_path / "landscape.csv")]

    @pytest.mark.parametrize("block, key", [
        ({"association": {"rematch_around": "initial_pose"}}, "rematch_around"),
        ({"residual": {"camera_heigth_m": 1.6}}, "camera_heigth_m"),
        ({"ground_truth": "world/groundtruth.txt"}, "ground_truth"),
        # Blocks of settings that are now module constants.
        ({"solver": {"max_iterations": 100}}, "solver"),
        ({"preselect": {"min_size_ratio": 0.017}}, "preselect"),
        ({"extraction": {"threshold": 0.1}}, "extraction"),
        # Hypothesis sampling is fixed; the seed is the top-level "seed".
        ({"association": {"hypothesis_lines": 4}}, "hypothesis_lines"),
        ({"association": {"hypothesis_points": 1}}, "hypothesis_points"),
        ({"association": {"max_hypotheses": 500}}, "max_hypotheses"),
        ({"association": {"rng_seed": 0}}, "rng_seed"),
    ])
    def test_rejected_key_fails(self, synth_dir, tmp_path, capsys, block, key):
        manifest = self.write(tmp_path, synth_dir, **block)
        name = next(iter(block))
        what = "manifest" if name == key else name
        assert self.run_both(manifest, tmp_path) == [1, 1]
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        for line in lines:
            assert line.startswith(f"error: unknown {what} settings")
            assert key in line

    @pytest.mark.parametrize("block, key", [
        ({"association": {"max_pose_shift": "30"}}, "max_pose_shift"),
        ({"residual": {"camera_height_m": "1.6"}}, "camera_height_m"),
        ({"residual": {"camera_height_m": True}}, "camera_height_m"),
        ({"residual": {"camera_height_m": None}}, "camera_height_m"),
        ({"road_index": 0.7}, "road_index"),
        ({"seed": "3"}, "seed"),
        ({"map": 5}, "map"),
        ({"out": 7}, "out"),
        ({"association": 5}, "association"),
        ({"residual": [1.6]}, "residual"),
        # Well-typed but out of range.
        ({"residual": {"camera_height_m": 0.0}}, "camera_height_m"),
        ({"residual": {"camera_height_m": -1.6}}, "camera_height_m"),
    ])
    def test_mistyped_value_fails(self, synth_dir, tmp_path, capsys, block,
                                  key):
        manifest = self.write(tmp_path, synth_dir, **block)
        assert self.run_both(manifest, tmp_path) == [1, 1]
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        for line in lines:
            assert line.startswith("error:") and repr(key) in line

    @pytest.mark.parametrize("value", [float("nan"), float("-inf")])
    def test_non_finite_number_fails(self, synth_dir, tmp_path, capsys, value):
        manifest = self.write(tmp_path, synth_dir,
                              residual={"camera_height_m": value})
        assert self.run_both(manifest, tmp_path) == [1, 1]
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        for line in lines:
            assert line.startswith("error: manifest number") and \
                "not finite" in line

    @pytest.mark.parametrize("key", ["max_pose_shift", "gate_line_init_px"])
    def test_overflowing_gate_fails(self, synth_dir, tmp_path, capsys, key):
        # json.loads reads 1e999 as inf without calling parse_constant, so
        # the gate check itself has to refuse it.
        manifest = self.write(tmp_path, synth_dir, association={key: 12.5})
        text = manifest.read_text()
        manifest.write_text(text.replace("12.5", "1e999"))
        assert json.loads(manifest.read_text())["association"][key] == \
            float("inf")
        assert self.run_both(manifest, tmp_path) == [1, 1]
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: gates must be positive and finite"] * 2

    @pytest.mark.parametrize("blocks, flags", [
        ({"seed": -3}, ()),
        ({}, ("--seed", "-1")),
    ])
    def test_negative_seed_fails(self, synth_dir, tmp_path, capsys, blocks,
                                 flags):
        manifest = self.write(tmp_path, synth_dir, **blocks)
        assert run_cli("localize", "--manifest", manifest, *flags,
                       "--out", tmp_path / "result.csv") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be non-negative")

    @pytest.mark.parametrize("blocks, flags", [
        ({}, ("--masks", "/nonexistent/dir")),
        ({"masks": "masks"}, ()),
    ])
    def test_detections_and_masks_fail(self, synth_dir, tmp_path, capsys,
                                       blocks, flags):
        manifest = self.write(tmp_path, synth_dir, **blocks)
        assert run_cli("localize", "--manifest", manifest, *flags,
                       "--out", tmp_path / "result.csv") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'masks'" in err
        assert not (tmp_path / "result.csv").exists()

    def test_paths_resolve_against_manifest_dir(self, synth_dir, tmp_path,
                                                monkeypatch):
        manifest = synth_dir / "run.json"
        manifest.write_text(json.dumps({
            "map": "map.txt", "detections": "detections.txt",
            "intrinsics": "intrinsics.txt", "bootstrap": "groundtruth.txt",
            "out": "result.csv"}))
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert run_cli("localize", "--manifest", manifest) == 0
        assert (elsewhere / "result.csv").exists()  # out: working directory
        assert run_cli("localize", "--manifest", manifest,
                       "--detections", "missing.txt") == 1  # flag wins

    def test_road_index_without_masks_fails(self, synth_dir, tmp_path,
                                            capsys):
        # Detections carry each frame's road in their F records, so a
        # manifest road index went unread there: road 7 ran on road 0.
        manifest = self.write(tmp_path, synth_dir, road_index=7)
        assert self.run_both(manifest, tmp_path) == [1, 1]
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        for line in lines:
            assert line.startswith("error:") and "'road_index'" in line
        assert not (tmp_path / "result.csv").exists()
        assert not (tmp_path / "landscape.csv").exists()

    def test_landscape_out_from_manifest(self, synth_dir, tmp_path, capsys):
        args = ("landscape", "--frame", "4", "--grid", "3", "--manifest")
        assert run_cli(*args, self.write(tmp_path, synth_dir)) == 1
        assert "missing required input 'out'" in capsys.readouterr().err
        out = tmp_path / "landscape.csv"
        manifest = self.write(tmp_path, synth_dir, out=str(out))
        assert run_cli(*args, manifest) == 0
        assert len(out.read_text().splitlines()) == 1 + 3 * 3


def test_readme_manifest_example(tmp_path, monkeypatch, capsys):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    example = re.search(r"```json\n(.*?)```", readme.read_text(), re.S)
    (tmp_path / "run.json").write_text(example.group(1))
    assert run_cli("synth", "--out", tmp_path / "world", "--length", "60",
                   "--seed", "3", "--no-masks") == 0
    monkeypatch.chdir(tmp_path)
    assert run_cli("localize", "--manifest", "run.json",
                   "--out", "result.csv") == 0
    assert "rms position error" in capsys.readouterr().out
    assert len(parse_result((tmp_path / "result.csv").read_text()).records) > 5


class TestEval:
    def test_matches_pipeline_summary(self, synth_dir, tmp_path, capsys):
        result_csv = tmp_path / "result.csv"
        run_cli("localize",
                "--map", synth_dir / "map.txt",
                "--detections", synth_dir / "detections.txt",
                "--intrinsics", synth_dir / "intrinsics.txt",
                "--bootstrap", synth_dir / "groundtruth.txt",
                "--ground-truth", synth_dir / "groundtruth.txt",
                "--out", result_csv)
        first = capsys.readouterr().out
        json_out = tmp_path / "metrics.json"
        assert run_cli("eval", "--result", result_csv,
                       "--ground-truth", synth_dir / "groundtruth.txt",
                       "--json", json_out) == 0
        second = capsys.readouterr().out
        line = next(l for l in first.splitlines() if "rms position" in l)
        assert line in second
        metrics = json.loads(json_out.read_text())
        assert metrics["n_frames"] == len(
            parse_result(result_csv.read_text()).records)
        assert metrics["rms_position_m"] < 1e-3

    def test_perfect_track_zeros(self, synth_dir, tmp_path, capsys):
        from semloc.pipeline import (FrameRecord, FrameStatus,
                                     TrajectoryResult, parse_ground_truth,
                                     serialize_result)
        truth = parse_ground_truth((synth_dir / "groundtruth.txt").read_text())
        result = TrajectoryResult()
        for k in sorted(truth):
            result.records.append(FrameRecord(k, FrameStatus.LOCALIZED,
                                              truth[k], 0.0, 6))
        path = tmp_path / "ideal.csv"
        path.write_text(serialize_result(result))
        assert run_cli("eval", "--result", path,
                       "--ground-truth", synth_dir / "groundtruth.txt") == 0
        out = capsys.readouterr().out
        assert "rms position error    0.000000 m" in out
        assert "below 0.5 m           100.00%" in out


    def test_repeated_result_row_fails(self, synth_dir, tmp_path, capsys):
        # A repeated row used to count twice in the summary.
        result_csv = tmp_path / "result.csv"
        assert run_cli("localize",
                       "--map", synth_dir / "map.txt",
                       "--detections", synth_dir / "detections.txt",
                       "--intrinsics", synth_dir / "intrinsics.txt",
                       "--bootstrap", synth_dir / "groundtruth.txt",
                       "--out", result_csv) == 0
        rows = result_csv.read_text().splitlines()
        result_csv.write_text("\n".join(rows + rows[-1:]) + "\n")
        capsys.readouterr()
        assert run_cli("eval", "--result", result_csv,
                       "--ground-truth", synth_dir / "groundtruth.txt") == 1
        assert capsys.readouterr().err.startswith(
            f"error: result CSV line {len(rows) + 1}: frame ids must be "
            f"strictly increasing")


class TestLandscape:
    def test_exports_grid(self, synth_dir, tmp_path):
        out = tmp_path / "landscape.csv"
        code = run_cli("landscape",
                       "--map", synth_dir / "map.txt",
                       "--detections", synth_dir / "detections.txt",
                       "--intrinsics", synth_dir / "intrinsics.txt",
                       "--ground-truth", synth_dir / "groundtruth.txt",
                       "--frame", "4", "--dims", "x,z",
                       "--half-ranges", "1.0,1.0", "--grid", "7",
                       "--out", out)
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "a_value,b_value,sqrtR"
        assert len(rows) == 1 + 7 * 7
        values = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        center = values[len(values) // 2]
        assert center[2] == values[:, 2].min()  # minimum at the true pose

    def test_no_seed_flag(self, synth_dir, tmp_path):
        # The landscape draws no random numbers, so it takes no seed.
        with pytest.raises(SystemExit):
            run_cli("landscape",
                    "--map", synth_dir / "map.txt",
                    "--detections", synth_dir / "detections.txt",
                    "--intrinsics", synth_dir / "intrinsics.txt",
                    "--ground-truth", synth_dir / "groundtruth.txt",
                    "--frame", "4", "--seed", "3",
                    "--out", tmp_path / "x.csv")

    def test_unknown_frame_fails(self, synth_dir, tmp_path):
        assert run_cli("landscape",
                       "--map", synth_dir / "map.txt",
                       "--detections", synth_dir / "detections.txt",
                       "--intrinsics", synth_dir / "intrinsics.txt",
                       "--ground-truth", synth_dir / "groundtruth.txt",
                       "--frame", "9999", "--out", tmp_path / "x.csv") == 1


class TestLocalizeFromMasks:
    def test_mask_input_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "world"
        assert run_cli("synth", "--out", out, "--length", "70",
                       "--frame-spacing", "2.0", "--seed", "2") == 0
        result_csv = tmp_path / "result.csv"
        code = run_cli("localize",
                       "--map", out / "map.txt",
                       "--masks", out / "masks",
                       "--intrinsics", out / "intrinsics.txt",
                       "--bootstrap", out / "groundtruth.txt",
                       "--ground-truth", out / "groundtruth.txt",
                       "--out", result_csv)
        assert code == 0
        printed = capsys.readouterr().out
        line = next(l for l in printed.splitlines() if "rms position" in l)
        # extraction quantization keeps this within a few centimeters
        assert float(line.split()[3]) < 0.2
        result = parse_result(result_csv.read_text())
        assert result.count(FrameStatus.LOCALIZED) == len(result.records) - 2

    def test_manifest_road_index_reaches_masks(self, tmp_path):
        out = tmp_path / "world"
        assert run_cli("synth", "--out", out, "--length", "50") == 0
        localized = []
        for road_index in (0, 7):
            manifest = out / f"road{road_index}.json"
            manifest.write_text(json.dumps({
                "map": "map.txt", "masks": "masks",
                "intrinsics": "intrinsics.txt", "bootstrap": "groundtruth.txt",
                "road_index": road_index}))
            result_csv = tmp_path / f"road{road_index}.csv"
            assert run_cli("localize", "--manifest", manifest,
                           "--out", result_csv) == 0
            result = parse_result(result_csv.read_text())
            localized.append(result.count(FrameStatus.LOCALIZED))
        # Every landmark of the world lies on road 0, so on road 7 no frame
        # after the bootstrap finds one.
        assert localized[0] > 0 and localized[1] == 0
