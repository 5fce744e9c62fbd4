import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import semloc
from semloc.camera import parse_intrinsics, serialize_intrinsics
from semloc.cli import main
from semloc.mapmodel import SemanticClass, load_map, parse_map, serialize_map
from semloc.pipeline import (parse_detections, parse_ground_truth,
                             parse_result, serialize_detections,
                             serialize_ground_truth)


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


def test_cli_import_leaves_out_scipy_spatial():
    # scipy.spatial costs about 0.13 s of every CLI start; nothing needs it.
    src = str(Path(semloc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, semloc.cli; print('scipy.spatial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"


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
        m = load_map(out)
        assert len(m.lines) == 1
        assert len(m.points) == 1
        assert m.lines[0].semantic is SemanticClass.POLE_LIKE
        assert m.lines[0].size_m == pytest.approx(2.0, abs=0.01)

    def test_empty_input_empty_map(self, tmp_path):
        cluster = tmp_path / "empty.txt"
        cluster.write_text("# nothing here\n")
        out = tmp_path / "map.txt"
        assert run_cli("compile-map", cluster, "--out", out) == 0
        assert load_map(out).is_empty()

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

    def test_full_dropout_empty_frames(self, tmp_path):
        out = tmp_path / "world"
        assert run_cli("synth", "--out", out, "--length", "50",
                       "--dropout-rate", "1.0", "--seed", "0",
                       "--no-masks") == 0
        text = (out / "detections.txt").read_text()
        assert "DL" not in text and "DP" not in text

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

    def test_directory_input_fails(self, synth_dir, tmp_path, capsys):
        code = run_cli("localize",
                       "--map", synth_dir / "map.txt",
                       "--detections", synth_dir,
                       "--intrinsics", synth_dir / "intrinsics.txt",
                       "--bootstrap", synth_dir / "groundtruth.txt",
                       "--out", tmp_path / "result.csv")
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

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
        ({"preselect": {"min_size_raito": 0.02}}, "min_size_raito"),
        ({"ground_truth": "world/groundtruth.txt"}, "ground_truth"),
    ])
    def test_rejected_key_fails(self, synth_dir, tmp_path, capsys, block, key):
        manifest = self.write(tmp_path, synth_dir, **block)
        name, value = next(iter(block.items()))
        what = name if isinstance(value, dict) else "manifest"
        assert self.run_both(manifest, tmp_path) == [1, 1]
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        for line in lines:
            assert line.startswith(f"error: unknown {what} settings")
            assert key in line

    @pytest.mark.parametrize("block, key", [
        ({"association": {"max_hypotheses": "5"}}, "max_hypotheses"),
        ({"solver": {"max_iterations": 10.5}}, "max_iterations"),
        ({"preselect": {"min_size_ratio": "x"}}, "min_size_ratio"),
        ({"residual": {"lambda_n": True}}, "lambda_n"),
        ({"road_index": 0.7}, "road_index"),
        ({"seed": "3"}, "seed"),
        ({"map": 5}, "map"),
        ({"out": 7}, "out"),
    ])
    def test_mistyped_value_fails(self, synth_dir, tmp_path, capsys, block,
                                  key):
        manifest = self.write(tmp_path, synth_dir, **block)
        assert self.run_both(manifest, tmp_path) == [1, 1]
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        for line in lines:
            assert line.startswith("error:") and repr(key) in line

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

    def test_landscape_out_from_manifest(self, synth_dir, tmp_path, capsys):
        args = ("landscape", "--frame", "4", "--grid", "3", "--manifest")
        assert run_cli(*args, self.write(tmp_path, synth_dir)) == 1
        assert "missing required input 'out'" in capsys.readouterr().err
        out = tmp_path / "landscape.csv"
        manifest = self.write(tmp_path, synth_dir, out=str(out))
        assert run_cli(*args, manifest) == 0
        assert len(out.read_text().splitlines()) == 1 + 3 * 3

    @pytest.mark.parametrize("command, extra", [
        ("localize", ()),
        ("landscape", ("--frame", "4", "--grid", "3")),
    ])
    def test_zero_min_size_ratio_reaches_preselect(self, synth_dir, tmp_path,
                                                   monkeypatch, command, extra):
        import semloc.cli
        import semloc.pipeline
        from semloc.mapmodel import preselect

        ratios = []

        def recording(semantic_map, rough, min_size_ratio, *rest):
            ratios.append(min_size_ratio)
            return preselect(semantic_map, rough, min_size_ratio, *rest)

        monkeypatch.setattr(semloc.pipeline, "preselect", recording)
        monkeypatch.setattr(semloc.cli, "preselect", recording)
        manifest = self.write(tmp_path, synth_dir,
                              preselect={"min_size_ratio": 0})
        assert run_cli(command, "--manifest", manifest,
                       "--out", tmp_path / "out.csv", *extra) == 0
        assert ratios and all(r == 0 for r in ratios)


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
        assert result.count
