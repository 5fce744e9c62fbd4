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


def _modules_after(tmp_path, script, package):
    """Names of the modules of ``package`` loaded after a fresh interpreter
    has run ``script`` in ``tmp_path``."""
    src = str(Path(semloc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = script + (
        "\nimport sys\n"
        f"print(sorted(m for m in sys.modules if m == {package!r}\n"
        f"             or m.startswith({package + '.'!r})))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=300,
                         cwd=tmp_path)
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_out_numpy_random(tmp_path):
    # Importing numpy.random costs about 11 ms of a cold start, and RANSAC
    # draws its pairs from a fixed table. numpy 1.x loads it with numpy.
    if _modules_after(tmp_path, "import numpy", "numpy.random") != "[]":
        pytest.skip("import numpy loads numpy.random")
    assert _modules_after(tmp_path, "import semloc, semloc.cli",
                          "numpy.random") == "[]"


def test_localize_leaves_out_numpy_random(tmp_path):
    # The validation loop solves the whole base match and draws nothing,
    # so localizing detections and masks of a two-sided world, whose
    # frames match more than 5 pairs, loads no numpy.random either.
    if _modules_after(tmp_path, "import numpy", "numpy.random") != "[]":
        pytest.skip("import numpy loads numpy.random")
    assert run_cli("synth", "--out", tmp_path / "w", "--length", "60",
                   "--pole-sides", "2", "--seed", "3") == 0
    world = ("--map", "w/map.txt", "--intrinsics", "w/intrinsics.txt",
             "--bootstrap", "w/groundtruth.txt")
    script = (
        "import semloc.association as association, semloc.cli\n"
        "matched, match = [], association.closest_correspond\n"
        "def counted(*args):\n"
        "    matched.append(len(corr := match(*args)))\n"
        "    return corr\n"
        "association.closest_correspond = counted\n"
        "for source in (['--detections', 'w/detections.txt'],\n"
        "               ['--masks', 'w/masks']):\n"
        f"    assert semloc.cli.main(['localize', *{list(world)!r}, *source,\n"
        "                            '--out', 'result.csv']) == 0\n"
        "    assert max(matched) > 5, matched\n"
        "    matched.clear()")
    assert _modules_after(tmp_path, script, "numpy.random") == "[]"


# Every command, masks included, run in a directory holding CLUSTERS as
# clusters.txt: synth writes the world w/ that the others read.
_WORLD = ("--map", "w/map.txt", "--intrinsics", "w/intrinsics.txt")
_COMMANDS = [
    ("synth", "--out", "w", "--length", "50"),
    ("localize", *_WORLD, "--detections", "w/detections.txt",
     "--bootstrap", "w/groundtruth.txt", "--out", "result.csv"),
    ("localize", *_WORLD, "--masks", "w/masks",
     "--bootstrap", "w/groundtruth.txt", "--out", "masks_result.csv"),
    ("eval", "--result", "result.csv", "--ground-truth", "w/groundtruth.txt"),
    ("landscape", *_WORLD, "--detections", "w/detections.txt",
     "--ground-truth", "w/groundtruth.txt", "--frame", "4", "--grid", "3",
     "--out", "landscape.csv"),
    ("compile-map", "clusters.txt", "--out", "compiled.txt"),
]


def test_no_command_imports_scipy(tmp_path):
    # Every command in one fresh interpreter: the scipy modules loaded after
    # the CLI import and after each command must be none, so a run-time
    # import on any code path fails here.
    (tmp_path / "clusters.txt").write_text(CLUSTERS)
    script = (
        "import sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m.split('.')[0] == 'scipy')\n"
        "import semloc, semloc.cli\n"
        "seen = [('import', 0, scipy_modules())]\n"
        f"for command in {_COMMANDS!r}:\n"
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
        ["import"] + [command[0] for command in _COMMANDS]
    assert seen == [(name, 0, []) for name, _, _ in seen]
    assert (tmp_path / "masks_result.csv").read_text().count("\n") > 2


def test_only_synth_loads_the_world_generator(tmp_path, monkeypatch):
    # The package root imports no submodule, and the CLI loads synthworld
    # for synth only. A module stays loaded once imported, so none after
    # the last command means none after the CLI import and each command.
    assert _modules_after(tmp_path, "import semloc", "semloc") == "['semloc']"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "clusters.txt").write_text(CLUSTERS)
    synth, *others = _COMMANDS
    assert run_cli(*synth) == 0
    run = ("import semloc.cli\n"
           "for command in {!r}:\n"
           "    assert semloc.cli.main(list(command)) == 0, command\n")
    assert _modules_after(tmp_path, run.format(others),
                          "semloc.synthworld") == "[]"
    assert _modules_after(tmp_path, run.format([synth]),
                          "semloc.synthworld") == "['semloc.synthworld']"


def test_version_matches_pyproject(capsys):
    # The version is written twice: in pyproject.toml and in the package
    # root, which `semloc --version` prints. tomllib needs Python 3.11.
    pyproject = (Path(__file__).resolve().parents[1] /
                 "pyproject.toml").read_text()
    project = pyproject.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    declared = re.search(r'^version = "([^"]+)"$', project,
                         re.MULTILINE).group(1)
    assert semloc.__version__ == declared
    with pytest.raises(SystemExit) as exit_info:
        run_cli("--version")
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == f"{declared}\n"


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

    @pytest.mark.parametrize("text, line_no", [
        pytest.param("CLUSTER LINE POLE 0\n1.0 2.0\n", 2, id="short-row"),
        pytest.param("CLUSTER LINE POLE\n1 2 3\n4 5 6\n", 1,
                     id="short-header"),
        pytest.param("CLUSTER CURVE POLE 0\n1 2 3\n4 5 6\n", 1,
                     id="unknown-kind"),
        pytest.param("CLUSTER LINE TREE 0\n1 2 3\n4 5 6\n", 1,
                     id="unknown-class"),
        pytest.param("# points first\n1 2 3\nCLUSTER LINE POLE 0\n", 2,
                     id="row-before-header"),
        pytest.param("CLUSTER LINE POLE 0\n1 2 3\n4 y 6\n", 3,
                     id="non-numeric-coordinate"),
        # An empty cluster is named at its own header, not at the next one
        # or past the end of the file.
        pytest.param("CLUSTER LINE POLE 0\nCLUSTER POINT SIGN 0\n1 2 3\n", 1,
                     id="empty-line-cluster"),
        pytest.param("CLUSTER LINE POLE 0\n1 2 3\n4 5 6\n"
                     "CLUSTER POINT SIGN 0\n", 4, id="empty-point-cluster"),
    ])
    def test_malformed_cluster_fails(self, tmp_path, capsys, text, line_no):
        cluster = tmp_path / "bad.txt"
        cluster.write_text(text)
        out = tmp_path / "map.txt"
        assert run_cli("compile-map", cluster, "--out", out) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {cluster}:{line_no}: ")
        assert not out.exists()

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
        # Two runs at one seed write the same world, and 0 is the default.
        runs = {"a": ("--seed", "9"), "b": ("--seed", "9"),
                "c": (), "d": ("--seed", "0")}
        for out, seed in runs.items():
            assert run_cli("synth", "--out", tmp_path / out, "--length", "50",
                           *seed, "--no-masks") == 0
        for name in ("map.txt", "detections.txt", "groundtruth.txt"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()
            assert (tmp_path / "c" / name).read_bytes() == \
                (tmp_path / "d" / name).read_bytes()

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
         "error: intrinsics line 1: non-finite intrinsics"),
        ("intrinsics.txt", "K 700 700 inf 185 0 1226 370\n",
         "error: intrinsics line 1: non-finite intrinsics"),
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

    @pytest.mark.parametrize("create, message", [
        (False, "error: mask directory not found: "),
        (True, "error: no .pgm masks in "),
    ])
    def test_mask_directory_without_masks_fails(self, synth_dir, tmp_path,
                                                capsys, create, message):
        masks = tmp_path / "masks"
        if create:
            masks.mkdir()
            (masks / "notes.txt").write_text("000003_POLE.pgm\n")
        code = run_cli("localize",
                       "--map", synth_dir / "map.txt",
                       "--masks", masks,
                       "--intrinsics", synth_dir / "intrinsics.txt",
                       "--bootstrap", synth_dir / "groundtruth.txt",
                       "--out", tmp_path / "result.csv")
        assert code == 1
        assert capsys.readouterr().err == f"{message}{masks}\n"
        assert not (tmp_path / "result.csv").exists()

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
        # The association gates are fixed and the validation loop samples
        # nothing, so the manifest has no association block.
        ({"association": {"rematch_around": "initial_pose"}}, "association"),
        ({"residual": {"camera_heigth_m": 1.6}}, "camera_heigth_m"),
        ({"ground_truth": "world/groundtruth.txt"}, "ground_truth"),
        # Blocks of settings that are now module constants.
        ({"solver": {"max_iterations": 100}}, "solver"),
        ({"preselect": {"min_size_ratio": 0.017}}, "preselect"),
        ({"extraction": {"threshold": 0.1}}, "extraction"),
        ({"association": {"hypothesis_lines": 4}}, "association"),
        ({"association": {"hypothesis_points": 1}}, "association"),
        ({"association": {"max_hypotheses": 500}}, "association"),
        ({"association": {"rng_seed": 0}}, "association"),
        # Refused as unknown whatever the value, a mistyped one included.
        ({"association": {"max_pose_shift": "30"}}, "association"),
        ({"seed": "3"}, "seed"),
        ({"association": 5}, "association"),
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

    # Explicit ids keep each case's name stable when cases are added or
    # removed.
    @pytest.mark.parametrize("block, key", [
        pytest.param({"residual": {"camera_height_m": "1.6"}},
                     "camera_height_m", id="block1-camera_height_m"),
        pytest.param({"residual": {"camera_height_m": True}},
                     "camera_height_m", id="block2-camera_height_m"),
        pytest.param({"residual": {"camera_height_m": None}},
                     "camera_height_m", id="block3-camera_height_m"),
        pytest.param({"road_index": 0.7}, "road_index",
                     id="block4-road_index"),
        pytest.param({"map": 5}, "map", id="block6-map"),
        pytest.param({"out": 7}, "out", id="block7-out"),
        pytest.param({"residual": [1.6]}, "residual", id="block9-residual"),
        # Well-typed but out of range.
        pytest.param({"residual": {"camera_height_m": 0.0}},
                     "camera_height_m", id="block10-camera_height_m"),
        pytest.param({"residual": {"camera_height_m": -1.6}},
                     "camera_height_m", id="block11-camera_height_m"),
    ])
    def test_mistyped_value_fails(self, synth_dir, tmp_path, capsys, block,
                                  key):
        manifest = self.write(tmp_path, synth_dir, **block)
        assert self.run_both(manifest, tmp_path) == [1, 1]
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        for line in lines:
            assert line.startswith("error:") and repr(key) in line

    @pytest.mark.parametrize("text, message", [
        ('{"map": "map.txt",', "error: manifest is not valid JSON: "),
        ('["map.txt"]', "error: manifest must be a JSON object"),
    ])
    def test_unreadable_manifest_fails(self, tmp_path, capsys, text, message):
        manifest = tmp_path / "run.json"
        manifest.write_text(text)
        assert self.run_both(manifest, tmp_path) == [1, 1]
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        for line in lines:
            assert line.startswith(message)

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

    def test_association_settings_rejected(self, synth_dir, tmp_path,
                                           capsys):
        # The gates are fixed and the validation loop samples nothing, so the
        # settings that once chose them are refused, even at the values they
        # always had.
        for key, value in (("seed", 0),
                           ("association", {"max_hypothesis_rms": 200.0})):
            manifest = self.write(tmp_path, synth_dir, **{key: value})
            assert self.run_both(manifest, tmp_path) == [1, 1]
            assert capsys.readouterr().err.splitlines() == \
                [f"error: unknown manifest settings: [{key!r}]"] * 2
        with pytest.raises(SystemExit) as exit_info:
            run_cli("localize", "--manifest", self.write(tmp_path, synth_dir),
                    "--seed", "0", "--out", tmp_path / "result.csv")
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --seed 0" in capsys.readouterr().err
        assert not (tmp_path / "result.csv").exists()

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

    @pytest.mark.parametrize("dropped, args, message", [
        # Frame 4 is in the detections but not in the ground truth.
        ([4], (), "error: frame 4 not present in ground truth\n"),
        ([], ("--dims", "x"), "error: --dims and --half-ranges take two "
                              "comma-separated values\n"),
        # The flags are read before any input: a missing map comes second.
        ([], ("--map", "missing-map.txt", "--dims", "x"),
         "error: --dims and --half-ranges take two comma-separated values\n"),
    ])
    def test_unusable_request_fails(self, synth_dir, tmp_path, capsys,
                                    monkeypatch, dropped, args, message):
        monkeypatch.chdir(tmp_path)
        truth = parse_ground_truth((synth_dir / "groundtruth.txt").read_text())
        ground_truth = tmp_path / "groundtruth.txt"
        ground_truth.write_text(serialize_ground_truth(
            {k: pose for k, pose in truth.items() if k not in dropped}))
        out = tmp_path / "x.csv"
        assert run_cli("landscape",
                       "--map", synth_dir / "map.txt",
                       "--detections", synth_dir / "detections.txt",
                       "--intrinsics", synth_dir / "intrinsics.txt",
                       "--ground-truth", ground_truth,
                       "--frame", "4", *args, "--out", out) == 1
        assert capsys.readouterr().err == message
        assert not out.exists()


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
