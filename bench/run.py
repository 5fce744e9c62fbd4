"""semloc benchmark: per-frame latency, set-up time and accuracy.

    python3 bench/run.py --workload det-nominal --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --selfcheck
    python3 bench/run.py --stress [--out FILE]

A workload run synthesizes its worlds from ``--seed`` in a child process,
sets up, makes one warm-up pass and then whole timed passes for
``--seconds``, repeating set-up between them. With ``--trace 1`` it adds
one traced pass and reports per-layer metrics. It prints a readable report
and, as the last line of standard output, one JSON object: {"correct",
"attempted", "failed", "metrics"}. See README.md.
"""

import os

# One single-threaded process: pin the BLAS/OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"   # generated inputs, removed after each run
OUT = ROOT / ".bench_out"     # spans and stress results, kept

END_TO_END = {
    "setup_s": "s",
    "frame_ms_p50": "ms",
    "frame_ms_p90": "ms",
    "frames_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def load_semloc() -> bool:
    """Import semloc from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "semloc"
    if not (package / "__init__.py").is_file():
        print(f"error: semloc sources not found at {package}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import semloc
    if Path(semloc.__file__).resolve().parent != package.resolve():
        print(f"error: imported semloc from {semloc.__file__}, not {package}",
              file=sys.stderr)
        return False
    return True


def environment() -> str:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    pins = ", ".join(f"{v}={os.environ[v]}" for v in
                     ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"))
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, cpu {cpu}, nproc {os.cpu_count()}, "
            f"{pins}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _finite(value: float) -> float:
    return value if math.isfinite(value) else 0.0


def _median_or_0(values: list) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale=None, say=print) -> dict:
    """One benchmark run. Returns the result object plus ``hashes`` (world
    seed -> SHA-256 of its output) for callers that compare runs.

    The benchmark modules import semloc, so they load only after
    ``load_semloc`` has put this checkout's ``src/`` on the path."""
    import numpy as np
    import layers
    import workloads as wl
    from tracing import Tracer
    from worlds import FULL, SetupTimes, set_up, synthesize_in_child

    scale = scale or FULL
    workdir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        worlds, synth = synthesize_in_child(workload, seed, scale, workdir, SRC)
        setup = SetupTimes()
        parsed = set_up(workload, worlds, setup, SRC)

        def set_up_again():
            if len(setup.total_s) < scale.setup_reps:
                set_up(workload, worlds, setup, SRC)

        # Set-up repeats before each timed pass and after the last, so its
        # median is taken over the same span as the frames'.
        timed = wl.measure(workload, parsed, scale, seconds, set_up_again)
        while len(setup.total_s) < scale.setup_reps:
            set_up_again()
        # Read before the checks, which synthesize noiseless frames.
        rss_mb = peak_rss_mb()
        tracer = traced = None
        if trace:
            tracer = Tracer()
            with tracer:
                traced = wl.run_pass(workload, parsed, scale, tracer)
            # The untraced passes on either side of the traced one are the
            # base of the tracing overhead.
            untraced_around = [timed.passes[-1],
                               wl.run_pass(workload, parsed, scale)]
        checks = wl.check_outputs(workload, parsed, timed, traced, scale.grid_n)
        acc = wl.accuracy(workload, parsed, timed.reference)
        rj_us = layers.residual_and_jacobian_us(parsed[0]) if trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = sum(m.size for m in timed.world_medians())
    n_frames = sum(w.n_frames for w in worlds)
    end_to_end = {
        "setup_s": statistics.median(setup.total_s),
        "frame_ms_p50": timed.across_worlds(np.median),
        "frame_ms_p90": timed.across_worlds(lambda m: np.percentile(m, 90)),
        # The gaps tile a pass, so a world's summed medians are the wall
        # time of one pass over it with every frame at its median.
        "frames_per_s": timed.across_worlds(lambda m: m.size / m.sum() * 1e3),
        "peak_rss_mb": rss_mb,
    }
    what = "surfaces" if workload == "landscape" else "frames"
    say(f"semloc benchmark: workload {workload}, seed {seed}, "
        f"{seconds:g} s, trace {int(trace)}")
    say(f"environment: {environment()}; one process, single-threaded")
    say(f"worlds: seeds {[w.seed for w in worlds]}, {n_frames} frames "
        f"({worlds[0].config.corridor_length_m:g} m corridors)")
    if workload == "masks":
        say("note: mask files (about 1.5 MB per frame) are written during "
            "set-up and read back from the page cache, not from disk")
    say(f"passes: 1 warm-up + {len(timed.passes)} timed, alternating with "
        f"set-ups, in {timed.seconds:.2f} s")
    say("end-to-end:")
    notes = {
        "setup_s": f"median of {len(setup.total_s)} set-ups: cold import "
                   f"of semloc.cli + parsing inputs",
        "frame_ms_p50": f"median over {len(worlds)} worlds; n={samples} "
                        f"{what}, each its median over {len(timed.passes)} "
                        f"passes",
        "frame_ms_p90": f"median over {len(worlds)} worlds; n={samples} {what}",
        "frames_per_s": f"median over {len(worlds)} worlds of {what} / "
                        f"their summed latencies",
        "peak_rss_mb": "peak resident set of this process after the timed "
                       "passes (synthesis runs in a child)",
    }
    for name, unit in END_TO_END.items():
        say(f"  {name:<16} {end_to_end[name]:12.4f} {unit:<5} {notes[name]}")
    scope = ("lowest surface cell vs truth" if workload == "landscape"
             else "all frames of all worlds")
    say(f"accuracy ({scope}): rms_position_m {acc.rms_position_m:.4f} m, max_position_m "
        f"{acc.max_position_m:.3f} m, frac_within_0.5m "
        f"{acc.frac_within_half_m:.4f}, coast_frac {acc.coast_frac:.4f}")
    if acc.diverged:
        say(f"known failure, not gated: worlds {acc.diverged} diverge "
            f"(max error > {wl.DIVERGED_M:g} m); pipeline.diverged_worlds = "
            f"{len(acc.diverged)}")
    failed_frac = timed.failed / timed.attempted
    say(f"failed_frac {failed_frac:.4f} ({timed.failed} of {timed.attempted} "
        f"{what} attempted in timed passes)")
    say("checks:")
    for name, ok, detail in checks:
        say(f"  [{'ok' if ok else 'FAIL'}] {name}{' - ' + detail if detail else ''}")
    for w, wp in zip(worlds, timed.reference):
        say(f"  sha256 world {w.seed}: {wl.sha256(wp.output)}")
    # What callers compare across runs: the traced pass's outputs when
    # there is one, else the untraced ones (equal when the checks pass).
    hashes = {w.seed: wl.sha256(wp.output)
              for w, wp in zip(worlds, traced or timed.reference)}

    correct = all(ok for _, ok, _ in checks)
    if trace:
        known = {
            "cli.import_s": statistics.median(setup.import_s),
            "mapmodel.parse_map_ms": statistics.median(setup.parse_map_ms),
            "pipeline.coast_frac": acc.coast_frac,
            "pipeline.diverged_worlds": len(acc.diverged),
            "rms_position_m": acc.rms_position_m,
            "max_position_m": acc.max_position_m,
            "frac_within_0.5m": acc.frac_within_half_m,
            "failed_frac": failed_frac,
            "frame_samples": samples,
            "residual.rj_us": rj_us,
            "synthworld.generate_s": statistics.median(synth.generate_s),
            "synthworld.render_detections_ms":
                statistics.median(synth.render_detections_ms),
            # 0 where the workload has no detection files or no masks.
            "pipeline.parse_detections_ms":
                _median_or_0(setup.parse_detections_ms),
            "synthworld.render_masks_ms": _median_or_0(synth.render_masks_ms),
        }
        per_layer = report_layers(workload, seed, tracer, traced,
                                  untraced_around, known, say)
        metrics = {name: {"value": _finite(float(per_layer[name])), "unit": unit}
                   for name, unit in layers.PER_LAYER.items()}
    else:
        metrics = {name: {"value": _finite(end_to_end[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    correct = correct and all(math.isfinite(v) for v in end_to_end.values())
    return {"correct": bool(correct), "attempted": timed.attempted,
            "failed": timed.failed, "metrics": metrics, "hashes": hashes}


def report_layers(workload: str, seed: int, tracer, traced: list,
                  untraced_around: list, known: dict, say) -> dict:
    """Per-layer metrics, self times and tracing overhead of a traced pass;
    writes the spans under .bench_out/."""
    import layers
    import workloads as wl

    localized = sum(wp.result.count(wl.FrameStatus.LOCALIZED)
                    for wp in traced if wp.result is not None)
    frames = sum(wp.attempted for wp in traced)
    traced_p50 = wl.pass_p50(traced)
    untraced_p50 = statistics.mean(wl.pass_p50(p) for p in untraced_around)
    known = dict(known, **{"trace.overhead_ms": traced_p50 - untraced_p50})
    per_layer = layers.layer_metrics(tracer, frames, localized, known)
    say("per-layer (traced pass; 0 where this workload does not reach "
        "the layer):")
    for name, unit in layers.PER_LAYER.items():
        say(f"  {name:<34} {per_layer[name]:14.4f} {unit}")
    retry = layers.retry_summary(tracer, frames)
    say(f"hypothesis loop: at most {retry['hypotheses_max']} hypotheses in a "
        f"frame; {100 * retry['retry_frac']:.1f} % of frames tried more than "
        f"one and took {100 * retry['retry_time_frac']:.1f} % of frame time; "
        f"longest LM solve {retry['iterations_max']} iterations")
    traffic_s = sum(wp.wall_s for wp in traced)
    say(f"self time per layer, {workload} traffic "
        f"({traffic_s * 1e3:.1f} ms traced pass):")
    for layer, secs in layers.self_time_table(tracer):
        say(f"  {layer:<12} {secs * 1e3:10.2f} ms  "
            f"{100.0 * secs / traffic_s:5.1f} %")
    say(f"tracing overhead: traced pass frame p50 {traced_p50:.4f} ms - "
        f"mean of the untraced passes before and after {untraced_p50:.4f}"
        f" ms = {known['trace.overhead_ms']:.4f} ms")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl.gz"
    tracer.write_spans(spans_path)
    say(f"spans: {len(tracer.spans)} written to "
        f"{spans_path.relative_to(ROOT)}")
    return per_layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="run every workload at a tiny size and check "
                             "the metrics and outputs")
    parser.add_argument("--stress", action="store_true",
                        help="run the robustness stress matrix")
    parser.add_argument("--out", help="stress matrix result file")
    args = parser.parse_args(argv)
    if not load_semloc():
        return 2

    if args.selfcheck:
        from selfcheck import selfcheck
        return selfcheck(run_workload, END_TO_END)
    if args.stress:
        from stress import run_stress
        return run_stress(Path(args.out) if args.out else OUT / "stress.json",
                          BENCH_DIR / "stress_baseline.json")
    from worlds import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {WORKLOADS}")
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    result.pop("hashes")
    sys.stdout.flush()
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
