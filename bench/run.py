"""Benchmark of ``sensorcal calibrate`` with the joint estimator.

Usage, from the root of a checkout:

    python3 bench/run.py --workload small-joint --seed 0 --seconds 10 --trace 0

One run generates the workload's frames (``setup_s``, the median of
several set-ups), then runs whole ``calibrate`` commands in this one
process until ``--seconds`` have passed, and checks every calibration's
outputs with ``checks.py``.  Timings start after the imports, so
interpreter start-up is in none of them.  The last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` count
calibrations, and ``metrics`` holds the end-to-end metrics, or with
``--trace 1`` the per-layer metrics of ``tracing.py``.  A traced run alternates
untraced and traced calibrations, so ``trace.overhead_s`` compares the two.

Every input of a workload is fixed (scene, perturbation and estimator seeds
below): ``cost_evals`` and the error metrics are then exact regression
checks.  ``--seed`` is accepted and echoed, and changes nothing.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: the benchmark measures one
# single-worker calibration process, and a shared host has two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH))
from checks import Box, check_run, median_errors  # noqa: E402


@dataclass(frozen=True)
class Workload:
    gen_scene: tuple[str, ...]
    calibrate: tuple[str, ...]
    frames: int
    box: Box  # the scenario's first-stage box, as documented by the CLI
    setups: int  # set-ups per run; setup_s is their median


SMALL_BOX = Box(max_rotation_deg=1.0, max_translation_m=0.2)
REFINE_BOX = Box(max_rotation_deg=20.0, max_translation_m=1.0)

WORKLOADS = {
    # Three +-1 deg / +-20 cm calibrations of one default frame: per-call
    # overhead and the 18-D loop-closure polish dominate.
    "small-joint": Workload(
        gen_scene=("--seed", "7"),
        calibrate=("--scenario", "small", "--runs", "3", "--seed", "0"),
        frames=1,
        box=SMALL_BOX,
        setups=5,
    ),
    # Four stages from +-20 deg / +-1 m: the only workload with the rotation
    # screen, and it re-perturbs the frame between stages.
    "refine-joint": Workload(
        gen_scene=("--seed", "7"),
        calibrate=("--scenario", "refine", "--runs", "1", "--seed", "0"),
        frames=1,
        box=REFINE_BOX,
        setups=5,
    ),
    # Four rigidly linked dense frames estimated together: per-point
    # projection and the nearest-wins reduction dominate.
    "rigid-dense": Workload(
        gen_scene=("--seed", "7", "--frames", "4", "--lidar-density", "16000"),
        calibrate=(
            "--scenario", "rigid-small", "--multiframe", "4", "--runs", "1", "--seed", "0",
        ),
        frames=4,
        box=SMALL_BOX,
        setups=3,
    ),
}


class CostCounter:
    """Counts calls to sensorcal.estimate.alignment_cost while installed."""

    def __init__(self, estimate_module) -> None:
        self.calls = 0
        self._module = estimate_module
        self._fn = estimate_module.alignment_cost

        def counted(*args, **kwargs):
            self.calls += 1
            return self._fn(*args, **kwargs)

        estimate_module.alignment_cost = counted

    def uninstall(self) -> None:
        self._module.alignment_cost = self._fn


def run_quiet(cli, argv: list[str]) -> int:
    """Exit code of one in-process CLI command, its printed output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def setup(cli, workload: Workload, frames_dir: Path) -> float:
    shutil.rmtree(frames_dir, ignore_errors=True)
    t0 = time.perf_counter()
    code = run_quiet(cli, ["gen-scene", "--out", str(frames_dir), *workload.gen_scene])
    seconds = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"gen-scene exited with {code}")
    return seconds


def calibrate(cli, workload: Workload, frames_dir: Path, out_dir: Path) -> tuple[float, list[str]]:
    """Wall seconds of one calibrate command and the reasons it failed, if any."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [
        "calibrate", "--frames", str(frames_dir), "--out", str(out_dir),
        "--estimator", "joint", "--jobs", "1", *workload.calibrate,
    ]
    t0 = time.perf_counter()
    try:
        code = run_quiet(cli, argv)
    except Exception:  # a raising calibration is a failed one; the run goes on
        return time.perf_counter() - t0, ["calibrate raised:\n" + traceback.format_exc()]
    seconds = time.perf_counter() - t0
    if code != 0:
        return seconds, [f"calibrate exited with {code}"]
    try:
        return seconds, check_run(out_dir, frames_dir, workload.frames, workload.box)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return seconds, [f"calibrate outputs are missing or malformed: {exc!r}"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sensorcal" / "__init__.py").is_file():
        print(f"error: no sensorcal sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sensorcal.cli as cli
    import sensorcal.estimate as estimate
    from tracing import Tracer

    workload = WORKLOADS[args.workload]
    work = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    frames_dir, out_dir = work / "frames", work / "out"
    tracer = Tracer() if args.trace else None
    counter = CostCounter(estimate)
    try:
        if tracer:
            tracer.install()
        setup_times = [setup(cli, workload, frames_dir) for _ in range(workload.setups)]
        print("set-up:", ", ".join(f"{t:.3f} s" for t in setup_times), file=sys.stderr)
        if tracer:
            tracer.uninstall()

        times = {False: [], True: []}  # keyed by "traced"
        evals: list[int] = []
        failed = 0
        errors: dict[str, float] = {}
        start = time.perf_counter()
        while True:
            traced = bool(tracer) and len(times[False]) > len(times[True])
            if traced:
                tracer.install()
            counter.calls = 0
            seconds, problems = calibrate(cli, workload, frames_dir, out_dir)
            if traced:
                tracer.uninstall()
            verdict = "failed" if problems else "ok"
            print(f"calibration {len(evals) + 1}{' traced' if traced else ''}: "
                  f"{seconds:.3f} s, {counter.calls} cost calls, {verdict}",
                  *problems, sep="\n  ", file=sys.stderr)
            failed += bool(problems)
            with contextlib.suppress(OSError, ValueError, IndexError):  # raised or no outputs
                errors = median_errors(out_dir)
            times[traced].append(seconds)
            evals.append(counter.calls)
            pairs_done = not tracer or len(times[True]) == len(times[False])
            if time.perf_counter() - start >= args.seconds and pairs_done:
                break
    finally:
        counter.uninstall()
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's directory
            work.parent.rmdir()

    attempted = len(evals)
    if tracer:
        traced_runs = len(times[True])
        layers = tracer.metrics(traced_runs, workload.setups)
        calibrate_s = sum(times[True]) / traced_runs
        outside = calibrate_s - layers["dataio.load_frame.s"][0] - layers["pipeline.refine.s"][0]
        layers["cli.report.s"] = (outside, "s")
        overhead = statistics.median(times[True]) - statistics.median(times[False])
        layers["trace.overhead_s"] = (overhead, "s")
        metrics = layers
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "calibrate_s": (statistics.median(times[False]), "s"),
            "cost_evals": (statistics.median(evals), "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        for name, value in errors.items():
            metrics[name] = (value, "deg" if name.endswith("rot_deg") else "cm")

    width = max(len(name) for name in metrics)
    print(f"workload {args.workload} (seed {args.seed} unused): "
          f"{attempted} calibrations, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
