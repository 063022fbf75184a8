"""notetune benchmark: one command, seeded inputs, checked outputs.

    python3 perfbench/run.py --workload correct_short --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --self-check

Run it from the root of a checkout.  The first run builds the model fixture
(see fixture.py) under .bench_build/; later runs reuse it.  Each run
generates its inputs from --seed, measures set-up in fresh processes, runs
the workload in a worker process of its own (worker.py), checks every
output and prints, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones of a
separate traced run.  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("correct_short", "correct_long", "recipe")
# Set-up is the median over this many fresh processes: half of the
# set-up-only ones run before the workload's worker and half after it, so a
# few seconds of host slowdown cannot move the median on its own.
SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 165.0  # after the fixture exists
HERE = Path(__file__).resolve().parent

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "audio_s_per_s": "s/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "workflow.Pipeline.load.s": "s",
    "features.load_audio.s": "s",
    "features.track_pitch.s": "s",
    "features.mel_spectrogram.s": "s",
    "nncore.LocalEncoder.s": "s",
    "segmenter.Segmenter.predict.s": "s",
    "segmenter.detect_notes.s": "s",
    "spp.StationaryPitchPredictor.estimate.s": "s",
    "symbolic.Cnpp.predict.s": "s",
    "corrector.build_plan.s": "s",
    "corrector.shift_audio.s": "s",
    "features.write_wav.s": "s",
    "verify.s": "s",
    "trace.unaccounted_s": "s",
    "frames": "count",
    "nncore.LocalEncoder.score_bytes": "B",
    "notes": "count",
    "clamped_notes": "count",
    "flagged_notes": "count",
    "quality.rpa_percent": "%",
    "quality.median_residual_cents": "cents",
    "quality.p90_residual_cents": "cents",
}


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)


def _run_worker(spec_path: Path, deadline: float, *extra: str) -> float:
    """Run worker.py to completion; returns its set-up seconds (READY)."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path), *extra],
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out")
    ready = [line.split()[1] for line in out.splitlines() if line.startswith("READY ")]
    if proc.returncode != 0 or not ready:
        raise RuntimeError(f"worker failed with exit code {proc.returncode}")
    return float(ready[0])


def make_inputs(workload: str, seed: int, in_dir: Path, tiny: bool) -> dict:
    import fixture as fx

    if workload == "recipe":
        return fx.recipe_inputs(seed, in_dir)
    if workload == "correct_short":
        takes = fx.short_takes(seed, in_dir, count=2 if tiny else 6)
    else:
        takes = fx.long_takes(seed, in_dir, seconds=8.0 if tiny else 60.0)
    return {"takes": takes}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, *,
                 tiny: bool = False, corrupt: bool = False) -> dict:
    """Build inputs, time set-up, run the worker; returns the result object."""
    import fixture as fx

    fixture_dir = fx.ensure_fixture(log=log)
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    run_dir = fx.BUILD_DIR / "runs" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        spec = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "fixture": str(fixture_dir), "run_dir": str(run_dir), "corrupt": corrupt,
            "inputs": make_inputs(workload, seed, run_dir / "inputs", tiny),
            "result": str(run_dir / "result.json"),
        }
        spec_path = run_dir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        half = (SETUP_SAMPLES - 1) // 2
        setup = [_run_worker(spec_path, deadline, "--setup-only") for _ in range(half)]
        setup.append(_run_worker(spec_path, deadline))
        setup += [_run_worker(spec_path, deadline, "--setup-only")
                  for _ in range(SETUP_SAMPLES - 1 - half)]
        result = json.loads((run_dir / "result.json").read_text())
        if trace:
            trace_path = fx.BUILD_DIR / "traces" / f"{workload}-{seed}.json"
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            trace_path.write_text(json.dumps(result.pop("spans")))
            result["trace_file"] = str(trace_path)
        result["setup_s"] = statistics.median(setup)
        return result
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _finite_or_none(value):
    return value if value is not None and math.isfinite(value) else None


def summarize(result: dict, trace: bool) -> dict:
    ops = result["ops"]
    failed = sum(1 for op in ops if op["failures"])
    if trace:
        names, values = PER_LAYER, result["layers"]
    else:
        names, values = END_TO_END, dict(result["metrics"], setup_s=result["setup_s"])
    # A figure that could not be measured (every operation failed) is null:
    # JSON has no NaN.
    metrics = {name: {"value": _finite_or_none(values.get(name)), "unit": unit}
               for name, unit in names.items()}
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}


def report(workload: str, result: dict, summary: dict):
    """Human-readable lines; the JSON summary stays the last line."""
    ops = result["ops"]
    print(f"workload {workload}: {len(ops)} operations, {summary['failed']} failed, "
          f"op seconds {[round(op['seconds'], 3) for op in ops]}")
    for op in ops:
        for failure in op["failures"]:
            print(f"  FAILED {failure.strip()}")
    for name, m in summary["metrics"].items():
        print(f"  {name:42s} {m['value'] if m['value'] is not None else 'n/a':>14} {m['unit']}")
    for name, value in sorted(result.get("extras", {}).items()):
        print(f"  {name:42s} {value:14.6g} (recipe only; not in the JSON)")
    if "trace_file" in result:
        print(f"  spans written to {result['trace_file']}")


def self_check() -> int:
    """Tiny sizes: every workload untraced and traced, plus one deliberately
    corrupted output that must be counted as a failure."""
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_workload(workload, 7, 0.5, trace, tiny=True)
            summary = summarize(result, trace)
            report(workload, result, summary)
            if summary["failed"]:
                problems.append(f"{workload} trace={int(trace)}: {summary['failed']} failed")
        result = run_workload(workload, 7, 0.5, False, tiny=True, corrupt=True)
        if summarize(result, False)["failed"] != 1:
            problems.append(f"{workload}: the corrupted output was not counted as one failure")
    for p in problems:
        print(f"SELF-CHECK PROBLEM {p}")
    print("self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if not (Path("src") / "notetune" / "__init__.py").is_file():
        log("error: run from the root of a notetune checkout (src/notetune not found)")
        return 2
    sys.path.insert(0, "src")
    sys.path.insert(0, str(HERE))
    if args.self_check:
        return self_check()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    summary = summarize(result, bool(args.trace))
    report(args.workload, result, summary)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
