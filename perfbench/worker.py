"""Runs one workload in a process of its own and writes its result as JSON.

Usage (from the root of a checkout; `run.py` does this):

    python3 perfbench/worker.py SPEC.json [--setup-only]

The worker imports notetune from `src/`, makes one warm-up `stage_correct`
call on the fixture's tiny take and prints READY with the seconds this took,
counted from its first statement.  It then runs the workload as a closed
loop from one client: each operation starts when the previous one has
returned.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, "src")

import numpy as np  # noqa: E402

import fixture as fx  # noqa: E402
import spans  # noqa: E402
from notetune import evalkit as ek  # noqa: E402
from notetune import features as ft  # noqa: E402
from notetune import workflow as wf  # noqa: E402

# The segmenter step split: spans directly inside the trainer's stage.
STEP_SPLIT = {
    "nncore.forward.s": "segmenter.Segmenter.forward_batch",
    "nncore.loss.s": "nncore.focal_loss",
    "nncore.backward.s": "nncore.Tensor.backward",
    "nncore.AdamW.step.s": "nncore.AdamW.step",
}


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _tsv_column(path, col: int) -> list[float]:
    return [float(line.split("\t")[col]) for line in Path(path).read_text().splitlines()[1:]]


def corrupt_output(path):
    """Drop the second half of a written WAV (self-check only)."""
    wav = ft.load_audio(path)
    ft.write_wav(path, wav[: len(wav) // 2])


# ---- correctness checks -----------------------------------------------------------

def check_correct(take: dict, result: dict, plan_hashes: dict) -> list[str]:
    """Failures of one `stage_correct` output; an empty list means correct."""
    fails = []
    out = Path(result["audio"])
    if not out.exists():
        return [f"{take['name']}: no output WAV"]
    wav = ft.load_audio(out)
    if len(wav) != take["samples"]:
        fails.append(f"{take['name']}: output has {len(wav)} samples, input {take['samples']}")
    if not np.isfinite(wav).all():
        fails.append(f"{take['name']}: non-finite output samples")
    n_rows = len(Path(result["plan"]).read_text().splitlines()) - 1
    if result["n_notes"] <= 0 or n_rows != result["n_notes"]:
        fails.append(f"{take['name']}: plan has {n_rows} rows for {result['n_notes']} notes")
    residuals = _tsv_column(result["residuals"], 3)
    if not all(math.isfinite(r) for r in residuals):
        fails.append(f"{take['name']}: non-finite residual")
    digest = _sha256(result["plan"])
    if plan_hashes.setdefault(take["name"], digest) != digest:
        fails.append(f"{take['name']}: plan differs from an earlier repeat of the same take")
    return fails


def correct_op(cfg, ckpt_dir, take: dict, out_dir: Path, plan_hashes: dict, corrupt=False) -> dict:
    out = out_dir / f"{take['name']}.wav"
    t0 = time.perf_counter()
    try:
        result = wf.stage_correct(cfg, take["wav"], out, ckpt_dir, annotations=take["annotations"])
    except Exception:
        return {"seconds": time.perf_counter() - t0, "audio_s": take["seconds"],
                "failures": [f"{take['name']}: {traceback.format_exc(limit=3)}"]}
    seconds = time.perf_counter() - t0
    if corrupt:
        corrupt_output(out)
    return {"seconds": seconds, "audio_s": take["seconds"], "audio": str(out),
            "plan": str(result["plan"]), "residuals": str(result["residuals"]),
            "failures": check_correct(take, result, plan_hashes)}


def recipe_op(cfg, inputs: dict, pass_dir: Path, plan_hashes: dict, tracer=None, corrupt=False) -> dict:
    """One pass of the fixed recipe: extract, four trainers, then correct a
    take with the freshly trained checkpoints (replayed when traced)."""
    shutil.rmtree(pass_dir, ignore_errors=True)
    data, ckpt = pass_dir / "data", pass_dir / "checkpoints"
    shutil.copytree(inputs["data"], data)
    take = inputs["take"]
    audio_s = inputs["corpus_seconds"] + take["seconds"]
    t0 = time.perf_counter()
    try:
        wf.stage_extract(cfg, data, jobs=fx.RECIPE_JOBS)
        losses = {
            "segmenter": wf.stage_train_segmenter(cfg, data, ckpt)["loss"],
            "spp": wf.stage_train_spp(cfg, data, ckpt)["loss"],
            "detuner": wf.stage_train_detuner(cfg, data, ckpt)["losses"],
            "cnpp": wf.stage_train_cnpp(cfg, data, ckpt, variant="full")["losses"],
        }
        out = pass_dir / f"{take['name']}.wav"
        if tracer is None:
            result = wf.stage_correct(cfg, take["wav"], out, ckpt, annotations=take["annotations"])
        else:
            replayed = spans.replay_correct(tracer, cfg, take["wav"], out, ckpt, take["annotations"])
    except Exception:
        return {"seconds": time.perf_counter() - t0, "audio_s": audio_s,
                "failures": [f"recipe: {traceback.format_exc(limit=3)}"]}
    seconds = time.perf_counter() - t0
    fails = [f"recipe: non-finite {name} loss" for name, vals in losses.items()
             if not all(math.isfinite(v) for v in vals)]
    for load in (wf.load_segmenter, wf.load_spp, wf.load_detuner, wf.load_cnpp):
        try:
            load(ckpt, cfg)
        except Exception as exc:
            fails.append(f"recipe: {load.__name__} failed: {exc!r}")
    op = {"seconds": seconds, "audio_s": audio_s, "failures": fails}
    if tracer is None:
        if corrupt:
            corrupt_output(out)
        fails += check_correct(take, result, plan_hashes)
        op.update(audio=str(out), plan=str(result["plan"]), residuals=str(result["residuals"]))
    else:
        op.update(audio=str(out), replayed=replayed)
    return op


# ---- workloads --------------------------------------------------------------------------

def run_untraced(spec: dict, cfg: dict, ckpt_dir: Path, run_dir: Path) -> dict:
    """Whole cycles (every take once, or one recipe pass) until the run's
    seconds have passed.  With `corrupt`, the very first output is damaged."""
    hashes: dict = {}
    rcfg = fx.recipe_config(spec["seed"])
    ops: list[dict] = []
    deadline = time.perf_counter() + spec["seconds"]
    while not ops or time.perf_counter() < deadline:
        corrupt = spec["corrupt"] and not ops
        if spec["workload"] == "recipe":
            ops.append(recipe_op(rcfg, spec["inputs"], run_dir / "pass", hashes, corrupt=corrupt))
        else:
            for i, take in enumerate(spec["inputs"]["takes"]):
                ops.append(correct_op(cfg, ckpt_dir, take, run_dir / "out", hashes,
                                      corrupt=corrupt and i == 0))
    op_s = [op["seconds"] for op in ops]
    return {
        "ops": [_op_record(op) for op in ops],
        "metrics": {
            "op_s_p50": float(np.median(op_s)),
            "audio_s_per_s": sum(op["audio_s"] for op in ops) / sum(op_s),
            "peak_rss_mb": peak_rss_mb(),
        },
    }


def _traced_correct(cfg, ckpt_dir, take: dict, run_dir: Path, hashes: dict):
    op = correct_op(cfg, ckpt_dir, take, run_dir / "out", hashes)
    tracer = spans.Tracer()
    out = run_dir / "traced" / f"{take['name']}.wav"
    replayed = None
    t0 = time.perf_counter()
    with tracer.instrument():
        try:
            replayed = spans.replay_correct(tracer, cfg, take["wav"], out, ckpt_dir,
                                            take["annotations"])
        except Exception:
            op["failures"].append(f"{take['name']}: replay {traceback.format_exc(limit=3)}")
    return op, tracer, replayed, out, time.perf_counter() - t0


def _traced_recipe(rcfg, inputs: dict, run_dir: Path, hashes: dict):
    op = recipe_op(rcfg, inputs, run_dir / "pass", hashes)
    tracer = spans.Tracer()
    with tracer.instrument():
        traced = recipe_op(rcfg, inputs, run_dir / "traced", hashes, tracer=tracer)
    op["failures"] += traced["failures"]
    return op, tracer, traced.get("replayed"), traced.get("audio"), traced["seconds"]


def check_replay(take: dict, op: dict, replayed: dict, traced_wav) -> list[str]:
    """Failures where the traced replay's outputs differ from the untraced
    call's: plan bytes, output WAV bytes, or the `verify_plan` rows as
    `stage_correct` writes them to `.residuals.tsv`."""
    traced_wav = Path(traced_wav)
    fails = []
    if _sha256(op["plan"]) != _sha256(traced_wav.with_suffix(".plan.tsv")):
        fails.append(f"{take['name']}: traced replay wrote a different plan")
    if _sha256(op["audio"]) != _sha256(traced_wav):
        fails.append(f"{take['name']}: traced replay wrote a different output WAV")
    rows = [f"{r['note']}\t{r['target']:.4f}\t{r['corrected_pitch']:.4f}\t{r['residual_cents']:.2f}"
            for r in replayed["rows"]]
    if rows != Path(op["residuals"]).read_text().splitlines()[1:]:
        fails.append(f"{take['name']}: traced replay verified different residuals")
    return fails


def run_traced(spec: dict, cfg: dict, ckpt_dir: Path, run_dir: Path) -> dict:
    """Each operation once untraced and once traced; the traced one must
    write the same plan, output and residuals.  Layer figures are means per
    operation; `trace.unaccounted_s` is the traced wall time outside any
    outermost span (glue plus span bookkeeping)."""
    hashes: dict = {}
    if spec["workload"] == "recipe":
        rcfg = fx.recipe_config(spec["seed"])
        take = spec["inputs"]["take"]
        runs = [(take, _traced_recipe(rcfg, spec["inputs"], run_dir, hashes))]
    else:
        runs = [(take, _traced_correct(cfg, ckpt_dir, take, run_dir, hashes))
                for take in spec["inputs"]["takes"]]
    sums: dict = defaultdict(float)
    residuals, summaries, unaccounted, dumps = [], [], [], []
    for take, (op, tracer, replayed, traced_wav, traced_s) in runs:
        if replayed is not None:
            if "plan" in op:
                op["failures"] += check_replay(take, op, replayed, traced_wav)
            summaries.append(spans.plan_summary(replayed, take["annotations"]))
        if "residuals" in op:
            residuals += _tsv_column(op["residuals"], 3)
        unaccounted.append(traced_s - tracer.top_level_seconds())
        for name, value in tracer.totals().items():
            sums[f"{name}.s"] += value
        for name, value in tracer.counts.items():
            sums[name] += value
        dumps.append(tracer.dump())
    n = len(runs)
    layers = {name: value / n for name, value in sums.items()}
    layers["trace.unaccounted_s"] = float(np.mean(unaccounted))
    for key in ("notes", "clamped_notes", "flagged_notes"):
        layers[key] = sum(s[key] for s in summaries) / n
    layers["quality.rpa_percent"] = ek.pooled_rpa([s["rpa"] for s in summaries])["rpa_percent"]
    layers["quality.median_residual_cents"] = float(np.median(residuals)) if residuals else math.nan
    layers["quality.p90_residual_cents"] = (
        float(np.percentile(residuals, 90)) if residuals else math.nan)
    extras = {}
    if spec["workload"] == "recipe":
        extras = recipe_extras(rcfg, runs[0][1][1], layers, run_dir)
    return {"ops": [_op_record(op) for _take, (op, *_rest) in runs],
            "layers": layers, "extras": extras, "spans": dumps}


def recipe_extras(rcfg: dict, tracer, layers: dict, run_dir: Path) -> dict:
    """Figures that exist only on the recipe: seconds per step of each
    trainer, the segmenter step split (mean seconds per step of the spans
    directly inside `stage_train_segmenter`), seconds per
    `detuner.generate_errors` call and extract throughput."""
    steps = {
        "segmenter": rcfg["segmenter"]["train"]["steps"],
        "spp": rcfg["spp"]["train"]["steps"],
        "detuner": rcfg["detuner"]["steps"],
        "cnpp": rcfg["cnpp"]["pretrain"]["steps"] + rcfg["cnpp"]["finetune"]["steps"],
    }
    extras = {f"workflow.stage_train_{model}.s_per_step":
              layers.get(f"workflow.stage_train_{model}.s", math.nan) / n_steps
              for model, n_steps in steps.items()}
    for key, span in STEP_SPLIT.items():
        inside = tracer.durations(span, parent="workflow.stage_train_segmenter")
        extras[key] = sum(inside) / steps["segmenter"]
    rollouts = tracer.durations("detuner.generate_errors")
    extras["detuner.generate_errors.s"] = float(np.mean(rollouts)) if rollouts else math.nan
    n_songs = len(wf.load_dataset(run_dir / "pass" / "data")["samples"])
    extras["extract_songs_per_s"] = n_songs / layers["workflow.stage_extract.s"]
    return extras


def peak_rss_mb() -> float:
    """High-water RSS of this process image.  `ru_maxrss` is not used: Linux
    carries it over from the parent across fork and exec, so it would report
    the parent's size whenever that is larger."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")


def _op_record(op: dict) -> dict:
    return {k: op[k] for k in ("seconds", "audio_s", "failures")}


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    logging.basicConfig(level=logging.ERROR)
    run_dir = Path(spec["run_dir"]) / f"worker-{'setup' if '--setup-only' in argv else 'main'}"
    shutil.rmtree(run_dir, ignore_errors=True)
    fixture_dir = Path(spec["fixture"])
    ckpt_dir = fixture_dir / "checkpoints"
    cfg = fx.fixture_config()
    warm = fixture_dir / "warmup"
    wf.stage_correct(cfg, warm / "warmup.wav", run_dir / "warmup_out.wav", ckpt_dir,
                     annotations=warm / "warmup.json")
    print(f"READY {time.perf_counter() - STARTED!r}", flush=True)
    if "--setup-only" in argv:
        return 0
    runner = run_traced if spec["trace"] else run_untraced
    result = runner(spec, cfg, ckpt_dir, run_dir)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
