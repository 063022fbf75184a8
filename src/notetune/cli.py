"""Command-line interface: stage routing for the correction pipeline.

Stages write checkpoints and reports into --checkpoint-dir and read the
dataset produced by synth-data/extract from --data-dir.  Configuration
comes from defaults, then --config FILE, then --set key.path=value
overrides (flags win).  A key the defaults do not have, from the file or
from --set, is rejected with exit status 2; only corpus.eval_sets may name
new sets, each with exactly n_songs and detune.  NOTETUNE_CACHE_DIR, when
set, caches feature tracks extracted by `correct` (the only environment
variable consulted); a cached track is keyed on the SHA-256 of the decoded
waveform plus audio.sample_rate, hop, win, n_mels and the feature-track
format version.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import workflow as wf
from .config import load_config
from .evalkit import format_ablation_table
from .features import AudioIOError

log = logging.getLogger("notetune")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file merged over defaults")
    p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY.PATH=VALUE",
        help="override a config value (repeatable), e.g. --set seed=7",
    )
    p.add_argument("--seed", type=int, help="shorthand for --set seed=N")
    p.add_argument("-q", "--quiet", action="store_true", help="warnings only")
    p.add_argument("--debug", action="store_true", help="debug logging incl. per-note traces")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="notetune",
        description="Reference-free note-level pitch correction for monophonic singing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="render the synthetic corpus and eval sets")
    p.add_argument("--data-dir", required=True)
    _add_common(p)

    p = sub.add_parser("extract", help="extract features, score errors, assign splits")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--jobs", type=int, default=1, help="parallel workers over files")
    _add_common(p)

    for name, helptext in [
        ("train-segmenter", "train the note boundary detector"),
        ("train-spp", "train the stationary pitch predictor (in-tune subset)"),
        ("train-detuner", "train the pitch-error model (high-error subset)"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--data-dir", required=True)
        p.add_argument("--checkpoint-dir", required=True)
        _add_common(p)

    p = sub.add_parser("train-cnpp", help="pretrain + fine-tune the note pitch predictor")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--checkpoint-dir", required=True)
    p.add_argument("--variant", default="full", choices=wf.CNPP_VARIANTS)
    _add_common(p)

    p = sub.add_parser("correct", help="pitch-correct one recording end to end")
    p.add_argument("input", help="input WAV")
    p.add_argument("output", help="output WAV")
    p.add_argument("--checkpoint-dir", required=True)
    p.add_argument("--annotations", help="JSON or MIDI annotations for the beat grid")
    p.add_argument("--dry-run", action="store_true", help="emit the plan without audio")
    p.add_argument("--variant", default="full", choices=list(wf.CNPP_VARIANTS) + ["no_cnpp"])
    _add_common(p)

    p = sub.add_parser("evaluate", help="frame-level pitch accuracy on a split")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--checkpoint-dir", required=True)
    p.add_argument("--split", required=True)
    p.add_argument(
        "--variant",
        action="append",
        dest="variants",
        choices=list(wf.CNPP_VARIANTS) + ["no_cnpp"],
        help="variant(s) to evaluate (repeatable; default: full)",
    )
    _add_common(p)

    p = sub.add_parser("ablate", help="compare full model against ablated variants")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--checkpoint-dir", required=True)
    p.add_argument("--splits", nargs="+", default=["moderate_eval", "high_eval"])
    _add_common(p)

    return parser


def _setup(args) -> dict:
    level = logging.WARNING if args.quiet else (logging.DEBUG if args.debug else logging.INFO)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    return load_config(args.config, overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _setup(args)
        if args.command == "synth-data":
            wf.stage_synth_data(cfg, args.data_dir)
        elif args.command == "extract":
            wf.stage_extract(cfg, args.data_dir, jobs=args.jobs)
        elif args.command == "train-segmenter":
            wf.stage_train_segmenter(cfg, args.data_dir, args.checkpoint_dir)
        elif args.command == "train-spp":
            wf.stage_train_spp(cfg, args.data_dir, args.checkpoint_dir)
        elif args.command == "train-detuner":
            wf.stage_train_detuner(cfg, args.data_dir, args.checkpoint_dir)
        elif args.command == "train-cnpp":
            wf.stage_train_cnpp(cfg, args.data_dir, args.checkpoint_dir, variant=args.variant)
        elif args.command == "correct":
            cache_dir = os.environ.get("NOTETUNE_CACHE_DIR")
            result = wf.stage_correct(
                cfg,
                args.input,
                args.output,
                args.checkpoint_dir,
                annotations=args.annotations,
                dry_run=args.dry_run,
                variant=args.variant,
                cache_dir=cache_dir,
            )
            print(json.dumps({k: str(v) for k, v in result.items()}, sort_keys=True, indent=1))
        elif args.command == "evaluate":
            variants = tuple(args.variants) if args.variants else ("full",)
            results = wf.stage_evaluate(
                cfg, args.data_dir, args.checkpoint_dir, args.split, variants=variants
            )
            for v in variants:
                pooled = results[v]["pooled"]
                print(f"{args.split} {v}: RPA {pooled['rpa_percent']:.2f}% over {pooled['n_frames']} frames")
        elif args.command == "ablate":
            table = wf.stage_ablate(cfg, args.data_dir, args.checkpoint_dir, splits=tuple(args.splits))
            print(format_ablation_table(table, list(args.splits)))
    # MissingCheckpointError is a FileNotFoundError, AnnotationError a ValueError
    except (wf.StageOrderError, AudioIOError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
