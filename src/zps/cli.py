"""Command-line entry point.

Wires catalogs, example files, backends and caches into reproducible batch
runs. Every artifact embeds the resolved run configuration (secrets reduced
to a presence flag), content hashes of the input files, and the seed, and is
written via a temp file plus atomic rename so failed runs leave no partial
output behind.

Exit codes: 0 success, 1 bad input (including an unreadable or malformed
input file) and any other OSError, such as an unusable --cache or --out
path, a full disk or a closed stdout; 2 backend or cache trouble; 3 internal
error. Auth tokens are read from the ZPS_API_TOKEN environment variable
only, never from flags.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys

from .backends import RemoteBackend, ScorerBackend, SyntheticBackend, derived_profile
from .cache import ScoreCache
from .catalog import (canon_label, check_fields, gold_label_map, json_text, load_catalog,
                      load_examples, read_json, read_text, write_text)
from .errors import BackendError, CacheCorruptionError, ValidationError
from .evalsim import (
    compare_strategies,
    default_robustness_spec,
    evaluate,
    format_robustness_table,
    format_strategy_table,
    load_robustness_spec,
    simulate_robustness,
)
from .fewshot import (
    best_checkpoint,
    build_pseudo_val,
    checkpoint_agreements,
    load_checkpoint_predictions,
    load_pseudo_labeled,
)
from .scoring import NORMALIZE_MODES, predict, score_all
from .selection import STRATEGIES, EnsembleConfig, select

TOKEN_ENV = "ZPS_API_TOKEN"


# Options whose input file is content-hashed into the config block.
_HASHED_INPUTS = ("catalog", "examples", "synthetic_profile", "spec", "checkpoints",
                  "pseudo_val")


def _run_config(args: argparse.Namespace) -> tuple[dict, dict[str, str]]:
    """The run's audit record (every option set, by its argparse name, ``--spec`` as
    ``spec_path``; no secret) and each input's text, read once to hash and to load."""
    texts = {name: read_text(p) for name in _HASHED_INPUTS if (p := getattr(args, name, None))}
    config = {
        "api_token_present": TOKEN_ENV in os.environ,
        # Decoding as UTF-8 and encoding back gives each file's bytes unchanged.
        "input_hashes": {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
                         for name, text in texts.items()},
    }
    for name, value in vars(args).items():
        if value is not None and name != "func":
            key = "spec_path" if name == "spec" else name
            config[key] = value == "on" if name == "length_norm" else value
    return config, texts


def _make_backend(args: argparse.Namespace, task, prompts, examples,
                  profile: str | None = None) -> ScorerBackend:
    if args.backend == "remote":
        if not args.endpoint or not args.model:
            raise ValidationError("remote backend needs --endpoint and --model")
        return RemoteBackend(
            endpoint=args.endpoint,
            model=args.model,
            api_token=os.environ.get(TOKEN_ENV),
        )

    # Synthetic backend. Planted labels come from, in order of precedence:
    # an explicit profile file, complete gold labels in the example file, or
    # a profile derived from the seed.
    prompt_ids = [p.prompt_id for p in prompts]
    example_ids = [e.example_id for e in examples]
    if args.synthetic_profile:
        doc = check_fields(read_json(args.synthetic_profile, profile), args.synthetic_profile,
                           {"qualities": "object of number", "planted_labels": "object of label"},
                           {"default_quality": "number", "miss_margin_scale": "number"})
        scale = doc.get("miss_margin_scale")
        planted = {k: canon_label(v) for k, v in doc["planted_labels"].items()}
        unrated = [p for p in prompt_ids if p not in doc["qualities"]]
        unplanted = [e for e in example_ids if planted.get(e) not in task.choices]
        try:  # every cell must be scorable before a backend call is made
            if unrated and doc.get("default_quality") is None:
                raise ValidationError(f"prompt {unrated[0]!r}: no quality and no default_quality")
            if unplanted:
                raise ValidationError(
                    f"example {unplanted[0]!r}: no planted label among the choices")
            return SyntheticBackend(
                seed=args.seed,
                prompt_quality={k: float(v) for k, v in doc["qualities"].items()},
                planted_labels=planted,
                default_quality=doc.get("default_quality"),
                **({} if scale is None else {"miss_margin_scale": float(scale)}),
            )
        except ValidationError as exc:  # an uncovered id, a quality outside [0, 1], a \x1f
            raise ValidationError(f"{args.synthetic_profile}: {exc}") from None
    qualities, planted = derived_profile(
        args.seed, prompt_ids, example_ids, task.choices
    )
    gold = gold_label_map(examples)
    if len(gold) == len(examples):
        planted = gold
    return SyntheticBackend(
        seed=args.seed, prompt_quality=qualities, planted_labels=planted
    )


def _inputs(args: argparse.Namespace, texts: dict[str, str]):
    """Task, prompts and examples from the texts, popped so that each is freed once parsed."""
    task, prompts = load_catalog(args.catalog, texts.pop("catalog", None))
    return task, prompts, load_examples(args.examples, task, texts.pop("examples", None))


def _score(args: argparse.Namespace, texts: dict[str, str], task, prompts, examples):
    """The score tensor and the (closed) cache, if ``--cache`` names one."""
    backend = _make_backend(args, task, prompts, examples, texts.pop("synthetic_profile", None))
    cache = None
    try:
        cache = ScoreCache(args.cache) if args.cache else None
        tensor = score_all(
            task,
            prompts,
            examples,
            backend,
            cache,
            normalize=args.normalize,
            length_norm=args.length_norm == "on",
            jobs=args.jobs,
        )
    finally:
        backend.close()
        if cache is not None:
            cache.close()
    return tensor, cache


def cmd_select(args: argparse.Namespace) -> int:
    config, texts = _run_config(args)
    tensor, _ = _score(args, texts, *_inputs(args, texts))
    report = select(
        tensor,
        EnsembleConfig(strategy=args.strategy),
        no_filter=args.no_filter,
        score_all_prompts=args.score_all_prompts,
    )
    write_text(args.out, json_text({"config": config, "report": report.to_json_dict()}))
    print(f"selected {report.selected} "
          f"(pseudo accuracy {report.pseudo_acc[report.selected]:.4f}); "
          f"report written to {args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    config, texts = _run_config(args)
    task, prompts, examples = _inputs(args, texts)
    gold = gold_label_map(examples)
    missing = [e.example_id for e in examples if e.example_id not in gold]
    if missing:  # before scoring: a remote backend bills every cell
        raise ValidationError(
            f"examples missing {task.gold_label_field or 'gold_label'!r}: {missing[:5]}"
        )
    tensor, _ = _score(args, texts, task, prompts, examples)
    report = select(
        tensor,
        EnsembleConfig(strategy=args.strategy),
        no_filter=args.no_filter,
        score_all_prompts=True,
    )
    eval_report = evaluate(report, predict(tensor), gold)
    write_text(args.out, json_text({"config": config, "report": eval_report.to_json_dict()}))
    header = f"{'prompt':<14} {'pseudo acc':>10} {'true acc':>9}"
    print(header)
    print("-" * len(header))
    for pid, pseudo, true in eval_report.ranking():
        print(f"{pid:<14} {pseudo:>10.4f} {true:>9.4f}")
    print(f"selected {eval_report.selected} "
          f"(true accuracy {eval_report.selected_accuracy:.4f}); "
          f"report written to {args.out}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config, texts = _run_config(args)
    spec = (load_robustness_spec(args.spec, texts["spec"]) if args.spec
            else default_robustness_spec())
    strategies = compare_strategies(spec)
    robustness = simulate_robustness(spec, strategies.cells)
    print(format_robustness_table(robustness))
    print()
    print(format_strategy_table(strategies))
    if args.out:
        write_text(args.out, json_text({"config": config, "robustness": robustness.to_json_dict(),
                                        "strategies": strategies.to_json_dict()}))
        print(f"tables written to {args.out}")
    return 0


def cmd_pseudo_val(args: argparse.Namespace) -> int:
    config, texts = _run_config(args)
    tensor, _ = _score(args, texts, *_inputs(args, texts))
    pseudo = build_pseudo_val(
        tensor, EnsembleConfig(strategy=args.strategy), size=args.size
    )
    write_text(args.out, pseudo.to_jsonl())
    # The JSONL line format is fixed, so the run config rides in a sidecar.
    write_text(f"{args.out}.meta.json",
               json_text({"config": config, "provenance": pseudo.provenance, "size": len(pseudo)}))
    print(f"{len(pseudo)} pseudo-labeled examples written to {args.out}")
    return 0


def cmd_select_checkpoint(args: argparse.Namespace) -> int:
    config, texts = _run_config(args)
    task, _ = load_catalog(args.catalog, texts["catalog"])
    candidates = load_checkpoint_predictions(args.checkpoints, task.choices, texts["checkpoints"])
    pseudo = load_pseudo_labeled(args.pseudo_val, texts["pseudo_val"])
    agreements = checkpoint_agreements(candidates, pseudo)
    best = best_checkpoint(agreements)
    if args.out:
        write_text(args.out, json_text({
            "config": config,
            "selected_checkpoint": best,
            "agreement": agreements,
        }))
    print(f"selected checkpoint {best} (agreement {agreements[best]:.4f})")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    if not args.cache:
        raise ValidationError("score needs --cache to have somewhere to warm")
    tensor, cache = _score(args, {}, *_inputs(args, {}))
    p, n, c = tensor.shape
    # The cache counts cells; the report counts values, c per cell.
    print(f"scored {p * n * c} values over {p} prompts x {n} examples; "
          f"cache {args.cache}: {cache.hits * c} hits, {cache.misses * c} misses")
    return 0


@functools.cache  # built on the first call, then shared by every call in the process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zps",
        description="Zero-label prompt selection: score, filter, ensemble, select.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--catalog", required=True, help="catalog JSON file")
    scoring.add_argument("--examples", required=True, help="examples JSONL file")
    scoring.add_argument("--backend", choices=("synthetic", "remote"),
                         default="synthetic")
    scoring.add_argument("--endpoint", help="remote scorer URL")
    scoring.add_argument("--model", help="remote model identifier")
    scoring.add_argument("--cache", help="score cache file")
    scoring.add_argument("--normalize", choices=NORMALIZE_MODES, default="softmax")
    scoring.add_argument("--length-norm", choices=("on", "off"), default="off",
                         help="divide phrase scores by their token count")
    scoring.add_argument("--seed", type=int, default=0)
    scoring.add_argument("--synthetic-profile",
                         help="JSON file with synthetic qualities and planted labels")
    scoring.add_argument("--jobs", type=int, default=1,
                         help="max concurrent scoring batches")

    strategy = argparse.ArgumentParser(add_help=False)
    strategy.add_argument("--strategy", choices=STRATEGIES, default="logprob_mean")

    p_select = sub.add_parser("select", parents=[scoring, strategy],
                              help="run the full selection pipeline")
    p_select.add_argument("--no-filter", action="store_true",
                          help="skip confidence filtering")
    p_select.add_argument("--score-all-prompts", action="store_true",
                          help="report pseudo accuracy for discarded prompts too")
    p_select.add_argument("--out", required=True, help="report JSON path")
    p_select.set_defaults(func=cmd_select)

    p_eval = sub.add_parser("evaluate", parents=[scoring, strategy],
                            help="selection plus gold-label evaluation")
    p_eval.add_argument("--no-filter", action="store_true")
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=cmd_evaluate)

    p_sim = sub.add_parser("simulate",
                           help="robustness and strategy-comparison simulations")
    p_sim.add_argument("--spec", help="simulation spec JSON (default: built-in)")
    p_sim.add_argument("--seed", type=int, default=0,
                       help="recorded in the artifact; cell seeds come from --spec")
    p_sim.add_argument("--out")
    p_sim.set_defaults(func=cmd_simulate)

    p_pv = sub.add_parser("pseudo-val", parents=[scoring, strategy],
                          help="export a pseudo-labeled validation set")
    p_pv.add_argument("--size", type=int,
                      help="keep only the most confident examples")
    p_pv.add_argument("--out", required=True, help="JSONL output path")
    p_pv.set_defaults(func=cmd_pseudo_val)

    p_ck = sub.add_parser("select-checkpoint",
                          help="pick a checkpoint by pseudo-val agreement")
    p_ck.add_argument("--catalog", required=True,
                      help="catalog JSON file (defines the choice set)")
    p_ck.add_argument("--checkpoints", required=True,
                      help="per-checkpoint predictions JSONL")
    p_ck.add_argument("--pseudo-val", required=True,
                      help="pseudo-labeled validation JSONL")
    p_ck.add_argument("--seed", type=int, default=0)
    p_ck.add_argument("--out")
    p_ck.set_defaults(func=cmd_select_checkpoint)

    p_score = sub.add_parser("score", parents=[scoring],
                             help="score everything once to warm the cache")
    p_score.set_defaults(func=cmd_score)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for backend trouble.
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BackendError, CacheCorruptionError) as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # --cache/--out paths, a full disk, a closed stdout
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - last-resort exit-code mapping
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
