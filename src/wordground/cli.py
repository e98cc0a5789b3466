"""Command-line entry point.

Subcommands cover the whole pipeline: `generate` a synthetic corpus,
`train` a model from it, `instruct` / `repl` to resolve verbal requests
against a scene, `rescore` a recognizer N-best list, and `eval` to produce
the learning-curve CSV. Every stochastic subcommand takes a mandatory
`--seed` and is byte-reproducible given one. Each subcommand imports the
package modules it runs, and no other, when it starts.

Exit codes: 0 on success, 2 for unparseable inputs and for requests none of
whose words the model knows, 1 for runtime failures.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .inference import ActionObjectRanking

DISPLAY_FLOOR = 0.005  # grid entries below two-digit precision print as dashes


def _distinct_paths(**paths: str | None) -> None:
    """Refuse two file options of one command that name the same file, so
    that no output overwrites an input or another output."""
    seen: dict[Path, str] = {}
    for flag, path in paths.items():
        first = seen.setdefault(Path(path).resolve(), flag) if path else flag
        if first != flag:
            raise ValueError(f"--{first} and --{flag} both name {path}")


def _cmd_generate(args: argparse.Namespace) -> int:
    from . import datagen, grounding

    lexicon = datagen.default_lexicon()
    profile = datagen.default_noise_profile(lexicon) if args.noise else None
    corpus = datagen.build_corpus(
        datagen.default_world(), lexicon, args.n, args.k, profile=profile, seed=args.seed
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    grounding.save_corpus(corpus.experiences, out / "corpus_clean.txt")
    print(f"wrote {len(corpus.experiences)} records to {out / 'corpus_clean.txt'}")
    if corpus.corrupted is not None:
        grounding.save_corpus(corpus.corrupted, out / "corpus_recognized.txt")
        print(f"wrote recognized variant to {out / 'corpus_recognized.txt'}")
    counts = Counter(word for exp in corpus.experiences for word in exp.description)
    print("word occurrence histogram (clean corpus):")
    for word, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"  {word:12s} {count}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from . import grounding, network, structure

    report_path = args.report or str(args.model) + ".report.txt"
    _distinct_paths(corpus=args.corpus, model=args.model, report=report_path)
    corpus = grounding.load_corpus(args.corpus)
    model = structure.train_model(
        corpus, pseudocount=args.alpha, learn_structure=args.learn_structure
    )
    network.save_network(model, args.model)
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(structure.structure_report(model))
    print(f"trained on {len(corpus)} records: model -> {args.model}, report -> {report_path}")
    return 0


def _print_ranking(ranking: ActionObjectRanking, scene) -> None:
    if ranking.impossible:
        print("IMPOSSIBLE: no action-object pair is compatible with the request")
        return
    best = ranking.best
    per_object: dict[str, tuple[str, float]] = {}
    # entries are sorted best first, so each object's first entry is its best
    for action, obj_id, p in ranking.entries:
        per_object.setdefault(obj_id, (action, p))
    width = max(len(obj.id) for obj in scene)
    for obj in scene:
        action, p = per_object[obj.id]
        marker = "*" if (action, obj.id) == (best[0], best[1]) else " "
        if p < DISPLAY_FLOOR:
            print(f"  {obj.id:{width}s}  -")
        else:
            print(f"  {obj.id:{width}s}  {marker} {action}, p={p:.2f}")
    print(f"best: {best[0]} {best[1]} (p={best[2]:.2f})")


def _cmd_instruct(args: argparse.Namespace) -> int:
    from . import grounding, inference, network

    bag = grounding.bag_of_words(args.words)
    if not bag:
        raise ValueError("--words holds no words")
    model = network.load_network(args.model)
    scene = inference.load_scene(args.scene)
    ranking = inference.select_action_object(model, bag, scene)
    _print_ranking(ranking, scene)
    return 0


def _cmd_repl(args: argparse.Namespace) -> int:
    from . import grounding, inference, network

    model = network.load_network(args.model)
    scene = inference.load_scene(args.scene)
    print("enter an instruction per line (empty line or EOF quits)")
    for line in sys.stdin:
        line = line.strip()
        if not line:
            break
        bag = grounding.bag_of_words(line)
        if not bag:
            print(f"error: {line!r} holds no words", file=sys.stderr)
            continue
        try:
            ranking = inference.select_action_object(model, bag, scene)
        except inference.UnknownWordsError as exc:
            print(f"error: {exc}", file=sys.stderr)
            continue
        _print_ranking(ranking, scene)
    return 0


def _cmd_rescore(args: argparse.Namespace) -> int:
    from . import inference, network

    model = network.load_network(args.model)
    scene = inference.load_scene(args.scene)
    nbest = inference.load_nbest(args.nbest)
    aggregate = "sum" if args.sum_actions else "max"
    results = inference.rescore_nbest(model, nbest, scene, action_aggregate=aggregate)
    for rank, hyp in enumerate(results, start=1):
        print(
            f"{rank}. final={hyp.final_score:.4g} acoustic={hyp.acoustic_probability:.4g} "
            f"\"{' '.join(hyp.tokens)}\""
        )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from . import evaluation, grounding

    _distinct_paths(corpus=args.corpus, instructions=args.instructions, out=args.out)
    corpus = grounding.load_corpus(args.corpus)
    if args.instructions:
        instructions = evaluation.load_instructions(args.instructions)
    else:
        instructions = evaluation.default_instructions()
    sizes = args.sizes
    if sizes is None:
        sizes = [s for s in evaluation.DEFAULT_SIZES if s <= len(corpus)]
    points = evaluation.staged_learning(
        corpus,
        instructions,
        sizes=sizes,
        repetitions=args.reps,
        seed=args.seed,
        pseudocount=args.alpha,
    )
    csv_text = evaluation.curve_to_csv(points)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(csv_text)
    print(f"wrote {sum(len(p.repetitions) for p in points)} rows to {args.out}")
    for point in points:
        print(
            f"  size {point.train_size:5d}: median soft={point.median_soft():.3f} "
            f"hard={point.median_hard():.3f} over {len(point.repetitions)} repetition(s)"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordground",
        description="word-meaning learning over manipulation experiences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a synthetic described corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, default=254, help="number of experiences")
    p.add_argument("--k", type=int, default=5, help="descriptions per experience")
    p.add_argument("--noise", action="store_true", help="also write a recognized variant")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="learn word links and CPTs from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True, help="output model file")
    p.add_argument("--report", help="structure report path (default: <model>.report.txt)")
    p.add_argument("--alpha", type=float, default=1.0, help="CPT smoothing pseudocount")
    p.add_argument("--learn-structure", action="store_true",
                   help="also search the affordance structure instead of the fixed default")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("instruct", help="rank actions and objects for a request")
    p.add_argument("--model", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--words", required=True, help="the verbal request")
    p.set_defaults(func=_cmd_instruct)

    p = sub.add_parser("repl", help="interactive instruct loop on standard input")
    p.add_argument("--model", required=True)
    p.add_argument("--scene", required=True)
    p.set_defaults(func=_cmd_repl)

    p = sub.add_parser("rescore", help="re-rank a recognizer N-best list by context")
    p.add_argument("--model", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--nbest", required=True)
    p.add_argument("--sum-actions", action="store_true",
                   help="sum over actions per object instead of taking the max")
    p.set_defaults(func=_cmd_rescore)

    p = sub.add_parser("eval", help="staged-learning evaluation to CSV")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--instructions", help="instruction file (default: shipped 54-request set)")
    p.add_argument("--sizes", type=int, nargs="*", help="training sizes")
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--alpha", type=float, default=1.0)
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary: report and signal failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
