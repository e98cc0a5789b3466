"""Acceptance suite: one test per exit criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
The quantitative criteria run the plain maximum-likelihood estimator
(pseudocount 0), which is what makes exact-zero impossibility detection
meaningful; all randomness is seed-pinned.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from wordground import inference
from wordground.cli import main as cli_main
from wordground.datagen import (
    build_corpus,
    default_lexicon,
    default_noise_profile,
    default_world,
    sample_experiences,
)
from wordground.evaluation import default_instructions, evaluate_instructions, staged_learning
from wordground.grounding import Experience
from wordground.inference import NBestList, default_cells, load_scene, rescore_nbest
from wordground.network import affordance_variables
from wordground.structure import build_baseline_network, train_model

from oracles import oracle_marginal, random_mixed_net, to_network, with_one_hot_rows

WORLD = default_world()
LEXICON = default_lexicon()
PROFILE = default_noise_profile(LEXICON)
VARIABLES = affordance_variables()

# Non-referential words the generator emits independently of the state.
FILLER_WORDS = ("the", "is", "has", "just", "baltazar", "robot", "he")

# The six-object demonstration scene shipped with the package.
SCENE_FILE = Path(inference.__file__).parent / "data" / "scene.txt"


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {'PASS' if ok else 'FAIL'} | {criterion} | {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def corpus11():
    return build_corpus(WORLD, LEXICON, 254, 5, profile=PROFILE, seed=11)


@pytest.fixture(scope="module")
def model_clean(corpus11):
    return train_model(corpus11.experiences, pseudocount=0.0)


@pytest.fixture(scope="module")
def model_noisy(corpus11):
    return train_model(corpus11.corrupted, pseudocount=0.0)


SWEEP_SEEDS = range(20)


@pytest.fixture(scope="module")
def sweep():
    """Corpus seed -> (corpus, clean-trained model, noise-trained model) at
    seeds 0-19, shared by criterion 3 and the sweeps of criteria 4-8."""
    models = {}
    for seed in SWEEP_SEEDS:
        corpus = build_corpus(WORLD, LEXICON, 254, 5, profile=PROFILE, seed=seed)
        clean = train_model(corpus.experiences, pseudocount=0.0)
        models[seed] = corpus, clean, train_model(corpus.corrupted, pseudocount=0.0)
    return models


def test_criterion_1_inference_matches_bruteforce_oracle():
    # the engine behind instruct, rescore and eval, on random nets with 2-6
    # non-word variables of 2-4 values and 1-2 word leaves, all of them in
    # the bag; every other net has one-hot CPT rows, so some bags are
    # impossible
    started = time.perf_counter()
    worst = 0.0
    all_zero, zero_rows_exact = 0, True
    for trial in range(100):
        rng = np.random.default_rng(trial)
        values_map, parents_map, cpt_map = random_mixed_net(rng, int(rng.integers(2, 7)))
        if trial % 2:
            cpt_map = with_one_hot_rows(rng, cpt_map)
        net = to_network(values_map, parents_map, cpt_map)
        table = net.state_table
        names, words = list(net.affordance_names()), list(net.word_names())

        prior = table.joint([[]], names)[0]
        want = oracle_marginal(values_map, parents_map, cpt_map, names, [])
        worst = max(worst, np.abs(prior - want).max())

        query = [names[j] for j in rng.permutation(len(names))[: rng.integers(1, 4)]]
        got = table.posterior([words], query)[0]
        want = oracle_marginal(values_map, parents_map, cpt_map, query, words)
        if not want.any():
            all_zero += 1
            zero_rows_exact &= not got.any()
        worst = max(worst, np.abs(got - want).max())
    elapsed = time.perf_counter() - started
    report(
        "1 inference oracle equivalence",
        worst < 1e-12 and elapsed < 10.0 and zero_rows_exact and all_zero > 0,
        f"worst deviation {worst:.2e} over 100 nets in {elapsed:.1f}s; "
        f"{all_zero} impossible bags, all-zero rows exact={zero_rows_exact}",
    )


def test_criterion_2_planted_singleton_recovery():
    started = time.perf_counter()
    indicator_values = {
        "Action": "tap",
        "Color": "blue",
        "Shape": "sphere",
        "Size": "small",
        "ObjVel": "fast",
        "HandVel": "fast",
        "ObjHandVel": "fast",
        "Contact": "long",
    }
    failures = []
    for seed in range(20):
        states = sample_experiences(WORLD, 1000, seed)
        for var in VARIABLES:
            value = indicator_values[var.name]
            heard = [
                Experience(state=s, description=frozenset({"w"} if s[var.name] == value else ()))
                for s in states
            ]
            parents = train_model(heard).parents.get("w")
            if parents != (var.name,):
                failures.append((seed, var.name, parents))
    elapsed = time.perf_counter() - started
    report(
        "2 planted-structure recovery",
        not failures and elapsed < 30.0,
        f"{160 - len(failures)}/160 exact singleton recoveries in {elapsed:.1f}s"
        + (f"; failures {failures[:4]}" if failures else ""),
    )


def test_criterion_3_non_referential_words_stay_unlinked(sweep):
    empty = 0
    total = 0
    per_word = {w: 0 for w in FILLER_WORDS}
    for seed in range(20):
        # a corpus's clean records do not depend on its noise profile
        corpus = sweep[seed][0].experiences
        net = train_model(corpus)
        for word in FILLER_WORDS:
            total += 1
            if net.parents[word] == ():
                empty += 1
                per_word[word] += 1
    fraction = empty / total
    report(
        "3 non-referential words",
        fraction >= 0.90 and per_word["the"] >= 18,
        f"empty parent sets in {empty}/{total} word-trainings ({fraction:.0%}); "
        f"per word {per_word}",
    )


def test_criterion_4_affordance_ablation_direction(corpus11, model_clean):
    started = time.perf_counter()
    instructions = default_instructions()
    full = evaluate_instructions(model_clean, instructions)
    baseline_net = build_baseline_network(corpus11.experiences, pseudocount=0.0)
    base = evaluate_instructions(baseline_net, instructions)
    elapsed = time.perf_counter() - started
    soft_gap = full.soft - base.soft
    hard_gap = full.hard - base.hard
    report(
        "4 ablation direction",
        soft_gap >= 0.05 and hard_gap >= 0.05 and elapsed < 120.0,
        f"soft {full.soft:.3f} vs {base.soft:.3f} (gap {soft_gap:+.3f}), "
        f"hard {full.hard:.3f} vs {base.hard:.3f} (gap {hard_gap:+.3f}), {elapsed:.1f}s",
    )


def test_criterion_5_noise_degradation_direction(model_clean, model_noisy):
    instructions = default_instructions()
    clean = evaluate_instructions(model_clean, instructions)
    noisy = evaluate_instructions(model_noisy, instructions)
    hard_drop = clean.hard - noisy.hard
    report(
        "5 noise degradation",
        noisy.soft < clean.soft and hard_drop < 0.15,
        f"soft {clean.soft:.3f} -> {noisy.soft:.3f}, "
        f"hard {clean.hard:.3f} -> {noisy.hard:.3f} (drop {hard_drop:.3f})",
    )


def test_criterion_6_learning_curve_plateau(corpus11):
    instructions = default_instructions()
    points = staged_learning(
        corpus11.experiences,
        instructions,
        sizes=(300, 1270),
        repetitions=12,
        seed=3,
        pseudocount=0.0,
    )
    by_size = {p.train_size: p for p in points}
    full_point = by_size[1270]
    gap = abs(by_size[300].median_soft() - full_point.median_soft())
    # the full-size subset is unique, so the point collapses to one
    # repetition; retraining must reproduce it exactly
    single_rep = len(full_point.repetitions) == 1
    again = staged_learning(
        corpus11.experiences, instructions, sizes=(1270,), repetitions=5,
        seed=99, pseudocount=0.0,
    )[0]
    zero_variance = again.repetitions == full_point.repetitions
    report(
        "6 learning-curve plateau",
        gap <= 0.05 and single_rep and zero_variance,
        f"median soft at 300 = {by_size[300].median_soft():.3f} vs "
        f"{full_point.median_soft():.3f} at 1270 (gap {gap:.3f}); "
        f"full-size reps={len(full_point.repetitions)}, reproducible={zero_variance}",
    )


def test_criterion_7_rescoring_flips_to_second_hypothesis(model_clean):
    hypotheses = (
        (tuple("tapping small sliding".split()), 0.100),
        (tuple("tapping box slides".split()), 0.070),
        (tuple("tapped ball rolls".split()), 0.010),
    )
    scene = load_scene(SCENE_FILE)
    ranked = rescore_nbest(model_clean, NBestList(hypotheses=hypotheses), scene)
    flip = (
        ranked[0].tokens == hypotheses[1][0]
        and ranked[0].acoustic_probability < max(p for _, p in hypotheses)
    )
    scaled = rescore_nbest(
        model_clean,
        NBestList(hypotheses=tuple((t, 123.0 * p) for t, p in hypotheses)),
        scene,
    )
    invariant = [h.tokens for h in scaled] == [h.tokens for h in ranked]
    report(
        "7 rescoring flip",
        flip and invariant,
        "winner '" + " ".join(ranked[0].tokens) + "' "
        f"(acoustic {ranked[0].acoustic_probability}) with final scores "
        + "/".join(f"{h.final_score:.3e}" for h in ranked)
        + f"; scaling-invariant={invariant}",
    )


def test_criterion_8_impossible_requests_detected(model_clean, model_noisy):
    instructions = default_instructions()
    impossible = [i for i in instructions if i.impossible]
    misses = []
    bags = [[w for w in ins.bag if w in model_clean.word_set] for ins in impossible]
    posterior = model_clean.state_table.posterior(bags, default_cells(model_clean))
    for ins, row in zip(impossible, posterior):
        if row.sum() != 0.0:
            misses.append(ins.text)
    noisy_result = evaluate_instructions(model_noisy, instructions)
    report(
        "8 impossible-request detection",
        not misses,
        f"clean-trained all-zero on {len(impossible) - len(misses)}/{len(impossible)} "
        f"impossible requests; noise-trained detection rate "
        f"{noisy_result.detection_rate:.2f} (reported, not asserted)"
        + (f"; missed {misses}" if misses else ""),
    )


# -- criteria 4-8 over 20 corpus seeds ---------------------------------------
#
# Each pinned check above runs on corpus seed 11; these sweep the same check
# over corpus seeds 0-19, print how many pass and name each failing seed.
# They assert the pass counts measured when the sweep was added: 20/20 for
# criteria 4, 5, 7 and 8; criterion 6 misses at seeds 2 and 8, where the gap
# at 300 records is 0.065 and 0.062.

def report_sweep(criterion: str, passes: dict, known_misses=()) -> None:
    failing = [seed for seed, ok in passes.items() if not ok]
    print(
        f"\nSWEEP {criterion} | {len(passes) - len(failing)}/{len(passes)} corpus seeds pass"
        + (f"; failing seeds {failing}" if failing else "")
    )
    unexpected = [seed for seed in failing if seed not in known_misses]
    assert not unexpected, f"{criterion}: corpus seeds {unexpected} fail"


def test_criterion_4_ablation_direction_over_20_corpus_seeds(sweep):
    instructions = default_instructions()
    passes = {}
    for seed, (corpus, clean, _) in sweep.items():
        full = evaluate_instructions(clean, instructions)
        base = evaluate_instructions(
            build_baseline_network(corpus.experiences, pseudocount=0.0), instructions
        )
        passes[seed] = full.soft - base.soft >= 0.05 and full.hard - base.hard >= 0.05
    report_sweep("4 ablation direction", passes)


def test_criterion_5_noise_degradation_over_20_corpus_seeds(sweep):
    instructions = default_instructions()
    passes = {}
    for seed, (_, clean, noisy) in sweep.items():
        clean_result = evaluate_instructions(clean, instructions)
        noisy_result = evaluate_instructions(noisy, instructions)
        passes[seed] = (
            noisy_result.soft < clean_result.soft
            and clean_result.hard - noisy_result.hard < 0.15
        )
    report_sweep("5 noise degradation", passes)


def test_criterion_6_learning_curve_plateau_over_20_corpus_seeds(sweep):
    instructions = default_instructions()
    passes = {}
    for seed, (corpus, _, _) in sweep.items():
        small, full = staged_learning(
            corpus.experiences, instructions, sizes=(300, 1270), repetitions=12,
            seed=3, pseudocount=0.0,
        )
        passes[seed] = (
            abs(small.median_soft() - full.median_soft()) <= 0.05
            and len(full.repetitions) == 1
        )
    report_sweep("6 learning-curve plateau", passes, known_misses=(2, 8))


def test_criterion_7_rescoring_flip_over_20_corpus_seeds(sweep):
    hypotheses = (
        (tuple("tapping small sliding".split()), 0.100),
        (tuple("tapping box slides".split()), 0.070),
        (tuple("tapped ball rolls".split()), 0.010),
    )
    scaled = tuple((t, 123.0 * p) for t, p in hypotheses)
    scene = load_scene(SCENE_FILE)
    passes = {}
    for seed, (_, clean, _) in sweep.items():
        ranked = [h.tokens for h in rescore_nbest(clean, NBestList(hypotheses), scene)]
        rescaled = [h.tokens for h in rescore_nbest(clean, NBestList(scaled), scene)]
        passes[seed] = ranked[0] == hypotheses[1][0] and rescaled == ranked
    report_sweep("7 rescoring flip", passes)


def test_criterion_8_impossible_requests_over_20_corpus_seeds(sweep):
    impossible = [i for i in default_instructions() if i.impossible]
    passes = {}
    for seed, (_, clean, _) in sweep.items():
        bags = [[w for w in ins.bag if w in clean.word_set] for ins in impossible]
        posterior = clean.state_table.posterior(bags, default_cells(clean))
        passes[seed] = not posterior.any()
    report_sweep("8 impossible-request detection", passes)


def test_criterion_9_pipeline_is_byte_deterministic(tmp_path):
    def run_pipeline(root):
        root.mkdir()
        data = root / "data"
        assert cli_main([
            "generate", "--out", str(data), "--seed", "11", "--n", "254", "--k", "5",
            "--noise",
        ]) == 0
        model = root / "model.json"
        assert cli_main([
            "train", "--corpus", str(data / "corpus_clean.txt"),
            "--model", str(model),
        ]) == 0
        csv = root / "curve.csv"
        assert cli_main([
            "eval", "--corpus", str(data / "corpus_clean.txt"), "--out", str(csv),
            "--seed", "3", "--sizes", "100", "300", "--reps", "3",
        ]) == 0
        return [
            data / "corpus_clean.txt",
            data / "corpus_recognized.txt",
            model,
            root / "model.json.report.txt",
            csv,
        ]

    first = run_pipeline(tmp_path / "run1")
    second = run_pipeline(tmp_path / "run2")
    mismatched = [
        a.name for a, b in zip(first, second) if a.read_bytes() != b.read_bytes()
    ]
    report(
        "9 seeded pipeline determinism",
        not mismatched,
        "corpus, recognized corpus, model, report, and CSV byte-identical "
        "across two runs" + (f"; mismatched {mismatched}" if mismatched else ""),
    )
