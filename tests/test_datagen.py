from collections import Counter

import numpy as np
import pytest

from wordground.datagen import (
    BalanceState,
    NoiseProfile,
    action_succeeded,
    build_corpus,
    classify_outcome,
    corrupt,
    default_lexicon,
    default_noise_profile,
    default_world,
    generate_description,
    sample_experience,
    sample_experiences,
)
from wordground.grounding import bag_of_words
from wordground.network import Network

WORLD = default_world()
LEXICON = default_lexicon()


# ground truth for generator soundness: which states may emit each word
def word_allowed(word, state):
    outcome = classify_outcome(state)
    checks = {
        "green": state["Color"] in ("lightgreen", "darkgreen"),
        "yellow": state["Color"] == "yellow",
        "blue": state["Color"] == "blue",
        "small": state["Size"] == "small",
        "big": state["Size"] == "big",
    }
    if word in checks:
        return checks[word]
    if word in ("ball", "sphere"):
        return state["Shape"] == "sphere"
    if word in ("box", "cube", "square"):
        return state["Shape"] == "box"
    for action, words in {
        "grasp": ("grasp", "grasping", "grasped", "picks"),
        "tap": ("tap", "taps", "tapping", "tapped", "pushes"),
        "touch": ("touch", "touches", "touching", "pokes", "poking"),
    }.items():
        if word in words:
            return state["Action"] == action
    if word == "still":
        return outcome == "still"
    if word in ("roll", "rolls", "rolling"):
        return outcome == "rolls"
    if word in ("slide", "slides", "sliding"):
        return outcome == "slides"
    if word in ("rise", "rises", "rising"):
        return outcome == "rises"
    if word in ("fall", "falls", "falling"):
        return outcome == "falls"
    if word in ("move", "moving", "moves"):
        return outcome != "still"
    if word == "and":
        return action_succeeded(state)
    if word == "but":
        return not action_succeeded(state)
    return True  # fillers and subject words are unconstrained


# -- world ---------------------------------------------------------------------


def test_default_world_rows_are_distributions():
    for name, table in WORLD.cpts.items():
        assert np.all(np.abs(table.sum(axis=1) - 1.0) < 1e-12), name


def test_default_world_hand_velocity_tracks_grasping():
    handvel = WORLD.variable("HandVel")
    row_grasp = WORLD.cpt_row("HandVel", {"Action": "grasp"})
    row_tap = WORLD.cpt_row("HandVel", {"Action": "tap"})
    assert row_grasp[handvel.index_of("fast")] == 1.0
    assert row_tap[handvel.index_of("fast")] == 0.0


def test_default_world_color_is_isolated():
    assert WORLD.parents["Color"] == ()
    for v in WORLD.variables:
        assert "Color" not in WORLD.parents[v.name]


# -- sampling ------------------------------------------------------------------


def test_sample_deterministic_per_seed():
    assert sample_experience(WORLD, 99) == sample_experience(WORLD, 99)
    a = sample_experiences(WORLD, 20, 4)
    b = sample_experiences(WORLD, 20, 4)
    assert a == b


def test_sample_deterministic_world_forces_single_assignment():
    onehot = {
        name: np.array([[1.0] + [0.0] * (len(WORLD.variable(name).values) - 1)] * t.shape[0])
        for name, t in WORLD.cpts.items()
    }
    forced_world = Network(WORLD.variables, WORLD.parents, onehot, pseudocount=0.0)
    expected = {v.name: v.values[0] for v in WORLD.variables}
    for seed in (0, 1, 2):
        assert sample_experience(forced_world, seed) == expected


def test_sample_frequencies_match_priors():
    states = sample_experiences(WORLD, 10000, 123)
    counts = Counter(s["Action"] for s in states)
    for action in ("grasp", "tap", "touch"):
        assert abs(counts[action] / 10000 - 1 / 3) < 0.02


# -- outcome classification -------------------------------------------------------


@pytest.mark.parametrize(
    "state, outcome",
    [
        ({"Action": "tap", "Shape": "sphere", "ObjVel": "fast", "Contact": "short"}, "rolls"),
        ({"Action": "tap", "Shape": "box", "ObjVel": "medium", "Contact": "short"}, "slides"),
        ({"Action": "grasp", "Shape": "box", "ObjVel": "medium", "Contact": "long"}, "rises"),
        ({"Action": "grasp", "Shape": "sphere", "ObjVel": "fast", "Contact": "short"}, "falls"),
        ({"Action": "touch", "Shape": "box", "ObjVel": "slow", "Contact": "long"}, "still"),
    ],
)
def test_classify_outcome(state, outcome):
    assert classify_outcome(state) == outcome


# -- description generation ----------------------------------------------------------


def test_round_robin_synonyms_are_exactly_balanced():
    state = {
        "Action": "tap",
        "Color": "blue",
        "Size": "medium",
        "Shape": "box",
        "ObjVel": "slow",
        "HandVel": "slow",
        "ObjHandVel": "slow",
        "Contact": "short",
    }
    balance = BalanceState()
    counts = Counter()
    for i in range(300):
        tokens = generate_description(state, LEXICON, balance, i)
        for noun in ("box", "cube", "square"):
            if noun in tokens:
                counts[noun] += 1
    assert counts == {"box": 100, "cube": 100, "square": 100}


def test_generate_deterministic_given_inputs():
    state = sample_experience(WORLD, 8)
    t1 = generate_description(state, LEXICON, BalanceState(), 5)
    t2 = generate_description(state, LEXICON, BalanceState(), 5)
    assert t1 == t2


def test_generate_sentence_shape_for_successful_grasp():
    state = {
        "Action": "grasp",
        "Color": "yellow",
        "Size": "medium",
        "Shape": "sphere",
        "ObjVel": "medium",
        "HandVel": "fast",
        "ObjHandVel": "slow",
        "Contact": "long",
    }
    tokens = generate_description(state, LEXICON, BalanceState(), 0)
    assert tokens[0] in ("baltazar", "robot", "he")
    assert "and" in tokens and "but" not in tokens
    assert any(w in tokens for w in ("grasp", "grasping", "grasped", "picks"))
    assert any(w in tokens for w in ("ball", "sphere"))
    assert any(w in tokens for w in ("rise", "rises", "rising"))
    assert "is" in tokens and "the" in tokens


def test_lexicon_has_49_distinct_words_and_validates():
    assert len(LEXICON.words()) == 49


# -- noise channel -----------------------------------------------------------------


def test_corrupt_zero_rates_is_identity():
    bag = bag_of_words("the ball is rolling")
    profile = NoiseProfile(0.0, 0.0, tuple(LEXICON.words()))
    for seed in range(5):
        assert corrupt(bag, profile, seed) == bag


def test_corrupt_inserts_nothing_when_the_pool_is_inside_the_bag():
    profile = NoiseProfile(0.0, 5.0, ("a", "b"))
    for seed in range(5):
        assert corrupt({"a", "b"}, profile, seed) == {"a", "b"}


def test_corrupt_total_rejection_empties_bag():
    bag = bag_of_words("the ball is rolling")
    profile = NoiseProfile(1e9, 0.0, tuple(LEXICON.words()))
    assert corrupt(bag, profile, 3) == frozenset()


def test_corrupt_deletion_volume_matches_expectation():
    corpus = build_corpus(WORLD, LEXICON, 254, 5, seed=5).experiences
    profile = default_noise_profile(LEXICON)
    deletions = 0
    for i, exp in enumerate(corpus):
        noisy = corrupt(exp.description, profile, i)
        deletions += len(exp.description - noisy)
    expected = 1270 / 1.2
    assert abs(deletions - expected) <= 0.10 * expected


def test_corrupt_only_deletes_and_inserts():
    profile = default_noise_profile(LEXICON)
    pool = set(profile.insertion_pool)
    corpus = build_corpus(WORLD, LEXICON, 40, 2, seed=9).experiences
    for i, exp in enumerate(corpus):
        noisy = corrupt(exp.description, profile, i)
        assert noisy - exp.description <= pool - exp.description
        assert exp.description - noisy <= exp.description


def test_noise_profile_validation():
    for bad in (-1.0, float("nan"), float("inf")):
        for rates in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(ValueError, match="noise rates must be finite and >= 0"):
                NoiseProfile(*rates, ())


# -- corpus -----------------------------------------------------------------------------


def test_build_corpus_dimensions():
    corpus = build_corpus(WORLD, LEXICON, 254, 5, seed=11)
    assert len(corpus.experiences) == 1270
    assert corpus.corrupted is None
    tiny = build_corpus(WORLD, LEXICON, 1, 1, seed=11)
    assert len(tiny.experiences) == 1
    with pytest.raises(ValueError):
        build_corpus(WORLD, LEXICON, 0, 5, seed=11)


def test_build_corpus_same_seed_identical():
    a = build_corpus(WORLD, LEXICON, 30, 3, seed=77)
    b = build_corpus(WORLD, LEXICON, 30, 3, seed=77)
    assert a.experiences == b.experiences


def test_build_corpus_with_profile_pairs_states():
    profile = default_noise_profile(LEXICON)
    corpus = build_corpus(WORLD, LEXICON, 20, 2, profile=profile, seed=3)
    assert corpus.corrupted is not None
    assert len(corpus.corrupted) == len(corpus.experiences)
    for clean, noisy in zip(corpus.experiences, corpus.corrupted):
        assert clean.state == noisy.state


def test_clean_corpus_is_semantically_sound():
    corpus = build_corpus(WORLD, LEXICON, 254, 5, seed=21).experiences
    for exp in corpus:
        for word in exp.description:
            assert word_allowed(word, exp.state), (word, exp.state)
