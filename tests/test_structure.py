import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordground.datagen import (
    build_corpus,
    default_lexicon,
    default_noise_profile,
    default_world,
    sample_experiences,
)
from wordground.grounding import Experience
from wordground.network import (
    Variable,
    _observed_scores,
    _score_terms,
    affordance_variables,
    encode_columns,
    family_log_score,
    fit_cpts,
    make_network,
    word_variable,
)
from wordground.structure import (
    EncodedCorpus,
    K2Config,
    _k2_search,
    k2_select_parents,
    learn_affordance_structure,
    learn_word_layer,
    structure_report,
    train_model,
)

from oracles import oracle_k2_parents

WORLD = default_world()
LEXICON = default_lexicon()
VARIABLES = affordance_variables()


def indicator_dataset(states, name, value, word="w"):
    return [
        dict(s, **{word: "present" if s[name] == value else "absent"}) for s in states
    ]


def exhaustive_best_parents(word, candidates, dataset, alpha, max_size=2):
    """Reference search: score every parent set up to max_size."""
    from itertools import combinations

    best, best_score = (), family_log_score(word, [], dataset, alpha)
    for size in range(1, max_size + 1):
        for combo in combinations(candidates, size):
            s = family_log_score(word, list(combo), dataset, alpha)
            if s > best_score:
                best, best_score = tuple(v.name for v in combo), s
    return frozenset(best)


def test_k2_word_determined_by_action():
    states = sample_experiences(WORLD, 500, 123)
    dataset = indicator_dataset(states, "Action", "tap")
    w = word_variable("w")
    parents = k2_select_parents(w, list(VARIABLES), dataset)
    assert parents == ("Action",)
    # greedy result agrees with exhaustive scoring over parent sets <= 2
    assert frozenset(parents) == exhaustive_best_parents(w, VARIABLES, dataset, 1.0)


def test_k2_prefers_binary_covariate_over_ternary_action():
    # hand velocity is high exactly for grasping, so a grasp-indicating word
    # can be explained by either node; the two-valued one wins the score
    states = sample_experiences(WORLD, 800, 7)
    dataset = indicator_dataset(states, "HandVel", "fast")
    parents = k2_select_parents(word_variable("w"), list(VARIABLES), dataset)
    assert parents == ("HandVel",)


def test_k2_independent_word_gets_no_parents():
    # the article is emitted in every description regardless of the state
    empty = 0
    for seed in range(20):
        corpus = build_corpus(WORLD, LEXICON, 100, 5, seed=seed).experiences
        net = train_model(corpus)
        if net.parents["the"] == ():
            empty += 1
    assert empty >= 18


def test_k2_deterministic_and_capped():
    states = sample_experiences(WORLD, 300, 5)
    dataset = indicator_dataset(states, "ObjVel", "fast")
    w = word_variable("w")
    config = K2Config(max_parents=1)
    p1 = k2_select_parents(w, list(VARIABLES), dataset, config)
    p2 = k2_select_parents(w, list(VARIABLES), dataset, config)
    assert p1 == p2
    assert len(p1) <= 1


def test_k2_rejects_target_in_candidates():
    w = word_variable("w")
    with pytest.raises(ValueError):
        k2_select_parents(w, [w], [], K2Config())


def test_k2_score_trace_strictly_increasing():
    states = sample_experiences(WORLD, 600, 17)
    dataset = indicator_dataset(states, "Contact", "long")
    w = word_variable("w")
    columns = encode_columns([w] + list(VARIABLES), dataset)
    [(_, trace)] = _k2_search(columns["w"][:, None], 2, list(VARIABLES), columns, K2Config())
    assert all(b > a for a, b in zip(trace, trace[1:]))


def test_k2_does_not_add_a_parent_that_splits_no_configuration():
    # Echo is a deterministic function of Action: once Action is a parent,
    # adding Echo splits no parent configuration and ties the score exactly,
    # which is not an improvement
    action = VARIABLES[0]
    echo = Variable("Echo", ("lo", "hi"))
    rate = {"grasp": 0.9, "tap": 0.1, "touch": 0.5}
    for seed in range(30):
        rng = np.random.default_rng(seed)
        records = []
        for _ in range(int(rng.integers(60, 400))):
            a = action.values[rng.integers(3)]
            records.append({
                "Action": a,
                "Echo": "hi" if a == "grasp" else "lo",
                "w": "present" if rng.random() < rate[a] else "absent",
            })
        for candidates in ([action, echo], [echo, action]):
            assert k2_select_parents(word_variable("w"), candidates, records) == ("Action",)


def test_k2_exact_tie_between_candidates_goes_to_the_earlier_one():
    # Copy is Action under a relabelling of its values: both split the
    # records identically, only the order of the parent configurations
    # differs, so the two scores are exactly equal and the tie-break order
    # decides
    action = VARIABLES[0]
    copy = Variable("Copy", ("c", "a", "b"))
    relabel = dict(zip(action.values, ("a", "b", "c")))
    rate = {"grasp": 0.8, "tap": 0.1, "touch": 0.3}
    linked = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        records = []
        for _ in range(int(rng.integers(20, 200))):
            a = action.values[rng.integers(3)]
            word = "present" if rng.random() < rate[a] else "absent"
            records.append({"Action": a, "Copy": relabel[a], "w": word})
        w = word_variable("w")
        first = k2_select_parents(w, [action, copy], records)
        assert first in ((), ("Action",))
        assert k2_select_parents(w, [copy, action], records) == ("Copy",) * len(first)
        linked += len(first)
    assert linked >= 25


def test_k2_single_candidate_exhausted_before_max_parents():
    # with one candidate the search runs out of candidates after one step,
    # well before the parent limit
    action = VARIABLES[0]
    rate = {"grasp": 0.9, "tap": 0.1, "touch": 0.5}
    for seed in range(10):
        rng = np.random.default_rng(seed)
        records = []
        for _ in range(int(rng.integers(20, 200))):
            a = action.values[rng.integers(3)]
            records.append({"Action": a, "w": "present" if rng.random() < rate[a] else "absent"})
        parents = k2_select_parents(word_variable("w"), [action], records, K2Config(max_parents=3))
        expected, _ = oracle_k2_parents(records, "w", ["absent", "present"], ["Action"], 3)
        assert parents == expected
        assert parents == ("Action",)


def test_affordance_structure_with_exhausted_candidates_matches_oracle():
    # Color is a function of Action, so Color takes its one candidate at the
    # first step and has none left for the other two
    states = sample_experiences(WORLD, 150, 41)
    color = dict(zip(VARIABLES[0].values, ("blue", "yellow", "blue")))
    for s in states:
        s["Color"] = color[s["Action"]]
    parent_map = learn_affordance_structure(
        encode_columns(VARIABLES, states), VARIABLES, K2Config(max_parents=3)
    )
    assert parent_map["Color"] == ("Action",)
    for i, var in enumerate(VARIABLES):
        earlier = [v.name for v in VARIABLES[:i]]
        expected, ambiguous = oracle_k2_parents(states, var.name, list(var.values), earlier, 3)
        if not ambiguous:
            assert parent_map[var.name] == expected


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.sampled_from([1.0, 0.3]),
    r=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 30),
    n_zero_rows=st.integers(1, 40),
)
def test_observed_scores_ignore_zero_rows_and_row_order(alpha, r, seed, n_rows, n_zero_rows):
    # At alpha 0.3 the count-1 term is negative, so the exact zeros of an
    # unobserved configuration sort into the middle of the terms; the score
    # must still not move
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 25, size=(n_rows, r)) * (rng.random((n_rows, 1)) < 0.8)
    totals = counts.sum(axis=1)
    terms = _score_terms(alpha, r, int(totals.max()))
    score = _observed_scores(counts[None], totals, terms)
    padded = np.concatenate([counts, np.zeros((n_zero_rows, r), dtype=counts.dtype)])
    order = rng.permutation(len(padded))
    padded = padded[order]
    assert _observed_scores(padded[None], padded.sum(axis=1), terms) == score
    order = rng.permutation(n_rows)
    assert _observed_scores(counts[order][None], totals[order], terms) == score


@pytest.mark.parametrize("alpha", [1.0, 0.3])
def test_k2_trace_is_the_family_score_of_the_parents_so_far(clean_corpus, alpha):
    # each trace entry is exactly `family_log_score` of the parents chosen
    # up to that step, in the order they were chosen
    corpus = EncodedCorpus.encode(clean_corpus[:400])
    targets = [j for j, w in enumerate(corpus.words) if j % 3 == 0]
    found = _k2_search(
        corpus.presence[:, targets], 2, list(VARIABLES), corpus.columns, K2Config(alpha=alpha)
    )
    by_name = {v.name: v for v in VARIABLES}
    linked = 0
    for j, (parents, trace) in zip(targets, found):
        w = word_variable(corpus.words[j])
        dataset = [
            dict(e.state, **{w.name: "present" if w.name in e.description else "absent"})
            for e in clean_corpus[:400]
        ]
        assert len(trace) == len(parents) + 1
        assert any(
            all(
                trace[i] == family_log_score(w, [by_name[p] for p in order[:i]], dataset, alpha)
                for i in range(len(trace))
            )
            for order in permutations(parents)
        )
        linked += len(parents) > 0
    assert linked >= 5


def test_family_score_closed_form_for_binary_family_at_alpha_one():
    # with alpha = 1 each observed parent configuration with a and b
    # records of the two values contributes log(a! b! / (a + b + 1)!)
    states = sample_experiences(WORLD, 700, 29)
    rng = np.random.default_rng(29)
    records = [dict(s, w="present" if rng.random() < 0.3 else "absent") for s in states]
    parents = [v for v in VARIABLES if v.name in ("Action", "Size")]
    rows: dict[tuple, list[int]] = {}
    for rec in records:
        row = rows.setdefault((rec["Action"], rec["Size"]), [0, 0])
        row[rec["w"] == "present"] += 1
    expected = sum(
        math.log(math.factorial(a) * math.factorial(b)) - math.log(math.factorial(a + b + 1))
        for a, b in rows.values()
    )
    score = family_log_score(word_variable("w"), parents, records, 1.0)
    assert score == pytest.approx(expected, rel=1e-13)


_ORACLE_VARIABLES = (
    Variable("A", ("a0", "a1", "a2"), "action"),
    Variable("B", ("b0", "b1"), "feature"),
    Variable("C", ("c0", "c1", "c2", "c3"), "feature"),
    Variable("D", ("d0", "d1"), "effect"),
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_records=st.integers(1, 60),
    n_words=st.integers(1, 6),
    max_parents=st.integers(0, 3),
)
def test_batched_word_search_matches_per_word_greedy_reference(
    seed, n_records, n_words, max_parents
):
    # each word is present with a probability set by a random subset of the
    # variables; D sometimes copies B, so exact ties between candidates and
    # parents that split nothing both occur. Words whose search meets an
    # exact tie between different counts are not compared (see the oracle).
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(n_records):
        state = {v.name: v.values[rng.integers(v.cardinality)] for v in _ORACLE_VARIABLES}
        if seed % 2:
            state["D"] = "d" + state["B"][1]
        states.append(state)
    words = [f"w{i}" for i in range(n_words)]
    rules = []
    for _ in words:
        drivers = [v.name for v in _ORACLE_VARIABLES if rng.random() < 0.4]
        rates = {}
        rules.append((drivers, rates))
    experiences = []
    for state in states:
        bag = set()
        for word, (drivers, rates) in zip(words, rules):
            key = tuple(state[d] for d in drivers)
            if rng.random() < rates.setdefault(key, rng.random()):
                bag.add(word)
        experiences.append(Experience(state=state, description=frozenset(bag)))
    config = K2Config(max_parents=max_parents, min_word_occurrences=0)
    affordance = fit_cpts(
        make_network(_ORACLE_VARIABLES, {}), encode_columns(_ORACLE_VARIABLES, states), 1.0
    )
    net = learn_word_layer(affordance, EncodedCorpus.encode(experiences, _ORACLE_VARIABLES), config)
    names = [v.name for v in _ORACLE_VARIABLES]
    for word in words:
        records = [
            dict(e.state, w="present" if word in e.description else "absent")
            for e in experiences
        ]
        expected, ambiguous = oracle_k2_parents(
            records, "w", ["absent", "present"], names, max_parents
        )
        if not ambiguous:
            # a word that never occurs has no node, and no parents
            assert net.parents.get(word, ()) == expected


def test_config_validation():
    with pytest.raises(ValueError):
        K2Config(max_parents=-1)
    with pytest.raises(ValueError):
        K2Config(alpha=0.0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_alpha(alpha):
    with pytest.raises(ValueError, match="finite"):
        K2Config(alpha=alpha)


# -- word layer ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def clean_corpus():
    return build_corpus(WORLD, LEXICON, 254, 5, seed=11).experiences


@pytest.fixture(scope="module")
def clean_model(clean_corpus):
    return train_model(clean_corpus)


def test_word_layer_links_property_words(clean_model):
    for word in ("green", "yellow", "blue"):
        assert clean_model.parents[word] == ("Color",)
    for word in ("small", "big"):
        assert clean_model.parents[word] == ("Size",)
    for word in ("ball", "sphere", "box", "cube", "square"):
        assert clean_model.parents[word] == ("Shape",)


def test_word_layer_never_links_words_or_exceeds_cap(clean_model):
    aff = set(clean_model.affordance_names())
    for word in clean_model.word_names():
        assert set(clean_model.parents[word]) <= aff
        assert len(clean_model.parents[word]) <= 3


def test_word_layer_empty_vocabulary_returns_affordance_net_unchanged(clean_corpus):
    from wordground.network import default_affordance_parents, fit_cpts, make_network

    states = [e.state for e in clean_corpus]
    aff = fit_cpts(
        make_network(VARIABLES, default_affordance_parents()),
        encode_columns(VARIABLES, states),
        1.0,
    )
    silent = [Experience(state=s, description=frozenset()) for s in states]
    out = learn_word_layer(aff, EncodedCorpus.encode(silent))
    assert out.word_names() == ()
    assert out.names() == aff.names()
    for name in aff.names():
        assert np.array_equal(out.cpts[name], aff.cpts[name])
        assert out.parents[name] == aff.parents[name]


def test_word_layer_sparse_words_skip_search():
    states = sample_experiences(WORLD, 400, 3)
    experiences = [
        Experience(state=s, description=frozenset(["rare"] if i < 2 else []))
        for i, s in enumerate(states)
    ]
    from wordground.network import default_affordance_parents, fit_cpts, make_network

    aff = fit_cpts(
        make_network(VARIABLES, default_affordance_parents()),
        encode_columns(VARIABLES, [e.state for e in experiences]),
        1.0,
    )
    out = learn_word_layer(aff, EncodedCorpus.encode(experiences))
    assert out.parents["rare"] == ()


# ground-truth influences per generated word, from the generator's semantics
WORD_TRUTH = {
    **{w: {"Color"} for w in ("green", "yellow", "blue")},
    **{w: {"Size"} for w in ("small", "big")},
    **{w: {"Shape"} for w in ("ball", "sphere", "box", "cube", "square")},
    **{w: {"Action", "HandVel"} for w in ("grasp", "grasping", "grasped", "picks")},
    **{w: {"Action", "HandVel"} for w in ("tap", "taps", "tapping", "tapped", "pushes")},
    **{w: {"Action", "HandVel"} for w in ("touch", "touches", "touching", "pokes", "poking")},
    "still": {"ObjVel"},
    **{w: {"ObjVel"} for w in ("move", "moving", "moves")},
    **{w: {"Action", "Shape", "ObjVel", "HandVel"} for w in ("roll", "rolls", "rolling")},
    **{w: {"Action", "Shape", "ObjVel", "HandVel"} for w in ("slide", "slides", "sliding")},
    **{w: {"Action", "HandVel", "ObjVel", "Contact"} for w in ("rise", "rises", "rising")},
    **{w: {"Action", "HandVel", "ObjVel", "Contact"} for w in ("fall", "falls", "falling")},
    **{w: {"Action", "HandVel", "ObjVel", "Contact"} for w in ("and", "but")},
}


def test_word_layer_noisy_training_keeps_most_true_parents():
    profile_total = 0
    kept = 0
    profile = default_noise_profile(LEXICON)
    for seed in range(20):
        corpus = build_corpus(WORLD, LEXICON, 254, 5, profile=profile, seed=seed)
        net = train_model(corpus.corrupted)
        for word, truth in WORD_TRUTH.items():
            if word not in net.word_names():
                continue
            profile_total += 1
            if set(net.parents[word]) & truth:
                kept += 1
    assert kept / profile_total >= 0.70


# -- affordance structure learning ------------------------------------------------------


def test_affordance_structure_finds_action_driving_effect():
    rng = np.random.default_rng(31)
    states = sample_experiences(WORLD, 800, 31)
    # replace the contact column with a deterministic function of the action
    for s in states:
        s["Contact"] = "long" if s["Action"] == "grasp" else "short"
    parent_map = learn_affordance_structure(encode_columns(VARIABLES, states), VARIABLES)
    assert "Action" in parent_map["Contact"] or "HandVel" in parent_map["Contact"]


def test_affordance_structure_leaves_color_isolated():
    states = sample_experiences(WORLD, 1270, 13)
    parent_map = learn_affordance_structure(encode_columns(VARIABLES, states), VARIABLES)
    assert parent_map["Color"] == ()
    for name, parents in parent_map.items():
        assert "Color" not in parents


def test_affordance_structure_single_record_gives_empty_maps():
    states = sample_experiences(WORLD, 1, 2)
    parent_map = learn_affordance_structure(encode_columns(VARIABLES, states), VARIABLES)
    assert all(parents == () for parents in parent_map.values())


def test_affordance_structure_respects_ordering():
    states = sample_experiences(WORLD, 1000, 23)
    parent_map = learn_affordance_structure(encode_columns(VARIABLES, states), VARIABLES)
    order = {v.name: i for i, v in enumerate(VARIABLES)}
    for child, parents in parent_map.items():
        for p in parents:
            assert order[p] < order[child]


# -- report -------------------------------------------------------------------------------


def test_structure_report_format(clean_model):
    report = structure_report(clean_model)
    lines = report.splitlines()
    assert lines[0].startswith("#")
    body = [l for l in lines if not l.startswith("#")]
    assert body == sorted(body)
    assert any(l.startswith("green <- Color") for l in body)
    assert any(l == "the <- " or l == "the <-" for l in body)
