import gc
import math
import weakref
from collections import Counter
from itertools import permutations
from pathlib import Path

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
    affordance_variables,
    default_affordance_parents,
    word_variable,
)
from wordground.structure import (
    K2_ALPHA,
    MAX_PARENTS,
    MIN_WORD_OCCURRENCES,
    EncodedCorpus,
    _config_index,
    _count_families,
    _entries,
    _k2_search,
    _observed_scores,
    _score_terms,
    encode_columns,
    fit_cpts,
    learn_affordance_structure,
    learn_word_layer,
    structure_report,
    train_model,
)

from oracles import oracle_family_score, oracle_k2_parents

WORLD = default_world()
LEXICON = default_lexicon()
VARIABLES = affordance_variables()


def binary(name):
    return Variable(name, ("f", "t"))


def ones(records):
    """Weight one per record, so that every record counts once; shared
    with the other test modules that count records."""
    return np.ones(len(records), dtype=np.int64)


def k2_parents(candidates, records, target="w"):
    """K2's parents for the binary word `target` among `candidates`, one
    weight per record, through the structure search with the word last in
    the ordering."""
    ordering = [*candidates, word_variable(target)]
    columns = encode_columns(ordering, records)
    return learn_affordance_structure(columns, ones(records), ordering)[target]


def family_score(variable, parent_set, records):
    """K2 family score of `variable` given `parent_set`, counted from
    records through the search's own counting pass and summation, so it
    equals the search's score of that family bit for bit."""
    columns = encode_columns([variable] + list(parent_set), records)
    weights = ones(records)
    one_hot = columns[variable.name][:, None, None] == np.arange(1, variable.cardinality)
    counts, totals = _count_families(
        _entries(one_hot * weights[:, None, None]),
        weights,
        variable.cardinality,
        _config_index(parent_set, columns, len(records))[:, None, None],
        np.zeros(1, dtype=np.int64),
        math.prod(p.cardinality for p in parent_set),
    )
    terms = _score_terms(K2_ALPHA, variable.cardinality, int(totals.max(initial=0)))
    return float(_observed_scores(counts[0, 0], totals[0, 0], terms))


def indicator_dataset(states, name, value, word="w"):
    return [
        dict(s, **{word: "present" if s[name] == value else "absent"}) for s in states
    ]


def exhaustive_best_parents(word, candidates, dataset, max_size=2):
    """Reference search: score every parent set up to max_size."""
    from itertools import combinations

    best, best_score = (), family_score(word, [], dataset)
    for size in range(1, max_size + 1):
        for combo in combinations(candidates, size):
            s = family_score(word, list(combo), dataset)
            if s > best_score:
                best, best_score = tuple(v.name for v in combo), s
    return frozenset(best)


def test_k2_word_determined_by_action():
    states = sample_experiences(WORLD, 500, 123)
    dataset = indicator_dataset(states, "Action", "tap")
    parents = k2_parents(VARIABLES, dataset)
    assert parents == ("Action",)
    # greedy result agrees with exhaustive scoring over parent sets <= 2
    assert frozenset(parents) == exhaustive_best_parents(word_variable("w"), VARIABLES, dataset)


def test_k2_prefers_binary_covariate_over_ternary_action():
    # hand velocity is high exactly for grasping, so a grasp-indicating word
    # can be explained by either node; the two-valued one wins the score
    states = sample_experiences(WORLD, 800, 7)
    dataset = indicator_dataset(states, "HandVel", "fast")
    assert k2_parents(VARIABLES, dataset) == ("HandVel",)


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
    # the word is heard when at least two of four conditions on Action,
    # Color, Shape and Size hold, so all four parents would raise the score,
    # and the search stops at MAX_PARENTS = 3
    candidates = VARIABLES[:4]
    names = [v.name for v in candidates]
    for seed in range(3):
        dataset = []
        for s in sample_experiences(WORLD, 400, seed):
            hits = (s["Action"] == "grasp") + (s["Color"] in ("lightgreen", "darkgreen"))
            hits += (s["Shape"] == "sphere") + (s["Size"] == "small")
            dataset.append(dict(s, w="present" if hits >= 2 else "absent"))
        parents = k2_parents(candidates, dataset)
        assert parents == k2_parents(candidates, dataset)
        assert len(parents) == MAX_PARENTS == 3
        expected, ambiguous = oracle_k2_parents(dataset, "w", ["absent", "present"], names, 3)
        assert not ambiguous and parents == expected
        unbounded, _ = oracle_k2_parents(dataset, "w", ["absent", "present"], names, 4)
        assert unbounded == tuple(names)


def test_k2_score_trace_strictly_increasing():
    states = sample_experiences(WORLD, 600, 17)
    dataset = indicator_dataset(states, "Contact", "long")
    w = word_variable("w")
    columns = encode_columns([w] + list(VARIABLES), dataset)
    weights = ones(dataset)
    entries = _entries((columns["w"] * weights)[:, None, None])
    [(_, trace)] = _k2_search(entries, 1, 2, list(VARIABLES), columns, weights, {})
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
            assert k2_parents(candidates, records) == ("Action",)


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
        first = k2_parents([action, copy], records)
        assert first in ((), ("Action",))
        assert k2_parents([copy, action], records) == ("Copy",) * len(first)
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
        parents = k2_parents([action], records)
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
    columns = encode_columns(VARIABLES, states)
    parent_map = learn_affordance_structure(columns, ones(states), VARIABLES)
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


@pytest.mark.parametrize("alpha", [K2_ALPHA])
def test_k2_trace_is_the_family_score_of_the_parents_so_far(clean_corpus, alpha):
    # each trace entry is exactly `family_log_score` of the parents chosen
    # up to that step, in the order they were chosen, and the slow score at
    # the K2 prior alpha
    corpus = EncodedCorpus.encode(clean_corpus[:400])
    targets = [j for j, w in enumerate(corpus.words) if j % 3 == 0]
    found = _k2_search(
        _entries(corpus.word_counts[:, targets, None]),
        len(targets),
        2,
        list(VARIABLES),
        corpus.columns,
        corpus.weights,
        {},
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
                trace[i] == family_score(w, [by_name[p] for p in order[:i]], dataset)
                for i in range(len(trace))
            )
            for order in permutations(parents)
        )
        slow = oracle_family_score(dataset, w.name, list(w.values), list(parents), alpha)
        assert trace[-1] == pytest.approx(slow, rel=1e-12)
        linked += len(parents) > 0
    assert linked >= 5


def test_family_score_empty_dataset_is_zero():
    assert family_score(binary("w"), [binary("A")], []) == 0.0


def test_family_score_prefers_true_parent_of_determined_word():
    rng = np.random.default_rng(3)
    records = []
    for _ in range(200):
        a = "t" if rng.random() < 0.5 else "f"
        records.append({"A": a, "w": a})
    w, a = binary("w"), binary("A")
    with_parent = family_score(w, [a], records)
    without = family_score(w, [], records)
    assert with_parent > without
    # both values agree with the slow reference implementation
    assert abs(with_parent - oracle_family_score(records, "w", ["f", "t"], ["A"], 1.0)) < 1e-9
    assert abs(without - oracle_family_score(records, "w", ["f", "t"], [], 1.0)) < 1e-9


def test_family_score_order_invariance():
    rng = np.random.default_rng(4)
    records = [
        {"A": rng.choice(["f", "t"]), "w": rng.choice(["f", "t"])} for _ in range(60)
    ]
    w, a = binary("w"), binary("A")
    s1 = family_score(w, [a], records)
    rng.shuffle(records)
    s2 = family_score(w, [a], records)
    assert s1 == s2


def test_family_score_parent_relabeling_invariance():
    rng = np.random.default_rng(9)
    records = [
        {"A": rng.choice(["f", "t"]), "w": rng.choice(["f", "t"])} for _ in range(80)
    ]
    w = binary("w")
    s1 = family_score(w, [Variable("A", ("f", "t"))], records)
    relabeled = [{"A": {"f": "t", "t": "f"}[r["A"]], "w": r["w"]} for r in records]
    s2 = family_score(w, [Variable("A", ("f", "t"))], relabeled)
    assert abs(s1 - s2) < 1e-12


def test_family_score_independent_word_prefers_empty_parents():
    # the word is sampled without looking at the state; over seeded
    # regenerations the empty parent set should win nearly always
    world = default_world()
    wins = 0
    trials = 20
    for seed in range(trials):
        states = sample_experiences(world, 2000, seed)
        rng = np.random.default_rng(1000 + seed)
        records = [dict(s, w="t" if rng.random() < 0.3 else "f") for s in states]
        w = binary("w")
        action = next(v for v in affordance_variables() if v.name == "Action")
        if family_score(w, [], records) > family_score(w, [action], records):
            wins += 1
    assert wins >= 0.95 * trials


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
    score = family_score(word_variable("w"), parents, records)
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
)
def test_batched_word_search_matches_per_word_greedy_reference(seed, n_records, n_words):
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
    affordance = fit_cpts(
        _ORACLE_VARIABLES,
        {},
        encode_columns(_ORACLE_VARIABLES, states),
        ones(states),
        1.0,
    )
    corpus = EncodedCorpus.encode(experiences, _ORACLE_VARIABLES)
    net = learn_word_layer(affordance, corpus)
    searched = _word_layer_parents(net, corpus)
    names = [v.name for v in _ORACLE_VARIABLES]
    for word in words:
        records = [
            dict(e.state, w="present" if word in e.description else "absent")
            for e in experiences
        ]
        expected, ambiguous = oracle_k2_parents(
            records, "w", ["absent", "present"], names, MAX_PARENTS
        )
        if not ambiguous:
            # a word that never occurs has no node, and no parents
            assert searched.get(word, ()) == expected


def _word_layer_parents(net, corpus):
    """The K2 parents of every word of `corpus`, however rarely heard, after
    checking that `net`, its word layer learnt from `corpus`, holds them for
    the words heard often enough to be searched."""
    found = _k2_search(
        _entries(corpus.word_counts[:, :, None]),
        len(corpus.words),
        2,
        [net.variable(n) for n in net.affordance_names()],
        corpus.columns,
        corpus.weights,
        {},
    )
    parents = {w: p for w, (p, _) in zip(corpus.words, found)}
    for word, heard in zip(corpus.words, corpus.word_counts.sum(axis=0).tolist()):
        assert net.parents[word] == (parents[word] if heard >= MIN_WORD_OCCURRENCES else ())
    return parents


def _repeated_corpus(rng, n_states, n_words):
    """Experiences over `_ORACLE_VARIABLES` in which each drawn state
    repeats 1-6 times, each time with its own description; states drawn
    twice repeat more. Word w_i is heard with a probability set by a random
    subset of the variables."""
    rules = [
        ([v.name for v in _ORACLE_VARIABLES if rng.random() < 0.4], {}) for _ in range(n_words)
    ]
    experiences = []
    for _ in range(n_states):
        state = {v.name: v.values[rng.integers(v.cardinality)] for v in _ORACLE_VARIABLES}
        for _ in range(rng.integers(1, 7)):
            bag = set()
            for i, (drivers, rates) in enumerate(rules):
                key = tuple(state[d] for d in drivers)
                if rng.random() < rates.setdefault(key, rng.random()):
                    bag.add(f"w{i}")
            experiences.append(Experience(state=state, description=frozenset(bag)))
    return [experiences[i] for i in rng.permutation(len(experiences))]


def _state_statistics(corpus):
    """Weight and per-word description count of every state with records,
    keyed by the state's value indices."""
    stats = {}
    for s, weight in enumerate(corpus.weights.tolist()):
        if weight:
            key = tuple(int(corpus.columns[v.name][s]) for v in _ORACLE_VARIABLES)
            counts = {w: int(c) for w, c in zip(corpus.words, corpus.word_counts[s]) if c}
            stats[key] = (weight, counts)
    return stats


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_variables=st.integers(1, 3),
    n_states=st.integers(1, 10),
    n_words=st.integers(0, 4),
)
def test_encode_numbers_states_in_configuration_order(seed, n_variables, n_states, n_words):
    # one state per distinct value tuple over the encoded variables (the
    # records also bind the others), numbered in ascending order of its
    # configuration index whatever the order of the records, weighted by
    # its records and counting the words of their descriptions
    variables = _ORACLE_VARIABLES[:n_variables]
    experiences = _repeated_corpus(np.random.default_rng(seed), n_states, n_words)
    corpus = EncodedCorpus.encode(experiences, variables)
    codes = _config_index(variables, corpus.columns, len(corpus.weights))
    assert np.all(np.diff(codes) > 0)
    states = [
        tuple(v.values[corpus.columns[v.name][s]] for v in variables)
        for s in range(len(corpus.weights))
    ]
    key = [tuple(e.state[v.name] for v in variables) for e in experiences]
    assert len(states) == len(set(key))
    assert dict(zip(states, corpus.weights.tolist())) == Counter(key)
    assert list(corpus.words) == sorted({w for e in experiences for w in e.description})
    heard = Counter((k, w) for k, e in zip(key, experiences) for w in e.description)
    assert corpus.word_counts.dtype == corpus.weights.dtype == np.int64
    assert corpus.word_counts.shape == (len(states), len(corpus.words))
    assert {
        (s, w): c
        for s, row in zip(states, corpus.word_counts.tolist())
        for w, c in zip(corpus.words, row)
        if c
    } == heard


@pytest.mark.parametrize(
    "records, message",
    [
        ([{"A": "a0", "B": "b0"}, {"B": "b1"}], "record 1 is missing a value for 'A'"),
        (
            [{"A": "a0", "B": "b9"}, {"A": "a9", "B": "b0"}],
            "record 1 binds 'A' to unknown value 'a9'",
        ),
        ([{"A": "a0", "B": "b0"}, {"A": "a0"}, {"A": "a0", "B": "b9"}], "record 1 is missing"),
    ],
)
def test_encode_names_the_first_record_at_fault(records, message):
    # as the column encoder does: the first variable in declaration order
    # with a bad value, at the first record that has one
    variables = _ORACLE_VARIABLES[:2]
    experiences = [Experience(state=r, description=frozenset()) for r in records]
    with pytest.raises(ValueError, match=message):
        EncodedCorpus.encode(experiences, variables)
    with pytest.raises(ValueError, match=message):
        encode_columns(variables, records)


def test_configuration_memo_is_shared_by_subsets_and_freed_with_the_corpus(clean_corpus):
    corpus = EncodedCorpus.encode(clean_corpus[:300])
    first, second = corpus.subset(np.arange(0, 300, 2)), corpus.subset(np.arange(1, 300, 2))
    assert first._encoding is corpus._encoding is second.subset(np.arange(50))._encoding
    train_model(first)
    memo = corpus._encoding.configs
    seen = dict(memo)
    assert seen
    model = train_model(second)
    # the second subset's model reuses every index the first one made
    assert all(memo[key] is row for key, row in seen.items())
    encoding, row = weakref.ref(corpus._encoding), weakref.ref(next(iter(memo.values())))
    del corpus, first, second, memo, seen
    gc.collect()
    assert encoding() is None and row() is None
    assert model.word_names()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_states=st.integers(1, 12),
    n_words=st.integers(0, 5),
    replace=st.booleans(),
)
def test_subset_matches_encoding_the_selected_records(seed, n_states, n_words, replace):
    # the same words, and per state the same weight and word counts, as
    # encoding the selected experiences from scratch; also for a subset of
    # a subset, and with records selected more than once
    rng = np.random.default_rng(seed)
    experiences = _repeated_corpus(rng, n_states, n_words)
    encoded = EncodedCorpus.encode(experiences, _ORACLE_VARIABLES)
    assert sum(encoded.weights.tolist()) == len(experiences)
    n = len(experiences)
    first = rng.choice(n, size=rng.integers(1, n + 1), replace=replace)
    second = rng.choice(len(first), size=rng.integers(1, len(first) + 1), replace=replace)
    for corpus, records in (
        (encoded.subset(first), [experiences[i] for i in first]),
        (encoded.subset(first).subset(second), [experiences[first[j]] for j in second]),
    ):
        direct = EncodedCorpus.encode(records, _ORACLE_VARIABLES)
        assert corpus.words == direct.words
        assert _state_statistics(corpus) == _state_statistics(direct)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_states=st.integers(1, 12),
    n_words=st.integers(1, 5),
    pseudocount=st.sampled_from([1.0, 0.0]),
)
def test_state_level_training_matches_record_level_counts(seed, n_states, n_words, pseudocount):
    # training on the weighted distinct states gives the word parents the
    # exact-arithmetic oracle finds on the records themselves, and the CPTs
    # and affordance structure that record-level counting gives
    rng = np.random.default_rng(seed)
    experiences = _repeated_corpus(rng, n_states, n_words)
    corpus = EncodedCorpus.encode(experiences, _ORACLE_VARIABLES)
    names = [v.name for v in _ORACLE_VARIABLES]
    states = [e.state for e in experiences]
    state_map = learn_affordance_structure(corpus.columns, corpus.weights, _ORACLE_VARIABLES)
    record_map = learn_affordance_structure(
        encode_columns(_ORACLE_VARIABLES, states), ones(states), _ORACLE_VARIABLES
    )
    assert state_map == record_map
    affordance = fit_cpts(
        _ORACLE_VARIABLES, state_map, corpus.columns, corpus.weights, pseudocount
    )
    net = learn_word_layer(affordance, corpus)
    records = [
        dict(e.state, **{w: "present" if w in e.description else "absent" for w in corpus.words})
        for e in experiences
    ]
    refit = fit_cpts(
        net.variables, net.parents, encode_columns(net.variables, records), ones(records),
        pseudocount,
    )
    for v in net.variables:
        assert np.array_equal(net.cpts[v.name], refit.cpts[v.name])
    searched = _word_layer_parents(net, corpus)
    for word in corpus.words:
        expected, ambiguous = oracle_k2_parents(
            records, word, ["absent", "present"], names, MAX_PARENTS
        )
        if not ambiguous:
            assert searched[word] == expected


def test_structure_owns_the_learning_kernel():
    # counting, fitting and the family score live in `structure` alone:
    # `network` defines none of them, and `structure` reads no private
    # name of `network`
    import ast

    import wordground.network
    import wordground.structure

    kernel = (
        "encode_columns", "_encode_column", "_configs", "_value_entries", "_entries",
        "_count_families", "_cpt", "_group_by", "_fit_families", "fit_cpts", "K2_ALPHA",
        "_score_terms", "_observed_scores", "_record_weights", "family_counts",
        "family_log_score",
    )
    assert not [name for name in kernel if hasattr(wordground.network, name)]
    tree = ast.parse(Path(wordground.structure.__file__).read_text(encoding="utf-8"))
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "network"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


# -- word layer ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def clean_corpus():
    return build_corpus(WORLD, LEXICON, 254, 5, seed=11).experiences


@pytest.fixture(scope="module")
def clean_model(clean_corpus):
    return train_model(clean_corpus)


@pytest.mark.parametrize("learn_structure", [False, True])
def test_train_model_counts_every_record(clean_corpus, learn_structure):
    # each state counts as often as it occurs: the affordance structure and
    # CPTs are those of record-level columns
    experiences = clean_corpus[:300]
    columns = encode_columns(VARIABLES, [e.state for e in experiences])
    net = train_model(experiences, learn_structure=learn_structure)
    parent_map = (
        learn_affordance_structure(columns, ones(experiences), VARIABLES)
        if learn_structure
        else default_affordance_parents()
    )
    refit = fit_cpts(VARIABLES, parent_map, columns, ones(experiences), 1.0)
    for v in VARIABLES:
        assert net.parents[v.name] == refit.parents[v.name]
        assert np.array_equal(net.cpts[v.name], refit.cpts[v.name])


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
    states = [e.state for e in clean_corpus]
    aff = fit_cpts(
        VARIABLES,
        default_affordance_parents(),
        encode_columns(VARIABLES, states),
        ones(states),
        1.0,
    )
    silent = [Experience(state=s, description=frozenset()) for s in states]
    out = learn_word_layer(aff, EncodedCorpus.encode(silent))
    assert out.word_names() == ()
    assert tuple(v.name for v in out.variables) == tuple(v.name for v in aff.variables)
    for v in aff.variables:
        assert np.array_equal(out.cpts[v.name], aff.cpts[v.name])
        assert out.parents[v.name] == aff.parents[v.name]


def test_word_layer_sparse_words_skip_search():
    states = sample_experiences(WORLD, 400, 3)
    experiences = [
        Experience(state=s, description=frozenset(["rare"] if i < 2 else []))
        for i, s in enumerate(states)
    ]
    aff = fit_cpts(
        VARIABLES,
        default_affordance_parents(),
        encode_columns(VARIABLES, [e.state for e in experiences]),
        ones(experiences),
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
    columns = encode_columns(VARIABLES, states)
    parent_map = learn_affordance_structure(columns, ones(states), VARIABLES)
    assert "Action" in parent_map["Contact"] or "HandVel" in parent_map["Contact"]


def test_affordance_structure_leaves_color_isolated():
    states = sample_experiences(WORLD, 1270, 13)
    columns = encode_columns(VARIABLES, states)
    parent_map = learn_affordance_structure(columns, ones(states), VARIABLES)
    assert parent_map["Color"] == ()
    for name, parents in parent_map.items():
        assert "Color" not in parents


def test_affordance_structure_single_record_gives_empty_maps():
    states = sample_experiences(WORLD, 1, 2)
    columns = encode_columns(VARIABLES, states)
    parent_map = learn_affordance_structure(columns, ones(states), VARIABLES)
    assert all(parents == () for parents in parent_map.values())


def test_affordance_structure_respects_ordering():
    states = sample_experiences(WORLD, 1000, 23)
    columns = encode_columns(VARIABLES, states)
    parent_map = learn_affordance_structure(columns, ones(states), VARIABLES)
    order = {v.name: i for i, v in enumerate(VARIABLES)}
    for child, parents in parent_map.items():
        for p in parents:
            assert order[p] < order[child]


# -- report -------------------------------------------------------------------------------


def test_structure_report_header_states_the_search_settings(clean_model):
    header = structure_report(clean_model).splitlines()[1:3]
    assert header == [
        "# max_parents=3 alpha=1 tie_break_ordering="
        "Action,Color,Shape,Size,ObjVel,HandVel,ObjHandVel,Contact",
        "# words seen < 3 times keep an empty parent set",
    ]


def test_structure_report_format(clean_model):
    report = structure_report(clean_model)
    lines = report.splitlines()
    assert lines[0].startswith("#")
    body = [l for l in lines if not l.startswith("#")]
    assert body == sorted(body)
    assert any(l.startswith("green <- Color") for l in body)
    assert any(l == "the <- " or l == "the <-" for l in body)
