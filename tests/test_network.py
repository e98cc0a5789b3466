import gc
import json
import math
import weakref
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wordground.network import (
    WORD_VALUES,
    Network,
    StateTable,
    Variable,
    _cell_states,
    _grid_index,
    affordance_variables,
    default_affordance_parents,
    network_from_json,
    network_to_json,
    word_variable,
)
from wordground.datagen import build_corpus, default_lexicon, default_world
from wordground.inference import NBestList, SceneObject, rescore_nbest, select_action_object
from wordground.structure import encode_columns, fit_cpts, train_model

from oracles import (
    ReferenceStateTable,
    oracle_joint,
    oracle_marginal,
    random_binary_net,
    random_mixed_net,
    to_network,
    with_one_hot_rows,
)
from test_structure import ones


def binary(name):
    return Variable(name, ("f", "t"))


# -- construction -------------------------------------------------------------


def test_make_network_single_node_uniform():
    # A lone root fitted on no records is the uniform distribution.
    variables = [binary("A")]
    net = fit_cpts(variables, {"A": []}, encode_columns(variables, []), ones([]))
    assert np.allclose(net.cpts["A"], [[0.5, 0.5]])


def test_fit_cpts_default_affordance_domain():
    variables = affordance_variables()
    net = fit_cpts(
        variables, default_affordance_parents(), encode_columns(variables, []), ones([])
    )
    assert len(net.variables) == 8
    assert net.parents["ObjVel"] == ("Action", "Shape", "Size")
    assert net.parents["Color"] == ()
    # 3 actions x 2 shapes x 3 sizes parent rows for each conditioned effect
    assert net.cpts["Contact"].shape == (18, 2)


def test_fit_cpts_rejects_cycle():
    variables = [binary("A"), binary("B")]
    with pytest.raises(ValueError, match="cycle"):
        fit_cpts(variables, {"A": ["B"], "B": ["A"]}, encode_columns(variables, []), ones([]))


@pytest.mark.parametrize(
    "names, parents, message",
    [
        ("A", {"A": ["A"]}, "parent 'A' of 'A'"),
        ("ABC", {"A": ["C"], "B": ["A"], "C": ["B"]}, "parent 'C' of 'A'"),
        # acyclic, but the child is declared first
        ("BA", {"B": ["A"]}, "parent 'A' of 'B'"),
    ],
)
def test_fit_cpts_rejects_parent_declared_after_child(names, parents, message):
    variables = [binary(n) for n in names]
    with pytest.raises(ValueError, match=f"{message} is not declared before it"):
        fit_cpts(variables, parents, encode_columns(variables, []), ones([]))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n_nodes=st.integers(1, 5))
def test_network_accepts_exactly_parents_declared_first(data, n_nodes):
    # any parent sets, self-loops and cycles included, in any declaration order
    names = [f"V{i}" for i in range(n_nodes)]
    parents = {
        n: data.draw(st.lists(st.sampled_from(names), unique=True, max_size=3))
        for n in names
    }
    order = data.draw(st.permutations(names))
    cpts = {n: np.full((2 ** len(ps), 2), 0.5) for n, ps in parents.items()}
    ok = all(order.index(p) < order.index(n) for n in names for p in parents[n])
    if ok:
        net = Network([binary(n) for n in order], parents, cpts)
        assert tuple(v.name for v in net.variables) == tuple(order)
    else:
        with pytest.raises(ValueError, match="is not declared before it"):
            Network([binary(n) for n in order], parents, cpts)


def test_fit_cpts_rejects_word_parent_of_word():
    variables = [word_variable("w1"), word_variable("w2")]
    with pytest.raises(ValueError, match="word"):
        fit_cpts(variables, {"w1": ["w2"], "w2": []}, encode_columns(variables, []), ones([]))


def test_fit_cpts_rejects_word_parent_of_state_variable():
    # Words are leaves: the state-table engine sums every unbound word out.
    variables = [binary("A"), word_variable("w")]
    with pytest.raises(ValueError, match="word parent"):
        fit_cpts(variables, {"A": ["w"], "w": []}, encode_columns(variables, []), ones([]))


def test_fit_cpts_rejects_unknown_name():
    variables = [binary("A")]
    with pytest.raises(ValueError, match="unknown variable name 'Nope'"):
        fit_cpts(variables, {"A": ["Nope"]}, encode_columns(variables, []), ones([]))


@pytest.mark.parametrize(
    "parents, cpts, message",
    [
        ({"Typo": []}, {}, "'Typo' in parent map"),
        ({}, {"Other": [[0.5, 0.5]]}, "'Other' in cpts"),
    ],
)
def test_network_rejects_entry_naming_no_variable(parents, cpts, message):
    with pytest.raises(ValueError, match=message):
        Network([binary("A")], parents, {"A": [[0.5, 0.5]], **cpts})


def test_network_maps_are_read_only():
    # a network caches its engine, so its tables must not change after it
    cpts = {"A": [[0.5, 0.5]], "B": [[0.5, 0.5]] * 2}
    net = Network([binary("A"), binary("B")], {"B": ["A"]}, cpts)
    with pytest.raises(TypeError):
        net.cpts["A"] = np.array([[0.9, 0.1]])
    with pytest.raises(TypeError):
        net.parents["B"] = ()
    with pytest.raises(ValueError, match="read-only"):
        net.cpts["A"][0, 0] = 0.9
    assert net.state_table.joint([[]], ["A"]).tolist() == [[0.5, 0.5]]


def test_a_queried_network_is_freed_without_the_cyclic_gc():
    # neither the cached engine nor the scene plan it keeps holds a
    # reference back to the network or to the engine: a cycle would keep
    # every queried model alive until the cyclic GC runs
    corpus = build_corpus(default_world(), default_lexicon(), 40, 3, seed=4).experiences
    scene = [SceneObject("ball", {"Color": "blue", "Size": "small", "Shape": "sphere"})]
    gc.disable()
    try:
        model = train_model(corpus)
        select_action_object(model, {"ball"}, scene)
        rescore_nbest(model, NBestList(((("ball",), 0.5),)), scene)
        refs = [weakref.ref(model), weakref.ref(model.state_table)]
        del model
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_variable_validation():
    with pytest.raises(ValueError):
        Variable("X", ("only",))
    with pytest.raises(ValueError):
        Variable("X", ("a", "a"))
    with pytest.raises(ValueError):
        Variable("w", ("yes", "no"), "word")


# -- fitting --------------------------------------------------------------------


def test_fit_root_laplace_hand_count():
    # 3 of one value, 7 of the other, alpha=1: (3+1)/12 and (7+1)/12
    variables, parents = [binary("A")], {}
    data = [{"A": "f"}] * 3 + [{"A": "t"}] * 7
    fitted = fit_cpts(variables, parents, encode_columns(variables, data), ones(data), 1.0)
    assert np.allclose(fitted.cpts["A"], [[4 / 12, 8 / 12]], atol=1e-15)


def test_fit_empty_dataset_is_uniform():
    variables, parents = [binary("A"), binary("B")], {"B": ["A"]}
    fitted = fit_cpts(variables, parents, encode_columns(variables, []), ones([]), 1.0)
    assert np.allclose(fitted.cpts["A"], [[0.5, 0.5]])
    assert np.allclose(fitted.cpts["B"], [[0.5, 0.5], [0.5, 0.5]])


def test_fit_deterministic_child_small_alpha():
    variables, parents = [binary("A"), binary("B")], {"B": ["A"]}
    data = [{"A": "f", "B": "f"}] * 50 + [{"A": "t", "B": "t"}] * 50
    fitted = fit_cpts(variables, parents, encode_columns(variables, data), ones(data), 0.001)
    assert fitted.cpts["B"][0][0] >= 0.99998
    assert fitted.cpts["B"][1][1] >= 0.99998


def test_fit_rows_sum_to_one():
    rng = np.random.default_rng(5)
    variables = [binary("A"), Variable("B", ("x", "y", "z")), binary("C")]
    parents = {"B": ["A"], "C": ["A", "B"]}
    data = [
        {"A": rng.choice(["f", "t"]), "B": rng.choice(["x", "y", "z"]), "C": rng.choice(["f", "t"])}
        for _ in range(200)
    ]
    for alpha in (0.3, 1.0, 2.5):
        fitted = fit_cpts(variables, parents, encode_columns(variables, data), ones(data), alpha)
        for name, table in fitted.cpts.items():
            assert np.all(np.abs(table.sum(axis=1) - 1.0) < 1e-12)
            assert np.all(table > 0)


def test_fit_zero_pseudocount_gives_exact_zeros_and_uniform_unseen_rows():
    variables, parents = [binary("A"), binary("B")], {"B": ["A"]}
    data = [{"A": "f", "B": "f"}] * 10
    fitted = fit_cpts(variables, parents, encode_columns(variables, data), ones(data), 0.0)
    assert fitted.cpts["B"][0][1] == 0.0  # B=t never seen under A=f
    assert np.allclose(fitted.cpts["B"][1], [0.5, 0.5])  # A=t row never observed


def test_fit_rejects_bad_records():
    with pytest.raises(ValueError, match="missing"):
        encode_columns([binary("A")], [{}])
    with pytest.raises(ValueError, match="unknown value"):
        encode_columns([binary("A")], [{"A": "zebra"}])


def record_level_cpt(values_map, parents, name, records, a):
    """CPT of `name` counted record by record: (count + a) / (row total +
    a * r), and a uniform row for a configuration no record has at a = 0."""
    values = values_map[name]
    counts = [[0] * len(values) for _ in range(math.prod(len(values_map[p]) for p in parents))]
    for rec in records:
        row = 0
        for p in parents:
            row = row * len(values_map[p]) + values_map[p].index(rec[p])
        counts[row][values.index(rec[name])] += 1
    return [
        [1.0 / len(values)] * len(values)
        if a == 0 and not sum(row)
        else [(c + a) / (sum(row) + a * len(values)) for c in row]
        for row in counts
    ]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_nodes=st.integers(1, 5),
    n_records=st.integers(0, 40),
    pseudocount=st.sampled_from([0.0, 1.0, 0.25]),
)
def test_fit_cpts_equals_record_level_count(seed, n_nodes, n_records, pseudocount):
    # fitted from weighted distinct states, every CPT is bit for bit the
    # one counted record by record, under a random parent map whose parent
    # lists come out of declaration order; few records leave configurations
    # unobserved
    rng = np.random.default_rng(seed)
    values_map, parents_map, _ = random_mixed_net(rng, n_nodes)
    variables = [
        Variable(n, tuple(v), "word" if tuple(v) == WORD_VALUES else "feature")
        for n, v in values_map.items()
    ]
    records = [
        {n: v[rng.integers(len(v))] for n, v in values_map.items()} for _ in range(n_records)
    ]
    distinct = {}
    for rec in records:
        key = tuple(rec.values())
        distinct[key] = distinct.get(key, 0) + 1
    states = [dict(zip(values_map, key)) for key in distinct]
    weights = np.array(list(distinct.values()), dtype=np.int64)
    fitted = fit_cpts(
        variables, parents_map, encode_columns(variables, states), weights, pseudocount
    )
    for name, parents in parents_map.items():
        expected = record_level_cpt(values_map, parents, name, records, pseudocount)
        assert fitted.cpts[name].tolist() == expected


@pytest.mark.parametrize("pseudocount", [float("nan"), float("inf"), -1.0])
def test_fit_rejects_non_finite_or_negative_pseudocount(pseudocount):
    variables, parents = [binary("A"), binary("B")], {"B": ["A"]}
    with pytest.raises(ValueError, match="pseudocount must be a finite number >= 0"):
        data = [{"A": "f", "B": "t"}]
        fit_cpts(variables, parents, encode_columns(variables, data), ones(data), pseudocount)


# -- engine: joint and posterior of word bags -----------------------------------


def test_joint_single_uniform_node():
    net = Network([binary("A")], {}, {"A": [[0.5, 0.5]]})
    assert StateTable(net).joint([[]], ["A"]).tolist() == [[0.5, 0.5]]


def test_joint_three_node_chain_hand_product():
    a, b, c = binary("A"), binary("B"), binary("C")
    cpts = {
        "A": np.array([[0.7, 0.3]]),
        "B": np.array([[0.8, 0.2], [0.3, 0.7]]),
        "C": np.array([[0.6, 0.4], [0.1, 0.9]]),
    }
    net = Network([a, b, c], {"A": [], "B": ["A"], "C": ["B"]}, cpts)
    # hand product: p(A=t) * p(B=t|A=t) * p(C=f|B=t) = 0.3 * 0.7 * 0.1
    assert abs(StateTable(net).joint([[]], ["A", "B", "C"])[0, 1, 1, 0] - 0.021) < 1e-15


def test_joint_deterministic_chain_forced_path():
    a, b = binary("A"), binary("B")
    cpts = {"A": np.array([[1.0, 0.0]]), "B": np.array([[1.0, 0.0], [0.0, 1.0]])}
    net = Network([a, b], {"A": [], "B": ["A"]}, cpts, pseudocount=0.0)
    assert StateTable(net).joint([[]], ["A", "B"])[0, 0, 0] == 1.0


def test_marginal_of_root_is_cpt_row():
    variables, parents = [Variable("A", ("x", "y", "z")), binary("B")], {"B": ["A"]}
    data = [{"A": "x", "B": "f"}] * 5 + [{"A": "y", "B": "t"}] * 3 + [{"A": "z", "B": "f"}] * 2
    fitted = fit_cpts(variables, parents, encode_columns(variables, data), ones(data), 1.0)
    dist = StateTable(fitted).posterior([[]], ["A"])[0]
    assert np.abs(dist - fitted.cpts["A"][0]).max() < 1e-12


def said_only_when_a_is_t():
    """B copies A; the word w is said exactly when A = t."""
    a, b, w = binary("A"), binary("B"), word_variable("w")
    cpts = {
        "B": np.array([[1.0, 0.0], [0.0, 1.0]]),
        "w": np.array([[1.0, 0.0], [0.0, 1.0]]),
    }
    return [a, b, w], {"A": [], "B": ["A"], "w": ["A"]}, cpts


def test_marginal_point_mass_when_evidence_determines_query():
    variables, parents, cpts = said_only_when_a_is_t()
    net = Network(variables, parents, {**cpts, "A": np.array([[0.4, 0.6]])}, pseudocount=0.0)
    assert StateTable(net).posterior([["w"]], ["B"]).tolist() == [[0.0, 1.0]]


def test_marginal_zero_probability_evidence_returns_all_zero():
    variables, parents, cpts = said_only_when_a_is_t()
    net = Network(variables, parents, {**cpts, "A": np.array([[1.0, 0.0]])}, pseudocount=0.0)
    assert StateTable(net).posterior([["w"]], ["B"]).tolist() == [[0.0, 0.0]]


def test_state_table_refuses_a_bag_name_that_is_not_a_word():
    variables, parents, cpts = said_only_when_a_is_t()
    net = Network(variables, parents, {**cpts, "A": np.array([[0.4, 0.6]])})
    for name in ("A", "zebra"):
        with pytest.raises(ValueError, match="is not a word of the network"):
            StateTable(net).joint([["w"], [name]], ["B"])


@pytest.mark.parametrize(
    "query, cells, at, message",
    [
        ("joint", ["Nope"], None, "cell 'Nope' is not a variable of the network"),
        ("posterior", ["Nope"], None, "cell 'Nope' is not a variable of the network"),
        ("joint_at", ["Nope"], [0], "cell 'Nope' is not a variable of the network"),
        ("joint", ["B", "w"], None, "cell 'w' is a word"),
        ("posterior", ["B", "w"], None, "cell 'w' is a word"),
        ("joint_at", ["B", "w"], [0], "cell 'w' is a word"),
        ("joint", ["A", "B", "A"], None, "cell 'A' is repeated"),
        ("posterior", ["A", "B", "A"], None, "cell 'A' is repeated"),
        ("joint_at", ["A", "B", "A"], [0], "cell 'A' is repeated"),
        ("joint_at", ["A", "B"], [0, -1], r"cell index -1 is outside \[0, 4\)"),
        ("joint_at", ["A", "B"], [4, 0], r"cell index 4 is outside \[0, 4\)"),
    ],
)
def test_engine_refuses_bad_cells_naming_them(query, cells, at, message):
    # "joint_at" is the joint at chosen cells, through their selection
    variables, parents, cpts = said_only_when_a_is_t()
    table = StateTable(Network(variables, parents, {**cpts, "A": np.array([[0.4, 0.6]])}))
    with pytest.raises(ValueError, match=message):
        if query == "joint_at":
            table.cells_at(cells, at).joint([["w"], []])
        else:
            getattr(table, query)([["w"], []], cells)


def test_marginal_full_query_sums_to_one():
    rng = np.random.default_rng(2)
    raw = random_binary_net(rng, 5)
    net = to_network(*raw)
    assert abs(StateTable(net).joint([[]], list(raw[0])).sum() - 1.0) < 1e-9


def test_marginal_matches_bruteforce_on_random_nets():
    rng = np.random.default_rng(7)
    for _ in range(10):
        values_map, parents_map, cpt_map = random_mixed_net(rng, 5)
        net = to_network(values_map, parents_map, cpt_map)
        names, words = net.affordance_names(), net.word_names()
        query = [names[1], names[3]]
        got = StateTable(net).posterior([words], query)[0]
        expected = oracle_marginal(values_map, parents_map, cpt_map, query, words)
        assert np.abs(got - expected).max() < 1e-12


def non_word_states(net, values_map):
    """Every state of the non-word variables as (assignment, grid index)."""
    names = net.affordance_names()
    for idx in product(*(range(len(values_map[n])) for n in names)):
        yield {n: values_map[n][i] for n, i in zip(names, idx)}, idx


def test_marginal_and_joint_match_bruteforce_on_nets_with_exact_zeros():
    # every word leaf is in the bag, and one-hot rows make some bags
    # impossible: the oracle's all-zero table must come back exactly
    worst = 0.0
    all_zero_cases = 0
    for trial in range(300):
        rng = np.random.default_rng(1000 + trial)
        values_map, parents_map, cpt_map = random_mixed_net(rng, int(rng.integers(2, 7)))
        cpt_map = with_one_hot_rows(rng, cpt_map)
        net = to_network(values_map, parents_map, cpt_map)
        names, words = list(net.affordance_names()), list(net.word_names())
        table = StateTable(net)

        joint = table.joint([words], names)[0]
        for state, idx in non_word_states(net, values_map):
            bound = dict(state, **{w: "present" for w in words})
            want = oracle_joint(values_map, parents_map, cpt_map, bound)
            worst = max(worst, abs(joint[idx] - want))

        order = [names[j] for j in rng.permutation(len(names))]
        query = order[: int(rng.integers(1, min(3, len(names)) + 1))]
        got = table.posterior([words], query)[0]
        want = oracle_marginal(values_map, parents_map, cpt_map, query, words)
        if not want.any():
            all_zero_cases += 1
            assert not got.any()
        worst = max(worst, np.abs(got - want).max())
    assert worst < 1e-12
    assert all_zero_cases >= 10


def test_marginal_and_joint_match_bruteforce_on_mixed_nets_with_word_evidence():
    # Cardinalities 2-4, parent lists out of declaration order and a random
    # bag of the word leaves: every family enters the state table as a
    # transposed factor, and each word as its CPT column.
    worst = 0.0
    for trial in range(200):
        rng = np.random.default_rng(2000 + trial)
        values_map, parents_map, cpt_map = random_mixed_net(rng, int(rng.integers(2, 5)))
        net = to_network(values_map, parents_map, cpt_map)
        names = list(net.affordance_names())
        bag = [w for w in net.word_names() if rng.random() < 0.5]
        table = StateTable(net)

        prior = table.joint([[]], names)[0]
        plain = {n: values_map[n] for n in names}
        for state, idx in non_word_states(net, values_map):
            worst = max(worst, abs(prior[idx] - oracle_joint(plain, parents_map, cpt_map, state)))

        order = [names[j] for j in rng.permutation(len(names))]
        query = order[: int(rng.integers(1, min(2, len(names)) + 1))]
        got = table.posterior([bag], query)[0]
        want = oracle_marginal(values_map, parents_map, cpt_map, query, bag)
        worst = max(worst, np.abs(got - want).max())
    assert worst < 1e-12


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mixed=st.booleans(), data=st.data())
def test_state_table_batches_equal_the_reference_engine(seed, mixed, data):
    # One-hot rows make some bags impossible; mixed nets add unequal
    # cardinalities, shuffled parent lists and the word leaves.
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(1, 5))
    make = random_mixed_net if mixed else random_binary_net
    values_map, parents_map, cpt_map = make(rng, n_nodes)
    net = to_network(values_map, parents_map, with_one_hot_rows(rng, cpt_map))
    names, words = list(values_map), list(net.word_names())
    bag = st.lists(st.sampled_from(words), max_size=4) if words else st.just([])
    drawn = data.draw(st.lists(bag, min_size=1, max_size=5))
    # the words against sorted order, then an empty, a repeated and a full
    # bag, the last often impossible
    batch = [words[::-1]] + drawn + [[], drawn[0], words]
    cells = data.draw(st.permutations(net.affordance_names()))[: data.draw(st.integers(0, 3))]

    table, reference = StateTable(net), ReferenceStateTable(net)
    joint, post = table.joint(batch, cells), table.posterior(batch, cells)
    shape = tuple(len(values_map[c]) for c in cells)
    assert joint.shape == post.shape == (len(batch),) + shape
    for i, bag in enumerate(batch):
        assert np.array_equal(joint[i], reference.joint(bag, cells))
        assert np.array_equal(post[i], reference.posterior(bag, cells))
        assert np.array_equal(joint[i], table.joint([bag], cells)[0])
        assert np.array_equal(post[i], table.posterior([bag], cells)[0])

    grid = dict(zip(table.names, np.indices(table.shape).reshape(len(table.shape), -1)))
    for name in names:
        family = net.parents[name] + (() if name in words else (name,))
        index = _grid_index(tuple(zip(table.names, table.shape)), family)
        assert not index.flags.writeable
        expected = np.ravel_multi_index(
            [grid[n] for n in family], [len(values_map[n]) for n in family]
        )
        assert index.shape == (table.p_x.size,) and np.all(index == expected)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), prefix=st.booleans(), data=st.data())
def test_joint_at_equals_joint_at_the_cells(seed, prefix, data):
    # A selection's joint at chosen cells (`cells_at`) against `joint`.
    # Cells that are a permutation of the table's leading variables hold
    # their states contiguously and sum them in grid order, as `joint` does:
    # bitwise equal. Other cells sum the same products in another order.
    rng = np.random.default_rng(seed)
    values_map, parents_map, cpt_map = random_mixed_net(rng, int(rng.integers(1, 5)))
    net = to_network(values_map, parents_map, with_one_hot_rows(rng, cpt_map))
    names, words = list(net.affordance_names()), list(net.word_names())
    drawn = data.draw(st.lists(st.lists(st.sampled_from(words), max_size=4), min_size=1, max_size=4))
    # an empty, a repeated and an all-word bag, the last often impossible
    batch = drawn + [[], drawn[0], words]
    if prefix:
        cells = data.draw(st.permutations(names[: data.draw(st.integers(0, len(names)))]))
    else:
        cells = data.draw(st.permutations(names))[: data.draw(st.integers(0, 3))]
    n_cells = math.prod(len(values_map[c]) for c in cells)
    at = data.draw(st.lists(st.integers(0, n_cells - 1), max_size=2 * n_cells))

    table = StateTable(net)
    axes = tuple(zip(table.names, table.shape))
    states = _cell_states(axes, tuple(cells))
    assert states.shape[0] == n_cells
    # row k: the states of configuration k, in grid order
    assert np.all(_grid_index(axes, tuple(cells))[states].T == np.arange(n_cells))
    assert np.all(np.diff(states, axis=1) > 0)
    selection = table.cells_at(cells, at)
    # a configuration requested more than once is scored once
    assert selection.p_x.size == len(set(at)) * states.shape[1]
    got = selection.joint(batch)
    want = table.joint(batch, cells).reshape(len(batch), -1)[:, at]
    # the prior is the joint of the empty bag, bitwise as it is summed
    assert np.array_equal(selection.prior, got[len(drawn)])
    assert got.shape == (len(batch), len(at))
    if prefix:
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
    # a sum of the same non-negative products is zero in either order or in
    # neither, so an impossible bag's row stays exactly zero
    assert np.array_equal(got == 0, want == 0)


def test_joint_summed_over_completions_matches_marginal():
    # exhaustive consistency on a small random net: summing the joint of
    # every variable over all completions of the query variables equals the
    # joint of the query variables alone
    rng = np.random.default_rng(11)
    values_map, parents_map, cpt_map = random_binary_net(rng, 6)
    net = to_network(values_map, parents_map, cpt_map)
    names = list(values_map)
    table = StateTable(net)
    dist, full = table.joint([[]], names[:2])[0], table.joint([[]], names)[0]
    for qidx in product((0, 1), repeat=2):
        total = 0.0
        for hidx in product((0, 1), repeat=len(names) - 2):
            total += full[qidx + hidx]
        assert abs(dist[qidx] - total) < 1e-12


# -- model file -----------------------------------------------------------------------


def test_model_file_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(21)
    raw = random_binary_net(rng, 4)
    net = to_network(*raw)
    text = network_to_json(net)
    again = network_to_json(network_from_json(text))
    assert text == again

    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    loaded = network_from_json(path.read_text(encoding="utf-8"))
    for name in raw[0]:
        assert np.array_equal(loaded.cpts[name], net.cpts[name])
        assert loaded.parents[name] == net.parents[name]
    assert loaded.pseudocount == net.pseudocount


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_nodes=st.integers(1, 6),
    one_hot=st.booleans(),
    negative_zero=st.booleans(),
)
@example(seed=0, n_nodes=3, one_hot=True, negative_zero=True)
def test_model_file_roundtrip_property(seed, n_nodes, one_hot, negative_zero):
    # one-hot rows put exact zeros and ones into the file; negative zero,
    # as the pseudocount and in place of every zero entry, is written as 0
    rng = np.random.default_rng(seed)
    values_map, parents_map, cpt_map = random_binary_net(rng, n_nodes)
    if one_hot:
        cpt_map = with_one_hot_rows(rng, cpt_map)
    net = to_network(values_map, parents_map, cpt_map)
    if negative_zero:
        cpts = {n: np.where(t == 0.0, -0.0, t) for n, t in net.cpts.items()}
        net = Network(net.variables, net.parents, cpts, pseudocount=-0.0)
    text = network_to_json(net)
    loaded = network_from_json(text)
    assert network_to_json(loaded) == text
    assert math.copysign(1.0, loaded.pseudocount) == 1.0
    for name in values_map:
        assert loaded.cpts[name].tobytes() == (net.cpts[name] + 0.0).tobytes()


def test_model_file_roundtrip_fitted_domain_net():
    record = {
        "Action": "grasp",
        "Color": "blue",
        "Shape": "sphere",
        "Size": "small",
        "ObjVel": "fast",
        "HandVel": "fast",
        "ObjHandVel": "slow",
        "Contact": "long",
    }
    net = fit_cpts(
        affordance_variables(),
        default_affordance_parents(),
        encode_columns(affordance_variables(), [record] * 3),
        ones([record] * 3),
        1.0,
    )
    text = network_to_json(net)
    assert network_to_json(network_from_json(text)) == text


def fitted_domain_json():
    net = fit_cpts(
        affordance_variables(),
        default_affordance_parents(),
        encode_columns(affordance_variables(), []),
        ones([]),
        1.0,
    )
    return json.loads(network_to_json(net))


@pytest.mark.parametrize(
    "row, message",
    [
        ([float("nan"), 0.5, 0.5], "non-finite or negative"),
        ([float("inf"), 0.0, 0.0], "non-finite or negative"),
        ([1.5, -0.5, 0.0], "non-finite or negative"),
        ([0.5, 0.5, 0.5], "sum to 1"),
        ([0.3, 0.3, 0.3], "sum to 1"),
    ],
)
def test_model_file_rejects_invalid_cpt_rows(row, message):
    obj = fitted_domain_json()
    obj["cpts"]["Action"] = [row]
    with pytest.raises(ValueError, match=message):
        network_from_json(json.dumps(obj))


def test_model_file_accepts_rows_within_tolerance():
    obj = fitted_domain_json()
    obj["cpts"]["Action"] = [[0.5, 0.25, 0.25 + 1e-12]]
    assert network_from_json(json.dumps(obj)).cpts["Action"][0][2] == 0.25 + 1e-12


@pytest.mark.parametrize(
    "drop",
    [
        ("variables",),
        ("parents",),
        ("cpts",),
        ("pseudocount",),
        ("parents", "Contact"),
        ("cpts", "Contact"),
        ("variables", 0, "kind"),
    ],
)
def test_model_file_rejects_missing_keys(drop):
    obj = fitted_domain_json()
    parent = obj
    for key in drop[:-1]:
        parent = parent[key]
    del parent[drop[-1]]
    with pytest.raises(ValueError, match="missing"):
        network_from_json(json.dumps(obj))


# a value that stands for the entry already there, written twice: a plain
# `json.loads` would keep the second
TWICE = "<the entry, twice>"


@pytest.mark.parametrize(
    "path, value, message",
    [
        ((), [], "top level"),
        ((), "model", "top level"),
        (("variables",), 5, "variables"),
        (("variables",), ["Action"], "variables"),
        (("variables", 2, "values"), "sb", "values"),
        (("variables", 2, "values"), ["sphere", 1], "values"),
        (("variables", 0, "name"), ["Action"], "name"),
        (("parents",), [], "parents"),
        (("parents", "ObjVel"), None, "parents"),
        (("parents", "Action"), "", "parents"),
        (("cpts",), [], "cpts"),
        (("cpts", "Action"), {"row": [1.0, 0.0, 0.0]}, "Action"),
        (("pseudocount",), None, "pseudocount"),
        (("pseudocount",), float("nan"), "pseudocount"),
        (("pseudocount",), float("inf"), "pseudocount"),
        (("pseudocount",), -3, "pseudocount"),
        (("pseudocount",), "1", "pseudocount"),
        (("pseudocount",), True, "pseudocount"),
        (("parents", "Typo"), ["Action"], "parents has unknown key 'Typo'"),
        (("cpts", "Typo"), [[0.5, 0.5]], "cpts has unknown key 'Typo'"),
        (("comment",), "fitted", "top level has unknown key 'comment'"),
        (("cpts", "Action"), TWICE, "duplicate key 'Action'"),
        (("variables", 0, "kind"), TWICE, "duplicate key 'kind'"),
        (("variables", 0, "nmae"), "Actoin", "variables has unknown key 'nmae'"),
        (("cpts", "Action"), [[1.0, False, 0.0]], "entry False, not a number"),
        (("cpts", "Action"), [[1.0, 0, None]], "entry None, not a number"),
        (("cpts", "Action"), [1.0, 0.0, 0.0], "CPT for 'Action' must be a list of rows"),
        # a JSON integer too large for a float
        (("cpts", "Action"), [[10**400, 0, 0]], "CPT for 'Action' is not a table of numbers"),
    ],
)
def test_model_file_rejects_malformed_fields(path, value, message):
    obj = fitted_domain_json()
    if path:
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        entry = json.dumps({path[-1]: parent.get(path[-1])})[1:-1]
        parent[path[-1]] = value
    else:
        obj = value
    text = json.dumps(obj)
    if value == TWICE:
        text = text.replace(json.dumps({path[-1]: TWICE})[1:-1], f"{entry}, {entry}")
    with pytest.raises(ValueError, match=message):
        network_from_json(text)
