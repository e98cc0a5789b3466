import json
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordground.network import (
    Network,
    StateTable,
    Variable,
    _grid_index,
    affordance_variables,
    default_affordance_parents,
    encode_columns,
    family_log_score,
    fit_cpts,
    joint_probability,
    make_network,
    marginal,
    network_from_json,
    network_to_json,
    word_variable,
)

from oracles import (
    ReferenceStateTable,
    oracle_family_score,
    oracle_joint,
    oracle_marginal,
    random_binary_net,
    random_mixed_net,
    to_network,
    with_one_hot_rows,
)


def binary(name):
    return Variable(name, ("f", "t"))


# -- construction -------------------------------------------------------------


def test_make_network_single_node_uniform():
    net = make_network([binary("A")], {"A": []})
    assert np.allclose(net.cpts["A"], [[0.5, 0.5]])


def test_make_network_default_affordance_domain():
    net = make_network(affordance_variables(), default_affordance_parents())
    assert len(net.variables) == 8
    assert net.parents["ObjVel"] == ("Action", "Shape", "Size")
    assert net.parents["Color"] == ()
    # 3 actions x 2 shapes x 3 sizes parent rows for each conditioned effect
    assert net.cpts["Contact"].shape == (18, 2)


def test_make_network_rejects_cycle():
    with pytest.raises(ValueError, match="cycle"):
        make_network([binary("A"), binary("B")], {"A": ["B"], "B": ["A"]})


def test_make_network_rejects_word_parent_of_word():
    with pytest.raises(ValueError, match="word"):
        make_network(
            [word_variable("w1"), word_variable("w2")], {"w1": ["w2"], "w2": []}
        )


def test_make_network_rejects_word_parent_of_state_variable():
    # Words are leaves: the state-table engine sums every unbound word out.
    with pytest.raises(ValueError, match="word parent"):
        make_network([binary("A"), word_variable("w")], {"A": ["w"], "w": []})


def test_make_network_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown"):
        make_network([binary("A")], {"A": ["Nope"]})


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
    net = make_network([binary("A")], {"A": []})
    data = [{"A": "f"}] * 3 + [{"A": "t"}] * 7
    fitted = fit_cpts(net, encode_columns(net.variables, data), 1.0)
    assert np.allclose(fitted.cpts["A"], [[4 / 12, 8 / 12]], atol=1e-15)


def test_fit_empty_dataset_is_uniform():
    net = make_network([binary("A"), binary("B")], {"A": [], "B": ["A"]})
    fitted = fit_cpts(net, encode_columns(net.variables, []), 1.0)
    assert np.allclose(fitted.cpts["A"], [[0.5, 0.5]])
    assert np.allclose(fitted.cpts["B"], [[0.5, 0.5], [0.5, 0.5]])


def test_fit_deterministic_child_small_alpha():
    net = make_network([binary("A"), binary("B")], {"A": [], "B": ["A"]})
    data = [{"A": "f", "B": "f"}] * 50 + [{"A": "t", "B": "t"}] * 50
    fitted = fit_cpts(net, encode_columns(net.variables, data), 0.001)
    assert fitted.cpts["B"][0][0] >= 0.99998
    assert fitted.cpts["B"][1][1] >= 0.99998


def test_fit_rows_sum_to_one():
    rng = np.random.default_rng(5)
    net = make_network(
        [binary("A"), Variable("B", ("x", "y", "z")), binary("C")],
        {"A": [], "B": ["A"], "C": ["A", "B"]},
    )
    data = [
        {"A": rng.choice(["f", "t"]), "B": rng.choice(["x", "y", "z"]), "C": rng.choice(["f", "t"])}
        for _ in range(200)
    ]
    for alpha in (0.3, 1.0, 2.5):
        fitted = fit_cpts(net, encode_columns(net.variables, data), alpha)
        for name, table in fitted.cpts.items():
            assert np.all(np.abs(table.sum(axis=1) - 1.0) < 1e-12)
            assert np.all(table > 0)


def test_fit_zero_pseudocount_gives_exact_zeros_and_uniform_unseen_rows():
    net = make_network([binary("A"), binary("B")], {"A": [], "B": ["A"]})
    data = [{"A": "f", "B": "f"}] * 10
    fitted = fit_cpts(net, encode_columns(net.variables, data), 0.0)
    assert fitted.cpts["B"][0][1] == 0.0  # B=t never seen under A=f
    assert np.allclose(fitted.cpts["B"][1], [0.5, 0.5])  # A=t row never observed


def test_fit_rejects_bad_records():
    net = make_network([binary("A")], {"A": []})
    with pytest.raises(ValueError, match="missing"):
        encode_columns(net.variables, [{}])
    with pytest.raises(ValueError, match="unknown value"):
        encode_columns(net.variables, [{"A": "zebra"}])


@pytest.mark.parametrize("pseudocount", [float("nan"), float("inf"), -1.0])
def test_fit_rejects_non_finite_or_negative_pseudocount(pseudocount):
    net = make_network([binary("A"), binary("B")], {"A": [], "B": ["A"]})
    with pytest.raises(ValueError, match="pseudocount must be a finite number >= 0"):
        fit_cpts(net, encode_columns(net.variables, [{"A": "f", "B": "t"}]), pseudocount)


# -- joint probability -------------------------------------------------------------


def test_joint_single_uniform_node():
    net = make_network([binary("A")], {"A": []})
    assert joint_probability(net, {"A": "f"}) == 0.5


def test_joint_three_node_chain_hand_product():
    a, b, c = binary("A"), binary("B"), binary("C")
    cpts = {
        "A": np.array([[0.7, 0.3]]),
        "B": np.array([[0.8, 0.2], [0.3, 0.7]]),
        "C": np.array([[0.6, 0.4], [0.1, 0.9]]),
    }
    net = Network([a, b, c], {"A": [], "B": ["A"], "C": ["B"]}, cpts)
    # hand product: p(A=t) * p(B=t|A=t) * p(C=f|B=t) = 0.3 * 0.7 * 0.1
    assert abs(joint_probability(net, {"A": "t", "B": "t", "C": "f"}) - 0.021) < 1e-15


def test_joint_deterministic_chain_forced_path():
    a, b = binary("A"), binary("B")
    cpts = {"A": np.array([[1.0, 0.0]]), "B": np.array([[1.0, 0.0], [0.0, 1.0]])}
    net = Network([a, b], {"A": [], "B": ["A"]}, cpts, pseudocount=0.0)
    assert joint_probability(net, {"A": "f", "B": "f"}) == 1.0


def test_joint_rejects_partial_assignment():
    net = make_network([binary("A"), binary("B")], {"A": [], "B": []})
    with pytest.raises(ValueError, match="partial"):
        joint_probability(net, {"A": "f"})


# -- marginal -----------------------------------------------------------------------


def test_marginal_of_root_is_cpt_row():
    net = make_network([Variable("A", ("x", "y", "z")), binary("B")], {"A": [], "B": ["A"]})
    data = [{"A": "x", "B": "f"}] * 5 + [{"A": "y", "B": "t"}] * 3 + [{"A": "z", "B": "f"}] * 2
    fitted = fit_cpts(net, encode_columns(net.variables, data), 1.0)
    dist = marginal(fitted, ["A"])
    for i, value in enumerate(("x", "y", "z")):
        assert abs(dist[(value,)] - fitted.cpts["A"][0][i]) < 1e-12


def test_marginal_point_mass_when_evidence_determines_query():
    a, b = binary("A"), binary("B")
    cpts = {"A": np.array([[0.4, 0.6]]), "B": np.array([[1.0, 0.0], [0.0, 1.0]])}
    net = Network([a, b], {"A": [], "B": ["A"]}, cpts, pseudocount=0.0)
    dist = marginal(net, ["B"], {"A": "t"})
    assert dist == {("f",): 0.0, ("t",): 1.0}


def test_marginal_zero_probability_evidence_returns_all_zero():
    a, b = binary("A"), binary("B")
    cpts = {"A": np.array([[1.0, 0.0]]), "B": np.array([[0.5, 0.5], [0.5, 0.5]])}
    net = Network([a, b], {"A": [], "B": ["A"]}, cpts, pseudocount=0.0)
    dist = marginal(net, ["B"], {"A": "t"})
    assert dist == {("f",): 0.0, ("t",): 0.0}


def test_marginal_rejects_query_evidence_overlap():
    net = make_network([binary("A")], {"A": []})
    with pytest.raises(ValueError, match="overlap"):
        marginal(net, ["A"], {"A": "f"})


def test_marginal_full_query_sums_to_one():
    rng = np.random.default_rng(2)
    raw = random_binary_net(rng, 5)
    net = to_network(*raw)
    dist = marginal(net, list(raw[0]))
    assert abs(sum(dist.values()) - 1.0) < 1e-9


def test_marginal_matches_bruteforce_on_random_nets():
    rng = np.random.default_rng(7)
    for _ in range(10):
        values_map, parents_map, cpt_map = random_binary_net(rng, 5)
        net = to_network(values_map, parents_map, cpt_map)
        names = list(values_map)
        query = [names[1], names[3]]
        evidence = {names[0]: "t"}
        got = marginal(net, query, evidence)
        expected = oracle_marginal(values_map, parents_map, cpt_map, query, evidence)
        for key, value in expected.items():
            assert abs(got[key] - value) < 1e-12


def test_marginal_and_joint_match_bruteforce_on_nets_with_exact_zeros():
    worst = 0.0
    all_zero_cases = 0
    for trial in range(300):
        rng = np.random.default_rng(1000 + trial)
        n_nodes = int(rng.integers(2, 7))
        values_map, parents_map, cpt_map = random_binary_net(rng, n_nodes)
        cpt_map = with_one_hot_rows(rng, cpt_map)
        net = to_network(values_map, parents_map, cpt_map)
        names = list(values_map)

        assignment = {n: ("f", "t")[rng.integers(2)] for n in names}
        got = joint_probability(net, assignment)
        worst = max(worst, abs(got - oracle_joint(values_map, parents_map, cpt_map, assignment)))

        order = list(rng.permutation(names))
        k = int(rng.integers(1, min(3, n_nodes) + 1))
        query = order[:k]
        evidence = {n: ("f", "t")[rng.integers(2)] for n in order[k : k + 2]}
        got_dist = marginal(net, query, evidence)
        want_dist = oracle_marginal(values_map, parents_map, cpt_map, query, evidence)
        if sum(want_dist.values()) == 0.0:
            all_zero_cases += 1
            assert all(value == 0.0 for value in got_dist.values())
        for key, value in want_dist.items():
            worst = max(worst, abs(got_dist[key] - value))
    assert worst < 1e-12
    assert all_zero_cases >= 10


def test_marginal_and_joint_match_bruteforce_on_mixed_nets_with_word_evidence():
    # Cardinalities 2-4, parent lists out of declaration order and word
    # leaves bound as evidence: every family enters the state table as a
    # transposed factor, and each word as its CPT column.
    worst = 0.0
    for trial in range(200):
        rng = np.random.default_rng(2000 + trial)
        values_map, parents_map, cpt_map = random_mixed_net(rng, int(rng.integers(2, 5)))
        net = to_network(values_map, parents_map, cpt_map)
        names = list(net.affordance_names())
        words = list(net.word_names())
        pick = {n: vals[rng.integers(len(vals))] for n, vals in values_map.items()}

        got = joint_probability(net, pick)
        worst = max(worst, abs(got - oracle_joint(values_map, parents_map, cpt_map, pick)))

        order = [names[j] for j in rng.permutation(len(names))]
        k = int(rng.integers(1, min(2, len(names)) + 1))
        query = order[:k]
        evidence = {n: pick[n] for n in order[k : k + 1] + words}
        got_dist = marginal(net, query, evidence)
        want_dist = oracle_marginal(values_map, parents_map, cpt_map, query, evidence)
        for key, value in want_dist.items():
            worst = max(worst, abs(got_dist[key] - value))
    assert worst < 1e-12


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mixed=st.booleans(), data=st.data())
def test_state_table_batches_equal_the_reference_engine(seed, mixed, data):
    # One-hot rows make some evidence impossible; mixed nets add unequal
    # cardinalities, shuffled parent lists and word leaves.
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(1, 5))
    make = random_mixed_net if mixed else random_binary_net
    values_map, parents_map, cpt_map = make(rng, n_nodes)
    net = to_network(values_map, parents_map, with_one_hot_rows(rng, cpt_map))
    names = list(values_map)
    full = {n: vals[rng.integers(len(vals))] for n, vals in values_map.items()}
    evidence = st.lists(st.tuples(st.sampled_from(names), st.integers(0, 3)), max_size=4).map(
        lambda pairs: {n: values_map[n][k % len(values_map[n])] for n, k in pairs}
    )
    drawn = data.draw(st.lists(evidence, min_size=1, max_size=5))
    # the words against sorted order, then an empty, a repeated and a full
    # evidence set, the last often impossible
    words = {w: full[w] for w in reversed(net.word_names())}
    batch = [words] + drawn + [{}, drawn[0], full]
    cells = data.draw(st.permutations(net.affordance_names()))[: data.draw(st.integers(0, 3))]

    table, reference = StateTable(net), ReferenceStateTable(net)
    joint, post = table.joint(batch, cells), table.posterior(batch, cells)
    shape = tuple(len(values_map[c]) for c in cells)
    assert joint.shape == post.shape == (len(batch),) + shape
    for i, ev in enumerate(batch):
        assert np.array_equal(joint[i], reference.joint(ev, cells))
        assert np.array_equal(post[i], reference.posterior(ev, cells))
        assert np.array_equal(joint[i], table.joint([ev], cells)[0])
        assert np.array_equal(post[i], table.posterior([ev], cells)[0])

    grid = dict(zip(table.names, np.indices(table.shape).reshape(len(table.shape), -1)))
    for name in names:
        family = net.parents[name] + (() if name in net.word_names() else (name,))
        index = _grid_index(tuple(zip(table.names, table.shape)), family)
        assert not index.flags.writeable
        expected = np.ravel_multi_index(
            [grid[n] for n in family], [len(values_map[n]) for n in family]
        )
        assert index.shape == (table.p_x.size,) and np.all(index == expected)


def test_marginal_rejects_word_query():
    net = Network(
        [binary("A"), word_variable("w")],
        {"A": (), "w": ("A",)},
        {"A": np.array([[0.5, 0.5]]), "w": np.array([[0.9, 0.1], [0.2, 0.8]])},
    )
    with pytest.raises(ValueError, match="word"):
        marginal(net, ["w"])
    with pytest.raises(ValueError, match="word"):
        marginal(net, ["A", "w"], {})


def test_joint_summed_over_completions_matches_marginal():
    # exhaustive consistency on a small random net: summing the joint over
    # all completions of a partial assignment equals the marginal query
    rng = np.random.default_rng(11)
    values_map, parents_map, cpt_map = random_binary_net(rng, 6)
    net = to_network(values_map, parents_map, cpt_map)
    names = list(values_map)
    query = names[:2]
    hidden = names[2:]
    dist = marginal(net, query)
    for qvals in product(*("ft" for _ in query)):
        total = 0.0
        for hvals in product(*("ft" for _ in hidden)):
            assignment = dict(zip(query, qvals)) | dict(zip(hidden, hvals))
            total += joint_probability(net, assignment)
        assert abs(dist[tuple(qvals)] - total) < 1e-12


# -- family score ----------------------------------------------------------------------


def test_family_score_empty_dataset_is_zero():
    assert family_log_score(binary("w"), [binary("A")], []) == 0.0


def test_family_score_prefers_true_parent_of_determined_word():
    rng = np.random.default_rng(3)
    records = []
    for _ in range(200):
        a = "t" if rng.random() < 0.5 else "f"
        records.append({"A": a, "w": a})
    w, a = binary("w"), binary("A")
    with_parent = family_log_score(w, [a], records)
    without = family_log_score(w, [], records)
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
    s1 = family_log_score(w, [a], records)
    rng.shuffle(records)
    s2 = family_log_score(w, [a], records)
    assert s1 == s2


def test_family_score_parent_relabeling_invariance():
    rng = np.random.default_rng(9)
    records = [
        {"A": rng.choice(["f", "t"]), "w": rng.choice(["f", "t"])} for _ in range(80)
    ]
    w = binary("w")
    s1 = family_log_score(w, [Variable("A", ("f", "t"))], records)
    relabeled = [{"A": {"f": "t", "t": "f"}[r["A"]], "w": r["w"]} for r in records]
    s2 = family_log_score(w, [Variable("A", ("f", "t"))], relabeled)
    assert abs(s1 - s2) < 1e-12


def test_family_score_independent_word_prefers_empty_parents():
    # the word is sampled without looking at the state; over seeded
    # regenerations the empty parent set should win nearly always
    from wordground.datagen import default_world, sample_experiences

    world = default_world()
    wins = 0
    trials = 20
    for seed in range(trials):
        states = sample_experiences(world, 2000, seed)
        rng = np.random.default_rng(1000 + seed)
        records = [dict(s, w="t" if rng.random() < 0.3 else "f") for s in states]
        w = binary("w")
        action = next(v for v in affordance_variables() if v.name == "Action")
        if family_log_score(w, [], records) > family_log_score(w, [action], records):
            wins += 1
    assert wins >= 0.95 * trials


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
@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(1, 6), one_hot=st.booleans())
def test_model_file_roundtrip_property(seed, n_nodes, one_hot):
    # one-hot rows put exact zeros and ones into the file
    rng = np.random.default_rng(seed)
    values_map, parents_map, cpt_map = random_binary_net(rng, n_nodes)
    if one_hot:
        cpt_map = with_one_hot_rows(rng, cpt_map)
    net = to_network(values_map, parents_map, cpt_map)
    text = network_to_json(net)
    loaded = network_from_json(text)
    assert network_to_json(loaded) == text
    for name in values_map:
        assert loaded.cpts[name].tobytes() == net.cpts[name].tobytes()


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
        make_network(affordance_variables(), default_affordance_parents()),
        encode_columns(affordance_variables(), [record] * 3),
        1.0,
    )
    text = network_to_json(net)
    assert network_to_json(network_from_json(text)) == text


def fitted_domain_json():
    net = fit_cpts(
        make_network(affordance_variables(), default_affordance_parents()),
        encode_columns(affordance_variables(), []),
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
