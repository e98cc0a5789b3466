import itertools
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from wordground import inference
from wordground.datagen import build_corpus, default_lexicon, default_world
from wordground.evaluation import default_instructions, evaluate_instructions, parse_instruction_line
from wordground.grounding import bag_of_words
from wordground.inference import (
    NBestList,
    SceneObject,
    StateTable,
    UnknownWordsError,
    default_cells,
    known_words,
    load_nbest,
    load_scene,
    parse_nbest_line,
    parse_scene_line,
    rescore_nbest,
    select_action_object,
)
from wordground.network import CellSelection, Network, Variable, _WordProduct, word_variable
from wordground.structure import EncodedCorpus, train_model

from oracles import (
    oracle_marginal,
    reference_evaluate,
    reference_rescore,
    reference_select,
)

# The six-object demonstration scene shipped with the package.
SCENE_FILE = Path(inference.__file__).parent / "data" / "scene.txt"


# A compact three-variable domain plus two words, with hand CPTs.
def toy_net(word_rows=None):
    action = Variable("Action", ("grasp", "tap"), "action")
    shape = Variable("Shape", ("sphere", "box"), "feature")
    motion = Variable("Motion", ("none", "moves"), "effect")
    w_ball = word_variable("ball")
    w_moves = word_variable("moving")
    cpts = {
        "Action": np.array([[0.5, 0.5]]),
        "Shape": np.array([[0.6, 0.4]]),
        # things move mostly when tapped, spheres more than boxes
        "Motion": np.array([[0.9, 0.1], [0.95, 0.05], [0.2, 0.8], [0.5, 0.5]]),
        "ball": np.array([[0.2, 0.8], [1.0, 0.0]]),
        "moving": np.array([[0.9, 0.1], [0.1, 0.9]]),
    }
    if word_rows:
        cpts.update({k: np.array(v, dtype=float) for k, v in word_rows.items()})
    return Network(
        [action, shape, motion, w_ball, w_moves],
        {
            "Action": (),
            "Shape": (),
            "Motion": ("Action", "Shape"),
            "ball": ("Shape",),
            "moving": ("Motion",),
        },
        cpts,
        pseudocount=0.0,
    )


def raw_toy():
    return (
        {
            "Action": ["grasp", "tap"],
            "Shape": ["sphere", "box"],
            "Motion": ["none", "moves"],
            "ball": ["absent", "present"],
            "moving": ["absent", "present"],
        },
        {
            "Action": [],
            "Shape": [],
            "Motion": ["Action", "Shape"],
            "ball": ["Shape"],
            "moving": ["Motion"],
        },
        {
            "Action": [[0.5, 0.5]],
            "Shape": [[0.6, 0.4]],
            "Motion": [[0.9, 0.1], [0.95, 0.05], [0.2, 0.8], [0.5, 0.5]],
            "ball": [[0.2, 0.8], [1.0, 0.0]],
            "moving": [[0.9, 0.1], [0.1, 0.9]],
        },
    )


def test_default_cells_prefers_file_order():
    net = train_model(build_corpus(default_world(), default_lexicon(), 20, 1, seed=0).experiences)
    assert default_cells(net) == ("Action", "Color", "Size", "Shape")
    assert default_cells(toy_net()) == ("Action", "Shape")


def test_predict_compatible_set_matches_bruteforce_oracle():
    # the posterior over the action and object cells given a bag of words
    net = toy_net()
    values_map, parents_map, cpt_map = raw_toy()
    table = StateTable(net)
    for bag in (["ball"], ["moving"], ["ball", "moving"]):
        got = table.posterior([bag], ["Action", "Shape"])[0]
        expected = oracle_marginal(values_map, parents_map, cpt_map, ["Action", "Shape"], bag)
        assert np.abs(got - expected).max() < 1e-12


def test_predict_compatible_set_empty_bag_is_prior():
    got = StateTable(toy_net()).posterior([[]], ["Action", "Shape"])[0]
    assert abs(got[0, 0] - 0.5 * 0.6) < 1e-12
    assert abs(got.sum() - 1.0) < 1e-9


def test_predict_compatible_set_default_domain_has_72_cells():
    corpus = build_corpus(default_world(), default_lexicon(), 30, 1, seed=1).experiences
    net = train_model(corpus)
    assert "ball" in net.word_set
    got = StateTable(net).posterior([["ball"]], default_cells(net))
    assert got.shape == (1, 3, 4, 3, 2)


# -- select_action_object ---------------------------------------------------------


SPHERE = SceneObject(id="s", features={"Shape": "sphere"})
BOX = SceneObject(id="b", features={"Shape": "box"})


def test_select_requires_nonempty_scene():
    with pytest.raises(ValueError, match="scene"):
        select_action_object(toy_net(), ["ball"], [])


def test_select_empty_bag_uniform_grid_with_deterministic_tiebreak():
    ranking = select_action_object(toy_net(), [], [SPHERE, BOX])
    assert not ranking.impossible
    probs = [p for _, _, p in ranking.entries]
    assert np.allclose(probs, 0.25)
    assert ranking.best[:2] == ("grasp", "s")  # first action, first object


def test_select_word_requiring_motion_prefers_tap():
    ranking = select_action_object(toy_net(), ["moving"], [SPHERE, BOX])
    assert ranking.best[0] == "tap"
    assert ranking.best[1] == "s"  # spheres move more readily when tapped
    total = sum(p for _, _, p in ranking.entries)
    assert abs(total - 1.0) < 1e-9


def test_select_impossible_flag_when_every_pair_is_zero():
    # "ball" can never be said of a box
    ranking = select_action_object(toy_net(), ["ball"], [BOX])
    assert ranking.impossible
    assert all(p == 0.0 for _, _, p in ranking.entries)


def test_select_invariant_to_zero_probability_objects():
    with_box = select_action_object(toy_net(), ["ball"], [SPHERE, BOX])
    without = select_action_object(toy_net(), ["ball"], [SPHERE])
    filtered = [(a, o, p) for a, o, p in with_box.entries if o == "s"]
    assert len(filtered) == len(without.entries)
    for got, expected in zip(filtered, without.entries):
        assert got[0] == expected[0] and got[1] == expected[1]
        assert abs(got[2] - expected[2]) < 1e-12


def test_a_scene_object_with_prior_zero_scores_zero():
    # this net never makes a box, so a box pair's score is 0 / 0: it must
    # read 0.0, with no invalid-value warning, and leave the spheres' scores
    net = toy_net({"Shape": [[1.0, 0.0]]})
    scene = [SPHERE, BOX]
    nbest = NBestList(((("ball",), 0.5), (("moving",), 0.3), (("ball", "moving"), 0.2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for bag in (["ball"], ["moving"], []):
            ranking = select_action_object(net, bag, scene)
            assert (ranking.entries, ranking.impossible) == reference_select(net, bag, scene)
            assert [p for _, obj, p in ranking.entries if obj == "b"] == [0.0, 0.0]
        for aggregate in ("max", "sum"):
            got = rescore_nbest(net, nbest, scene, aggregate)
            assert [(r.tokens, r.final_score) for r in got] == reference_rescore(
                net, nbest, scene, aggregate
            )
            assert got == rescore_nbest(net, nbest, [SPHERE], aggregate)


def test_select_rejects_underspecified_scene_object():
    incomplete = SceneObject(id="x", features={})
    with pytest.raises(ValueError, match="does not bind"):
        select_action_object(toy_net(), ["ball"], [incomplete])


def test_select_and_rescore_reject_bags_without_a_known_word():
    # with no word to condition on, every pair would score 1; a variable
    # that is not a word is not a known word either
    with pytest.raises(ValueError, match="knows none of the words: Shape, plugh, xyzzy"):
        select_action_object(toy_net(), ["xyzzy", "plugh", "Shape"], [SPHERE, BOX])
    nbest = NBestList(hypotheses=((("ball",), 0.5), (("xyzzy", "plugh"), 0.3)))
    with pytest.raises(ValueError, match="knows none of the words: plugh, xyzzy"):
        rescore_nbest(toy_net(), nbest, [SPHERE, BOX])
    # one known word is enough: the unknown one is skipped
    partly = select_action_object(toy_net(), ["ball", "xyzzy"], [SPHERE, BOX])
    assert partly.entries == select_action_object(toy_net(), ["ball"], [SPHERE, BOX]).entries


# -- rescoring ----------------------------------------------------------------------


def test_rescore_uniform_words_preserves_acoustic_order():
    net = toy_net(
        word_rows={"ball": [[0.5, 0.5], [0.5, 0.5]], "moving": [[0.5, 0.5], [0.5, 0.5]]}
    )
    nbest = NBestList(
        hypotheses=(
            (("ball",), 0.5),
            (("moving",), 0.3),
            (("ball", "moving"), 0.2),
        )
    )
    out = rescore_nbest(net, nbest, [SPHERE, BOX])
    assert [h.acoustic_probability for h in out] == [0.5, 0.3, 0.2]


def test_rescore_context_overrides_acoustics():
    # only the third hypothesis's words are possible in a box-only scene
    nbest = NBestList(
        hypotheses=(
            (("ball",), 0.6),
            (("ball", "moving"), 0.3),
            (("moving",), 0.1),
        )
    )
    out = rescore_nbest(toy_net(), nbest, [BOX])
    assert out[0].tokens == ("moving",)
    assert out[1].final_score == 0.0 and out[2].final_score == 0.0


def test_rescore_scaling_acoustic_priors_preserves_ranking():
    corpus = build_corpus(default_world(), default_lexicon(), 254, 5, seed=11).experiences
    net = train_model(corpus, pseudocount=0.0)
    hyps = (
        (tuple("tapping small sliding".split()), 0.100),
        (tuple("tapping box slides".split()), 0.070),
        (tuple("tapped ball rolls".split()), 0.010),
    )
    scene = load_scene(SCENE_FILE)
    base = rescore_nbest(net, NBestList(hypotheses=hyps), scene)
    scaled = rescore_nbest(net, NBestList(hypotheses=tuple((t, 37.0 * p) for t, p in hyps)), scene)
    assert [h.tokens for h in base] == [h.tokens for h in scaled]
    for a, b in zip(base, scaled):
        assert abs(b.final_score - 37.0 * a.final_score) < 1e-12


def test_rescore_sum_aggregate_differs_but_ranks_sanely():
    nbest = NBestList(hypotheses=((("moving",), 1.0),))
    by_max = rescore_nbest(toy_net(), nbest, [SPHERE], action_aggregate="max")
    by_sum = rescore_nbest(toy_net(), nbest, [SPHERE], action_aggregate="sum")
    assert by_sum[0].final_score > by_max[0].final_score
    with pytest.raises(ValueError):
        rescore_nbest(toy_net(), nbest, [SPHERE], action_aggregate="median")


def test_nbest_validation():
    with pytest.raises(ValueError):
        NBestList(hypotheses=())
    with pytest.raises(ValueError):
        NBestList(hypotheses=((("a",), 0.0),))


@pytest.mark.parametrize("tokens", [(), ("?!",), (".", ",")])
def test_nbest_rejects_hypothesis_without_words(tokens):
    # an empty bag scores 1 for every pair, so it would rank first
    with pytest.raises(ValueError, match="no words"):
        NBestList(hypotheses=((tokens, 0.3), (("tap", "the", "ball"), 0.5)))


def test_nbest_refuses_a_string_hypothesis():
    # a string would be scored by its words but reported by its letters
    with pytest.raises(ValueError, match="bag_of_words"):
        NBestList(hypotheses=(("tap the ball", 0.5),))


def test_scene_scoring_refuses_a_string_bag():
    net = toy_net()
    with pytest.raises(ValueError, match="bag_of_words"):
        select_action_object(net, "ball", [SPHERE, BOX])
    with pytest.raises(ValueError, match="bag_of_words"):
        inference._scene_scorer(net, [SPHERE, BOX], [{"ball"}, "moving"])
    # the refusal keeps nothing the next query reads
    assert select_action_object(net, {"ball"}, [SPHERE, BOX]) == select_action_object(
        toy_net(), {"ball"}, [SPHERE, BOX]
    )


@pytest.mark.parametrize("p", [float("nan"), float("inf")])
def test_nbest_rejects_non_finite_probabilities(p):
    with pytest.raises(ValueError, match="acoustic probability"):
        NBestList(hypotheses=((("a",), 0.5), (("b",), p)))


def test_select_and_rescore_reject_duplicate_object_ids():
    twin = SceneObject(id="s", features={"Shape": "box"})
    with pytest.raises(ValueError, match="duplicate scene object id 's'"):
        select_action_object(toy_net(), ["ball"], [SPHERE, BOX, twin])
    nbest = NBestList(hypotheses=((("ball",), 1.0),))
    with pytest.raises(ValueError, match="duplicate scene object id 's'"):
        rescore_nbest(toy_net(), nbest, [SPHERE, twin])


# -- files -------------------------------------------------------------------------


def test_scene_file_parsing(tmp_path):
    path = tmp_path / "scene.txt"
    path.write_text("ball1|yellow,small,sphere\nbox1|blue,big,box\n", encoding="utf-8")
    scene = load_scene(path)
    assert scene[0] == SceneObject(
        id="ball1", features={"Color": "yellow", "Size": "small", "Shape": "sphere"}
    )
    assert len(scene) == 2
    with pytest.raises(ValueError, match="line 2"):
        parse_scene_line("bad line", lineno=2)


def test_nbest_file_parsing(tmp_path):
    path = tmp_path / "nbest.txt"
    path.write_text("0.6|tap the ball\n0.4|touch the box\n", encoding="utf-8")
    nbest = load_nbest(path)
    assert nbest.hypotheses[0] == (("tap", "the", "ball"), 0.6)
    with pytest.raises(ValueError, match="probability"):
        parse_nbest_line("zzz|tap", lineno=1)


def test_shipped_scene_is_the_six_object_demo():
    scene = load_scene(SCENE_FILE)
    assert len(scene) == 6
    assert scene[2].features == {"Color": "darkgreen", "Size": "small", "Shape": "box"}


def test_demo_scene_instructions_resolve_like_the_reference_runs():
    corpus = build_corpus(default_world(), default_lexicon(), 254, 5, seed=11).experiences
    net = train_model(corpus, pseudocount=0.0)
    scene = load_scene(SCENE_FILE)

    # an effect word plus a color: only the yellow sphere can rise when grasped
    ranking = select_action_object(net, bag_of_words("rises yellow"), scene)
    assert ranking.best[:2] == ("grasp", "yellow medium sphere")

    # "small grasped": grasping a small object; the two small objects tie
    # exactly (the word factors depend only on hand velocity and size), so
    # the deterministic grid order picks between them
    ranking = select_action_object(net, bag_of_words("small grasped"), scene)
    assert ranking.best[0] == "grasp"
    assert "small" in ranking.best[1]

    # a sphere cannot slide: every pair has zero posterior
    ranking = select_action_object(net, bag_of_words("ball sliding"), scene)
    assert ranking.impossible


def test_a_tiny_but_nonzero_pair_total_is_not_impossible():
    # 164 words with parent Action and a presence probability of 0.02 or
    # 0.01 in every row leave the ranking as it was, but shrink the pair
    # scores of "grasp ball" to a total of about 1.8e-304, which is still
    # nonzero: only an exact zero is impossible
    corpus = build_corpus(default_world(), default_lexicon(), 254, 5, seed=11).experiences
    net = train_model(corpus, pseudocount=0.0)
    words = [f"quiet{k:03d}" for k in range(164)]
    cpts, parents = dict(net.cpts), dict(net.parents)
    for k, word in enumerate(words):
        present = 0.02 if k % 2 == 0 else 0.01
        cpts[word] = np.array([[1 - present, present]] * 3)
        parents[word] = ("Action",)
    variables = net.variables + tuple(word_variable(w) for w in words)
    quiet = Network(variables, parents, cpts, pseudocount=0.0)
    ranking = select_action_object(quiet, bag_of_words("grasp ball") | set(words), load_scene(SCENE_FILE))
    assert not ranking.impossible
    assert ranking.best[0] == "grasp"


def test_state_table_matches_network_prior():
    net = toy_net()
    table = StateTable(net)
    assert abs(table.p_x.sum() - 1.0) < 1e-12
    # first state is (grasp, sphere, none): the product of its CPT entries
    assert abs(table.p_x.flat[0] - 0.5 * 0.6 * 0.9) < 1e-15


def test_one_state_table_per_network(monkeypatch):
    # count builds the way the benchmark's tracer does, by wrapping __init__
    builds = []
    init = StateTable.__init__

    def counted(self, network):
        builds.append(network)
        init(self, network)

    monkeypatch.setattr(StateTable, "__init__", counted)
    net = toy_net()
    select_action_object(net, {"ball"}, [SPHERE, BOX])
    select_action_object(net, {"moving"}, [SPHERE, BOX])
    rescore_nbest(net, NBestList(((("ball",), 0.6), (("moving",), 0.4))), [SPHERE, BOX])
    assert len(builds) == 1 and builds[0] is net
    assert net.state_table is net.state_table
    assert len(builds) == 1


# -- batched query paths against per-query reference loops ----------------------


@pytest.fixture(scope="module")
def subset_models():
    """Models fitted with alpha 1 and 0 on random subsets of a generated
    corpus; the small subsets miss words of the shipped instructions."""
    corpus = build_corpus(default_world(), default_lexicon(), 80, 3, seed=4).experiences
    encoded = EncodedCorpus.encode(corpus)
    rng = np.random.default_rng(4)
    models = []
    for size, alpha in [(20, 1.0), (30, 0.0), (120, 0.0), (240, 1.0)]:
        subset = encoded.subset(rng.choice(len(corpus), size=size, replace=False))
        models.append(train_model(subset, pseudocount=alpha))
    return models, [record.description for record in corpus]


def query_bags(descriptions, rng, n):
    """`n` bags: corpus descriptions, some with a word no model knows."""
    bags = [descriptions[i] for i in rng.choice(len(descriptions), size=n)]
    return [bag | {"xyzzy"} if rng.random() < 0.2 else bag for bag in bags]


def unknown_word_warnings(caplog, query):
    """The result of `query()` and the messages of the unknown-word
    warnings it logged, in order."""
    caplog.clear()
    with caplog.at_level("WARNING", logger="wordground.inference"):
        result = query()
    messages = [r.getMessage() for r in caplog.records]
    assert all(m.startswith("skipping unknown words: ") for m in messages)
    return result, messages


def bags_with_unknown_words(net, bags):
    return sum(any(w not in net.word_names() for w in bag) for bag in bags)


def test_evaluate_instructions_equals_reference_loop(subset_models, caplog):
    models, _ = subset_models
    instructions = default_instructions() + [parse_instruction_line("xyzzy ball|*,*,*,sphere", 1)]
    for net in models:
        got, batched = unknown_word_warnings(caplog, lambda: evaluate_instructions(net, instructions))
        want, reference = unknown_word_warnings(caplog, lambda: reference_evaluate(net, instructions))
        assert (got.soft, got.hard, got.detection_rate) == want
        assert got.detection_rate is not None
        assert batched == reference
        assert len(batched) == bags_with_unknown_words(net, [ins.bag for ins in instructions])


def scenes():
    """The shipped scene, and the shipped scene followed by four copies of
    it under new ids: 30 objects, more than the 24 feature combinations,
    but the same 18 (action, object) cells."""
    shipped = load_scene(SCENE_FILE)
    copies = [SceneObject(f"copy{k} {obj.id}", obj.features) for k in range(4) for obj in shipped]
    return [shipped, shipped + copies]


@pytest.fixture
def product_states(monkeypatch):
    """The number of states each call of the engine's product routine
    receives, for all of its bags."""
    sizes = []
    product = _WordProduct._product

    def counted(self, bags):
        sizes.append(self.p_x.size)
        return product(self, bags)

    monkeypatch.setattr(_WordProduct, "_product", counted)
    return sizes


def test_select_action_object_equals_reference_loop(subset_models, caplog, product_states):
    models, descriptions = subset_models
    rng = np.random.default_rng(5)
    bags = [ins.bag for ins in default_instructions()] + query_bags(descriptions, rng, 30)
    impossible = 0
    for net in models:
        for scene in scenes():
            for bag in bags:
                got, batched = unknown_word_warnings(caplog, lambda: select_action_object(net, bag, scene))
                want, reference = unknown_word_warnings(caplog, lambda: reference_select(net, bag, scene))
                assert (got.entries, got.impossible) == want
                assert batched == reference
                assert len(batched) == bags_with_unknown_words(net, [bag])
                impossible += got.impossible
    assert impossible > 0
    # each of the 18 distinct cells sums its 36 effect states, not the 2,592
    assert product_states and set(product_states) == {18 * 36}


@pytest.mark.parametrize("aggregate", ["max", "sum"])
def test_rescore_nbest_equals_reference_loop(subset_models, caplog, product_states, aggregate):
    models, descriptions = subset_models
    rng = np.random.default_rng(6)
    for net in models:
        for scene in scenes():
            for _ in range(8):
                bags = query_bags(descriptions, rng, int(rng.integers(1, 8)))
                nbest = NBestList(tuple((tuple(sorted(b)), float(rng.random()) + 0.01) for b in bags))
                got, batched = unknown_word_warnings(
                    caplog, lambda: rescore_nbest(net, nbest, scene, aggregate)
                )
                want, reference = unknown_word_warnings(
                    caplog, lambda: reference_rescore(net, nbest, scene, aggregate)
                )
                assert [(r.tokens, r.final_score) for r in got] == want
                assert batched == reference
                assert len(batched) == bags_with_unknown_words(net, bags)
    assert product_states and set(product_states) == {18 * 36}


# -- the scene plan: prepared once per network, never stale ---------------------


def fresh_copy(net):
    """The same model with an engine and scene plan of its own."""
    return Network(net.variables, net.parents, net.cpts, net.pseudocount)


def test_three_queries_on_one_scene_prepare_it_once(subset_models, monkeypatch):
    net = fresh_copy(subset_models[0][3])
    cells_calls, reads = [], Counter()
    cells = inference.default_cells

    def counted_cells(network):
        cells_calls.append(network)
        return cells(network)

    class CountedCpts(dict):
        def __getitem__(self, name):
            reads[name] += 1
            return super().__getitem__(name)

    monkeypatch.setattr(inference, "default_cells", counted_cells)
    # a query reads the engine's CPTs only to make a word's factor
    monkeypatch.setattr(net.state_table, "cpts", CountedCpts(net.cpts))
    scene = load_scene(SCENE_FILE)
    bags = [bag_of_words("grasp the ball"), bag_of_words("tap the ball")]
    hypotheses = ((("grasp", "the", "ball"), 0.6), (("touch", "the", "box"), 0.4))
    select_action_object(net, bags[0], scene)
    select_action_object(net, bags[1], scene)
    rescore_nbest(net, NBestList(hypotheses), scene)
    assert len(cells_calls) == 1
    heard = {w for bag in bags + [set(t) for t, _ in hypotheses] for w in bag if w in net.word_set}
    # "the" and "ball" are heard in all three queries, yet made once
    assert {"the", "ball"} <= heard
    assert reads == Counter(dict.fromkeys(heard, 1))


def kept_selection(net):
    """The cell selection of the scene plan the network's engine keeps."""
    return net.state_table._plan[1][1]


def kept_scores(net):
    """The pair scores by known-word bag of the scene plan the network's
    engine keeps."""
    return net.state_table._plan[1][2]


def kept_dicts(net):
    """The pair scores, rankings and contexts by bag of the scene plan the
    network's engine keeps."""
    plan = net.state_table._plan[1]
    return [plan.scores, plan.rankings, plan.contexts]


def test_a_ranking_is_the_same_with_the_word_factors_kept_or_not(subset_models, caplog):
    models, descriptions = subset_models
    # the last bag has a word no model knows: a kept bag still logs it
    bags = [ins.bag for ins in default_instructions()] + descriptions[:10]
    bags.append(descriptions[0] | {"xyzzy"})
    nbests = [
        NBestList(tuple((tuple(sorted(bag)), 0.25) for bag in bags[k : k + 3]))
        for k in range(0, len(bags), 3)
    ]
    queries = [lambda net, scene, bag=bag: select_action_object(net, bag, scene) for bag in bags]
    queries += [
        lambda net, scene, nbest=nbest, aggregate=aggregate: rescore_nbest(net, nbest, scene, aggregate)
        for nbest in nbests
        for aggregate in ("max", "sum")
    ]
    for net in models:
        for scene in scenes():
            # each query first on its own copy, with nothing kept yet
            cold = [unknown_word_warnings(caplog, lambda: query(fresh_copy(net), scene)) for query in queries]
            warm = fresh_copy(net)
            for query in queries:
                query(warm, scene)
            # now each query comes after all the others, with the same warnings
            assert [unknown_word_warnings(caplog, lambda: query(warm, scene)) for query in queries] == cold
    assert any(messages for _, messages in cold)


def test_a_refused_non_word_keeps_no_factor(subset_models):
    net = fresh_copy(subset_models[0][3])
    select_action_object(net, bag_of_words("tap the ball"), load_scene(SCENE_FILE))
    selection = kept_selection(net)
    before = dict(selection._factors)
    # "box" is a word not heard yet, and sorts before the refused one
    assert "box" in net.word_set and "box" not in before
    for bags in ([["xyzzy"]], [["ball", "xyzzy"]], [["box"], ["box", "xyzzy"]]):
        with pytest.raises(ValueError, match="'xyzzy' is not a word of the network"):
            selection.joint(bags)
        assert selection._factors.keys() == before.keys()
        assert all(selection._factors[w] is f for w, f in before.items())


def test_the_shipped_instructions_keep_one_read_only_factor_per_known_word(subset_models):
    net = fresh_copy(subset_models[0][3])
    scene = load_scene(SCENE_FILE)
    instructions = default_instructions()
    assert len(instructions) == 54
    for ins in instructions:
        select_action_object(net, ins.bag, scene)
    factors = kept_selection(net)._factors
    assert set(factors) == {w for ins in instructions for w in ins.bag if w in net.word_set}
    assert {f.shape for f in factors.values()} == {(18 * 36,)}
    for factor in factors.values():
        assert not factor.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            factor[0] = 0.0


def test_each_distinct_bag_of_a_scene_is_multiplied_once(subset_models, monkeypatch):
    net = fresh_copy(subset_models[0][3])
    scene = load_scene(SCENE_FILE)
    multiplied = Counter()
    joint = CellSelection.joint

    def counted(self, bags):
        multiplied.update(bags)
        return joint(self, bags)

    monkeypatch.setattr(CellSelection, "joint", counted)
    instructions = default_instructions()
    for _ in range(2):
        for ins in instructions:
            select_action_object(net, ins.bag, scene)
    # two hypotheses with one bag, which no instruction has
    nbest = NBestList(((("the", "box", "rolls"), 0.6), (("rolls", "the", "Box."), 0.4)))
    rescore_nbest(net, nbest, scene)
    heard = {frozenset(known_words(net, ins.bag)) for ins in instructions}
    hypothesis = frozenset(known_words(net, nbest.bags[0]))
    assert hypothesis == {"box", "rolls", "the"} and hypothesis not in heard
    assert multiplied == Counter(dict.fromkeys(heard | {hypothesis}, 1))


def test_a_batch_past_the_bound_answers_its_kept_and_new_bags(subset_models, monkeypatch):
    net = fresh_copy(subset_models[0][3])
    scene = load_scene(SCENE_FILE)
    monkeypatch.setattr(inference, "_KEPT_BAGS", 3)
    kept = [("tap", "the", "ball"), ("grasp", "the", "box")]
    # two kept bags and three new ones: five, past the bound of three
    nbest = NBestList(
        tuple((tokens, 0.2) for tokens in kept + [("touch", "the", "ball"), ("the", "box", "rolls"), ("big",)])
    )
    for aggregate in ("max", "sum"):
        for tokens in kept:
            select_action_object(net, bag_of_words(tokens), scene)
        assert set(kept_scores(net)) == {frozenset(tokens) for tokens in kept}
        got = rescore_nbest(net, nbest, scene, aggregate)
        assert got == rescore_nbest(fresh_copy(net), nbest, scene, aggregate)
        assert len(kept_scores(net)) <= 3


def test_a_scene_plan_keeps_at_most_the_bound_and_no_refused_bag(subset_models):
    net = fresh_copy(subset_models[0][3])
    scene = load_scene(SCENE_FILE)

    def refuse():
        for bags, error in [([{"ball"}, "tap the ball"], ValueError), ([{"ball"}, {"xyzzy"}], UnknownWordsError)]:
            with pytest.raises(error):
                inference._scene_scorer(net, scene, bags)
        with pytest.raises(ValueError, match="is a string"):
            select_action_object(net, "tap the ball", scene)
        with pytest.raises(UnknownWordsError):
            select_action_object(net, {"xyzzy"}, scene)
        for aggregate in ("max", "sum"):
            with pytest.raises(UnknownWordsError):
                rescore_nbest(net, NBestList(((("ball",), 0.5), (("xyzzy",), 0.5))), scene, aggregate)

    refuse()
    assert kept_dicts(net) == [{}, {}, {}]
    words = sorted(net.word_set)
    bags = list(itertools.islice(itertools.chain(*(itertools.combinations(words, k) for k in (2, 3))), 1100))
    assert len(set(bags)) == 1100
    sizes = []
    for i, bag in enumerate(bags):
        select_action_object(net, bag, scene)
        if i % 4 == 0:
            for aggregate in ("max", "sum"):
                rescore_nbest(net, NBestList(((bag, 0.5), (bags[i - 1], 0.5))), scene, aggregate)
        sizes.append(tuple(map(len, kept_dicts(net))))
    assert max(scores for scores, _, _ in sizes) == inference._KEPT_BAGS == 128
    # an answer is kept only beside its bag's scores, one per aggregate
    assert all(rankings <= scores and contexts <= 2 * scores for scores, rankings, contexts in sizes)
    before = [dict(kept) for kept in kept_dicts(net)]
    assert all(before) and frozenset({"ball"}) not in before[0]
    refuse()
    for kept, was in zip(kept_dicts(net), before):
        assert kept.keys() == was.keys()
        assert all(kept[k] is answer for k, answer in was.items())


def test_each_distinct_bag_of_a_scene_is_ranked_once(subset_models, monkeypatch):
    net = fresh_copy(subset_models[0][3])
    scene = load_scene(SCENE_FILE)
    ranked = []
    ranking = inference.ActionObjectRanking

    def counted(**fields):
        ranked.append(fields)
        return ranking(**fields)

    monkeypatch.setattr(inference, "ActionObjectRanking", counted)
    instructions = default_instructions()
    first = [select_action_object(net, ins.bag, scene) for ins in instructions]
    again = [select_action_object(net, ins.bag, scene) for ins in instructions]
    distinct = {frozenset(known_words(net, ins.bag)) for ins in instructions}
    assert len(instructions) == 54 and len(ranked) == len(distinct)
    assert all(a is b for a, b in zip(first, again))


def test_a_warm_plan_rescores_under_each_aggregate_as_a_new_plan_does(subset_models):
    models, _ = subset_models
    scene = load_scene(SCENE_FILE)
    # the first bag twice in one list
    texts = ["tap the ball", "grasp the big box", "the ball rolls", "touch the green box", "the ball, tap"]
    nbest = NBestList(tuple((tuple(text.split()), 0.1 * (k + 1)) for k, text in enumerate(texts)))
    differs = 0
    for net in models:
        warm = fresh_copy(net)
        got = [rescore_nbest(warm, nbest, scene, aggregate) for aggregate in ("max", "sum", "max")]
        assert got == [rescore_nbest(fresh_copy(net), nbest, scene, a) for a in ("max", "sum", "max")]
        differs += [r.final_score for r in got[0]] != [r.final_score for r in got[1]]
    assert differs == len(models)


def test_an_nbest_list_makes_each_hypothesis_bag_once(monkeypatch):
    made = []

    def counted(tokens):
        made.append(tokens)
        return bag_of_words(tokens)

    monkeypatch.setattr(inference, "bag_of_words", counted)
    nbest = NBestList(((("Ball",), 0.6), (("moving", "ball."), 0.4)))
    assert nbest.bags == (frozenset({"ball"}), frozenset({"moving", "ball"}))
    rescore_nbest(toy_net(), nbest, [SPHERE, BOX])
    assert len(made) == 2


def test_evaluate_instructions_keeps_nothing_on_the_engine(subset_models):
    net = fresh_copy(subset_models[0][3])
    table = net.state_table

    def sizes():
        return {k: len(v) if hasattr(v, "__len__") else None for k, v in vars(table).items()}

    before = sizes()
    for _ in range(2):
        evaluate_instructions(net, default_instructions())
        assert sizes() == before


def same_ids_new_features(shipped):
    yield shipped
    yield [SceneObject(obj.id, {**obj.features, "Color": "yellow"}) for obj in shipped]


def features_mutated_in_place(shipped):
    scene = [SceneObject(obj.id, dict(obj.features)) for obj in shipped]
    yield scene
    for obj in scene:
        obj.features["Shape"] = "box" if obj.features["Shape"] == "sphere" else "sphere"
    yield scene


def reordered_objects(shipped):
    yield shipped
    yield shipped[::-1]


def alternating_scenes(shipped):
    for _ in range(2):
        yield shipped
        yield shipped[1:3]


@pytest.mark.parametrize(
    "scenes", [same_ids_new_features, features_mutated_in_place, reordered_objects, alternating_scenes]
)
def test_no_query_reads_a_stale_scene_plan(subset_models, scenes):
    models, _ = subset_models
    bag = bag_of_words("tap the small blue box")
    nbest = NBestList(((("tap", "the", "box"), 0.5), (("grasp", "the", "ball"), 0.5)))
    for net in models:
        for scene in scenes(load_scene(SCENE_FILE)):
            got = select_action_object(net, bag, scene)
            assert (got.entries, got.impossible) == reference_select(net, bag, scene)
            for aggregate in ("max", "sum"):
                got = rescore_nbest(net, nbest, scene, aggregate)
                want = reference_rescore(net, nbest, scene, aggregate)
                assert [(r.tokens, r.final_score) for r in got] == want


def test_an_invalid_scene_raises_on_every_call_and_is_never_kept(subset_models, monkeypatch):
    net = fresh_copy(subset_models[0][3])
    shipped = load_scene(SCENE_FILE)
    first = shipped[0]
    invalid = [
        ([], "at least one object"),
        ([first, SceneObject(first.id, first.features)], "duplicate scene object id"),
        ([SceneObject("ball", {"Color": "blue", "Size": "small"})], "does not bind 'Shape'"),
        ([SceneObject("ball", {**first.features, "Color": "purple"})], "'purple' is not one of"),
        # bad values in two cells: the first one in cell order is named
        (
            [SceneObject("ball", {**first.features, "Color": "purple", "Shape": "cone"})],
            "'purple' is not one of",
        ),
    ]
    bag = bag_of_words("tap the ball")
    nbest = NBestList(((("tap", "the", "ball"), 1.0),))
    want = reference_select(net, bag, shipped)
    cells_calls = []
    cells = inference.default_cells
    monkeypatch.setattr(inference, "default_cells", lambda n: cells_calls.append(n) or cells(n))
    select_action_object(net, bag, shipped)
    assert len(cells_calls) == 1
    for scene, message in invalid:
        queries = [lambda: select_action_object(net, bag, scene)] * 2
        for query in queries + [lambda: rescore_nbest(net, nbest, scene)]:
            with pytest.raises(ValueError, match=message):
                query()
        # the shipped scene's plan is still the one kept
        cells_calls.clear()
        got = select_action_object(net, bag, shipped)
        assert (got.entries, got.impossible) == want and not cells_calls
