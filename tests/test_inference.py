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
    default_cells,
    load_nbest,
    load_scene,
    parse_nbest_line,
    parse_scene_line,
    rescore_nbest,
    select_action_object,
)
from wordground.network import Network, Variable, word_variable
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


def test_select_action_object_equals_reference_loop(subset_models, caplog):
    models, descriptions = subset_models
    rng = np.random.default_rng(5)
    scene = load_scene(SCENE_FILE)
    bags = [ins.bag for ins in default_instructions()] + query_bags(descriptions, rng, 30)
    impossible = 0
    for net in models:
        for bag in bags:
            got, batched = unknown_word_warnings(caplog, lambda: select_action_object(net, bag, scene))
            want, reference = unknown_word_warnings(caplog, lambda: reference_select(net, bag, scene))
            assert (got.entries, got.impossible) == want
            assert batched == reference
            assert len(batched) == bags_with_unknown_words(net, [bag])
            impossible += got.impossible
    assert impossible > 0


@pytest.mark.parametrize("aggregate", ["max", "sum"])
def test_rescore_nbest_equals_reference_loop(subset_models, caplog, aggregate):
    models, descriptions = subset_models
    rng = np.random.default_rng(6)
    scene = load_scene(SCENE_FILE)
    for net in models:
        for _ in range(8):
            bags = query_bags(descriptions, rng, int(rng.integers(1, 8)))
            nbest = NBestList(tuple((tuple(sorted(b)), float(rng.random()) + 0.01) for b in bags))
            got, batched = unknown_word_warnings(
                caplog, lambda: rescore_nbest(net, nbest, scene, aggregate)
            )
            want, reference = unknown_word_warnings(
                caplog, lambda: reference_rescore(net, nbest, scene, aggregate)
            )
            assert [(r.tokens, r.object_scores, r.final_score) for r in got] == want
            assert batched == reference
            assert len(batched) == bags_with_unknown_words(net, bags)
