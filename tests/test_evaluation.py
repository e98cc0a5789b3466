import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wordground.datagen import build_corpus, default_lexicon, default_world
from wordground.evaluation import (
    DEFAULT_SIZES,
    Instruction,
    build_baseline_network,
    curve_to_csv,
    default_instructions,
    evaluate_instructions,
    load_instructions,
    parse_instruction_line,
    staged_learning,
)
from wordground.grounding import bag_of_words
from wordground.network import Network, affordance_variables
from wordground.structure import train_model

WORLD = default_world()
LEXICON = default_lexicon()


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(WORLD, LEXICON, 254, 5, seed=11).experiences


@pytest.fixture(scope="module")
def model(corpus):
    return train_model(corpus, pseudocount=0.0)


def expand(action="*", color="*", size="*", shape="*"):
    by_name = {v.name: v for v in affordance_variables()}
    cells = set()
    for a in by_name["Action"].values if action == "*" else (action,):
        for c in by_name["Color"].values if color == "*" else (color,):
            for s in by_name["Size"].values if size == "*" else (size,):
                for sh in by_name["Shape"].values if shape == "*" else (shape,):
                    cells.add((a, c, s, sh))
    return frozenset(cells)


# -- soft and hard accuracy ------------------------------------------------------------


def engineered_color_net(weights):
    """Default domain shaped net with all mass driven by a color prior."""
    variables = affordance_variables()
    cpts = {}
    parents = {v.name: () for v in variables}
    for v in variables:
        if v.name == "Color":
            cpts[v.name] = np.array([list(weights)])
        else:
            cpts[v.name] = np.full((1, v.cardinality), 1.0 / v.cardinality)
    return Network(variables, parents, cpts, pseudocount=0.0)


def test_soft_accuracy_engineered_mass():
    net = engineered_color_net((0.7, 0.3, 0.0, 0.0))
    ins = Instruction(bag=frozenset(), compatible=expand(color="lightgreen"))
    assert abs(evaluate_instructions(net, [ins]).soft - 0.7) < 1e-12


def test_soft_accuracy_full_mass_is_one(model):
    ins = Instruction(
        bag=bag_of_words("grasp the blue big ball"),
        compatible=expand(),  # every cell judged compatible
    )
    assert abs(evaluate_instructions(model, [ins]).soft - 1.0) < 1e-9


def test_soft_accuracy_zero_mass(model):
    # all mass sits on sphere cells for "ball"; box-only judgment scores zero
    ins = Instruction(bag=bag_of_words("the ball"), compatible=expand(shape="box"))
    assert evaluate_instructions(model, [ins]).soft == 0.0


def test_hard_accuracy_half_right():
    net = engineered_color_net((0.7, 0.3, 0.0, 0.0))
    # argmax color is lightgreen; two instructions accept it, two do not
    good = Instruction(bag=frozenset(), compatible=expand(color="lightgreen"))
    bad = Instruction(bag=frozenset(), compatible=expand(color="yellow"))
    assert evaluate_instructions(net, [good, bad, good, bad]).hard == 0.5


def test_hard_accuracy_needs_scorable_instructions():
    net = engineered_color_net((0.7, 0.3, 0.0, 0.0))
    impossible = Instruction(bag=frozenset({"x"}), compatible=frozenset())
    with pytest.raises(ValueError):
        evaluate_instructions(net, [impossible])


def test_evaluate_instructions_consistent_with_single_ops(model):
    instructions = default_instructions()[:20]
    result = evaluate_instructions(model, instructions)
    possible = [i for i in instructions if not i.impossible]
    softs = [evaluate_instructions(model, [i]).soft for i in possible]
    assert abs(result.soft - np.mean(softs)) < 1e-12
    assert abs(result.hard - evaluate_instructions(model, possible).hard) < 1e-12


# -- baseline -----------------------------------------------------------------------------


def test_baseline_every_word_has_exactly_one_parent(corpus):
    net = build_baseline_network(corpus)
    assert net.word_names()
    for word in net.word_names():
        assert len(net.parents[word]) == 1
    for name in net.affordance_names():
        assert net.parents[name] == ()


def test_baseline_color_word_picks_color(corpus):
    net = build_baseline_network(corpus)
    assert net.parents["green"] == ("Color",)
    assert net.parents["ball"] == ("Shape",)
    # a filler word still gets its single least-bad parent, by construction
    assert len(net.parents["the"]) == 1
    # effect words are forced into a single variable, losing their
    # multi-variable meaning
    assert len(net.parents["rising"]) == 1


# -- instruction files ----------------------------------------------------------------------


def test_parse_instruction_wildcards():
    ins = parse_instruction_line("grasp the ball|grasp,*,*,sphere")
    assert ins.bag == {"grasp", "the", "ball"}
    assert ins.compatible == expand(action="grasp", shape="sphere")
    assert not ins.impossible


def test_parse_instruction_impossible():
    ins = parse_instruction_line("roll the small cube|IMPOSSIBLE")
    assert ins.impossible
    assert ins.compatible == frozenset()


def test_parse_instruction_errors():
    with pytest.raises(ValueError, match="4 fields"):
        parse_instruction_line("w|a,b,c")
    with pytest.raises(ValueError, match="not a Action value"):
        parse_instruction_line("w|stroke,*,*,sphere")
    with pytest.raises(ValueError, match="line 7"):
        parse_instruction_line("no separator", lineno=7)


def test_load_instructions_roundtrip(tmp_path):
    path = tmp_path / "ins.txt"
    path.write_text(
        "# comment\ngrasp the ball|grasp,*,*,sphere\nroll the cube|IMPOSSIBLE\n",
        encoding="utf-8",
    )
    loaded = load_instructions(path)
    assert len(loaded) == 2
    assert loaded[1].impossible


def test_default_instruction_set_shape():
    instructions = default_instructions()
    assert len(instructions) == 54
    assert sum(1 for i in instructions if i.impossible) == 6
    vocabulary = set(LEXICON.words())
    for ins in instructions:
        assert ins.bag <= vocabulary, ins.text


# -- staged learning --------------------------------------------------------------------------


def test_staged_learning_full_size_single_repetition(corpus):
    instructions = default_instructions()
    points = staged_learning(
        corpus, instructions, sizes=(len(corpus),), repetitions=10, seed=0
    )
    assert len(points) == 1
    assert len(points[0].repetitions) == 1


def test_staged_learning_smoke_deterministic(corpus):
    instructions = default_instructions()
    kwargs = dict(sizes=(40,), repetitions=2, seed=5)
    p1 = staged_learning(corpus, instructions, **kwargs)
    p2 = staged_learning(corpus, instructions, **kwargs)
    assert p1 == p2
    assert len(p1[0].repetitions) == 2


def test_staged_learning_rejects_oversized_request(corpus):
    with pytest.raises(ValueError, match="exceeds"):
        staged_learning(corpus, default_instructions(), sizes=(len(corpus) + 1,))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(sizes=(40,), repetitions=0), "repetitions"),
        (dict(sizes=(40,), repetitions=-1), "repetitions"),
        (dict(sizes=(0,)), "training size"),
        (dict(sizes=(40, -5)), "training size"),
    ],
)
def test_staged_learning_rejects_non_positive_counts(corpus, kwargs, message):
    with pytest.raises(ValueError, match=message):
        staged_learning(corpus, default_instructions(), **kwargs)


def test_default_sizes_match_protocol():
    assert DEFAULT_SIZES == (100, 300, 500, 700, 900, 1100, 1270)


def test_curve_csv_format():
    from wordground.evaluation import CurvePoint

    points = [CurvePoint(train_size=10, repetitions=((0.5, 1.0), (0.25, 0.75)))]
    text = curve_to_csv(points)
    lines = text.splitlines()
    assert lines[0] == "size,repetition,soft,hard"
    assert lines[1] == "10,0,0.5,1"
    assert lines[2] == "10,1,0.25,0.75"


CURVE_SCRIPT = """
import sys
from wordground.datagen import build_corpus, default_lexicon, default_world
from wordground.evaluation import curve_to_csv, default_instructions, staged_learning
corpus = build_corpus(default_world(), default_lexicon(), 254, 5, seed=3).experiences
points = staged_learning(corpus, default_instructions(), sizes=(100, 300), repetitions=4, seed=3)
sys.stdout.write(curve_to_csv(points))
"""


def test_curve_csv_is_identical_under_any_string_hash_seed():
    # Soft accuracy must not depend on the iteration order of the frozenset
    # of compatible cells, which follows the per-process string hash seed.
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", CURVE_SCRIPT],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0].startswith("size,repetition,soft,hard\n")
    assert outputs[0] == outputs[1]
