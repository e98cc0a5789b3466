import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from wordground.inference import CANONICAL_CELL_ORDER
from wordground.network import (
    Network,
    affordance_variables,
    encode_columns,
    family_log_score,
    fit_cpts,
)
from wordground.structure import train_model

from oracles import oracle_cell_mask

WORLD = default_world()
LEXICON = default_lexicon()
CELL_DOMAINS = [
    next(v.values for v in affordance_variables() if v.name == n) for n in CANONICAL_CELL_ORDER
]


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(WORLD, LEXICON, 254, 5, seed=11).experiences


@pytest.fixture(scope="module")
def model(corpus):
    return train_model(corpus, pseudocount=0.0)


def expand(action="*", color="*", size="*", shape="*"):
    return oracle_cell_mask(f"{action},{color},{size},{shape}", CELL_DOMAINS)


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
    impossible = Instruction(
        bag=frozenset({"x"}), compatible=oracle_cell_mask("IMPOSSIBLE", CELL_DOMAINS)
    )
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


def test_baseline_counts_every_record(corpus):
    # each state counts as often as it occurs: every CPT is the record-level
    # fit, and each word's parent the best one-parent family on the records
    experiences = corpus[:300]
    net = build_baseline_network(experiences)
    words = net.word_names()
    records = [
        dict(e.state, **{w: "present" if w in e.description else "absent" for w in words})
        for e in experiences
    ]
    refit = fit_cpts(net, encode_columns(net.variables, records), 1.0)
    for name in net.names():
        assert np.array_equal(net.cpts[name], refit.cpts[name])
    variables = affordance_variables()
    for word in net.word_names():
        scores = [family_log_score(net.variable(word), [v], records) for v in variables]
        assert net.parents[word] == (variables[scores.index(max(scores))].name,)


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
    assert np.array_equal(ins.compatible, expand(action="grasp", shape="sphere"))
    assert not ins.impossible


def test_parse_instruction_impossible():
    ins = parse_instruction_line("roll the small cube|IMPOSSIBLE")
    assert ins.impossible
    assert not ins.compatible.any()


CELL_SPECS = st.tuples(*(st.sampled_from(("*",) + d) for d in CELL_DOMAINS)).map(",".join)


@given(st.lists(CELL_SPECS, min_size=1, max_size=4).map(";".join) | st.just("IMPOSSIBLE"))
def test_parse_instruction_mask_matches_wildcard_expansion(cells_field):
    # Several `;` chunks may overlap; the mask is their union on the grid.
    ins = parse_instruction_line(f"grasp the ball|{cells_field}")
    expected = oracle_cell_mask(cells_field, CELL_DOMAINS)
    assert ins.compatible.shape == (3, 4, 3, 2)
    assert not ins.compatible.flags.writeable
    assert np.array_equal(ins.compatible, expected)
    assert ins.impossible == (not expected.any())


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
    # Soft accuracy must not depend on the per-process string hash seed.
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
