import gc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wordground import grounding
from wordground.grounding import (
    VALUES,
    Experience,
    bag_of_words,
    format_experience,
    load_corpus,
    parse_experience,
    save_corpus,
)
from wordground.inference import SceneObject, load_scene, select_action_object
from wordground.network import (
    PRESENT,
    Network,
    StateTable,
    Variable,
    affordance_variables,
    word_variable,
)
from wordground.structure import encode_columns, fit_cpts

from test_structure import ones


# -- bag of words ------------------------------------------------------------


def test_bag_merges_duplicates():
    assert bag_of_words("the ball the ball is") == {"the", "ball", "is"}


def test_bag_of_empty_string():
    assert bag_of_words("") == frozenset()


def test_bag_example_sentence():
    got = bag_of_words("Baltazar is grasping the ball but the ball is still.")
    assert got == {"baltazar", "is", "grasping", "the", "ball", "but", "still"}


def test_bag_accepts_token_iterables():
    assert bag_of_words(["The", "Ball", "ball."]) == {"the", "ball"}


def test_bag_idempotent():
    bag = bag_of_words("He taps the green square and the square is sliding.")
    assert bag_of_words(bag) == bag


@given(st.lists(st.sampled_from("the ball is rolling green he".split()), max_size=12))
def test_bag_order_and_repetition_invariant(tokens):
    assert bag_of_words(tokens) == bag_of_words(list(reversed(tokens)) + tokens)


# -- word likelihood: p(word present | state), one row of the word's CPT --------


def word_likelihood(net, word, state):
    return net.cpt_row(word, state)[net.variable(word).index_of(PRESENT)]


def test_word_likelihood_matches_laplace_frequency():
    # a parentless word present in 74 of 1270 records, alpha=1
    action = Variable("Action", ("grasp", "tap", "touch"), "action")
    w = word_variable("w")
    variables, parents = [action, w], {}
    records = [
        {"Action": ("grasp", "tap", "touch")[i % 3], "w": "present" if i % 17 == 0 and i // 17 < 74 else "absent"}
        for i in range(1270)
    ]
    presences = sum(1 for r in records if r["w"] == "present")
    assert presences == 74
    fitted = fit_cpts(variables, parents, encode_columns(variables, records), ones(records), 1.0)
    assert abs(word_likelihood(fitted, "w", {"Action": "tap"}) - 75 / 1272) < 1e-15


def test_word_likelihood_unseen_configuration_is_half():
    action = Variable("Action", ("grasp", "tap", "touch"), "action")
    w = word_variable("w")
    variables, parents = [action, w], {"w": ("Action",)}
    records = [{"Action": "grasp", "w": "present"}] * 10
    fitted = fit_cpts(variables, parents, encode_columns(variables, records), ones(records), 1.0)
    assert word_likelihood(fitted, "w", {"Action": "tap"}) == 0.5


def test_word_likelihood_deterministic_indicator_approaches_one():
    action = Variable("Action", ("grasp", "tap", "touch"), "action")
    w = word_variable("w")
    variables, parents = [action, w], {"w": ("Action",)}
    records = [{"Action": "grasp", "w": "present"}] * 40 + [
        {"Action": "tap", "w": "absent"}
    ] * 40
    ml = fit_cpts(variables, parents, encode_columns(variables, records), ones(records), 0.0)
    assert word_likelihood(ml, "w", {"Action": "grasp"}) == 1.0
    tiny = fit_cpts(variables, parents, encode_columns(variables, records), ones(records), 1e-9)
    assert word_likelihood(tiny, "w", {"Action": "grasp"}) > 1 - 1e-6


# -- description likelihood: p(bag | state) from the state table -----------------


def description_likelihood(net, bag, state):
    """The engine's joint of the state and the bag words present, divided
    by the state's prior mass."""
    idx = tuple(net.variable(name).index_of(value) for name, value in state.items())
    state_mass, bound_mass = StateTable(net).joint([[], bag], list(state))[(slice(None),) + idx]
    return float(bound_mass / state_mass)


def two_word_net(p, q):
    action = Variable("Action", ("grasp", "tap", "touch"), "action")
    w1, w2 = word_variable("w1"), word_variable("w2")
    cpts = {
        "Action": np.array([[1 / 3, 1 / 3, 1 / 3]]),
        "w1": np.array([[1 - p, p]]),
        "w2": np.array([[1 - q, q]]),
    }
    return Network([action, w1, w2], {"Action": (), "w1": (), "w2": ()}, cpts)


def smoothed_net(seed=6):
    rng = np.random.default_rng(seed)
    variables = [
        Variable("Action", ("grasp", "tap", "touch"), "action"),
        word_variable("w1"),
        word_variable("w2"),
    ]
    records = [
        {
            "Action": rng.choice(["grasp", "tap", "touch"]),
            "w1": rng.choice(["absent", "present"]),
            "w2": rng.choice(["absent", "present"]),
        }
        for _ in range(50)
    ]
    return fit_cpts(
        variables, {"w1": ("Action",)}, encode_columns(variables, records), ones(records), 1.0
    )


STATE = {"Action": "tap"}


def test_description_likelihood_empty_bag_is_one():
    net = two_word_net(0.3, 0.6)
    assert description_likelihood(net, [], STATE) == 1.0


def test_description_likelihood_single_word_equals_word_likelihood():
    net = smoothed_net()
    for action in ("grasp", "tap", "touch"):
        state = {"Action": action}
        got = description_likelihood(net, ["w1"], state)
        assert abs(got - word_likelihood(net, "w1", state)) < 1e-15


def test_description_likelihood_independent_words_multiply():
    # fitted frequencies 30/100 and 52/100 with alpha=1
    p = (30 + 1) / 102
    q = (52 + 1) / 102
    net = two_word_net(p, q)
    assert abs(description_likelihood(net, ["w1", "w2"], STATE) - p * q) < 1e-15


def test_description_likelihood_skips_unknown_words(caplog):
    net = smoothed_net()
    scene = [SceneObject("it", {})]
    with caplog.at_level("WARNING"):
        got = select_action_object(net, ["w1", "zebra"], scene)
    assert got == select_action_object(net, ["w1"], scene)
    assert got != select_action_object(net, [], scene)
    assert "skipping unknown words: zebra" in caplog.text


@given(st.lists(st.sampled_from(["w1", "w2"]), min_size=1, max_size=6))
def test_description_likelihood_order_and_repetition_invariant(bag):
    # The engine multiplies word factors in sorted order, whatever the
    # order of the bag, and counts a repeated word once.
    table = StateTable(smoothed_net())
    assert np.array_equal(table.joint([bag], ["Action"]), table.joint([sorted(set(bag))], ["Action"]))


def test_description_likelihood_in_unit_interval_with_smoothing():
    fitted = smoothed_net()
    for action in ("grasp", "tap", "touch"):
        p = description_likelihood(fitted, ["w1", "w2"], {"Action": action})
        assert 0.0 < p <= 1.0


# -- corpus file ------------------------------------------------------------------


FULL_STATE = {
    "Action": "grasp",
    "Color": "yellow",
    "Size": "medium",
    "Shape": "sphere",
    "ObjVel": "medium",
    "HandVel": "fast",
    "ObjHandVel": "slow",
    "Contact": "long",
}


def test_experience_line_roundtrip(tmp_path):
    exp = Experience(state=dict(FULL_STATE), description=bag_of_words("the ball is rising"))
    line = format_experience(exp)
    assert line == "grasp|yellow,medium,sphere|medium,fast,slow,long|ball is rising the"
    assert parse_experience(line, 1) == exp

    path = tmp_path / "corpus.txt"
    save_corpus([exp, exp], path)
    assert load_corpus(path) == [exp, exp]


def test_save_corpus_refuses_a_record_after_one_that_reads_back_and_writes_nothing(tmp_path):
    # the writer reads every record back with one token map: "Ball" must not
    # pass as the "ball" of the record before it
    good = Experience(state=dict(FULL_STATE), description=frozenset({"ball"}))
    bad = Experience(state=dict(FULL_STATE), description=frozenset({"Ball"}))
    path = tmp_path / "corpus.txt"
    with pytest.raises(ValueError, match="cannot write record"):
        save_corpus([good, bad], path)
    assert not path.exists()


def test_parse_experience_reports_line_numbers():
    with pytest.raises(ValueError, match="line 3"):
        parse_experience("only|two|fields", lineno=3)
    with pytest.raises(ValueError, match="expected 3 values"):
        parse_experience("grasp|yellow,medium|slow,slow,slow,short|w", 2)
    with pytest.raises(ValueError, match="line 4: 'purple' is not a Color value"):
        parse_experience("grasp|purple,small,box|slow,slow,slow,short|w", lineno=4)


STATE_NAMES = tuple(FULL_STATE)
# Text with and without the characters the corpus format reserves, and a
# lone surrogate, which UTF-8 cannot encode.
ANY_TEXT = st.text(alphabet="abZé.!|, \t\n\ud800", max_size=4)
# A state of the default domain, and a value of any of its variables.
DOMAIN_STATE = st.fixed_dictionaries(
    {v.name: st.sampled_from(v.values) for v in affordance_variables()}
)
ANY_VALUE = st.sampled_from([x for v in affordance_variables() for x in v.values])


@given(
    DOMAIN_STATE,
    st.frozensets(ANY_TEXT, max_size=3),
    st.none() | st.tuples(st.sampled_from(STATE_NAMES), ANY_TEXT | ANY_VALUE),
    st.none() | st.sampled_from(STATE_NAMES),
    st.none() | st.tuples(ANY_TEXT, ANY_TEXT | ANY_VALUE),
)
def test_corpus_writer_refuses_what_the_reader_cannot_read_back(
    tmp_path_factory, state, words, replaced, dropped, added
):
    if replaced is not None:
        name, value = replaced
        state[name] = value
    if dropped is not None:
        del state[dropped]
    if added is not None:
        name, value = added
        state[name] = value
    exp = Experience(state=state, description=words)
    path = tmp_path_factory.mktemp("corpus") / "corpus.txt"
    try:
        save_corpus([exp, exp], path)
    except ValueError:
        assert not path.exists()
        return
    assert load_corpus(path) == [exp, exp]


@pytest.mark.parametrize("word", ["a|b", "a,b", "a b", "", "Ball", "ball.", "a\ud800"])
def test_format_experience_refuses_unreadable_words(word):
    exp = Experience(state=dict(FULL_STATE), description=frozenset({"the", word}))
    with pytest.raises(ValueError, match="cannot write"):
        format_experience(exp)


@pytest.mark.parametrize("value", ["a|b", "a,b", "a b", "", "purple"])
def test_format_experience_refuses_unreadable_state_values(value):
    exp = Experience(state={**FULL_STATE, "Color": value}, description=frozenset({"the"}))
    with pytest.raises(ValueError, match="cannot write"):
        format_experience(exp)


@pytest.mark.parametrize(
    "state, message",
    [
        ({**FULL_STATE, "Extra": "x"}, "unknown field 'Extra'"),
        ({k: v for k, v in FULL_STATE.items() if k != "Contact"}, "no Contact value"),
    ],
)
def test_format_experience_refuses_a_state_without_the_domain_fields(state, message):
    exp = Experience(state=state, description=frozenset({"the"}))
    with pytest.raises(ValueError, match=f"cannot write record .*{message}"):
        format_experience(exp)


def test_read_records_share_one_string_per_value_and_word(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(
        "grasp|yellow,medium,sphere|medium,fast,slow,long|The ball is rising\n"
        "tap|blue,small,box|slow,slow,slow,short|the box. is still\n"
        "grasp|yellow,medium,sphere|medium,fast,slow,long|the ball box\n"
    )
    records = load_corpus(path)

    def word(record, text):
        return next(w for w in records[record].description if w == text)

    for record in records:
        for name, value in record.state.items():
            assert value is VALUES[name][VALUES[name].index(value)]
    assert word(0, "ball") is word(2, "ball")
    assert word(0, "is") is word(1, "is")
    assert word(1, "box") is word(2, "box")
    assert word(0, "the") is word(1, "the") is word(2, "the")
    assert records[0].state is not records[2].state
    assert not hasattr(records[0], "__dict__")
    assert records == [parse_experience(line, 1) for line in path.read_text().splitlines()]


def test_a_line_refused_mid_file_is_named_and_its_file_closed(tmp_path, monkeypatch):
    opened = []

    def tracked_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(grounding, "open", tracked_open, raising=False)
    line = format_experience(Experience(state=FULL_STATE, description=frozenset({"it"})))
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(f"{line}\n\n{line.replace('yellow', 'purple')}\n{line}\n")
    scene = tmp_path / "scene.txt"
    scene.write_text("ball|yellow,small,sphere\nbox|blue,huge,box\ncup|blue,big,box\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        with pytest.raises(ValueError, match="line 3: 'purple' is not a Color value"):
            load_corpus(corpus)
        with pytest.raises(ValueError, match="line 2: 'huge' is not a Size value"):
            load_scene(scene)
        gc.collect()
    assert len(opened) == 2
    assert all(fh.closed for fh in opened)
