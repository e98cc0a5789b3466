import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wordground

from wordground.cli import main
from wordground.datagen import build_corpus, default_lexicon, default_world
from wordground.grounding import save_corpus
from wordground.network import StateTable, load_network


@pytest.fixture()
def workdir(tmp_path):
    return tmp_path


def run(*argv):
    return main(list(argv))


def generate(workdir, seed=11, extra=()):
    out = workdir / "data"
    code = run(
        "generate", "--out", str(out), "--seed", str(seed), "--n", "60", "--k", "3",
        *extra,
    )
    assert code == 0
    return out


def test_generate_writes_corpus_and_histogram(workdir, capsys):
    out = generate(workdir)
    lines = (out / "corpus_clean.txt").read_text().splitlines()
    assert len(lines) == 180
    stdout = capsys.readouterr().out
    assert "histogram" in stdout
    assert "the" in stdout


def test_generate_single_record(workdir):
    out = workdir / "one"
    assert run("generate", "--out", str(out), "--seed", "1", "--n", "1", "--k", "1") == 0
    assert len((out / "corpus_clean.txt").read_text().splitlines()) == 1


def test_generate_same_seed_identical_bytes(workdir):
    a = generate(workdir / "a", seed=7, extra=("--noise",))
    b = generate(workdir / "b", seed=7, extra=("--noise",))
    for name in ("corpus_clean.txt", "corpus_recognized.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_train_writes_model_and_report(workdir, capsys):
    out = generate(workdir, seed=11)
    model_path = workdir / "model.json"
    code = run(
        "train", "--corpus", str(out / "corpus_clean.txt"), "--model", str(model_path)
    )
    assert code == 0
    net = load_network(model_path)
    assert "green" in net.word_names()
    report = (workdir / "model.json.report.txt").read_text()
    assert "green <- Color" in report


def test_train_rejects_malformed_corpus(workdir, capsys):
    bad = workdir / "bad.txt"
    bad.write_text("not a corpus line\n", encoding="utf-8")
    code = run("train", "--corpus", str(bad), "--model", str(workdir / "m.json"))
    assert code == 2
    assert "line 1" in capsys.readouterr().err


def test_train_and_eval_reject_corpus_value_outside_the_domain(workdir, capsys):
    # the error names the file's line, not the record's index among the
    # nonblank lines, and nothing is written
    bad = workdir / "bad.txt"
    bad.write_text(
        "tap|yellow,small,box|slow,slow,slow,short|tap the box\n"
        "\n"
        "grasp|purple,small,box|slow,slow,slow,short|grasp the box\n",
        encoding="utf-8",
    )
    out = workdir / "out"
    for argv in (
        ["train", "--corpus", str(bad), "--model", str(out)],
        ["eval", "--corpus", str(bad), "--out", str(out), "--seed", "3"],
    ):
        code = run(*argv)
        captured = capsys.readouterr()
        assert code == 2, captured.err
        assert captured.err == (
            "error: malformed experience record at line 3: 'purple' is not a Color value\n"
        )
        assert not out.exists()


def test_train_rejects_empty_corpus(workdir, capsys):
    empty = workdir / "empty.txt"
    empty.write_text("", encoding="utf-8")
    model_path = workdir / "m.json"
    code = run("train", "--corpus", str(empty), "--model", str(model_path))
    assert code == 2
    assert "corpus has no records" in capsys.readouterr().err
    assert not model_path.exists()


@pytest.mark.parametrize(
    "n_records, message", [(0, "corpus has no records"), (60, "no training sizes")]
)
def test_eval_rejects_corpus_without_training_sizes(workdir, capsys, n_records, message):
    # The default sizes start at 100 records, so a smaller corpus has none.
    corpus = build_corpus(default_world(), default_lexicon(), 20, 3, seed=5).experiences
    corpus_path = workdir / "small.txt"
    save_corpus(corpus[:n_records], corpus_path)
    out_csv = workdir / "curve.csv"
    code = run("eval", "--corpus", str(corpus_path), "--out", str(out_csv), "--seed", "3")
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out_csv.exists()


def test_missing_model_is_runtime_error(workdir, capsys):
    scene = workdir / "scene.txt"
    scene.write_text("ball|yellow,small,sphere\n", encoding="utf-8")
    code = run(
        "instruct", "--model", str(workdir / "nope.json"), "--scene", str(scene),
        "--words", "tap the ball",
    )
    assert code == 1


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    corpus = build_corpus(default_world(), default_lexicon(), 254, 5, seed=11).experiences
    corpus_path = root / "corpus.txt"
    save_corpus(corpus, corpus_path)
    model_path = root / "model.json"
    assert run(
        "train", "--corpus", str(corpus_path), "--model", str(model_path),
        "--alpha", "0",
    ) == 0
    scene_path = root / "scene.txt"
    scene_path.write_text(
        "lightgreen big sphere|lightgreen,big,sphere\n"
        "yellow medium sphere|yellow,medium,sphere\n"
        "darkgreen small box|darkgreen,small,box\n"
        "blue medium box|blue,medium,box\n"
        "blue big box|blue,big,box\n"
        "darkgreen small sphere|darkgreen,small,sphere\n",
        encoding="utf-8",
    )
    return root, corpus_path, model_path, scene_path


def test_instruct_prints_ranking(trained, capsys):
    root, _, model_path, scene_path = trained
    code = run(
        "instruct", "--model", str(model_path), "--scene", str(scene_path),
        "--words", "rises yellow",
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "best: grasp yellow medium sphere" in stdout
    # entries below two-digit display precision render as dashes
    assert any(line.strip().endswith("-") for line in stdout.splitlines())


def test_instruct_impossible_banner(trained, capsys):
    root, _, model_path, scene_path = trained
    code = run(
        "instruct", "--model", str(model_path), "--scene", str(scene_path),
        "--words", "ball sliding",
    )
    assert code == 0
    assert "IMPOSSIBLE" in capsys.readouterr().out


def test_instruct_empty_scene_is_input_error(trained, workdir, capsys):
    root, _, model_path, _ = trained
    empty = workdir / "empty.txt"
    empty.write_text("", encoding="utf-8")
    code = run(
        "instruct", "--model", str(model_path), "--scene", str(empty),
        "--words", "tap the ball",
    )
    assert code == 2


def test_repl_reads_stdin(trained, capsys, monkeypatch):
    root, _, model_path, scene_path = trained
    monkeypatch.setattr("sys.stdin", io.StringIO("rises yellow\n\n"))
    code = run("repl", "--model", str(model_path), "--scene", str(scene_path))
    assert code == 0
    assert "best: grasp yellow medium sphere" in capsys.readouterr().out


def test_repl_reports_request_without_words_and_reads_on(trained, capsys, monkeypatch):
    root, _, model_path, scene_path = trained
    monkeypatch.setattr("sys.stdin", io.StringIO("?!\nrises yellow\n\ntap the box\n"))
    code = run("repl", "--model", str(model_path), "--scene", str(scene_path))
    assert code == 0
    captured = capsys.readouterr()
    assert "'?!' holds no words" in captured.err
    # one ranking: for the request with words, none after the empty line
    best = [line for line in captured.out.splitlines() if line.startswith("best:")]
    assert len(best) == 1 and best[0].startswith("best: grasp yellow medium sphere")


def test_repl_reports_request_with_no_known_word_and_reads_on(trained, capsys, monkeypatch):
    root, _, model_path, scene_path = trained
    monkeypatch.setattr("sys.stdin", io.StringIO("xyzzy plugh\nrises yellow\n\n"))
    code = run("repl", "--model", str(model_path), "--scene", str(scene_path))
    assert code == 0
    captured = capsys.readouterr()
    assert "knows none of the words: plugh, xyzzy" in captured.err
    best = [line for line in captured.out.splitlines() if line.startswith("best:")]
    assert len(best) == 1 and best[0].startswith("best: grasp yellow medium sphere")


def test_repl_session_equals_one_shot_instructs(trained, capsys, monkeypatch):
    root, _, model_path, scene_path = trained
    lines = ["rises yellow", "tap the blue box", "grasp the ball"]
    files = ("--model", str(model_path), "--scene", str(scene_path))
    one_shot = []
    for line in lines:
        assert run("instruct", *files, "--words", line) == 0
        one_shot.append(capsys.readouterr().out)
    builds = []
    init = StateTable.__init__

    def counted(self, network):
        builds.append(network)
        init(self, network)

    monkeypatch.setattr(StateTable, "__init__", counted)
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(f"{line}\n" for line in lines)))
    assert run("repl", *files) == 0
    banner = "enter an instruction per line (empty line or EOF quits)\n"
    assert capsys.readouterr().out == banner + "".join(one_shot)
    assert len(builds) == 1


def test_instruct_rejects_request_with_no_known_word(trained, capsys):
    # without a known word every pair would score 1, and the grid's first
    # pair would come out best
    root, _, model_path, scene_path = trained
    code = run(
        "instruct", "--model", str(model_path), "--scene", str(scene_path),
        "--words", "xyzzy plugh",
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "knows none of the words: plugh, xyzzy" in captured.err
    assert captured.out == ""


def test_rescore_rejects_hypothesis_with_no_known_word(trained, workdir, capsys):
    root, _, model_path, scene_path = trained
    nbest = workdir / "nbest.txt"
    nbest.write_text("0.3|xyzzy plugh\n0.5|tap the ball\n", encoding="utf-8")
    code = run(
        "rescore", "--model", str(model_path), "--scene", str(scene_path),
        "--nbest", str(nbest),
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "knows none of the words: plugh, xyzzy" in captured.err
    assert captured.out == ""


def test_rescore_selects_contextual_winner(trained, capsys):
    root, _, model_path, scene_path = trained
    nbest = root / "nbest.txt"
    nbest.write_text(
        "0.100|tapping small sliding\n0.070|tapping box slides\n0.010|tapped ball rolls\n",
        encoding="utf-8",
    )
    code = run(
        "rescore", "--model", str(model_path), "--scene", str(scene_path),
        "--nbest", str(nbest),
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("1.") and "tapping box slides" in lines[0]


def test_eval_writes_learning_curve(trained, capsys):
    root, corpus_path, _, _ = trained
    out_csv = root / "curve.csv"
    code = run(
        "eval", "--corpus", str(corpus_path), "--out", str(out_csv), "--seed", "3",
        "--sizes", "50", "100", "--reps", "2",
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "size,repetition,soft,hard"
    assert len(lines) == 1 + 2 * 2


@pytest.mark.parametrize("p", ["nan", "inf", "0", "-1", "1e400"])
def test_rescore_rejects_acoustic_probability_not_finite_and_positive(
    trained, workdir, capsys, p
):
    root, _, model_path, scene_path = trained
    nbest = workdir / "nbest.txt"
    nbest.write_text(f"0.5|tap the ball\n{p}|touch the box\n", encoding="utf-8")
    code = run(
        "rescore", "--model", str(model_path), "--scene", str(scene_path),
        "--nbest", str(nbest),
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: malformed N-best record at line 2: "
        f"acoustic probability must be finite and positive, got {p!r}\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize("line", ["0.5|", "0.5|   ", "0.5|. ,"])
def test_rescore_rejects_hypothesis_without_words(trained, workdir, capsys, line):
    # an empty bag scores 1 for every pair, so it would outrank every real
    # hypothesis
    root, _, model_path, scene_path = trained
    nbest = workdir / "nbest.txt"
    nbest.write_text(f"0.3|tap the ball\n{line}\n", encoding="utf-8")
    code = run(
        "rescore", "--model", str(model_path), "--scene", str(scene_path),
        "--nbest", str(nbest),
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "line 2" in captured.err and "no words" in captured.err
    assert captured.out == ""


def test_instruct_rejects_scene_object_without_id(trained, workdir, capsys):
    root, _, model_path, _ = trained
    scene = workdir / "scene.txt"
    scene.write_text("a|yellow,small,sphere\n|blue,small,box\n", encoding="utf-8")
    code = run(
        "instruct", "--model", str(model_path), "--scene", str(scene),
        "--words", "tap the ball",
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "line 2" in captured.err and "empty object id" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("words", ["", "   ", "?!"])
def test_instruct_rejects_request_without_words(trained, capsys, words):
    root, _, model_path, scene_path = trained
    code = run(
        "instruct", "--model", str(model_path), "--scene", str(scene_path),
        "--words", words,
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "--words" in captured.err
    assert captured.out == ""


def test_instruct_rejects_duplicate_scene_ids(trained, workdir, capsys):
    root, _, model_path, _ = trained
    scene = workdir / "scene.txt"
    scene.write_text("a|yellow,small,sphere\na|blue,big,box\n", encoding="utf-8")
    code = run(
        "instruct", "--model", str(model_path), "--scene", str(scene),
        "--words", "tap the ball",
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: malformed scene record at line 2: duplicate object id 'a'\n"
    assert captured.out == ""


def test_instruct_rejects_scene_value_outside_the_domain(trained, workdir, capsys):
    root, _, model_path, _ = trained
    scene = workdir / "scene.txt"
    scene.write_text("a|yellow,small,sphere\nball|purple,small,sphere\n", encoding="utf-8")
    code = run(
        "instruct", "--model", str(model_path), "--scene", str(scene),
        "--words", "tap the ball",
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: malformed scene record at line 2: 'purple' is not a Color value\n"
    assert captured.out == ""


def test_instruct_rejects_model_with_invalid_cpt(trained, workdir, capsys):
    root, _, model_path, scene_path = trained
    model = json.loads(model_path.read_text(encoding="utf-8"))
    model["cpts"]["Action"] = [[float("nan"), -0.5, 2.0]]
    bad = workdir / "bad.json"
    bad.write_text(json.dumps(model), encoding="utf-8")
    code = run(
        "instruct", "--model", str(bad), "--scene", str(scene_path),
        "--words", "tap the ball",
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "Action" in captured.err
    assert "IMPOSSIBLE" not in captured.out


def test_instruct_rejects_malformed_model_file(trained, workdir, capsys):
    root, _, model_path, scene_path = trained
    model = json.loads(model_path.read_text(encoding="utf-8"))
    bad = workdir / "bad.json"
    string_values = json.loads(json.dumps(model))
    string_values["variables"][2]["values"] = "sb"
    misspelt_key = json.loads(json.dumps(model))
    misspelt_key["variables"][0]["nmae"] = "Actoin"
    no_action = json.loads(json.dumps(model))
    no_action["variables"][0]["kind"] = "feature"
    cases = [
        [],
        {**model, "variables": 5},
        {**model, "pseudocount": None},
        {**model, "pseudocount": float("nan")},
        {**model, "pseudocount": -3},
        string_values,
        misspelt_key,
        {**model, "comment": "fitted"},
        {**model, "parents": {**model["parents"], "Typo": ["Action"]}},
    ]
    texts = [json.dumps(obj) for obj in cases]
    # two Action CPTs, of which a plain json.loads would keep the second
    texts.append(
        json.dumps(model).replace('"cpts": {', '"cpts": {"Action": [[1.0, 0.0, 0.0]], ', 1)
    )
    errors = ["error: model file"] * len(texts)
    # a model that loads but has no action to choose
    texts.append(json.dumps(no_action))
    errors.append("error: the model has no action variable")
    for text, error in zip(texts, errors):
        bad.write_text(text, encoding="utf-8")
        code = run(
            "instruct", "--model", str(bad), "--scene", str(scene_path),
            "--words", "tap the ball",
        )
        captured = capsys.readouterr()
        assert code == 2, captured.err
        assert captured.err.startswith(error)
        assert captured.out == ""


@pytest.mark.parametrize("row", [["0.25", "0.75"], [True, False], [0.25, "0.75"]])
def test_instruct_rejects_model_with_cpt_entry_that_is_not_a_number(
    trained, workdir, capsys, row
):
    root, _, model_path, scene_path = trained
    model = json.loads(model_path.read_text(encoding="utf-8"))
    model["cpts"]["Shape"] = [row]
    bad = workdir / "bad.json"
    bad.write_text(json.dumps(model), encoding="utf-8")
    code = run(
        "instruct", "--model", str(bad), "--scene", str(scene_path),
        "--words", "tap the ball",
    )
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert captured.err.startswith("error: model file: CPT for 'Shape'")
    assert "not a number" in captured.err
    assert captured.out == ""


def test_instruct_rejects_model_with_child_declared_before_parent(trained, workdir, capsys):
    root, _, model_path, scene_path = trained
    model = json.loads(model_path.read_text(encoding="utf-8"))
    objvel = next(v for v in model["variables"] if v["name"] == "ObjVel")
    model["variables"].remove(objvel)
    model["variables"].insert(0, objvel)
    bad = workdir / "bad.json"
    bad.write_text(json.dumps(model), encoding="utf-8")
    code = run(
        "instruct", "--model", str(bad), "--scene", str(scene_path),
        "--words", "tap the ball",
    )
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert "'Action' of 'ObjVel'" in captured.err
    assert captured.out == ""


def test_rescore_and_repl_reject_model_without_action(trained, workdir, capsys, monkeypatch):
    root, _, model_path, scene_path = trained
    model = json.loads(model_path.read_text(encoding="utf-8"))
    model["variables"][0]["kind"] = "feature"
    bad = workdir / "no_action.json"
    bad.write_text(json.dumps(model), encoding="utf-8")
    nbest = workdir / "nbest.txt"
    nbest.write_text("0.5|tap the ball\n", encoding="utf-8")
    query = ["--model", str(bad), "--scene", str(scene_path)]
    monkeypatch.setattr("sys.stdin", io.StringIO("tap the ball\n"))
    for argv in (["rescore", *query, "--nbest", str(nbest)], ["repl", *query]):
        code = run(*argv)
        captured = capsys.readouterr()
        assert code == 2, captured.err
        assert captured.err == "error: the model has no action variable\n"


def test_generate_has_no_lexicon_option(workdir, capsys):
    out = workdir / "data"
    with pytest.raises(SystemExit) as exit_:
        run("generate", "--out", str(out), "--seed", "0", "--lexicon", "x.json")
    assert exit_.value.code == 2
    assert "unrecognized arguments: --lexicon x.json" in capsys.readouterr().err
    assert not out.exists()


def test_model_nested_too_deeply_or_repeating_a_key_is_input_error(trained, workdir, capsys):
    root, _, model_path, scene_path = trained
    text = model_path.read_text(encoding="utf-8")
    bad = workdir / "bad.json"
    for body, error in (
        # deeper than the JSON parser can recurse
        ("[" * 100_000, "model file is nested too deeply"),
        (text.replace('"pseudocount": ', '"pseudocount": 1, "pseudocount": ', 1),
         "model file: duplicate key 'pseudocount'"),
    ):
        bad.write_text(body, encoding="utf-8")
        code = run("instruct", "--model", str(bad), "--scene", str(scene_path), "--words", "tap")
        captured = capsys.readouterr()
        assert code == 2, captured.err
        assert captured.err == f"error: {error}\n"
        assert captured.out == ""


@pytest.mark.parametrize(
    "argv, clash",
    [
        (["train", "--corpus", "c.txt", "--model", "m.json", "--report", "m.json"],
         "--model and --report both name m.json"),
        (["train", "--corpus", "c.txt", "--model", "./c.txt"],
         "--corpus and --model both name ./c.txt"),
        (["train", "--corpus", "c.txt", "--model", "m.json", "--report", "sub/../c.txt"],
         "--corpus and --report both name sub/../c.txt"),
        (["train", "--corpus", "m.json.report.txt", "--model", "m.json"],
         "--corpus and --report both name m.json.report.txt"),
        (["eval", "--corpus", "c.txt", "--out", "c.txt"], "--corpus and --out both name c.txt"),
        (["eval", "--corpus", "c.txt", "--instructions", "i.txt", "--out", "i.txt"],
         "--instructions and --out both name i.txt"),
    ],
    ids=["model-report", "model-corpus", "report-corpus", "default-report-corpus",
         "eval-out-corpus", "eval-out-instructions"],
)
def test_train_and_eval_refuse_an_output_that_names_another_path(
    trained, workdir, capsys, monkeypatch, argv, clash
):
    # the command's inputs are left as they were and no output is written
    _, corpus_path, _, _ = trained
    monkeypatch.chdir(workdir)
    (workdir / "sub").mkdir()
    corpus_text = corpus_path.read_text(encoding="utf-8")
    inputs = {"c.txt": corpus_text, "m.json.report.txt": corpus_text,
              "i.txt": "grasp the ball|grasp,*,*,sphere\n"}
    for name, text in inputs.items():
        (workdir / name).write_text(text, encoding="utf-8")
    if argv[0] == "eval":
        argv = argv + ["--seed", "0", "--sizes", "10", "--reps", "1"]
    code = run(*argv)
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert captured.err == f"error: {clash}\n"
    assert {p.name for p in workdir.iterdir()} == set(inputs) | {"sub"}
    for name, text in inputs.items():
        assert (workdir / name).read_text(encoding="utf-8") == text


@pytest.mark.parametrize(
    "extra, message",
    [
        (("--sizes", "50", "--reps", "0"), "repetitions"),
        (("--sizes", "0"), "training size"),
        (("--sizes",), "no training sizes"),
    ],
)
def test_eval_rejects_non_positive_counts(trained, capsys, extra, message):
    root, corpus_path, _, _ = trained
    out_csv = root / "rejected.csv"
    code = run(
        "eval", "--corpus", str(corpus_path), "--out", str(out_csv), "--seed", "3", *extra
    )
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out_csv.exists()


# 5e307 is finite, but times Color's 4 values it overflows to inf
@pytest.mark.parametrize("alpha", ["nan", "inf", "5e307"])
def test_train_rejects_non_finite_alpha(trained, capsys, alpha):
    root, corpus_path, _, _ = trained
    model_path = root / f"alpha-{alpha}.json"
    code = run(
        "train", "--corpus", str(corpus_path), "--model", str(model_path), "--alpha", alpha
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: pseudocount must be a finite number") and err.count("\n") == 1
    assert not model_path.exists()


@pytest.mark.parametrize("alpha", ["nan", "inf", "5e307"])
def test_eval_rejects_non_finite_alpha(trained, capsys, alpha):
    root, corpus_path, _, _ = trained
    out_csv = root / f"alpha-{alpha}.csv"
    code = run(
        "eval", "--corpus", str(corpus_path), "--out", str(out_csv), "--seed", "3",
        "--sizes", "50", "--reps", "1", "--alpha", alpha,
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: pseudocount must be a finite number") and err.count("\n") == 1
    assert not out_csv.exists()


@pytest.fixture(scope="module")
def boundary_files(tmp_path_factory):
    """A valid file for each of the five file boundaries, and a model and
    scene for the commands that read one of them; the corpus is small so
    that `train` and `eval` on it are quick."""
    root = tmp_path_factory.mktemp("boundaries")
    corpus = build_corpus(default_world(), default_lexicon(), 12, 2, seed=3).experiences
    corpus_path, model_path = root / "corpus.txt", root / "model.json"
    save_corpus(corpus, corpus_path)
    assert run("train", "--corpus", str(corpus_path), "--model", str(model_path)) == 0
    scene = "ball|yellow,small,sphere\nbox|blue,big,box\n"
    (root / "scene.txt").write_text(scene, encoding="utf-8")
    valid = {
        "corpus": corpus_path.read_text(encoding="utf-8"),
        "scene": scene,
        "nbest": "0.4|tap the ball\n0.3|grasp the box\n",
        "model": model_path.read_text(encoding="utf-8"),
        "instructions": "grasp the ball|grasp,*,*,sphere\nroll the box|IMPOSSIBLE\n",
    }
    return root, valid


def boundary_argv(boundary, path, root, out):
    """The command that reads `path` as the `boundary` file, writing any
    output under `out`."""
    model, scene, corpus = (str(root / name) for name in ("model.json", "scene.txt", "corpus.txt"))
    return {
        "corpus": ["train", "--corpus", path, "--model", str(out / "model.json")],
        "scene": ["instruct", "--model", model, "--scene", path, "--words", "tap the ball"],
        "nbest": ["rescore", "--model", model, "--scene", scene, "--nbest", path],
        "model": ["instruct", "--model", path, "--scene", scene, "--words", "tap the ball"],
        "instructions": [
            "eval", "--corpus", corpus, "--instructions", path, "--seed", "0",
            "--sizes", "6", "--reps", "1", "--out", str(out / "curve.csv"),
        ],
    }[boundary]


@pytest.mark.parametrize("boundary", ("corpus", "scene", "nbest", "model", "instructions"))
def test_boundary_file_with_a_byte_order_mark_reads_like_the_plain_file(
    boundary_files, boundary, tmp_path, caplog
):
    # some editors write U+FEFF first; it must not stick to the first token
    # (the warnings name the words a model does not know)
    root, valid = boundary_files
    out, results = tmp_path / "out", []
    for text in (valid[boundary], "\ufeff" + valid[boundary]):
        out.mkdir()
        path = out / "input"
        path.write_text(text, encoding="utf-8")
        stdout = io.StringIO()
        caplog.clear()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(boundary_argv(boundary, str(path), root, out))
        written = {p.name: p.read_bytes() for p in out.iterdir() if p != path}
        warnings = [r.getMessage() for r in caplog.records]
        results.append((code, stdout.getvalue(), written, warnings))
        shutil.rmtree(out)
    assert results[0][0] == 0
    assert results[1] == results[0]


SPLICE_TOKENS = ("|", ",", "[", "]", '"', "nan", "1e400", "1e-400", "\x00", "é", "\t")


@settings(max_examples=200, deadline=None)
@given(
    boundary=st.sampled_from(("corpus", "scene", "nbest", "model", "instructions")),
    splices=st.lists(
        st.tuples(st.integers(min_value=0), st.sampled_from(SPLICE_TOKENS)), min_size=1, max_size=3
    ),
)
def test_spliced_boundary_file_is_read_or_refused_in_one_line(boundary_files, boundary, splices):
    # a valid file with 1-3 tokens spliced in is either read (exit 0) or
    # refused as input (exit 2, one `error:` line), never a runtime failure
    root, valid = boundary_files
    text = valid[boundary]
    for position, token in splices:
        position %= len(text) + 1
        text = text[:position] + token + text[position:]
    with tempfile.TemporaryDirectory(dir=root) as out:
        path = Path(out) / "input"
        path.write_text(text, encoding="utf-8")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(boundary_argv(boundary, str(path), root, Path(out)))
    err = stderr.getvalue()
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err


# Runs `wordground.cli.main` on its arguments, or with none only imports the
# package; prints the exit code and the package, numpy and scipy modules then
# loaded.
IMPORT_PROBE = """
import json, sys
if sys.argv[1:]:
    from wordground.cli import main
    code = main(sys.argv[1:])
else:
    import wordground
    code = 0
loaded = [m for m in sys.modules if m.partition(".")[0] in ("wordground", "numpy", "scipy")]
print(json.dumps({"code": code, "loaded": sorted(loaded)}))
"""
SUBMODULES = ("datagen", "evaluation", "grounding", "inference", "network", "structure")
# the package modules each probe must leave unloaded
NOT_LOADED = {
    "import": SUBMODULES + ("cli",),
    "instruct": ("structure", "datagen", "evaluation"),
    "rescore": ("structure", "datagen", "evaluation"),
    "repl": ("structure", "datagen", "evaluation"),
    "train": ("inference", "datagen", "evaluation"),
    "generate": ("structure", "inference", "evaluation"),
    "eval": ("datagen",),
}


@pytest.mark.parametrize("command", NOT_LOADED)
def test_command_imports_only_the_modules_it_runs(trained, workdir, command):
    root, corpus_path, model_path, scene_path = trained
    nbest = workdir / "nbest.txt"
    nbest.write_text("0.5|tap the ball\n", encoding="utf-8")
    query = ["--model", str(model_path), "--scene", str(scene_path)]
    argv = {
        "import": [],
        "instruct": ["instruct", *query, "--words", "tap the ball"],
        "rescore": ["rescore", *query, "--nbest", str(nbest)],
        "repl": ["repl", *query],
        "train": ["train", "--corpus", str(corpus_path), "--model", str(workdir / "m.json")],
        "generate": ["generate", "--out", str(workdir / "data"), "--seed", "0", "--n", "5"],
        "eval": [
            "eval", "--corpus", str(corpus_path), "--out", str(workdir / "curve.csv"),
            "--seed", "0", "--sizes", "50", "--reps", "1",
        ],
    }[command]
    src = str(Path(wordground.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *argv], env=env, stdin=subprocess.DEVNULL,
        capture_output=True, text=True, check=True,
    )
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe["code"] == 0, proc.stderr
    loaded = set(probe["loaded"])
    assert not loaded & {f"wordground.{m}" for m in NOT_LOADED[command]}
    assert not any(m.partition(".")[0] == "scipy" for m in loaded)
    if command == "import":
        assert not any(m.partition(".")[0] == "numpy" for m in loaded)
