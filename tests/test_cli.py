import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wordground

from wordground.cli import main
from wordground.datagen import build_corpus, default_lexicon, default_world
from wordground.grounding import save_corpus
from wordground.network import load_network


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
    import io

    root, _, model_path, scene_path = trained
    monkeypatch.setattr("sys.stdin", io.StringIO("rises yellow\n\n"))
    code = run("repl", "--model", str(model_path), "--scene", str(scene_path))
    assert code == 0
    assert "best: grasp yellow medium sphere" in capsys.readouterr().out


def test_repl_reports_request_without_words_and_reads_on(trained, capsys, monkeypatch):
    import io

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
    import io

    root, _, model_path, scene_path = trained
    monkeypatch.setattr("sys.stdin", io.StringIO("xyzzy plugh\nrises yellow\n\n"))
    code = run("repl", "--model", str(model_path), "--scene", str(scene_path))
    assert code == 0
    captured = capsys.readouterr()
    assert "knows none of the words: plugh, xyzzy" in captured.err
    best = [line for line in captured.out.splitlines() if line.startswith("best:")]
    assert len(best) == 1 and best[0].startswith("best: grasp yellow medium sphere")


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


def test_rescore_rejects_non_finite_acoustic_probability(trained, workdir, capsys):
    root, _, model_path, scene_path = trained
    nbest = workdir / "nbest.txt"
    nbest.write_text("nan|tap the ball\n0.5|touch the box\n", encoding="utf-8")
    code = run(
        "rescore", "--model", str(model_path), "--scene", str(scene_path),
        "--nbest", str(nbest),
    )
    assert code == 2
    assert "acoustic probability" in capsys.readouterr().err


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
    assert "duplicate scene object id" in captured.err
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
    cases = [
        [],
        {**model, "variables": 5},
        {**model, "pseudocount": None},
        {**model, "pseudocount": float("nan")},
        {**model, "pseudocount": -3},
        string_values,
        {**model, "comment": "fitted"},
        {**model, "parents": {**model["parents"], "Typo": ["Action"]}},
    ]
    texts = [json.dumps(obj) for obj in cases]
    # two Action CPTs, of which a plain json.loads would keep the second
    texts.append(
        json.dumps(model).replace('"cpts": {', '"cpts": {"Action": [[1.0, 0.0, 0.0]], ', 1)
    )
    for text in texts:
        bad.write_text(text, encoding="utf-8")
        code = run(
            "instruct", "--model", str(bad), "--scene", str(scene_path),
            "--words", "tap the ball",
        )
        captured = capsys.readouterr()
        assert code == 2, captured.err
        assert captured.err.startswith("error: model file")
        assert captured.out == ""


def test_generate_rejects_malformed_lexicon(workdir, capsys):
    lexicon = workdir / "lexicon.json"
    for obj in ({"concepts": {}}, {"words": 5}):
        lexicon.write_text(json.dumps(obj), encoding="utf-8")
        code = run(
            "generate", "--out", str(workdir / "data"), "--seed", "0",
            "--lexicon", str(lexicon),
        )
        assert code == 2
        assert "lexicon" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "command, output",
    [("train", ["--model"]), ("eval", ["--seed", "3", "--sizes", "50", "--reps", "1", "--out"])],
)
def test_negative_max_parents_is_input_error(trained, workdir, capsys, command, output):
    root, corpus_path, _, _ = trained
    code = run(
        command, "--corpus", str(corpus_path), "--max-parents", "-1",
        *output, str(workdir / "out"),
    )
    assert code == 2
    assert "max_parents" in capsys.readouterr().err
    # neither the model, its report nor the CSV is written
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_train_rejects_non_finite_alpha(trained, capsys, alpha):
    root, corpus_path, _, _ = trained
    model_path = root / f"alpha-{alpha}.json"
    code = run(
        "train", "--corpus", str(corpus_path), "--model", str(model_path), "--alpha", alpha
    )
    assert code == 2
    assert "pseudocount must be a finite number" in capsys.readouterr().err
    assert not model_path.exists()


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_eval_rejects_non_finite_alpha(trained, capsys, alpha):
    root, corpus_path, _, _ = trained
    out_csv = root / f"alpha-{alpha}.csv"
    code = run(
        "eval", "--corpus", str(corpus_path), "--out", str(out_csv), "--seed", "3",
        "--sizes", "50", "--reps", "1", "--alpha", alpha,
    )
    assert code == 2
    assert "pseudocount must be a finite number" in capsys.readouterr().err
    assert not out_csv.exists()


def test_cli_import_does_not_load_scipy():
    src = str(Path(wordground.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys, wordground.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"
