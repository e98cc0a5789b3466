"""Golden digests of the command-line outputs at pinned seeds.

    python tests/test_golden.py --write    # rewrite tests/golden.json

For each of seeds 0-2, one child interpreter under PYTHONHASHSEED=0 runs a
fixed sequence of `wordground` commands through `cli.main` in a working
directory of its own: `generate --noise`; `train` on the clean and recognized
corpus at `--alpha` 1 and 0; one `--learn-structure` train; `instruct` on
each of the 54 shipped requests; `rescore` in max and sum mode; and a
2-repetition `eval` at sizes 100 and 300. For every command it records the
exit code and the full SHA-256 digests of stdout, stderr and each file the
command writes. The test compares them with `tests/golden.json`. A change
that alters outputs on purpose rewrites the file with `--write` and names
every changed digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
SRC = HERE.parent / "src"
SEEDS = (0, 1, 2)
NBEST = (
    "0.100|tapping small sliding\n"
    "0.070|tapping box slides\n"
    "0.040|grasp the green ball\n"
    "0.010|tapped ball rolls\n"
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def seed_digests(seed: int) -> dict[str, dict]:
    """Runs every command for `seed` in the working directory; returns the
    digests of each, keyed by the command."""
    from wordground.cli import main
    from wordground.evaluation import default_instructions

    scene = "scene.txt"
    Path(scene).write_bytes((SRC / "wordground" / "data" / scene).read_bytes())
    digests: dict[str, dict] = {}

    def call(argv: list[str], written: tuple[str, ...] = ()) -> None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        entry = {
            "exit": code,
            "stdout": _sha(out.getvalue().encode()),
            "stderr": _sha(err.getvalue().encode()),
        }
        for name in written:
            entry[name] = _sha(Path(name).read_bytes())
        digests[" ".join(argv)] = entry

    clean, recognized = "data/corpus_clean.txt", "data/corpus_recognized.txt"
    call(["generate", "--out", "data", "--seed", str(seed), "--noise"], (clean, recognized))
    for corpus, tag in ((clean, "clean"), (recognized, "recognized")):
        for alpha in ("1", "0"):
            model = f"{tag}-{alpha}.json"
            call(
                ["train", "--corpus", corpus, "--model", model, "--alpha", alpha],
                (model, model + ".report.txt"),
            )
    call(
        ["train", "--corpus", recognized, "--model", "learned.json", "--learn-structure"],
        ("learned.json", "learned.json.report.txt"),
    )
    Path("nbest.txt").write_text(NBEST, encoding="utf-8")
    model = "recognized-0.json"
    for instruction in default_instructions():
        call(["instruct", "--model", model, "--scene", scene, "--words", instruction.text])
    call(["rescore", "--model", model, "--scene", scene, "--nbest", "nbest.txt"])
    call(["rescore", "--model", model, "--scene", scene, "--nbest", "nbest.txt", "--sum-actions"])
    call(
        ["eval", "--corpus", recognized, "--out", "curve.csv", "--seed", str(seed),
         "--sizes", "100", "300", "--reps", "2"],
        ("curve.csv",),
    )
    return digests


def compute() -> dict[str, dict]:
    """Digests of every seed, one child interpreter per seed, run at once."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    with tempfile.TemporaryDirectory() as tmp:
        children = []
        for seed in SEEDS:
            cwd = Path(tmp) / str(seed)
            cwd.mkdir()
            children.append(subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--seed", str(seed)],
                cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            ))
        results = {}
        try:
            for seed, child in zip(SEEDS, children):
                out, err = child.communicate(timeout=300)
                if child.returncode != 0:
                    raise RuntimeError(f"seed {seed} child failed:\n{err}")
                results[str(seed)] = json.loads(out)
        finally:
            for child in children:  # after a failure, stop the seeds still running
                child.kill()
                child.wait()
    return results


def test_outputs_match_golden_digests():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = compute()
    changed = [
        f"seed {seed}: {command}"
        for seed in sorted(set(golden) | set(actual))
        for command in sorted(set(golden.get(seed, {})) | set(actual.get(seed, {})))
        if golden.get(seed, {}).get(command) != actual.get(seed, {}).get(command)
    ]
    assert not changed, "outputs differ from tests/golden.json:\n" + "\n".join(changed)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--seed"]:
        print(json.dumps(seed_digests(int(sys.argv[2]))))
    elif sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {GOLDEN}")
    else:
        sys.exit(__doc__)
