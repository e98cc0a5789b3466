"""Seeded inputs for the benchmark's workloads.

Two regimes share one generator. `repeated` draws every request from a small
fixed pool (the 54 shipped instructions, ten N-best lists, the same
training subsets), so work is shared between operations. `fresh` gives every
request a newly generated description of an experience with one of the
scene's objects, so almost nothing repeats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from wordground import datagen, evaluation, grounding, inference, network, structure

SCENE = Path(inference.__file__).parent / "data" / "scene.txt"
N_EXPERIENCES = 254
DESCRIPTIONS_PER_EXPERIENCE = 5

WORKLOADS = ("repeated", "fresh")
# N-best list lengths, cycled in a seeded order per block of 20. Fixing the
# proportions keeps latency percentiles comparable across seeds, and these
# put p50 inside the 5-hypothesis cluster (40-60%) and p90 inside the
# 9-hypothesis cluster (85-95%) instead of in a gap between two lengths.
NBEST_LENGTHS = (1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 5, 5, 6, 6, 7, 7, 8, 9, 9, 10)
CLI_BLOCK = ("instruct",) * 4 + ("rescore",) * 3 + ("train",) * 3


@dataclass(frozen=True)
class Scale:
    """Sizes of one run; `tiny` is for the smoke test only."""

    curve_sizes: tuple[int, ...] = evaluation.DEFAULT_SIZES
    curve_repetitions: int = 2
    setup_repetitions: int = 5
    cli_ops: int = 200

    @classmethod
    def tiny(cls) -> "Scale":
        # The corpus keeps its full size: smaller ones leave outcome words
        # unseen, and the impossible-request checks then rightly fail.
        return cls(curve_sizes=(100,), curve_repetitions=1, setup_repetitions=1, cli_ops=10)


class Requests:
    """Word bags and N-best lists for one workload and seed.

    Bags come with a flag saying whether the shipped instruction set judges
    them impossible; generated descriptions are never judged impossible.
    """

    def __init__(self, workload: str, seed: int, stream: int, scene):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.repeated = workload == "repeated"
        self.objects = {(o.features["Color"], o.features["Size"], o.features["Shape"]) for o in scene}
        self.seed = seed
        self.stream = stream
        self.rng = np.random.default_rng([seed, stream])
        self.world = datagen.default_world()
        self.lexicon = datagen.default_lexicon()
        self.noise = datagen.default_noise_profile(self.lexicon)
        self.balance = datagen.BalanceState()
        self.shipped = evaluation.default_instructions()
        self.n_drawn = 0
        self._lengths: list[int] = []
        self._pool = None

    def _spawn(self, *key: int) -> np.random.SeedSequence:
        return np.random.SeedSequence(entropy=[self.seed, self.stream], spawn_key=key)

    def bag(self) -> tuple[tuple[str, ...], bool]:
        """One request's tokens and whether it is judged impossible."""
        self.n_drawn += 1
        if self.repeated:
            ins = self.shipped[int(self.rng.integers(len(self.shipped)))]
            return tuple(ins.text.split()), ins.impossible
        # Users talk about what they see: redraw until the object is in the scene.
        while True:
            state = datagen.sample_experience(self.world, self._spawn(0, self.n_drawn))
            if (state["Color"], state["Size"], state["Shape"]) in self.objects:
                break
            self.n_drawn += 1
        tokens = datagen.generate_description(
            state, self.lexicon, self.balance, self._spawn(1, self.n_drawn)
        )
        return tuple(tokens), False

    def _length(self) -> int:
        if not self._lengths:
            self._lengths = list(self.rng.permutation(NBEST_LENGTHS))
        return int(self._lengths.pop())

    def _new_nbest(self, k: int) -> list[tuple[tuple[str, ...], float]]:
        tokens, _ = self.bag()
        hyps = [tokens]
        for j in range(1, k):
            noisy = datagen.corrupt(tokens, self.noise, self._spawn(2, self.n_drawn, j))
            hyps.append(tuple(sorted(noisy)) or tokens)
        probs = self.rng.dirichlet(np.ones(k))
        return list(zip(hyps, (float(p) for p in probs)))

    def nbest(self) -> list[tuple[tuple[str, ...], float]]:
        """A recognizer N-best list of 1-10 hypotheses: the request plus
        noisy variants, with Dirichlet-drawn acoustic probabilities. On
        `repeated` the lists come from a pool of one list per entry of
        NBEST_LENGTHS."""
        if not self.repeated:
            return self._new_nbest(self._length())
        if self._pool is None:
            self._pool = {k: self._new_nbest(k) for k in sorted(set(NBEST_LENGTHS))}
        return self._pool[self._length()]


def format_nbest(hyps) -> str:
    return "".join(f"{format(p, '.17g')}|{' '.join(tokens)}\n" for tokens, p in hyps)


def build_inputs(workload: str, seed: int, out: Path, scale: Scale) -> None:
    """Write every file a run reads: both corpora, the query model, and the
    CLI operation list with its N-best files."""
    out.mkdir(parents=True, exist_ok=True)
    lexicon = datagen.default_lexicon()
    corpus = datagen.build_corpus(
        datagen.default_world(),
        lexicon,
        N_EXPERIENCES,
        DESCRIPTIONS_PER_EXPERIENCE,
        profile=datagen.default_noise_profile(lexicon),
        seed=seed,
    )
    grounding.save_corpus(corpus.experiences, out / "corpus_clean.txt")
    grounding.save_corpus(corpus.corrupted, out / "corpus_recognized.txt")
    model = structure.train_model(corpus.experiences, pseudocount=0.0)
    network.save_network(model, out / "model.json")

    requests = Requests(workload, seed, stream=1, scene=inference.load_scene(SCENE))
    rng = np.random.default_rng([seed, 2])
    nbest_dir = out / "nbest"
    nbest_dir.mkdir(exist_ok=True)
    ops = []
    while len(ops) < scale.cli_ops:
        for kind in rng.permutation(CLI_BLOCK):
            op = {"kind": str(kind)}
            if kind == "instruct":
                tokens, impossible = requests.bag()
                op.update(words=" ".join(tokens), impossible=impossible)
            elif kind == "rescore":
                hyps = requests.nbest()
                path = nbest_dir / f"{len(ops)}.txt"
                path.write_text(format_nbest(hyps), encoding="utf-8")
                op.update(nbest=str(path.relative_to(out)), n=len(hyps))
            ops.append(op)
    (out / "cli_ops.json").write_text(json.dumps(ops[: scale.cli_ops]), encoding="utf-8")
