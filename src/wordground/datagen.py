"""Synthetic experience and description generator.

Regenerates the training regime at desk scale: a hand-authored ground-truth
world over the eight symbolic variables, a 49-word synonym lexicon with a
balanced round-robin description generator, and a recognizer-style noise
channel that deletes and inserts words at calibrated per-utterance rates.

The world tables are the experiment's ground truth, chosen so that hand
velocity is high exactly for grasping, spheres roll and boxes slide when
tapped, grasps may fail, and color never influences anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .grounding import BagOfWords, Experience, bag_of_words
from .network import Network, affordance_variables


# -- ground-truth world ------------------------------------------------------

_OBJVEL = {
    # (action, shape, size) -> (slow, medium, fast)
    ("touch", "sphere"): (0.88, 0.09, 0.03),
    ("touch", "box"): (0.95, 0.04, 0.01),
    ("tap", "sphere", "small"): (0.05, 0.25, 0.70),
    ("tap", "sphere", "medium"): (0.08, 0.32, 0.60),
    ("tap", "sphere", "big"): (0.15, 0.45, 0.40),
    ("tap", "box", "small"): (0.15, 0.55, 0.30),
    ("tap", "box", "medium"): (0.20, 0.60, 0.20),
    ("tap", "box", "big"): (0.35, 0.55, 0.10),
    ("grasp", "sphere", "small"): (0.22, 0.38, 0.40),
    ("grasp", "sphere", "medium"): (0.32, 0.38, 0.30),
    ("grasp", "sphere", "big"): (0.55, 0.30, 0.15),
    ("grasp", "box", "small"): (0.25, 0.40, 0.35),
    ("grasp", "box", "medium"): (0.35, 0.40, 0.25),
    ("grasp", "box", "big"): (0.60, 0.28, 0.12),
}

_CONTACT = {
    # (action, shape, size) -> (short, long)
    ("touch",): (0.10, 0.90),
    ("tap",): (0.90, 0.10),
    ("grasp", "sphere", "small"): (0.30, 0.70),
    ("grasp", "sphere", "medium"): (0.42, 0.58),
    ("grasp", "sphere", "big"): (0.70, 0.30),
    ("grasp", "box", "small"): (0.35, 0.65),
    ("grasp", "box", "medium"): (0.48, 0.52),
    ("grasp", "box", "big"): (0.75, 0.25),
}

_OBJHANDVEL = {
    # action -> (slow, medium, fast)
    "touch": (0.80, 0.15, 0.05),
    "tap": (0.05, 0.25, 0.70),
    "grasp": (0.70, 0.20, 0.10),
}


def _lookup(table: dict, *keys: str) -> tuple[float, ...]:
    for n in range(len(keys), 0, -1):
        row = table.get(tuple(keys[:n]))
        if row is not None:
            return row
    raise KeyError(keys)


def default_world() -> Network:
    """The generative ground truth over the eight symbolic variables."""
    variables = affordance_variables()
    by_name = {v.name: v for v in variables}
    parents = {
        "Action": (),
        "Color": (),
        "Shape": (),
        "Size": (),
        "ObjVel": ("Action", "Shape", "Size"),
        "HandVel": ("Action",),
        "ObjHandVel": ("Action",),
        "Contact": ("Action", "Shape", "Size"),
    }
    asz = [
        (a, sh, si)
        for a in by_name["Action"].values
        for sh in by_name["Shape"].values
        for si in by_name["Size"].values
    ]
    cpts = {
        "Action": np.array([[1 / 3, 1 / 3, 1 / 3]]),
        "Color": np.array([[0.25, 0.25, 0.25, 0.25]]),
        "Shape": np.array([[0.5, 0.5]]),
        "Size": np.array([[1 / 3, 1 / 3, 1 / 3]]),
        # hand velocity is high exactly when grasping
        "HandVel": np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]]),
        "ObjVel": np.array([_lookup(_OBJVEL, *k) for k in asz]),
        "Contact": np.array([_lookup(_CONTACT, *k) for k in asz]),
        "ObjHandVel": np.array([_OBJHANDVEL[a] for a in by_name["Action"].values]),
    }
    return Network(variables, parents, cpts, pseudocount=0.0)


# -- sampling ----------------------------------------------------------------


def _draw(rng: np.random.Generator, row: Sequence[float]) -> int:
    u = rng.random()
    acc = 0.0
    for i, p in enumerate(row):
        acc += p
        if u < acc:
            return i
    return len(row) - 1


def sample_experiences(world: Network, n: int, seed) -> list[dict[str, str]]:
    """Ancestral samples through the DAG; one stream, deterministic per seed."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(n):
        state: dict[str, str] = {}
        # declaration order puts every parent before its child
        for v in world.variables:
            state[v.name] = v.values[_draw(rng, world.cpt_row(v.name, state))]
        states.append(state)
    return states


def sample_experience(world: Network, seed) -> dict[str, str]:
    """One full ancestral sample; identical seeds give identical assignments."""
    return sample_experiences(world, 1, seed)[0]


# -- outcome semantics ---------------------------------------------------------


def classify_outcome(state: dict[str, str]) -> str:
    """Name the observed effect pattern for description purposes."""
    if state["ObjVel"] == "slow":
        return "still"
    if state["Action"] == "grasp":
        return "rises" if state["Contact"] == "long" else "falls"
    return "rolls" if state["Shape"] == "sphere" else "slides"


def action_succeeded(state: dict[str, str]) -> bool:
    outcome = classify_outcome(state)
    action = state["Action"]
    if action == "grasp":
        return outcome == "rises"
    if action == "tap":
        return outcome != "still"
    return outcome == "still"


# -- lexicon -------------------------------------------------------------------


@dataclass(frozen=True)
class Lexicon:
    """Concept-to-synonym map plus independently emitted filler words."""

    concepts: dict[str, tuple[str, ...]]
    filler_words: dict[str, float]

    def words(self) -> list[str]:
        out: set[str] = set()
        for synonyms in self.concepts.values():
            out.update(synonyms)
        out.update(self.filler_words)
        return sorted(out)


def default_lexicon() -> Lexicon:
    """49 distinct words: synonym sets for every concept plus fillers."""
    concepts = {
        "subject": ("baltazar", "robot", "he"),
        "action=grasp": ("grasp", "grasping", "grasped", "picks"),
        "action=tap": ("tap", "taps", "tapping", "tapped", "pushes"),
        "action=touch": ("touch", "touches", "touching", "pokes", "poking"),
        "color=lightgreen": ("green",),
        "color=darkgreen": ("green",),
        "color=yellow": ("yellow",),
        "color=blue": ("blue",),
        "size=small": ("small",),
        "size=big": ("big",),
        "shape=sphere": ("ball", "sphere"),
        "shape=box": ("box", "cube", "square"),
        "outcome=still": ("still",),
        "outcome=rolls": ("roll", "rolls", "rolling"),
        "outcome=slides": ("slide", "slides", "sliding"),
        "outcome=rises": ("rise", "rises", "rising"),
        "outcome=falls": ("fall", "falls", "falling"),
        "motion": ("move", "moving", "moves"),
        "conjunction=success": ("and",),
        "conjunction=failure": ("but",),
    }
    fillers = {"the": 1.0, "is": 1.0, "has": 0.3, "just": 0.25}
    return Lexicon(concepts=concepts, filler_words=fillers)


class BalanceState:
    """Round-robin counters keeping per-concept synonym counts within 1."""

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}

    def take(self, key: str, options: Sequence[str]) -> str:
        i = self.counters.get(key, 0)
        self.counters[key] = i + 1
        return options[i % len(options)]


# Emission rates for optional description parts. Color and size adjectives
# are gated independently of everything else so that their words remain pure
# indicators of the object's properties; generic motion words accompany any
# moving outcome.
_COLOR_RATE = 0.55
_SIZE_RATE = 0.55
_MOTION_RATE = 0.35


def generate_description(
    state: dict[str, str],
    lexicon: Lexicon,
    balance_state: BalanceState,
    seed,
) -> list[str]:
    """Token sequence describing one experience.

    Synonyms rotate round-robin per concept through `balance_state`; the
    optional parts (color/size adjectives, filler words) are drawn from the
    seeded stream, independently of the state.
    """
    rng = np.random.default_rng(seed)
    outcome = classify_outcome(state)
    conj_key = (
        "conjunction=success" if action_succeeded(state) else "conjunction=failure"
    )

    concepts = lexicon.concepts
    subject = balance_state.take("subject", concepts["subject"])
    action_key = f"action={state['Action']}"
    action = balance_state.take(action_key, concepts[action_key])
    shape_key = f"shape={state['Shape']}"
    noun = balance_state.take(shape_key, concepts[shape_key])
    conj = balance_state.take(conj_key, concepts[conj_key])
    effect = balance_state.take(f"outcome={outcome}", concepts[f"outcome={outcome}"])

    tokens = [subject]
    if rng.random() < lexicon.filler_words["has"]:
        tokens.append("has")
    if action.endswith("ing"):
        tokens.append("is")
    if rng.random() < lexicon.filler_words["just"]:
        tokens.append("just")
    tokens.extend([action, "the"])
    if rng.random() < _COLOR_RATE:
        color_key = f"color={state['Color']}"
        tokens.append(balance_state.take(color_key, concepts[color_key]))
    size_key = f"size={state['Size']}"
    # there is no word for a medium size
    if size_key in concepts and rng.random() < _SIZE_RATE:
        tokens.append(balance_state.take(size_key, concepts[size_key]))
    tokens.extend([noun, conj, "the", noun, "is", effect])
    if outcome != "still" and rng.random() < _MOTION_RATE:
        tokens.append(balance_state.take("motion", concepts["motion"]))
    return tokens


# -- recognizer noise channel --------------------------------------------------


@dataclass(frozen=True)
class NoiseProfile:
    """Per-utterance expected deletion and insertion counts."""

    false_rejection_rate: float  # expected deletions per utterance
    false_acceptance_rate: float  # expected insertions per utterance
    insertion_pool: tuple[str, ...]

    def __post_init__(self) -> None:
        for rate in (self.false_rejection_rate, self.false_acceptance_rate):
            if not 0.0 <= rate < float("inf"):
                raise ValueError(f"noise rates must be finite and >= 0, got {rate}")


def default_noise_profile(lexicon: Lexicon) -> NoiseProfile:
    """A false rejection every 1.2 utterances, a false acceptance every 1.3,
    inserting words of `lexicon`."""
    return NoiseProfile(
        false_rejection_rate=1 / 1.2,
        false_acceptance_rate=1 / 1.3,
        insertion_pool=tuple(lexicon.words()),
    )


def corrupt(bag: Iterable[str], profile: NoiseProfile, seed) -> BagOfWords:
    """Recognizer-style corruption: deletions first, then insertions.

    Each present word is dropped independently with probability
    `false_rejection_rate / len(bag)`, so the expected number of deletions
    per utterance matches the profile. Insertions are drawn uniformly,
    without replacement, from the pool minus the words already present.
    """
    rng = np.random.default_rng(seed)
    words = sorted(set(bag))
    kept = list(words)
    if words and profile.false_rejection_rate > 0:
        q = min(1.0, profile.false_rejection_rate / len(words))
        kept = [w for w in words if rng.random() >= q]
    n_insert = int(rng.poisson(profile.false_acceptance_rate))
    if n_insert > 0:
        pool = sorted(set(profile.insertion_pool) - set(kept))
        picks = rng.choice(len(pool), size=min(n_insert, len(pool)), replace=False)
        kept.extend(pool[i] for i in picks)
    return frozenset(kept)


# -- corpus --------------------------------------------------------------------


@dataclass
class Corpus:
    """Clean experiences plus, when a noise profile was given, their
    recognizer-corrupted twins (same states, noisy bags)."""

    experiences: list[Experience]
    corrupted: list[Experience] | None = None


def build_corpus(
    world: Network,
    lexicon: Lexicon,
    n_experiences: int,
    descriptions_per_experience: int,
    profile: NoiseProfile | None = None,
    seed: int = 0,
) -> Corpus:
    """n_experiences trials, each described `descriptions_per_experience`
    times; all randomness derives from `seed`."""
    if n_experiences < 1 or descriptions_per_experience < 1:
        raise ValueError("corpus dimensions must be >= 1")
    states = sample_experiences(
        world, n_experiences, np.random.SeedSequence(entropy=seed, spawn_key=(0,))
    )
    balance = BalanceState()
    clean: list[Experience] = []
    corrupted: list[Experience] | None = [] if profile is not None else None
    i = 0
    for state in states:
        for _ in range(descriptions_per_experience):
            tokens = generate_description(
                state, lexicon, balance,
                np.random.SeedSequence(entropy=seed, spawn_key=(1, i)),
            )
            bag = bag_of_words(tokens)
            clean.append(Experience(state=dict(state), description=bag))
            if corrupted is not None:
                noisy = corrupt(
                    bag, profile,
                    np.random.SeedSequence(entropy=seed, spawn_key=(2, i)),
                )
                corrupted.append(Experience(state=dict(state), description=noisy))
            i += 1
    return Corpus(experiences=clean, corrupted=corrupted)
