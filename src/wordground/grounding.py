"""Bag-of-words utterances, experiences and the corpus file.

An utterance is reduced to the set of distinct lowercase words; order,
repetition, and grammar are discarded. The likelihood of a description
given a world state is the product of the per-word presence probabilities
for exactly the words in the bag; `network.StateTable` computes it.

A corpus read from a file holds one string object per distinct value and
word: its records are slotted, each state value is the domain's own value
string, and each word is shared by every record of that read that holds
it. `nonblank_lines` streams a file's lines rather than reading them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .network import FILE_FIELDS, affordance_variables

BagOfWords = frozenset[str]

_TERMINAL_PUNCTUATION = ".,!?;:"


def bag_of_words(token_sequence: str | Iterable[str]) -> BagOfWords:
    """Lowercased, deduplicated, order-free word set.

    Accepts either a raw sentence (split on whitespace, terminal punctuation
    stripped) or an iterable of tokens.
    """
    if isinstance(token_sequence, str):
        token_sequence = token_sequence.split()
    words = set()
    for tok in token_sequence:
        word = tok.lower().rstrip(_TERMINAL_PUNCTUATION)
        if word:
            # a token that is already a word is kept, not copied
            words.add(tok if word == tok else word)
    return frozenset(words)


@dataclass(frozen=True, slots=True)
class Experience:
    """One trial: the full symbolic state plus the words heard during it."""

    state: dict[str, str]
    description: BagOfWords


# -- experience dataset file -------------------------------------------------
#
# One record per line:
#   action|color,size,shape|objvel,handvel,objhandvel,contact|w1 w2 ...

# The values a field may take.
VALUES = {v.name: v.values for v in affordance_variables()}
# Each field's values, each mapped to itself: the reader keeps the domain's
# string rather than its own copy.
_SHARED_VALUES = {name: {value: value for value in values} for name, values in VALUES.items()}


def format_experience(experience: Experience, words: dict[str, str] | None = None) -> str:
    """One corpus line. Raises ValueError for a state without exactly the
    domain's fields, for a word with a ',', and for a line that UTF-8
    cannot encode or that `parse_experience` would not read back as the
    same record. The read-back check uses `words` as its token map, which
    a writer of many lines shares."""
    state = experience.state
    missing = [f"no {name} value" for name in VALUES if name not in state]
    unknown = [f"unknown field {name!r}" for name in state if name not in VALUES]
    if missing or unknown:
        raise ValueError(f"cannot write record {state!r}: {'; '.join(missing + unknown)}")
    text = " ".join(sorted(experience.description))
    line = "|".join([",".join(state[name] for name in group) for group in FILE_FIELDS] + [text])
    try:
        line.encode("utf-8")
        readable = "," not in text and parse_experience(line, 0, words) == experience
    except ValueError:
        readable = False
    if not readable:
        raise ValueError(
            f"cannot write record {line!r}: values must be their variables' values, "
            "and words nonempty, in UTF-8, without '|', ',' or whitespace, lowercase and "
            f"without trailing {_TERMINAL_PUNCTUATION!r}"
        )
    return line


def parse_experience(line: str, lineno: int, words: dict[str, str] | None = None) -> Experience:
    """The record of one corpus line. `words` maps each token read so far
    to its word, so that the reader of a file keeps one string per word."""
    if words is None:
        words = {}
    where = f" at line {lineno}"
    fields = line.rstrip("\n").split("|")
    if len(fields) != 4:
        raise ValueError(f"malformed experience record{where}: expected 4 '|' fields")
    state: dict[str, str] = {}
    for group, field in zip(FILE_FIELDS, fields):
        values = field.split(",") if field else []
        if len(values) != len(group):
            raise ValueError(
                f"malformed experience record{where}: "
                f"expected {len(group)} values in {field!r}"
            )
        for name, value in zip(group, values):
            shared = _SHARED_VALUES[name].get(value)
            if shared is None:
                raise ValueError(
                    f"malformed experience record{where}: {value!r} is not a {name} value"
                )
            state[name] = shared
    bag = set()
    for token in fields[3].split():
        word = words.get(token)
        if word is None:
            # A word is itself a token that normalises to itself, so it
            # also keys the one string kept for it.
            word = next(iter(bag_of_words((token,))), "")
            word = words[token] = words.setdefault(word, word)
        if word:
            bag.add(word)
    return Experience(state=state, description=frozenset(bag))


def save_corpus(experiences: Sequence[Experience], path) -> None:
    """Write one line per experience; nothing is written if any is refused.
    The lines are read back with one token map, as `load_corpus` reads."""
    words: dict[str, str] = {}
    text = "".join(format_experience(exp, words) + "\n" for exp in experiences)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def nonblank_lines(path) -> Iterator[tuple[int, str]]:
    """(line number, line) for each nonblank line of a UTF-8 text file,
    without the byte-order mark that some editors write first, yielded as
    it is read."""
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                yield lineno, line


def load_corpus(path) -> list[Experience]:
    words: dict[str, str] = {}
    return [parse_experience(line, lineno, words) for lineno, line in nonblank_lines(path)]
