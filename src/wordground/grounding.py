"""Bag-of-words utterances, experiences and the corpus file.

An utterance is reduced to the set of distinct lowercase words; order,
repetition, and grammar are discarded. The likelihood of a description
given a world state is the product of the per-word presence probabilities
for exactly the words in the bag; `network.StateTable` computes it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .network import FILE_FIELDS, affordance_variables

BagOfWords = frozenset[str]

_TERMINAL_PUNCTUATION = ".,!?;:"


def bag_of_words(token_sequence: str | Iterable[str]) -> BagOfWords:
    """Lowercased, deduplicated, order-free word set.

    Accepts either a raw sentence (split on whitespace, terminal punctuation
    stripped) or an iterable of tokens.
    """
    if isinstance(token_sequence, str):
        tokens = token_sequence.split()
    else:
        tokens = list(token_sequence)
    words = set()
    for tok in tokens:
        word = tok.lower().rstrip(_TERMINAL_PUNCTUATION)
        if word:
            words.add(word)
    return frozenset(words)


@dataclass(frozen=True)
class Experience:
    """One trial: the full symbolic state plus the words heard during it."""

    state: dict[str, str]
    description: BagOfWords


# -- experience dataset file -------------------------------------------------
#
# One record per line:
#   action|color,size,shape|objvel,handvel,objhandvel,contact|w1 w2 ...

# A line the reader gives back unchanged: nonempty values without separators
# or whitespace, and words that `bag_of_words` leaves as they are.
_VALUE = r"[^|,\s]+"
_WORD = rf"[^|,\s]*[^|,\s{re.escape(_TERMINAL_PUNCTUATION)}]"
_READABLE_LINE = re.compile(
    r"\|".join(",".join([_VALUE] * len(group)) for group in FILE_FIELDS)
    + rf"\|(?:{_WORD}(?: {_WORD})*)?"
)
# The values a field may take.
VALUES = {v.name: v.values for v in affordance_variables()}


def format_experience(experience: Experience) -> str:
    """One corpus line. Raises ValueError for a state value or word that
    `parse_experience` would not read back unchanged."""
    state = experience.state
    words = sorted(experience.description)
    parts = [",".join(state[name] for name in group) for group in FILE_FIELDS]
    parts.append(" ".join(words))
    line = "|".join(parts)
    # The token count catches words that are empty or contain a space.
    text = parts[-1]
    readable = _READABLE_LINE.fullmatch(line) and len(text.split()) == len(words)
    known = all(state[name] in values for name, values in VALUES.items())
    if not (readable and known) or text != text.lower():
        raise ValueError(
            f"cannot write record {line!r}: values must be their variables' values, "
            "and words nonempty, without '|', ',' or whitespace, lowercase and "
            f"without trailing {_TERMINAL_PUNCTUATION!r}"
        )
    return line


def parse_experience(line: str, lineno: int) -> Experience:
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
            if value not in VALUES[name]:
                raise ValueError(
                    f"malformed experience record{where}: {value!r} is not a {name} value"
                )
        state.update(zip(group, values))
    return Experience(state=state, description=bag_of_words(fields[3].split()))


def save_corpus(experiences: Sequence[Experience], path) -> None:
    """Write one line per experience; nothing is written if any is refused."""
    text = "".join(format_experience(exp) + "\n" for exp in experiences)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def nonblank_lines(path) -> list[tuple[int, str]]:
    """(line number, line) for each nonblank line of a UTF-8 text file,
    without the byte-order mark that some editors write first."""
    with open(path, encoding="utf-8-sig") as fh:
        return [(lineno, line) for lineno, line in enumerate(fh, start=1) if line.strip()]


def load_corpus(path) -> list[Experience]:
    return [parse_experience(line, lineno) for lineno, line in nonblank_lines(path)]
