"""Greedy K2 parent selection.

Each node's parents are chosen independently by hill-climbing on the K2
score (`network.K2_ALPHA`): start from no parents, repeatedly add the
single candidate that increases the score most, stop when nothing improves
or `max_parents`, the search's one setting, is reached. Applied per word
node this produces the word-meaning association graph; applied under a
causal ordering it can also learn the affordance structure itself.

Every count is a sum over the distinct states of the training records,
each weighted by its number of records: the family score and the CPT fit
depend on the records only through these counts (Cooper & Herskovits 1992),
so the counts are the sufficient statistics, cached per corpus (Moore &
Lee 1998). The records are encoded once (`EncodedCorpus`): the value-index
columns of each distinct state, its number of records, and a states x words
matrix of how many of its descriptions hold each word, the one
word-presence encoding, which the search and the word CPT fit share. A
learning curve encodes its corpus once and re-weights the same states for
each index subset. The word layer holds exactly the corpus's own words, in
sorted order.

One search (`_k2_search`) serves a batch of targets at once. At each greedy
step the targets still searching are grouped by their current parent set,
and every candidate of every group is counted in one sparse pass
(`network._count_families`): one weighted `bincount` gives the row totals
and one over the targets' nonzero values the counts of values 1..r-1
(value 0 is the rest of the row total). Each score adds its log-gamma terms
one after another in ascending order (`network._observed_scores`): an
unobserved configuration adds exact zeros, so all candidates share one
padded width, and parent sets that split the records alike tie exactly, so
the tie-break, not rounding, decides. Candidates are searched in the order
given, the declaration order of the affordance variables, and of two equal
scores the earlier wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .grounding import corpus_vocabulary
from .network import (
    K2_ALPHA,
    Assignment,
    Network,
    Variable,
    _configs,
    _count_families,
    _fit_families,
    _group_by,
    _observed_scores,
    _record_weights,
    _score_terms,
    _value_entries,
    affordance_variables,
    default_affordance_parents,
    encode_columns,
    fit_cpts,
    make_network,
    word_variable,
)


# Words heard fewer times than this skip the search and keep an empty
# parent set, since a handful of sightings cannot support a stable link.
MIN_WORD_OCCURRENCES = 3


@dataclass(frozen=True, eq=False)
class EncodedCorpus:
    """Experiences encoded once for training, as the sufficient statistics
    of every family count.

    `columns` holds each affordance variable's value index per distinct
    state, `weights` the number of records in each state, `words` the
    sorted words that occur in the descriptions and `word_counts` the
    states x words matrix of how many of a state's descriptions hold each
    word. `train_model` takes it in place of the experiences,
    `learn_word_layer` takes only it, and `subset` selects records without
    re-encoding them.
    """

    columns: Mapping[str, np.ndarray]
    weights: np.ndarray
    words: tuple[str, ...]
    word_counts: np.ndarray
    # the encoded records: the state of each, and the record and
    # state * len(_words) + word of each word of a description
    _records: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)
    _words: tuple[str, ...] = field(repr=False)
    # the encoded record behind each record of this corpus
    _rows: np.ndarray = field(repr=False)

    @classmethod
    def encode(
        cls, experiences: Sequence, variables: Sequence[Variable] = affordance_variables()
    ) -> "EncodedCorpus":
        if not experiences:
            raise ValueError("corpus has no records")
        columns = encode_columns(variables, [exp.state for exp in experiences])
        codes = _configs([variables], columns, len(experiences))[0]
        _, first, states = np.unique(codes, return_index=True, return_inverse=True)
        words = tuple(corpus_vocabulary(experiences))
        index = {w: j for j, w in enumerate(words)}
        entry_rows = np.array(
            [i for i, exp in enumerate(experiences) for _ in exp.description], dtype=np.int64
        )
        entry_words = np.array(
            [index[w] for exp in experiences for w in exp.description], dtype=np.int64
        )
        cells = states[entry_rows] * len(words) + entry_words
        return cls(
            {name: col[first] for name, col in columns.items()},
            np.bincount(states),
            words,
            np.bincount(cells, minlength=len(first) * len(words)).reshape(len(first), len(words)),
            (states, entry_rows, cells),
            words,
            np.arange(len(experiences)),
        )

    def subset(self, indices: np.ndarray) -> "EncodedCorpus":
        """The records at `indices`, re-weighted over the same states (a
        state none of them is in keeps weight 0); the words are those that
        occur in them."""
        rows = self._rows[indices]
        states, entry_rows, cells = self._records
        n_states = len(self.weights)
        picked = np.bincount(rows, minlength=len(states))
        word_counts = np.bincount(
            cells, weights=picked[entry_rows], minlength=n_states * len(self._words)
        ).astype(np.int64).reshape(n_states, len(self._words))
        seen = word_counts.any(axis=0)
        return EncodedCorpus(
            self.columns,
            np.bincount(states[rows], minlength=n_states),
            tuple(w for w, s in zip(self._words, seen) if s),
            word_counts[:, seen],
            self._records,
            self._words,
            rows,
        )


def _word_entries(
    word_counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Count entries of word targets from a states x words count matrix:
    the state, word, value minus one (present is 1) and number of
    descriptions of every word that some description of a state holds."""
    flat = np.flatnonzero(word_counts)
    state, tgt = np.divmod(flat, word_counts.shape[1])
    return state, tgt, np.zeros_like(state), word_counts.ravel()[flat]


def _k2_search(
    entries: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    n_targets: int,
    r: int,
    candidates: Sequence[Variable],
    columns: Mapping[str, np.ndarray],
    weights: np.ndarray,
    max_parents: int = 3,
) -> list[tuple[tuple[str, ...], list[float]]]:
    """Greedy K2 search for a batch of `n_targets` targets with `r` values
    each.

    `columns` and `weights` hold the states and their numbers of records,
    `entries` the targets' values in them (`network._value_entries`,
    `_word_entries`) and `candidates` the parents to draw from in tie-break
    order. Each step adds, per target, the first candidate with the highest
    score if that score is strictly above the current one, up to
    `max_parents`. Returns per target its parents, in candidate order, and
    its score after each step, starting with no parents.
    """
    if max_parents < 0:
        raise ValueError(f"max_parents must be >= 0, got {max_parents}")
    terms = _score_terms(K2_ALPHA, r, int(weights.sum()))
    # coding 0 keeps the current parent set; coding 1 + i adds candidate i
    extensions = [()] + ([[c] for c in candidates] if max_parents else [])
    cards = np.array([math.prod(c.cardinality for c in e) for e in extensions], dtype=np.int64)
    extend = _configs(extensions, columns, len(weights)).T
    state, tgt, value, multiplicity = entries
    chosen: list[list[int]] = [[] for _ in range(n_targets)]
    traces: list[list[float]] = []
    searching = np.arange(n_targets)
    for step in range(max(max_parents, 1)):  # at 0, for the no-parent scores
        if not searching.size:
            break
        keys, group = _group_by(tuple(chosen[t]) for t in searching.tolist())
        bases = _configs([[candidates[i] for i in key] for key in keys], columns, len(weights))
        width = max(math.prod(candidates[i].cardinality for i in key) for key in keys)
        width *= int(cards.max())
        counts, totals = _count_families(
            (state, tgt, value, multiplicity),
            weights,
            r,
            bases.T[:, :, None] * cards + extend[:, None],
            group,
            width,
        )
        scores = _observed_scores(counts, totals, terms)
        if step == 0:
            traces = [[s] for s in scores[:, 0].tolist()]
        # the first maximum wins, so a candidate is taken only if it scores
        # strictly above coding 0; a candidate already taken ties coding 0
        best = np.argmax(scores, axis=1)
        accept = best > 0
        searching = searching[accept]
        best_score = scores[accept, best[accept]]
        for t, i, s in zip(searching.tolist(), best[accept].tolist(), best_score.tolist()):
            chosen[t].append(i - 1)
            traces[t].append(s)
        # keep the entries of the targets still searching, renumbered in order
        keep = accept[tgt]
        state, tgt = state[keep], (np.cumsum(accept) - 1)[tgt[keep]]
        value, multiplicity = value[keep], multiplicity[keep]
    return [
        (tuple(candidates[i].name for i in sorted(c)), trace)
        for c, trace in zip(chosen, traces)
    ]


def _best_single_parents(corpus: EncodedCorpus, candidates: Sequence[Variable]) -> list[str]:
    """Per word of the corpus, the candidate whose one-parent family scores
    highest, even if no parent at all scores higher; the earlier candidate
    wins a tie."""
    singles = _configs([[c] for c in candidates], corpus.columns, len(corpus.weights)).T[:, None]
    one_group = np.zeros(len(corpus.words), dtype=np.int64)
    width = max(c.cardinality for c in candidates)
    counts, totals = _count_families(
        _word_entries(corpus.word_counts), corpus.weights, 2, singles, one_group, width
    )
    scores = _observed_scores(counts, totals, _score_terms(K2_ALPHA, 2, int(corpus.weights.sum())))
    return [candidates[i].name for i in np.argmax(scores, axis=1).tolist()]


def k2_select_parents(
    target_variable: Variable,
    candidates: Sequence[Variable],
    dataset: Sequence[Assignment],
    max_parents: int = 3,
) -> tuple[str, ...]:
    """Parent set for one node, chosen greedily from `candidates`.

    Deterministic given the dataset: candidates are swept in the order
    given, and only strict score improvements are accepted.
    """
    if any(c.name == target_variable.name for c in candidates):
        raise ValueError("target variable cannot be its own candidate parent")
    columns = encode_columns([target_variable] + list(candidates), dataset)
    return _node_parents(
        target_variable, candidates, columns, _record_weights(columns), max_parents
    )


def _node_parents(
    target: Variable,
    candidates: Sequence[Variable],
    columns: Mapping[str, np.ndarray],
    weights: np.ndarray,
    max_parents: int,
) -> tuple[str, ...]:
    """`_k2_search` for one node whose values are in `columns`."""
    entries = _value_entries(columns[target.name][:, None], weights)
    [(parents, _)] = _k2_search(
        entries, 1, target.cardinality, list(candidates), columns, weights, max_parents
    )
    return parents


def learn_word_layer(
    affordance_network: Network,
    corpus: EncodedCorpus,
    max_parents: int = 3,
) -> Network:
    """Attach one binary presence node per word of the corpus.

    For each word heard at least `MIN_WORD_OCCURRENCES` times, K2 selects
    up to `max_parents` parents among the affordance variables only, in
    their declaration order; every word's CPT is then fitted with the
    affordance network's pseudocount. The affordance structure and CPTs are
    carried over untouched: the state model does not depend on what was
    said about it.
    """
    candidates = [affordance_network.variable(n) for n in affordance_network.affordance_names()]
    searched = np.flatnonzero(corpus.word_counts.sum(axis=0) >= MIN_WORD_OCCURRENCES)
    found = _k2_search(
        _word_entries(corpus.word_counts[:, searched]),
        len(searched),
        2,
        candidates,
        corpus.columns,
        corpus.weights,
        max_parents,
    )
    parents = {word: () for word in corpus.words}
    for j, (word_parents, _) in zip(searched.tolist(), found):
        parents[corpus.words[j]] = word_parents
    return _attach_words(affordance_network, corpus, parents)


def _attach_words(
    affordance_network: Network,
    corpus: EncodedCorpus,
    word_parents: Mapping[str, tuple[str, ...]],
) -> Network:
    """Add one presence node per word of the corpus to the affordance
    network, each word's CPT given its parents fitted with the affordance
    network's pseudocount, all words in one counting pass."""
    tables = _fit_families(
        _word_entries(corpus.word_counts),
        corpus.weights,
        2,
        [tuple(affordance_network.variable(p) for p in word_parents[w]) for w in corpus.words],
        corpus.columns,
        affordance_network.pseudocount,
    )
    word_vars = [word_variable(word) for word in corpus.words]
    word_cpts = {w.name: table for w, table in zip(word_vars, tables)}
    return affordance_network.with_word_layer(word_vars, word_parents, word_cpts)


def learn_affordance_structure(
    columns: Mapping[str, np.ndarray],
    ordering: Sequence[Variable],
    max_parents: int = 3,
    weights: np.ndarray | None = None,
) -> dict[str, tuple[str, ...]]:
    """Parent map over the affordance variables under a fixed ordering.

    Each node may only draw parents from the variables before it, so pass
    actions before features before effects. `columns` are the records'
    value-index columns, as `encode_columns` returns them; with `weights`
    they hold distinct states and each counts as that many records.
    """
    if weights is None:
        weights = _record_weights(columns)
    return {
        var.name: _node_parents(var, ordering[:i], columns, weights, max_parents)
        for i, var in enumerate(ordering)
    }


def train_model(
    experiences: Sequence | EncodedCorpus,
    pseudocount: float = 1.0,
    max_parents: int = 3,
    learn_structure: bool = False,
) -> Network:
    """Full learning pipeline: affordance CPTs plus the word layer.

    The affordance structure defaults to the fixed edge set (effects
    conditioned on action and object geometry); with `learn_structure` it is
    instead searched by K2 under the canonical variable ordering. The word
    layer holds the words that occur in the experiences. This is the one
    entry point that takes either experiences or their `EncodedCorpus`.
    """
    variables = affordance_variables()
    corpus = (
        experiences
        if isinstance(experiences, EncodedCorpus)
        else EncodedCorpus.encode(experiences, variables)
    )
    if learn_structure:
        parent_map = learn_affordance_structure(
            corpus.columns, variables, max_parents, corpus.weights
        )
    else:
        parent_map = default_affordance_parents()
    affordance_net = fit_cpts(
        make_network(variables, parent_map), corpus.columns, pseudocount, corpus.weights
    )
    return learn_word_layer(affordance_net, corpus, max_parents)


def structure_report(network: Network, max_parents: int = 3) -> str:
    """Plain-text adjacency listing of the learned word links.

    The header records the search settings, which are choices rather than
    givens: ordering-position tie-breaks and the parent limit both shape
    which of several equally plausible graphs comes out.
    """
    lines = [
        "# word-meaning association graph",
        f"# max_parents={max_parents} alpha={K2_ALPHA:g} "
        f"tie_break_ordering={','.join(network.affordance_names())}",
        f"# words seen < {MIN_WORD_OCCURRENCES} times keep an empty parent set",
    ]
    for word in sorted(network.word_names()):
        lines.append(f"{word} <- {','.join(network.parents[word])}".rstrip())
    return "\n".join(lines) + "\n"
