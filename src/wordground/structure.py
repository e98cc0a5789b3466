"""Greedy K2 parent selection.

Each node's parents are chosen independently by hill-climbing on the
Bayesian-Dirichlet family score: start from no parents, repeatedly add the
single candidate that increases the score most, stop when nothing improves
or the parent limit is reached. Applied per word node this produces the
word-meaning association graph; applied under a causal ordering it can also
learn the affordance structure itself.

One search (`_k2_search`) serves a batch of targets at once. At each greedy
step the targets still searching are grouped by their current parent set;
for each (group, candidate) pair a single matrix product of the records'
one-hot parent configurations with the targets' one-hot values gives every
target's family counts, and the scores are sums over a table of log-gamma
terms built once per search (`network._score_terms`). Each score adds its
terms in ascending order, so parent sets that split the records alike tie
exactly and the tie-break, not rounding, decides: candidates are searched in
the order given, the declaration order of the affordance variables, and of
two equal scores the earlier candidate wins. The records are encoded once
(`EncodedCorpus`): value-index columns of the affordance variables plus a
records x words 0/1 presence matrix, the one word-presence encoding, which
the search and the word CPT fit share. The word layer holds exactly the
corpus's own words, in sorted order. A learning curve encodes its corpus
once and trains on index subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .grounding import corpus_vocabulary
from .network import (
    Assignment,
    Network,
    Variable,
    _fit_family,
    _observed_scores,
    _score_terms,
    affordance_variables,
    default_affordance_parents,
    encode_columns,
    fit_cpts,
    make_network,
    word_variable,
)


@dataclass(frozen=True)
class K2Config:
    """Search knobs for K2 parent selection.

    Candidates are searched in the order supplied, and an exact score tie
    goes to the earlier one. Words observed fewer than
    `min_word_occurrences` times skip the search and keep an empty parent
    set, since a handful of sightings cannot support a stable link.
    """

    max_parents: int = 3
    alpha: float = 1.0
    min_word_occurrences: int = 3

    def __post_init__(self) -> None:
        if self.max_parents < 0:
            raise ValueError("max_parents must be >= 0")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be a finite number > 0, got {self.alpha!r}")


@dataclass(frozen=True, eq=False)
class EncodedCorpus:
    """Experiences encoded once for training.

    `columns` holds each affordance variable's value index per record,
    `words` the sorted words that occur in the descriptions and `presence`
    the records x words 0/1 matrix of which words each description holds.
    `train_model` takes it in place of the experiences, `learn_word_layer`
    takes only it, and `subset` selects records without re-encoding them.
    """

    columns: Mapping[str, np.ndarray]
    words: tuple[str, ...]
    presence: np.ndarray

    @classmethod
    def encode(
        cls, experiences: Sequence, variables: Sequence[Variable] = affordance_variables()
    ) -> "EncodedCorpus":
        columns = encode_columns(variables, [exp.state for exp in experiences])
        words = tuple(corpus_vocabulary(experiences))
        index = {w: j for j, w in enumerate(words)}
        presence = np.zeros((len(experiences), len(words)), dtype=np.int64)
        rows = [i for i, exp in enumerate(experiences) for _ in exp.description]
        presence[rows, [index[w] for exp in experiences for w in exp.description]] = 1
        return cls(columns, words, presence)

    def subset(self, indices: np.ndarray) -> "EncodedCorpus":
        """The records at `indices`; the words are those that occur in them."""
        presence = self.presence[indices]
        seen = presence.any(axis=0)
        return EncodedCorpus(
            {name: col[indices] for name, col in self.columns.items()},
            tuple(w for w, s in zip(self.words, seen) if s),
            presence[:, seen],
        )


def _family_scores(
    values: np.ndarray,
    parents: Sequence[Variable],
    columns: Mapping[str, np.ndarray],
    terms: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Family score of every target given `parents`.

    `values` is the (records, targets, r - 1) one-hot encoding of the
    targets' values 1..r-1; value 0 is what the others leave of each row
    total. Parent configurations are indexed row-major over `parents`, and
    one matrix product of the observed configurations' one-hot rows with
    `values` counts every target's family at once.
    """
    n_records, n_targets, r_rest = values.shape
    code = np.zeros(n_records, dtype=np.int64)
    n_configs = 1
    for p in parents:
        code = code * p.cardinality + columns[p.name]
        n_configs *= p.cardinality
    totals = np.bincount(code, minlength=n_configs)
    observed = totals > 0
    totals = totals[observed]
    one_hot = np.zeros((len(totals), n_records))
    one_hot[(np.cumsum(observed) - 1)[code], np.arange(n_records)] = 1.0
    rest = (one_hot @ values.reshape(n_records, n_targets * r_rest)).astype(np.int64)
    rest = rest.reshape(len(totals), n_targets, r_rest)
    first = totals[:, None, None] - rest.sum(axis=2, keepdims=True)
    counts = np.concatenate([first, rest], axis=2).transpose(1, 0, 2)
    return _observed_scores(counts, totals, terms)


def _k2_search(
    codes: np.ndarray,
    r: int,
    candidates: Sequence[Variable],
    columns: Mapping[str, np.ndarray],
    config: K2Config,
) -> list[tuple[tuple[str, ...], list[float]]]:
    """Greedy K2 search for a batch of targets with `r` values each.

    `codes` holds the targets' value indices, shape (records, targets), and
    `candidates` the parents to draw from in tie-break order. Each step adds,
    per target, the first candidate with the highest score if that score is
    strictly above the current one. Returns per target its parents, in
    candidate order, and its score after each step, starting with no parents.
    """
    values = np.eye(r)[codes][..., 1:]
    terms = _score_terms(config.alpha, r, len(codes))
    chosen: list[list[int]] = [[] for _ in range(values.shape[1])]
    traces = [[s] for s in _family_scores(values, [], columns, terms).tolist()]
    searching = list(range(len(chosen)))
    for _ in range(config.max_parents):
        groups: dict[tuple[int, ...], list[int]] = {}
        for t in searching:
            groups.setdefault(tuple(chosen[t]), []).append(t)
        searching = []
        for key, members in groups.items():
            group_values = np.ascontiguousarray(values[:, members])
            parents = [candidates[i] for i in key]
            best = np.full(len(members), -1)
            best_score = np.array([traces[t][-1] for t in members])
            for i, cand in enumerate(candidates):
                if i in key:
                    continue
                score = _family_scores(group_values, parents + [cand], columns, terms)
                better = score > best_score
                best[better] = i
                best_score[better] = score[better]
            for t, i, s in zip(members, best.tolist(), best_score.tolist()):
                if i >= 0:
                    chosen[t].append(i)
                    traces[t].append(s)
                    searching.append(t)
    return [
        (tuple(candidates[i].name for i in sorted(c)), trace)
        for c, trace in zip(chosen, traces)
    ]


def _best_single_parents(
    codes: np.ndarray,
    r: int,
    candidates: Sequence[Variable],
    columns: Mapping[str, np.ndarray],
    alpha: float,
) -> list[str]:
    """Per target, the candidate whose one-parent family scores highest,
    even if no parent at all scores higher; the earlier candidate wins a
    tie. `codes` and `candidates` are as in `_k2_search`."""
    values = np.eye(r)[codes][..., 1:]
    terms = _score_terms(alpha, r, len(codes))
    scores = [_family_scores(values, [c], columns, terms) for c in candidates]
    return [candidates[i].name for i in np.argmax(scores, axis=0)]


def k2_select_parents(
    target_variable: Variable,
    candidates: Sequence[Variable],
    dataset: Sequence[Assignment],
    config: K2Config = K2Config(),
) -> tuple[str, ...]:
    """Parent set for one node, chosen greedily from `candidates`.

    Deterministic given dataset and config: candidates are swept in the
    order given, and only strict score improvements are accepted.
    """
    if any(c.name == target_variable.name for c in candidates):
        raise ValueError("target variable cannot be its own candidate parent")
    columns = encode_columns([target_variable] + list(candidates), dataset)
    [(parents, _)] = _k2_search(
        columns[target_variable.name][:, None],
        target_variable.cardinality,
        list(candidates),
        columns,
        config,
    )
    return parents


def learn_word_layer(
    affordance_network: Network,
    corpus: EncodedCorpus,
    config: K2Config = K2Config(),
) -> Network:
    """Attach one binary presence node per word of the corpus.

    For each word, K2 selects parents among the affordance variables only,
    in their declaration order, then the word's CPT is fitted with the
    affordance network's pseudocount. The affordance structure and CPTs are
    carried over untouched: the state model does not depend on what was
    said about it.
    """
    candidates = [affordance_network.variable(n) for n in affordance_network.affordance_names()]
    searched = np.flatnonzero(corpus.presence.sum(axis=0) >= config.min_word_occurrences)
    found = _k2_search(corpus.presence[:, searched], 2, candidates, corpus.columns, config)
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
    network. Each word's CPT given its parents is fitted with the affordance
    network's pseudocount."""
    word_vars = [word_variable(word) for word in corpus.words]
    word_cpts: dict[str, np.ndarray] = {}
    for j, wvar in enumerate(word_vars):
        parent_vars = [affordance_network.variable(p) for p in word_parents[wvar.name]]
        family = {**corpus.columns, wvar.name: corpus.presence[:, j]}
        word_cpts[wvar.name] = _fit_family(
            wvar, parent_vars, family, affordance_network.pseudocount
        )
    return affordance_network.with_word_layer(word_vars, word_parents, word_cpts)


def learn_affordance_structure(
    columns: Mapping[str, np.ndarray],
    ordering: Sequence[Variable],
    config: K2Config = K2Config(),
) -> dict[str, tuple[str, ...]]:
    """Parent map over the affordance variables under a fixed ordering.

    Each node may only draw parents from the variables before it, so pass
    actions before features before effects. `columns` are the records'
    value-index columns, as `encode_columns` returns them.
    """
    parent_map: dict[str, tuple[str, ...]] = {}
    for i, var in enumerate(ordering):
        candidates = list(ordering[:i])
        if not candidates:
            parent_map[var.name] = ()
            continue
        [(parents, _)] = _k2_search(
            columns[var.name][:, None], var.cardinality, candidates, columns, config
        )
        parent_map[var.name] = parents
    return parent_map


def train_model(
    experiences: Sequence | EncodedCorpus,
    pseudocount: float = 1.0,
    config: K2Config = K2Config(),
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
        parent_map = learn_affordance_structure(corpus.columns, variables, config)
    else:
        parent_map = default_affordance_parents()
    affordance_net = fit_cpts(make_network(variables, parent_map), corpus.columns, pseudocount)
    return learn_word_layer(affordance_net, corpus, config)


def structure_report(network: Network, config: K2Config = K2Config()) -> str:
    """Plain-text adjacency listing of the learned word links.

    The header records the search defaults, which are choices rather than
    givens: ordering-position tie-breaks and the parent limit both shape
    which of several equally plausible graphs comes out.
    """
    lines = [
        "# word-meaning association graph",
        f"# max_parents={config.max_parents} alpha={config.alpha:g} "
        f"tie_break_ordering={','.join(network.affordance_names())}",
        f"# words seen < {config.min_word_occurrences} times keep an empty parent set",
    ]
    for word in sorted(network.word_names()):
        lines.append(f"{word} <- {','.join(network.parents[word])}".rstrip())
    return "\n".join(lines) + "\n"
