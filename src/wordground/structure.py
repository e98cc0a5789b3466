"""Greedy K2 parent selection.

Each node's parents are chosen independently by hill-climbing on the
Bayesian-Dirichlet family score: start from no parents, repeatedly add the
single candidate that increases the score most, stop when nothing improves
or the parent limit is reached. Applied per word node this produces the
word-meaning association graph; applied under a causal ordering it can also
learn the affordance structure itself.

One search (`_k2_search`) serves a batch of targets at once. At each greedy
step the targets still searching are grouped by their current parent set,
and every candidate of every group is counted in one sparse pass
(`_count_families`): one `bincount` gives the row totals and one over the
targets' nonzero values the counts of values 1..r-1 (value 0 is the rest of
the row total). Each score adds its log-gamma terms one after another in
ascending order (`network._observed_scores`): an unobserved configuration
adds exact zeros, so all candidates share one padded width, and parent sets
that split the records alike tie exactly, so the tie-break, not rounding,
decides. Candidates are searched in the order given, the declaration order
of the affordance variables, and of two equal scores the earlier wins. The
records are encoded once (`EncodedCorpus`): value-index columns of the
affordance variables plus a records x words 0/1 presence matrix, the one
word-presence encoding, which the search and the word CPT fit share. The
word layer holds exactly the corpus's own words, in sorted order. A
learning curve encodes its corpus once and trains on index subsets.
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
    _configs,
    _cpt,
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
        if not experiences:
            raise ValueError("corpus has no records")
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


def _group_by(keys) -> tuple[list, np.ndarray]:
    """The distinct keys in order of first appearance, and each key's index."""
    index: dict = {}
    group = np.array([index.setdefault(key, len(index)) for key in keys], dtype=np.int64)
    return list(index), group


def _nonzero(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Record, target and value minus one of every nonzero entry of the
    targets' value indices `codes`, shape (records, targets)."""
    rec, tgt = np.nonzero(codes)
    return rec, tgt, codes[rec, tgt] - 1


def _count_families(
    entries: tuple[np.ndarray, np.ndarray, np.ndarray],
    r: int,
    configs: np.ndarray,
    group: np.ndarray,
    width: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Family counts of every target under each coding of its group's
    parent configurations: `configs` has shape (groups, records, codings),
    entries below `width`, `group` gives each target's group and `entries`
    the targets' nonzero values (`_nonzero`). Returns the counts, shape
    (targets, codings, width, r), and row totals, (targets, codings, width).
    """
    rec, tgt, value = entries
    n_groups, n_records, n_codings = configs.shape
    n_targets = len(group)
    block = n_codings * width
    coded = configs + width * np.arange(n_codings)
    totals = np.bincount(
        (coded + block * np.arange(n_groups)[:, None, None]).ravel(), minlength=n_groups * block
    ).reshape(n_groups, n_codings, width)[group]
    cells = coded.reshape(n_groups * n_records, n_codings)[group[tgt] * n_records + rec]
    rest = np.bincount(
        (cells + ((value * n_targets + tgt) * block)[:, None]).ravel(),
        minlength=(r - 1) * n_targets * block,
    ).reshape(r - 1, n_targets, n_codings, width)
    counts = np.concatenate([(totals - rest.sum(axis=0))[None], rest])
    return np.moveaxis(counts, 0, -1), totals


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
    n_records, n_targets = codes.shape
    terms = _score_terms(config.alpha, r, n_records)
    # coding 0 keeps the current parent set; coding 1 + i adds candidate i
    extensions = [()] + ([[c] for c in candidates] if config.max_parents else [])
    cards = np.array([math.prod(c.cardinality for c in e) for e in extensions], dtype=np.int64)
    extend = _configs(extensions, columns, n_records).T
    rec, tgt, value = _nonzero(codes)
    chosen: list[list[int]] = [[] for _ in range(n_targets)]
    traces: list[list[float]] = []
    searching = np.arange(n_targets)
    for step in range(max(config.max_parents, 1)):  # at 0, for the no-parent scores
        if not searching.size:
            break
        keys, group = _group_by(tuple(chosen[t]) for t in searching.tolist())
        bases = _configs([[candidates[i] for i in key] for key in keys], columns, n_records)
        width = max(math.prod(candidates[i].cardinality for i in key) for key in keys)
        width *= int(cards.max())
        counts, totals = _count_families(
            (rec, tgt, value), r, bases[:, :, None] * cards + extend, group, width
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
        rec, tgt, value = rec[keep], (np.cumsum(accept) - 1)[tgt[keep]], value[keep]
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
    singles = _configs([[c] for c in candidates], columns, len(codes)).T[None]
    one_group = np.zeros(codes.shape[1], dtype=np.int64)
    width = max(c.cardinality for c in candidates)
    counts, totals = _count_families(_nonzero(codes), r, singles, one_group, width)
    scores = _observed_scores(counts, totals, _score_terms(alpha, r, len(codes)))
    return [candidates[i].name for i in np.argmax(scores, axis=1).tolist()]


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
    network's pseudocount; all words are counted in one pass, each under
    its own parent set."""
    parent_sets, group = _group_by(word_parents[w] for w in corpus.words)
    parent_vars = [[affordance_network.variable(p) for p in ps] for ps in parent_sets]
    rows = [math.prod(v.cardinality for v in vs) for vs in parent_vars]
    configs = _configs(parent_vars, corpus.columns, len(corpus.presence))[:, :, None]
    counts, _ = _count_families(_nonzero(corpus.presence), 2, configs, group, max(rows, default=1))
    tables = _cpt(counts[:, 0], affordance_network.pseudocount)
    word_vars = [word_variable(word) for word in corpus.words]
    word_cpts = {
        w.name: tables[j, : rows[g]] for j, (w, g) in enumerate(zip(word_vars, group.tolist()))
    }
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
        [(parents, _)] = _k2_search(
            columns[var.name][:, None], var.cardinality, list(ordering[:i]), columns, config
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
