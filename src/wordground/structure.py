"""Learning a network from experiences: counting, CPT fitting, the K2
score, greedy K2 parent selection and the one-parent baseline of the
ablation.

Each node's parents are chosen independently by hill-climbing on the K2
score at its uniform prior `K2_ALPHA` = 1: start from no parents,
repeatedly add the single candidate that increases the score most, stop
when nothing improves or the node has `MAX_PARENTS` = 3 parents. Applied
per word node this produces the word-meaning association graph; applied
under a causal ordering it can also learn the affordance structure itself.
CPTs are maximum-a-posteriori fits with symmetric Dirichlet smoothing
(`fit_cpts`, `_cpt`).

Every count is a sum over the distinct states of the training records,
each weighted by its number of records: the family score and the CPT fit
depend on the records only through these counts (Cooper & Herskovits 1992),
so the counts are the sufficient statistics, cached per corpus (Moore &
Lee 1998). The records are encoded once (`EncodedCorpus`), through the one
record encoder, `encode_columns`: its value-index columns give each record
a configuration index, and the distinct indices, in ascending order, are
the states. Each state keeps its columns, its number of records and a row
of the states x words matrix of how many of its descriptions hold each
word, the one word-presence encoding, which the search and the word CPT fit
share. A corpus and its index subsets come from one constructor, which
weighs the same states by the records it is given, so a learning curve
encodes its corpus once. What does not depend on the weights is kept with
the encoding and shared by its subsets: each word's variable, and the
configuration index of every parent set over the states, memoised by parent
names (`_configs`), so the models of a curve compute each index once. The
word layer holds exactly the corpus's own words, in sorted order.

The affordance fit (`fit_cpts`) counts each family with one weighted
`bincount` over the states. One search (`_k2_search`) serves a batch of
targets at once. Each of its steps counts every candidate of every target
in one sparse pass (`_count_families`). The word CPT fit counts every word
in one such pass.
The score's log-gamma terms come from a table built with `math.lgamma` once
per (alpha, r, records) and cached (`_score_terms`). Each score adds its
terms one after another in ascending order (`_observed_scores`): an
unobserved configuration adds exact zeros, so all candidates share one
padded width, and parent sets that split the records alike tie exactly, so
the tie-break, not rounding, decides. Candidates are searched in the order
given, the declaration order of the affordance variables, and of two equal
scores the earlier wins.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .network import (
    Assignment,
    Network,
    Variable,
    affordance_variables,
    default_affordance_parents,
    word_variable,
)


# -- encoding and counting --------------------------------------------------


def _encode_column(variable: Variable, records: Sequence[Assignment]) -> np.ndarray:
    """Value-index column for one variable over a complete dataset."""
    lookup = {val: i for i, val in enumerate(variable.values)}
    col = np.empty(len(records), dtype=np.int64)
    for i, rec in enumerate(records):
        try:
            col[i] = lookup[rec[variable.name]]
        except KeyError:
            if variable.name not in rec:
                raise ValueError(
                    f"record {i} is missing a value for {variable.name!r}"
                ) from None
            raise ValueError(
                f"record {i} binds {variable.name!r} to unknown value "
                f"{rec[variable.name]!r}"
            ) from None
    return col


def encode_columns(
    variables: Sequence[Variable], records: Sequence[Assignment]
) -> dict[str, np.ndarray]:
    """Value-index columns for a complete dataset, keyed by variable name."""
    return {v.name: _encode_column(v, records) for v in variables}


def _config_index(
    parents: Sequence[Variable], columns: Mapping[str, np.ndarray], n_states: int
) -> np.ndarray:
    """Configuration index of every state under `parents`, row-major over
    them (the first varies slowest)."""
    index = np.zeros(n_states, dtype=np.int64)
    for p in parents:
        index *= p.cardinality
        index += columns[p.name]
    return index


def _configs(
    parent_sets: Sequence[Sequence[Variable]],
    columns: Mapping[str, np.ndarray],
    n_states: int,
    memo: dict[tuple[str, ...], np.ndarray],
) -> np.ndarray:
    """`_config_index` of each parent set, shape (sets, states). `memo`
    keeps the index of every parent set it is asked for, keyed by the
    parent names, for later calls on the same `columns`."""
    rows = []
    for parents in parent_sets:
        key = tuple(p.name for p in parents)
        row = memo.get(key)
        if row is None:
            row = memo[key] = _config_index(parents, columns, n_states)
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(len(rows), n_states)


def _count_families(
    entries: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    weights: np.ndarray,
    r: int,
    configs: np.ndarray,
    group: np.ndarray,
    width: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Family counts of every target under each coding of its group's
    parent configurations, the batched counting pass behind every score and
    the word CPT fit.

    `configs` has shape (states, groups, codings), entries below `width`;
    `weights` gives each state's number of records, `group` each target's
    group and `entries` the (state, target, value - 1, multiplicity) of the
    targets' nonzero values, as `_entries` returns them. One weighted
    `bincount` gives the row totals and one the counts of values 1..r-1;
    value 0 is the rest of the row total. The sums are of integers, so they
    are exact. Returns the counts, shape (targets, codings, width, r), and
    row totals, (targets, codings, width), both int64.
    """
    state, tgt, value, multiplicity = entries
    n_states, n_groups, n_codings = configs.shape
    n_targets = len(group)
    block = n_codings * width
    # every state's (group, coding, configuration) cell
    coded = configs + width * np.arange(n_groups * n_codings).reshape(n_groups, n_codings)
    totals = np.bincount(
        coded.ravel(), weights=np.repeat(weights, n_groups * n_codings), minlength=n_groups * block
    ).astype(np.int64).reshape(n_groups, n_codings, width)[group]
    # each entry's cells, moved from its group's block to its target's
    entry_group = group[tgt]
    cells = (coded * (r - 1))[state, entry_group]
    rest = np.bincount(
        (cells + ((tgt - entry_group) * (block * (r - 1)) + value)[:, None]).ravel(),
        weights=np.repeat(multiplicity, n_codings),
        minlength=n_targets * block * (r - 1),
    ).astype(np.int64).reshape(n_targets, n_codings, width, r - 1)
    return np.concatenate([(totals - rest.sum(axis=-1))[..., None], rest], axis=-1), totals


# -- CPT fitting ------------------------------------------------------------


def _cpt(counts: np.ndarray, pseudocount: float) -> np.ndarray:
    """CPTs from family counts of shape (..., n_parent_configs, cardinality).

    Each entry is ``(count + a) / (row_total + a * cardinality)``. With
    ``a == 0`` this is the plain maximum-likelihood frequency table (entries
    may be exactly zero, which is what makes impossible-input detection
    possible), and rows for parent configurations never observed fall back
    to uniform so that every row still sums to 1. ``a * cardinality`` must
    be finite too, or every entry would be 0.
    """
    a = float(pseudocount)
    if not (math.isfinite(a * counts.shape[-1]) and a >= 0):
        raise ValueError(
            f"pseudocount must be a finite number >= 0 whose product with a "
            f"cardinality ({counts.shape[-1]}) is finite, got {pseudocount!r}"
        )
    counts = counts.astype(float)
    totals = counts.sum(axis=-1, keepdims=True)
    # only an unobserved row at a == 0 is 0 / 0
    with np.errstate(invalid="ignore"):
        table = (counts + a) / (totals + a * counts.shape[-1])
    table[np.isnan(table)] = 1.0 / counts.shape[-1]
    return table


def _group_by(keys) -> tuple[list, np.ndarray]:
    """The distinct keys in order of first appearance, and each key's index."""
    index: dict = {}
    group = np.array([index.setdefault(key, len(index)) for key in keys], dtype=np.int64)
    return list(index), group


def fit_cpts(
    variables: Sequence[Variable],
    parents: Mapping[str, Sequence[str]],
    columns: Mapping[str, np.ndarray],
    weights: np.ndarray,
    pseudocount: float = 1.0,
) -> Network:
    """Network over `variables` with the structure `parents`, in which a
    variable not named has no parents, and every CPT fitted from encoded
    columns. `columns` holds the value indices of distinct states, as
    `encode_columns` returns them, and `weights` how many records each
    state counts as. Each family is counted with one weighted `bincount`
    over the states; the `Network` constructor checks the structure.

    Each CPT entry becomes ``(count + a) / (row_total + a * cardinality)``
    with ``a = pseudocount``; with ``a == 0``, rows for parent configurations
    never observed are uniform (see `_cpt`).
    """
    by_name = {v.name: v for v in variables}
    cpts = {}
    for v in variables:
        try:
            family = [by_name[p] for p in parents.get(v.name, ())] + [v]
        except KeyError as exc:
            raise ValueError(f"unknown variable name {exc.args[0]!r} in parent map") from None
        counts = np.bincount(
            _config_index(family, columns, len(weights)),
            weights=weights,
            minlength=math.prod(p.cardinality for p in family),
        )
        cpts[v.name] = _cpt(counts.reshape(-1, v.cardinality), pseudocount)
    return Network(variables, parents, cpts, float(pseudocount))


# -- K2 family score --------------------------------------------------------

# K2's uniform Dirichlet prior (Cooper & Herskovits 1992), the one weight of
# every structure search.
K2_ALPHA = 1.0

# The most parents K2 gives a node.
MAX_PARENTS = 3


@functools.lru_cache(maxsize=64)
def _score_terms(alpha: float, r: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The family score's terms for a variable with `r` values, tabulated
    for counts and row totals 0..n: ``lgamma(alpha + c) - lgamma(alpha)``
    per count c, and ``lgamma(r * alpha) - lgamma(r * alpha + t)`` per row
    total t. Both are exactly 0.0 at 0. Cached; the arrays are read-only."""
    grid = np.arange(n + 1, dtype=float)
    cell = np.fromiter(map(math.lgamma, alpha + grid), float, n + 1) - math.lgamma(alpha)
    row = math.lgamma(r * alpha) - np.fromiter(map(math.lgamma, r * alpha + grid), float, n + 1)
    cell.flags.writeable = False
    row.flags.writeable = False
    return cell, row


def _observed_scores(
    counts: np.ndarray, totals: np.ndarray, terms: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Family scores from counts of shape (..., configurations, r) and row
    totals of shape (..., configurations); `terms` comes from `_score_terms`.

    A family's row terms and its cell terms are each sorted ascending and
    added one after another. So parent sets with the same multiset of count
    rows score exactly alike whatever the order of their configurations: a
    parent that splits no configuration is no improvement, and of two
    parents that split the records alike the earlier candidate wins. An
    unobserved configuration adds terms of exactly 0.0, which change no
    partial sum, so unobserved or padded configurations cannot move a score.
    """
    cell, row = terms
    per_family = counts.shape[:-2] + (math.prod(counts.shape[-2:]),)
    cell_terms = np.sort(cell[counts].reshape(per_family), axis=-1)
    row_terms = np.sort(row[totals], axis=-1)
    return np.cumsum(row_terms, axis=-1)[..., -1] + np.cumsum(cell_terms, axis=-1)[..., -1]


# -- encoded corpus and structure search ------------------------------------


# Words heard fewer times than this skip the search and keep an empty
# parent set, since a handful of sightings cannot support a stable link.
MIN_WORD_OCCURRENCES = 3


@dataclass(frozen=True, eq=False)
class _Encoding:
    """What an encoded corpus shares with its subsets, none of it
    depending on the records' weights: the encoded records, the variable
    of every word, and the memo of configuration indices over the states
    (`_configs`), which lives and dies with the corpus and its subsets."""

    # the state of each record, and the record and
    # state * len(word_variables) + word of each word of a description
    states: np.ndarray
    entry_rows: np.ndarray
    cells: np.ndarray
    # every word of the corpus, sorted, and its presence variable
    word_variables: dict[str, Variable]
    configs: dict[tuple[str, ...], np.ndarray] = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class EncodedCorpus:
    """Experiences encoded once for training, as the sufficient statistics
    of every family count.

    `encode` encodes the records with `encode_columns`; their distinct
    configuration indices, in ascending order, are the states. `columns`
    holds each affordance variable's value index per state, `weights` the
    number of records in each state, `words` the sorted words that occur in
    the descriptions and `word_counts` the states x words matrix of how
    many of a state's descriptions hold each word. `train_model` takes it
    in place of the experiences, `learn_word_layer` takes only it, and
    `subset` selects records without re-encoding them; a corpus is the
    subset of all its records.
    """

    columns: Mapping[str, np.ndarray]
    weights: np.ndarray
    words: tuple[str, ...]
    word_counts: np.ndarray
    _encoding: _Encoding = field(repr=False)
    # the encoded record behind each record of this corpus
    _rows: np.ndarray = field(repr=False)

    @classmethod
    def encode(
        cls, experiences: Sequence, variables: Sequence[Variable] = affordance_variables()
    ) -> "EncodedCorpus":
        if not experiences:
            raise ValueError("corpus has no records")
        records = encode_columns(variables, [exp.state for exp in experiences])
        # the distinct states in ascending order of their configuration
        # index, the first record of each and the state of every record
        configs = _config_index(variables, records, len(experiences))
        _, first, states = np.unique(configs, return_index=True, return_inverse=True)
        heard = list(itertools.chain.from_iterable(exp.description for exp in experiences))
        words = sorted(set(heard))
        index = {w: j for j, w in enumerate(words)}
        entry_rows = np.repeat(
            np.arange(len(experiences)), [len(exp.description) for exp in experiences]
        )
        entry_words = np.fromiter(map(index.__getitem__, heard), np.int64, len(heard))
        cells = states[entry_rows] * len(words) + entry_words
        enc = _Encoding(states, entry_rows, cells, {w: word_variable(w) for w in words})
        columns = {name: col[first] for name, col in records.items()}
        return cls._of_records(columns, len(first), enc, np.arange(len(experiences)))

    @classmethod
    def _of_records(
        cls, columns: Mapping[str, np.ndarray], n_states: int, enc: _Encoding, rows: np.ndarray
    ) -> "EncodedCorpus":
        """The corpus of the encoded records `rows`, weighted over all
        `n_states` states (a state none of them is in has weight 0), with
        the words that occur in them; `encode` gives it all the records."""
        n_words = len(enc.word_variables)
        picked = np.bincount(rows, minlength=len(enc.states))
        word_counts = np.bincount(
            enc.cells, weights=picked[enc.entry_rows], minlength=n_states * n_words
        ).astype(np.int64).reshape(n_states, n_words)
        seen = word_counts.any(axis=0)
        weights = np.bincount(enc.states[rows], minlength=n_states)
        words = tuple(w for w, s in zip(enc.word_variables, seen.tolist()) if s)
        return cls(columns, weights, words, word_counts[:, seen], enc, rows)

    def subset(self, indices: np.ndarray) -> "EncodedCorpus":
        """The records at `indices`, re-weighted over the same states."""
        rows = self._rows[indices]
        return self._of_records(self.columns, len(self.weights), self._encoding, rows)


def _entries(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Count entries of targets from a (states, targets, r - 1) array of
    how many records of each state give each target each value 1..r-1:
    the state, target, value minus one and count of every nonzero count.
    Words pass their states x words counts, an affordance variable its
    one-hot values times the states' weights. Floor division splits the
    flat indices (`np.nonzero` and `np.divmod` take about twice as long)."""
    flat = np.flatnonzero(counts)
    n_targets, n_values = counts.shape[1:]
    cell = flat // n_values  # state * n_targets + target
    state = cell // n_targets
    return state, cell - state * n_targets, flat - cell * n_values, counts.take(flat)


def _k2_search(
    entries: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    n_targets: int,
    r: int,
    candidates: Sequence[Variable],
    columns: Mapping[str, np.ndarray],
    weights: np.ndarray,
    memo: dict[tuple[str, ...], np.ndarray],
) -> list[tuple[tuple[str, ...], list[float]]]:
    """Greedy K2 search for a batch of `n_targets` targets with `r` values
    each.

    `columns` and `weights` hold the states and their numbers of records,
    `memo` the configuration indices of `columns` (`_configs`), `entries`
    the targets' values in the states (`_entries`) and `candidates` the
    parents to draw from in tie-break order. Each step adds, per target,
    the first candidate with the highest score if that score is strictly
    above the current one, up to `MAX_PARENTS`. At each step the targets
    still searching are grouped by their current parent set, and every
    candidate of every group is counted in one `_count_families` pass.
    Returns per target its parents, in candidate order, and its score after
    each step, starting with no parents.
    """
    terms = _score_terms(K2_ALPHA, r, int(weights.sum()))
    # coding 0 keeps the current parent set; coding 1 + i adds candidate i
    extensions = [()] + [[c] for c in candidates]
    cards = np.array([math.prod(c.cardinality for c in e) for e in extensions], dtype=np.int64)
    extend = _configs(extensions, columns, len(weights), memo).T
    state, tgt, value, multiplicity = entries
    chosen: list[list[int]] = [[] for _ in range(n_targets)]
    traces: list[list[float]] = []
    searching = np.arange(n_targets)
    for step in range(MAX_PARENTS):
        if not searching.size:
            break
        keys, group = _group_by(tuple(chosen[t]) for t in searching.tolist())
        bases = _configs(
            [[candidates[i] for i in key] for key in keys], columns, len(weights), memo
        )
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
    singles = _configs(
        [[c] for c in candidates], corpus.columns, len(corpus.weights), corpus._encoding.configs
    ).T[:, None]
    one_group = np.zeros(len(corpus.words), dtype=np.int64)
    width = max(c.cardinality for c in candidates)
    counts, totals = _count_families(
        _entries(corpus.word_counts[:, :, None]), corpus.weights, 2, singles, one_group, width
    )
    scores = _observed_scores(counts, totals, _score_terms(K2_ALPHA, 2, int(corpus.weights.sum())))
    return [candidates[i].name for i in np.argmax(scores, axis=1).tolist()]


def _node_parents(
    target: Variable,
    candidates: Sequence[Variable],
    columns: Mapping[str, np.ndarray],
    weights: np.ndarray,
    memo: dict[tuple[str, ...], np.ndarray],
) -> tuple[str, ...]:
    """`_k2_search` for one node whose values are in `columns`."""
    one_hot = columns[target.name][:, None, None] == np.arange(1, target.cardinality)
    entries = _entries(one_hot * weights[:, None, None])
    [(parents, _)] = _k2_search(
        entries, 1, target.cardinality, list(candidates), columns, weights, memo
    )
    return parents


def learn_word_layer(affordance_network: Network, corpus: EncodedCorpus) -> Network:
    """Attach one binary presence node per word of the corpus.

    For each word heard at least `MIN_WORD_OCCURRENCES` times, K2 selects
    up to `MAX_PARENTS` parents among the affordance variables only, in
    their declaration order; every word's CPT is then fitted with the
    affordance network's pseudocount. The affordance structure and CPTs are
    carried over untouched: the state model does not depend on what was
    said about it.
    """
    candidates = [affordance_network.variable(n) for n in affordance_network.affordance_names()]
    searched = np.flatnonzero(corpus.word_counts.sum(axis=0) >= MIN_WORD_OCCURRENCES)
    found = _k2_search(
        _entries(corpus.word_counts[:, searched, None]),
        len(searched),
        2,
        candidates,
        corpus.columns,
        corpus.weights,
        corpus._encoding.configs,
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
    network's pseudocount, all words in one `_count_families` pass in which
    the words with the same parents share a group."""
    keys, group = _group_by(word_parents[w] for w in corpus.words)
    parent_sets = [[affordance_network.variable(p) for p in key] for key in keys]
    rows = [math.prod(p.cardinality for p in parents) for parents in parent_sets]
    enc = corpus._encoding
    configs = _configs(parent_sets, corpus.columns, len(corpus.weights), enc.configs)
    counts, _ = _count_families(
        _entries(corpus.word_counts[:, :, None]),
        corpus.weights,
        2,
        configs.T[:, :, None],
        group,
        max(rows, default=1),
    )
    tables = _cpt(counts[:, 0], affordance_network.pseudocount)
    cpts = dict(affordance_network.cpts)
    for j, (w, g) in enumerate(zip(corpus.words, group.tolist())):
        cpts[w] = tables[j, : rows[g]]
    return Network(
        affordance_network.variables + tuple(enc.word_variables[w] for w in corpus.words),
        {**affordance_network.parents, **word_parents},
        cpts,
        affordance_network.pseudocount,
    )


def learn_affordance_structure(
    columns: Mapping[str, np.ndarray],
    weights: np.ndarray,
    ordering: Sequence[Variable],
) -> dict[str, tuple[str, ...]]:
    """Parent map over the affordance variables under a fixed ordering.

    Each node may only draw parents from the variables before it, so pass
    actions before features before effects. `columns` holds the value
    indices of distinct states, as `encode_columns` returns them, and
    `weights` how many records each state counts as.
    """
    memo: dict[tuple[str, ...], np.ndarray] = {}
    return {
        var.name: _node_parents(var, ordering[:i], columns, weights, memo)
        for i, var in enumerate(ordering)
    }


def train_model(
    experiences: Sequence | EncodedCorpus,
    pseudocount: float = 1.0,
    learn_structure: bool = False,
) -> Network:
    """Full learning pipeline: affordance CPTs plus the word layer.

    The affordance structure defaults to the fixed edge set (effects
    conditioned on action and object geometry); with `learn_structure` it is
    instead searched by K2 under the canonical variable ordering. The word
    layer holds the words that occur in the experiences, given as
    experiences or as their `EncodedCorpus`.
    """
    variables = affordance_variables()
    corpus = (
        experiences
        if isinstance(experiences, EncodedCorpus)
        else EncodedCorpus.encode(experiences, variables)
    )
    if learn_structure:
        parent_map = learn_affordance_structure(corpus.columns, corpus.weights, variables)
    else:
        parent_map = default_affordance_parents()
    affordance_net = fit_cpts(variables, parent_map, corpus.columns, corpus.weights, pseudocount)
    return learn_word_layer(affordance_net, corpus)


def build_baseline_network(experiences: Sequence, pseudocount: float = 1.0) -> Network:
    """Reference model without affordance structure, the ablation of
    `train_model`.

    Every affordance node is parentless and every word gets exactly one
    affordance parent, the single best by K2 score, even when no parent
    would have scored better. The word layer holds the words that occur in
    the experiences.
    """
    variables = affordance_variables()
    corpus = EncodedCorpus.encode(experiences, variables)
    aff = fit_cpts(variables, {}, corpus.columns, corpus.weights, pseudocount)
    best = _best_single_parents(corpus, variables)
    parents = {word: (parent,) for word, parent in zip(corpus.words, best)}
    return _attach_words(aff, corpus, parents)


def structure_report(network: Network) -> str:
    """Plain-text adjacency listing of the learned word links.

    The header records the search's constants, which are choices rather
    than givens: ordering-position tie-breaks and the parent bound both
    shape which of several equally plausible graphs comes out.
    """
    lines = [
        "# word-meaning association graph",
        f"# max_parents={MAX_PARENTS} alpha={K2_ALPHA:g} "
        f"tie_break_ordering={','.join(network.affordance_names())}",
        f"# words seen < {MIN_WORD_OCCURRENCES} times keep an empty parent set",
    ]
    for word in sorted(network.word_names()):
        lines.append(f"{word} <- {','.join(network.parents[word])}".rstrip())
    return "\n".join(lines) + "\n"
