"""Greedy K2 parent selection.

Each node's parents are chosen independently by hill-climbing on the
Bayesian-Dirichlet family score: start from no parents, repeatedly add the
single candidate that increases the score most, stop when nothing improves
or the parent limit is reached. Applied per word node this produces the
word-meaning association graph; applied under a causal ordering it can also
learn the affordance structure itself.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .grounding import corpus_vocabulary
from .network import (
    Assignment,
    Network,
    Variable,
    _fit_family,
    affordance_variables,
    default_affordance_parents,
    encode_columns,
    family_counts,
    fit_cpts,
    make_network,
    score_from_counts,
    word_variable,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class K2Config:
    """Search knobs for K2 parent selection.

    `candidate_ordering` breaks score ties (earlier name wins) and must list
    every candidate exactly once when given; empty means "use the candidates
    in the order supplied". Words observed fewer than `min_word_occurrences`
    times skip the search and keep an empty parent set, since a handful of
    sightings cannot support a stable link.
    """

    max_parents: int = 3
    candidate_ordering: tuple[str, ...] = ()
    alpha: float = 1.0
    min_word_occurrences: int = 3

    def __post_init__(self) -> None:
        if self.max_parents < 0:
            raise ValueError("max_parents must be >= 0")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")


def _ordered_candidates(
    candidates: Sequence[Variable], config: K2Config
) -> list[Variable]:
    if not config.candidate_ordering:
        return list(candidates)
    by_name = {v.name: v for v in candidates}
    if sorted(config.candidate_ordering) != sorted(by_name):
        raise ValueError(
            "candidate_ordering must contain every candidate exactly once"
        )
    return [by_name[name] for name in config.candidate_ordering]


def _k2_encoded(
    target: Variable,
    candidates: Sequence[Variable],
    columns: Mapping[str, np.ndarray],
    config: K2Config,
) -> tuple[tuple[str, ...], list[float]]:
    """Greedy search over encoded columns; returns (parents, score trace)."""
    ordered = _ordered_candidates(candidates, config)
    position = {v.name: i for i, v in enumerate(ordered)}
    chosen: list[Variable] = []
    score = score_from_counts(family_counts(target, [], columns), config.alpha)
    trace = [score]
    while len(chosen) < config.max_parents:
        best: Variable | None = None
        best_score = score
        for cand in ordered:
            if any(cand.name == c.name for c in chosen):
                continue
            s = score_from_counts(
                family_counts(target, chosen + [cand], columns), config.alpha
            )
            if s > best_score:
                best, best_score = cand, s
        if best is None:
            break
        chosen.append(best)
        score = best_score
        trace.append(score)
    names = sorted((c.name for c in chosen), key=position.__getitem__)
    return tuple(names), trace


def k2_select_parents(
    target_variable: Variable,
    candidates: Sequence[Variable],
    dataset: Sequence[Assignment],
    config: K2Config = K2Config(),
) -> tuple[str, ...]:
    """Parent set for one node, chosen greedily from `candidates`.

    Deterministic given dataset and config: candidates are swept in ordering
    position, and only strict score improvements are accepted.
    """
    if any(c.name == target_variable.name for c in candidates):
        raise ValueError("target variable cannot be its own candidate parent")
    columns = encode_columns([target_variable] + list(candidates), dataset)
    parents, _ = _k2_encoded(target_variable, candidates, columns, config)
    return parents


def learn_word_layer(
    affordance_network: Network,
    vocabulary: Sequence[str],
    dataset: Sequence,
    config: K2Config = K2Config(),
) -> Network:
    """Attach one binary presence node per vocabulary word.

    For each word, K2 selects parents among the affordance variables only,
    then the word's CPT is fitted with the affordance network's pseudocount.
    The affordance structure and CPTs are carried over untouched: the state
    model does not depend on what was said about it.

    `dataset` is a sequence of experiences, each with a full affordance
    `state` assignment and a `description` bag of words. Words appearing in
    descriptions but missing from the vocabulary are reported and ignored.
    """
    vocab = sorted(set(vocabulary))
    vocab_set = set(vocab)
    aff_names = affordance_network.affordance_names()

    unknown: set[str] = set()
    for exp in dataset:
        unknown.update(w for w in exp.description if w not in vocab_set)
    if unknown:
        logger.warning(
            "ignoring %d words outside the vocabulary: %s",
            len(unknown),
            ", ".join(sorted(unknown)),
        )

    search_config = config
    if not config.candidate_ordering:
        search_config = replace(config, candidate_ordering=aff_names)

    def k2_parents(wvar, candidates, columns):
        if int(columns[wvar.name].sum()) < config.min_word_occurrences:
            return ()
        return _k2_encoded(wvar, candidates, columns, search_config)[0]

    return _attach_words(affordance_network, vocab, dataset, k2_parents)


def _attach_words(
    affordance_network: Network,
    vocabulary: Sequence[str],
    dataset: Sequence,
    choose_parents: Callable[..., tuple[str, ...]],
) -> Network:
    """Add one presence node per vocabulary word to the affordance network.

    `choose_parents(word_variable, affordance_variables, columns)` picks each
    word's parents; `columns` holds the encoded states plus the word's
    presence column. The word's CPT is then fitted with the affordance
    network's pseudocount.
    """
    aff_vars = [affordance_network.variable(n) for n in affordance_network.affordance_names()]
    columns = encode_columns(aff_vars, [exp.state for exp in dataset])
    word_vars: list[Variable] = []
    word_parents: dict[str, tuple[str, ...]] = {}
    word_cpts: dict[str, np.ndarray] = {}
    for word in vocabulary:
        wvar = word_variable(word)
        columns[word] = np.fromiter(
            (1 if word in exp.description else 0 for exp in dataset),
            dtype=np.int64,
            count=len(dataset),
        )
        parents = choose_parents(wvar, aff_vars, columns)
        parent_vars = [affordance_network.variable(p) for p in parents]
        word_vars.append(wvar)
        word_parents[word] = parents
        word_cpts[word] = _fit_family(wvar, parent_vars, columns, affordance_network.pseudocount)
        del columns[word]
    return affordance_network.with_word_layer(word_vars, word_parents, word_cpts)


def learn_affordance_structure(
    dataset: Sequence[Assignment],
    ordering: Sequence[Variable],
    config: K2Config = K2Config(),
) -> dict[str, tuple[str, ...]]:
    """Parent map over the affordance variables under a fixed ordering.

    Each node may only draw parents from the variables before it, so pass
    actions before features before effects.
    """
    columns = encode_columns(list(ordering), dataset)
    parent_map: dict[str, tuple[str, ...]] = {}
    for i, var in enumerate(ordering):
        candidates = list(ordering[:i])
        if not candidates:
            parent_map[var.name] = ()
            continue
        node_config = replace(config, candidate_ordering=tuple(v.name for v in candidates))
        parents, _ = _k2_encoded(var, candidates, columns, node_config)
        parent_map[var.name] = parents
    return parent_map


def train_model(
    experiences: Sequence,
    vocabulary: Sequence[str] | None = None,
    pseudocount: float = 1.0,
    config: K2Config = K2Config(),
    learn_structure: bool = False,
) -> Network:
    """Full learning pipeline: affordance CPTs plus the word layer.

    The affordance structure defaults to the fixed edge set (effects
    conditioned on action and object geometry); with `learn_structure` it is
    instead searched by K2 under the canonical variable ordering.
    """
    states = [exp.state for exp in experiences]
    variables = affordance_variables()
    if learn_structure:
        parent_map = learn_affordance_structure(states, variables, config)
    else:
        parent_map = default_affordance_parents()
    affordance_net = fit_cpts(make_network(variables, parent_map), states, pseudocount)
    if vocabulary is None:
        vocabulary = corpus_vocabulary(experiences)
    return learn_word_layer(affordance_net, vocabulary, experiences, config)


def structure_report(network: Network, config: K2Config = K2Config()) -> str:
    """Plain-text adjacency listing of the learned word links.

    The header records the search defaults, which are choices rather than
    givens: ordering-position tie-breaks and the parent limit both shape
    which of several equally plausible graphs comes out.
    """
    ordering = config.candidate_ordering or network.affordance_names()
    lines = [
        "# word-meaning association graph",
        f"# max_parents={config.max_parents} alpha={config.alpha:g} "
        f"tie_break_ordering={','.join(ordering)}",
        f"# words seen < {config.min_word_occurrences} times keep an empty parent set",
    ]
    for word in sorted(network.word_names()):
        lines.append(f"{word} <- {','.join(network.parents[word])}".rstrip())
    return "\n".join(lines) + "\n"
