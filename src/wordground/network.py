"""Discrete Bayesian network core.

Representation of named discrete variables and a DAG of conditional
probability tables, maximum-a-posteriori parameter fitting with symmetric
Dirichlet smoothing from encoded value-index columns (`encode_columns`
turns complete records into them once; with weights, the columns hold
distinct states and each counts as its number of records), one
family-counting pass behind every fit and score (`_count_families`), exact
inference on a dense table of the non-word states into which each CPT
enters as one gather through its family's cached configuration index over
the state grid (`StateTable`, the one engine behind every query, scoring a
batch of evidence sets per call), the decomposable Bayesian-Dirichlet
family score used by structure search, and the JSON model file.
The score is K2's, at its uniform prior `K2_ALPHA` = 1. Its log-gamma terms
come from a table built with `math.lgamma` once per (alpha, r, records) and
cached (`_score_terms`). Each family's terms are sorted ascending and added
one after another (`_observed_scores`): equal counts score exactly alike,
and the exact 0.0 terms of an unobserved configuration change no partial
sum, so padding cannot move a score.

Networks are immutable after construction: fitting returns a new network,
and all query operations are read-only. A model file with a key given twice,
or one the format does not define, does not load.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

KINDS = ("action", "feature", "effect", "word")

# Binary presence values shared by every word variable, in CPT column order.
WORD_VALUES = ("absent", "present")
ABSENT, PRESENT = WORD_VALUES

# An assignment is a (possibly partial) map from variable name to value.
Assignment = Mapping[str, str]


@dataclass(frozen=True)
class Variable:
    """A named discrete variable with a fixed, ordered value set."""

    name: str
    values: tuple[str, ...]
    kind: str = "feature"

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if self.kind not in KINDS:
            raise ValueError(f"unknown variable kind {self.kind!r} for {self.name!r}")
        if len(self.values) < 2:
            raise ValueError(f"variable {self.name!r} needs at least two values")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"variable {self.name!r} has duplicate values")
        if self.kind == "word" and self.values != WORD_VALUES:
            raise ValueError(
                f"word variable {self.name!r} must have values {WORD_VALUES}"
            )

    @property
    def cardinality(self) -> int:
        return len(self.values)

    def index_of(self, value: str) -> int:
        try:
            return self.values.index(value)
        except ValueError:
            raise ValueError(
                f"value {value!r} is not one of {self.name}'s values {self.values}"
            ) from None


def word_variable(word: str) -> Variable:
    """Binary presence/absence variable for one vocabulary word."""
    return Variable(word, WORD_VALUES, "word")


def affordance_variables() -> tuple[Variable, ...]:
    """The eight symbolic manipulation variables, in canonical order.

    The order doubles as the default tie-break ordering for structure search.
    """
    return (
        Variable("Action", ("grasp", "tap", "touch"), "action"),
        Variable("Color", ("lightgreen", "darkgreen", "yellow", "blue"), "feature"),
        Variable("Shape", ("sphere", "box"), "feature"),
        Variable("Size", ("small", "medium", "big"), "feature"),
        Variable("ObjVel", ("slow", "medium", "fast"), "effect"),
        Variable("HandVel", ("slow", "fast"), "effect"),
        Variable("ObjHandVel", ("slow", "medium", "fast"), "effect"),
        Variable("Contact", ("short", "long"), "effect"),
    )


# The action, feature and effect fields of the default domain in the order
# of the corpus, scene and instruction files. Size precedes Shape here,
# unlike in the declaration order above, which the model file and the
# structure-search tie-breaks depend on.
_FILE_FIELDS = (
    ("Action",),
    ("Color", "Size", "Shape"),
    ("ObjVel", "HandVel", "ObjHandVel", "Contact"),
)


def default_affordance_parents() -> dict[str, tuple[str, ...]]:
    """Default edge set: every effect conditioned on action and object
    geometry, color isolated."""
    return {
        "Action": (),
        "Color": (),
        "Shape": (),
        "Size": (),
        "ObjVel": ("Action", "Shape", "Size"),
        "HandVel": ("Action", "Shape", "Size"),
        "ObjHandVel": ("Action", "Shape", "Size"),
        "Contact": ("Action", "Shape", "Size"),
    }


def _toposort(names: Sequence[str], parents: Mapping[str, Sequence[str]]) -> list[str]:
    """Kahn's algorithm with stable (declaration-order) tie-breaks."""
    remaining = {n: set(parents.get(n, ())) for n in names}
    order: list[str] = []
    while remaining:
        ready = [n for n in names if n in remaining and not remaining[n]]
        if not ready:
            cycle = ", ".join(sorted(remaining))
            raise ValueError(f"cycle detected among variables: {cycle}")
        for n in ready:
            order.append(n)
            del remaining[n]
        for deps in remaining.values():
            deps.difference_update(ready)
    return order


class Network:
    """A DAG of discrete variables with one CPT per variable.

    CPTs are arrays of shape ``(n_parent_configs, cardinality)``; rows are
    indexed row-major over the parent list (first parent varies slowest).
    """

    def __init__(
        self,
        variables: Sequence[Variable],
        parents: Mapping[str, Sequence[str]],
        cpts: Mapping[str, np.ndarray],
        pseudocount: float = 1.0,
    ):
        self.variables = tuple(variables)
        self._by_name = {v.name: v for v in self.variables}
        if len(self._by_name) != len(self.variables):
            raise ValueError("duplicate variable names")
        self.parents: dict[str, tuple[str, ...]] = {}
        for v in self.variables:
            ps = tuple(parents.get(v.name, ()))
            for p in ps:
                if p not in self._by_name:
                    raise ValueError(f"unknown variable name {p!r} in parents of {v.name!r}")
                if self._by_name[p].kind == "word":
                    raise ValueError(f"variable {v.name!r} cannot have word parent {p!r}")
            if len(set(ps)) != len(ps):
                raise ValueError(f"duplicate parent in parents of {v.name!r}")
            self.parents[v.name] = ps
        self._topo = _toposort([v.name for v in self.variables], self.parents)
        self.pseudocount = float(pseudocount)

        self.cpts: dict[str, np.ndarray] = {}
        for v in self.variables:
            table = np.asarray(cpts[v.name], dtype=float)
            expected = (self.n_parent_configs(v.name), v.cardinality)
            if table.shape != expected:
                raise ValueError(
                    f"CPT for {v.name!r} has shape {table.shape}, expected {expected}"
                )
            table = table.copy()
            table.flags.writeable = False
            self.cpts[v.name] = table

    # -- structure helpers -------------------------------------------------

    def variable(self, name: str) -> Variable:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(f"unknown variable name {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def topological_order(self) -> list[str]:
        return list(self._topo)

    def n_parent_configs(self, name: str) -> int:
        return math.prod(self._by_name[p].cardinality for p in self.parents[name])

    def parent_config_index(self, name: str, assignment: Assignment) -> int:
        """Row index of `name`'s CPT under the given (parent-covering) assignment."""
        idx = 0
        for p in self.parents[name]:
            pv = self._by_name[p]
            idx = idx * pv.cardinality + pv.index_of(assignment[p])
        return idx

    def cpt_row(self, name: str, assignment: Assignment) -> np.ndarray:
        return self.cpts[name][self.parent_config_index(name, assignment)]

    def word_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables if v.kind == "word")

    def affordance_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables if v.kind != "word")

    # -- derived networks --------------------------------------------------

    def with_word_layer(
        self,
        words: Sequence[Variable],
        word_parents: Mapping[str, Sequence[str]],
        word_cpts: Mapping[str, np.ndarray],
    ) -> "Network":
        """New network adding word nodes on top of this one, leaving the
        existing variables, structure, and CPTs untouched."""
        variables = list(self.variables) + list(words)
        parents = dict(self.parents)
        cpts = dict(self.cpts)
        for w in words:
            parents[w.name] = tuple(word_parents.get(w.name, ()))
            cpts[w.name] = word_cpts[w.name]
        return Network(variables, parents, cpts, self.pseudocount)


# -- construction and fitting ---------------------------------------------


def make_network(
    variables: Sequence[Variable], parent_map: Mapping[str, Sequence[str]]
) -> Network:
    """Network with the given structure and uniform placeholder CPTs."""
    variables = tuple(variables)
    by_name = {v.name: v for v in variables}
    for child, ps in parent_map.items():
        if child not in by_name:
            raise ValueError(f"unknown variable name {child!r} in parent map")
        for p in ps:
            if p not in by_name:
                raise ValueError(f"unknown variable name {p!r} in parents of {child!r}")
    cpts = {}
    for v in variables:
        n = math.prod(by_name[p].cardinality for p in parent_map.get(v.name, ()))
        cpts[v.name] = np.full((n, v.cardinality), 1.0 / v.cardinality)
    return Network(variables, parent_map, cpts)


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


def _configs(
    parent_sets: Sequence[Sequence[Variable]], columns: Mapping[str, np.ndarray], n_records: int
) -> np.ndarray:
    """Parent-configuration index of every record under each parent set,
    row-major over the set's parents, shape (sets, records)."""
    configs = np.zeros((len(parent_sets), n_records), dtype=np.int64)
    for row, parents in zip(configs, parent_sets):
        for p in parents:
            row *= p.cardinality
            row += columns[p.name]
    return configs


def _value_entries(
    codes: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Count entries of targets given as value indices, `codes` of shape
    (states, targets): the state, target, value minus one and multiplicity
    of every nonzero value, each counting as its state's weight."""
    flat = np.flatnonzero(codes)
    state, tgt = np.divmod(flat, codes.shape[1])
    return state, tgt, codes.ravel()[flat] - 1, weights[state]


def _count_families(
    entries: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    weights: np.ndarray,
    r: int,
    configs: np.ndarray,
    group: np.ndarray,
    width: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Family counts of every target under each coding of its group's
    parent configurations, the one counting pass behind every score and fit.

    `configs` has shape (states, groups, codings), entries below `width`;
    `weights` gives each state's number of records, `group` each target's
    group and `entries` the (state, target, value - 1, multiplicity) of the
    targets' nonzero values, as `_value_entries` returns them. One weighted
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


def _record_weights(columns: Mapping[str, np.ndarray]) -> np.ndarray:
    """Weight one for every row of encoded columns of records."""
    return np.ones(len(next(iter(columns.values()), ())), dtype=np.int64)


def family_counts(
    variable: Variable,
    parent_set: Sequence[Variable],
    columns: Mapping[str, np.ndarray],
) -> np.ndarray:
    """Count matrix of shape (n_parent_configs, cardinality) from encoded
    columns of records."""
    weights = _record_weights(columns)
    counts, _ = _count_families(
        _value_entries(columns[variable.name][:, None], weights),
        weights,
        variable.cardinality,
        _configs([parent_set], columns, len(weights)).T[:, :, None],
        np.zeros(1, dtype=np.int64),
        math.prod(p.cardinality for p in parent_set),
    )
    return counts[0, 0]


def _cpt(counts: np.ndarray, pseudocount: float) -> np.ndarray:
    """CPTs from family counts of shape (..., n_parent_configs, cardinality).

    Each entry is ``(count + a) / (row_total + a * cardinality)``. With
    ``a == 0`` this is the plain maximum-likelihood frequency table (entries
    may be exactly zero, which is what makes impossible-input detection
    possible), and rows for parent configurations never observed fall back
    to uniform so that every row still sums to 1.
    """
    a = float(pseudocount)
    if not (math.isfinite(a) and a >= 0):
        raise ValueError(f"pseudocount must be a finite number >= 0, got {pseudocount!r}")
    counts = counts.astype(float)
    totals = counts.sum(axis=-1, keepdims=True)
    if a > 0:
        return (counts + a) / (totals + a * counts.shape[-1])
    with np.errstate(invalid="ignore"):
        table = counts / totals
    table[np.isnan(table)] = 1.0 / counts.shape[-1]
    return table


def _group_by(keys) -> tuple[list, np.ndarray]:
    """The distinct keys in order of first appearance, and each key's index."""
    index: dict = {}
    group = np.array([index.setdefault(key, len(index)) for key in keys], dtype=np.int64)
    return list(index), group


def _fit_families(
    entries: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    weights: np.ndarray,
    r: int,
    parent_sets: Sequence[tuple[Variable, ...]],
    columns: Mapping[str, np.ndarray],
    pseudocount: float,
) -> list[np.ndarray]:
    """CPTs of a batch of targets with `r` values each, one per parent set
    in `parent_sets`, all counted in one `_count_families` pass in which
    targets with the same parent set share a group. `entries`, `weights`
    and `columns` are as there; the estimator is `_cpt`."""
    keys, group = _group_by(parent_sets)
    rows = [math.prod(p.cardinality for p in key) for key in keys]
    configs = _configs(keys, columns, len(weights)).T[:, :, None]
    counts, _ = _count_families(entries, weights, r, configs, group, max(rows, default=1))
    tables = _cpt(counts[:, 0], pseudocount)
    return [tables[j, : rows[g]] for j, g in enumerate(group.tolist())]


def fit_cpts(
    network: Network,
    columns: Mapping[str, np.ndarray],
    pseudocount: float = 1.0,
    weights: np.ndarray | None = None,
) -> Network:
    """Refit every CPT from encoded columns of complete records, as
    `encode_columns` returns them, keeping the structure. With `weights`
    the columns hold distinct states and each counts as that many records.
    The variables with the same number of values are counted together.

    Each CPT entry becomes ``(count + a) / (row_total + a * cardinality)``
    with ``a = pseudocount``; with ``a == 0``, rows for parent configurations
    never observed are uniform (see `_cpt`).
    """
    if weights is None:
        weights = _record_weights(columns)
    cpts = {}
    for r in sorted({v.cardinality for v in network.variables}):
        targets = [v for v in network.variables if v.cardinality == r]
        tables = _fit_families(
            _value_entries(np.stack([columns[v.name] for v in targets], axis=1), weights),
            weights,
            r,
            [tuple(network.variable(p) for p in network.parents[v.name]) for v in targets],
            columns,
            pseudocount,
        )
        cpts.update(zip((v.name for v in targets), tables))
    return Network(network.variables, network.parents, cpts, float(pseudocount))


# -- inference --------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _grid_index(axes: tuple[tuple[str, int], ...], family: tuple[str, ...]) -> np.ndarray:
    """Configuration index of the variables `family`, row-major in family
    order, of every state of the dense grid over `axes` ((name, cardinality)
    pairs, row-major). A CPT row-major over the family turns into a factor
    over the states with one gather. Cached; the array is read-only."""
    cards = dict(axes)
    grid = dict(zip(cards, np.indices(tuple(cards.values())).reshape(len(cards), -1)))
    index = np.empty(math.prod(cards.values()), dtype=np.int64)
    # an empty family has the one configuration 0, a scalar here
    index[:] = np.ravel_multi_index([grid[n] for n in family], [cards[n] for n in family])
    index.flags.writeable = False
    return index


class StateTable:
    """Exact inference on a dense joint table of the non-word variables.

    `p_x` holds the joint probability of every state, row-major over the
    non-word variables in declaration order (`shape`): the product of the
    CPTs, each gathered into a factor over the states through its family's
    cached `_grid_index` (the factor product of Koller & Friedman 2009,
    ch. 9). A query multiplies in one factor per bound variable: an
    indicator for a non-word variable, and for a word its CPT column at the
    bound value, gathered over its parents. Words are leaves, so every
    unbound word sums out to one and only the bound ones enter. Summing the
    product onto the query variables gives their exact joint with the
    evidence.
    """

    def __init__(self, network: Network):
        self.network = network
        self.names = list(network.affordance_names())
        self.shape = tuple(network.variable(n).cardinality for n in self.names)
        self._axes = tuple(zip(self.names, self.shape))
        self.p_x = np.ones(math.prod(self.shape))
        for name in self.names:
            self.p_x *= network.cpts[name].ravel()[self._index(network.parents[name] + (name,))]

    def _index(self, family: tuple[str, ...]) -> np.ndarray:
        return _grid_index(self._axes, family)

    def joint(self, evidences: Sequence[Assignment], cells: Sequence[str]) -> np.ndarray:
        """p(cells, evidence) for each evidence set, shape (evidence sets,
        *cell cardinalities), cells in cell order. Each row multiplies into
        `p_x` the non-word indicators in evidence order, then the word
        factors in sorted word order, so it does not depend on the order of
        the evidence or on the other rows."""
        mass = np.empty((len(evidences), self.p_x.size))
        mass[:] = self.p_x
        rows_of: dict[tuple[str, int], list[np.ndarray]] = {}
        for row, evidence in zip(mass, evidences):
            for name, value in evidence.items():
                v = self.network.variable(name)
                i = v.index_of(value)
                if v.kind == "word":
                    rows_of.setdefault((name, i), []).append(row)
                else:
                    np.multiply(row, self._index((name,)) == i, out=row)
        # words in sorted order, each gathered once for all the rows it binds
        for (name, i), rows in sorted(rows_of.items()):
            factor = self.network.cpts[name][:, i][self._index(self.network.parents[name])]
            for row in rows:
                np.multiply(row, factor, out=row)
        keep = [self.names.index(c) for c in cells]
        summed = tuple(1 + a for a in range(len(self.shape)) if a not in keep)
        table = mass.reshape((len(evidences),) + self.shape).sum(axis=summed)
        kept_sorted = sorted(keep)
        return table.transpose([0] + [1 + kept_sorted.index(a) for a in keep])

    def posterior(self, evidences: Sequence[Assignment], cells: Sequence[str]) -> np.ndarray:
        """`joint` with each row normalised over the cells; a row whose
        evidence has probability zero stays all-zero."""
        table = self.joint(evidences, cells)
        totals = table.sum(axis=tuple(range(1, table.ndim)))
        return table / np.where(totals > 0, totals, 1.0).reshape((-1,) + (1,) * len(cells))


def joint_probability(network: Network, assignment: Assignment) -> float:
    """Probability of one full configuration: the product of CPT lookups."""
    missing = [v.name for v in network.variables if v.name not in assignment]
    if missing:
        raise ValueError(f"assignment is partial, missing {missing}")
    full = {v.name: assignment[v.name] for v in network.variables}
    return float(StateTable(network).joint([full], ())[0])


def marginal(
    network: Network,
    query_variables: Sequence[str],
    evidence: Assignment | None = None,
) -> dict[tuple[str, ...], float]:
    """Exact conditional distribution over joint values of non-word query
    variables.

    If the evidence has probability zero the result is the designated
    all-zero table rather than an error, so callers can detect impossible
    inputs.
    """
    evidence = dict(evidence or {})
    query = list(query_variables)
    if not query:
        raise ValueError("query must name at least one variable")
    overlap = set(query) & set(evidence)
    if overlap:
        raise ValueError(f"query and evidence overlap on {sorted(overlap)}")
    query_vars = [network.variable(n) for n in query]
    words = [v.name for v in query_vars if v.kind == "word"]
    if words:
        raise ValueError(f"cannot query word variables {words}")
    posterior = StateTable(network).posterior([evidence], query)[0]
    return {
        tuple(v.values[i] for v, i in zip(query_vars, idx)): float(posterior[idx])
        for idx in np.ndindex(posterior.shape)
    }


# -- Bayesian-Dirichlet family score ----------------------------------------

# K2's uniform Dirichlet prior (Cooper & Herskovits 1992), the one weight of
# every structure search and of `family_log_score`.
K2_ALPHA = 1.0


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


def family_log_score(
    variable: Variable,
    parent_set: Sequence[Variable],
    dataset: Sequence[Assignment],
) -> float:
    """Log Dirichlet-multinomial marginal likelihood of `variable`'s column
    given its parents, from complete records, at the K2 prior `K2_ALPHA`.

    Decomposable: depends only on the family's counts, so structure search
    can score candidate parent sets independently per node. Parent
    configurations that never occur contribute nothing.
    """
    columns = encode_columns([variable] + list(parent_set), dataset)
    counts = family_counts(variable, parent_set, columns)
    totals = counts.sum(axis=1)
    terms = _score_terms(K2_ALPHA, variable.cardinality, int(totals.max(initial=0)))
    return float(_observed_scores(counts, totals, terms))


# -- model file -------------------------------------------------------------


def _fmt_float(x: float) -> str:
    # 17 significant digits: enough to reproduce any double exactly, so
    # save -> load -> save is byte-identical.
    return format(float(x), ".17g")


def network_to_json(network: Network) -> str:
    variables, parents, cpts = [], [], []
    for i, v in enumerate(network.variables):
        name = json.dumps(v.name)
        comma = "," if i < len(network.variables) - 1 else ""
        variables.append(
            f'    {{"name": {name}, "kind": {json.dumps(v.kind)}, '
            f'"values": {json.dumps(list(v.values))}}}{comma}'
        )
        parents.append(f"    {name}: {json.dumps(list(network.parents[v.name]))}{comma}")
        rows = ("[" + ", ".join(map(_fmt_float, row)) + "]" for row in network.cpts[v.name])
        cpts.append(f"    {name}: [{', '.join(rows)}]{comma}")
    out = ["{", '  "variables": [', *variables, "  ],", '  "parents": {', *parents, "  },"]
    out += ['  "cpts": {', *cpts, "  },", f'  "pseudocount": {_fmt_float(network.pseudocount)}']
    return "\n".join(out) + "\n}\n"


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict, refusing a key given twice rather
    than keeping the last."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise ValueError(f"model file: duplicate key {key!r}")
    return obj


def _json_object(value, what: str, keys=None) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"model file: {what} must be an object")
    unknown = [] if keys is None else [k for k in value if k not in keys]
    if unknown:
        raise ValueError(f"model file: {what} has unknown key {unknown[0]!r}")
    return value


def _json_strings(value, what: str) -> tuple[str, ...]:
    if not (isinstance(value, list) and all(isinstance(x, str) for x in value)):
        raise ValueError(f"model file: {what} must be a list of strings")
    return tuple(value)


def _json_variable(spec) -> Variable:
    name = _json_object(spec, "each entry of variables")["name"]
    if not isinstance(name, str):
        raise ValueError(f"model file: variable name {name!r} is not a string")
    return Variable(name, _json_strings(spec["values"], f"values of {name!r}"), spec["kind"])


def _json_table(value, name: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"model file: CPT for {name!r} is not a table of numbers") from None


def network_from_json(text: str) -> Network:
    """Network from a model file's text. Raises ValueError for a missing,
    repeated or undefined key, a field of the wrong JSON type, a pseudocount
    that is not a finite number >= 0, or a CPT row with non-finite or
    negative entries or a sum more than 1e-9 away from 1."""
    obj = json.loads(text, object_pairs_hook=_unique_keys)
    obj = _json_object(obj, "the top level", ("variables", "parents", "cpts", "pseudocount"))
    try:
        if not isinstance(obj["variables"], list):
            raise ValueError("model file: variables must be a list of objects")
        variables = [_json_variable(spec) for spec in obj["variables"]]
        names = {v.name for v in variables}
        parents_obj = _json_object(obj["parents"], "parents", names)
        parents = {
            v.name: _json_strings(parents_obj[v.name], f"parents of {v.name!r}")
            for v in variables
        }
        cpts_obj = _json_object(obj["cpts"], "cpts", names)
        cpts = {v.name: _json_table(cpts_obj[v.name], v.name) for v in variables}
        pseudocount = obj["pseudocount"]
    except KeyError as exc:
        raise ValueError(f"model file is missing key {exc}") from None
    is_number = isinstance(pseudocount, (int, float)) and not isinstance(pseudocount, bool)
    if not (is_number and 0 <= pseudocount <= sys.float_info.max):
        raise ValueError(
            f"model file: pseudocount must be a finite number >= 0, got {pseudocount!r}"
        )
    network = Network(variables, parents, cpts, pseudocount)
    for name, table in network.cpts.items():
        if not np.all(np.isfinite(table) & (table >= 0)):
            raise ValueError(f"CPT for {name!r} has non-finite or negative entries")
        if np.any(np.abs(table.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError(f"CPT for {name!r} has a row that does not sum to 1")
    return network


def save_network(network: Network, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(network_to_json(network))


def load_network(path) -> Network:
    with open(path, encoding="utf-8") as fh:
        return network_from_json(fh.read())
