"""Discrete Bayesian network core.

Representation of named discrete variables and a DAG of conditional
probability tables, exact inference on a dense table of the non-word states
into which each CPT enters as one gather through its family's cached
configuration index over the state grid (`StateTable`, the one engine
behind every query, scoring a batch of bags of heard words per call), and
the JSON model file. Learning a network from data (counting, CPT fitting and
the K2 score) is `structure`'s.

Networks are immutable after construction: fitting builds a new network,
`parents` and `cpts` are read-only mappings of read-only arrays, and all
query operations are read-only. So each network builds its engine once, on
its first query, and keeps it (`Network.state_table`); the engine holds no
reference back to the network, so a network is freed as soon as its last
reference goes. A model file with a key given twice, or one the format does
not define, does not load.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

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
FILE_FIELDS = (
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


class Network:
    """A DAG of discrete variables with one CPT per variable.

    Every parent is declared before its child, so declaration order is a
    topological order; the rule also excludes cycles and self-loops.
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
        for what, entries in (("parent map", parents), ("cpts", cpts)):
            for name in entries:
                if name not in self._by_name:
                    raise ValueError(f"unknown variable name {name!r} in {what}")
        declared: dict[str, tuple[str, ...]] = {}
        for v in self.variables:
            ps = tuple(parents.get(v.name, ()))
            for p in ps:
                if p not in self._by_name:
                    raise ValueError(f"unknown variable name {p!r} in parents of {v.name!r}")
                if self._by_name[p].kind == "word":
                    raise ValueError(f"variable {v.name!r} cannot have word parent {p!r}")
                if p not in declared:
                    raise ValueError(
                        f"parent {p!r} of {v.name!r} is not declared before it: "
                        "variables are declared parents first, which rules out a cycle"
                    )
            if len(set(ps)) != len(ps):
                raise ValueError(f"duplicate parent in parents of {v.name!r}")
            declared[v.name] = ps
        self.parents: Mapping[str, tuple[str, ...]] = MappingProxyType(declared)
        self.pseudocount = float(pseudocount)
        # the names of the word variables, for membership tests
        self.word_set = frozenset(v.name for v in self.variables if v.kind == "word")

        tables: dict[str, np.ndarray] = {}
        for v in self.variables:
            table = np.asarray(cpts[v.name], dtype=float)
            expected = (self.n_parent_configs(v.name), v.cardinality)
            if table.shape != expected:
                raise ValueError(
                    f"CPT for {v.name!r} has shape {table.shape}, expected {expected}"
                )
            table = table.copy()
            table.flags.writeable = False
            tables[v.name] = table
        self.cpts: Mapping[str, np.ndarray] = MappingProxyType(tables)

    # -- structure helpers -------------------------------------------------

    def variable(self, name: str) -> Variable:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(f"unknown variable name {name!r}") from None

    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def n_parent_configs(self, name: str) -> int:
        return math.prod(self._by_name[p].cardinality for p in self.parents[name])

    def cpt_row(self, name: str, assignment: Assignment) -> np.ndarray:
        """Row of `name`'s CPT under the given (parent-covering) assignment."""
        idx = 0
        for p in self.parents[name]:
            pv = self._by_name[p]
            idx = idx * pv.cardinality + pv.index_of(assignment[p])
        return self.cpts[name][idx]

    def word_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables if v.kind == "word")

    def affordance_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables if v.kind != "word")

    @functools.cached_property
    def state_table(self) -> StateTable:
        """The network's inference engine, built on first use and kept."""
        return StateTable(self)


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
    ch. 9). The one query form is a bag of heard words: each word of the bag
    multiplies in its `PRESENT` CPT column, gathered over its parents. Words
    are leaves, so every word not in the bag sums out to one. Summing the
    product onto the query cells gives their exact joint with the bag.

    A network builds its table once and keeps it (`Network.state_table`).
    The table keeps only what `joint` reads (the word set, `cpts` and
    `parents`) and no reference back to the network, so the two form no
    reference cycle.
    """

    def __init__(self, network: Network):
        self.word_set = network.word_set
        self.cpts = network.cpts
        self.parents = network.parents
        self.names = list(network.affordance_names())
        self.shape = tuple(network.variable(n).cardinality for n in self.names)
        self._axes = tuple(zip(self.names, self.shape))
        self.p_x = np.ones(math.prod(self.shape))
        for name in self.names:
            self.p_x *= network.cpts[name].ravel()[self._index(network.parents[name] + (name,))]

    def _index(self, family: tuple[str, ...]) -> np.ndarray:
        return _grid_index(self._axes, family)

    def joint(self, bags: Sequence[Iterable[str]], cells: Sequence[str]) -> np.ndarray:
        """p(cells, every word of the bag present) for each bag of the
        network's words, shape (bags, *cell cardinalities), cells in cell
        order. Each row multiplies into `p_x` its words' factors in sorted
        word order, so it does not depend on the order of a bag, on repeated
        words or on the other rows."""
        mass = np.empty((len(bags), self.p_x.size))
        mass[:] = self.p_x
        rows_of: dict[str, list[np.ndarray]] = {}
        for row, bag in zip(mass, bags):
            for word in set(bag):
                rows_of.setdefault(word, []).append(row)
        # words in sorted order, each gathered once for all the rows it binds
        for word, rows in sorted(rows_of.items()):
            if word not in self.word_set:
                raise ValueError(f"{word!r} is not a word of the network")
            column = self.cpts[word][:, WORD_VALUES.index(PRESENT)]
            factor = column[self._index(self.parents[word])]
            for row in rows:
                np.multiply(row, factor, out=row)
        keep = [self.names.index(c) for c in cells]
        summed = tuple(1 + a for a in range(len(self.shape)) if a not in keep)
        table = mass.reshape((len(bags),) + self.shape).sum(axis=summed)
        kept_sorted = sorted(keep)
        return table.transpose([0] + [1 + kept_sorted.index(a) for a in keep])

    def posterior(self, bags: Sequence[Iterable[str]], cells: Sequence[str]) -> np.ndarray:
        """`joint` with each row normalised over the cells; a row whose bag
        has probability zero stays all-zero."""
        table = self.joint(bags, cells)
        totals = table.sum(axis=tuple(range(1, table.ndim)))
        return table / np.where(totals > 0, totals, 1.0).reshape((-1,) + (1,) * len(cells))


# -- model file -------------------------------------------------------------


def _fmt_float(x: float) -> str:
    # 17 significant digits: enough to reproduce any double exactly, so
    # save -> load -> save is byte-identical. Adding +0.0 writes -0.0 as 0:
    # JSON reads "-0" back as the integer 0.
    return format(float(x) + 0.0, ".17g")


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
    name = _json_object(spec, "each entry of variables", ("name", "kind", "values"))["name"]
    if not isinstance(name, str):
        raise ValueError(f"model file: variable name {name!r} is not a string")
    return Variable(name, _json_strings(spec["values"], f"values of {name!r}"), spec["kind"])


def _json_number(value) -> bool:
    """Whether a parsed JSON value is a number; true and false are not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_table(value, name: str) -> np.ndarray:
    if not (isinstance(value, list) and all(isinstance(row, list) for row in value)):
        raise ValueError(f"model file: CPT for {name!r} must be a list of rows")
    bad = [x for row in value for x in row if not _json_number(x)]
    if bad:
        raise ValueError(f"model file: CPT for {name!r} has entry {bad[0]!r}, not a number")
    try:
        return np.asarray(value, dtype=float)
    except (OverflowError, ValueError):
        raise ValueError(f"model file: CPT for {name!r} is not a table of numbers") from None


def network_from_json(text: str) -> Network:
    """Network from a model file's text. Raises ValueError for a missing,
    repeated or undefined key, a field of the wrong JSON type (a CPT entry
    that is not a number among them), a variable listed before one of its
    parents, a pseudocount that is not a finite number >= 0, a CPT row
    with non-finite or negative entries or a sum more than 1e-9 away from 1,
    or nesting too deep to parse."""
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("model file is nested too deeply") from None
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
    if not (_json_number(pseudocount) and 0 <= pseudocount <= sys.float_info.max):
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
    # utf-8-sig drops a byte-order mark, which the JSON parser refuses
    with open(path, encoding="utf-8-sig") as fh:
        return network_from_json(fh.read())
