"""Using the learned network: instruction following, impossibility
detection, and N-best rescoring.

All three queries run on the network's one exact-inference engine,
`StateTable`, which each network builds once and keeps
(`Network.state_table`). A query is a bag of heard words. The engine
weighs every configuration of the non-word variables by the state model
and by the presence probability of each known word of the bag. It then
sums the weights onto the action and object cells. Effects are part of the
table and are summed out, so words whose parents include effect variables
need no special case. A scene is checked and prepared once per network
(`_plan_scene`), so a query on the scene of the last one pays only for its
words. The plan also keeps, for each known-word bag, its pair scores and
its finished answer: a ranking, or a rescoring context per aggregate. So a
recurring request is one lookup. It keeps at most 128 bags (`_KEPT_BAGS`),
which a stream that repeats itself does not reach, in under 0.5 MB. All
are dropped with the plan.

Impossibility is a result state, not an error: a query whose every
configuration has probability zero returns an all-zero result. A request
with words but none the model knows is an error: it would score 1 anywhere.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .grounding import VALUES, BagOfWords, bag_of_words, nonblank_lines
# StateTable is named here too, as the engine of these queries: the
# benchmark's tracer counts its builds through `inference.StateTable`.
from .network import FILE_FIELDS, CellSelection, Network, StateTable  # noqa: F401

logger = logging.getLogger(__name__)

# The most known-word bags whose pair scores and answers a scene plan
# keeps; one more clears them all. A request stream that repeats itself asks
# far fewer: the benchmark's `repeated` workload asks about 90. On the
# shipped scene a kept bag's scores, ranking and two contexts take about
# 3 KB, so a full plan holds under 0.4 MB.
_KEPT_BAGS = 128

# Preferred cell-tuple order for the default domain; matches the
# `action,color,size,shape` order used by the scene and instruction files.
CANONICAL_CELL_ORDER = FILE_FIELDS[0] + FILE_FIELDS[1]


def default_cells(network: Network) -> tuple[str, ...]:
    """Action and feature variables of the network, in file order when the
    network uses the default domain."""
    present = [
        v.name for v in network.variables if v.kind in ("action", "feature")
    ]
    ordered = [n for n in CANONICAL_CELL_ORDER if n in present]
    ordered.extend(n for n in present if n not in ordered)
    return tuple(ordered)


@dataclass(frozen=True)
class SceneObject:
    """An object in the robot's field of view, named by its feature values."""

    id: str
    features: dict[str, str]


@dataclass(frozen=True)
class NBestList:
    """Recognizer output: hypotheses with words and positive acoustic
    probabilities."""

    hypotheses: tuple[tuple[tuple[str, ...], float], ...]
    # each hypothesis's bag of words, made once here where it is checked
    bags: tuple[BagOfWords, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.hypotheses:
            raise ValueError("N-best list must be nonempty")
        bags = []
        for tokens, p in self.hypotheses:
            # a string would be scored by its words but reported by its letters
            if isinstance(tokens, str):
                raise ValueError(
                    f"N-best hypothesis {tokens!r} is a string: give its tokens,"
                    " as bag_of_words splits them"
                )
            if not 0 < p < np.inf:
                raise ValueError(f"acoustic probability must be finite and positive, got {p}")
            # an empty bag scores 1 for every pair, so it would outrank
            # every hypothesis with words
            bags.append(bag_of_words(tokens))
            if not bags[-1]:
                raise ValueError(f"N-best hypothesis {tokens!r} has no words")
        object.__setattr__(self, "bags", tuple(bags))


class UnknownWordsError(ValueError):
    """A request or hypothesis with words, none of them known to the model."""


@dataclass(frozen=True)
class ActionObjectRanking:
    """Full (action, object) posterior grid, best first."""

    entries: tuple[tuple[str, str, float], ...]
    impossible: bool

    @property
    def best(self) -> tuple[str, str, float]:
        return self.entries[0]


def known_words(network: Network, bag: Iterable[str]) -> list[str]:
    """The bag's known words, sorted: the engine input of a bag. Unknown
    words are skipped with one warning, since instructions may contain
    words outside the training vocabulary."""
    return sorted(_known_set(network, frozenset(bag)))


def _known_set(network: Network, words: frozenset[str]) -> frozenset[str]:
    """The known words of a bag's words, logging its unknown ones, if any,
    with one warning."""
    known = network.word_set.intersection(words)
    if len(known) < len(words):
        logger.warning("skipping unknown words: %s", ", ".join(sorted(words - known)))
    return known


class _ScenePlan(NamedTuple):
    """A scene prepared for queries on one network (`_plan_scene`), and the
    answers its queries found, by known-word bag. The three dicts are
    cleared together (`_forget_past_bound`)."""

    # the action and the object id of each pair, as two columns,
    # action-major in action value order then scene order
    pairs: tuple[tuple[str, ...], tuple[str, ...]]
    # the (action, object) cell of each pair, with its prior
    selection: CellSelection
    # p(bag | action, object) of each pair, a read-only row
    scores: dict[frozenset[str], np.ndarray]
    # the answer of `select_action_object`
    rankings: dict[frozenset[str], ActionObjectRanking]
    # the per-object context sum of `rescore_nbest`, by (bag, aggregate)
    contexts: dict[tuple[frozenset[str], str], float]
    # each pair's prior, with 0 as infinity: a pair of prior 0 has a joint
    # of exactly 0, which divides to 0 with no warning
    divisor: np.ndarray


def _plan_scene(network: Network, scene: Sequence[SceneObject]) -> _ScenePlan:
    """Check the scene and prepare it for queries on the network.

    The plan holds the scene's (action, object id) pairs and the selection
    of each pair's (action, object) cell, the sum of its effect states.
    Pairs that share a cell are scored once (`StateTable.cells_at`). Its
    answers start empty."""
    if not scene:
        raise ValueError("scene must contain at least one object")
    ids = [obj.id for obj in scene]
    for i, obj_id in enumerate(ids):
        if obj_id in ids[:i]:
            raise ValueError(f"duplicate scene object id {obj_id!r}")
    cells = default_cells(network)
    cell_vars = [network.variable(c) for c in cells]
    action_var = next((v for v in cell_vars if v.kind == "action"), None)
    if action_var is None:
        raise ValueError("the model has no action variable")
    for obj in scene:
        for v in cell_vars:
            if v is not action_var and v.name not in obj.features:
                raise ValueError(f"scene object {obj.id!r} does not bind {v.name!r}")
    # each pair's value index of each cell, pairs action-major then scene order
    index = [
        [a if v is action_var else v.index_of(obj.features[v.name]) for v in cell_vars]
        for a in range(action_var.cardinality)
        for obj in scene
    ]
    actions = tuple(action for action in action_var.values for _ in ids)
    cards = [v.cardinality for v in cell_vars]
    flat = np.ravel_multi_index(np.transpose(index), cards).tolist()
    selection = network.state_table.cells_at(cells, flat)
    divisor = np.where(selection.prior > 0, selection.prior, np.inf)
    return _ScenePlan((actions, tuple(ids) * action_var.cardinality), selection, {}, {}, {}, divisor)


def _scene_scorer(
    network: Network, scene: Sequence[SceneObject], bags: Sequence[Iterable[str]]
) -> tuple[_ScenePlan, list[frozenset[str]]]:
    """The scene's plan on the network, and the key of each bag: the set
    of its known words.

    The plan is prepared once per network (`StateTable.plan`), keyed by
    each object's id and features. So a changed scene gets a new plan, and
    an invalid scene raises on every call. A plan keeps each bag's pair
    scores and finished answers, for at most `_KEPT_BAGS` (128) bags. They
    are cleared when more, and dropped with the plan.

    A bag that is a string, not words, raises `ValueError`; a bag with
    words but no known word raises `UnknownWordsError`. A refused call
    logs and keeps nothing. Otherwise each bag's unknown words are logged,
    on a bag with a kept answer too.
    """
    key = tuple([(obj.id, tuple(obj.features.items())) for obj in scene])
    plan = network.state_table.plan(key, lambda: _plan_scene(network, scene))
    for bag in bags:
        if isinstance(bag, str):
            raise ValueError(f"bag {bag!r} is a string, not words: pass bag_of_words({bag!r})")
    words = [frozenset(bag) for bag in bags]
    for w in words:
        if w and network.word_set.isdisjoint(w):
            raise UnknownWordsError(f"the model knows none of the words: {', '.join(sorted(w))}")
    return plan, [_known_set(network, w) for w in words]


def _pair_scores(plan: _ScenePlan, keys: Sequence[frozenset[str]]) -> list[np.ndarray]:
    """p(bag | action, object) of every pair for each of the distinct
    keys, with the effects summed out under the state model: one read-only
    row per key.

    The keys the plan has not scored yet are multiplied in one batch. A row
    of the product does not depend on the other rows, so a kept row equals
    a new one."""
    kept = plan.scores
    new = [k for k in keys if k not in kept]
    if new:
        scores = np.divide(plan.selection.joint(new), plan.divisor)
        scores.flags.writeable = False
        kept.update(zip(new, scores))
    return [kept[k] for k in keys]


def _forget_past_bound(plan: _ScenePlan) -> None:
    """Clear the plan's kept scores and answers once it has scored more
    than `_KEPT_BAGS` bags. A call's answers are read before this runs. An
    answer is kept only for a bag whose scores are kept, so there are at
    most as many rankings, and twice as many contexts."""
    if len(plan.scores) > _KEPT_BAGS:
        plan.scores.clear()
        plan.rankings.clear()
        plan.contexts.clear()


def select_action_object(
    network: Network,
    bag: Iterable[str],
    scene: Sequence[SceneObject],
) -> ActionObjectRanking:
    """Best (action, object) pair for an instruction, with the full grid.

    Scores every pair by the probability of the words given the action and
    the object's features (effects summed out under the state model), under
    a non-informative prior over the grid. Ties break deterministically by
    action order then object order.

    The scene's plan keeps the ranking of each known-word bag, for at most
    `_KEPT_BAGS` (128) bags, so a recurring request is one lookup. The
    ranking is immutable, so every request of the bag gets the same one.
    """
    plan, (key,) = _scene_scorer(network, scene, [bag])
    ranking = plan.rankings.get(key)
    if ranking is None:
        (row,) = _pair_scores(plan, [key])
        row = row.tolist()
        total = sum(row)
        if total > 0:
            row = [s / total for s in row]
        # A stable sort keeps equal scores in pair order, reversed or not.
        entries = sorted(zip(*plan.pairs, row), key=itemgetter(2), reverse=True)
        ranking = plan.rankings[key] = ActionObjectRanking(entries=tuple(entries), impossible=total == 0.0)
        _forget_past_bound(plan)
    return ranking


@dataclass(frozen=True)
class RescoredHypothesis:
    tokens: tuple[str, ...]
    acoustic_probability: float
    final_score: float


def rescore_nbest(
    network: Network,
    nbest: NBestList,
    scene: Sequence[SceneObject],
    action_aggregate: str = "max",
) -> list[RescoredHypothesis]:
    """Re-rank recognizer hypotheses by context.

    Each hypothesis scores, per scene object, the probability of its words
    given the object (effects summed out, actions aggregated by `max` by
    default, or `sum`). The final score is the acoustic probability times
    the sum of the per-object scores, objects in scene order. Sorted best
    first; uniform scaling of the acoustic probabilities cannot change the
    order.

    The scene's plan keeps each known-word bag's sum of per-object scores
    under each aggregate, for at most `_KEPT_BAGS` (128) bags. A recurring
    hypothesis is then one lookup. The bags new to the plan are multiplied
    in one batch, and a bag repeated in the list only once.
    """
    if action_aggregate not in ("max", "sum"):
        raise ValueError("action_aggregate must be 'max' or 'sum'")
    aggregate = max if action_aggregate == "max" else sum
    plan, keys = _scene_scorer(network, scene, nbest.bags)
    # each hypothesis's context, kept under its bag and the aggregate
    slots = [(k, action_aggregate) for k in keys]
    contexts = plan.contexts
    new = [slot for slot in slots if slot not in contexts]
    if new:
        if len(new) > 1:
            new = list(dict.fromkeys(new))
        n = len(scene)
        for slot, row in zip(new, _pair_scores(plan, [k for k, _ in new])):
            row = row.tolist()
            # the pairs are action-major, so row[j::n] are object j's actions
            contexts[slot] = sum(aggregate(row[j::n]) for j in range(n))
    results = [
        RescoredHypothesis(
            tokens=tuple(tokens),
            acoustic_probability=acoustic,
            final_score=acoustic * contexts[slot],
        )
        for (tokens, acoustic), slot in zip(nbest.hypotheses, slots)
    ]
    _forget_past_bound(plan)
    results.sort(key=lambda r: -r.final_score)
    return results


# -- scene and N-best files ---------------------------------------------------

_SCENE_FIELDS = FILE_FIELDS[1]


def parse_scene_line(line: str, lineno: int) -> SceneObject:
    where = f" at line {lineno}"
    parts = line.strip().split("|")
    if len(parts) != 2:
        raise ValueError(f"malformed scene record{where}: expected 'id|color,size,shape'")
    if not parts[0].strip():
        raise ValueError(f"malformed scene record{where}: empty object id")
    values = parts[1].split(",")
    if len(values) != len(_SCENE_FIELDS):
        raise ValueError(
            f"malformed scene record{where}: expected {len(_SCENE_FIELDS)} feature values"
        )
    for name, value in zip(_SCENE_FIELDS, values):
        if value not in VALUES[name]:
            raise ValueError(f"malformed scene record{where}: {value!r} is not a {name} value")
    return SceneObject(id=parts[0], features=dict(zip(_SCENE_FIELDS, values)))


def load_scene(path) -> list[SceneObject]:
    scene: list[SceneObject] = []
    for lineno, line in nonblank_lines(path):
        obj = parse_scene_line(line, lineno)
        if any(seen.id == obj.id for seen in scene):
            raise ValueError(
                f"malformed scene record at line {lineno}: duplicate object id {obj.id!r}"
            )
        scene.append(obj)
    return scene


def parse_nbest_line(line: str, lineno: int) -> tuple[tuple[str, ...], float]:
    where = f" at line {lineno}"
    parts = line.strip().split("|")
    if len(parts) != 2:
        raise ValueError(f"malformed N-best record{where}: expected 'probability|tokens'")
    try:
        p = float(parts[0])
    except ValueError:
        p = np.nan
    if not 0 < p < np.inf:
        raise ValueError(
            f"malformed N-best record{where}: "
            f"acoustic probability must be finite and positive, got {parts[0]!r}"
        )
    tokens = tuple(parts[1].split())
    if not bag_of_words(tokens):
        raise ValueError(f"malformed N-best record{where}: no words")
    return tokens, p


def load_nbest(path) -> NBestList:
    lines = nonblank_lines(path)
    return NBestList(hypotheses=tuple(parse_nbest_line(line, n) for n, line in lines))

