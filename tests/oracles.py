"""Independent brute-force reference implementations used by the tests.

Everything here works on plain dicts and lists, enumerating full joint
spaces without any of the pruning or vectorization the library uses, so a
match is evidence rather than tautology.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np

# A raw net is three dicts keyed by variable name:
#   values_map: name -> list of value labels
#   parents_map: name -> list of parent names
#   cpt_map: name -> list of rows (row-major over parents), each row a list


def oracle_joint(values_map, parents_map, cpt_map, assignment):
    p = 1.0
    for name, values in values_map.items():
        row = 0
        for parent in parents_map[name]:
            row = row * len(values_map[parent]) + values_map[parent].index(
                assignment[parent]
            )
        p *= cpt_map[name][row][values.index(assignment[name])]
    return p


def oracle_marginal(values_map, parents_map, cpt_map, query, words):
    """Conditional over query cells given every word of `words` present, by
    full enumeration of every variable: an array with one axis per query
    variable, each in value order; all zero if the words are impossible."""
    names = list(values_map)
    totals = np.zeros([len(values_map[q]) for q in query])
    for combo in product(*(values_map[n] for n in names)):
        assignment = dict(zip(names, combo))
        if any(assignment[w] != "present" for w in words):
            continue
        key = tuple(values_map[q].index(assignment[q]) for q in query)
        totals[key] += oracle_joint(values_map, parents_map, cpt_map, assignment)
    z = totals.sum()
    return totals / z if z > 0 else totals


def oracle_family_score(records, target, target_values, parent_names, alpha):
    """Dirichlet-multinomial log marginal likelihood, the slow way."""
    groups: dict[tuple, list[int]] = {}
    for record in records:
        key = tuple(record[p] for p in parent_names)
        counts = groups.setdefault(key, [0] * len(target_values))
        counts[target_values.index(record[target])] += 1
    r = len(target_values)
    score = 0.0
    for counts in groups.values():
        n = sum(counts)
        score += math.lgamma(r * alpha) - math.lgamma(r * alpha + n)
        score += sum(math.lgamma(alpha + c) - math.lgamma(alpha) for c in counts)
    return score


def oracle_k2_parents(records, target, target_values, candidates, bound):
    """Greedy K2 at alpha = 1 for one target, in exact arithmetic.

    `candidates` lists the candidate names in tie-break order. A parent
    set's score is its exact marginal likelihood, the product over observed
    parent configurations with n records of (r-1)! * prod(c!) / (n+r-1)!
    over the counts c: the log-factorial sum, exponentiated and kept as a
    Fraction. Only strict improvements are taken, up to `bound` parents, and
    the earlier candidate wins a tie.

    Returns the parents in candidate order, and whether some comparison met
    an exact tie between parent sets whose counts and row totals differ as
    multisets. Summed in floating point, such scores need not come out
    equal, so which side wins there is not defined.
    """
    r = len(target_values)

    def score(parents):
        groups: dict[tuple, list[int]] = {}
        for record in records:
            counts = groups.setdefault(tuple(record[p] for p in parents), [0] * r)
            counts[target_values.index(record[target])] += 1
        value = Fraction(1)
        for counts in groups.values():
            numerator = math.factorial(r - 1) * math.prod(map(math.factorial, counts))
            value *= Fraction(numerator, math.factorial(sum(counts) + r - 1))
        rows = groups.values()
        return value, (sorted(c for counts in rows for c in counts), sorted(map(sum, rows)))

    ambiguous = False
    chosen: list[str] = []
    current = score(chosen)
    while len(chosen) < bound:
        best, best_score = None, current
        for name in candidates:
            if name not in chosen:
                s = score(chosen + [name])
                ambiguous |= s[0] == best_score[0] and s[1] != best_score[1]
                if s[0] > best_score[0]:
                    best, best_score = name, s
        if best is None:
            break
        chosen.append(best)
        current = best_score
    return tuple(name for name in candidates if name in chosen), ambiguous


def oracle_cell_mask(cells_field, domains):
    """Mask over the cell grid, one axis per domain in order, of the cells
    an instruction's cells field names: `IMPOSSIBLE`, or `;`-separated cell
    specs of comma-separated values with `*` for any value. Every spec is
    expanded into the full product of its options, one cell at a time."""
    mask = np.zeros([len(d) for d in domains], dtype=bool)
    if cells_field == "IMPOSSIBLE":
        return mask
    for chunk in cells_field.split(";"):
        options = [
            domain if value == "*" else [value]
            for value, domain in zip(chunk.split(","), domains)
        ]
        for cell in product(*options):
            mask[tuple(list(d).index(c) for d, c in zip(domains, cell))] = True
    return mask


def random_binary_net(rng: np.random.Generator, n_nodes: int):
    """Random DAG with random strictly positive CPTs, as raw dicts."""
    names = [f"V{i}" for i in range(n_nodes)]
    values_map = {n: ["f", "t"] for n in names}
    parents_map = {}
    for i, name in enumerate(names):
        pool = names[:i]
        chosen = [p for p in pool if rng.random() < 0.5]
        parents_map[name] = chosen
    cpt_map = {}
    for name in names:
        n_rows = 2 ** len(parents_map[name])
        rows = []
        for _ in range(n_rows):
            raw = rng.random(2) + 0.05
            rows.append(list(raw / raw.sum()))
        cpt_map[name] = rows
    return values_map, parents_map, cpt_map


def random_mixed_net(rng: np.random.Generator, n_nodes: int):
    """Random DAG of variables with 2 to 4 values, each parent list in
    shuffled order, plus one or two word leaves (values absent/present)
    with random non-word parents; random strictly positive CPTs, as raw
    dicts. Unlike `random_binary_net`, CPT axes here come out of
    declaration order and in unequal lengths."""
    names = [f"V{i}" for i in range(n_nodes)]
    values_map = {n: [f"v{j}" for j in range(rng.integers(2, 5))] for n in names}
    parents_map = {}
    for i, name in enumerate(names):
        chosen = [p for p in names[:i] if rng.random() < 0.5]
        parents_map[name] = [chosen[j] for j in rng.permutation(len(chosen))]
    for k in range(rng.integers(1, 3)):
        word = f"w{k}"
        values_map[word] = ["absent", "present"]
        chosen = [p for p in names if rng.random() < 0.6]
        parents_map[word] = [chosen[j] for j in rng.permutation(len(chosen))]
    cpt_map = {}
    for name, values in values_map.items():
        n_rows = math.prod(len(values_map[p]) for p in parents_map[name])
        rows = []
        for _ in range(n_rows):
            raw = rng.random(len(values)) + 0.05
            rows.append(list(raw / raw.sum()))
        cpt_map[name] = rows
    return values_map, parents_map, cpt_map


def with_one_hot_rows(rng: np.random.Generator, cpt_map, rate: float = 0.4):
    """Copy of `cpt_map` with each row, at the given rate, replaced by a
    random one-hot row, so the net has exact zeros and some evidence is
    impossible."""
    out = {}
    for name, rows in cpt_map.items():
        out[name] = []
        for row in rows:
            if rng.random() < rate:
                hot = rng.integers(len(row))
                row = [float(i == hot) for i in range(len(row))]
            out[name].append(row)
    return out


def to_network(values_map, parents_map, cpt_map):
    """Build the library's network object from a raw net. A variable with
    the word values is a word."""
    from wordground.network import WORD_VALUES, Network, Variable

    variables = [
        Variable(n, tuple(v), "word" if tuple(v) == WORD_VALUES else "feature")
        for n, v in values_map.items()
    ]
    cpts = {n: np.array(rows, dtype=float) for n, rows in cpt_map.items()}
    return Network(variables, parents_map, cpts, pseudocount=1.0)


# -- reference engine and query loops ----------------------------------------
#
# The one-bag-per-call engine that `network.StateTable` replaced, and the
# per-query loops that ran on it. The batched engine reorders no floating
# point operation, so the tests require bitwise-equal results.


class ReferenceStateTable:
    """Exact inference on a dense n-d table with one axis per non-word
    variable, one bag of words per call. Each CPT is reshaped, transposed
    and broadcast over the table's axes; a query copies the prior table,
    multiplies in each word's present column in sorted word order, and sums
    onto the cells."""

    def __init__(self, network):
        self.network = network
        self.names = list(network.affordance_names())
        self.shape = tuple(network.variable(n).cardinality for n in self.names)
        self.p_x = np.ones(self.shape)
        for name in self.names:
            self.p_x *= self._factor(network.cpts[name], network.parents[name] + (name,))

    def _factor(self, table, names):
        axes = [self.names.index(n) for n in names]
        table = table.reshape([self.shape[a] for a in axes]).transpose(np.argsort(axes))
        return table.reshape([n if a in axes else 1 for a, n in enumerate(self.shape)])

    def joint(self, words, cells):
        mass = self.p_x.copy()
        for name in sorted(set(words)):
            i = self.network.variable(name).index_of("present")
            mass *= self._factor(self.network.cpts[name][:, i], self.network.parents[name])
        keep = [self.names.index(c) for c in cells]
        table = mass.sum(axis=tuple(i for i in range(len(self.names)) if i not in keep))
        kept_sorted = sorted(keep)
        return table.transpose([kept_sorted.index(a) for a in keep])

    def posterior(self, words, cells):
        table = self.joint(words, cells)
        total = table.sum()
        return table / total if total > 0 else table


def reference_evaluate(network, instructions):
    """(soft, hard, detection rate) of `evaluate_instructions`, one
    posterior and one argmax per instruction; an all-zero posterior earns
    no hard credit."""
    from wordground.inference import default_cells, known_words

    table = ReferenceStateTable(network)
    cells = default_cells(network)
    softs, hards, detected, n_impossible = [], [], 0, 0
    for ins in instructions:
        post = table.posterior(known_words(network, ins.bag), cells)
        if ins.impossible:
            n_impossible += 1
            detected += float(post.sum()) == 0.0
            continue
        softs.append(float(post[ins.compatible].sum()))
        hit = post.any() and ins.compatible.flat[int(np.argmax(post))]
        hards.append(1.0 if hit else 0.0)
    rate = detected / n_impossible if n_impossible else None
    return float(np.mean(softs)), float(np.mean(hards)), rate


def reference_pair_scores(network, scene, bag):
    """p(bag | action, object) of every (action, object) pair, action-major
    then in scene order, from one joint of the bag over the prior's."""
    from wordground.inference import default_cells, known_words

    table = ReferenceStateTable(network)
    cells = default_cells(network)
    cell_vars = [network.variable(c) for c in cells]
    action = next(v for v in cell_vars if v.kind == "action")
    prior = table.joint([], cells)
    joint = table.joint(known_words(network, bag), cells)
    scores = []
    for value in action.values:
        for obj in scene:
            bound = {**obj.features, action.name: value}
            idx = tuple(v.index_of(bound[v.name]) for v in cell_vars)
            scores.append(float(joint[idx] / prior[idx]) if prior[idx] > 0 else 0.0)
    return scores


def reference_select(network, bag, scene):
    """(entries, impossible) of `select_action_object`: the pair scores
    normalised, best first, ties in pair order."""
    action = next(v for v in network.variables if v.kind == "action")
    pairs = [(value, obj.id) for value in action.values for obj in scene]
    scores = reference_pair_scores(network, scene, bag)
    total = sum(scores)
    if total > 0:
        scores = [s / total for s in scores]
    entries = sorted(
        [(a, o, s) for (a, o), s in zip(pairs, scores)], key=lambda e: -e[2]
    )
    return tuple(entries), total == 0.0


def reference_rescore(network, nbest, scene, aggregate):
    """(tokens, final score) of `rescore_nbest`, best first, one scene
    scoring per hypothesis, the final score summed over a per-object dict."""
    from wordground.grounding import bag_of_words

    results = []
    for tokens, acoustic in nbest.hypotheses:
        scores = reference_pair_scores(network, scene, bag_of_words(tokens))
        per_object = {}
        for j, obj in enumerate(scene):
            by_action = scores[j :: len(scene)]
            per_object[obj.id] = max(by_action) if aggregate == "max" else sum(by_action)
        results.append((tuple(tokens), acoustic * sum(per_object.values())))
    results.sort(key=lambda r: -r[1])
    return results
