"""Generational multi-gene GP engine.

Individuals hold 1..G_MAX gene trees combined by a least-squares top-level
model.  Variation follows the classic recipe: tournament selection,
elitism, whole-gene (high-level) and subtree (low-level) crossover, and
subtree / constant / LCF-weights mutations, with event probabilities drawn
per offspring slot.  LCF weight handling depends on the operation mode:

* ``baseline`` - no LCF leaves at all;
* ``U`` - every LCF leaf owns its weights;
* ``S`` - all same-index leaves within an individual share one weight set
  (conflicts after structural operators are repaired by evaluating the
  competing sets and their mean);
* ``G`` - one population-wide weight set per feature index.

Tuning (``M`` mutation, ``B`` gradient, ``C`` both) decides whether the
weights-mutation operator is active and whether individuals are gradient
tuned each generation.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import fitness as _fitness
from .backprop import GlobalWeightTable, global_tune, tune
from .errors import DataError, DegenerateDataError
from .exprtree import (
    Gene,
    Lcf,
    LcfWeights,
    TerminalConfig,
    format_tree,
    pick_node,
    random_tree,
    Const,
)

# The paper's fixed MGGP settings, shared by every run.
G_MAX = 10  # genes per individual
PR_X = 0.84  # crossover event
PR_M = 0.14  # mutation event; reproduction otherwise
PR_HLX = 0.2  # a crossover swaps whole genes; subtrees otherwise
R_HLX = 0.5  # each gene's chance to move in a high-level crossover
PR_CM = 0.05  # a mutation offsets a constant
VAR_CM = 0.1  # variance of that offset
PR_WM = 0.05  # a mutation offsets LCF weights, with tuning M or C
VAR_WM = 3.0  # variance of that offset

# The paper's nine configurations: codename -> (mode, tuning).
CONFIGS = {"baseline": ("baseline", "none"),
           "UM": ("U", "M"), "UB": ("U", "B"), "UC": ("U", "C"),
           "SM": ("S", "M"), "SB": ("S", "B"), "SC": ("S", "C"),
           "GB": ("G", "B"), "GC": ("G", "C")}


@dataclass(frozen=True)
class ModeConfig:
    """Operation mode (how LCF weights are shared) plus tuning method."""

    mode: str = "baseline"  # baseline | U | S | G
    tuning: str = "none"  # none | M | B | C

    def __post_init__(self) -> None:
        if (self.mode, self.tuning) not in CONFIGS.values():
            raise ValueError(f"no configuration has mode {self.mode!r} and tuning {self.tuning!r}")

    @property
    def uses_lcf(self) -> bool:
        return self.mode != "baseline"

    @property
    def uses_backprop(self) -> bool:
        return self.tuning in ("B", "C")

    @property
    def uses_weights_mutation(self) -> bool:
        return self.tuning in ("M", "C")

    @property
    def codename(self) -> str:
        return "baseline" if self.mode == "baseline" else self.mode + self.tuning

    @classmethod
    def from_codename(cls, name: str) -> "ModeConfig":
        label = name.strip()
        label = "baseline" if label.lower() in ("baseline", "--") else label.upper()
        if label not in CONFIGS:
            raise ValueError(f"unknown codename {name!r}; expected one of {', '.join(CONFIGS)}")
        return cls(*CONFIGS[label])


@dataclass(frozen=True)
class EngineConfig:
    """The engine parameters that callers vary, at their standard-run values;
    :meth:`for_mode` applies the reduced population/tournament/elite sizes
    that gradient-tuned configurations run with."""

    d_max: int = 11
    pop_size: int = 100
    tournament: int = 10
    elite: int = 15
    init_depth_min: int = 2
    init_depth_max: int = 6

    def __post_init__(self) -> None:
        if not 0 < self.elite < self.pop_size:
            raise ValueError("need 0 < elite < pop_size")
        if self.d_max < 0 or self.tournament < 1:
            raise ValueError("d_max and tournament must be positive")
        if not 0 <= self.init_depth_min <= self.init_depth_max <= self.d_max:
            raise ValueError("need 0 <= init_depth_min <= init_depth_max <= d_max")

    @classmethod
    def for_mode(cls, mode: ModeConfig, **overrides) -> "EngineConfig":
        values = dict(pop_size=50, tournament=5, elite=8) if mode.uses_backprop else {}
        values.update(overrides)
        return cls(**values)


class Individual:
    """A set of gene trees plus cached top-level model and fitness.

    The fit is cached under the G-mode table epoch it was made at; an
    in-place change of the individual's weights must be announced with
    :meth:`weights_changed`.
    """

    __slots__ = ("genes", "dim", "model", "fitness", "_fit_key", "_rank")

    def __init__(self, genes, dim: int) -> None:
        self.genes: list[Gene] = list(genes)
        self.dim = dim
        self.model = None
        self.fitness = None  # training R^2, -inf when the fit is invalid
        self._fit_key = None
        self._rank = None  # ordering key, stored with the fit

    def total_nodes(self) -> int:
        return sum(g.node_count for g in self.genes)

    def has_lcf(self) -> bool:
        return any(g.has_lcf for g in self.genes)

    def lcf_nodes(self) -> list[Lcf]:
        """LCF leaves of all genes, gene by gene, each in pre-order."""
        return [node for gene in self.genes for node in gene.lcf_leaves()]

    def weight_sets(self) -> list[LcfWeights]:
        """Distinct weight objects in first-encounter (pre-order) order."""
        return list(dict.fromkeys(node.weights for node in self.lcf_nodes()))

    def gene_outputs(self, data, epoch: int = 0) -> list[np.ndarray]:
        return [g.output(data.X, epoch) for g in self.genes]

    def current_fit(self, epoch: int):
        """The cached ``(model, fitness)`` if it was made at ``epoch``, else
        None."""
        return (self.model, self.fitness) if self._fit_key == epoch else None

    def weights_changed(self, genes=None) -> None:
        """Drop the cached fit and the cached outputs of ``genes``, the ones
        whose weights changed (by default every LCF gene).

        In U and S mode every clone copies its LCF genes, so they belong to
        this individual alone; in G mode the weights change only together
        with the table epoch, which the caches key on anyway.
        """
        for gene in self.genes if genes is None else genes:
            if gene.has_lcf:
                gene.forget()
        self._fit_key = None

    def __repr__(self) -> str:
        return f"Individual({len(self.genes)} genes, {self.total_nodes()} nodes)"


def draw_event(rng) -> str:
    """One offspring-slot event: crossover, mutation or reproduction."""
    r = rng.random()
    if r < PR_X:
        return "crossover"
    if r < PR_X + PR_M:
        return "mutation"
    return "reproduction"


def draw_mutation_kind(rng, pr_wm: float) -> str:
    r = rng.random()
    if r < pr_wm:
        return "weights"
    if r < pr_wm + PR_CM:
        return "constant"
    return "subtree"


def draw_crossover_kind(rng) -> str:
    return "high" if rng.random() < PR_HLX else "low"


class Engine:
    """Bundles configuration, mode, training data and the random stream.

    One engine drives one run; everything it does is sequential and fully
    determined by the generator's seed.
    """

    def __init__(self, cfg: EngineConfig, mode: ModeConfig, train, rng) -> None:
        self.cfg = cfg
        self.mode = mode
        self.train = train
        self.rng = rng
        self.pr_wm = PR_WM if mode.uses_weights_mutation else 0.0
        self.table = GlobalWeightTable(train.dim) if mode.mode == "G" else None
        self.evaluations = 0
        lcf_factory = self.table.lookup if self.table is not None else None
        self.terminals = TerminalConfig(train.dim, mode.uses_lcf, lcf_factory)

    # -- evaluation ---------------------------------------------------

    @property
    def epoch(self) -> int:
        return self.table.epoch if self.table is not None else 0

    def evaluate(self, ind: Individual) -> float:
        epoch = self.epoch
        if ind._fit_key == epoch:
            return ind.fitness
        return self.adopt_fit(ind, *_fitness.fit_linear(ind, self.train, epoch))

    def adopt_fit(self, ind: Individual, model, r2: float) -> float:
        """Cache ``(model, r2)``, the fit of ``ind``'s current weights on the
        training set, at the current epoch.  Every fit an individual is
        given counts once in ``evaluations``, whether :meth:`evaluate` made
        it or tuning or repair hands it over."""
        ind.model, ind.fitness = model, r2
        ind._rank = (r2, -ind.total_nodes())
        ind._fit_key = self.epoch
        self.evaluations += 1
        return r2

    def fitness_key(self, ind: Individual) -> tuple:
        """Orders individuals: higher R^2 (invalid ones, at -inf, last),
        then fewer total nodes."""
        self.evaluate(ind)
        return ind._rank

    # -- structure handling -------------------------------------------

    def clone_individual(self, ind: Individual, detach: bool = False,
                         fresh: bool = False) -> Individual:
        """Copy an individual; the one place that decides who owns the
        copy's LCF weights.

        In G mode genes keep referencing the global table unless ``detach``
        forces private copies (used for best-so-far snapshots).  Otherwise
        every LCF gene is copied: in U mode each leaf gets a set of its own,
        in S mode (and a detached G copy) each old set becomes one new set,
        so index groups stay shared.  The copies keep the iRprop state, or
        start without it when ``fresh``.  Genes without LCF leaves are
        immutable and stay shared.
        """
        if (self.mode.mode == "G" and not detach) or not ind.has_lcf():
            return Individual(list(ind.genes), ind.dim)
        copy_weights = (lambda w: LcfWeights(w.a, w.b)) if fresh else LcfWeights.copy
        if self.mode.mode != "U":
            copy_weights = functools.cache(copy_weights)  # sets hash by identity
        genes = [g.replace({s: Lcf(n.index, copy_weights(n.weights)) for s, n in enumerate(g.nodes)
                            if isinstance(n, Lcf)}) if g.has_lcf else g for g in ind.genes]
        return Individual(genes, ind.dim)

    # -- selection -----------------------------------------------------

    def tournament_select(self, pop: list[Individual]) -> Individual:
        """Sample ``tournament`` individuals with replacement; best by
        fitness key, remaining ties split uniformly.  A candidate with a
        current fit is ranked by its stored key; only a stale one (changed
        weights, or a G-mode epoch bump) is fitted first."""
        draws = self.rng.integers(0, len(pop), size=self.cfg.tournament)
        epoch = self.epoch
        best_key = None
        best: list[Individual] = []
        for i in draws:
            candidate = pop[int(i)]
            if candidate._fit_key != epoch:
                self.evaluate(candidate)
            key = candidate._rank
            if best_key is None or key > best_key:
                best_key = key
                best = [candidate]
            elif key == best_key:
                best.append(candidate)
        if len(best) == 1:
            return best[0]
        return best[int(self.rng.integers(len(best)))]

    # -- variation operators -------------------------------------------

    def high_level_xover(self, p1: Individual, p2: Individual) -> tuple[Individual, Individual]:
        """Swap whole genes: each gene is selected with probability
        ``R_HLX`` and moves to the other offspring; incoming genes that
        would exceed ``G_MAX`` are discarded in random order, and an
        emptied offspring retains one uniformly chosen gene of its
        originating parent."""
        sel1 = self.rng.random(len(p1.genes)) < R_HLX
        sel2 = self.rng.random(len(p2.genes)) < R_HLX
        own1 = [g for g, s in zip(p1.genes, sel1) if not s]
        move1 = [g for g, s in zip(p1.genes, sel1) if s]
        own2 = [g for g, s in zip(p2.genes, sel2) if not s]
        move2 = [g for g, s in zip(p2.genes, sel2) if s]
        o1 = self._assemble_offspring(own1, move2, p1)
        o2 = self._assemble_offspring(own2, move1, p2)
        return o1, o2

    def _assemble_offspring(self, own: list[Gene], incoming: list[Gene],
                            origin: Individual) -> Individual:
        room = G_MAX - len(own)
        if len(incoming) > room:
            order = self.rng.permutation(len(incoming))
            incoming = [incoming[int(i)] for i in sorted(order[:room])]
        genes = own + incoming
        if not genes:
            genes = [origin.genes[int(self.rng.integers(len(origin.genes)))]]
        return self.clone_individual(Individual(genes, origin.dim), fresh=True)

    def low_level_xover(self, p1: Individual, p2: Individual) -> tuple[Individual, Individual]:
        """Koza subtree swap between one uniformly chosen gene of each
        parent; an offspring whose new gene would break the depth limit
        reverts to its parent."""
        i1 = int(self.rng.integers(len(p1.genes)))
        i2 = int(self.rng.integers(len(p2.genes)))
        g1, g2 = p1.genes[i1], p2.genes[i2]
        slot1, _ = pick_node(self.rng, g1)
        slot2, _ = pick_node(self.rng, g2)
        o1 = self._graft(p1, i1, slot1, g2.nodes[slot2])
        o2 = self._graft(p2, i2, slot2, g1.nodes[slot1])
        return o1, o2

    def _graft(self, parent: Individual, gi: int, slot: int, sub) -> Individual:
        """A fresh copy of ``parent`` whose gene ``gi`` holds ``sub`` at tape
        slot ``slot``, or of ``parent`` unchanged when the new gene would
        break the depth limit."""
        genes = list(parent.genes)
        gene = genes[gi].replace({slot: sub})
        if gene.depth <= self.cfg.d_max:
            genes[gi] = gene
        return self.clone_individual(Individual(genes, parent.dim), fresh=True)

    def subtree_mutation(self, ind: Individual) -> Individual:
        """Replace a uniformly chosen node of a uniformly chosen gene by a
        grown random tree that keeps the gene within the depth limit."""
        gi = int(self.rng.integers(len(ind.genes)))
        slot, level = pick_node(self.rng, ind.genes[gi])
        sub = random_tree(self.rng, self.cfg.d_max - level, "grow", self.terminals)
        return self._graft(ind, gi, slot, sub)

    def constant_mutation(self, ind: Individual) -> Individual:
        """Offset one uniformly chosen constant leaf by a draw from
        N(0, VAR_CM); falls back to subtree mutation when the individual
        has no constant leaves."""
        spots = [(gi, slot) for gi, gene in enumerate(ind.genes)
                 for slot, node in enumerate(gene.nodes) if isinstance(node, Const)]
        if not spots:
            return self.subtree_mutation(ind)
        gi, slot = spots[int(self.rng.integers(len(spots)))]
        delta = self.rng.normal(0.0, math.sqrt(VAR_CM))
        genes = list(ind.genes)
        value = genes[gi].nodes[slot].value
        genes[gi] = genes[gi].replace({slot: Const(value + delta)})
        return self.clone_individual(Individual(genes, ind.dim))

    def weights_mutation(self, ind: Individual) -> Individual:
        """Offset every weight of one LCF node (U mode) or one whole index
        group (S and G modes) by i.i.d. draws from N(0, VAR_WM).  In G mode
        the offset lands on the shared global set and is therefore seen by
        the entire population.  No-op without LCF leaves."""
        if not self.mode.uses_lcf:
            raise ValueError("weights mutation needs an LCF-enabled mode")
        o = self.clone_individual(ind)
        lcfs = o.lcf_nodes()
        if not lcfs:
            return o
        if self.mode.mode == "U":
            targets = [lcfs[int(self.rng.integers(len(lcfs)))].weights]
        else:  # in G mode the group's one set is the table's
            indices = sorted({n.index for n in lcfs})
            index = indices[int(self.rng.integers(len(indices)))]
            targets = dict.fromkeys(n.weights for n in lcfs if n.index == index)
        offset = self.rng.normal(0.0, math.sqrt(VAR_WM), size=1 + o.dim)
        for w in targets:
            w.a += offset[0]
            w.b += offset[1:]
        if self.mode.mode == "G":
            self.table.bump()
        o.weights_changed()
        return o

    # -- synchronised-mode repair ---------------------------------------

    def sync_repair(self, ind: Individual) -> Individual:
        """Restore the S-mode invariant that all same-index LCF leaves of an
        individual share identical weights.

        For every index carrying more than one distinct weight-value set
        (after crossover or mutation), the individual's training fitness is
        evaluated under each candidate set and under their element-wise
        mean; the best one is adopted for the whole group, and so is the fit
        it was scored by.  If no candidate is valid the mean is adopted.
        Afterwards each group references a single shared weight object.
        Rebinding a group, or trying a candidate, voids the cached outputs
        of the genes that hold a leaf of it, and no others.
        """
        if self.mode.mode != "S":
            return ind
        groups: dict[int, list[Lcf]] = {}
        holders: dict[int, dict[Gene, None]] = {}  # the genes that hold each index
        for gene in ind.genes:
            for node in gene.lcf_leaves():
                groups.setdefault(node.index, []).append(node)
                holders.setdefault(node.index, {})[gene] = None
        for index in sorted(groups):
            nodes, touched = groups[index], holders[index]
            distinct: list[LcfWeights] = []
            for n in nodes:
                if not any(n.weights.values_equal(w) for w in distinct):
                    distinct.append(n.weights)
            if len(distinct) == 1 and all(n.weights is nodes[0].weights for n in nodes):
                continue
            shared = LcfWeights(*distinct[0].values())  # starts without iRprop state
            for n in nodes:
                n.weights = shared
            if len(distinct) == 1:
                ind.weights_changed(touched)
                continue
            candidates = [w.values() for w in distinct]
            mean_a = sum(a for a, _ in candidates) / len(candidates)
            mean_b = sum(b for _, b in candidates) / len(candidates)
            candidates.append((mean_a, mean_b))
            best, best_fit = candidates[-1], (None, -math.inf)  # all invalid: the mean's
            for a, b in candidates:
                shared.set_values(a, b)
                ind.weights_changed(touched)
                r2 = self.evaluate(ind)
                if r2 > best_fit[1]:
                    best, best_fit = (a, b), (ind.model, r2)
            shared.set_values(*best)
            ind.weights_changed(touched)
            self.adopt_fit(ind, *best_fit)
        return ind

    # -- population level ------------------------------------------------

    def init_population(self) -> list[Individual]:
        """Ramped half-and-half initialisation: per gene, a uniform depth
        in [init_depth_min, init_depth_max] and a fair grow/full choice;
        gene counts uniform in 1..G_MAX.  Fresh LCF leaves start as the
        identity transform of their own index."""
        pop = []
        for _ in range(self.cfg.pop_size):
            n_genes = int(self.rng.integers(1, G_MAX + 1))
            genes = []
            for _ in range(n_genes):
                tree_depth = int(
                    self.rng.integers(self.cfg.init_depth_min, self.cfg.init_depth_max + 1)
                )
                method = "grow" if self.rng.random() < 0.5 else "full"
                genes.append(Gene(random_tree(self.rng, tree_depth, method, self.terminals)))
            ind = Individual(genes, self.train.dim)
            self.sync_repair(ind)
            pop.append(ind)
        return pop

    def step_generation(self, pop: list[Individual]) -> list[Individual]:
        """Produce the next population: the top ``elite`` individuals are
        carried over untouched, the remaining slots are filled by stochastic
        crossover / mutation / reproduction events on tournament parents.
        Synchronised offspring pass through repair; gradient-tuned modes
        tune every non-elite offspring, and the globally synchronised mode
        updates the shared table once after the population is formed."""
        cfg = self.cfg
        ranked = sorted(pop, key=self.fitness_key, reverse=True)
        elites = ranked[: cfg.elite]
        need = cfg.pop_size - cfg.elite
        offspring: list[Individual] = []
        while len(offspring) < need:
            event = draw_event(self.rng)
            if event == "crossover":
                p1 = self.tournament_select(pop)
                p2 = self.tournament_select(pop)
                if draw_crossover_kind(self.rng) == "high":
                    pair = self.high_level_xover(p1, p2)
                else:
                    pair = self.low_level_xover(p1, p2)
                if need - len(offspring) >= 2:
                    batch = list(pair)
                else:
                    batch = [pair[int(self.rng.integers(2))]]
            elif event == "mutation":
                parent = self.tournament_select(pop)
                kind = draw_mutation_kind(self.rng, self.pr_wm)
                if kind == "weights":
                    batch = [self.weights_mutation(parent)]
                elif kind == "constant":
                    batch = [self.constant_mutation(parent)]
                else:
                    batch = [self.subtree_mutation(parent)]
            else:
                batch = [self.clone_individual(self.tournament_select(pop))]
            if self.mode.mode == "S":
                for child in batch:
                    self.sync_repair(child)
            offspring.extend(batch)
        if self.mode.uses_backprop and self.mode.mode in ("U", "S"):
            for child in offspring:
                fit = tune(child, self.train)
                if fit is not None:
                    self.adopt_fit(child, *fit)
        new_pop = list(elites) + offspring
        if self.mode.mode == "G":
            global_tune(new_pop, self.table, self.train)
        for ind in new_pop:  # fit the rest; in G mode refit all at the new epoch
            self.evaluate(ind)
        return new_pop


# ---------------------------------------------------------------------------
# run orchestration


@dataclass(frozen=True)
class RunBudget:
    """Stop after ``max_generations`` steps or once ``max_seconds`` of wall
    time have elapsed, whichever is set (at least one must be)."""

    max_generations: int | None = None
    max_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_generations is None and self.max_seconds is None:
            raise ValueError("set max_generations and/or max_seconds")
        if self.max_generations is not None and self.max_generations < 0:
            raise ValueError("max_generations must be >= 0")
        if self.max_seconds is not None and self.max_seconds < 0:
            raise ValueError("max_seconds must be >= 0")


@dataclass
class RunResult:
    """Outcome of one run: the best-on-train individual found over the whole
    run (weights detached from any shared table, top-level model and
    training fitness kept), its scores and metrics,
    and a per-generation trace of (generation, best-so-far train R^2,
    fits given so far, see :meth:`Engine.adopt_fit`, elapsed seconds)."""

    best: Individual
    train_r2: float
    test_r2: float
    lcf_ratio: float
    mean_depth: float
    history: list[tuple[int, float, int, float]]
    seed: int
    generations: int
    wall_time_s: float

    @property
    def best_genes(self) -> list[str]:
        return [format_tree(g.root) for g in self.best.genes]


def run(cfg: EngineConfig, mode: ModeConfig, train, test, budget: RunBudget,
        seed: int) -> RunResult:
    """Execute one seeded run and evaluate the best individual on the test
    set once at the end.  Fully deterministic under a generation budget."""
    if train.dim != test.dim:
        raise DataError("train and test sets must share dimensionality")
    if np.all(train.y == train.y[0]):
        raise DegenerateDataError("training target is constant; refusing to start")
    if np.all(test.y == test.y[0]):
        raise DegenerateDataError(f"test set of {test.name!r}: target is constant, so R^2 "
                                  "on it is undefined; refusing to start")
    rng = np.random.default_rng(seed)
    engine = Engine(cfg, mode, train, rng)
    started = time.perf_counter()
    pop = engine.init_population()
    best = None

    def consider(candidates: list[Individual]) -> None:
        nonlocal best
        top = max(candidates, key=engine.fitness_key)
        if best is None or top.fitness > best.fitness:
            best = engine.clone_individual(top, detach=True)
            best.model, best.fitness = top.model, top.fitness

    consider(pop)
    history = [(0, best.fitness, engine.evaluations, time.perf_counter() - started)]
    generation = 0
    while True:
        if budget.max_generations is not None and generation >= budget.max_generations:
            break
        if budget.max_seconds is not None and time.perf_counter() - started >= budget.max_seconds:
            break
        pop = engine.step_generation(pop)
        generation += 1
        consider(pop)
        history.append(
            (generation, best.fitness, engine.evaluations, time.perf_counter() - started)
        )

    return RunResult(
        best=best,
        train_r2=best.fitness,
        test_r2=_fitness.evaluate(best, test),
        lcf_ratio=_fitness.lcf_ratio(best),
        mean_depth=_fitness.mean_gene_depth(best),
        history=history,
        seed=seed,
        generations=generation,
        wall_time_s=time.perf_counter() - started,
    )
