"""Generational multi-gene GP engine.

Individuals hold 1..G_max gene trees combined by a least-squares top-level
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

import math
import time
from dataclasses import dataclass

import numpy as np

from . import fitness as _fitness
from .backprop import (
    GlobalWeightTable,
    StepBudget,
    global_tune,
    tune,
)
from .errors import DataError, DegenerateDataError
from .exprtree import (
    Gene,
    Lcf,
    LcfWeights,
    TerminalConfig,
    copy_tree,
    format_tree,
    iter_paths,
    node_at,
    pick_node,
    random_tree,
    replace_subtree,
    Const,
)

_CODENAME_MODES = {"U", "S", "G"}
_CODENAME_TUNINGS = {"M", "B", "C"}


@dataclass(frozen=True)
class ModeConfig:
    """Operation mode (how LCF weights are shared) plus tuning method."""

    mode: str = "baseline"  # baseline | U | S | G
    tuning: str = "none"  # none | M | B | C

    def __post_init__(self) -> None:
        if self.mode not in ("baseline", "U", "S", "G"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.tuning not in ("none", "M", "B", "C"):
            raise ValueError(f"unknown tuning {self.tuning!r}")
        if self.mode == "baseline" and self.tuning != "none":
            raise ValueError("baseline admits no tuning method")
        if self.mode == "G" and self.tuning not in ("B", "C"):
            raise ValueError("globally synchronised weights require gradient tuning")
        if self.mode != "baseline" and self.tuning == "none":
            raise ValueError(f"mode {self.mode} needs a tuning method (M, B or C)")

    @property
    def uses_lcf(self) -> bool:
        return self.mode != "baseline"

    @property
    def uses_backprop(self) -> bool:
        return self.tuning in ("B", "C")

    @property
    def uses_weights_mutation(self) -> bool:
        return self.uses_lcf and self.tuning in ("M", "C")

    @property
    def codename(self) -> str:
        return "baseline" if self.mode == "baseline" else self.mode + self.tuning

    @classmethod
    def from_codename(cls, name: str) -> "ModeConfig":
        label = name.strip()
        if label.lower() in ("baseline", "--"):
            return cls()
        label = label.upper()
        if len(label) == 2 and label[0] in _CODENAME_MODES and label[1] in _CODENAME_TUNINGS:
            return cls(mode=label[0], tuning=label[1])
        raise ValueError(
            f"unknown codename {name!r}; expected baseline or one of "
            "UM UB UC SM SB SC GB GC"
        )


@dataclass(frozen=True)
class EngineConfig:
    """All engine parameters.  Defaults are the standard-run values; use
    :meth:`for_mode` to apply the reduced population/tournament/elite sizes
    that gradient-tuned configurations run with."""

    g_max: int = 10
    n_max: float = math.inf
    d_max: int = 11
    pop_size: int = 100
    tournament: int = 10
    elite: int = 15
    pr_x: float = 0.84
    pr_m: float = 0.14
    pr_hlx: float = 0.2
    r_hlx: float = 0.5
    pr_cm: float = 0.05
    var_cm: float = 0.1
    pr_wm: float = 0.0
    var_wm: float = 3.0
    bp_steps: int = 25
    bp_min: int = 2
    global_steps: int = 2
    init_depth_min: int = 2
    init_depth_max: int = 6
    const_low: float = -10.0
    const_high: float = 10.0

    def __post_init__(self) -> None:
        if not 0 < self.elite < self.pop_size:
            raise ValueError("need 0 < elite < pop_size")
        for p in (self.pr_x, self.pr_m, self.pr_hlx, self.r_hlx, self.pr_cm, self.pr_wm):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")
        if self.pr_x + self.pr_m > 1.0:
            raise ValueError("pr_x + pr_m must not exceed 1")
        if self.pr_cm + self.pr_wm > 1.0:
            raise ValueError("pr_cm + pr_wm must not exceed 1")
        if self.g_max < 1 or self.d_max < 0 or self.tournament < 1:
            raise ValueError("g_max, d_max and tournament must be positive")

    @classmethod
    def for_mode(cls, mode: ModeConfig, **overrides) -> "EngineConfig":
        values = {}
        if mode.uses_backprop:
            values.update(pop_size=50, tournament=5, elite=8)
        if mode.uses_weights_mutation:
            values["pr_wm"] = 0.05
        values.update(overrides)
        return cls(**values)


class Individual:
    """A set of gene trees plus cached top-level model and fitness."""

    __slots__ = ("genes", "dim", "model", "fitness", "_wver", "_fit_key", "_rank")

    def __init__(self, genes, dim: int) -> None:
        self.genes: list[Gene] = list(genes)
        self.dim = dim
        self.model = None
        self.fitness = None
        self._wver = 0
        self._fit_key = None
        self._rank = None  # (fitness report, ordering key derived from it)

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
        version = (self._wver, epoch)
        return [g.output(data.X, data.token, version) for g in self.genes]

    def bump_weights_version(self) -> None:
        self._wver += 1
        self._fit_key = None

    def reset_tuning_state(self) -> None:
        for w in self.weight_sets():
            w.reset_tuning_state()

    def __repr__(self) -> str:
        return f"Individual({len(self.genes)} genes, {self.total_nodes()} nodes)"


def draw_event(rng, cfg: EngineConfig) -> str:
    """One offspring-slot event: crossover, mutation or reproduction."""
    r = rng.random()
    if r < cfg.pr_x:
        return "crossover"
    if r < cfg.pr_x + cfg.pr_m:
        return "mutation"
    return "reproduction"


def draw_mutation_kind(rng, cfg: EngineConfig) -> str:
    r = rng.random()
    if r < cfg.pr_wm:
        return "weights"
    if r < cfg.pr_wm + cfg.pr_cm:
        return "constant"
    return "subtree"


def draw_crossover_kind(rng, cfg: EngineConfig) -> str:
    return "high" if rng.random() < cfg.pr_hlx else "low"


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
        self.budget = StepBudget(cfg.bp_steps, cfg.bp_min)
        self.table = GlobalWeightTable(train.dim) if mode.mode == "G" else None
        self.evaluations = 0
        lcf_factory = self.table.lookup if self.table is not None else None
        self.terminals = TerminalConfig(
            dim=train.dim,
            use_lcf=mode.uses_lcf,
            const_low=cfg.const_low,
            const_high=cfg.const_high,
            lcf_weights=lcf_factory,
        )

    # -- evaluation ---------------------------------------------------

    @property
    def epoch(self) -> int:
        return self.table.epoch if self.table is not None else 0

    def evaluate(self, ind: Individual):
        key = (self.train.token, ind._wver, self.epoch)
        if ind._fit_key == key:
            return ind.fitness
        model, report = _fitness.fit_linear(ind, self.train, self.epoch)
        ind.model = model
        ind.fitness = report
        ind._fit_key = key
        self.evaluations += 1
        return report

    def fitness_key(self, ind: Individual) -> tuple:
        """Orders individuals: valid above invalid, then higher R^2, then
        fewer total nodes."""
        report = self.evaluate(ind)
        rank = ind._rank
        if rank is None or rank[0] is not report:
            # genes are only replaced before an offspring is first
            # evaluated, so the node total is fixed once a report exists
            rank = ind._rank = (report, (*report.order_key, -ind.total_nodes()))
        return rank[1]

    # -- structure handling -------------------------------------------

    def _clone_gene(self, gene: Gene, weight_map: dict | None) -> Gene:
        if not gene.has_lcf or (self.mode.mode == "G" and weight_map is None):
            return gene  # immutable, no private weights: safe to share
        return Gene(copy_tree(gene.root, weight_map))

    def clone_individual(self, ind: Individual, detach: bool = False) -> Individual:
        """Copy an individual.  In U/S modes LCF-bearing genes get fresh
        weight objects (sharing topology preserved, tuning state copied);
        in G mode genes keep referencing the global table unless
        ``detach`` forces private copies (used for best-so-far snapshots).
        """
        if self.mode.mode == "G" and not detach:
            return Individual(list(ind.genes), ind.dim)
        weight_map: dict = {}
        genes = [self._clone_gene(g, weight_map) for g in ind.genes]
        return Individual(genes, ind.dim)

    # -- selection -----------------------------------------------------

    def tournament_select(self, pop: list[Individual]) -> Individual:
        """Sample ``tournament`` individuals with replacement; best by
        fitness key, remaining ties split uniformly."""
        draws = self.rng.integers(0, len(pop), size=self.cfg.tournament)
        best_key = None
        best: list[Individual] = []
        for i in draws:
            candidate = pop[int(i)]
            key = self.fitness_key(candidate)
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
        ``r_hlx`` and moves to the other offspring; incoming genes that
        would exceed ``g_max`` are discarded in random order, and an
        emptied offspring retains one uniformly chosen gene of its
        originating parent."""
        sel1 = self.rng.random(len(p1.genes)) < self.cfg.r_hlx
        sel2 = self.rng.random(len(p2.genes)) < self.cfg.r_hlx
        own1 = [g for g, s in zip(p1.genes, sel1) if not s]
        move1 = [g for g, s in zip(p1.genes, sel1) if s]
        own2 = [g for g, s in zip(p2.genes, sel2) if not s]
        move2 = [g for g, s in zip(p2.genes, sel2) if s]
        o1 = self._assemble_offspring(own1, move2, p1)
        o2 = self._assemble_offspring(own2, move1, p2)
        if self.mode.mode != "G":
            o1.reset_tuning_state()
            o2.reset_tuning_state()
        return o1, o2

    def _assemble_offspring(self, own: list[Gene], incoming: list[Gene],
                            origin: Individual) -> Individual:
        room = self.cfg.g_max - len(own)
        if len(incoming) > room:
            order = self.rng.permutation(len(incoming))
            incoming = [incoming[int(i)] for i in sorted(order[:room])]
        genes = own + incoming
        if not genes:
            genes = [origin.genes[int(self.rng.integers(len(origin.genes)))]]
        wmap = None if self.mode.mode == "G" else {}
        return Individual([self._clone_gene(g, wmap) for g in genes], origin.dim)

    def low_level_xover(self, p1: Individual, p2: Individual) -> tuple[Individual, Individual]:
        """Koza subtree swap between one uniformly chosen gene of each
        parent; an offspring whose new gene would break the depth or size
        limit reverts to its parent."""
        o1 = self.clone_individual(p1)
        o2 = self.clone_individual(p2)
        i1 = int(self.rng.integers(len(o1.genes)))
        i2 = int(self.rng.integers(len(o2.genes)))
        root1, root2 = o1.genes[i1].root, o2.genes[i2].root
        path1 = pick_node(self.rng, root1)
        path2 = pick_node(self.rng, root2)
        sub1 = node_at(root1, path1)
        sub2 = node_at(root2, path2)
        wmap = None if self.mode.mode == "G" else {}
        new1 = Gene(replace_subtree(root1, path1, copy_tree(sub2, wmap)))
        wmap = None if self.mode.mode == "G" else {}
        new2 = Gene(replace_subtree(root2, path2, copy_tree(sub1, wmap)))
        if new1.depth <= self.cfg.d_max and new1.node_count <= self.cfg.n_max:
            o1.genes[i1] = new1
        if new2.depth <= self.cfg.d_max and new2.node_count <= self.cfg.n_max:
            o2.genes[i2] = new2
        if self.mode.mode != "G":
            o1.reset_tuning_state()
            o2.reset_tuning_state()
        return o1, o2

    def subtree_mutation(self, ind: Individual) -> Individual:
        """Replace a uniformly chosen node of a uniformly chosen gene by a
        grown random tree that keeps the gene within the depth limit."""
        o = self.clone_individual(ind)
        gi = int(self.rng.integers(len(o.genes)))
        root = o.genes[gi].root
        path = pick_node(self.rng, root)
        depth_budget = self.cfg.d_max - len(path)
        sub = random_tree(self.rng, depth_budget, "grow", self.terminals)
        new_gene = Gene(replace_subtree(root, path, sub))
        if new_gene.node_count <= self.cfg.n_max:
            o.genes[gi] = new_gene
        if self.mode.mode != "G":
            o.reset_tuning_state()
        return o

    def constant_mutation(self, ind: Individual) -> Individual:
        """Offset one uniformly chosen constant leaf by a draw from
        N(0, var_cm); falls back to subtree mutation when the individual
        has no constant leaves."""
        spots = []
        for gi, gene in enumerate(ind.genes):
            for path, node in iter_paths(gene.root):
                if isinstance(node, Const):
                    spots.append((gi, path, node.value))
        if not spots:
            return self.subtree_mutation(ind)
        o = self.clone_individual(ind)
        gi, path, value = spots[int(self.rng.integers(len(spots)))]
        delta = self.rng.normal(0.0, math.sqrt(self.cfg.var_cm))
        o.genes[gi] = Gene(replace_subtree(o.genes[gi].root, path, Const(value + delta)))
        return o

    def weights_mutation(self, ind: Individual) -> Individual:
        """Offset every weight of one LCF node (U mode) or one whole index
        group (S and G modes) by i.i.d. draws from N(0, var_wm).  In G mode
        the offset lands on the shared global set and is therefore seen by
        the entire population.  No-op without LCF leaves."""
        if not self.mode.uses_lcf:
            raise ValueError("weights mutation needs an LCF-enabled mode")
        o = self.clone_individual(ind)
        lcfs = o.lcf_nodes()
        if not lcfs:
            return o
        if self.mode.mode == "U":
            node = lcfs[int(self.rng.integers(len(lcfs)))]
            targets = [node.weights]
        else:
            indices = sorted({n.index for n in lcfs})
            index = indices[int(self.rng.integers(len(indices)))]
            if self.mode.mode == "G":
                targets = [self.table.weights[index]]
            else:
                targets = []
                ids = set()
                for n in lcfs:
                    if n.index == index and id(n.weights) not in ids:
                        ids.add(id(n.weights))
                        targets.append(n.weights)
        offset = self.rng.normal(0.0, math.sqrt(self.cfg.var_wm), size=1 + o.dim)
        for w in targets:
            w.a += offset[0]
            w.b += offset[1:]
        if self.mode.mode == "G":
            self.table.bump()
        o.bump_weights_version()
        return o

    # -- synchronised-mode repair ---------------------------------------

    def sync_repair(self, ind: Individual) -> Individual:
        """Restore the S-mode invariant that all same-index LCF leaves of an
        individual share identical weights.

        For every index carrying more than one distinct weight-value set
        (after crossover or mutation), the individual's training fitness is
        evaluated under each candidate set and under their element-wise
        mean; the best one is adopted for the whole group.  If no candidate
        is valid the mean is adopted.  Afterwards each group references a
        single shared weight object.
        """
        if self.mode.mode != "S":
            return ind
        groups: dict[int, list[Lcf]] = {}
        for node in ind.lcf_nodes():
            groups.setdefault(node.index, []).append(node)
        for index in sorted(groups):
            nodes = groups[index]
            distinct: list[LcfWeights] = []
            for n in nodes:
                if not any(n.weights.values_equal(w) for w in distinct):
                    distinct.append(n.weights)
            if len(distinct) == 1:
                object_ids = {id(n.weights) for n in nodes}
                if len(object_ids) > 1:
                    self._rebind_group(ind, index, *distinct[0].values())
                continue
            candidates = [w.values() for w in distinct]
            mean_a = sum(a for a, _ in candidates) / len(candidates)
            mean_b = sum(b for _, b in candidates) / len(candidates)
            candidates.append((mean_a, mean_b))
            best = None
            best_key = None
            for a, b in candidates:
                self._rebind_group(ind, index, a, b)
                report = self.evaluate(ind)
                if report.valid and (best_key is None or report.train_r2 > best_key):
                    best_key = report.train_r2
                    best = (a, b)
            if best is None:
                best = candidates[-1]  # all invalid: adopt the mean
            self._rebind_group(ind, index, *best)
            self.evaluate(ind)
        return ind

    def _rebind_group(self, ind: Individual, index: int, a: float, b) -> None:
        shared = LcfWeights(a, b)
        for node in ind.lcf_nodes():
            if node.index == index:
                node.weights = shared
        ind.bump_weights_version()

    # -- population level ------------------------------------------------

    def init_population(self) -> list[Individual]:
        """Ramped half-and-half initialisation: per gene, a uniform depth
        in [init_depth_min, init_depth_max] and a fair grow/full choice;
        gene counts uniform in 1..g_max.  Fresh LCF leaves start as the
        identity transform of their own index."""
        pop = []
        for _ in range(self.cfg.pop_size):
            n_genes = int(self.rng.integers(1, self.cfg.g_max + 1))
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
        for ind in pop:
            self.evaluate(ind)
        ranked = sorted(pop, key=self.fitness_key, reverse=True)
        elites = ranked[: cfg.elite]
        need = cfg.pop_size - cfg.elite
        offspring: list[Individual] = []
        while len(offspring) < need:
            event = draw_event(self.rng, cfg)
            if event == "crossover":
                p1 = self.tournament_select(pop)
                p2 = self.tournament_select(pop)
                if draw_crossover_kind(self.rng, cfg) == "high":
                    pair = self.high_level_xover(p1, p2)
                else:
                    pair = self.low_level_xover(p1, p2)
                if need - len(offspring) >= 2:
                    batch = list(pair)
                else:
                    batch = [pair[int(self.rng.integers(2))]]
            elif event == "mutation":
                parent = self.tournament_select(pop)
                kind = draw_mutation_kind(self.rng, cfg)
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
                tune(child, self.train, self.budget)
        new_pop = list(elites) + offspring
        if self.mode.mode == "G":
            global_tune(new_pop, self.table, self.train, cfg.global_steps)
        for ind in new_pop:
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


@dataclass
class RunResult:
    """Outcome of one run: the best-on-train individual found over the whole
    run (weights detached from any shared table), its scores and metrics,
    and a per-generation trace of (generation, best-so-far train R^2,
    fitness evaluations, elapsed seconds)."""

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
    rng = np.random.default_rng(seed)
    engine = Engine(cfg, mode, train, rng)
    started = time.perf_counter()
    pop = engine.init_population()
    for ind in pop:
        engine.evaluate(ind)

    best_key = None
    best_snapshot = None

    def consider(candidates: list[Individual]) -> None:
        nonlocal best_key, best_snapshot
        top = max(candidates, key=engine.fitness_key)
        key = engine.evaluate(top).order_key
        if best_key is None or key > best_key:
            best_key = key
            snap = engine.clone_individual(top, detach=True)
            best_snapshot = snap

    def best_r2() -> float:
        return best_key[1] if best_key and best_key[0] else -math.inf

    consider(pop)
    history = [(0, best_r2(), engine.evaluations, time.perf_counter() - started)]
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
            (generation, best_r2(), engine.evaluations, time.perf_counter() - started)
        )

    test_report = _fitness.evaluate(best_snapshot, test)
    return RunResult(
        best=best_snapshot,
        train_r2=best_r2(),
        test_r2=test_report.train_r2 if test_report.valid else -math.inf,
        lcf_ratio=_fitness.lcf_ratio(best_snapshot),
        mean_depth=_fitness.mean_gene_depth(best_snapshot),
        history=history,
        seed=seed,
        generations=generation,
        wall_time_s=time.perf_counter() - started,
    )
