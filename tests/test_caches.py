"""The staleness rule of the two evaluation caches.

A gene caches its output on the last input array, keyed by the array object
and, for a gene with LCF leaves, the G-mode table epoch; an individual
caches its fit under the epoch.  Every in-place weight change either moves
the epoch (G mode) or is followed by ``Individual.weights_changed`` (U and S
mode).  After each kind of weight change the cached gene outputs must be
bit for bit a fresh evaluation, and the engine's cached fit must be the fit
made afresh.
"""

import numpy as np
import pytest

from mggp import fitness
from mggp.backprop import global_tune, tune
from mggp.bench import Dataset
from mggp.evolve import Engine, EngineConfig, Individual, ModeConfig
from mggp.exprtree import Fn, Func, Gene, Lcf, LcfWeights, Var, eval_batch


def make_engine(codename, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3.0, 3.0, size=(30, 2))
    y = np.tanh(X[:, 0] - 0.5 * X[:, 1]) + 0.2 * X[:, 1]
    mode = ModeConfig.from_codename(codename)
    cfg = EngineConfig.for_mode(mode, pop_size=12, tournament=3, elite=2)
    return Engine(cfg, mode, Dataset("toy", X, y, "train"), rng)


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


def assert_fresh(engine, individuals):
    """Cached gene outputs and fits equal a fresh evaluation."""
    train, epoch = engine.train, engine.epoch
    for ind in individuals:
        columns = ind.gene_outputs(train, epoch)
        for gene, column in zip(ind.genes, columns):
            assert bits(column) == bits(eval_batch(gene.root, train.X))
        assert engine.evaluate(ind) == fitness.evaluate(ind, train, epoch)
        _, r2 = fitness.fit_and_score([eval_batch(g.root, train.X) for g in ind.genes], train.y)
        assert engine.evaluate(ind) == r2


def warmed_population(engine):
    pop = engine.init_population()
    for ind in pop:
        engine.evaluate(ind)
    return pop


@pytest.mark.parametrize("codename", ["UC", "SC"])
def test_private_weight_changes_void_the_caches(codename):
    for seed in range(3):
        engine = make_engine(codename, seed)
        pop = warmed_population(engine)
        for ind in pop:
            tune(ind, engine.train)
            assert_fresh(engine, [ind])
            child = engine.weights_mutation(ind)
            assert_fresh(engine, [child, ind])


def test_a_sync_repair_rebind_voids_the_caches():
    repaired = 0
    for seed in range(4):
        engine = make_engine("SB", seed)
        pop = warmed_population(engine)
        for p1, p2 in zip(pop[::2], pop[1::2]):
            for child in engine.high_level_xover(p1, p2) + engine.low_level_xover(p1, p2):
                engine.evaluate(child)  # cache the fit of the unrepaired weights
                before = set(map(id, child.weight_sets()))
                engine.sync_repair(child)
                repaired += before != set(map(id, child.weight_sets()))
                assert_fresh(engine, [child])
    assert repaired > 10


def repaired_children(seed):
    """Crossover children of a tuned S-mode population, each fit before and
    repaired after; the parents' weights differ, so repairs try candidates."""
    engine = make_engine("SB", seed)
    pop = warmed_population(engine)
    for ind in pop:
        tune(ind, engine.train)
    for p1, p2 in zip(pop[::2], pop[1::2]):
        for child in engine.high_level_xover(p1, p2) + engine.low_level_xover(p1, p2):
            engine.evaluate(child)
            engine.sync_repair(child)
            yield engine, child


def test_a_sync_repair_that_tries_candidates_voids_the_caches():
    for seed in range(4):
        for engine, child in repaired_children(seed):
            assert_fresh(engine, [child])


def test_a_repair_that_keeps_a_touched_gene_output_is_caught(monkeypatch):
    # the fault: sync_repair's partial forget leaves its first gene's output
    original = Individual.weights_changed

    def leaky(self, genes=None):
        original(self, None if genes is None else list(genes)[1:])

    monkeypatch.setattr(Individual, "weights_changed", leaky)
    caught = 0
    for seed in range(4):
        for engine, child in repaired_children(seed):
            try:
                assert_fresh(engine, [child])
            except AssertionError:
                caught += 1
    assert caught > 10


def test_a_repair_keeps_the_outputs_of_genes_without_a_leaf_of_its_group():
    engine = make_engine("SB", 0)
    X = engine.train.X
    w1, w2 = LcfWeights(0.0, [1.0, 0.0]), LcfWeights(0.3, [0.5, -1.0])
    repaired = Gene(Func(Fn.ADD, (Func(Fn.TANH, (Lcf(1, w1),)), Lcf(1, w2))))
    other = Gene(Func(Fn.SIN, (Lcf(2, LcfWeights.identity(2, 2)),)))
    ind = Individual([repaired, other], 2)
    engine.evaluate(ind)
    kept, voided = other.output(X), repaired.output(X)
    engine.sync_repair(ind)
    assert len(ind.weight_sets()) == 2
    assert other.output(X) is kept
    assert repaired.output(X) is not voided
    assert_fresh(engine, [ind])


def assert_holds_a_fresh_fit(engine, ind):
    """The cached fit is bit for bit ``fitness.fit_linear`` of the same
    trees in new genes, which cache nothing yet."""
    cached = ind.current_fit(engine.epoch)
    assert cached is not None
    fresh = Individual([Gene(g.root) for g in ind.genes], ind.dim)
    model, r2 = fitness.fit_linear(fresh, engine.train, engine.epoch)
    assert bits(cached[1]) == bits(r2)
    if model is None:
        assert cached[0] is None
    else:
        assert bits(cached[0].c0) == bits(model.c0)
        assert bits(cached[0].c) == bits(model.c)


@pytest.mark.parametrize("codename", ["UB", "SB", "SC", "GB"])
def test_a_generation_leaves_every_member_the_fit_of_its_weights(codename):
    # tuning and repair hand their fits over instead of refitting
    for seed in range(2):
        engine = make_engine(codename, seed)
        pop = warmed_population(engine)
        for _ in range(3):
            pop = engine.step_generation(pop)
            for ind in pop:
                assert_holds_a_fresh_fit(engine, ind)


@pytest.mark.parametrize("codename", ["GB", "GC"])
def test_table_updates_void_the_caches_of_the_whole_population(codename):
    for seed in range(3):
        engine = make_engine(codename, seed)
        pop = warmed_population(engine)
        epoch = engine.epoch
        global_tune(pop, engine.table, engine.train, 2)
        assert engine.epoch > epoch
        assert_fresh(engine, pop)
        if codename == "GC":
            for ind in pop[:4]:
                child = engine.weights_mutation(ind)
                assert_fresh(engine, [child] + pop)


def test_the_same_array_object_hits_and_an_equal_copy_recomputes():
    X = np.random.default_rng(0).uniform(-2.0, 2.0, size=(8, 2))
    plain = Gene(Func(Fn.SIN, (Var(1),)))
    lcf = Gene(Func(Fn.TANH, (Lcf(2, LcfWeights(0.5, [1.0, -2.0])),)))
    for gene in (plain, lcf):
        first = gene.output(X)
        assert gene.output(X) is first
        copy = X.copy()
        again = gene.output(copy)
        assert again is not first
        assert bits(again) == bits(first)
        assert gene.output(copy) is again
        gene.forget()
        assert gene.output(copy) is not again
    # the epoch keys only genes with LCF leaves
    out = plain.output(X)
    assert plain.output(X, 3) is out
    out = lcf.output(X)
    assert lcf.output(X, 3) is not out


def test_weights_changed_forgets_only_the_lcf_genes():
    X = np.random.default_rng(1).uniform(-2.0, 2.0, size=(8, 2))
    w = LcfWeights(0.0, [1.0, 1.0])
    plain, lcf = Gene(Func(Fn.COS, (Var(2),))), Gene(Func(Fn.EXP, (Lcf(1, w),)))
    ind = Individual([plain, lcf], 2)
    data = Dataset("toy", X, X[:, 0] ** 2, "train")
    before = ind.gene_outputs(data)
    w.set_values(0.5, [1.0, -1.0])
    ind.weights_changed()
    after = ind.gene_outputs(data)
    assert after[0] is before[0]
    assert bits(after[1]) == bits(eval_batch(lcf.root, X))
    assert bits(after[1]) != bits(before[1])
