"""The one descent loop behind ``tune`` and ``global_tune`` against the two
loops it replaced.

``ref_tune`` and ``ref_global_tune`` below are copies of the earlier
implementations: ``tune`` traced once and then refreshed only the
LCF-dependent slots after every update, ``global_tune`` traced every
individual afresh on every step.  They call the gradient module's functions
through the module, so a patched ``backward`` or ``fit_and_score`` reaches
both sides.  On fuzzed U, S and G individuals and populations, the weights
and the iRprop- state they leave must be bit for bit those of the
references.
"""

import warnings
from collections import Counter

import numpy as np
import pytest

import mggp.backprop as bp
from mggp.backprop import GlobalWeightTable, StepBudget, global_tune, tune
from mggp.bench import Dataset
from mggp.evolve import Individual
from mggp.exprtree import (
    FORWARD,
    Const,
    Fn,
    Func,
    Gene,
    Lcf,
    LcfWeights,
    TerminalConfig,
    Var,
    random_tree,
)

DIM = 3


def ref_refresh(trace):
    """Recompute, in place, the trace slots whose subtree holds an LCF leaf."""
    with np.errstate(all="ignore"):
        for gene, values in trace.slots.items():
            if not gene.has_lcf:
                continue
            code = iter(gene.program)
            for slot, (_, flag, a, b) in enumerate(zip(code, code, code, code)):
                if not flag:
                    continue
                node = gene.nodes[slot]
                if isinstance(node, Lcf):
                    values[slot] = node.weights.a + trace.X @ node.weights.b
                elif b < 0:
                    values[slot] = FORWARD[node.kind](values[a])
                else:
                    values[slot] = FORWARD[node.kind](values[a], values[b])


def ref_snapshot(individual):
    return {w: w.values() for w in individual.weight_sets()}


def ref_restore(snapshot):
    for w, (a, b) in snapshot.items():
        w.set_values(a, b)


def ref_tune(individual, train, budget):
    """The earlier per-individual loop; returns why it stopped and after
    how many updates."""
    if not individual.has_lcf():
        return "no-lcf", 0
    X, y = train.X, train.y
    n_steps = budget.steps_for(individual.total_nodes())
    trace = bp.forward_trace(individual, X)
    model, r2 = bp.fit_and_score(trace.roots(individual), y)
    best_r2 = r2
    best = ref_snapshot(individual)
    stop, moves = "budget", 0
    for _ in range(n_steps):
        if model is None:
            stop = "fit"
            break
        grads = bp.backward(individual, trace, y, model)
        if not grads.valid:
            stop = "gradient"
            break
        bp.irprop_minus_step(grads)
        moves += 1
        individual.weights_changed()
        ref_refresh(trace)
        model, r2 = bp.fit_and_score(trace.roots(individual), y)
        if r2 > best_r2:
            best_r2 = r2
            best = ref_snapshot(individual)
    ref_restore(best)
    individual.weights_changed()
    return stop, moves


def ref_global_tune(population, table, train, steps):
    """The earlier population-wide loop; returns why it stopped."""
    X, y = train.X, train.y
    sets = list(table.weights.values())
    for _ in range(steps):
        total = bp.GradientTable(sets)
        any_valid = False
        for individual in population:
            if not individual.has_lcf():
                continue
            trace = bp.forward_trace(individual, X)
            model, _ = bp.fit_and_score(trace.roots(individual), y)
            if model is None:
                continue
            grads = bp.backward(individual, trace, y, model)
            if not grads.check_finite():
                continue
            with np.errstate(over="ignore"):  # an overflow to inf stops the loop below
                for w, (d_a, d_b) in grads.entries.items():
                    entry = total.entries[w]
                    entry[0] += d_a
                    entry[1] += d_b
            any_valid = True
        if not any_valid:
            return "nothing valid"
        if not total.check_finite():
            return "sum"
        bp.irprop_minus_step(total)
        table.bump()
    return "budget"


# ---------------------------------------------------------------------------
# fuzzed cases, built twice from one seed so each side gets its own objects


def fuzzed_genes(rng, terminals):
    return [
        Gene(random_tree(rng, int(rng.integers(1, 5)), "grow" if k % 2 else "full", terminals))
        for k in range(int(rng.integers(1, 4)))
    ]


def perturb(rng, weight_sets, scale=0.5):
    for w in weight_sets:
        w.set_values(w.a + rng.normal(0.0, scale), w.b + rng.normal(0.0, scale, size=DIM))


def overflow_gene(rng, kind, leaf):
    """A gene near the edge of overflow, so that tuning can stop early:
    ``exp(lcf^2)`` overflows once |lcf| passes ~26.6, and near lcf ~ 709 the
    gradient of ``sin(exp(lcf))`` overflows while its value stays finite."""
    if kind == 0:
        leaf.weights.set_values(25.5 + rng.normal(0.0, 0.5), rng.normal(0.0, 0.3, size=DIM))
        return Gene(Func(Fn.EXP, (Func(Fn.POW2, (leaf,)),)))
    leaf.weights.set_values(708.0 + rng.normal(0.0, 0.5), rng.normal(0.0, 0.15, size=DIM))
    return Gene(Func(Fn.SIN, (Func(Fn.EXP, (leaf,)),)))


def fuzzed_train(rng):
    X = rng.uniform(-2.0, 2.0, size=(20, DIM))
    y = np.tanh(X[:, 0] - 0.7 * X[:, 1]) + 0.3 * X[:, 2] ** 2
    return Dataset("toy", X, y, "train")


def individual_case(seed, mode):
    """One U- or S-mode individual, its training set and a step budget; two
    seeds in three add an overflow-prone gene."""
    rng = np.random.default_rng(seed)
    pool = {}
    shared = None
    if mode == "S":
        shared = lambda i: pool.setdefault(i, LcfWeights.identity(i, DIM))  # noqa: E731
    terminals = TerminalConfig(dim=DIM, use_lcf=True, lcf_weights=shared)
    genes = fuzzed_genes(rng, terminals)
    perturb(rng, Individual(genes, DIM).weight_sets())
    if seed % 3 < 2:
        genes.append(overflow_gene(rng, seed % 3, terminals.new_lcf(1)))
    budget = StepBudget(int(rng.integers(0, 30)), int(rng.integers(0, 4)))
    return Individual(genes, DIM), fuzzed_train(rng), budget


def population_case(seed):
    """A G-mode population on one shared table, LCF-free members included;
    two seeds in three give some members an overflow-prone gene."""
    rng = np.random.default_rng(seed)
    table = GlobalWeightTable(DIM)
    terminals = TerminalConfig(dim=DIM, use_lcf=True, lcf_weights=table.lookup)
    perturb(rng, table.weights.values())
    population = []
    for _ in range(int(rng.integers(1, 7))):
        genes = fuzzed_genes(rng, terminals)
        if seed % 3 < 2 and rng.random() < 0.5:
            genes.append(overflow_gene(rng, seed % 3, terminals.new_lcf(DIM)))
        population.append(Individual(genes, DIM))
    return population, table, fuzzed_train(rng), int(rng.integers(0, 6))


def shared_population_case(seed):
    """A G-mode population whose members mostly draw their genes, with
    repeats, from one pool, as the engine's clones share them: a member may
    hold a gene twice or hold only LCF-free genes.  The pool holds a gene
    whose four leaves add into one weight set and, for two seeds in three,
    an overflow-prone gene."""
    rng = np.random.default_rng(seed)
    table = GlobalWeightTable(DIM)
    terminals = TerminalConfig(dim=DIM, use_lcf=True, lcf_weights=table.lookup)
    perturb(rng, table.weights.values())
    pool = fuzzed_genes(rng, terminals) + fuzzed_genes(rng, TerminalConfig(dim=DIM, use_lcf=False))
    leaves = [terminals.new_lcf(1) for _ in range(4)]  # four partials into one entry
    pool.append(Gene(Func(Fn.ADD, (Func(Fn.MUL, leaves[:2]),
                                   Func(Fn.SUB, (leaves[2], Func(Fn.SIN, leaves[3:])))))))
    if seed % 3 < 2:
        pool.append(overflow_gene(rng, seed % 3, terminals.new_lcf(DIM)))
    population = []
    for _ in range(int(rng.integers(2, 8))):
        if rng.random() < 0.3:  # a member with genes of its own
            genes = fuzzed_genes(rng, terminals)
        else:
            genes = [pool[k] for k in rng.integers(len(pool), size=int(rng.integers(1, 6)))]
        population.append(Individual(genes, DIM))
    return population, table, fuzzed_train(rng), int(rng.integers(0, 6))


def holder_counts(population):
    """How many members hold each gene with LCF leaves."""
    counts = {}
    for individual in population:
        for gene in set(individual.genes):
            if gene.has_lcf:
                counts[gene] = counts.get(gene, 0) + 1
    return counts


def bits(value):
    return None if value is None else np.asarray(value, dtype=float).tobytes()


def assert_same_state(sets, ref_sets):
    assert len(sets) == len(ref_sets)
    for w, ref in zip(sets, ref_sets):
        for field in ("a", "b", "delta", "prev_grad"):
            assert bits(getattr(w, field)) == bits(getattr(ref, field)), field


def failing_on_call(monkeypatch, name, k, poisoned, run):
    """``run()`` with the ``k``-th call (from 0) of ``bp.<name>`` returning
    ``poisoned(result)``."""
    original = getattr(bp, name)
    calls = [0]

    def patched(*args):
        out = original(*args)
        calls[0] += 1
        return poisoned(out) if calls[0] == k + 1 else out

    with monkeypatch.context() as patch:
        patch.setattr(bp, name, patched)
        return run()


def nan_gradient(table):
    first = next(iter(table.entries))
    table.entries[first][0] = np.nan
    table.check_finite()
    return table


def no_fit(_):
    return None, -np.inf


def tune_both(seed, mode, rounds=3):
    ind, train, budget = individual_case(seed, mode)
    ref_ind, ref_train, _ = individual_case(seed, mode)
    stops = []
    for _ in range(rounds):  # the step-size memory carries over between calls
        stops.append(ref_tune(ref_ind, ref_train, budget))
        assert tune(ind, train, budget) is ind
        assert_same_state(ind.weight_sets(), ref_ind.weight_sets())
    return stops


@pytest.mark.parametrize("mode", ["U", "S"])
def test_tune_matches_the_trace_and_refresh_loop(mode):
    stops = set()
    for seed in range(60):
        stops |= {(stop, moves > 0) for stop, moves in tune_both(seed, mode)}
    # natural early stops, after some updates and before any
    assert {(stop, moved) for stop in ("budget", "fit", "gradient") for moved in (False, True)} <= stops


@pytest.mark.parametrize("mode", ["U", "S"])
@pytest.mark.parametrize("hook, poison, why", [("fit_and_score", no_fit, "fit"),
                                               ("backward", nan_gradient, "gradient")])
def test_tune_matches_when_a_step_fails(monkeypatch, mode, hook, poison, why):
    moved = set()
    for seed in range(12):
        for k in range(4):
            ind, train, budget = individual_case(seed, mode)
            ref_ind, ref_train, _ = individual_case(seed, mode)
            failing_on_call(monkeypatch, hook, k, poison, lambda: tune(ind, train, budget))
            stop, moves = failing_on_call(monkeypatch, hook, k, poison,
                                          lambda: ref_tune(ref_ind, ref_train, budget))
            assert_same_state(ind.weight_sets(), ref_ind.weight_sets())
            if stop == why:
                moved.add(moves)
    assert {0, 1, 2, 3} <= moved


def global_both(seed, rounds=2, wrap=lambda run: run(), case=population_case):
    population, table, train, steps = case(seed)
    ref_population, ref_table, ref_train, _ = case(seed)
    stops = []
    for _ in range(rounds):
        stops.append(wrap(lambda: ref_global_tune(ref_population, ref_table, ref_train, steps)))
        wrap(lambda: global_tune(population, table, train, steps))
        assert table.epoch == ref_table.epoch
        assert_same_state(list(table.weights.values()), list(ref_table.weights.values()))
    return stops


def test_global_tune_matches_the_population_loop():
    stops = []
    for seed in range(40):
        stops += global_both(seed)
    assert set(stops) == {"budget", "nothing valid", "sum"}


def test_global_tune_matches_the_population_loop_on_shared_genes():
    stops = []
    seen = set()
    for seed in range(60):
        population, _, _, _ = shared_population_case(seed)
        counts = holder_counts(population)
        seen.add("shared" if any(n > 1 for n in counts.values()) else "unshared")
        seen |= {"twice" for ind in population if len(set(ind.genes)) < len(ind.genes)}
        seen |= {"lcf-free" for ind in population if not ind.has_lcf()}
        seen |= {"overflow" for gene, n in counts.items()
                 if n > 1 and getattr(gene.root, "kind", None) in (Fn.EXP, Fn.SIN)
                 and gene.node_count == 3}
        stops += global_both(seed, case=shared_population_case)
    assert seen == {"shared", "unshared", "twice", "lcf-free", "overflow"}
    assert set(stops) == {"budget", "nothing valid", "sum"}


@pytest.mark.parametrize("hook, poison", [("fit_and_score", no_fit), ("backward", nan_gradient)])
def test_global_tune_matches_when_a_member_fails(monkeypatch, hook, poison):
    for seed in (1, 2, 4, 5, 7):
        for k in range(6):
            global_both(seed, rounds=1,
                        wrap=lambda run: failing_on_call(monkeypatch, hook, k, poison, run))


def test_global_tune_matches_when_a_member_holding_shared_genes_fails(monkeypatch):
    # a member that holds a shared gene is never swept by ``backward``, so
    # non-finite gradients reach it through the overflow-prone genes instead
    for seed in (0, 1, 3, 4, 6, 7):
        for k in range(8):
            global_both(seed, rounds=1, case=shared_population_case,
                        wrap=lambda run: failing_on_call(monkeypatch, "fit_and_score", k,
                                                         no_fit, run))


def test_global_tune_stops_quietly_when_the_sum_overflows():
    # every member's partials are finite, their sum is not: the descent
    # stops on the sum without warning the caller
    overflowed = 0
    for seed in range(40):
        population, table, train, steps = population_case(seed)
        ref_population, ref_table, ref_train, _ = population_case(seed)
        stop = ref_global_tune(ref_population, ref_table, ref_train, steps)
        if stop != "sum":
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            global_tune(population, table, train, steps)
        assert table.epoch == ref_table.epoch < steps
        assert_same_state(list(table.weights.values()), list(ref_table.weights.values()))
        overflowed += 1
    assert overflowed >= 2


def star_case(_seed=0):
    """Three members holding one shared gene beside an LCF-free gene of
    their own, and a fourth holding an unshared gene."""
    table = GlobalWeightTable(DIM)
    # one derivative function per operator slot: pow2, add, sin
    shared = Gene(Func(Fn.SIN, (Func(Fn.ADD, (Func(Fn.POW2, (Lcf(2, table.lookup(2)),)),
                                              Const(1.5))),)))
    population = [Individual([shared, Gene(Var(k))], DIM) for k in (1, 2, 3)]
    population.append(Individual([Gene(Func(Fn.TANH, (Lcf(1, table.lookup(1)),)))], DIM))
    return population, table, fuzzed_train(np.random.default_rng(0)), 3


def test_global_tune_traces_and_differentiates_a_shared_gene_once_per_step(monkeypatch):
    population, table, train, _ = star_case()
    shared, own = population[0].genes[0], population[-1].genes[0]
    for holder in population[:3]:  # every holder sweeps the shared gene
        model, _ = bp.fit_and_score([g.output(train.X) for g in holder.genes], train.y)
        assert model.c[0] != 0.0
    taped, derived = [], []
    original_tape = bp.run_tape

    def counting_tape(gene, X):
        taped.append(gene)
        return original_tape(gene, X)

    def counting(kind, d):
        def derivative(*args):
            derived.append(kind)
            return d(*args)
        return derivative

    monkeypatch.setattr(bp, "run_tape", counting_tape)
    monkeypatch.setattr(bp, "_DERIVATIVE_BY_OP",
                        tuple(counting(kind, d) for kind, d in zip(Fn, bp._DERIVATIVE_BY_OP)))
    global_tune(population, table, train, steps=1)
    assert table.epoch == 1
    assert taped.count(shared) == 1 and taped.count(own) == 1
    assert Counter(derived) == Counter([Fn.SIN, Fn.ADD, Fn.POW2, Fn.TANH])
    monkeypatch.undo()
    assert global_both(0, case=star_case) == ["budget", "budget"]
