import functools

import numpy as np
import pytest

from mggp import evolve
from mggp.bench import Dataset, gen_sigmoid
from mggp.errors import DataError, DegenerateDataError
from mggp.evolve import (
    CONFIGS,
    G_MAX,
    VAR_CM,
    VAR_WM,
    Engine,
    EngineConfig,
    Individual,
    ModeConfig,
    RunBudget,
    draw_event,
    run,
)
from mggp.exprtree import (
    Const,
    Fn,
    Func,
    Gene,
    Lcf,
    LcfWeights,
    Var,
    eval_batch,
    format_tree,
    parse_tree,
)


def toy_dataset(seed=0, n=40, d=2):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3, 3, size=(n, d))
    y = np.tanh(X[:, 0]) + 0.3 * X[:, min(1, d - 1)]
    return Dataset("toy", X, y, "train")


def make_engine(codename="baseline", seed=0, d=2, **overrides):
    mode = ModeConfig.from_codename(codename)
    cfg = EngineConfig.for_mode(mode, **overrides)
    train = toy_dataset(seed=seed, d=d)
    return Engine(cfg, mode, train, np.random.default_rng(seed))


class StubRng:
    """Scripted random source for exact operator scenarios."""

    def __init__(self, reals=(), ints=(), perms=(), normals=()):
        self.reals = list(reals)
        self.ints = list(ints)
        self.perms = list(perms)
        self.normals = list(normals)

    def random(self, size=None):
        if size is None:
            return self.reals.pop(0)
        return np.array([self.reals.pop(0) for _ in range(size)])

    def integers(self, low, high=None, size=None):
        if size is not None:
            return np.array([self.integers(low, high) for _ in range(size)])
        lo, hi = (0, low) if high is None else (low, high)
        return lo + self.ints.pop(0) % (hi - lo)

    def permutation(self, n):
        return np.array(self.perms.pop(0))

    def normal(self, loc=0.0, scale=1.0, size=None):
        if size is None:
            return loc + scale * self.normals.pop(0)
        return loc + scale * np.array([self.normals.pop(0) for _ in range(size)])


class TestModeConfig:
    def test_codenames_round_trip(self):
        assert list(CONFIGS) == ["baseline", "UM", "UB", "UC", "SM", "SB", "SC", "GB", "GC"]
        for name in CONFIGS:
            assert ModeConfig.from_codename(name).codename == name
        assert ModeConfig.from_codename("--").codename == "baseline"

    def test_invalid_combinations(self):
        with pytest.raises(ValueError):
            ModeConfig(mode="G", tuning="M")
        with pytest.raises(ValueError):
            ModeConfig(mode="baseline", tuning="B")
        with pytest.raises(ValueError):
            ModeConfig.from_codename("XB")
        for mode in ("baseline", "U", "S", "G"):
            for tuning in ("none", "M", "B", "C"):
                if (mode, tuning) not in CONFIGS.values():
                    with pytest.raises(ValueError, match="no configuration has mode"):
                        ModeConfig(mode, tuning)

    @pytest.mark.parametrize("sizes, message", [
        (dict(elite=0), "need 0 < elite < pop_size"),
        (dict(elite=20), "need 0 < elite < pop_size"),
        (dict(elite=21), "need 0 < elite < pop_size"),
        (dict(tournament=0), "d_max and tournament must be positive"),
        (dict(d_max=-1), "d_max and tournament must be positive"),
    ])
    def test_bad_sizes_are_refused(self, sizes, message):
        with pytest.raises(ValueError, match=message):
            EngineConfig(**{"pop_size": 20, "elite": 2, "tournament": 3, **sizes})

    def test_backprop_codenames_get_reduced_sizes(self):
        for name in ["UB", "UC", "SB", "SC", "GB", "GC"]:
            cfg = EngineConfig.for_mode(ModeConfig.from_codename(name))
            assert (cfg.pop_size, cfg.tournament, cfg.elite) == (50, 5, 8)
        for name in ["baseline", "UM", "SM"]:
            cfg = EngineConfig.for_mode(ModeConfig.from_codename(name))
            assert (cfg.pop_size, cfg.tournament, cfg.elite) == (100, 10, 15)

    def test_weights_mutation_probability_by_tuning(self):
        assert make_engine("UM").pr_wm == 0.05
        assert make_engine("UC").pr_wm == 0.05
        assert make_engine("UB").pr_wm == 0.0
        assert make_engine("baseline").pr_wm == 0.0

    @pytest.mark.parametrize("depths", [
        dict(d_max=3),  # the default init_depth_max, 6, is above it
        dict(init_depth_min=5, init_depth_max=3),
        dict(init_depth_min=-1),
        dict(d_max=4, init_depth_min=2, init_depth_max=5),
    ])
    def test_initial_depths_must_lie_within_the_depth_limit(self, depths):
        with pytest.raises(ValueError, match="init_depth_min <= init_depth_max <= d_max"):
            EngineConfig(pop_size=20, elite=2, tournament=3, **depths)

    def test_initial_depths_at_the_limits_are_accepted(self):
        cfg = EngineConfig(d_max=3, init_depth_min=0, init_depth_max=3, pop_size=20,
                           elite=2, tournament=3)
        train = toy_dataset(seed=6)
        result = run(cfg, ModeConfig(), train, train, RunBudget(max_generations=3), seed=0)
        assert all(g.depth <= 3 for g in result.best.genes)


class TestInitPopulation:
    @pytest.mark.parametrize("codename", ["UM", "SB", "GB"])
    def test_initial_lcfs_are_identity(self, codename):
        engine = make_engine(codename, seed=1)
        for ind in engine.init_population():
            for node in ind.lcf_nodes():
                assert node.weights.is_identity_for(node.index)

    def test_baseline_has_no_lcfs(self):
        engine = make_engine("baseline", seed=2)
        for ind in engine.init_population():
            assert not ind.has_lcf()

    def test_sizes_and_depths(self):
        engine = make_engine("UM", seed=3)
        pop = engine.init_population()
        assert len(pop) == engine.cfg.pop_size
        for ind in pop:
            assert 1 <= len(ind.genes) <= G_MAX
            for gene in ind.genes:
                assert gene.depth <= 6

    def test_s_mode_groups_share_one_object(self):
        engine = make_engine("SB", seed=4)
        for ind in engine.init_population():
            by_index = {}
            for node in ind.lcf_nodes():
                by_index.setdefault(node.index, set()).add(id(node.weights))
            for ids in by_index.values():
                assert len(ids) == 1

    def test_g_mode_references_global_table(self):
        engine = make_engine("GB", seed=5)
        for ind in engine.init_population():
            for node in ind.lcf_nodes():
                assert node.weights is engine.table.weights[node.index]


class TestFitnessKey:
    def test_invalid_last_and_equal_r2_ties_go_to_fewer_nodes(self):
        engine = make_engine("baseline", seed=5)
        x1 = Var(1)
        # exp(x1^36) is inf wherever |x1| > 1.2 on the toy inputs
        overflow = Func(Fn.EXP, (Func(Fn.POW6, (Func(Fn.POW6, (Var(1),)),)),))
        invalid = [
            Individual([Gene(overflow)], 2),
            Individual([Gene(overflow), Gene(Var(2))], 2),
        ]
        # one R^2, three sizes: adding 0 or multiplying by 1 leaves x1 as it is
        tied = [
            Individual([Gene(Func(Fn.ADD, (x1, Func(Fn.MUL, (x1, Const(0.0))))))], 2),
            Individual([Gene(x1)], 2),
            Individual([Gene(Func(Fn.MUL, (x1, Const(1.0))))], 2),
        ]
        pop = [invalid[0], tied[0], invalid[1], tied[1], tied[2]]
        ranked = sorted(pop, key=engine.fitness_key, reverse=True)
        assert ranked[:3] == [tied[1], tied[2], tied[0]]
        assert set(map(id, ranked[3:])) == set(map(id, invalid))
        assert len({engine.evaluate(ind) for ind in tied}) == 1
        assert all(engine.evaluate(ind) == -np.inf for ind in invalid)
        assert engine.fitness_key(tied[1]) == (engine.evaluate(tied[1]), -1)


class TestTournament:
    def test_large_tournament_returns_global_best(self):
        engine = make_engine("baseline", seed=6, pop_size=20, tournament=200, elite=2)
        pop = engine.init_population()
        winner = engine.tournament_select(pop)
        best = max(pop, key=engine.fitness_key)
        assert engine.fitness_key(winner) == engine.fitness_key(best)

    def test_selection_frequency_increases_with_rank(self):
        engine = make_engine("baseline", seed=7, pop_size=30, tournament=2, elite=2)
        # six individuals with pinned, strictly increasing fitness
        pop = []
        for k in range(6):
            ind = Individual([Gene(Var(1))], 2)
            ind.fitness = k / 10.0
            ind._rank = (k / 10.0, -1)
            ind._fit_key = engine.epoch
            pop.append(ind)
        counts = np.zeros(6)
        n = 10_000
        for _ in range(n):
            winner = engine.tournament_select(pop)
            counts[pop.index(winner)] += 1
        freqs = counts / n
        assert np.all(np.diff(freqs) > 0)

    def test_single_fitness_value_pool(self):
        engine = make_engine("baseline", seed=8, pop_size=10, tournament=3, elite=2)
        ind = Individual([Gene(Var(1))], 2)
        pop = [ind] * 5
        assert engine.tournament_select(pop) is ind


def genes_of(parent):
    return [g.root for g in parent.genes]


class TestHighLevelCrossover:
    def build(self, engine, trees):
        return Individual([Gene(t) for t in trees], 2)

    def test_no_selection_keeps_parents(self):
        engine = make_engine("baseline", seed=9)
        p1 = self.build(engine, [Var(1), Const(1.0)])
        p2 = self.build(engine, [Var(2)])
        engine.rng = StubRng(reals=[0.9, 0.9, 0.9])  # all above R_HLX=0.5 -> unselected
        o1, o2 = engine.high_level_xover(p1, p2)
        assert [format_tree(r) for r in genes_of(o1)] == [format_tree(r) for r in genes_of(p1)]
        assert [format_tree(r) for r in genes_of(o2)] == [format_tree(r) for r in genes_of(p2)]

    def test_full_swap_of_ten_gene_parents(self):
        engine = make_engine("baseline", seed=10)
        p1 = self.build(engine, [Const(float(i)) for i in range(10)])
        p2 = self.build(engine, [Const(float(100 + i)) for i in range(10)])
        engine.rng = StubRng(reals=[0.1] * 20)  # everything selected
        o1, o2 = engine.high_level_xover(p1, p2)
        assert len(o1.genes) == 10 and len(o2.genes) == 10
        assert {g.root.value for g in o1.genes} == {float(100 + i) for i in range(10)}
        assert {g.root.value for g in o2.genes} == {float(i) for i in range(10)}

    def test_mask_arithmetic_example(self):
        engine = make_engine("baseline", seed=11)
        g1, g2, h1 = Const(1.0), Const(2.0), Const(3.0)
        p1 = self.build(engine, [g1, g2])
        p2 = self.build(engine, [h1])
        # select g1 from p1 (0.1 < 0.5 <= 0.9) and h1 from p2
        engine.rng = StubRng(reals=[0.1, 0.9, 0.1])
        o1, o2 = engine.high_level_xover(p1, p2)
        assert [g.root.value for g in o1.genes] == [2.0, 3.0]
        assert [g.root.value for g in o2.genes] == [1.0]

    def test_overflow_discards_incoming(self):
        engine = make_engine("baseline", seed=12)
        p1 = self.build(engine, [Const(float(i)) for i in range(10)])
        p2 = self.build(engine, [Const(float(100 + i)) for i in range(3)])
        # nothing leaves p1, all three of p2's genes try to move in
        engine.rng = StubRng(
            reals=[0.9] * 10 + [0.1] * 3,
            perms=[[2, 0, 1]],
            ints=[0],
        )
        o1, o2 = engine.high_level_xover(p1, p2)
        assert len(o1.genes) == 10  # no room: every incoming gene dropped
        assert {g.root.value for g in o1.genes} == {float(i) for i in range(10)}
        # p2 gave everything away and receives nothing: falls back to one own gene
        assert len(o2.genes) == 1
        assert o2.genes[0].root.value == 100.0

    def test_emptied_offspring_keeps_uniform_gene_of_origin(self):
        engine = make_engine("baseline", seed=13)
        p1 = self.build(engine, [Const(1.0), Const(2.0)])
        p2 = self.build(engine, [Const(3.0)])
        # p1 keeps everything, p2 loses its only gene and receives none
        engine.rng = StubRng(reals=[0.9, 0.9, 0.1], ints=[0])
        o1, o2 = engine.high_level_xover(p1, p2)
        assert [g.root.value for g in o1.genes] == [1.0, 2.0, 3.0]
        assert [g.root.value for g in o2.genes] == [3.0]

    def test_self_crossover_gives_each_u_leaf_its_own_set(self):
        engine = make_engine("UB", seed=14)
        p = Individual([Gene(Func(Fn.SIN, (Lcf(1, LcfWeights.identity(1, 2)),)))], 2)
        # the gene stays (0.9) and also moves (0.1): offspring 1 holds it twice
        engine.rng = StubRng(reals=[0.9, 0.1], ints=[0])
        o1, _ = engine.high_level_xover(p, p)
        first, second = o1.lcf_nodes()
        assert len(o1.genes) == 2
        assert first.weights is not second.weights
        assert first.weights.values_equal(second.weights)

    def test_gene_count_never_exceeds_max(self):
        engine = make_engine("UM", seed=14)
        pop = engine.init_population()
        for _ in range(300):
            i, j = engine.rng.integers(0, len(pop), size=2)
            o1, o2 = engine.high_level_xover(pop[int(i)], pop[int(j)])
            assert 1 <= len(o1.genes) <= 10
            assert 1 <= len(o2.genes) <= 10


class TestLowLevelCrossover:
    def test_root_swap_exchanges_genes(self):
        engine = make_engine("baseline", seed=15)
        a, b = Func(Fn.SIN, (Var(1),)), Func(Fn.COS, (Var(2),))
        p1 = Individual([Gene(a)], 2)
        p2 = Individual([Gene(b)], 2)
        engine.rng = StubRng(ints=[0, 0, 0, 0])  # gene 0 each, pre-order index 0 = root
        o1, o2 = engine.low_level_xover(p1, p2)
        assert format_tree(o1.genes[0].root) == format_tree(b)
        assert format_tree(o2.genes[0].root) == format_tree(a)

    def test_depth_violation_reverts_offspring(self):
        engine = make_engine("baseline", seed=16)
        deep = Var(1)
        for _ in range(11):
            deep = Func(Fn.SIN, (deep,))
        shallow = Func(Fn.COS, (Var(1),))
        p1 = Individual([Gene(deep)], 2)  # depth 11, at the limit
        p2 = Individual([Gene(shallow)], 2)
        # swap p1's leaf (depth 11 spot) with p2's whole tree -> depth 12: revert o1;
        # o2 gets the leaf at its root position: fine.
        leaf = 11  # pre-order index: 11 sin nodes then the leaf
        engine.rng = StubRng(ints=[0, 0, leaf, 0])
        o1, o2 = engine.low_level_xover(p1, p2)
        assert format_tree(o1.genes[0].root) == format_tree(deep)  # reverted
        assert format_tree(o2.genes[0].root) == format_tree(Var(1))

    def test_identical_subtrees_keep_parents(self):
        engine = make_engine("baseline", seed=17)
        tree = Func(Fn.ADD, (Var(1), Var(2)))
        p1 = Individual([Gene(tree)], 2)
        p2 = Individual([Gene(Func(Fn.ADD, (Var(1), Var(2))))], 2)
        engine.rng = StubRng(ints=[0, 0, 1, 1])  # same leaf position in both
        o1, o2 = engine.low_level_xover(p1, p2)
        assert format_tree(o1.genes[0].root) == format_tree(tree)
        assert format_tree(o2.genes[0].root) == format_tree(tree)


class TestMutations:
    def test_subtree_mutation_respects_depth(self):
        engine = make_engine("UM", seed=18)
        pop = engine.init_population()
        for ind in pop[:50]:
            out = engine.subtree_mutation(ind)
            assert all(g.depth <= engine.cfg.d_max for g in out.genes)

    def test_subtree_mutation_changes_exactly_one_gene(self):
        engine = make_engine("baseline", seed=19)
        trees = [Func(Fn.SIN, (Var(1),)), Func(Fn.COS, (Var(2),)), Var(1)]
        ind = Individual([Gene(t) for t in trees], 2)
        out = engine.subtree_mutation(ind)
        same = [
            format_tree(a.root) == format_tree(b.root) for a, b in zip(ind.genes, out.genes)
        ]
        assert sum(same) >= len(trees) - 1

    def test_leaf_with_zero_budget_replaced_by_leaf(self):
        engine = make_engine("baseline", seed=20, d_max=11)
        deep = Var(1)
        for _ in range(11):
            deep = Func(Fn.SIN, (deep,))
        ind = Individual([Gene(deep)], 2)
        engine.rng = StubRng(ints=[0, 11, *([5] * 10)], reals=[0.5] * 10)
        out = engine.subtree_mutation(ind)
        assert out.genes[0].depth <= 11

    def test_constant_mutation_moves_exactly_one_constant(self):
        engine = make_engine("baseline", seed=21)
        ind = Individual(
            [Gene(Func(Fn.ADD, (Const(1.0), Var(1)))), Gene(Const(5.0))], 2
        )
        out = engine.constant_mutation(ind)
        before = [1.0, 5.0]
        after = []
        for gene in out.genes:
            for node in gene.nodes:
                if isinstance(node, Const):
                    after.append(node.value)
        changed = sum(1 for a, b in zip(before, after) if a != b)
        assert changed == 1
        # structure unchanged
        assert any(format_tree(a.root) == format_tree(b.root)
                   for a, b in zip(out.genes, ind.genes))

    @pytest.mark.parametrize("k", range(5))
    def test_constant_mutation_draw_counts_constants_left_to_right(self, k):
        engine = make_engine("baseline", seed=21)
        tree = Func(Fn.ADD, (Func(Fn.MUL, (Const(0.0), Func(Fn.SIN, (Const(1.0),)))),
                             Func(Fn.SUB, (Var(1), Const(2.0)))))
        ind = Individual([Gene(Const(3.0)), Gene(tree), Gene(Var(2)), Gene(Const(4.0))], 2)
        engine.rng = StubRng(ints=[k], normals=[0.5])
        out = engine.constant_mutation(ind)
        values = [n.value for g in out.genes for n in g.nodes if isinstance(n, Const)]
        expected = [3.0, 0.0, 1.0, 2.0, 4.0]
        expected[k] += 0.5 * np.sqrt(VAR_CM)
        assert values == expected

    def test_constant_mutation_without_constants_falls_back(self):
        engine = make_engine("baseline", seed=22)
        ind = Individual([Gene(Func(Fn.SIN, (Var(1),)))], 2)
        out = engine.constant_mutation(ind)
        assert len(out.genes) == 1  # a subtree mutation happened instead
        assert out is not ind

    def test_constant_mutation_variance(self):
        engine = make_engine("baseline", seed=23)
        ind = Individual([Gene(Const(0.0))], 2)
        deltas = []
        for _ in range(10_000):
            out = engine.constant_mutation(ind)
            deltas.append(out.genes[0].root.value)
        var = float(np.var(deltas))
        assert abs(var - VAR_CM) <= 0.01

    def test_weights_mutation_changes_all_group_weights(self):
        engine = make_engine("UM", seed=24)
        w = LcfWeights.identity(1, 2)
        ind = Individual([Gene(Lcf(1, w))], 2)
        out = engine.weights_mutation(ind)
        nw = out.lcf_nodes()[0].weights
        changed = int(nw.a != 0.0) + int(nw.b[0] != 1.0) + int(nw.b[1] != 0.0)
        assert changed == 3  # a, b1, b2 all offset

    def test_weights_mutation_noop_without_lcf(self):
        engine = make_engine("UM", seed=25)
        ind = Individual([Gene(Var(1))], 2)
        out = engine.weights_mutation(ind)
        assert format_tree(out.genes[0].root) == format_tree(ind.genes[0].root)

    def test_weights_mutation_variance(self):
        engine = make_engine("UM", seed=26)
        ind = Individual([Gene(Lcf(1, LcfWeights.identity(1, 2)))], 2)
        offsets = {"a": [], "b0": [], "b1": []}
        for _ in range(10_000):
            out = engine.weights_mutation(ind)
            w = out.lcf_nodes()[0].weights
            offsets["a"].append(w.a)
            offsets["b0"].append(w.b[0] - 1.0)
            offsets["b1"].append(w.b[1])
        for vals in offsets.values():
            assert abs(np.var(vals) - VAR_WM) <= 0.1

    def test_s_mode_weights_mutation_keeps_group_synchronised(self):
        engine = make_engine("SM", seed=27)
        w = LcfWeights.identity(1, 2)
        ind = Individual(
            [Gene(Func(Fn.SIN, (Lcf(1, w),))), Gene(Func(Fn.COS, (Lcf(1, w),)))], 2
        )
        out = engine.weights_mutation(ind)
        nodes = out.lcf_nodes()
        assert nodes[0].weights is nodes[1].weights
        assert not nodes[0].weights.values_equal(w)

    def test_g_mode_weights_mutation_hits_global_table(self):
        engine = make_engine("GC", seed=28)
        table = engine.table
        ind = Individual([Gene(Lcf(1, table.lookup(1)))], 2)
        before = table.lookup(1).values()
        epoch = table.epoch
        engine.weights_mutation(ind)
        after = table.lookup(1).values()
        assert after[0] != before[0] or not np.array_equal(after[1], before[1])
        assert table.epoch == epoch + 1


def s_mode_parent(dim=2):
    """Two genes; index 1 shared across them, index 2 on a set of its own,
    both carrying iRprop state."""
    w1, w2 = LcfWeights(0.5, [1.0, -2.0]), LcfWeights(-1.0, [0.0, 3.0])
    for w in (w1, w2):
        w.delta, w.prev_grad = np.full(1 + dim, 0.1), np.ones(1 + dim)
    g1 = Gene(Func(Fn.ADD, (Lcf(1, w1), Func(Fn.SIN, (Lcf(2, w2),)))))
    g2 = Gene(Func(Fn.MUL, (Lcf(1, w1), Const(2.0))))
    return Individual([g1, g2, Gene(Var(1))], dim)


def snapshot(ind):
    """What a variation operator must leave alone: the parent's trees and
    weight objects, and the weights' values."""
    sets = ind.weight_sets()
    return ind, [g.root for g in ind.genes], sets, [w.values() for w in sets]


def assert_untouched(shot):
    ind, roots, sets, values = shot
    assert [g.root for g in ind.genes] == roots
    assert ind.weight_sets() == sets
    for w, (a, b) in zip(sets, values):
        assert w.a == a and np.array_equal(w.b, b)


class TestCloning:
    def groups(self, ind):
        out = {}
        for node in ind.lcf_nodes():
            out.setdefault(node.index, []).append(node.weights)
        return out

    def test_s_clone_keeps_each_index_group_on_one_set(self):
        engine = make_engine("SB", seed=40)
        parent = s_mode_parent()
        for fresh in (False, True):
            clone = engine.clone_individual(parent, fresh=fresh)
            for index, sets in self.groups(clone).items():
                assert all(w is sets[0] for w in sets)
                assert sets[0] is not self.groups(parent)[index][0]
            assert clone.genes[2] is parent.genes[2]  # no LCF leaves: shared

    def test_u_clone_gives_each_leaf_a_set(self):
        engine = make_engine("UB", seed=40)
        clone = engine.clone_individual(s_mode_parent())
        nodes = clone.lcf_nodes()
        assert len({id(n.weights) for n in nodes}) == len(nodes) == 3

    def test_fresh_copies_drop_only_the_tuning_state(self):
        engine = make_engine("SB", seed=41)
        parent = s_mode_parent()
        kept = engine.clone_individual(parent)
        fresh = engine.clone_individual(parent, fresh=True)
        for old, w, f in zip(parent.weight_sets(), kept.weight_sets(), fresh.weight_sets()):
            assert w.values_equal(old) and f.values_equal(old)
            assert np.array_equal(w.delta, old.delta) and w.delta is not old.delta
            assert f.delta is None and f.prev_grad is None

    def test_a_clone_without_lcf_leaves_builds_nothing(self, monkeypatch):
        calls = []

        def counting_cache(fn):
            calls.append(fn)
            return functools.lru_cache(maxsize=None)(fn)

        monkeypatch.setattr(evolve.functools, "cache", counting_cache)
        plain = Individual([Gene(Func(Fn.SIN, (Var(1),))), Gene(Var(2))], 2)
        for codename, detach in (("baseline", False), ("UB", False), ("SB", False), ("GB", True)):
            clone = make_engine(codename, seed=44).clone_individual(plain, detach=detach)
            assert clone is not plain and clone.genes is not plain.genes
            assert all(c is g for c, g in zip(clone.genes, plain.genes))
        assert calls == []
        make_engine("SB", seed=44).clone_individual(s_mode_parent())
        assert len(calls) == 1

    @pytest.mark.parametrize("codename", ["UB", "SB", "GB"])
    def test_variation_leaves_the_parents_untouched(self, codename):
        engine = make_engine(codename, seed=42)
        pop = engine.init_population()
        shots = [snapshot(ind) for ind in pop]
        copies = [[parse_tree(format_tree(g.root), ind.dim) for g in ind.genes] for ind in pop]
        for _ in range(60):
            i, j = (pop[int(k)] for k in engine.rng.integers(0, len(pop), size=2))
            offspring = [*engine.low_level_xover(i, j), *engine.high_level_xover(i, j),
                         engine.subtree_mutation(i), engine.constant_mutation(j)]
            if engine.mode.mode != "G":  # G-mode offspring hold the table's sets
                mine = {id(w) for ind in pop for w in ind.weight_sets()}
                assert not any(id(w) in mine for o in offspring for w in o.weight_sets())
        for shot, trees in zip(shots, copies):
            assert_untouched(shot)
            for g, t in zip(shot[0].genes, trees):
                assert format_tree(g.root) == format_tree(t)
                assert np.array_equal(eval_batch(g.root, engine.train.X),
                                      eval_batch(t, engine.train.X), equal_nan=True)

    def test_graft_onto_itself_copies_each_leaf(self):
        engine = make_engine("SB", seed=43)
        parent = s_mode_parent()
        shot = snapshot(parent)
        # gene 0 both sides; graft the subtree at pre-order index 2 over index 1
        engine.rng = StubRng(ints=[0, 0, 1, 2])
        o1, _ = engine.low_level_xover(parent, parent)
        assert_untouched(shot)
        sin = parent.genes[0].root.children[1]
        assert format_tree(o1.genes[0].root) == format_tree(Func(Fn.ADD, (sin, sin)))
        assert len(set(map(id, o1.genes[0].nodes))) == len(o1.genes[0].nodes)
        assert all(w.delta is None for w in o1.weight_sets())


class TestSyncRepair:
    def test_single_set_untouched(self):
        engine = make_engine("SB", seed=29)
        w = LcfWeights(0.5, [1.0, 2.0])
        ind = Individual(
            [Gene(Func(Fn.SIN, (Lcf(1, w),))), Gene(Func(Fn.COS, (Lcf(1, w),)))], 2
        )
        evals_before = engine.evaluations
        engine.sync_repair(ind)
        nodes = ind.lcf_nodes()
        assert nodes[0].weights is w and nodes[1].weights is w
        assert engine.evaluations == evals_before  # no candidate evaluations

    def test_identical_values_consolidate_without_evaluation(self):
        engine = make_engine("SB", seed=30)
        w1 = LcfWeights(0.5, [1.0, 2.0])
        w2 = LcfWeights(0.5, [1.0, 2.0])
        ind = Individual(
            [Gene(Func(Fn.SIN, (Lcf(1, w1),))), Gene(Func(Fn.COS, (Lcf(1, w2),)))], 2
        )
        evals_before = engine.evaluations
        engine.sync_repair(ind)
        nodes = ind.lcf_nodes()
        assert nodes[0].weights is nodes[1].weights
        assert nodes[0].weights.values_equal(w1)
        assert engine.evaluations == evals_before

    def test_binds_only_the_conflicting_group_and_fits_each_candidate_once(self):
        engine = make_engine("SB", seed=33)
        w1a, w1b = LcfWeights(0.5, [1.0, -2.0]), LcfWeights(-1.0, [0.0, 3.0])
        w2 = LcfWeights(0.2, [0.3, 0.4])
        w2.delta, w2.prev_grad = np.full(3, 0.1), np.ones(3)
        ind = Individual([Gene(Func(Fn.ADD, (Lcf(1, w1a), Lcf(2, w2)))),
                          Gene(Func(Fn.SIN, (Lcf(1, w1b),))),
                          Gene(Func(Fn.MUL, (Lcf(1, w1a), Const(2.0))))], 2)
        engine.evaluate(ind)
        evals_before = engine.evaluations
        engine.sync_repair(ind)
        ones = [n.weights for n in ind.lcf_nodes() if n.index == 1]
        assert [n.weights for n in ind.lcf_nodes() if n.index == 2] == [w2]
        assert w2.delta is not None  # the lone set keeps its tuning state
        assert len(ones) == 3 and all(w is ones[0] for w in ones)
        assert ones[0] is not w1a and ones[0] is not w1b and ones[0].delta is None
        # two candidates, their mean, and the refit of the adopted set
        assert engine.evaluations == evals_before + 4

    def test_adopts_exact_fit_candidate(self):
        # dataset where w1 reproduces the target exactly, so repair must pick it
        rng = np.random.default_rng(31)
        X = rng.uniform(-2, 2, size=(30, 2))
        y = np.tanh(X[:, 0] - X[:, 1])
        train = Dataset("exact", X, y, "train")
        mode = ModeConfig.from_codename("SB")
        engine = Engine(EngineConfig.for_mode(mode), mode, train, np.random.default_rng(0))
        w_good = LcfWeights(0.0, [1.0, -1.0])
        w_bad = LcfWeights(5.0, [-2.0, 0.5])
        ind = Individual(
            [
                Gene(Func(Fn.TANH, (Lcf(1, w_good),))),
                Gene(Func(Fn.TANH, (Lcf(1, w_bad),))),
            ],
            2,
        )
        engine.sync_repair(ind)
        for node in ind.lcf_nodes():
            assert node.weights.values_equal(w_good)
        assert engine.evaluate(ind) == pytest.approx(1.0, abs=1e-12)

    def test_all_candidates_invalid_adopts_mean(self):
        engine = make_engine("SB", seed=32)
        w1 = LcfWeights(1e300, [1e300, 0.0])
        w2 = LcfWeights(-1e300, [1e300, 0.0])
        tree1 = Func(Fn.POW6, (Func(Fn.EXP, (Lcf(1, w1),)),))
        tree2 = Func(Fn.POW6, (Func(Fn.EXP, (Lcf(1, w2),)),))
        ind = Individual([Gene(tree1), Gene(tree2)], 2)
        engine.sync_repair(ind)
        nodes = ind.lcf_nodes()
        assert nodes[0].weights is nodes[1].weights
        assert nodes[0].weights.a == 0.0  # mean of +/-1e300
        assert engine.evaluate(ind) == -np.inf


class TestStepGeneration:
    def test_elites_carry_over_as_same_objects(self):
        engine = make_engine("baseline", seed=33, pop_size=30, elite=5, tournament=3)
        pop = engine.init_population()
        ranked = sorted(pop, key=engine.fitness_key, reverse=True)
        new_pop = engine.step_generation(pop)
        assert len(new_pop) == 30
        for elite, carried in zip(ranked[:5], new_pop[:5]):
            assert carried is elite

    def test_event_frequencies(self):
        rng = np.random.default_rng(34)
        counts = {"crossover": 0, "mutation": 0, "reproduction": 0}
        n = 10_000
        for _ in range(n):
            counts[draw_event(rng)] += 1
        assert abs(counts["crossover"] / n - 0.84) <= 0.02
        assert abs(counts["mutation"] / n - 0.14) <= 0.02
        assert abs(counts["reproduction"] / n - 0.02) <= 0.01

    @pytest.mark.parametrize("codename", ["baseline", "UB", "SM"])
    def test_best_fitness_never_decreases(self, codename):
        engine = make_engine(codename, seed=35, pop_size=20, elite=3, tournament=3)
        pop = engine.init_population()
        best = max(engine.evaluate(i) for i in pop)
        for _ in range(5):
            pop = engine.step_generation(pop)
            new_best = max(engine.evaluate(i) for i in pop)
            assert new_best >= best - 1e-12
            best = new_best

    def test_population_invariants_hold(self):
        for codename in ("baseline", "UM", "SB"):
            engine = make_engine(codename, seed=36, pop_size=16, elite=3, tournament=3)
            pop = engine.init_population()
            for _ in range(4):
                pop = engine.step_generation(pop)
                for ind in pop:
                    assert 1 <= len(ind.genes) <= 10
                    assert all(g.depth <= 11 for g in ind.genes)

    def test_s_mode_groups_synchronised_after_generation(self):
        engine = make_engine("SB", seed=37, pop_size=16, elite=3, tournament=3)
        pop = engine.init_population()
        for _ in range(4):
            pop = engine.step_generation(pop)
            for ind in pop:
                groups = {}
                for node in ind.lcf_nodes():
                    groups.setdefault(node.index, []).append(node.weights)
                for sets in groups.values():
                    assert all(w is sets[0] for w in sets)

    def test_g_mode_everyone_references_the_table(self):
        engine = make_engine("GB", seed=38, pop_size=14, elite=3, tournament=3)
        pop = engine.init_population()
        for _ in range(3):
            pop = engine.step_generation(pop)
            for ind in pop:
                for node in ind.lcf_nodes():
                    assert node.weights is engine.table.weights[node.index]

    @pytest.mark.parametrize("codename", ["UM", "UB", "UC"])
    def test_every_u_leaf_owns_its_weights(self, codename):
        # seed 38 runs self-crossovers of individuals with LCF genes
        engine = make_engine(codename, seed=38, pop_size=14, elite=3, tournament=3)
        pop = engine.init_population()
        for _ in range(3):
            pop = engine.step_generation(pop)
            for ind in pop:
                nodes = ind.lcf_nodes()
                assert len({id(n.weights) for n in nodes}) == len(nodes)

    def test_no_weight_sharing_across_individuals_in_u_and_s(self):
        for codename in ("UB", "SB"):
            engine = make_engine(codename, seed=39, pop_size=14, elite=3, tournament=3)
            pop = engine.init_population()
            for _ in range(3):
                pop = engine.step_generation(pop)
                owners = {}
                for ind in pop:
                    for w in ind.weight_sets():
                        owners.setdefault(id(w), set()).add(id(ind))
                for who in owners.values():
                    assert len(who) == 1


class TestRun:
    def make_data(self, seed=0):
        return gen_sigmoid(2, False, np.random.default_rng(seed))

    def test_zero_generation_budget_returns_initial_best(self):
        train, test = self.make_data(1)
        mode = ModeConfig.from_codename("baseline")
        cfg = EngineConfig.for_mode(mode, pop_size=20, elite=3, tournament=3)
        res = run(cfg, mode, train, test, RunBudget(max_generations=0), seed=5)
        assert res.generations == 0
        assert len(res.history) == 1
        assert res.history[0][0] == 0

    def test_a_zero_second_budget_stops_before_the_first_generation(self, monkeypatch):
        train, test = self.make_data(1)
        mode = ModeConfig.from_codename("baseline")
        cfg = EngineConfig.for_mode(mode, pop_size=20, elite=3, tournament=3)
        monkeypatch.setattr(Engine, "step_generation", lambda self, pop: pytest.fail("stepped"))
        res = run(cfg, mode, train, test, RunBudget(max_seconds=0.0), seed=5)
        assert res.generations == 0
        assert len(res.history) == 1

    def test_a_budget_needs_a_limit(self):
        with pytest.raises(ValueError, match="set max_generations and/or max_seconds"):
            RunBudget()

    @pytest.mark.parametrize("limits, message", [
        (dict(max_generations=-1), "max_generations must be >= 0"),
        (dict(max_seconds=-1.0), "max_seconds must be >= 0"),
    ])
    def test_a_negative_budget_is_refused(self, limits, message):
        with pytest.raises(ValueError, match=message):
            RunBudget(**limits)

    def test_train_and_test_must_share_dimensionality(self):
        train, _ = self.make_data(1)
        _, test = gen_sigmoid(3, False, np.random.default_rng(1))
        mode = ModeConfig.from_codename("baseline")
        cfg = EngineConfig.for_mode(mode, pop_size=10, elite=2, tournament=2)
        with pytest.raises(DataError, match="train and test sets must share dimensionality"):
            run(cfg, mode, train, test, RunBudget(max_generations=1), seed=0)

    def test_same_seed_reproduces_run_exactly(self):
        train, test = self.make_data(2)
        mode = ModeConfig.from_codename("UB")
        cfg = EngineConfig.for_mode(mode, pop_size=16, elite=3, tournament=3)
        r1 = run(cfg, mode, train, test, RunBudget(max_generations=5), seed=9)
        r2 = run(cfg, mode, train, test, RunBudget(max_generations=5), seed=9)
        assert r1.train_r2 == r2.train_r2
        assert r1.test_r2 == r2.test_r2
        assert r1.best_genes == r2.best_genes
        h1 = [(g, r, e) for g, r, e, _ in r1.history]
        h2 = [(g, r, e) for g, r, e, _ in r2.history]
        assert h1 == h2

    def test_history_best_is_nondecreasing(self):
        train, test = self.make_data(3)
        for codename in ("baseline", "GB"):
            mode = ModeConfig.from_codename(codename)
            cfg = EngineConfig.for_mode(mode, pop_size=14, elite=3, tournament=3)
            res = run(cfg, mode, train, test, RunBudget(max_generations=6), seed=4)
            values = [h[1] for h in res.history]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_degenerate_training_target_refused(self):
        X = np.random.default_rng(0).uniform(-1, 1, size=(10, 2))
        train = Dataset("flat", X, np.ones(10), role="test")  # dodge the ctor check
        train.role = "train"
        test = Dataset("flat-test", X, X[:, 0], role="test")
        mode = ModeConfig.from_codename("baseline")
        cfg = EngineConfig.for_mode(mode, pop_size=10, elite=2, tournament=2)
        with pytest.raises(DegenerateDataError):
            run(cfg, mode, train, test, RunBudget(max_generations=1), seed=0)

    def test_degenerate_test_target_refused_before_any_generation(self, monkeypatch):
        train, test = self.make_data(5)
        flat = Dataset("rs2d", test.X, np.full(test.n, 0.5), role="test")
        mode = ModeConfig.from_codename("baseline")
        cfg = EngineConfig.for_mode(mode, pop_size=10, elite=2, tournament=2)
        monkeypatch.setattr(Engine, "init_population", lambda self: pytest.fail("run started"))
        with pytest.raises(DegenerateDataError, match="test set of 'rs2d'"):
            run(cfg, mode, train, flat, RunBudget(max_generations=1), seed=0)

    def test_baseline_s5d_under_time_budget(self):
        train, test = gen_sigmoid(5, False, np.random.default_rng(7))
        mode = ModeConfig.from_codename("baseline")
        cfg = EngineConfig.for_mode(mode)
        res = run(
            cfg, mode, train, test,
            RunBudget(max_generations=40, max_seconds=60.0), seed=11,
        )
        assert res.train_r2 >= 0.999

    def test_g_mode_snapshot_detached_from_table(self):
        train, test = self.make_data(4)
        mode = ModeConfig.from_codename("GB")
        cfg = EngineConfig.for_mode(mode, pop_size=12, elite=3, tournament=3)
        res = run(cfg, mode, train, test, RunBudget(max_generations=4), seed=2)
        for node in res.best.lcf_nodes():
            # a detached snapshot owns its weights
            assert node.weights is not None
        # and its stored train fitness matches a fresh evaluation
        from mggp.fitness import evaluate

        assert evaluate(res.best, train) == pytest.approx(res.train_r2, abs=1e-12)
