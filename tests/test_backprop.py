import math
import zlib

import numpy as np
import pytest

import mggp.backprop as bp
from mggp.backprop import (
    GlobalWeightTable,
    GradientTable,
    RpropParams,
    StepBudget,
    backward,
    forward_trace,
    global_tune,
    irprop_minus_step,
    tune,
)
from mggp.bench import Dataset
from mggp.evolve import Individual
from mggp.exprtree import (
    FORWARD,
    Fn,
    Func,
    Gene,
    Lcf,
    LcfWeights,
    TerminalConfig,
    Var,
    eval_batch,
    random_tree,
)
from mggp.fitness import LinearModel, ols_fit, r_squared
from test_descent import counted_updates


def sse(ind, X, y, model):
    G = np.column_stack([eval_batch(g.root, X) for g in ind.genes])
    yhat = model.c0 + G @ model.c
    return float(np.sum((yhat - y) ** 2))


class TestForwardTrace:
    def test_single_lcf_leaf_value(self):
        leaf = Lcf(1, LcfWeights(0.0, [1.0, 0.0]))
        gene = Gene(leaf)
        trace = forward_trace(Individual([gene], 2), np.array([[4.0, 9.0]]))
        assert trace.slots[gene][-1][0] == 4.0

    def test_root_matches_eval_batch(self):
        rng = np.random.default_rng(0)
        tc = TerminalConfig(dim=2, use_lcf=True)
        X = rng.uniform(-2, 2, size=(16, 2))
        for _ in range(25):
            genes = [Gene(random_tree(rng, 4, "grow", tc)) for _ in range(2)]
            ind = Individual(genes, 2)
            trace = forward_trace(ind, X)
            for gene in genes:
                assert np.array_equal(trace.slots[gene][-1], eval_batch(gene.root, X))

    def test_sin_of_var_at_half_pi(self):
        leaf = Var(1)
        root = Func(Fn.SIN, (leaf,))
        gene = Gene(root)
        X = np.array([[math.pi / 2]])
        trace = forward_trace(Individual([gene], 1), X)
        assert eval_batch(leaf, X)[0] == pytest.approx(1.5708, abs=1e-4)
        # without LCF leaves only the root is recorded
        assert trace.slots[gene][0] is None
        assert trace.slots[gene][-1][0] == pytest.approx(1.0)


def local_derivative(kind, child_values, child_index=0):
    """d(output)/d(child ``child_index``) from the engine's two operator tables."""
    x, *y = child_values
    with np.errstate(all="ignore"):
        out = FORWARD[kind](*child_values)
        return bp.DERIVATIVE[kind](x, y[0] if y else None, out, child_index)


class TestLocalDerivative:
    def test_sinc_derivative_zero_at_origin(self):
        d = local_derivative(Fn.SINC, [np.array([0.0])])
        assert d[0] == 0.0

    def test_gauss_zero_and_pow2(self):
        assert local_derivative(Fn.GAUSS, [np.array([0.0])])[0] == 0.0
        assert local_derivative(Fn.POW2, [np.array([3.0])])[0] == pytest.approx(6.0)

    @pytest.mark.parametrize("kind", list(Fn))
    def test_matches_forward_map_finite_differences(self, kind):
        rng = np.random.default_rng(zlib.crc32(kind.value.encode()))
        xs = rng.uniform(-3.0, 3.0, size=100)
        if kind is Fn.SINC:
            xs = xs[np.abs(xs) > 1e-2]
        others = rng.uniform(-3.0, 3.0, size=xs.size)
        eps = np.finfo(float).eps
        for child_index in range(kind.arity):
            h = 1e-6 * (1.0 + np.abs(xs))

            def forward(vals):
                args = [vals, others] if child_index == 0 else [others, vals]
                return FORWARD[kind](*args[: kind.arity])

            def central(step):
                return (forward(xs + step) - forward(xs - step)) / (2 * step)

            child_values = [xs, others][: kind.arity]
            if child_index == 1:
                child_values = [others, xs]
            fd = central(h)
            an = local_derivative(kind, child_values, child_index) * np.ones_like(xs)
            # The central difference errs by about h^2 |f'''| / 6 (truncation),
            # which halving h cuts to a quarter, so |fd(h) - fd(h/2)| is 3/4 of
            # it; rounding of f and of x +- h adds about eps (|f| + |x f'|) / h.
            # The factor 2 covers the noise in both estimates.
            truncation = 4.0 / 3.0 * np.abs(fd - central(h / 2))
            rounding = eps * (np.abs(forward(xs)) + np.abs(xs * an)) / h
            excess = np.abs(fd - an) / (2.0 * (truncation + rounding))
            assert np.max(excess) <= 1.0, (kind, child_index, np.max(excess))


class TestBackward:
    def test_hand_computed_single_lcf(self):
        # one gene = one identity LCF, coefficients (0, 1), sample x=(2,), y=0
        w = LcfWeights.identity(1, 1)
        ind = Individual([Gene(Lcf(1, w))], 1)
        X = np.array([[2.0]])
        y = np.array([0.0])
        trace = forward_trace(ind, X)
        model = LinearModel(c0=0.0, c=np.array([1.0]))
        table = backward(ind, trace, y, model)
        d_a, d_b = table.entries[w]
        assert d_a == pytest.approx(4.0)  # 2 * yhat * 1
        assert d_b[0] == pytest.approx(8.0)  # 2 * yhat * x

    def test_zero_coefficient_gene_contributes_nothing(self):
        w1 = LcfWeights.identity(1, 2)
        w2 = LcfWeights.identity(2, 2)
        ind = Individual(
            [Gene(Func(Fn.SIN, (Lcf(1, w1),))), Gene(Func(Fn.COS, (Lcf(2, w2),)))], 2
        )
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, size=(8, 2))
        y = rng.uniform(-1, 1, size=8)
        trace = forward_trace(ind, X)
        model = LinearModel(c0=0.3, c=np.array([0.7, 0.0]))
        table = backward(ind, trace, y, model)
        d_a, d_b = table.entries[w2]
        assert d_a == 0.0
        assert np.all(d_b == 0.0)
        d_a1, _ = table.entries[w1]
        assert d_a1 != 0.0

    def test_shared_weight_set_yields_single_summed_entry(self):
        w = LcfWeights.identity(1, 2)
        tree1 = Func(Fn.SIN, (Lcf(1, w),))
        tree2 = Func(Fn.TANH, (Lcf(1, w),))
        shared = Individual([Gene(tree1), Gene(tree2)], 2)
        w1 = LcfWeights.identity(1, 2)
        w2 = LcfWeights.identity(1, 2)
        split_ind = Individual(
            [Gene(Func(Fn.SIN, (Lcf(1, w1),))), Gene(Func(Fn.TANH, (Lcf(1, w2),)))], 2
        )
        rng = np.random.default_rng(2)
        X = rng.uniform(-2, 2, size=(12, 2))
        y = rng.uniform(-1, 1, size=12)
        model = LinearModel(c0=0.1, c=np.array([0.5, -0.4]))
        table_shared = backward(shared, forward_trace(shared, X), y, model)
        table_split = backward(split_ind, forward_trace(split_ind, X), y, model)
        assert len(table_shared.entries) == 1
        (da, db) = table_shared.entries[w]
        da1, db1 = table_split.entries[w1]
        da2, db2 = table_split.entries[w2]
        assert da == pytest.approx(da1 + da2, rel=1e-12)
        assert np.allclose(db, db1 + db2, rtol=1e-12)

    def test_held_genes_are_swept_by_the_caller_and_replayed_bit_for_bit(self):
        w1, w2 = LcfWeights(0.3, [0.7, -0.2]), LcfWeights(-0.1, [0.4, 0.9])
        held_gene = Gene(Func(Fn.MUL, (Lcf(1, w1), Func(Fn.SIN, (Lcf(2, w2),)))))
        own = Gene(Func(Fn.TANH, (Func(Fn.ADD, (Lcf(2, w2), Var(1))),)))
        ind = Individual([own, held_gene, own], 2)
        rng = np.random.default_rng(3)
        X = rng.uniform(-2, 2, size=(12, 2))
        y = rng.uniform(-1, 1, size=12)
        model = LinearModel(c0=0.1, c=np.array([0.5, -0.4, 1.5]))
        direct = backward(ind, forward_trace(ind, X), y, model)
        assert direct.sinks == []
        held = {held_gene: []}
        deferred = backward(ind, forward_trace(ind, X, held), y, model, held)
        assert len(held[held_gene]) == 1 and held[held_gene][0][2] == []
        assert [len(sink) for sink in deferred.sinks] == [1, 0, 1]
        assert all(d_a == 0.0 for d_a, _ in deferred.entries.values())
        bp._sweep_shared(held_gene, held[held_gene], X)
        assert [len(sink) for sink in deferred.sinks] == [1, 2, 1]
        assert deferred.replay() and deferred.sinks == []
        for w in (w1, w2):
            assert direct.entries[w][0] == deferred.entries[w][0]
            assert direct.entries[w][1].tobytes() == deferred.entries[w][1].tobytes()

    def test_nonfinite_gradient_flags_invalid(self):
        w = LcfWeights(1e308, [1e308])
        ind = Individual([Gene(Func(Fn.POW3, (Lcf(1, w),)))], 1)
        X = np.array([[1.0], [2.0]])
        y = np.array([0.0, 1.0])
        trace = forward_trace(ind, X)
        model = LinearModel(c0=0.0, c=np.array([1.0]))
        table = backward(ind, trace, y, model)
        assert not table.valid
        with pytest.raises(ValueError):
            irprop_minus_step(table)


from gradcheck import (  # noqa: E402  (shared FD protocol lives beside the tests)
    check_gradients_against_fd,
    fd_verifiable_cases,
    random_tunable_individual,
)


class TestGradientOracle:
    def test_random_individuals_match_finite_differences(self):
        rng = np.random.default_rng(42)
        checked, skipped = check_gradients_against_fd(fd_verifiable_cases(rng, 60))
        assert checked >= 150
        assert skipped <= 0.05 * checked


class TestIrprop:
    @staticmethod
    def scalar_table(w, g):
        table = GradientTable([w])
        table.entries[w] = [g, np.zeros(0)]
        return table

    def test_scalar_quadratic_converges(self):
        w = LcfWeights(0.0, [])
        for step in range(100):
            irprop_minus_step(self.scalar_table(w, 2.0 * (w.a - 3.0)))
            if abs(w.a - 3.0) <= 1e-3:
                break
        assert abs(w.a - 3.0) <= 1e-3

    def test_step_size_sequence_under_stable_sign(self):
        w = LcfWeights(0.0, [])
        deltas = []
        for _ in range(3):
            irprop_minus_step(self.scalar_table(w, 1.0))
            deltas.append(w.delta[0])
        assert deltas == pytest.approx([0.1, 0.12, 0.144])

    def test_sign_flip_halves_step_and_freezes_weight(self):
        w = LcfWeights(0.0, [])
        irprop_minus_step(self.scalar_table(w, 1.0))
        after_first = w.a
        delta_before = w.delta[0]
        irprop_minus_step(self.scalar_table(w, -1.0))
        assert w.a == after_first  # no move on the flip iteration
        assert w.delta[0] == pytest.approx(delta_before * 0.5)
        assert w.prev_grad[0] == 0.0

    def test_step_sizes_stay_bounded(self):
        rng = np.random.default_rng(3)
        params = RpropParams()
        w = LcfWeights(0.0, rng.normal(size=3))
        for _ in range(10_000):
            g = rng.normal(size=4) * 10.0 ** float(rng.integers(-12, 12))
            table = GradientTable([w])
            table.entries[w] = [float(g[0]), g[1:]]
            irprop_minus_step(table, params)
            assert np.all(w.delta >= params.delta_min)
            assert np.all(w.delta <= params.delta_max)


class TestStepBudget:
    def test_examples(self):
        budget = StepBudget()
        assert budget.steps_for(10) == 15
        assert budget.steps_for(23) == 2
        assert budget.steps_for(40) == 2

    def test_formula_everywhere(self):
        budget = StepBudget()
        for n in range(1, 200):
            assert budget.steps_for(n) == max(2, 25 - n)


def toy_train(rng, d=2, n=24):
    X = rng.uniform(-2, 2, size=(n, d))
    y = np.tanh(1.5 * X[:, 0] - 0.8 * X[:, (1 if d > 1 else 0)] + 0.3)
    return Dataset("toy", X, y, "train")


class TestTune:
    def test_no_lcf_is_noop(self):
        rng = np.random.default_rng(4)
        train = toy_train(rng)
        ind = Individual([Gene(Func(Fn.SIN, (Var(1),)))], 2)
        assert tune(ind, train) is None

    def test_never_returns_worse_than_received(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            train = toy_train(rng)
            ind = random_tunable_individual(rng, 2)
            if not ind.has_lcf():
                continue
            G = np.column_stack([eval_batch(g.root, train.X) for g in ind.genes])
            before = -np.inf
            if np.isfinite(G).all():
                model = ols_fit(G, train.y)
                pred = model.predict(G)
                if np.isfinite(pred).all():
                    before = r_squared(train.y, pred)
            tune(ind, train, StepBudget())
            G = np.column_stack([eval_batch(g.root, train.X) for g in ind.genes])
            if not np.isfinite(G).all():
                after = -np.inf
            else:
                model = ols_fit(G, train.y)
                after = r_squared(train.y, model.predict(G))
            assert after >= before - 1e-12

    def test_improves_simple_rotated_target(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(-3, 3, size=(40, 2))
        y = np.tanh((X[:, 0] - X[:, 1]) / 2.0)
        train = Dataset("rot", X, y, "train")
        w = LcfWeights.identity(1, 2)
        ind = Individual([Gene(Func(Fn.TANH, (Lcf(1, w),)))], 2)
        for _ in range(20):  # several generations' worth of budget
            tune(ind, train, StepBudget())
        G = np.column_stack([eval_batch(g.root, train.X) for g in ind.genes])
        model = ols_fit(G, train.y)
        assert r_squared(train.y, model.predict(G)) > 0.99


class TestGlobalTune:
    def build_pair(self):
        """Same structure twice: once with private shared weights (S style),
        once bound to a fresh global table."""
        w = LcfWeights.identity(1, 2)
        s_ind = Individual(
            [Gene(Func(Fn.TANH, (Lcf(1, w),))), Gene(Func(Fn.SIN, (Lcf(1, w),)))], 2
        )
        table = GlobalWeightTable(2)
        g_ind = Individual(
            [
                Gene(Func(Fn.TANH, (Lcf(1, table.lookup(1)),))),
                Gene(Func(Fn.SIN, (Lcf(1, table.lookup(1)),))),
            ],
            2,
        )
        return s_ind, w, g_ind, table

    def test_population_of_one_matches_s_mode_tune(self):
        rng = np.random.default_rng(0)
        train = toy_train(rng)
        s_ind, w, g_ind, table = self.build_pair()
        steps = StepBudget(steps=s_ind.total_nodes() + 6, floor=2)
        tune(s_ind, train, steps)
        global_tune([g_ind], table, train, steps=steps.steps_for(s_ind.total_nodes()))
        gw = table.lookup(1)
        assert w.a == gw.a
        assert np.array_equal(w.b, gw.b)

    def test_equal_and_opposite_gradients_cancel(self, monkeypatch):
        rng = np.random.default_rng(8)
        train = toy_train(rng)
        table = GlobalWeightTable(2)
        inds = []
        for _ in range(2):
            inds.append(
                Individual([Gene(Func(Fn.SIN, (Lcf(1, table.lookup(1)),)))], 2)
            )
        sign = {id(inds[0]): 1.0, id(inds[1]): -1.0}

        def crafted_backward(individual, trace, y, model, held=None):
            t = GradientTable(individual.weight_sets())
            s = sign[id(individual)]
            for w in t.entries:
                t.entries[w] = [3.0 * s, np.array([1.0, -2.0]) * s]
            return t

        monkeypatch.setattr(bp, "backward", crafted_backward)
        before = table.lookup(1).values()
        assert counted_updates(monkeypatch, lambda: global_tune(inds, table, train, steps=1)) == 1
        after = table.lookup(1).values()
        assert before[0] == after[0]
        assert np.array_equal(before[1], after[1])

    def test_summed_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        train = toy_train(rng, d=2, n=16)
        table = GlobalWeightTable(2)
        population = []
        tc = TerminalConfig(dim=2, use_lcf=True, lcf_weights=table.lookup)
        while len(population) < 4:
            genes = [
                Gene(random_tree(rng, int(rng.integers(1, 4)), "grow", tc))
                for _ in range(int(rng.integers(1, 3)))
            ]
            ind = Individual(genes, 2)
            if not ind.has_lcf():
                continue
            G = np.column_stack([eval_batch(g.root, train.X) for g in ind.genes])
            if not np.isfinite(G).all() or np.max(np.abs(G)) > 1e3:
                continue
            model = ols_fit(G, train.y)
            if max(abs(model.c0), float(np.max(np.abs(model.c)))) > 1e6:
                continue
            population.append(ind)

        models = {}
        for ind in population:
            G = np.column_stack([eval_batch(g.root, train.X) for g in ind.genes])
            models[id(ind)] = ols_fit(G, train.y)

        total = {w: [0.0, np.zeros(2)] for w in table.weights.values()}
        for ind in population:
            trace = forward_trace(ind, train.X)
            t = backward(ind, trace, train.y, models[id(ind)])
            assert t.valid
            for w, (da, db) in t.entries.items():
                total[w][0] += da
                total[w][1] += db

        def total_loss():
            return sum(sse(ind, train.X, train.y, models[id(ind)]) for ind in population)

        for w in table.weights.values():
            da, db = total[w]
            for analytic, value, setter in [
                (da, w.a, lambda v: setattr(w, "a", v)),
                (db[0], w.b[0], lambda v: w.b.__setitem__(0, v)),
                (db[1], w.b[1], lambda v: w.b.__setitem__(1, v)),
            ]:
                h = 1e-6 * (1.0 + abs(value))
                setter(value + h)
                fp = total_loss()
                setter(value - h)
                fm = total_loss()
                setter(value)
                fd = (fp - fm) / (2 * h)
                scale = max(abs(fd), abs(analytic), 1e-8)
                assert abs(fd - analytic) / scale <= 1e-5
