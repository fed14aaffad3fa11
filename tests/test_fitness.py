import numpy as np
import pytest

from mggp.bench import Dataset
from mggp.errors import DegenerateDataError
from mggp.evolve import Individual
from mggp.exprtree import Const, Fn, Func, Gene, Lcf, LcfWeights, Var
from mggp.fitness import (
    evaluate,
    fit_linear,
    lcf_ratio,
    mean_gene_depth,
    ols_fit,
    r_squared,
)


def dataset(X, y, role="train"):
    return Dataset("t", np.asarray(X, float), np.asarray(y, float), role)


class TestOls:
    def test_exact_linear_relation(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=50)
        y = 2.0 * g + 3.0
        model = ols_fit(g.reshape(-1, 1), y)
        assert model.c0 == pytest.approx(3.0, abs=1e-10)
        assert model.c[0] == pytest.approx(2.0, abs=1e-10)

    def test_zero_column_gets_zero_coefficient(self):
        rng = np.random.default_rng(1)
        G = np.column_stack([rng.normal(size=30), np.zeros(30)])
        y = rng.normal(size=30)
        model = ols_fit(G, y)
        assert model.c[1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n, k = 50, 5
            G = rng.normal(size=(n, k))
            y = rng.normal(size=n)
            model = ols_fit(G, y)
            # independent oracle: solve the normal equations directly
            A = np.column_stack([np.ones(n), G])
            oracle = np.linalg.solve(A.T @ A, A.T @ y)
            got = np.concatenate([[model.c0], model.c])
            assert np.allclose(got, oracle, rtol=1e-8, atol=1e-10)
            r = y - model.predict(G)
            assert np.max(np.abs(A.T @ r)) <= 1e-8 * n

    def test_nonfinite_design_raises(self):
        G = np.array([[1.0], [np.nan]])
        with pytest.raises(ValueError):
            ols_fit(G, np.array([1.0, 2.0]))

    def test_nesting_never_decreases_r2(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = 40
            G = rng.normal(size=(n, 4))
            y = rng.normal(size=n)
            sub = ols_fit(G[:, :3], y)
            full = ols_fit(G, y)
            r2_sub = r_squared(y, sub.predict(G[:, :3]))
            r2_full = r_squared(y, full.predict(G))
            assert r2_full >= r2_sub - 1e-10


class TestRSquared:
    def test_perfect_fit(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r_squared(y, y) == 1.0

    def test_mean_predictor_scores_zero(self):
        y = np.array([1.0, 2.0, 3.0, 6.0])
        yhat = np.full_like(y, y.mean())
        assert r_squared(y, yhat) == pytest.approx(0.0)

    def test_worse_than_mean_is_negative(self):
        y = np.array([1.0, 2.0, 3.0])
        yhat = np.array([10.0, -4.0, 7.0])
        assert r_squared(y, yhat) < 0.0

    def test_constant_target_raises(self):
        with pytest.raises(DegenerateDataError):
            r_squared(np.ones(5), np.zeros(5))

    def test_never_exceeds_one(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            y = rng.normal(size=12)
            yhat = rng.normal(size=12)
            assert r_squared(y, yhat) <= 1.0


class TestEvaluate:
    def test_single_gene_equal_to_target(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-2, 2, size=(30, 2))
        data = dataset(X, X[:, 0])
        ind = Individual([Gene(Var(1))], 2)
        assert evaluate(ind, data) == pytest.approx(1.0)

    def test_overflowing_gene_is_invalid(self):
        X = np.full((10, 1), 50.0)
        data = dataset(X, np.arange(10.0))
        gene = Gene(Func(Fn.EXP, (Func(Fn.POW6, (Var(1),)),)))
        r2 = evaluate(Individual([gene], 1), data)
        assert r2 == -np.inf
        assert r2 < evaluate(Individual([Gene(Var(1))], 1), data)

    def test_two_genes_recover_exact_plane(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(-5, 5, size=(40, 2))
        y = 3.0 * X[:, 0] - X[:, 1] + 5.0
        data = dataset(X, y)
        ind = Individual([Gene(Var(1)), Gene(Var(2))], 2)
        model, r2 = fit_linear(ind, data)
        assert r2 == pytest.approx(1.0, abs=1e-12)
        assert model.c0 == pytest.approx(5.0, abs=1e-9)
        assert np.allclose(model.c, [3.0, -1.0], atol=1e-9)

    def test_evaluate_is_pure(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(-1, 1, size=(20, 2))
        data = dataset(X, X[:, 0] + 0.5 * X[:, 1])
        ind = Individual([Gene(Var(1)), Gene(Var(2))], 2)
        first = evaluate(ind, data)
        second = evaluate(ind, data)
        assert first == second
        assert ind.model is None and ind.fitness is None  # no side effects


class TestMetrics:
    def test_lcf_ratio_three_vars_seven_lcfs(self):
        nodes = [Var(1), Var(2), Var(1)] + [
            Lcf(1, LcfWeights.identity(1, 2)) for _ in range(7)
        ]
        # chain them into one tree with adds
        tree = nodes[0]
        for leaf in nodes[1:]:
            tree = Func(Fn.ADD, (tree, leaf))
        ind = Individual([Gene(tree)], 2)
        assert lcf_ratio(ind) == pytest.approx(0.7)

    def test_lcf_ratio_baseline_zero(self):
        ind = Individual([Gene(Func(Fn.ADD, (Var(1), Const(2.0))))], 1)
        assert lcf_ratio(ind) == 0.0

    def test_lcf_ratio_all_const_zero(self):
        ind = Individual([Gene(Const(1.0)), Gene(Const(2.0))], 1)
        assert lcf_ratio(ind) == 0.0

    def test_mean_gene_depth(self):
        deep = Gene(
            Func(Fn.SIN, (Func(Fn.SIN, (Func(Fn.SIN, (Func(Fn.SIN, (Var(1),)),)),)),))
        )
        assert deep.depth == 4
        assert mean_gene_depth(Individual([deep], 1)) == 4.0
        two = Func(Fn.SIN, (Func(Fn.SIN, (Var(1),)),))
        six = Var(1)
        for _ in range(6):
            six = Func(Fn.SIN, (six,))
        ind = Individual([Gene(two), Gene(six)], 1)
        assert mean_gene_depth(ind) == pytest.approx(4.0)
