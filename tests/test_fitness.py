from collections import Counter

import numpy as np
import pytest

import mggp.backprop as bp
import mggp.fitness as fitness
from mggp.bench import Dataset
from mggp.errors import DegenerateDataError
from mggp.evolve import Engine, EngineConfig, Individual, ModeConfig
from mggp.exprtree import Const, Fn, Func, Gene, Lcf, LcfWeights, Var
from mggp.fitness import (
    LinearModel,
    evaluate,
    fit_and_score,
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


# ---------------------------------------------------------------------------
# the lean fit-and-score against the one it replaced
#
# ``ref_ols_fit``, ``ref_r_squared`` and ``ref_fit_and_score`` are copies of
# the earlier implementations: two ``column_stack`` calls, a finiteness check
# in each of ``fit_and_score`` and ``ols_fit``, ``y.mean()`` and ``np.sum``.
# On fuzzed designs the lean path must give the same coefficients and R^2,
# bit for bit, and the same verdict on every invalid or degenerate fit.


def ref_ols_fit(G, y):
    G = np.asarray(G, dtype=float)
    y = np.asarray(y, dtype=float)
    if G.ndim != 2:
        raise ValueError("G must be 2-d (samples x genes)")
    if not np.isfinite(G).all():
        raise ValueError("design matrix contains non-finite entries")
    A = np.column_stack([np.ones(G.shape[0]), G])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return LinearModel(c0=float(coef[0]), c=coef[1:])


def ref_r_squared(y, yhat):
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if y.shape != yhat.shape or y.ndim != 1 or y.shape[0] < 2:
        raise ValueError("y and yhat must be equal-length vectors of >= 2 values")
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise DegenerateDataError("target values are constant; R^2 is undefined")
    ss_res = float(np.sum((y - yhat) ** 2))
    return 1.0 - ss_res / ss_tot


def ref_fit_and_score(columns, y):
    y = np.asarray(y, dtype=float)
    G = np.column_stack(columns)
    if not np.isfinite(G).all():
        return None, -np.inf
    model = ref_ols_fit(G, y)
    if not (np.isfinite(model.c0) and np.isfinite(model.c).all()):
        return None, -np.inf
    r2 = ref_r_squared(y, model.predict(G))
    if not np.isfinite(r2):
        return None, -np.inf
    return model, r2


def fuzzed_design(rng):
    """Gene columns and a target: n = 2..1024 rows, 1..10 columns, some of
    them duplicates, zeros, constants or holding NaN/inf entries, at
    magnitudes up to 1e+-300; the target is noise, a near-exact combination
    of the columns, or constant."""
    n = int(rng.choice([2, 3, 4, int(rng.integers(5, 64)), int(rng.integers(64, 1025))]))
    k = int(rng.integers(1, 11))
    scale = 10.0 ** float(rng.choice([0, 0, 0, int(rng.integers(-300, 301))]))
    columns = []
    for _ in range(k):
        kind = rng.integers(8)
        if kind == 0 and columns:
            column = columns[int(rng.integers(len(columns)))].copy()
        elif kind == 1:
            column = np.zeros(n)
        elif kind == 2:
            column = np.full(n, rng.normal() * scale)
        elif kind == 3:
            column = rng.integers(-3, 4, size=n).astype(float)
        else:
            column = rng.normal(size=n) * scale * 10.0 ** float(rng.integers(-3, 4))
        columns.append(column)
    if rng.random() < 0.06:
        columns[int(rng.integers(k))][int(rng.integers(n))] = rng.choice([np.nan, np.inf, -np.inf])
    shape = rng.integers(5)
    if shape == 0:
        y = np.full(n, rng.normal())
    elif shape == 1:
        with np.errstate(all="ignore"):
            y = 1.5 + sum(rng.normal() * c for c in columns) + 1e-9 * rng.normal(size=n)
    else:
        y = rng.normal(size=n) * 10.0 ** float(rng.choice([0, int(rng.integers(-300, 301))]))
    return columns, y


def bits(value):
    return np.float64(value).tobytes()


def outcome(fit, columns, y):
    """What a fit-and-score gives, as bytes: ``None`` and the R^2 of an
    invalid fit, the raised type of a degenerate one, or c0, c and R^2."""
    with np.errstate(all="ignore"):
        try:
            model, r2 = fit(columns, y)
        except DegenerateDataError:
            return "degenerate"
    assert type(r2) is float
    if model is None:
        return None, bits(r2)
    return bits(model.c0), model.c.tobytes(), bits(r2)


def test_fit_and_score_keeps_the_bits_of_the_two_pass_version():
    rng = np.random.default_rng(2024)
    verdicts = Counter()
    for _ in range(5000):
        columns, y = fuzzed_design(rng)
        got = outcome(fit_and_score, columns, y)
        assert got == outcome(ref_fit_and_score, columns, y)
        if got == "degenerate" or got[0] is not None:
            verdicts["degenerate" if got == "degenerate" else "valid"] += 1
        else:
            finite = np.isfinite(np.column_stack(columns)).all()
            verdicts["invalid fit" if finite else "invalid columns"] += 1
    assert len(verdicts) == 4 and min(verdicts.values()) >= 100, verdicts


def test_ols_fit_and_r_squared_keep_their_bits():
    rng = np.random.default_rng(77)

    def score(r2, y, yhat):
        try:
            return bits(r2(y, yhat))
        except DegenerateDataError:  # also when the squares underflow to 0
            return "degenerate"

    for _ in range(500):
        columns, y = fuzzed_design(rng)
        G = np.column_stack(columns)
        if not np.isfinite(G).all():
            continue
        with np.errstate(all="ignore"):
            model, ref = ols_fit(G, y), ref_ols_fit(G, y)
            assert (bits(model.c0), model.c.tobytes()) == (bits(ref.c0), ref.c.tobytes())
            yhat = y + rng.normal(size=len(y)) * rng.choice([0.0, 1e-3, 1.0])
            assert score(r_squared, y, yhat) == score(ref_r_squared, y, yhat)


# ---------------------------------------------------------------------------
# every fit reaches ols_fit and r_squared through the module, once each


@pytest.fixture
def fit_calls(monkeypatch):
    """Counts the calls of ``fitness.ols_fit`` and ``fitness.r_squared``."""
    calls = Counter()
    for name in ("ols_fit", "r_squared"):
        def counted(*args, _name=name, _original=getattr(fitness, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(fitness, name, counted)
    return calls


def counting_fits(monkeypatch):
    """Patches backprop's ``fit_and_score`` to count the valid fits."""
    fits = Counter()

    def counted(columns, y):
        model, r2 = fit_and_score(columns, y)
        fits["valid" if model is not None else "invalid"] += 1
        return model, r2

    monkeypatch.setattr(bp, "fit_and_score", counted)
    return fits


def test_fit_and_score_calls_ols_fit_and_r_squared_once_per_valid_fit(fit_calls):
    x = np.linspace(-1.0, 1.0, 20)
    assert fit_and_score([x, x ** 2], x ** 3)[0] is not None
    assert fit_calls == {"ols_fit": 1, "r_squared": 1}
    assert fit_and_score([x, np.full(20, np.inf)], x ** 3) == (None, -np.inf)
    assert fit_calls == {"ols_fit": 1, "r_squared": 1}  # non-finite columns stop first


def test_engine_evaluate_reaches_ols_fit_and_r_squared(fit_calls):
    mode = ModeConfig.from_codename("baseline")
    rng = np.random.default_rng(3)
    X = rng.uniform(-2.0, 2.0, size=(30, 2))
    engine = Engine(EngineConfig.for_mode(mode), mode,
                    dataset(X, np.sin(X[:, 0]) + X[:, 1]), rng)
    ind = Individual([Gene(Func(Fn.SIN, (Var(1),))), Gene(Var(2))], 2)
    assert engine.evaluate(ind) > 0.99
    assert fit_calls == {"ols_fit": 1, "r_squared": 1}


def lcf_case(weights):
    rng = np.random.default_rng(4)
    X = rng.uniform(-2.0, 2.0, size=(30, 2))
    data = dataset(X, np.tanh(X[:, 0] - 0.5 * X[:, 1]))
    genes = [Gene(Func(Fn.TANH, (Lcf(1, weights(1)),))), Gene(Lcf(2, weights(2)))]
    return genes, data


def test_tune_reaches_ols_fit_and_r_squared_once_per_valid_fit(monkeypatch, fit_calls):
    fits = counting_fits(monkeypatch)
    genes, data = lcf_case(lambda i: LcfWeights.identity(i, 2))
    bp.tune(Individual(genes, 2), data, bp.StepBudget(8, 8))
    assert fits["valid"] > 1 and not fits["invalid"]
    assert fit_calls == {"ols_fit": fits["valid"], "r_squared": fits["valid"]}


def test_global_tune_reaches_ols_fit_and_r_squared_once_per_valid_fit(monkeypatch, fit_calls):
    fits = counting_fits(monkeypatch)
    table = bp.GlobalWeightTable(2)
    genes, data = lcf_case(table.lookup)
    population = [Individual(genes, 2), Individual(genes[:1], 2)]
    bp.global_tune(population, table, data, steps=3)
    assert fits["valid"] > 1 and not fits["invalid"]
    assert fit_calls == {"ols_fit": fits["valid"], "r_squared": fits["valid"]}
