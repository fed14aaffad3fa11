"""Top-level linear model over gene outputs, R-squared fitness and metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError
from .exprtree import Lcf, Var


@dataclass(frozen=True)
class LinearModel:
    """Fitted combination ``y ~ c0 + G @ c`` of per-gene outputs."""

    c0: float
    c: np.ndarray

    def predict(self, G: np.ndarray) -> np.ndarray:
        return self.c0 + G @ self.c


def ols_fit(G, y) -> LinearModel:
    """Least-squares fit of ``y ~ c0 + G @ c``.

    Uses an orthogonal decomposition, so rank-deficient designs get the
    minimum-norm coefficient vector (an all-zero gene column receives an
    exactly zero coefficient).
    """
    G = np.asarray(G, dtype=float)
    y = np.asarray(y, dtype=float)
    if G.ndim != 2:
        raise ValueError("G must be 2-d (samples x genes)")
    if not np.isfinite(G).all():
        raise ValueError("design matrix contains non-finite entries")
    n, k = G.shape
    A = np.empty((n, k + 1))
    A[:, 0] = 1.0
    A[:, 1:] = G
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return LinearModel(c0=float(coef[0]), c=coef[1:])


def r_squared(y, yhat) -> float:
    """Coefficient of determination, ``1 - SS_res / SS_tot``.

    Negative when the fit is worse than the constant mean predictor.
    """
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if y.shape != yhat.shape or y.ndim != 1 or y.shape[0] < 2:
        raise ValueError("y and yhat must be equal-length vectors of >= 2 values")
    # np.add.reduce is the pairwise sum under y.mean() and np.sum; a dot
    # product would round differently.
    d = y - np.add.reduce(y) / y.shape[0]
    ss_tot = float(np.add.reduce(np.multiply(d, d, out=d)))
    if ss_tot == 0.0:
        raise DegenerateDataError("target values are constant; R^2 is undefined")
    d = np.subtract(y, yhat, out=d)
    ss_res = float(np.add.reduce(np.multiply(d, d, out=d)))
    return 1.0 - ss_res / ss_tot


def fit_and_score(columns, y) -> tuple[LinearModel | None, float]:
    """Fit ``y ~ c0 + sum_k c_k * columns[k]`` by OLS and score it by R^2.

    Returns ``(None, -inf)`` when any column entry, coefficient or the R^2
    is non-finite, so an invalid fit ranks below every valid one.
    """
    y = np.asarray(y, dtype=float)
    G = np.empty((y.shape[0], len(columns)))
    for j, column in enumerate(columns):
        G[:, j] = column
    if not np.isfinite(G).all():  # ols_fit raises on it; here it is a verdict
        return None, -np.inf
    model = ols_fit(G, y)
    if not (math.isfinite(model.c0) and all(map(math.isfinite, model.c.tolist()))):
        return None, -np.inf
    r2 = r_squared(y, model.predict(G))
    if not math.isfinite(r2):
        return None, -np.inf
    return model, r2


def fit_linear(individual, data) -> tuple[LinearModel | None, float]:
    """Fit the top-level model of ``individual`` on ``data`` and score it.

    Pure: caches live on genes, never on the result.
    """
    return fit_and_score(individual.gene_outputs(data), data.y)


def evaluate(individual, data) -> float:
    """Training fitness of ``individual`` on ``data``: R^2 (maximised), or
    ``-inf`` when the fit is invalid."""
    return fit_linear(individual, data)[1]


def lcf_ratio(individual) -> float:
    """Fraction of non-constant leaves that are LCF leaves (0 if none)."""
    n_lcf = 0
    n_var = 0
    for gene in individual.genes:
        for node in gene.nodes:
            if isinstance(node, Lcf):
                n_lcf += 1
            elif isinstance(node, Var):
                n_var += 1
    total = n_lcf + n_var
    return n_lcf / total if total else 0.0


def mean_gene_depth(individual) -> float:
    """Arithmetic mean of per-gene depths."""
    if not individual.genes:
        raise ValueError("individual has no genes")
    return sum(g.depth for g in individual.genes) / len(individual.genes)
