"""Tune LCF weights by backpropagation with iRprop- updates.

A single tanh(LCF) model has to discover the rotated ridge inside
y = tanh((x1 - x2) / 2): the leaf starts as the identity transform of x1
and the sign-based updates walk it onto the right linear combination.
"""

import numpy as np

from mggp import (
    Dataset,
    Fn,
    Func,
    Gene,
    Individual,
    Lcf,
    LcfWeights,
    StepBudget,
    eval_batch,
    ols_fit,
    r_squared,
    tune,
)

rng = np.random.default_rng(1)
X = rng.uniform(-3, 3, size=(60, 2))
y = np.tanh((X[:, 0] - X[:, 1]) / 2.0)
train = Dataset("rotated-ridge", X, y, "train")

weights = LcfWeights.identity(1, 2)
individual = Individual([Gene(Func(Fn.TANH, (Lcf(1, weights),)))], 2)


def training_r2(ind):
    G = np.column_stack([eval_batch(g.root, train.X) for g in ind.genes])
    model = ols_fit(G, train.y)
    return r_squared(train.y, model.predict(G))


print(f"start:  R2 = {training_r2(individual):.4f}   weights a={weights.a:+.3f} b={weights.b}")
for round_no in range(1, 9):
    # tune returns the fit of the weights it leaves, made during the descent
    model, r2 = tune(individual, train, StepBudget())
    assert r2 == training_r2(individual)
    print(
        f"round {round_no}: R2 = {r2:.6f}   y ~ {model.c0:+.3f} {model.c[0]:+.3f} * gene   "
        f"a={weights.a:+.3f} b={np.round(weights.b, 3)}"
    )

print("\nThe multiplicative weights settle on a multiple of (1, -1): the")
print("rotation the target hides, recovered without structural search.")
