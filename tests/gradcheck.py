"""Finite-difference verification helpers shared by the gradient tests.

The protocol guards against the two regimes where central differences at
the prescribed step cannot judge a gradient: near-zero partials drowned in
rounding noise (both values below the loss-scaled floor count as a match)
and extreme curvature (detected by comparing two step sizes; such partials
are reported as skipped instead of judged).
"""

import numpy as np

from mggp.backprop import backward, forward_trace
from mggp.evolve import Individual
from mggp.exprtree import (
    Fn,
    Func,
    Gene,
    TerminalConfig,
    eval_batch,
    random_tree,
)
from mggp.fitness import ols_fit


def sse(ind, X, y, model):
    G = np.column_stack([eval_batch(g.root, X) for g in ind.genes])
    yhat = model.c0 + G @ model.c
    return float(np.sum((yhat - y) ** 2))


def random_tunable_individual(rng, d, max_depth=5, n_genes_max=3):
    tc = TerminalConfig(dim=d, use_lcf=True)
    genes = [
        Gene(random_tree(rng, int(rng.integers(1, max_depth + 1)), "grow", tc))
        for _ in range(int(rng.integers(1, n_genes_max + 1)))
    ]
    ind = Individual(genes, d)
    for w in ind.weight_sets():
        w.a += rng.normal() * 0.5
        w.b += rng.normal(size=d) * 0.5
    return ind


def fd_verifiable_cases(rng, count, d_max=3, n=16):
    """Random individuals whose loss is FD-verifiable: finite outputs,
    moderate node values, no sample within 1e-3 of the sinc singularity,
    and a sane (non-collinear) top-level fit."""
    produced = 0
    while produced < count:
        d = int(rng.integers(1, d_max + 1))
        X = rng.uniform(-2, 2, size=(n, d))
        y = rng.uniform(-2, 2, size=n)
        ind = random_tunable_individual(rng, d)
        if not ind.has_lcf():
            continue
        G = np.column_stack([eval_batch(g.root, X) for g in ind.genes])
        if not np.isfinite(G).all():
            continue
        ok = True
        for gene in ind.genes:
            for node in gene.nodes:
                if np.max(np.abs(eval_batch(node, X))) > 1e3:
                    ok = False
                if isinstance(node, Func) and node.kind is Fn.SINC:
                    if np.any(np.abs(eval_batch(node.children[0], X)) < 1e-3):
                        ok = False
        if not ok:
            continue
        model = ols_fit(G, y)
        # keep internal prediction terms moderate: FD noise on the loss scales
        # with the largest |c_k * gene_k| magnitude that cancels inside yhat,
        # and must stay far below the 1e-5 relative tolerance being verified
        terms = np.abs(G) * np.abs(model.c)
        if max(abs(model.c0), float(terms.max(initial=0.0))) > 50.0:
            continue
        if not np.isfinite(sse(ind, X, y, model)):
            continue
        table = backward(ind, forward_trace(ind, X), y, model)
        if not table.valid:
            continue
        produced += 1
        yield ind, X, y, model, table


def check_gradients_against_fd(cases, rel_tol=1e-5):
    """Returns (checked, skipped_unverifiable); raises AssertionError if any
    FD-verifiable partial disagrees beyond rel_tol."""
    checked = skipped = 0
    for ind, X, y, model, table in cases:
        base = sse(ind, X, y, model)
        # the central difference quotient at h ~ 1e-6 resolves the loss to
        # roughly eps * |loss| / h in absolute terms; differences below that
        # are indistinguishable from rounding
        noise = 1e-8 * (1.0 + abs(base))
        for w, (d_a, d_b) in table.entries.items():

            def parts():
                yield d_a, w.a, lambda v: setattr(w, "a", v)
                for j in range(w.dim):
                    yield d_b[j], w.b[j], lambda v, j=j: w.b.__setitem__(j, v)

            for analytic, value, setter in parts():

                def fd_at(h):
                    setter(value + h)
                    fp = sse(ind, X, y, model)
                    setter(value - h)
                    fm = sse(ind, X, y, model)
                    setter(value)
                    return (fp - fm) / (2 * h)

                h = 1e-6 * (1.0 + abs(value))
                fd = fd_at(h)
                checked += 1
                if abs(fd - analytic) <= noise:
                    continue  # agreement within FD resolution
                scale = max(abs(fd), abs(analytic))
                if abs(fd - fd_at(h / 2)) > 2e-6 * scale + noise:
                    skipped += 1  # FD not self-consistent here; cannot judge
                    continue
                rel = abs(fd - analytic) / scale
                assert rel <= rel_tol, f"gradient mismatch: rel={rel:.3e}"
    return checked, skipped
