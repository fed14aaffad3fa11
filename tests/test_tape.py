"""The gene tape against recursive reference walkers.

The references below are written out here on purpose: a recursive
evaluator and a recursive backward pass with their own operator and
derivative formulas, so the tape's outputs and gradients are checked bit for
bit against an independent implementation.
"""

import numpy as np
import pytest
from scipy.special import expit

from mggp.backprop import backward, forward_trace
from mggp.evolve import Individual
from mggp.exprtree import (
    Const,
    Fn,
    Func,
    Gene,
    Lcf,
    LcfWeights,
    TerminalConfig,
    Var,
    eval_batch,
    iter_nodes,
    logsig_is_increasing,
    random_tree,
    set_logsig_increasing,
)
from mggp.fitness import LinearModel

POWERS = {Fn.POW2: 2, Fn.POW3: 3, Fn.POW4: 4, Fn.POW5: 5, Fn.POW6: 6}


def ref_apply(kind, args):
    x = args[0]
    if kind is Fn.ADD:
        return args[0] + args[1]
    if kind is Fn.SUB:
        return args[0] - args[1]
    if kind is Fn.MUL:
        return args[0] * args[1]
    if kind is Fn.SIN:
        return np.sin(x)
    if kind is Fn.COS:
        return np.cos(x)
    if kind is Fn.EXP:
        return np.exp(x)
    if kind is Fn.LOGSIG:
        return expit(x) if logsig_is_increasing() else expit(-x)
    if kind is Fn.TANH:
        return np.tanh(x)
    if kind is Fn.SINC:
        return np.where(x == 0.0, 1.0, np.sin(x) / x)
    if kind is Fn.SOFTPLUS:
        return np.logaddexp(0.0, x)
    if kind is Fn.GAUSS:
        return np.exp(-np.square(x))
    return x ** POWERS[kind]


def ref_eval(node, X, out=None):
    """Recursive evaluation; records every node's value in ``out``."""
    if isinstance(node, Func):
        value = ref_apply(node.kind, [ref_eval(c, X, out) for c in node.children])
    elif isinstance(node, Const):
        value = np.full(X.shape[0], node.value)
    elif isinstance(node, Var):
        value = X[:, node.index - 1]
    else:
        value = node.weights.a + X @ node.weights.b
    if out is not None:
        out[node] = value
    return value


def ref_derivative(kind, child_values, i):
    x = child_values[0]
    if kind is Fn.ADD:
        return np.ones_like(x)
    if kind is Fn.SUB:
        return np.ones_like(x) if i == 0 else -np.ones_like(x)
    if kind is Fn.MUL:
        return child_values[1 - i]
    if kind is Fn.SIN:
        return np.cos(x)
    if kind is Fn.COS:
        return -np.sin(x)
    if kind is Fn.EXP:
        return np.exp(x)
    if kind is Fn.LOGSIG:
        s = expit(x)
        d = s * (1.0 - s)
        return d if logsig_is_increasing() else -d
    if kind is Fn.TANH:
        t = np.tanh(x)
        return 1.0 - t * t
    if kind is Fn.SINC:
        num = x * np.cos(x) - np.sin(x)
        return np.where(x == 0.0, 0.0, num / np.square(x))
    if kind is Fn.SOFTPLUS:
        return expit(x)
    if kind is Fn.GAUSS:
        return -2.0 * x * np.exp(-np.square(x))
    k = POWERS[kind]
    return k * x ** (k - 1)


def ref_backward_node(node, adjoint, values, X, entries):
    """Pre-order recursive backward pass through one tree."""
    if isinstance(node, Lcf):
        entry = entries[node.weights]
        entry[0] += float(adjoint.sum())
        entry[1] += X.T @ adjoint
        return
    if not isinstance(node, Func):
        return
    child_values = tuple(values[c] for c in node.children)
    for i, child in enumerate(node.children):
        if isinstance(child, (Func, Lcf)):
            d = ref_derivative(node.kind, child_values, i)
            ref_backward_node(child, adjoint * d, values, X, entries)


def ref_gradients(individual, X, y, model):
    values = {}
    entries = {w: [0.0, np.zeros(w.dim)] for w in individual.weight_sets()}
    with np.errstate(all="ignore"):
        for gene in individual.genes:
            ref_eval(gene.root, X, values)
        yhat = model.c0 + sum(c * values[g.root] for c, g in zip(model.c, individual.genes))
        residual2 = 2.0 * (yhat - y)
        for c, gene in zip(model.c, individual.genes):
            if c != 0.0 and gene.has_lcf:
                ref_backward_node(gene.root, residual2 * c, values, X, entries)
    return entries


def pooled_terminals(rng, dim, pool_size=3):
    """LCF leaves draw their weights from a small pool, so sets are shared
    within and across trees."""
    pool = {
        i: [LcfWeights(rng.normal(0, 0.3), rng.normal(0, 0.6, size=dim)) for _ in range(pool_size)]
        for i in range(1, dim + 1)
    }
    return TerminalConfig(
        dim=dim, use_lcf=True, lcf_weights=lambda i: pool[i][int(rng.integers(pool_size))]
    )


def fuzzed_genes(seed, count, dim=3):
    rng = np.random.default_rng(seed)
    tc = pooled_terminals(rng, dim)
    return [
        Gene(random_tree(rng, int(rng.integers(0, 6)), "grow" if k % 2 else "full", tc))
        for k in range(count)
    ], rng


@pytest.fixture(params=[False, True], ids=["logsig-decreasing", "logsig-increasing"])
def logsig_orientation(request):
    before = logsig_is_increasing()
    set_logsig_increasing(request.param)
    yield request.param
    set_logsig_increasing(before)


def test_fuzz_covers_every_operator_and_leaf_kind():
    genes, _ = fuzzed_genes(0, 400)
    kinds = set()
    leaves = set()
    shared = False
    for gene in genes:
        seen = set()
        for node in iter_nodes(gene.root):
            if isinstance(node, Func):
                kinds.add(node.kind)
            else:
                leaves.add(type(node))
            if isinstance(node, Lcf):
                shared |= id(node.weights) in seen
                seen.add(id(node.weights))
    assert kinds == set(Fn)
    assert leaves == {Const, Var, Lcf}
    assert shared


def test_eval_batch_and_trace_roots_match_recursive_evaluator(logsig_orientation):
    genes, rng = fuzzed_genes(1, 400)
    X = rng.uniform(-2.0, 2.0, size=(24, 3))
    X[0] = 0.0  # hits the sinc singularity
    for start in range(0, len(genes), 4):
        ind = Individual(genes[start : start + 4], 3)
        trace = forward_trace(ind, X)
        for gene, root in zip(ind.genes, trace.roots(ind)):
            values = {}
            with np.errstate(all="ignore"):
                expected = ref_eval(gene.root, X, values)
            assert np.array_equal(eval_batch(gene.root, X), expected, equal_nan=True)
            assert np.array_equal(gene.output(X), expected, equal_nan=True)
            assert np.array_equal(root, expected, equal_nan=True)
            for node in iter_nodes(gene.root):
                assert np.array_equal(trace.value(node), values[node], equal_nan=True)


def test_eval_batch_uses_a_gene_tape_only_for_that_gene_root():
    genes, rng = fuzzed_genes(6, 40)
    X = rng.uniform(-2.0, 2.0, size=(10, 3))
    for gene, other in zip(genes, genes[1:]):
        with np.errstate(all="ignore"):
            expected = ref_eval(gene.root, X, {})
        assert np.array_equal(eval_batch(gene.root, X, gene), expected, equal_nan=True)
        assert np.array_equal(eval_batch(gene.root, X, other), expected, equal_nan=True)


def assert_same_gradients(table, expected):
    assert list(table.entries) == list(expected)
    for w, (d_a, d_b) in table.entries.items():
        ref_a, ref_b = expected[w]
        assert np.array_equal([d_a], [ref_a], equal_nan=True)
        assert np.array_equal(d_b, ref_b, equal_nan=True)


def test_backward_matches_recursive_reference_bit_for_bit(logsig_orientation):
    genes, rng = fuzzed_genes(3, 480)
    X = rng.uniform(-1.5, 1.5, size=(20, 3))
    y = rng.normal(size=20)
    checked = 0
    for start in range(0, len(genes), 4):
        ind = Individual(genes[start : start + 4], 3)
        if not ind.has_lcf():
            continue
        c = rng.normal(size=len(ind.genes))
        c[rng.random(c.size) < 0.2] = 0.0
        model = LinearModel(c0=float(rng.normal()), c=c)
        table = backward(ind, forward_trace(ind, X), y, model)
        assert_same_gradients(table, ref_gradients(ind, X, y, model))
        checked += 1
    assert checked > 50


def test_backward_with_the_same_gene_object_twice():
    # the globally synchronised mode lets one gene object appear twice
    genes, rng = fuzzed_genes(4, 200)
    X = rng.uniform(-1.5, 1.5, size=(12, 3))
    y = rng.normal(size=12)
    checked = 0
    for gene, other in zip(genes[::2], genes[1::2]):
        if not gene.has_lcf:
            continue
        ind = Individual([gene, other, gene], 3)
        model = LinearModel(c0=0.1, c=rng.normal(size=3))
        trace = forward_trace(ind, X)
        assert len(trace.slots) == 2
        assert_same_gradients(backward(ind, trace, y, model), ref_gradients(ind, X, y, model))
        checked += 1
    assert checked > 20


def test_structural_measures_come_from_one_walk():
    genes, _ = fuzzed_genes(5, 100)
    for gene in genes:
        nodes = list(iter_nodes(gene.root))
        assert gene.node_count == len(nodes) == len(gene.nodes)
        assert set(map(id, gene.nodes)) == set(map(id, nodes))
        assert gene.has_lcf == any(isinstance(n, Lcf) for n in nodes)
        pre_order_lcfs = [n for n in nodes if isinstance(n, Lcf)]
        assert gene.lcf_leaves() == pre_order_lcfs
        # postfix: every operator comes after its children
        slot = {id(n): i for i, n in enumerate(gene.nodes)}
        for node in nodes:
            if isinstance(node, Func):
                assert all(slot[id(c)] < slot[id(node)] for c in node.children)
        assert gene.nodes[-1] is gene.root


def test_a_token_trace_reads_lcf_free_roots_through_the_gene_cache():
    # tuning passes the dataset token; a gene without LCF leaves then keeps
    # only its cached root, and nothing downstream may differ
    genes, rng = fuzzed_genes(7, 240)
    X = rng.uniform(-1.5, 1.5, size=(12, 3))
    y = rng.normal(size=12)
    token = object()
    checked = 0
    for start in range(0, len(genes), 4):
        ind = Individual(genes[start : start + 4], 3)
        cached = forward_trace(ind, X, token)
        plain = forward_trace(ind, X)
        for gene in ind.genes:
            if gene.has_lcf:
                continue
            assert cached.slots[gene][-1] is gene.output(X, token)
            assert cached.slots[gene][:-1] == [None] * (gene.node_count - 1)
            assert np.array_equal(cached.slots[gene][-1], plain.slots[gene][-1], equal_nan=True)
            for node in iter_nodes(gene.root):
                assert np.array_equal(cached.value(node), plain.value(node), equal_nan=True)
            checked += 1
        if ind.has_lcf():
            model = LinearModel(c0=0.2, c=rng.normal(size=len(ind.genes)))
            assert_same_gradients(backward(ind, cached, y, model), ref_gradients(ind, X, y, model))
    assert checked > 20
