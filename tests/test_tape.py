"""The gene tape against recursive reference walkers.

The references below are written out here on purpose: a recursive
evaluator and a recursive backward pass with their own operator and
derivative formulas, so the tape's outputs and gradients are checked bit for
bit against an independent implementation.  Picking, editing and copying by
tape slot are checked the same way, against path-addressed recursive
references.
"""

import functools

import numpy as np
import pytest
from scipy.special import expit

from mggp import exprtree
from mggp.backprop import backward, forward_trace
from mggp.bench import Dataset
from mggp.evolve import Engine, EngineConfig, Individual, ModeConfig
from mggp.exprtree import (
    SLOT,
    Const,
    Fn,
    Func,
    Gene,
    Lcf,
    LcfWeights,
    TerminalConfig,
    Var,
    eval_batch,
    format_tree,
    pick_node,
    random_tree,
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
        return expit(-x)
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
        return -(s * (1.0 - s))
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


def test_fuzz_covers_every_operator_and_leaf_kind():
    genes, _ = fuzzed_genes(0, 400)
    kinds = set()
    leaves = set()
    shared = False
    for gene in genes:
        seen = set()
        for node in gene.nodes:
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


def test_eval_batch_and_trace_roots_match_recursive_evaluator():
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
            # a gene without LCF leaves records only its root
            for node, value in zip(gene.nodes, trace.slots[gene]):
                if gene.has_lcf or node is gene.root:
                    assert np.array_equal(value, values[node], equal_nan=True)
                else:
                    assert value is None
                    assert np.array_equal(eval_batch(node, X), values[node], equal_nan=True)


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


def test_backward_matches_recursive_reference_bit_for_bit():
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
        nodes = [node for _, node in ref_iter_paths(gene.root)]  # pre-order
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


def test_a_trace_reads_lcf_free_roots_through_the_gene_cache():
    # a gene without LCF leaves keeps only its cached root, and nothing
    # downstream may differ
    genes, rng = fuzzed_genes(7, 240)
    X = rng.uniform(-1.5, 1.5, size=(12, 3))
    y = rng.normal(size=12)
    checked = 0
    for start in range(0, len(genes), 4):
        ind = Individual(genes[start : start + 4], 3)
        trace = forward_trace(ind, X)
        for gene in ind.genes:
            if gene.has_lcf:
                continue
            assert trace.slots[gene][-1] is gene.output(X)
            assert trace.slots[gene][:-1] == [None] * (gene.node_count - 1)
            with np.errstate(all="ignore"):
                expected = ref_eval(gene.root, X)
            assert np.array_equal(trace.slots[gene][-1], expected, equal_nan=True)
            checked += 1
        if ind.has_lcf():
            model = LinearModel(c0=0.2, c=rng.normal(size=len(ind.genes)))
            assert_same_gradients(backward(ind, trace, y, model), ref_gradients(ind, X, y, model))
    assert checked > 20


# ---------------------------------------------------------------------------
# node addressing by tape slot, against the path-based references below: a
# path is a tuple of child positions from the root, numbered in pre-order


def ref_iter_paths(root):
    stack = [((), root)]
    while stack:
        path, node = stack.pop()
        yield path, node
        if isinstance(node, Func):
            for i in range(len(node.children) - 1, -1, -1):
                stack.append((path + (i,), node.children[i]))


def ref_node_at(root, path):
    for i in path:
        root = root.children[i]
    return root


def ref_pick_node(rng, root):
    paths = [p for p, _ in ref_iter_paths(root)]
    return paths[int(rng.integers(len(paths)))]


def ref_replace_subtree(root, path, sub):
    if not path:
        return sub
    children = list(root.children)
    children[path[0]] = ref_replace_subtree(children[path[0]], path[1:], sub)
    return Func(root.kind, children)


def ref_copy_tree(root, copy_weights):
    if isinstance(root, Func):
        return Func(root.kind, tuple(ref_copy_tree(c, copy_weights) for c in root.children))
    if isinstance(root, Const):
        return Const(root.value)
    if isinstance(root, Var):
        return Var(root.index)
    return Lcf(root.index, copy_weights(root.weights))


def post_order_paths(root, path=()):
    """The path of every tape slot, in slot order."""
    if isinstance(root, Func):
        for i, child in enumerate(root.children):
            yield from post_order_paths(child, path + (i,))
    yield path


def test_pick_node_draws_like_the_path_walk():
    genes, _ = fuzzed_genes(8, 300)
    rng = np.random.default_rng(80)
    twin = np.random.default_rng(80)
    for gene in genes:
        slot_paths = list(post_order_paths(gene.root))
        for _ in range(4):
            path = ref_pick_node(twin, gene.root)
            slot, level = pick_node(rng, gene)
            assert rng.bit_generator.state == twin.bit_generator.state
            assert slot_paths[slot] == path
            assert gene.nodes[slot] is ref_node_at(gene.root, path)
            assert level == len(path)


def test_replace_subtree_matches_the_path_edit_and_shares_the_rest():
    genes, rng = fuzzed_genes(9, 300)
    tc = pooled_terminals(rng, 3)
    for gene in genes:
        slot_paths = list(post_order_paths(gene.root))
        for slot in rng.integers(0, gene.node_count, size=3):
            sub = random_tree(rng, int(rng.integers(0, 3)), "grow", tc)
            path = slot_paths[slot]
            edited = gene.replace({int(slot): sub})
            out = edited.root
            assert format_tree(out) == format_tree(ref_replace_subtree(gene.root, path, sub))
            new, old = out, gene.root
            for i in path:  # off the edited path every subtree is the original's
                assert all(a is b for k, (a, b) in enumerate(zip(new.children, old.children))
                           if k != i)
                new, old = new.children[i], old.children[i]
            assert new is sub
            assert edited.program == Gene(ref_replace_subtree(gene.root, path, sub)).program


@pytest.mark.parametrize("shared", [False, True])
def test_gene_copy_reuses_the_tape_and_copies_the_lcf_leaves(shared):
    genes, rng = fuzzed_genes(11, 300)
    X = rng.uniform(-1.5, 1.5, size=(12, 3))
    checked = 0
    for gene in genes:
        seen, ref_seen = [], []

        def fresh_set(w, log):
            log.append(w)
            return w.copy()

        new_set = functools.cache(LcfWeights.copy) if shared else (lambda w: fresh_set(w, seen))
        ref_set = functools.cache(LcfWeights.copy) if shared else (lambda w: fresh_set(w, ref_seen))
        copy = gene.replace({slot: Lcf(n.index, new_set(n.weights))
                             for slot, n in enumerate(gene.nodes) if isinstance(n, Lcf)})
        assert format_tree(copy.root) == format_tree(ref_copy_tree(gene.root, ref_set))
        assert seen == ref_seen  # once per leaf, left to right
        fresh = Gene(copy.root)
        assert copy.program is gene.program and copy.program == fresh.program
        assert copy.nodes == fresh.nodes  # the same node objects, in slot order
        assert (copy.depth, copy.node_count, copy.has_lcf) == (
            fresh.depth, fresh.node_count, fresh.has_lcf)
        for slot, (old, new) in enumerate(zip(gene.nodes, copy.nodes)):
            if gene.program[SLOT * slot + 1]:  # the subtree holds an LCF leaf
                assert new is not old
            else:
                assert new is old  # immutable, so shared
        sets = {}
        for old, new in zip(gene.lcf_leaves(), copy.lcf_leaves()):
            assert new.weights is not old.weights and new.weights.values_equal(old.weights)
            if shared:  # one new set per old set
                assert sets.setdefault(id(old.weights), new.weights) is new.weights
        if not shared:
            assert len({id(n.weights) for n in copy.lcf_leaves()}) == len(copy.lcf_leaves())
        with np.errstate(all="ignore"):
            assert np.array_equal(copy.output(X), gene.output(X), equal_nan=True)
        checked += gene.has_lcf
    assert checked > 100


def subtree_sizes(gene):
    """The node count of every slot's subtree, in slot order."""
    sizes = []
    for slot in range(gene.node_count):
        a, b = gene.program[SLOT * slot + 2], gene.program[SLOT * slot + 3]
        sizes.append(1 + (sizes[a] if a >= 0 else 0) + (sizes[b] if b >= 0 else 0))
    return sizes


def disjoint_slots(rng, gene, k):
    """Up to ``k`` random slots of ``gene`` none of which lies in another's
    subtree; in a postfix tape slot ``s`` spans ``s - size + 1 .. s``."""
    sizes, spans = subtree_sizes(gene), []
    for slot in rng.permutation(gene.node_count)[:k]:
        lo, hi = slot - sizes[slot] + 1, slot
        if all(hi < a or b < lo for a, b in spans):
            spans.append((lo, hi))
    return [hi for _, hi in spans]


def assert_shares_untouched(new, old, changes, path=()):
    """``new`` holds ``changes[path]`` at each changed path, the very node of
    ``old`` off the changed paths, and a new operator node above a change."""
    if path in changes:
        assert new is changes[path]
    elif not any(p[: len(path)] == path for p in changes):
        assert new is old
    else:
        assert isinstance(new, Func) and new is not old and new.kind is old.kind
        for i, (a, b) in enumerate(zip(new.children, old.children)):
            assert_shares_untouched(a, b, changes, path + (i,))


def test_replace_matches_a_fresh_compile_and_keeps_the_tape_for_same_class_leaves():
    genes, rng = fuzzed_genes(12, 400)
    tc = pooled_terminals(rng, 3)
    kept = compiled = 0
    for gene, donor in zip(genes, genes[1:] + genes[:1]):
        slot_paths = list(post_order_paths(gene.root))
        for _ in range(3):
            slots = disjoint_slots(rng, gene, int(rng.integers(1, 4)))
            same_class = rng.random() < 0.4  # leaves of the class each slot holds
            changes = {}
            for slot in slots:
                old = gene.nodes[slot]
                kind = int(rng.integers(5))
                if same_class and not isinstance(old, Func):
                    kind = 2 + [Const, Var, Lcf].index(type(old))
                if kind == 0:  # a donor subtree
                    new = donor.nodes[int(rng.integers(donor.node_count))]
                elif kind == 1:  # a grown tree
                    new = random_tree(rng, int(rng.integers(0, 4)), "grow", tc)
                elif kind == 2:
                    new = Const(rng.uniform(-10.0, 10.0))
                elif kind == 3:
                    new = Var(int(rng.integers(1, 4)))
                else:
                    new = tc.new_lcf(int(rng.integers(1, 4)))
                changes[int(slot)] = new
            out = gene.replace(changes)
            ref = gene.root
            for slot, new in changes.items():
                ref = ref_replace_subtree(ref, slot_paths[slot], new)
            fresh = Gene(ref)
            assert format_tree(out.root) == format_tree(ref)
            assert out.program == fresh.program
            assert (out.depth, out.node_count, out.has_lcf) == (
                fresh.depth, fresh.node_count, fresh.has_lcf)
            assert [format_tree(n) for n in out.nodes] == [format_tree(n) for n in fresh.nodes]
            assert_shares_untouched(out.root, gene.root,
                                    {slot_paths[slot]: new for slot, new in changes.items()})
            leaves = all(type(new) is type(gene.nodes[slot]) and not isinstance(new, Func)
                         for slot, new in changes.items())
            assert (out.program is gene.program) == leaves
            kept += leaves
            compiled += not leaves
    assert kept > 100 and compiled > 100


@pytest.mark.parametrize("codename", ["baseline", "UM", "SB", "GC"])
def test_copies_constant_offsets_and_leaf_grafts_compile_nothing(codename, monkeypatch):
    rng = np.random.default_rng(13)
    X = rng.uniform(-1.0, 1.0, size=(30, 2))
    mode = ModeConfig.from_codename(codename)
    engine = Engine(EngineConfig.for_mode(mode), mode,
                    Dataset("toy", X, X[:, 0] - X[:, 1], "train"), rng)
    pop = engine.init_population()
    compiled = []
    compile_tree = exprtree.compile_tree
    monkeypatch.setattr(exprtree, "compile_tree",
                        lambda root: compiled.append(root) or compile_tree(root))
    leaves = [next(s for s, n in enumerate(ind.genes[0].nodes) if not isinstance(n, Func))
              for ind in pop]
    offsets = 0
    for ind, leaf in zip(pop, leaves):
        engine.clone_individual(ind)
        engine.clone_individual(ind, detach=True, fresh=True)
        if any(isinstance(n, Const) for gene in ind.genes for n in gene.nodes):
            engine.constant_mutation(ind)
            offsets += 1
        engine._graft(ind, 0, leaf, ind.genes[0].nodes[leaf])  # a leaf of the same class
    assert compiled == [] and offsets > 10
    for ind, leaf in zip(pop, leaves):  # a graft that changes the shape compiles once
        child = engine._graft(ind, 0, leaf, Func(Fn.SIN, (Var(1),)))
        assert len(compiled) == 1
        assert format_tree(compiled.pop()) == format_tree(child.genes[0].root)
