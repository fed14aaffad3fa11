import functools
import math

import numpy as np
import pytest

from mggp.errors import StructuralError
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
    format_tree,
    parse_tree,
    pick_node,
    random_tree,
    logsig_is_increasing,
)


def lcf(index, a, b):
    return Lcf(index, LcfWeights(a, b))


def copy_lcf_leaves(gene, copy_weights):
    """``gene`` with new LCF leaves, each holding ``copy_weights(old set)`` in
    slot order, as the engine copies an individual's genes."""
    return gene.replace({slot: Lcf(n.index, copy_weights(n.weights))
                         for slot, n in enumerate(gene.nodes) if isinstance(n, Lcf)})


class Draw:
    """A random source whose one integer draw is ``k``."""

    def __init__(self, k):
        self.k = k

    def integers(self, n):
        assert 0 <= self.k < n
        return self.k


class TestEval:
    def test_identity_lcf_equals_var(self):
        X = np.array([[7.0, -2.0]])
        out = eval_batch(Lcf(1, LcfWeights.identity(1, 2)), X)
        assert out[0] == 7.0

    def test_lcf_affine(self):
        out = eval_batch(lcf(1, 1.0, [2.0, 3.0]), np.array([[1.0, 1.0]]))
        assert out[0] == 6.0

    def test_sinc_and_gauss_at_zero(self):
        X = np.zeros((1, 1))
        assert eval_batch(Func(Fn.SINC, (Var(1),)), X)[0] == 1.0
        assert eval_batch(Func(Fn.GAUSS, (Var(1),)), X)[0] == 1.0

    def test_pow6(self):
        assert eval_batch(Func(Fn.POW6, (Const(2.0),)), np.zeros((1, 1)))[0] == 64.0

    def test_all_kinds_forward_values(self):
        x = 0.7
        X = np.array([[x, 2.0]])
        expected = {
            Fn.SIN: math.sin(x),
            Fn.COS: math.cos(x),
            Fn.EXP: math.exp(x),
            Fn.LOGSIG: 1.0 / (1.0 + math.exp(x)),
            Fn.TANH: math.tanh(x),
            Fn.SINC: math.sin(x) / x,
            Fn.SOFTPLUS: math.log1p(math.exp(x)),
            Fn.GAUSS: math.exp(-x * x),
            Fn.POW2: x**2,
            Fn.POW3: x**3,
            Fn.POW4: x**4,
            Fn.POW5: x**5,
            Fn.POW6: x**6,
        }
        for kind, want in expected.items():
            got = eval_batch(Func(kind, (Var(1),)), X)[0]
            assert got == pytest.approx(want, rel=1e-14), kind
        assert eval_batch(Func(Fn.ADD, (Var(1), Var(2))), X)[0] == pytest.approx(x + 2)
        assert eval_batch(Func(Fn.SUB, (Var(1), Var(2))), X)[0] == pytest.approx(x - 2)
        assert eval_batch(Func(Fn.MUL, (Var(1), Var(2))), X)[0] == pytest.approx(2 * x)

    def test_logsig_is_the_decreasing_logistic(self):
        X = np.array([[2.0], [-3.0]])
        out = eval_batch(Func(Fn.LOGSIG, (Var(1),)), X)
        assert out[0] == pytest.approx(1 / (1 + math.exp(2.0)))
        assert out[1] == pytest.approx(1 / (1 + math.exp(-3.0)))
        assert logsig_is_increasing() is False

    def test_nonfinite_propagates(self):
        tree = Func(Fn.EXP, (Func(Fn.POW6, (Var(1),)),))
        out = eval_batch(tree, np.array([[50.0]]))
        assert np.isinf(out[0])

    def test_index_beyond_dim_raises(self):
        with pytest.raises(StructuralError):
            eval_batch(Var(3), np.zeros((2, 2)))
        with pytest.raises(StructuralError):
            eval_batch(Lcf(1, LcfWeights.identity(1, 3)), np.zeros((2, 2)))

    def test_deterministic_bits(self):
        rng = np.random.default_rng(7)
        tc = TerminalConfig(dim=3, use_lcf=True)
        X = rng.normal(size=(32, 3))
        for _ in range(20):
            tree = random_tree(rng, 5, "grow", tc)
            a = eval_batch(tree, X)
            b = eval_batch(tree, X)
            assert np.array_equal(a, b)

    def test_identity_lcf_tree_equals_var_tree(self):
        rng = np.random.default_rng(11)
        tc = TerminalConfig(dim=3, use_lcf=True)
        X = rng.uniform(-3, 3, size=(16, 3))

        def lcf_to_var(node):
            if isinstance(node, Lcf):
                return Var(node.index)
            if isinstance(node, Func):
                return Func(node.kind, tuple(lcf_to_var(c) for c in node.children))
            return node

        for _ in range(50):
            tree = random_tree(rng, 4, "grow", tc)
            swapped = lcf_to_var(tree)
            assert np.array_equal(eval_batch(tree, X), eval_batch(swapped, X))


class TestStructure:
    def test_depth_examples(self):
        assert Gene(Const(1.0)).depth == 0
        assert Gene(Func(Fn.ADD, (Var(1), Var(2)))).depth == 1
        assert Gene(Func(Fn.SIN, (Func(Fn.ADD, (Var(1), Const(0.0))),))).depth == 2

    def test_node_count_examples(self):
        assert Gene(Var(1)).node_count == 1
        assert Gene(Func(Fn.ADD, (Var(1), Const(0.0)))).node_count == 3
        tree = Func(Fn.MUL, (Func(Fn.SIN, (Var(1),)), Lcf(1, LcfWeights.identity(1, 1))))
        assert Gene(tree).node_count == 4

    def test_replace_root(self):
        gene = Gene(Func(Fn.ADD, (Var(1), Var(2))))
        sub = Const(5.0)
        assert gene.replace({2: sub}).root is sub  # the root is the last slot

    def test_replace_leaf(self):
        tree = Func(Fn.ADD, (Var(1), Var(2)))
        gene = Gene(tree)
        out = gene.replace({0: Const(5.0)}).root
        assert format_tree(out) == "(add (const 5.0) (var 2))"
        assert out.children[1] is tree.children[1]
        out = gene.replace({1: Const(5.0)}).root
        assert format_tree(out) == "(add (var 1) (const 5.0))"
        assert out.children[0] is tree.children[0]

    def test_replace_keeps_the_tape_only_for_same_class_leaves(self):
        w = LcfWeights(0.5, [1.0, 2.0])
        gene = Gene(Func(Fn.ADD, (Func(Fn.MUL, (Var(1), Lcf(2, w))), Const(2.0))))
        same = gene.replace({0: Var(2), 1: Lcf(1, w.copy()), 3: Const(-1.0)})
        assert same.program is gene.program
        assert format_tree(same.root) == "(add (mul (var 2) (lcf 1 0.5 1.0 2.0)) (const -1.0))"
        assert same.nodes == Gene(same.root).nodes
        for changes in ({0: Const(1.0)}, {3: Var(1)}, {0: Lcf(1, w)}, {1: Var(1)},
                        {3: Func(Fn.SIN, (Var(1),))}, {2: Var(1)}, {4: Const(0.0)}):
            new = gene.replace(changes)
            fresh = Gene(new.root)
            assert new.program is not gene.program and new.program == fresh.program
            assert (new.depth, new.node_count, new.has_lcf) == (
                fresh.depth, fresh.node_count, fresh.has_lcf)

    def test_stale_locator_raises(self):
        for gene in (Gene(Func(Fn.ADD, (Var(1), Var(2)))), Gene(Var(1))):
            for slot in (-2, -1, gene.node_count, gene.node_count + 1):
                with pytest.raises(StructuralError):
                    gene.replace({slot: Const(1.0)})
                with pytest.raises(StructuralError):  # beside a valid slot
                    gene.replace({0: Const(2.0), slot: Const(1.0)})

    def test_pick_node_is_uniform(self):
        tree = Func(
            Fn.MUL,
            (
                Func(Fn.ADD, (Var(1), Var(2))),
                Func(Fn.ADD, (Const(1.0), Var(1))),
            ),
        )
        gene = Gene(tree)
        assert gene.node_count == 7
        rng = np.random.default_rng(5)
        counts = {}
        n = 10_000
        for _ in range(n):
            slot, level = pick_node(rng, gene)
            counts[slot] = counts.get(slot, 0) + 1
        assert sorted(counts) == list(range(7))
        for c in counts.values():
            assert abs(c / n - 1 / 7) <= 0.02

    def test_pick_node_addresses_every_slot(self):
        # draw k names the k-th node in pre-order; its depth comes along
        tree = Func(Fn.MUL, (Func(Fn.SIN, (Var(1),)), Func(Fn.ADD, (Const(1.0), Var(2)))))
        gene = Gene(tree)
        picks = [pick_node(Draw(k), gene) for k in range(gene.node_count)]
        assert picks == [(5, 0), (1, 1), (0, 2), (4, 1), (2, 2), (3, 2)]
        sin, add = tree.children
        preorder = [tree, sin, sin.children[0], add, *add.children]
        assert [gene.nodes[slot] for slot, _ in picks] == preorder

    def test_caches_match_naive_recomputation_after_edits(self):
        def naive_depth(node):
            if isinstance(node, Func):
                return 1 + max(naive_depth(c) for c in node.children)
            return 0

        def naive_count(node):
            if isinstance(node, Func):
                return 1 + sum(naive_count(c) for c in node.children)
            return 1

        rng = np.random.default_rng(3)
        tc = TerminalConfig(dim=2, use_lcf=True)
        gene = Gene(random_tree(rng, 5, "full", tc))
        for _ in range(200):
            slot, _ = pick_node(rng, gene)
            sub = random_tree(rng, int(rng.integers(0, 4)), "grow", tc)
            gene = gene.replace({slot: sub})
            assert gene.depth == naive_depth(gene.root)
            assert gene.node_count == naive_count(gene.root)

    def test_gene_copy_preserves_weight_sharing(self):
        # the callable decides the sharing: memoised, one copy per old set
        w = LcfWeights(1.5, [2.0, 0.0])
        tree = Func(Fn.ADD, (Lcf(1, w), Lcf(1, w)))
        cp = copy_lcf_leaves(Gene(tree), functools.cache(LcfWeights.copy)).root
        leaves = Gene(cp).lcf_leaves()
        assert leaves[0].weights is leaves[1].weights
        assert leaves[0].weights is not w
        assert leaves[0].weights.values_equal(w)
        assert format_tree(cp) == format_tree(tree) and cp is not tree

    def test_gene_copy_calls_copy_weights_once_per_leaf(self):
        w = LcfWeights(1.5, [2.0, 0.0])
        tree = Func(Fn.ADD, (Lcf(1, w), Func(Fn.SIN, (Lcf(1, w),))))
        seen = []
        cp = copy_lcf_leaves(Gene(tree), lambda old: seen.append(old) or old.copy()).root
        first, second = Gene(cp).lcf_leaves()
        assert seen == [w, w]
        assert first.weights is not second.weights
        assert first.weights.values_equal(w) and second.weights.values_equal(w)


class TestRandomTree:
    def test_depth_zero_is_leaf(self):
        rng = np.random.default_rng(0)
        tc = TerminalConfig(dim=2, use_lcf=True)
        for _ in range(50):
            tree = random_tree(rng, 0, "grow", tc)
            assert Gene(tree).depth == 0

    def test_full_places_all_leaves_at_max_depth(self):
        rng = np.random.default_rng(1)
        tc = TerminalConfig(dim=2, use_lcf=True)
        for _ in range(50):
            tree = random_tree(rng, 2, "full", tc)
            gene = Gene(tree)
            for k in range(gene.node_count):
                slot, level = pick_node(Draw(k), gene)
                if not isinstance(gene.nodes[slot], Func):
                    assert level == 2

    def test_grow_respects_depth_bound(self):
        rng = np.random.default_rng(2)
        tc = TerminalConfig(dim=3, use_lcf=True)
        for _ in range(200):
            assert Gene(random_tree(rng, 4, "grow", tc)).depth <= 4

    def test_every_kind_and_leaf_variant_appears(self):
        rng = np.random.default_rng(4)
        tc = TerminalConfig(dim=2, use_lcf=True)
        seen_fns = set()
        seen_leaves = set()
        for _ in range(10_000):
            tree = random_tree(rng, 3, "grow", tc)
            for node in Gene(tree).nodes:
                if isinstance(node, Func):
                    seen_fns.add(node.kind)
                else:
                    seen_leaves.add(type(node).__name__)
        assert seen_fns == set(Fn)
        assert seen_leaves == {"Const", "Var", "Lcf"}

    def test_baseline_terminals_never_emit_lcf(self):
        rng = np.random.default_rng(6)
        tc = TerminalConfig(dim=2, use_lcf=False)
        for _ in range(500):
            tree = random_tree(rng, 4, "grow", tc)
            assert not any(isinstance(n, Lcf) for n in Gene(tree).nodes)

    @pytest.mark.parametrize("depth, method, message", [
        (-1, "grow", "max_depth must be >= 0"),
        (3, "half", "unknown method 'half'"),
    ])
    def test_bad_depth_or_method_is_refused(self, depth, method, message):
        tc = TerminalConfig(dim=2)
        with pytest.raises(ValueError, match=message):
            random_tree(np.random.default_rng(0), depth, method, tc)

    def test_new_lcf_leaves_start_as_identity(self):
        rng = np.random.default_rng(8)
        tc = TerminalConfig(dim=3, use_lcf=True)
        for _ in range(300):
            tree = random_tree(rng, 3, "grow", tc)
            for node in Gene(tree).lcf_leaves():
                assert node.weights.is_identity_for(node.index)


class TestIdentities:
    def test_sinc_times_x_is_sin(self):
        xs = np.concatenate([np.linspace(-30, 30, 901), [1e-8, -1e-8, 1e-3]])
        xs = xs[xs != 0]
        X = xs.reshape(-1, 1)
        sinc = eval_batch(Func(Fn.SINC, (Var(1),)), X)
        err = np.abs(sinc * xs - np.sin(xs)) / np.maximum(np.abs(np.sin(xs)), 1e-300)
        assert np.all(err <= 1e-12)
        assert eval_batch(Func(Fn.SINC, (Var(1),)), np.array([[0.0]]))[0] == 1.0

    def test_logsig_two_sided_identity(self):
        xs = np.linspace(-30, 30, 601).reshape(-1, 1)
        tree = Func(Fn.LOGSIG, (Var(1),))
        plus = eval_batch(tree, xs)
        minus = eval_batch(tree, -xs)
        assert np.all(np.abs(plus + minus - 1.0) <= 1e-12)


class TestSerialisation:
    def test_example_form(self):
        tree = Func(Fn.ADD, (Lcf(1, LcfWeights.identity(1, 2)), Const(2.5)))
        assert format_tree(tree) == "(add (lcf 1) (const 2.5))"

    def test_round_trip_exact(self):
        rng = np.random.default_rng(12)
        tc = TerminalConfig(dim=3, use_lcf=True)
        X = np.random.default_rng(13).uniform(-3, 3, size=(16, 3))
        for _ in range(100):
            tree = random_tree(rng, 5, "grow", tc)
            # perturb some weights so non-identity forms get exercised
            for node in Gene(tree).lcf_leaves():
                if rng.random() < 0.5:
                    node.weights.a += rng.normal()
                    node.weights.b += rng.normal(size=3)
            text = format_tree(tree)
            back = parse_tree(text, dim=3)
            assert format_tree(back) == text
            assert np.array_equal(eval_batch(back, X), eval_batch(tree, X), equal_nan=True)

    def test_parse_rejects_garbage(self):
        for bad in ["", "(frob 1)", "(add (var 1))", "(var 1) extra", "(const x)",
                    # an index is a decimal integer, and a shorthand one fits the data
                    "(var 1.7)", "(var 1.0)", "(var 1e0)", "(var nan)", "(var inf)",
                    "(var -1)", "(var +1)", "(lcf 2.9)", "(lcf nan 0.5 1.0 2.0)",
                    "(lcf 1.5 0.5 1.0 2.0)", "(add (var 1) (var 2.0))", "(var)", "(lcf",
                    "(lcf 3)"]:
            with pytest.raises(StructuralError, match="parse error"):
                parse_tree(bad, dim=2)

    def test_a_bad_index_is_named(self):
        with pytest.raises(StructuralError, match=r"'1\.7'"):
            parse_tree("(var 1.7)")
        with pytest.raises(StructuralError, match="'nan'"):
            parse_tree("(lcf nan 0.5 1.0 2.0)")

    def test_decimal_indices_parse_and_round_trip(self):
        tree = parse_tree("(add (var 12) (lcf 3 0.5 1.0 2.0 3.0))")
        var, leaf = tree.children
        assert (var.index, leaf.index) == (12, 3)
        assert type(var.index) is int and type(leaf.index) is int
        assert format_tree(parse_tree(format_tree(tree))) == format_tree(tree)

    def test_lcf_shorthand_needs_dim(self):
        with pytest.raises(StructuralError):
            parse_tree("(lcf 1)")
        node = parse_tree("(lcf 1)", dim=4)
        assert isinstance(node, Lcf) and node.weights.is_identity_for(1)
        explicit = parse_tree("(lcf 2 0.5 1.0 -2.0)")
        assert isinstance(explicit, Lcf)
        assert explicit.weights.a == 0.5
        assert np.array_equal(explicit.weights.b, [1.0, -2.0])
