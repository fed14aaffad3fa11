"""Build, evaluate and serialise expression trees.

Walks through the tree data model: the operator set, constant/variable
leaves, and the affine-combination (LCF) leaf that maps the whole feature
vector through a + b.x.
"""

import numpy as np

from mggp import (
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
    random_tree,
)

rng = np.random.default_rng(0)

# A hand-built tree: sin(x1) * (2.5 + x2)
tree = Func(Fn.MUL, (Func(Fn.SIN, (Var(1),)), Func(Fn.ADD, (Const(2.5), Var(2)))))
gene = Gene(tree)  # compiled once to a postfix tape, with its measures
print("tree:       ", format_tree(tree))
print("depth:      ", gene.depth)
print("node count: ", gene.node_count)

X = rng.uniform(-3, 3, size=(5, 2))
print("values:     ", eval_batch(tree, X))

# An LCF leaf starts as the identity transform of its index and can be
# re-weighted to express any affine combination of the features.
w = LcfWeights.identity(1, 2)
leaf = Lcf(1, w)
print("\nidentity LCF equals x1:", np.allclose(eval_batch(leaf, X), X[:, 0]))

w.set_values(1.0, [0.5, -0.5])  # 1 + (x1 - x2)/2
print("re-weighted LCF:        ", eval_batch(leaf, X))
print("serialised:             ", format_tree(leaf))

# The canonical text form round-trips exactly.
text = "(add (lcf 1) (const 2.5))"
parsed = parse_tree(text, dim=2)
print("\nparsed and re-printed:  ", format_tree(parsed))

# Random generation: `full` fills every level, `grow` may stop early.
terminals = TerminalConfig(dim=2, use_lcf=True)
for method in ("full", "grow"):
    t = random_tree(rng, 3, method, terminals)
    print(f"\nrandom {method} tree (depth {Gene(t).depth}):")
    print("  ", format_tree(t))
