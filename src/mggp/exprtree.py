"""Expression trees over a fixed operator set, with affine-feature leaves.

Trees are built from 16 math operators (:class:`Fn`), constant leaves,
plain variable leaves and :class:`Lcf` leaves.  An LCF leaf evaluates the
affine combination ``a + b . x`` of the *whole* feature vector, so a single
leaf can express any linear transformation of the input space.  Several LCF
leaves may reference one shared :class:`LcfWeights` object, in which case
an update to the weights is seen by all of them.

Tree structure is immutable: structural edits (:func:`replace_subtree`)
return new trees that share untouched subtrees with the original.  The one
sanctioned mutation is rebinding ``Lcf.weights``, which individual-level
synchronisation code uses to (re)share weight sets.

Each :class:`Gene` compiles its tree once into a flat postfix tape, which
evaluation, the gradient module's forward trace and its backward sweep all
run over.  Evaluation is vectorised over sample rows and propagates
non-finite values untouched; the fitness layer decides what to do with
them.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
from scipy.special import expit

from .errors import StructuralError


class Fn(enum.Enum):
    """Operator kinds; arity is fixed per kind (2 for add/sub/mul, else 1)."""

    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    SIN = "sin"
    COS = "cos"
    EXP = "exp"
    LOGSIG = "logsig"
    TANH = "tanh"
    SINC = "sinc"
    SOFTPLUS = "softplus"
    GAUSS = "gauss"
    POW2 = "pow2"
    POW3 = "pow3"
    POW4 = "pow4"
    POW5 = "pow5"
    POW6 = "pow6"

    @property
    def arity(self) -> int:
        return 2 if self in _BINARY else 1


_BINARY = frozenset((Fn.ADD, Fn.SUB, Fn.MUL))
POWER_EXPONENT = {Fn.POW2: 2, Fn.POW3: 3, Fn.POW4: 4, Fn.POW5: 5, Fn.POW6: 6}

# logsig defaults to the decreasing logistic 1/(1+e^x).  The conventional
# increasing form 1/(1+e^-x) can be selected globally; derivatives in the
# gradient module follow whichever convention is active.
_LOGSIG_INCREASING = False


def set_logsig_increasing(flag: bool) -> None:
    """Select the orientation of the ``logsig`` operator for all trees."""
    global _LOGSIG_INCREASING
    _LOGSIG_INCREASING = bool(flag)


def logsig_is_increasing() -> bool:
    return _LOGSIG_INCREASING


class LcfWeights:
    """Affine coefficients ``(a, b)`` for one group of LCF leaves.

    ``a`` is the additive weight, ``b`` the multiplicative weight vector
    (one entry per problem feature).  Step-size memory for resilient
    gradient updates lives on the object too, so weight sets keep their
    tuning state wherever they are shared or copied.
    """

    __slots__ = ("a", "b", "delta", "prev_grad")

    def __init__(self, a: float, b) -> None:
        self.a = float(a)
        self.b = np.array(b, dtype=float)
        if self.b.ndim != 1:
            raise StructuralError("multiplicative weights must be a 1-d vector")
        self.delta: np.ndarray | None = None
        self.prev_grad: np.ndarray | None = None

    @classmethod
    def identity(cls, index: int, dim: int) -> "LcfWeights":
        """Weights that make an LCF leaf equal the plain variable ``index``."""
        b = np.zeros(dim)
        b[index - 1] = 1.0
        return cls(0.0, b)

    @property
    def dim(self) -> int:
        return self.b.shape[0]

    def copy(self) -> "LcfWeights":
        w = LcfWeights(self.a, self.b)
        if self.delta is not None:
            w.delta = self.delta.copy()
            w.prev_grad = self.prev_grad.copy()
        return w

    def values(self) -> tuple[float, np.ndarray]:
        return self.a, self.b.copy()

    def set_values(self, a: float, b) -> None:
        self.a = float(a)
        self.b = np.array(b, dtype=float)

    def values_equal(self, other: "LcfWeights") -> bool:
        return self.a == other.a and np.array_equal(self.b, other.b)

    def is_identity_for(self, index: int) -> bool:
        if self.a != 0.0:
            return False
        expected = np.zeros(self.dim)
        expected[index - 1] = 1.0
        return np.array_equal(self.b, expected)

    def is_finite(self) -> bool:
        return np.isfinite(self.a) and bool(np.isfinite(self.b).all())

    def reset_tuning_state(self) -> None:
        self.delta = None
        self.prev_grad = None

    def __repr__(self) -> str:
        return f"LcfWeights(a={self.a!r}, b={self.b.tolist()!r})"


class Node:
    """Base node type.  Nodes compare by identity; use :func:`trees_equal`
    for structural comparison."""

    __slots__ = ()


class Func(Node):
    __slots__ = ("kind", "children")

    def __init__(self, kind: Fn, children) -> None:
        children = tuple(children)
        if len(children) != kind.arity:
            raise StructuralError(
                f"{kind.value} expects {kind.arity} children, got {len(children)}"
            )
        self.kind = kind
        self.children = children

    def __repr__(self) -> str:
        return format_tree(self)


class Const(Node):
    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        self.value = float(value)

    def __repr__(self) -> str:
        return format_tree(self)


class Var(Node):
    """Plain feature leaf; ``index`` is 1-based."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        if index < 1:
            raise StructuralError("feature index must be >= 1")
        self.index = int(index)

    def __repr__(self) -> str:
        return format_tree(self)


class Lcf(Node):
    """Affine-combination leaf; ``index`` is 1-based and names the group
    the leaf belongs to under synchronised weight handling."""

    __slots__ = ("index", "weights")

    def __init__(self, index: int, weights: LcfWeights) -> None:
        if index < 1:
            raise StructuralError("feature index must be >= 1")
        self.index = int(index)
        self.weights = weights

    def __repr__(self) -> str:
        return format_tree(self)


# ---------------------------------------------------------------------------
# operator table
#
# One forward function per operator.  A tape names an operator by its opcode,
# the position of its kind in ``Fn`` (the three binary kinds come first), and
# dispatches through this table; :func:`apply_fn` is its public face.


_KINDS = list(Fn)
N_BINARY = 3  # opcodes below this take two children
FORWARD = {
    Fn.ADD: np.add,
    Fn.SUB: np.subtract,
    Fn.MUL: np.multiply,
    Fn.SIN: np.sin,
    Fn.COS: np.cos,
    Fn.EXP: np.exp,
    Fn.LOGSIG: lambda x: expit(x) if _LOGSIG_INCREASING else expit(-x),
    Fn.TANH: np.tanh,
    # sin(x)/x with the limit value 1 at x = 0
    Fn.SINC: lambda x: np.where(x == 0.0, 1.0, np.sin(x) / x),
    Fn.SOFTPLUS: lambda x: np.logaddexp(0.0, x),
    Fn.GAUSS: lambda x: np.exp(-np.square(x)),
    **{kind: (lambda x, k=k: x ** k) for kind, k in POWER_EXPONENT.items()},
}
_FORWARD_BY_OP = tuple(FORWARD[kind] for kind in _KINDS)

# leaf opcodes follow the operator opcodes
OP_CONST, OP_VAR, OP_LCF = len(_KINDS), len(_KINDS) + 1, len(_KINDS) + 2


def apply_fn(kind: Fn, args: list[np.ndarray]) -> np.ndarray:
    """Apply one operator to already-evaluated child vectors."""
    return FORWARD[kind](*args)


# ---------------------------------------------------------------------------
# tapes
#
# A gene's tree is compiled once into a postfix tape: slot ``i`` holds the
# ``i``-th node of a post-order walk, so every child precedes its parent and
# the root is the last slot.  The program is a flat integer array with four
# entries per slot: opcode, LCF flag (1 if the slot's subtree holds an LCF
# leaf), first child slot and second child slot (-1 where absent).  The
# node objects sit beside it, one per slot, so leaves read their value,
# index and current weights at run time.

SLOT = 4  # program entries per slot
_OPCODE_BY_NAME = {kind.value: op for op, kind in enumerate(_KINDS)}
_LEAF_OPCODE = {Const: OP_CONST, Var: OP_VAR, Lcf: OP_LCF}


def compile_tree(root: Node) -> tuple[array, tuple[Node, ...], int]:
    """Compile ``root`` into ``(program, nodes, depth)`` in one walk."""
    program: list[int] = []
    nodes: list[Node] = []
    heights: list[int] = []

    def visit(node: Node) -> int:
        if isinstance(node, Func):
            kids = [visit(c) for c in node.children]
            flag = height = 0
            for c in kids:
                flag |= program[SLOT * c + 1]
                height = max(height, heights[c])
            op = _OPCODE_BY_NAME[node.kind._value_]
            program.extend((op, flag, kids[0], kids[1] if len(kids) == 2 else -1))
            heights.append(height + 1)
        else:
            op = _LEAF_OPCODE.get(type(node))
            if op is None:
                raise StructuralError(f"unknown node type {type(node).__name__}")
            program.extend((op, int(op == OP_LCF), -1, -1))
            heights.append(0)
        nodes.append(node)
        return len(nodes) - 1

    visit(root)
    typecode = "h" if len(nodes) < 2**15 else "i"
    return array(typecode, program), tuple(nodes), heights[-1]


def _leaf_value(op: int, node: Node, X: np.ndarray) -> np.ndarray:
    if op == OP_CONST:
        return np.full(X.shape[0], node.value)
    if op == OP_VAR:
        if node.index > X.shape[1]:
            raise StructuralError(
                f"variable index {node.index} exceeds data dimensionality {X.shape[1]}"
            )
        return X[:, node.index - 1]
    w = node.weights
    if node.index > X.shape[1] or w.dim != X.shape[1]:
        raise StructuralError(
            f"LCF leaf (index {node.index}, {w.dim} weights) does not match "
            f"data dimensionality {X.shape[1]}"
        )
    return w.a + X @ w.b


def run_tape(gene: "Gene", X: np.ndarray) -> list[np.ndarray]:
    """Evaluate every slot of ``gene``'s tape on the rows of ``X``.

    Returns the per-slot output vectors, root last.  Non-finite values
    propagate; callers run this under ``np.errstate(all="ignore")``.
    """
    nodes = gene.nodes
    values = [None] * len(nodes)
    code = iter(gene.program)
    for slot, (op, _, a, b) in enumerate(zip(code, code, code, code)):
        if op < N_BINARY:
            values[slot] = _FORWARD_BY_OP[op](values[a], values[b])
        elif op < OP_CONST:
            values[slot] = _FORWARD_BY_OP[op](values[a])
        else:
            values[slot] = _leaf_value(op, nodes[slot], X)
    return values


def eval_batch(root: Node, X, gene: "Gene | None" = None) -> np.ndarray:
    """Evaluate ``root`` on every row of ``X`` (n x d).

    ``gene`` may name a :class:`Gene` whose tape is used if its root is
    ``root``; otherwise ``root`` is compiled afresh, so the result is always
    the value of ``root``.  Deterministic; non-finite intermediates
    (overflow in powers/exp) propagate into the result without masking.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise StructuralError("X must be 2-d (samples x features)")
    if gene is None or gene.root is not root:
        gene = Gene(root)
    with np.errstate(all="ignore"):
        return run_tape(gene, X)[-1]


# ---------------------------------------------------------------------------
# structural queries and edits


def depth(root: Node) -> int:
    """Edge count of the longest root-to-leaf path; a lone leaf has depth 0."""
    return compile_tree(root)[2]


def node_count(root: Node) -> int:
    return len(compile_tree(root)[1])


def iter_nodes(root: Node) -> Iterator[Node]:
    """Pre-order walk."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Func):
            stack.extend(reversed(node.children))


def iter_paths(root: Node) -> Iterator[tuple[tuple[int, ...], Node]]:
    """Pre-order walk yielding (path, node); a path is a tuple of child slots."""
    stack = [((), root)]
    while stack:
        path, node = stack.pop()
        yield path, node
        if isinstance(node, Func):
            for i in range(len(node.children) - 1, -1, -1):
                stack.append((path + (i,), node.children[i]))


def node_at(root: Node, path: tuple[int, ...]) -> Node:
    node = root
    for slot in path:
        if not isinstance(node, Func) or slot >= len(node.children):
            raise StructuralError(f"locator {path!r} does not address a node")
        node = node.children[slot]
    return node


def pick_node(rng, root: Node) -> tuple[int, ...]:
    """Uniformly pick a node of the tree; returns its path locator."""
    paths = [p for p, _ in iter_paths(root)]
    return paths[int(rng.integers(len(paths)))]


def replace_subtree(root: Node, path: tuple[int, ...], sub: Node) -> Node:
    """Return a new tree with the subtree at ``path`` replaced by ``sub``.

    Untouched subtrees are shared with the original tree.
    """
    if not path:
        return sub
    if not isinstance(root, Func) or path[0] >= len(root.children):
        raise StructuralError(f"locator {path!r} does not address a node")
    slot = path[0]
    children = list(root.children)
    children[slot] = replace_subtree(children[slot], path[1:], sub)
    return Func(root.kind, children)


def copy_tree(root: Node, weight_map: dict[int, LcfWeights] | None = None) -> Node:
    """Deep-copy a tree.

    ``weight_map`` maps ``id(old_weights)`` to replacement weight objects and
    is filled on demand, so sharing topology among LCF leaves is preserved in
    the copy.  With ``weight_map=None`` the copy keeps the original weight
    references (used by the globally synchronised mode).
    """
    if isinstance(root, Func):
        return Func(root.kind, tuple(copy_tree(c, weight_map) for c in root.children))
    if isinstance(root, Const):
        return Const(root.value)
    if isinstance(root, Var):
        return Var(root.index)
    if isinstance(root, Lcf):
        if weight_map is None:
            return Lcf(root.index, root.weights)
        key = id(root.weights)
        if key not in weight_map:
            weight_map[key] = root.weights.copy()
        return Lcf(root.index, weight_map[key])
    raise StructuralError(f"unknown node type {type(root).__name__}")


def trees_equal(a: Node, b: Node) -> bool:
    """Structural equality, comparing constant values and LCF weight values."""
    if isinstance(a, Func) and isinstance(b, Func):
        return a.kind is b.kind and all(
            trees_equal(x, y) for x, y in zip(a.children, b.children)
        )
    if isinstance(a, Const) and isinstance(b, Const):
        return a.value == b.value
    if isinstance(a, Var) and isinstance(b, Var):
        return a.index == b.index
    if isinstance(a, Lcf) and isinstance(b, Lcf):
        return a.index == b.index and a.weights.values_equal(b.weights)
    return False


# ---------------------------------------------------------------------------
# random generation


@dataclass(frozen=True)
class TerminalConfig:
    """Leaf sampling policy for random tree generation.

    With LCFs enabled a leaf is const/var/lcf with probability 1/3 each,
    otherwise const/var with probability 1/2 each.  ``lcf_weights`` supplies
    the weight object for a freshly generated LCF leaf (defaults to a fresh
    identity set; the globally synchronised mode passes the shared table
    lookup instead).
    """

    dim: int
    use_lcf: bool = False
    const_low: float = -10.0
    const_high: float = 10.0
    lcf_weights: Callable[[int], LcfWeights] | None = None

    def new_lcf(self, index: int) -> Lcf:
        if self.lcf_weights is not None:
            return Lcf(index, self.lcf_weights(index))
        return Lcf(index, LcfWeights.identity(index, self.dim))


def random_tree(rng, max_depth: int, method: str, terminals: TerminalConfig) -> Node:
    """Generate a random tree of depth <= ``max_depth``.

    ``method="full"`` places operators at every level below ``max_depth``;
    ``method="grow"`` picks uniformly from operators plus leaf kinds, so
    branches may stop early.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    if method not in ("grow", "full"):
        raise ValueError(f"unknown method {method!r}")
    return _random_node(rng, max_depth, method, terminals)


def _random_leaf(rng, terminals: TerminalConfig, which: int | None = None) -> Node:
    n_leaf = 3 if terminals.use_lcf else 2
    if which is None:
        which = int(rng.integers(n_leaf))
    if which == 0:
        return Const(rng.uniform(terminals.const_low, terminals.const_high))
    index = int(rng.integers(1, terminals.dim + 1))
    if which == 1:
        return Var(index)
    return terminals.new_lcf(index)


def _random_node(rng, budget: int, method: str, terminals: TerminalConfig) -> Node:
    if budget == 0:
        return _random_leaf(rng, terminals)
    if method == "full":
        kind = _KINDS[int(rng.integers(len(_KINDS)))]
    else:
        n_leaf = 3 if terminals.use_lcf else 2
        j = int(rng.integers(len(_KINDS) + n_leaf))
        if j >= len(_KINDS):
            return _random_leaf(rng, terminals, which=j - len(_KINDS))
        kind = _KINDS[j]
    children = tuple(
        _random_node(rng, budget - 1, method, terminals) for _ in range(kind.arity)
    )
    return Func(kind, children)


# ---------------------------------------------------------------------------
# genes


class Gene:
    """One expression tree, compiled once to its tape, plus its structural
    measures.

    A gene also caches its output on the last dataset it was evaluated on,
    keyed by the dataset token: trees without LCF leaves never change
    value, and LCF-bearing trees are re-evaluated whenever the
    caller-supplied version key moves.
    """

    __slots__ = ("root", "program", "nodes", "depth", "node_count", "has_lcf", "_cached")

    def __init__(self, root: Node) -> None:
        self.root = root
        self.program, self.nodes, self.depth = compile_tree(root)
        self.node_count = len(self.nodes)
        self.has_lcf = bool(self.program[-SLOT + 1])
        self._cached = None  # (token, version key, output)

    def lcf_leaves(self) -> list[Lcf]:
        """LCF leaves in left-to-right (pre-order) order."""
        return [n for n in self.nodes if isinstance(n, Lcf)] if self.has_lcf else []

    def output(self, X, token=None, version=None) -> np.ndarray:
        if token is None:
            return eval_batch(self.root, X, self)
        key = version if self.has_lcf else None
        hit = self._cached
        if hit is not None and hit[0] == token and hit[1] == key:
            return hit[2]
        out = eval_batch(self.root, X, self)
        self._cached = (token, key, out)
        return out

    def __repr__(self) -> str:
        return f"Gene({format_tree(self.root)})"


# ---------------------------------------------------------------------------
# canonical text form
#
# Grammar (whitespace-separated, fully parenthesised prefix form):
#   tree  := "(" head ")"
#   head  := op tree...            op in {add sub mul sin cos exp logsig tanh
#                                         sinc softplus gauss pow2..pow6}
#          | "const" number
#          | "var" index
#          | "lcf" index                      (identity weights shorthand)
#          | "lcf" index a b1 ... bd          (explicit weights)
# Numbers are printed with repr so parsing reproduces them bit-exactly.


_FN_BY_NAME = {kind.value: kind for kind in Fn}


def format_tree(root: Node) -> str:
    """Canonical prefix serialisation, e.g. ``(add (lcf 1) (const 2.5))``."""
    if isinstance(root, Func):
        inner = " ".join(format_tree(c) for c in root.children)
        return f"({root.kind.value} {inner})"
    if isinstance(root, Const):
        return f"(const {root.value!r})"
    if isinstance(root, Var):
        return f"(var {root.index})"
    if isinstance(root, Lcf):
        w = root.weights
        if w.is_identity_for(root.index):
            return f"(lcf {root.index})"
        parts = " ".join(repr(v) for v in [w.a, *w.b.tolist()])
        return f"(lcf {root.index} {parts})"
    raise StructuralError(f"unknown node type {type(root).__name__}")


def parse_tree(text: str, dim: int | None = None) -> Node:
    """Parse the canonical text form back into a tree.

    ``dim`` is required to expand the ``(lcf i)`` identity shorthand.  Parsed
    LCF leaves always get their own weight objects; sharing topology is not
    part of the text form.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def fail(msg: str):
        raise StructuralError(f"parse error: {msg}")

    def expect(tok: str) -> None:
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != tok:
            fail(f"expected {tok!r} at token {pos}")
        pos += 1

    def number() -> float:
        nonlocal pos
        if pos >= len(tokens):
            fail("unexpected end of input")
        try:
            value = float(tokens[pos])
        except ValueError:
            fail(f"expected a number, got {tokens[pos]!r}")
        pos += 1
        return value

    def node() -> Node:
        nonlocal pos
        expect("(")
        if pos >= len(tokens):
            fail("unexpected end of input")
        head = tokens[pos]
        pos += 1
        if head == "const":
            out: Node = Const(number())
        elif head == "var":
            out = Var(int(number()))
        elif head == "lcf":
            index = int(number())
            values = []
            while pos < len(tokens) and tokens[pos] != ")":
                values.append(number())
            if values:
                out = Lcf(index, LcfWeights(values[0], values[1:]))
            else:
                if dim is None:
                    fail("(lcf i) shorthand needs the problem dimensionality")
                out = Lcf(index, LcfWeights.identity(index, dim))
        elif head in _FN_BY_NAME:
            kind = _FN_BY_NAME[head]
            out = Func(kind, tuple(node() for _ in range(kind.arity)))
        else:
            fail(f"unknown head {head!r}")
        expect(")")
        return out

    out = node()
    if pos != len(tokens):
        fail("trailing input")
    return out
