"""Expression trees over a fixed operator set, with affine-feature leaves.

Trees are built from 16 math operators (:class:`Fn`), constant leaves,
plain variable leaves and :class:`Lcf` leaves.  An LCF leaf evaluates the
affine combination ``a + b . x`` of the *whole* feature vector, so a single
leaf can express any linear transformation of the input space.  Several LCF
leaves may reference one shared :class:`LcfWeights` object, in which case
an update to the weights is seen by all of them.

Each :class:`Gene` compiles its tree once into a flat postfix tape, which
evaluation, the gradient module's forward trace and its backward sweep all
run over.  Evaluation is vectorised over sample rows and propagates
non-finite values untouched; the fitness layer decides what to do with
them.  Nodes are addressed by tape slot, and :meth:`Gene.replace` derives
every new gene from an old one by putting new nodes at slots.

Tree structure is immutable: structural edits return new trees that share
untouched subtrees with the original, and trees of different individuals
may share subtrees too.  The one sanctioned mutation is rebinding
``Lcf.weights``, which individual-level synchronisation code uses to
(re)share weight sets; it does so only on the new LCF leaves that
:meth:`Gene.replace` put into a copy made for that individual.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

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


def logsig_is_increasing() -> bool:
    """Orientation of the ``logsig`` operator, and so of its text form: it is
    the decreasing logistic ``1/(1+e^x)`` in every tree."""
    return False


class LcfWeights:
    """Affine coefficients ``(a, b)`` for one group of LCF leaves.

    ``a`` is the additive weight, ``b`` the multiplicative weight vector
    (one entry per problem feature).  Step-size memory for resilient
    gradient updates lives on the object too, so weight sets keep their
    tuning state wherever they are shared, and :meth:`copy` copies it.
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

    def __repr__(self) -> str:
        return f"LcfWeights(a={self.a!r}, b={self.b.tolist()!r})"


class Node:
    """Base node type.  Nodes compare by identity; ``repr`` is :func:`format_tree`."""

    __slots__ = ()

    def __repr__(self) -> str:
        return format_tree(self)


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


class Const(Node):
    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        self.value = float(value)


class Var(Node):
    """Plain feature leaf; ``index`` is 1-based."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        if index < 1:
            raise StructuralError("feature index must be >= 1")
        self.index = int(index)


class Lcf(Node):
    """Affine-combination leaf; ``index`` is 1-based and names the group
    the leaf belongs to under synchronised weight handling."""

    __slots__ = ("index", "weights")

    def __init__(self, index: int, weights: LcfWeights) -> None:
        if index < 1:
            raise StructuralError("feature index must be >= 1")
        self.index = int(index)
        self.weights = weights


# ---------------------------------------------------------------------------
# operator table
#
# One forward function per operator.  A tape names an operator by its opcode,
# the position of its kind in ``Fn`` (the three binary kinds come first), and
# dispatches through this table.


def expit(x):
    """The logistic ``1/(1+e^-x)``: scipy's ``expit`` ufunc, which this first
    call imports and binds to this name, so that importing the package and
    the commands that evaluate no tree do not load scipy."""
    global expit
    from scipy.special import expit
    return expit(x)


_KINDS = list(Fn)
N_BINARY = 3  # opcodes below this take two children
FORWARD = {
    Fn.ADD: np.add,
    Fn.SUB: np.subtract,
    Fn.MUL: np.multiply,
    Fn.SIN: np.sin,
    Fn.COS: np.cos,
    Fn.EXP: np.exp,
    Fn.LOGSIG: lambda x: expit(-x),  # the decreasing logistic 1/(1+e^x)
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
# structural queries


def node_count(root: Node) -> int:  # read only by perfbench/tracing.py
    return len(compile_tree(root)[1])


def pick_node(rng, gene: "Gene") -> tuple[int, int]:
    """Uniformly pick a node of ``gene``; returns its tape slot and depth.
    The one draw numbers the nodes in pre-order."""
    program, stack = gene.program, [(gene.node_count - 1, 0)]
    for _ in range(int(rng.integers(gene.node_count))):
        slot, level = stack.pop()  # pre-order: the right child goes on first
        a, b = program[SLOT * slot + 2], program[SLOT * slot + 3]
        if b >= 0:
            stack.append((b, level + 1))
        if a >= 0:
            stack.append((a, level + 1))
    return stack.pop()


# ---------------------------------------------------------------------------
# random generation


CONST_RANGE = (-10.0, 10.0)  # a random constant leaf is uniform on this interval


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
        return Const(rng.uniform(*CONST_RANGE))
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

    A gene also caches its output on the last input array it was evaluated
    on, and hits whenever the same array object comes back.  A tree without
    LCF leaves never changes value; an in-place change of a tree's weights,
    private or shared, must be followed by :meth:`forget`.
    """

    __slots__ = ("root", "program", "nodes", "depth", "node_count", "has_lcf", "_cached")

    def __init__(self, root: Node) -> None:
        self.root = root
        self.program, self.nodes, self.depth = compile_tree(root)
        self.node_count = len(self.nodes)
        self.has_lcf = bool(self.program[-SLOT + 1])
        self._cached = None  # (input array, output)

    def replace(self, changes: dict[int, Node]) -> "Gene":
        """This gene with ``changes[slot]`` in place of the subtree at each
        tape slot; a new ``Func`` is built only where a child changed, and
        untouched subtrees stay shared.  When every change puts a leaf where
        a leaf of the same class was, the new gene reuses this gene's tape,
        which holds no leaf values, indices or weights; otherwise its tree
        is compiled."""
        program, nodes, changed = self.program, self.nodes, dict(changes)
        if changed and not 0 <= min(changed) <= max(changed) < self.node_count:
            raise StructuralError(f"slot outside a {len(nodes)}-slot tape: {sorted(changed)}")
        out = list(nodes[: min(changed, default=len(nodes))])  # children precede parents
        for slot in range(len(out), len(nodes)):
            node = changed.get(slot)
            if node is None:
                node, a, b = nodes[slot], program[SLOT * slot + 2], program[SLOT * slot + 3]
                if a in changed or b in changed:  # slots are >= 0: a leaf's -1s match none
                    node = changed[slot] = Func(node.kind, (out[a],) if b < 0 else (out[a], out[b]))
            out.append(node)
        if not all(type(new) is type(nodes[slot]) and type(new) in _LEAF_OPCODE
                   for slot, new in changes.items()):
            return Gene(out[-1])
        gene = Gene.__new__(Gene)
        gene.root, gene.nodes, gene.program, gene._cached = out[-1], tuple(out), program, None
        gene.depth, gene.node_count, gene.has_lcf = self.depth, self.node_count, self.has_lcf
        return gene

    def lcf_leaves(self) -> list[Lcf]:
        """LCF leaves in left-to-right (pre-order) order."""
        return [n for n in self.nodes if isinstance(n, Lcf)] if self.has_lcf else []

    def output(self, X) -> np.ndarray:
        """The gene's value on the rows of ``X``, from the cache when ``X`` is
        the cached array itself."""
        hit = self._cached
        if hit is not None and hit[0] is X:
            return hit[1]
        out = eval_batch(self.root, X, self)
        self._cached = (X, out)
        return out

    def forget(self) -> None:
        """Drop the cached output."""
        self._cached = None

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
# Numbers are printed with repr so parsing reproduces them bit-exactly; an
# index is a decimal integer.


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

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            fail("unexpected end of input")
        pos += 1
        return tokens[pos - 1]

    def number() -> float:
        token = take()
        try:
            return float(token)
        except ValueError:
            fail(f"expected a number, got {token!r}")

    def index() -> int:
        token = take()
        if not (token.isascii() and token.isdigit()):
            fail(f"expected a decimal integer index, got {token!r}")
        return int(token)

    def node() -> Node:
        expect("(")
        head = take()
        if head == "const":
            out: Node = Const(number())
        elif head == "var":
            out = Var(index())
        elif head == "lcf":
            i = index()
            values = []
            while pos < len(tokens) and tokens[pos] != ")":
                values.append(number())
            if values:
                out = Lcf(i, LcfWeights(values[0], values[1:]))
            else:
                if dim is None:
                    fail("(lcf i) shorthand needs the problem dimensionality")
                if i > dim:
                    fail(f"(lcf {i}) exceeds the problem dimensionality {dim}")
                out = Lcf(i, LcfWeights.identity(i, dim))
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
