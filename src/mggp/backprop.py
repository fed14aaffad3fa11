"""Reverse-mode gradients of the training loss w.r.t. LCF weights, and
sign-based resilient weight updates.

The loss is the sum of squared errors of the individual's prediction
``yhat = c0 + sum_k c_k * gene_k(x)`` with the top-level coefficients held
fixed during a backward pass; they are refit by ordinary least squares
before every update step, unless the individual already holds the fit of
its current weights.  Because minimising SSE is affinely equivalent to
maximising training R^2, the tuner tracks R^2, keeps the best weights it
observes and returns their fit, so the caller need not refit them.

Gradient aggregation across synchronised LCF groups falls out of sharing:
the gradient table is keyed by weight-set object, so leaves that share a
set accumulate into a single summed entry.

In the globally synchronised mode clones share ``Gene`` objects.  A descent
step handles a gene that several members hold gene-major: it is traced and
its local derivatives computed once, then swept once per holder from that
holder's own adjoint.  Every sweep records its leaves' partials in a sink,
and a table adds them in gene and leaf order when it is replayed, so every
floating-point operation, and its order, is that of one trace per member.
One shared gene's slots and derivatives are live at a time, and a holder
keeps one residual vector until the gene-major sweeps are done.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

# ``exprtree.expit`` rebinds itself to scipy's ufunc on its first call, so
# it is read through the module, never imported by name
from . import exprtree as _exprtree
from .exprtree import (
    N_BINARY,
    OP_CONST,
    POWER_EXPONENT,
    SLOT,
    Fn,
    Lcf,
    LcfWeights,
    run_tape,
)
from .fitness import fit_and_score


@dataclass(frozen=True)
class RpropParams:
    """iRprop- hyperparameters (standard published defaults; the step
    ceiling is kept small to match benchmark feature scales)."""

    eta_plus: float = 1.2
    eta_minus: float = 0.5
    delta_init: float = 0.1
    delta_min: float = 1e-9
    delta_max: float = 10.0


@dataclass(frozen=True)
class StepBudget:
    """Per-individual update-step budget: ``max(floor, steps - total node
    count over all genes)``."""

    steps: int = 25
    floor: int = 2

    def steps_for(self, total_nodes: int) -> int:
        return max(self.floor, self.steps - total_nodes)


class EvalTrace:
    """Forward values of every tape slot of an individual's genes on one
    input matrix.

    Maps each distinct gene (by identity) to its per-slot n-sample output
    vectors, root last, and keeps the inputs, which the backward pass needs
    for the ``b`` partials.
    """

    __slots__ = ("slots", "X")

    def __init__(self, X: np.ndarray) -> None:
        self.slots: dict = {}
        self.X = X

    def roots(self, individual) -> list[np.ndarray]:
        """Root output vectors of the individual's genes, in gene order."""
        return [self.slots[gene][-1] for gene in individual.genes]


def forward_trace(individual, X, shared=frozenset(), epoch: int = 0) -> EvalTrace:
    """Evaluate all genes, recording per-slot outputs.

    Root values are identical to :func:`mggp.exprtree.eval_batch` on the
    same trees.  A gene without LCF leaves records only its root, read
    through the cache of :meth:`Gene.output`: its value never changes and
    the backward pass never enters it.  So does a gene in ``shared``, read
    at the G-mode table ``epoch``; its sweeps are left to the caller (see
    :func:`backward`'s ``held``).
    """
    X = np.asarray(X, dtype=float)
    trace = EvalTrace(X)
    with np.errstate(all="ignore"):
        for gene in individual.genes:
            if gene in trace.slots:
                continue
            if gene.has_lcf and gene not in shared:
                trace.slots[gene] = run_tape(gene, X)
            else:
                trace.slots[gene] = [None] * (gene.node_count - 1) + [gene.output(X, epoch)]
    return trace


# ---------------------------------------------------------------------------
# derivative table
#
# One function per operator, indexed by opcode like the forward table:
# ``(x, y, out, i)`` gives d(out)/d(child i) from the child values ``x``
# and ``y`` (``None`` for unary operators) and the operator's own output.
# The exp, tanh and gauss derivatives reuse ``out``, which equals the
# transcendental they would otherwise recompute.


def _d_logsig(x, y, out, i):
    # d/dx 1/(1+e^x) = -s(1-s) with s = expit(x); written from ``out``
    # = 1 - s it would round differently
    s = _exprtree.expit(x)
    return -(s * (1.0 - s))


def _d_sinc(x, y, out, i):
    num = x * np.cos(x) - np.sin(x)
    return np.where(x == 0.0, 0.0, num / np.square(x))


DERIVATIVE = {
    Fn.ADD: lambda x, y, out, i: np.ones_like(x),
    Fn.SUB: lambda x, y, out, i: np.ones_like(x) if i == 0 else -np.ones_like(x),
    Fn.MUL: lambda x, y, out, i: y if i == 0 else x,
    Fn.SIN: lambda x, y, out, i: np.cos(x),
    Fn.COS: lambda x, y, out, i: -np.sin(x),
    Fn.EXP: lambda x, y, out, i: out,
    Fn.LOGSIG: _d_logsig,
    Fn.TANH: lambda x, y, out, i: 1.0 - out * out,
    Fn.SINC: _d_sinc,
    Fn.SOFTPLUS: lambda x, y, out, i: _exprtree.expit(x),
    Fn.GAUSS: lambda x, y, out, i: -2.0 * x * out,
    **{kind: (lambda x, y, out, i, k=k: k * x ** (k - 1)) for kind, k in POWER_EXPONENT.items()},
}
_DERIVATIVE_BY_OP = tuple(DERIVATIVE[kind] for kind in Fn)


class GradientTable:
    """Summed loss partials per distinct weight set, keyed by the set object.

    Entries are ``[d_a, d_b]`` with ``d_b`` a length-d vector.  The table
    contains every weight set reachable from the individual (entries stay
    zero for genes with a zero top-level coefficient).  ``sinks`` hold the
    ``(weights, d_a, d_b)`` partials of one sweep each, in gene order, until
    :meth:`replay` adds them to the entries.
    """

    __slots__ = ("entries", "valid", "sinks")

    def __init__(self, weight_sets) -> None:
        self.entries: dict[LcfWeights, list] = {
            w: [0.0, np.zeros(w.dim)] for w in weight_sets
        }
        self.valid = True
        self.sinks: list[list] = []

    def check_finite(self) -> bool:
        for d_a, d_b in self.entries.values():
            if not (np.isfinite(d_a) and np.isfinite(d_b).all()):
                self.valid = False
                break
        return self.valid

    def replay(self) -> bool:
        """Add the sinks' partials in gene and leaf order, empty the sinks
        and return :meth:`check_finite`."""
        with np.errstate(all="ignore"):
            for sink in self.sinks:
                for partial in sink:
                    _add(self.entries, *partial)
        self.sinks = []
        return self.check_finite()


def backward(individual, trace: EvalTrace, y, top_model, held=None) -> GradientTable:
    """Gradient of ``sum((yhat - y)^2)`` w.r.t. every LCF weight.

    ``top_model`` supplies the coefficients ``c0, c``, held fixed here; the
    gradient through gene ``k`` is scaled by ``c_k`` (exact chain rule), so
    genes with a zero coefficient contribute nothing.  Leaves sharing a
    weight set accumulate into one summed entry, which realises the
    index-group summation of the synchronised modes.

    Each gene is swept into a sink of its own.  A gene that is a key of
    ``held`` is not swept here: ``(residual2, c, sink)`` is appended to
    ``held[gene]`` for the caller to sweep (:func:`_sweep_shared`), and the
    caller replays the table once the sinks are full.  Without ``held`` the
    table is replayed before it is returned.
    """
    y = np.asarray(y, dtype=float)
    table = GradientTable(individual.weight_sets())
    with np.errstate(all="ignore"):
        residual2 = _residual2(trace.roots(individual), y, top_model)
        for c, gene in zip(top_model.c, individual.genes):
            if c == 0.0 or not gene.has_lcf:
                continue
            sink = []
            table.sinks.append(sink)
            if held is not None and gene in held:
                held[gene].append((residual2, c, sink))
            else:
                _sweep(gene, trace.slots[gene], residual2 * c, trace.X, sink)
    if held is None:
        table.replay()
    return table


def _residual2(roots, y, top_model) -> np.ndarray:
    """``2 * (yhat - y)``, the loss's adjoint at the prediction."""
    yhat = top_model.c0 + sum(c * root for c, root in zip(top_model.c, roots))
    return 2.0 * (yhat - y)


def _add(entries: dict, w: LcfWeights, d_a: float, d_b: np.ndarray) -> None:
    entry = entries[w]
    entry[0] += d_a
    entry[1] += d_b


def _sweep(gene, values: list, adjoint: np.ndarray, X: np.ndarray, sink: list,
           derivatives: dict | None = None) -> None:
    """Reverse sweep over one gene's tape from the root ``adjoint``.

    Adjoints flow only into slots whose subtree holds an LCF leaf; the LCF
    leaves then append their partials to ``sink`` as ``(weights, d_a,
    d_b)`` in left-to-right order.  Sweeps of one gene over the same
    ``values`` may share a ``derivatives`` dict, which keeps each operator
    slot's local derivatives after the first sweep computes them.
    """
    program = gene.program
    adjoints = [None] * len(values)
    adjoints[-1] = adjoint
    code = reversed(program)
    slot = len(values)
    for b, a, _, op in zip(code, code, code, code):
        slot -= 1
        g = adjoints[slot]
        if g is None or op >= OP_CONST:
            continue
        local = None if derivatives is None else derivatives.get(slot)
        if local is None:
            d = _DERIVATIVE_BY_OP[op]
            if op < N_BINARY:
                x, other = values[a], values[b]
                local = (d(x, other, values[slot], 0) if program[SLOT * a + 1] else None,
                         d(x, other, values[slot], 1) if program[SLOT * b + 1] else None)
            else:
                # the only child of an LCF-dependent operator depends on one too
                local = (d(values[a], None, values[slot], 0), None)
            if derivatives is not None:
                derivatives[slot] = local
        if local[0] is not None:
            adjoints[a] = g * local[0]
        if local[1] is not None:
            adjoints[b] = g * local[1]
    for node, g in zip(gene.nodes, adjoints):
        if g is not None and isinstance(node, Lcf):
            sink.append((node.weights, float(g.sum()), X.T @ g))


def irprop_minus_step(grads: GradientTable, params: RpropParams = RpropParams()) -> None:
    """One iRprop- update of every weight set in the table, in place.

    Per weight: the step size grows by ``eta_plus`` while the gradient sign
    is stable and shrinks by ``eta_minus`` on a sign flip, in which case the
    gradient is zeroed so the weight does not move that iteration; then
    ``w -= sign(g) * delta``, and ``g`` (possibly zeroed) becomes the stored
    previous gradient.  Step sizes stay within ``[delta_min, delta_max]``.
    Step-size memory lives on each :class:`LcfWeights`.
    """
    if not grads.valid:
        raise ValueError("cannot update from an invalid gradient table")
    for w, (d_a, d_b) in grads.entries.items():
        g = np.empty(1 + w.dim)
        g[0] = d_a
        g[1:] = d_b
        if w.delta is None:
            w.delta = np.full(g.size, params.delta_init)
            w.prev_grad = np.zeros(g.size)
        with np.errstate(over="ignore"):
            # only the sign of the product matters; overflow to inf is fine
            prod = g * w.prev_grad
        grew = prod > 0.0
        flipped = prod < 0.0
        w.delta[grew] = np.minimum(w.delta[grew] * params.eta_plus, params.delta_max)
        w.delta[flipped] = np.maximum(w.delta[flipped] * params.eta_minus, params.delta_min)
        g[flipped] = 0.0
        step = np.sign(g) * w.delta
        w.a -= step[0]
        w.b -= step[1:]
        w.prev_grad = g


def _descend(population, weight_sets, train, steps: int, moved, on_fit=None,
             epoch=lambda: 0) -> bool:
    """Up to ``steps`` iRprop- updates of ``weight_sets`` on the loss summed
    over ``population``, the one tuning loop of every mode.

    Each step traces and fits every individual with LCF leaves, passing
    each valid fit to ``on_fit(model, r2)`` (it scores the weights before
    the update), and sums the partials of those whose fit and gradient are
    finite in population order.  A member that holds the fit of its current
    weights at ``epoch()`` (see :meth:`Individual.current_fit`) is still
    traced but not refit.  No valid partial, or a non-finite sum, stops the
    descent; otherwise one update is made and ``moved()`` is called.
    Returns True when every step updated, leaving the last weights unscored.

    A gene that several members hold is read from its output cache at
    ``epoch()``, the table epoch that ``moved()`` bumps, when a holder is
    traced, and its sweeps wait until every member is fit; then it is
    traced and swept for all its holders (:func:`_sweep_shared`), and each
    table is replayed before the tables are summed.
    """
    X, y = train.X, train.y
    tuned = [individual for individual in population if individual.has_lcf()]
    shared = _shared_genes(tuned)
    for _ in range(steps):
        at = epoch()
        grads = []  # the fit members' tables, in population order
        held = {gene: [] for gene in shared}  # (residual2, c, sink) per holder position
        for individual in tuned:
            trace = forward_trace(individual, X, shared, at)
            model, r2 = individual.current_fit(at) or fit_and_score(trace.roots(individual), y)
            if model is None:
                continue
            if on_fit is not None:
                on_fit(model, r2)
            grads.append(backward(individual, trace, y, model, held))
        for gene, positions in held.items():
            if positions:
                _sweep_shared(gene, positions, X)
        total = GradientTable(weight_sets)
        any_valid = False
        with np.errstate(over="ignore"):  # an overflow to inf stops the descent below
            for table in grads:
                if table.replay():
                    for w, (d_a, d_b) in table.entries.items():
                        _add(total.entries, w, d_a, d_b)
                    any_valid = True
        if not any_valid or not total.check_finite():
            return False
        irprop_minus_step(total)
        moved()
    return True


def _shared_genes(population) -> dict:
    """The LCF genes that more than one member of ``population`` holds, as
    the keys of a dict, in the order they are first held."""
    holders = Counter(gene for ind in population for gene in dict.fromkeys(ind.genes)
                      if gene.has_lcf)
    return dict.fromkeys(gene for gene, n in holders.items() if n > 1)


def _sweep_shared(gene, positions, X: np.ndarray) -> None:
    """Trace ``gene`` once and sweep it from each ``(residual2, c, sink)``
    holder position, computing each local derivative once; its slots and
    derivatives are dropped on return."""
    derivatives: dict = {}
    with np.errstate(all="ignore"):
        values = run_tape(gene, X)
        for residual2, c, sink in positions:
            _sweep(gene, values, residual2 * c, X, sink, derivatives)


def tune(individual, train, budget: StepBudget = StepBudget()):
    """Gradient-tune the LCF weights of one individual on the training set.

    Runs up to ``budget.steps_for(total nodes)`` iterations of {forward
    trace, refit top-level OLS, backward, iRprop- step} over the
    individual's own weight sets.  The individual is left carrying the
    best-training-R^2 weights observed (never worse than the weights it
    arrived with); a non-finite loss or gradient stops tuning early.
    Returns the ``(model, r2)`` fit of the weights it leaves, made during
    the descent, for the caller to adopt instead of refitting; ``None`` when
    no fit was valid (the weights are then unchanged) or the individual has
    no LCF leaves (a no-op).
    """
    if not individual.has_lcf():
        return None
    sets = individual.weight_sets()
    best_fit, best = (None, -np.inf), {}  # every update follows a valid fit, which sets both

    def keep_best(model, r2: float) -> None:
        nonlocal best_fit, best
        if r2 > best_fit[1]:
            best_fit, best = (model, r2), {w: w.values() for w in sets}

    n_steps = budget.steps_for(individual.total_nodes())
    if _descend([individual], sets, train, n_steps, individual.weights_changed, keep_best):
        trace = forward_trace(individual, train.X)
        keep_best(*fit_and_score(trace.roots(individual), train.y))
    for w, (a, b) in best.items():
        w.set_values(a, b)
    individual.weights_changed()
    return best_fit if best else None


class GlobalWeightTable:
    """Population-wide weight sets, one per feature index, plus an epoch
    counter so cached evaluations notice global updates."""

    __slots__ = ("weights", "epoch")

    def __init__(self, dim: int) -> None:
        self.weights = {i: LcfWeights.identity(i, dim) for i in range(1, dim + 1)}
        self.epoch = 0

    def lookup(self, index: int) -> LcfWeights:
        return self.weights[index]

    def bump(self) -> None:
        self.epoch += 1


def global_tune(population, table: GlobalWeightTable, train, steps: int = 2) -> None:
    """Shared-table tuning for the globally synchronised mode: each step sums
    the loss partials of every individual (its own freshly fit coefficients
    held fixed) per index group and makes one iRprop- update of the table's
    weight sets, whose step-size state the whole population shares."""
    _descend(population, list(table.weights.values()), train, steps, table.bump,
             epoch=lambda: table.epoch)
