"""Outside-in tracing of the mggp modules, for the benchmark's traced run.

``Tracer.install`` replaces selected functions and methods of the mggp
modules with wrappers.  Each call records one span (span id, parent span id,
layer, start and end in ns); ``start_run`` opens a run id that the spans of
the following calls share.  Counts, busy and self times are derived from the
spans afterwards, plus a few counts that hooks take from arguments.  Every
module namespace that binds the wrapped function object is patched, so calls
made through a re-imported name (``mggp.backprop.ols_fit``,
``mggp.evolve.tune``) are seen too.  ``uninstall`` restores the originals.
Spans stay in memory until ``write``.

Not wrapped: helpers that run once per tree node or are generators
(``apply_fn``, ``local_derivative``, ``iter_nodes``, ``iter_paths``,
``node_at``, ``copy_tree``, ``replace_subtree``, ``format_tree``, ``depth``,
``node_count``, ``has_lcf``, ``trees_equal``) and the cached
``Engine.fitness_key`` accessor: there a wrapper would cost more than the
call it measures.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import itertools
import json
import sys
import time
from array import array
from collections import Counter

VARIATION = "evolve.variation"

# (module, attribute, layer name); a method is given as "Class.method".
TARGETS = (
    ("exprtree", "eval_batch", "exprtree.eval_batch"),
    ("exprtree", "Gene.output", "exprtree.gene_output"),
    ("exprtree", "random_tree", "exprtree.random_tree"),
    ("exprtree", "pick_node", "exprtree.pick_node"),
    ("fitness", "ols_fit", "fitness.ols_fit"),
    ("fitness", "r_squared", "fitness.r_squared"),
    ("fitness", "fit_linear", "fitness.fit_linear"),
    ("fitness", "evaluate", "fitness.evaluate"),
    ("fitness", "lcf_ratio", "fitness.lcf_ratio"),
    ("fitness", "mean_gene_depth", "fitness.mean_gene_depth"),
    ("backprop", "forward_trace", "backprop.forward_trace"),
    ("backprop", "backward", "backprop.backward"),
    ("backprop", "irprop_minus_step", "backprop.irprop_minus_step"),
    ("backprop", "tune", "backprop.tune"),
    ("backprop", "global_tune", "backprop.global_tune"),
    ("evolve", "run", "evolve.run"),
    ("evolve", "Engine.evaluate", "evolve.evaluate"),
    ("evolve", "Engine.clone_individual", "evolve.clone_individual"),
    ("evolve", "Engine.tournament_select", "evolve.tournament_select"),
    ("evolve", "Engine.high_level_xover", "evolve.high_level_xover"),
    ("evolve", "Engine.low_level_xover", "evolve.low_level_xover"),
    ("evolve", "Engine.subtree_mutation", "evolve.subtree_mutation"),
    ("evolve", "Engine.constant_mutation", "evolve.constant_mutation"),
    ("evolve", "Engine.weights_mutation", "evolve.weights_mutation"),
    ("evolve", "Engine.sync_repair", "evolve.sync_repair"),
    ("evolve", "Engine.init_population", "evolve.init_population"),
    ("evolve", "Engine.step_generation", "evolve.step_generation"),
    ("bench", "generate", "bench.generate"),
    ("stats", "mann_whitney_u", "stats.mann_whitney_u"),
    ("stats", "_exact_p", "stats.exact"),
    ("stats", "_normal_p", "stats.normal"),
    ("stats", "bonferroni", "stats.bonferroni"),
    ("stats", "compare_vs_baseline", "stats.compare_vs_baseline"),
    ("stats", "summarize", "stats.summarize"),
    ("cli", "main", "cli.main"),
    ("cli", "load_records", "cli.load_records"),
)

# Layers that also count toward a group layer (busy time of the union).
GROUPS = {
    "evolve.high_level_xover": VARIATION,
    "evolve.low_level_xover": VARIATION,
    "evolve.subtree_mutation": VARIATION,
    "evolve.constant_mutation": VARIATION,
    "evolve.weights_mutation": VARIATION,
}

# Wrapped layers that none of the benchmark's workloads reach: the weights
# mutation runs only in the M and C tunings.
UNREACHED = frozenset({"evolve.weights_mutation"})


class Tracer:
    """Span recorder for one traced run."""

    COLUMNS = ("id", "parent", "layer", "start_ns", "end_ns", "child_ns", "outer")

    def __init__(self) -> None:
        self.runs: list[tuple[str, int]] = [("setup", 0)]  # (run id, first span id)
        self.layers = [name for _, _, name in TARGETS] + sorted(set(GROUPS.values()))
        self.spans = array("q")  # one row of len(COLUMNS) integers per span, in end order
        self.counts: Counter = Counter()  # counts taken by hooks
        self._stack: list[list] = []  # [span id, ns covered by child spans]
        self._depth = [0] * len(self.layers)  # open spans per layer, for outermost-only busy time
        self._ids = itertools.count()
        self._gene = None  # the gene whose output is being computed, for node counts
        self._restore: list[tuple] = []

    def start_run(self, run_id: str) -> None:
        """Attribute the spans that follow to ``run_id``."""
        first = next(self._ids)
        self._ids = itertools.count(first)  # hand out ``first`` again: span ids stay contiguous
        self.runs.append((run_id, first))

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "mggp" or n.startswith("mggp.")]
        hooks = self._hooks()
        for module_name, attr, name in TARGETS:
            owner = importlib.import_module(f"mggp.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(name, original, hooks.get(name)))
                self._restore.append((cls, method, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hooks.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _hooks(self) -> dict:
        from mggp import backprop, exprtree

        node_count = exprtree.node_count
        tune_args = inspect.signature(backprop.tune)

        def gene_output(args, kwargs):
            self._gene = args[0]

        def eval_batch(args, kwargs):
            root, X = args[0], args[1]
            gene = self._gene
            nodes = gene.node_count if gene is not None and gene.root is root else node_count(root)
            self.counts["exprtree.node_samples"] += nodes * len(X)

        def tune(args, kwargs):
            bound = tune_args.bind(*args, **kwargs)
            bound.apply_defaults()
            individual = bound.arguments["individual"]
            if individual.has_lcf():
                steps = bound.arguments["budget"].steps_for(individual.total_nodes())
                self.counts["backprop.tune.steps_budget"] += steps

        return {"exprtree.gene_output": gene_output, "exprtree.eval_batch": eval_batch,
                "backprop.tune": tune}

    def _wrap(self, name: str, fn, hook):
        layer = self.layers.index(name)
        group = self.layers.index(GROUPS[name]) if name in GROUPS else None
        clock = time.perf_counter_ns
        stack, depth, add = self._stack, self._depth, self.spans.extend

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            frame = [next(self._ids), 0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            outer = depth[layer] == 0
            depth[layer] += 1
            if group is not None:
                outer |= (depth[group] == 0) << 1
                depth[group] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[layer] -= 1
                if group is not None:
                    depth[group] -= 1
                if parent is None:
                    add((frame[0], -1, layer, start, end, frame[1], outer))
                else:
                    parent[1] += end - start
                    add((frame[0], parent[0], layer, start, end, frame[1], outer))

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ----------------------------------------------------------

    def layer_tables(self) -> dict[str, dict]:
        """Per layer: calls, busy ns (outermost spans), self ns; and calls
        per (parent layer, layer) pair."""
        import numpy as np

        rows = np.frombuffer(self.spans, dtype=np.int64) if self.spans else np.zeros(0, np.int64)
        rows = rows.reshape(-1, len(self.COLUMNS))
        col = {c: rows[:, i] for i, c in enumerate(self.COLUMNS)}
        n = len(self.layers)
        duration = col["end_ns"] - col["start_ns"]
        layer = col["layer"]
        group_of = np.array([self.layers.index(GROUPS[l]) if l in GROUPS else -1
                             for l in self.layers], dtype=np.int64)
        calls = np.bincount(layer, minlength=n)
        busy = np.bincount(layer, weights=duration * (col["outer"] & 1), minlength=n)
        in_group = (col["outer"] & 2) > 0
        busy += np.bincount(group_of[layer][in_group], weights=duration[in_group], minlength=n)
        own = np.bincount(layer, weights=duration - col["child_ns"], minlength=n)
        row_of = np.empty(len(layer), dtype=np.int64)
        row_of[col["id"]] = np.arange(len(layer))
        has_parent = col["parent"] >= 0
        parent_layer = layer[row_of[col["parent"][has_parent]]]
        pairs = Counter(zip((self.layers[i] for i in parent_layer),
                            (self.layers[i] for i in layer[has_parent])))
        return {
            "calls": {l: int(calls[i]) for i, l in enumerate(self.layers)},
            "busy_ns": {l: float(busy[i]) for i, l in enumerate(self.layers)},
            "self_ns": {l: float(own[i]) for i, l in enumerate(self.layers)},
            "pairs": pairs,
        }

    def layer_metrics(self) -> dict[str, float]:
        """The benchmark's per-layer metrics, from the recorded spans."""
        tables = self.layer_tables()
        calls, busy, own, pairs = (tables[k] for k in ("calls", "busy_ns", "self_ns", "pairs"))
        counts = self.counts

        def ms(table, name):
            return table[name] / 1e6

        def ratio(num, den):
            return num / den if den else 0.0

        eval_misses = pairs[("exprtree.gene_output", "exprtree.eval_batch")]
        tune_steps = pairs[("backprop.tune", "backprop.irprop_minus_step")]
        return {
            "exprtree.eval_batch.calls": calls["exprtree.eval_batch"],
            "exprtree.eval_batch.busy_ms": ms(busy, "exprtree.eval_batch"),
            "exprtree.node_samples": counts["exprtree.node_samples"],
            "exprtree.ns_per_node_sample": ratio(busy["exprtree.eval_batch"],
                                                 counts["exprtree.node_samples"]),
            "exprtree.gene_output.calls": calls["exprtree.gene_output"],
            "exprtree.gene_cache.hit_ratio": ratio(calls["exprtree.gene_output"] - eval_misses,
                                                   calls["exprtree.gene_output"]),
            "fitness.fit_linear.calls": calls["fitness.fit_linear"],
            "fitness.fit_linear.self_ms": ms(own, "fitness.fit_linear"),
            "fitness.ols_fit.calls": calls["fitness.ols_fit"],
            "fitness.ols_fit.busy_ms": ms(busy, "fitness.ols_fit"),
            "evolve.evaluate.calls": calls["evolve.evaluate"],
            "evolve.fit_cache.hit_ratio": (1.0 - ratio(calls["fitness.fit_linear"],
                                                       calls["evolve.evaluate"])
                                           if calls["evolve.evaluate"] else 0.0),
            "backprop.tune.calls": calls["backprop.tune"],
            "backprop.tune.busy_ms": ms(busy, "backprop.tune"),
            "backprop.tune.self_ms": ms(own, "backprop.tune"),
            "backprop.tune.steps": tune_steps,
            "backprop.tune.step_ratio": ratio(tune_steps, counts["backprop.tune.steps_budget"]),
            "backprop.backward.calls": calls["backprop.backward"],
            "backprop.backward.busy_ms": ms(busy, "backprop.backward"),
            "backprop.irprop_minus_step.calls": calls["backprop.irprop_minus_step"],
            "backprop.irprop_minus_step.busy_ms": ms(busy, "backprop.irprop_minus_step"),
            "backprop.global_tune.calls": calls["backprop.global_tune"],
            "backprop.global_tune.busy_ms": ms(busy, "backprop.global_tune"),
            "backprop.global_tune.self_ms": ms(own, "backprop.global_tune"),
            "backprop.forward_trace.calls": calls["backprop.forward_trace"],
            "backprop.forward_trace.busy_ms": ms(busy, "backprop.forward_trace"),
            "evolve.sync_repair.calls": calls["evolve.sync_repair"],
            "evolve.sync_repair.busy_ms": ms(busy, "evolve.sync_repair"),
            "evolve.step_generation.self_ms": ms(own, "evolve.step_generation"),
            "evolve.tournament_select.busy_ms": ms(busy, "evolve.tournament_select"),
            "evolve.variation.busy_ms": ms(busy, VARIATION),
            "evolve.init_population.busy_ms": ms(busy, "evolve.init_population"),
            "bench.generate.busy_ms": ms(busy, "bench.generate"),
            "stats.mann_whitney_u.calls": calls["stats.mann_whitney_u"],
            "stats.mann_whitney_u.busy_ms": ms(busy, "stats.mann_whitney_u"),
            "stats.exact.calls": calls["stats.exact"],
            "cli.load_records.busy_ms": ms(busy, "cli.load_records"),
            "cli.main.self_ms": ms(own, "cli.main"),
        }

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines: a header listing the runs
        (run id, first span id), the layers and the row fields, then one row
        per span, with the layer given as an index into the header's list.
        A span belongs to the last run whose first span id is not above its
        own id."""
        width = len(self.COLUMNS)
        row = "[" + ",".join(["%d"] * width) + "]\n"
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps({"runs": self.runs, "layers": self.layers,
                                  "row": list(self.COLUMNS)}) + "\n")
            for i in range(0, len(self.spans), width):
                out.write(row % tuple(self.spans[i:i + width]))
