"""Checks of the program's outputs by routes of the benchmark's own.

Engine runs: the reported ``best_genes`` are parsed, evaluated by a tree
walker written here, and refit with ``numpy.linalg.lstsq``; the train and
test R^2 the run reported must match the refit within ``R2_TOLERANCE``.

Reports: the verdicts, run counts and medians printed by ``mggp report``
are compared with a Mann-Whitney test computed here (exact rank-sum
distribution by dynamic programming over doubled midranks, or the tie- and
continuity-corrected normal approximation), not by ``mggp.stats``.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter

import numpy as np
from scipy.special import expit

R2_TOLERANCE = 1e-9

_UNARY = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "tanh": np.tanh,
    "sinc": lambda x: np.where(x == 0.0, 1.0, np.sin(x) / x),
    "softplus": lambda x: np.logaddexp(0.0, x),
    "gauss": lambda x: np.exp(-np.square(x)),
    "pow2": lambda x: x ** 2,
    "pow3": lambda x: x ** 3,
    "pow4": lambda x: x ** 4,
    "pow5": lambda x: x ** 5,
    "pow6": lambda x: x ** 6,
}
_BINARY = {"add": np.add, "sub": np.subtract, "mul": np.multiply}


def eval_tree(node, X: np.ndarray, logsig_increasing: bool) -> np.ndarray:
    """Evaluate a parsed tree on the rows of ``X``."""
    kind = type(node).__name__
    if kind == "Const":
        return np.full(X.shape[0], node.value)
    if kind == "Var":
        return X[:, node.index - 1]
    if kind == "Lcf":
        return node.weights.a + X @ node.weights.b
    op = node.kind.value
    args = [eval_tree(child, X, logsig_increasing) for child in node.children]
    if op in _BINARY:
        return _BINARY[op](args[0], args[1])
    if op == "logsig":
        return expit(args[0]) if logsig_increasing else expit(-args[0])
    return _UNARY[op](args[0])


def refit_r2(trees, X: np.ndarray, y: np.ndarray, logsig_increasing: bool) -> float:
    """R^2 of the least-squares fit ``y ~ c0 + G c`` over the trees' outputs;
    ``-inf`` when an output or coefficient is not finite."""
    with np.errstate(all="ignore"):
        G = np.column_stack([eval_tree(t, X, logsig_increasing) for t in trees])
    if not np.isfinite(G).all():
        return -math.inf
    A = np.column_stack([np.ones(len(y)), G])
    coef = np.linalg.lstsq(A, y, rcond=None)[0]
    if not np.isfinite(coef).all():
        return -math.inf
    residual = y - (coef[0] + G @ coef[1:])
    r2 = 1.0 - float(np.sum(residual ** 2)) / float(np.sum((y - y.mean()) ** 2))
    return r2 if math.isfinite(r2) else -math.inf


def _r2_matches(reported: float, mine: float) -> bool:
    if math.isinf(reported) or math.isinf(mine):
        return reported == mine
    return abs(reported - mine) <= R2_TOLERANCE


def check_engine_record(record: dict, train, test, parse_tree, logsig_increasing: bool):
    """Return a description of the first mismatch, or ``None``."""
    trees = [parse_tree(text, train.dim) for text in record["best_genes"]]
    for role, data in (("train", train), ("test", test)):
        mine = refit_r2(trees, data.X, data.y, logsig_increasing)
        reported = record[f"{role}_r2"]
        if not _r2_matches(reported, mine):
            return f"{role} R2 {reported!r} != refit {mine!r}"
    return None


# ---------------------------------------------------------------------------
# Mann-Whitney U, by a route independent of mggp.stats


def _doubled_midranks(values: list[float]) -> list[int]:
    """Twice the midrank of each value (ties share the mean rank)."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = i + j + 2  # 2 * ((i + 1 + j + 1) / 2)
        i = j + 1
    return ranks


def exact_p(a: list[float], b: list[float]) -> float:
    """Two-sided exact p: the share of size-``len(a)`` subsets of the pooled
    doubled midranks whose sum lies at least as far from its mean as the
    observed one.  Counts come from a DP over (subset size, rank sum)."""
    ranks = _doubled_midranks(a + b)
    n, total = len(a), len(a) + len(b)
    ways = [Counter() for _ in range(n + 1)]
    ways[0][0] = 1
    for seen, r in enumerate(ranks):
        for k in range(min(n, seen + 1), 0, -1):
            for s, c in ways[k - 1].items():
                ways[k][s + r] += c
    mean = n * (total + 1)  # doubled expected rank sum
    dev = abs(sum(ranks[:n]) - mean)
    hits = sum(c for s, c in ways[n].items() if abs(s - mean) >= dev)
    return hits / math.comb(total, n)


def normal_p(a: list[float], b: list[float]) -> float:
    """Two-sided normal approximation with tie and continuity correction."""
    n, m = len(a), len(b)
    total = n + m
    ranks = _doubled_midranks(a + b)
    u = sum(ranks[:n]) / 2.0 - n * (n + 1) / 2.0
    ties = sum(t ** 3 - t for t in Counter(a + b).values())
    var = n * m / 12.0 * ((total + 1) - ties / (total * (total - 1)))
    if var <= 0.0:
        return 1.0
    z = max((abs(u - n * m / 2.0) - 0.5) / math.sqrt(var), 0.0)
    return min(1.0, math.erfc(z / math.sqrt(2.0)))


def expected_marks(config: list[float], baseline: list[float], alpha: float) -> set[str]:
    """The verdict marks ``report`` may print for one configuration: ``+``
    better, ``-`` worse, empty for indifferent.  A p-value within rounding
    of ``alpha`` admits either side of the threshold."""
    pooled = len(config) + len(baseline)
    p = exact_p(config, baseline) if pooled < 20 else normal_p(config, baseline)
    med_c, med_b = statistics.median(config), statistics.median(baseline)
    significant = "+" if med_c > med_b else "-" if med_c < med_b else ""
    if abs(p - alpha) <= 1e-12 * alpha:
        return {significant, ""}
    return {significant} if p <= alpha else {""}


def expected_report(records: list[dict], alpha: float) -> dict[str, dict]:
    """Per configuration: runs, printed medians and admissible marks."""
    groups: dict[str, list[dict]] = {}
    for rec in records:
        groups.setdefault(rec["codename"], []).append(rec)
    others = [c for c in groups if c != "baseline"]
    alpha_eff = alpha / max(1, len(others))
    base = [r["test_r2"] for r in groups["baseline"]]
    out = {}
    for codename, recs in groups.items():
        test = [r["test_r2"] for r in recs]
        out[codename] = {
            "runs": str(len(recs)),
            "train_med": f"{statistics.median(r['train_r2'] for r in recs):.4g}",
            "test_med": f"{statistics.median(test):.4g}",
            "marks": {""} if codename == "baseline" else expected_marks(test, base, alpha_eff),
        }
    return out


def parse_report(text: str) -> dict[str, dict[str, str]]:
    """The rows of the table ``report`` prints, by configuration, each a
    mapping from column name to cell."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("config"):
        raise ValueError("report has no table header")
    header = lines[0].split()
    rows = {}
    for line in lines[1:]:
        if not line.strip():
            break
        fields = line.split()
        if len(fields) == len(header) - 1:
            fields.append("")  # an indifferent verdict prints as blank
        rows[fields[0]] = dict(zip(header, fields))
    return rows


def check_report(text: str, expected: dict[str, dict]):
    """Compare the printed report table with ``expected``; return a
    description of the first mismatch, or ``None``."""
    try:
        rows = parse_report(text)
    except ValueError as exc:
        return str(exc)
    if set(rows) != set(expected):
        return f"report rows {sorted(rows)} != configurations {sorted(expected)}"
    for codename, want in expected.items():
        got = rows[codename]
        for key in ("runs", "train_med", "test_med"):
            if got[key] != want[key]:
                return f"{codename} {key} {got[key]} != {want[key]}"
        if got.get("vb") not in want["marks"]:
            return f"{codename} verdict {got.get('vb')!r} not in {sorted(want['marks'])}"
    return None
