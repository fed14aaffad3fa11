"""Benchmark dataset generators, CSV ingestion and train/test splitting.

CSV format: comma separated, ``.`` decimal point, optional single header
row, one sample per row, target column selected by name or 0-based index
(default: last column).  Generated datasets are persisted in the same
format so toy and real data flow through one path.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateDataError


@dataclass
class Dataset:
    """Feature matrix plus target vector with a train/test role."""

    name: str
    X: np.ndarray
    y: np.ndarray
    role: str = "train"

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.X.ndim != 2 or self.y.ndim != 1 or self.X.shape[0] != self.y.shape[0]:
            raise DataError("X must be n x d and y a matching length-n vector")
        if self.X.shape[0] < 2:
            raise DataError("a dataset needs at least 2 samples")
        if not (np.isfinite(self.X).all() and np.isfinite(self.y).all()):
            raise DataError("dataset contains non-finite entries")
        if self.role == "train" and np.all(self.y == self.y[0]):
            raise DegenerateDataError(f"dataset {self.name!r}: target is constant")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


def rotation_matrix(d: int) -> np.ndarray:
    """Product of pi/4 Givens rotations over all axis pairs ``(i, j)``,
    ``i < j``, in lexicographic order, applied left to right."""
    R = np.eye(d)
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    for i in range(d):
        for j in range(i + 1, d):
            g = np.eye(d)
            g[i, i] = c
            g[i, j] = -s
            g[j, i] = s
            g[j, j] = c
            R = R @ g
    return R


def _logistic(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def gen_sigmoid(d: int, rotated: bool, rng) -> tuple[Dataset, Dataset]:
    """Sigmoid-of-first-coordinate toy problem in ``d`` dimensions.

    ``y = s((R x)_1)`` with ``s`` the increasing logistic and ``R`` either
    the identity or the all-pairs pi/4 rotation.  Samples are uniform on
    ``[-10, 10]^d``; 100*d training rows and 250*d testing rows.
    """
    R = rotation_matrix(d) if rotated else np.eye(d)
    prefix = "rs" if rotated else "s"
    name = f"{prefix}{d}d"

    def make(n: int, role: str) -> Dataset:
        X = rng.uniform(-10.0, 10.0, size=(n, d))
        y = _logistic((X @ R.T)[:, 0])
        return Dataset(name=name, X=X, y=y, role=role)

    return make(100 * d, "train"), make(250 * d, "test")


def k11c_target(X: np.ndarray) -> np.ndarray:
    x1, x2 = X[:, 0], X[:, 1]
    return (27.22 * x1 - 4.54) * (-0.39 * x2) + 11.46 * np.sin(
        (0.21 * x1 - 1.0) * (x2 + 16.6) + 1.97
    )


def gen_k11c(rng) -> tuple[Dataset, Dataset]:
    """Coefficient-rich 2-d benchmark: 500 uniform training samples on
    ``[-3, 3]^2`` and a deterministic 601 x 601 grid (361201 rows) as test."""
    X_train = rng.uniform(-3.0, 3.0, size=(500, 2))
    axis = np.linspace(-3.0, 3.0, 601)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    X_test = np.column_stack([g1.ravel(), g2.ravel()])
    return (
        Dataset("k11c", X_train, k11c_target(X_train), "train"),
        Dataset("k11c", X_test, k11c_target(X_test), "test"),
    )


def ub5d_target(X: np.ndarray) -> np.ndarray:
    return 10.0 / (5.0 + np.sum((X - 3.0) ** 2, axis=1))


def gen_ub5d(rng) -> tuple[Dataset, Dataset]:
    """Unwrapped-ball benchmark in 5 dimensions: 1024 training and 5000
    testing samples, uniform on ``[-0.25, 6.35]^5``."""
    X_train = rng.uniform(-0.25, 6.35, size=(1024, 5))
    X_test = rng.uniform(-0.25, 6.35, size=(5000, 5))
    return (
        Dataset("ub5d", X_train, ub5d_target(X_train), "train"),
        Dataset("ub5d", X_test, ub5d_target(X_test), "test"),
    )


GENERATORS = {
    "s2d": lambda rng: gen_sigmoid(2, False, rng),
    "s5d": lambda rng: gen_sigmoid(5, False, rng),
    "s10d": lambda rng: gen_sigmoid(10, False, rng),
    "rs2d": lambda rng: gen_sigmoid(2, True, rng),
    "rs5d": lambda rng: gen_sigmoid(5, True, rng),
    "rs10d": lambda rng: gen_sigmoid(10, True, rng),
    "k11c": gen_k11c,
    "ub5d": gen_ub5d,
}


def generate(name: str, rng) -> tuple[Dataset, Dataset]:
    """Dispatch a generator by name (case-insensitive)."""
    key = name.lower()
    if key not in GENERATORS:
        raise DataError(f"unknown generator {name!r}; known: {sorted(GENERATORS)}")
    return GENERATORS[key](rng)


def split(data: Dataset, ratio: float, rng) -> tuple[Dataset, Dataset]:
    """Random partition into train/test; first ``ceil(ratio * n)`` rows of a
    uniform permutation drawn from ``rng`` become the training set."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must be strictly between 0 and 1")
    n = data.n
    n_train = math.ceil(ratio * n)
    if n_train == 0 or n_train == n:
        raise DataError(f"split of {n} rows at ratio {ratio} leaves one side empty")
    perm = rng.permutation(n)
    tr, te = perm[:n_train], perm[n_train:]
    return (
        Dataset(data.name, data.X[tr], data.y[tr], "train"),
        Dataset(data.name, data.X[te], data.y[te], "test"),
    )


def load_csv(path, target=-1, header: bool = False, name: str | None = None,
             role: str = "train") -> Dataset:
    """Load a numeric CSV; ``target`` is a column name (requires a header)
    or a 0-based index (negative allowed).  Empty lines are skipped, so the
    header is the first non-empty row.  Non-numeric, missing or non-finite
    cells raise :class:`DataError` naming row and column."""
    rows: list[list[float]] = []
    columns: list[str] | None = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for r, raw in enumerate(reader):
            if not raw:
                continue
            if header and columns is None:
                columns = [cell.strip() for cell in raw]
                continue
            parsed = []
            for c, cell in enumerate(raw):
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: non-numeric value {cell!r} at row {r}, column {c}"
                    ) from None
                if not math.isfinite(value):
                    raise DataError(f"{path}: non-finite value at row {r}, column {c}")
                parsed.append(value)
            if rows and len(parsed) != len(rows[0]):
                raise DataError(f"{path}: ragged row {r}")
            rows.append(parsed)
    if not rows:
        raise DataError(f"{path}: no data rows")
    table = np.array(rows)
    n_cols = table.shape[1]
    if isinstance(target, str):
        if columns is None:
            raise DataError("selecting the target by name requires a header row")
        if target not in columns:
            raise DataError(f"target column {target!r} not in header {columns}")
        t = columns.index(target)
    else:
        t = int(target)
        if not -n_cols <= t < n_cols:
            raise DataError(f"{path}: target column {t} out of range for {n_cols} columns")
    mask = np.ones(n_cols, dtype=bool)
    mask[t] = False
    return Dataset(
        name=name or str(path),
        X=table[:, mask],
        y=table[:, t],
        role=role,
    )


def save_csv(data: Dataset, path) -> None:
    """Write a dataset with a header row and the target as the last column.
    Values are written with repr so a reload reproduces them bit-exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(data.dim)] + ["target"])
        for row, target in zip(data.X, data.y):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(target))])
