"""Tabular binary-classification data: loading, normalization, pool management.

Two on-disk formats are supported:

* dense CSV: UTF-8, comma separated, one header row, label in the last column
* sparse index/value lines: ``label idx:val idx:val ...`` with 1-based indices

Labels are coerced to {-1, +1}: the two distinct raw values are mapped by
sorted order (smaller -> -1, larger -> +1).

``SplitSpec`` and ``make_two_blobs`` check their own arguments and raise a
ValueError naming the argument, so a caller (``rankal run`` among them) only
has to build them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .learner import check_int, is_real


class DataFormatError(ValueError):
    """Raised when an input file cannot be parsed."""


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (n_samples x n_features), labels in {-1,+1}, stable ids."""

    features: np.ndarray
    labels: np.ndarray
    ids: np.ndarray

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError("features must be 2-D")
        if len(self.features) != len(self.labels) or len(self.labels) != len(self.ids):
            raise ValueError("features, labels and ids must have equal length")
        if not np.all(np.isin(self.labels, (-1, 1))):
            raise ValueError("labels must be -1 or +1")

    def __len__(self):
        return len(self.labels)

    @property
    def n_features(self):
        return self.features.shape[1]

    def take(self, idx) -> "Dataset":
        idx = np.asarray(idx, dtype=int)
        return Dataset(self.features[idx], self.labels[idx], self.ids[idx])


@dataclass(frozen=True)
class SplitSpec:
    """Deterministic test/pool split: same seed, same dataset -> same split."""

    test_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not (is_real(self.test_fraction) and 0.0 < self.test_fraction < 1.0):
            raise ValueError("test_fraction must lie in (0, 1)")
        check_int("seed", self.seed, 0)


@dataclass(frozen=True)
class PoolState:
    """Labeled/unlabeled partition of a pool dataset across query iterations.

    ``data`` holds the ground truth used by the simulated oracle; labels of
    unlabeled samples are never read by query strategies.  States are
    immutable: labeling produces a new PoolState.
    """

    data: Dataset
    labeled_idx: np.ndarray
    unlabeled_idx: np.ndarray
    iteration: int = 0

    def __post_init__(self):
        n = len(self.data)
        both = np.concatenate([self.labeled_idx, self.unlabeled_idx])
        if np.any((both < 0) | (both >= n)):
            raise ValueError("labeled and unlabeled sets must partition the pool")
        labeled = np.zeros(n, dtype=bool)
        labeled[self.labeled_idx] = True
        if np.any(labeled[self.unlabeled_idx]):
            raise ValueError("labeled and unlabeled index sets overlap")
        if np.any(np.bincount(both, minlength=n) != 1):
            raise ValueError("labeled and unlabeled sets must partition the pool")

    @property
    def n_labeled(self):
        return len(self.labeled_idx)

    @property
    def n_unlabeled(self):
        return len(self.unlabeled_idx)

    @property
    def labeled_features(self):
        return self.data.features[self.labeled_idx]

    @property
    def labeled_labels(self):
        return self.data.labels[self.labeled_idx]

    @property
    def unlabeled_features(self):
        return self.data.features[self.unlabeled_idx]


def _coerce_labels(raw, path):
    """Map the two distinct raw label values to {-1, +1} by sorted order."""
    distinct = sorted(set(raw))
    if len(distinct) > 2:
        raise ValueError(f"{path}: more than two distinct labels: {distinct[:5]}...")
    if len(distinct) < 2:
        raise ValueError(f"{path}: need two distinct labels, found {distinct}")
    mapping = {distinct[0]: -1, distinct[1]: 1}
    return np.array([mapping[v] for v in raw], dtype=int)


def _parse_label(token):
    try:
        return float(token)
    except ValueError:
        return token


def load_dense_csv(path) -> Dataset:
    """Load a dense CSV with header row and the label in the last column."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        width = len(header)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise DataFormatError(
                    f"{path}: row {lineno}: expected {width} fields, got {len(row)}"
                )
            try:
                feats = [float(v) for v in row[:-1]]
            except ValueError as exc:
                raise DataFormatError(f"{path}: row {lineno}: {exc}") from None
            if not all(math.isfinite(v) for v in feats):
                raise DataFormatError(f"{path}: row {lineno}: feature values must be finite")
            rows.append((feats, _parse_label(row[-1])))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    features = np.array([r[0] for r in rows], dtype=float)
    labels = _coerce_labels([r[1] for r in rows], path)
    return Dataset(features, labels, np.arange(len(rows)))


def load_sparse(path) -> Dataset:
    """Load sparse 'label idx:val ...' lines; indices are 1-based."""
    entries = []
    max_index = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split()
            pairs = []
            for tok in tokens[1:]:
                try:
                    idx_s, val_s = tok.split(":")
                    idx, val = int(idx_s), float(val_s)
                except ValueError:
                    raise DataFormatError(
                        f"{path}: row {lineno}: bad index:value token {tok!r}"
                    ) from None
                if idx < 1:
                    raise DataFormatError(f"{path}: row {lineno}: index {idx} < 1")
                if not math.isfinite(val):
                    raise DataFormatError(f"{path}: row {lineno}: feature values must be finite")
                pairs.append((idx, val))
                max_index = max(max_index, idx)
            entries.append((_parse_label(tokens[0]), pairs))
    if not entries:
        raise ValueError(f"{path}: empty file")
    features = np.zeros((len(entries), max_index))
    for i, (_, pairs) in enumerate(entries):
        for idx, val in pairs:
            features[i, idx - 1] = val
    labels = _coerce_labels([e[0] for e in entries], path)
    return Dataset(features, labels, np.arange(len(entries)))


TABLE_FORMATS = {"dense-csv": load_dense_csv, "sparse-index-value": load_sparse}


def load_table(path, format="dense-csv") -> Dataset:
    if format not in TABLE_FORMATS:
        raise ValueError(f"unknown format {format!r}")
    return TABLE_FORMATS[format](path)


def normalize_features(d: Dataset, stats_from: Dataset | None = None) -> Dataset:
    """Min-max scale each feature column to [0, 1]; constant columns become 0.

    ``stats_from`` optionally supplies the column minima/maxima (e.g. to
    normalize a test set with pool statistics).  Idempotent.
    """
    ref = stats_from.features if stats_from is not None else d.features
    lo = ref.min(axis=0)
    hi = ref.max(axis=0)
    span = hi - lo
    safe = np.where(span > 0, span, 1.0)
    scaled = np.clip((d.features - lo) / safe, 0.0, 1.0)
    scaled[:, span == 0] = 0.0
    return replace(d, features=scaled)


def split_pool(d: Dataset, spec: SplitSpec):
    """Split into a held-out test set and an all-unlabeled pool."""
    n = len(d)
    if n < 2:
        raise ValueError("need at least 2 samples to split")
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(n)
    n_test = int(round(spec.test_fraction * n))
    test_idx = np.sort(perm[:n_test])
    pool_idx = np.sort(perm[n_test:])
    test = d.take(test_idx)
    pool = PoolState(
        data=d.take(pool_idx),
        labeled_idx=np.array([], dtype=int),
        unlabeled_idx=np.arange(len(pool_idx)),
    )
    return test, pool


def oracle_label(pool: PoolState, batch) -> PoolState:
    """Reveal ground-truth labels for ``batch`` (indices into the pool data)."""
    batch = np.asarray(batch, dtype=int)
    n = len(pool.data)
    if np.any((batch < 0) | (batch >= n)):  # never members, but duplicates are named first
        if len(np.unique(batch)) != len(batch):
            raise ValueError("batch contains duplicate indices")
        raise ValueError("batch contains indices that are not unlabeled pool members")
    hits = np.bincount(batch, minlength=n)
    if hits.max(initial=0) > 1:
        raise ValueError("batch contains duplicate indices")
    kept = hits[pool.unlabeled_idx] == 0
    if len(kept) - np.count_nonzero(kept) != len(batch):  # some index hit no unlabeled member
        raise ValueError("batch contains indices that are not unlabeled pool members")
    return PoolState(
        data=pool.data,
        labeled_idx=np.concatenate([pool.labeled_idx, batch]),
        unlabeled_idx=pool.unlabeled_idx[kept],
        iteration=pool.iteration + 1,
    )


def make_two_blobs(
    n=600,
    n_features=5,
    center_distance=3.0,
    sigma=0.5,
    pos_fraction=0.5,
    seed=0,
) -> Dataset:
    """Synthetic two-Gaussian-blob binary dataset."""
    check_int("n", n, 1)
    check_int("n_features", n_features, 1)
    check_int("seed", seed, 0)
    for name, value in (("center_distance", center_distance), ("sigma", sigma)):
        if not (is_real(value) and value >= 0):
            raise ValueError(f"{name} must be a finite number >= 0")
    if not (is_real(pos_fraction) and 0 <= pos_fraction <= 1):
        raise ValueError("pos_fraction must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    n_pos = int(round(n * pos_fraction))
    n_neg = n - n_pos
    direction = np.ones(n_features) / np.sqrt(n_features)
    offset = direction * (center_distance / 2.0)
    x_pos = rng.normal(0.0, sigma, size=(n_pos, n_features)) + offset
    x_neg = rng.normal(0.0, sigma, size=(n_neg, n_features)) - offset
    features = np.vstack([x_pos, x_neg])
    labels = np.concatenate([np.ones(n_pos, dtype=int), -np.ones(n_neg, dtype=int)])
    perm = rng.permutation(n)
    return Dataset(features[perm], labels[perm], np.arange(n))


def benchmark_blobs(seed=0) -> Dataset:
    """The bundled 600-sample two-blob benchmark dataset.

    Overlapping, mildly imbalanced blobs: hard enough that accuracy does not
    saturate within a 30% labeling budget, so query strategies separate.
    """
    return make_two_blobs(
        n=600, n_features=5, center_distance=2.2, sigma=0.7,
        pos_fraction=0.35, seed=seed,
    )
