"""Tabular binary-classification data: loading, normalization, pool management.

Every dataset, rank-list and weights file is read here.  Four text formats,
all UTF-8:

* dense CSV: comma separated, one header row, label in the last column
  (``load_dense_csv``)
* sparse index/value lines: ``label idx:val idx:val ...`` with 1-based
  indices (``load_sparse``)
* rank-list CSV: sample id, then one rank per list; the first row is a header
  when its first field is not a number (``load_rank_lists``)
* weights: one weight per line (``load_weights``)

The curve CSV that ``rankal run`` writes and ``rankal compare`` reads is
parsed in ``rankal.cli`` next to its writer, through the same two helpers:
``csv_rows`` yields each non-blank CSV row with its line number and makes
every row as wide as the first, and ``parse_number`` turns one field into a
finite float.  Row numbers are physical line numbers: blank lines count.  An
error is a DataFormatError ``<path>: row <n>: <what> <field> ...``.

Labels are coerced to {-1, +1}: the two distinct raw values are mapped by
sorted order (smaller -> -1, larger -> +1).  A label column holds finite
numbers or strings, not both.

``SplitSpec`` and ``make_two_blobs`` check their own arguments and raise a
ValueError naming the argument, so a caller (``rankal run`` among them) only
has to build them.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace

import numpy as np

from .checks import check_choice, check_int, check_real


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
        check_real("test_fraction", self.test_fraction, 0, 1, open_low=True, open_high=True)
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


def _text(path):
    """The UTF-8 text of ``path``; a DataFormatError names the row of a bad byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        row = data.count(b"\n", 0, exc.start) + 1
        raise DataFormatError(f"{path}: row {row}: not UTF-8 text: {exc.reason}") from None


def csv_rows(path, width=None):
    """Yield (line number, fields) for each non-blank row of the CSV file ``path``.

    A row is blank when its line holds only whitespace.  Every row must have
    ``width`` fields (default: as many as the first row), else DataFormatError.
    """
    reader = csv.reader(io.StringIO(_text(path), newline=""))
    try:
        for row in reader:
            if len(row) > 1 or (row and row[0].strip()):
                width = len(row) if width is None else width
                if len(row) != width:
                    raise DataFormatError(
                        f"{path}: row {reader.line_num}: expected {width} fields, got {len(row)}"
                    )
                yield reader.line_num, row
    except csv.Error as exc:
        raise DataFormatError(f"{path}: row {reader.line_num}: {exc}") from None


def parse_number(path, row, field, what, minimum=-math.inf, integer=False):
    """``field`` as a finite float >= ``minimum``.

    With ``integer``, the float must also hold an integer below 2**53 in
    magnitude, so that no two integers in the file parse to one value.
    Otherwise DataFormatError ``<path>: row <row>: <what> <field> is not ...``.
    """
    try:
        value = float(field)
    except ValueError:
        value = math.nan
    exact = value.is_integer() and abs(value) < 2**53
    if not (math.isfinite(value) and value >= minimum and (exact or not integer)):
        need = "an integer of magnitude < 2**53" if integer else "a finite number"
        if minimum > -math.inf:
            need += f" >= {minimum:g}"
        raise DataFormatError(f"{path}: row {row}: {what} {field!r} is not {need}")
    return value


def _number_or_text(text):
    """``text`` as a float if it parses as one, else as it is."""
    try:
        return float(text)
    except ValueError:
        return text


def _coerce_labels(path, labels):
    """Map the two distinct raw labels to {-1, +1} by sorted order.

    ``labels`` holds (row, text) pairs.  A label that parses as a float is a
    number, and must be finite; any other is a string.  The first label
    decides which the column holds.
    """
    values = [_number_or_text(text) for _, text in labels]
    for (row, text), value in zip(labels, values):
        if isinstance(value, float):
            parse_number(path, row, text, "label")  # rejects nan and inf
        if type(value) is not type(values[0]):
            what = "a number" if isinstance(value, float) else "not a number"
            first_row, first = labels[0]
            raise DataFormatError(
                f"{path}: row {row}: label {text!r} is {what}, unlike label {first!r} "
                f"on row {first_row}"
            )
    distinct = sorted(set(values))
    if len(distinct) > 2:
        raise ValueError(f"{path}: more than two distinct labels: {distinct[:5]}...")
    if len(distinct) < 2:
        raise ValueError(f"{path}: need two distinct labels, found {distinct}")
    mapping = {distinct[0]: -1, distinct[1]: 1}
    return np.array([mapping[v] for v in values], dtype=int)


def load_dense_csv(path) -> Dataset:
    """Load a dense CSV with header row, feature columns, and the label last."""
    rows = csv_rows(path)
    header_row, header = next(rows, (1, ()))
    if len(header) == 1:  # every row is as wide as the header
        raise DataFormatError(f"{path}: row {header_row}: no feature column before the label")
    features, labels = [], []
    for row, fields in rows:
        features.append([parse_number(path, row, v, "feature") for v in fields[:-1]])
        labels.append((row, fields[-1]))
    if not labels:
        raise DataFormatError(f"{path}: no data rows")
    return Dataset(np.array(features, dtype=float), _coerce_labels(path, labels),
                   np.arange(len(labels)))


def load_sparse(path) -> Dataset:
    """Load sparse 'label idx:val ...' lines; indices are 1-based, and at
    least one line holds one."""
    entries, labels = [], []
    max_index, max_row = 0, 0
    for row, line in enumerate(io.StringIO(_text(path), newline=None), start=1):
        tokens = line.split()
        if not tokens:
            continue
        pairs = []
        for tok in tokens[1:]:
            try:
                idx_s, val_s = tok.split(":")
                idx = int(idx_s)
            except ValueError:
                raise DataFormatError(
                    f"{path}: row {row}: bad index:value token {tok!r}"
                ) from None
            if idx < 1:
                raise DataFormatError(f"{path}: row {row}: index {idx} < 1")
            pairs.append((idx, parse_number(path, row, val_s, "feature")))
            if idx > max_index:
                max_index, max_row = idx, row
        entries.append(pairs)
        labels.append((row, tokens[0]))
    if not entries:
        raise DataFormatError(f"{path}: empty file")
    if not max_index:
        raise DataFormatError(f"{path}: no row holds an index:value feature")
    try:
        features = np.zeros((len(entries), max_index))
    except (MemoryError, ValueError) as exc:  # ValueError: "array is too big", or past 2**63
        raise DataFormatError(
            f"{path}: row {max_row}: index {max_index} needs a {len(entries)} x {max_index} "
            f"feature matrix, which cannot be allocated ({type(exc).__name__})"
        ) from None
    for i, pairs in enumerate(entries):
        for idx, val in pairs:
            features[i, idx - 1] = val
    return Dataset(features, _coerce_labels(path, labels), np.arange(len(entries)))


def load_rank_lists(path):
    """The sample ids (n,) and the (L, n) rank lists of a rank-list CSV.

    Column 1 holds distinct integer sample ids, the other columns one rank
    list each: finite ranks >= 1, ties allowed.  The first row is a header
    when its first field is not a number.
    """
    rows = list(csv_rows(path))
    if rows and not isinstance(_number_or_text(rows[0][1][0]), float):
        rows = rows[1:]  # the header
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    if len(rows[0][1]) < 2:
        raise DataFormatError(
            f"{path}: row {rows[0][0]}: need an id column plus at least one rank list"
        )
    id_rows, ranks = {}, []
    for row, fields in rows:
        sid = parse_number(path, row, fields[0], "sample id", integer=True)
        if sid in id_rows:
            raise DataFormatError(
                f"{path}: row {row}: duplicate sample id {int(sid)} (first on row {id_rows[sid]})"
            )
        id_rows[sid] = row
        ranks.append([parse_number(path, row, v, "rank", minimum=1) for v in fields[1:]])
    return np.array(list(id_rows)).astype(int), np.array(ranks).T


def load_weights(path, n_lists):
    """The ``n_lists`` weights of a weights file, one per line, not normalized.

    Each weight is a finite number >= 0 and their sum is positive.
    """
    w = np.array([parse_number(path, row, field, "weight", minimum=0)
                  for row, (field,) in csv_rows(path, width=1)])
    if len(w) != n_lists:
        raise DataFormatError(f"{path}: expected {n_lists} weights, got {len(w)}")
    if not w.sum() > 0:
        raise DataFormatError(f"{path}: weights must have a positive sum")
    return w


TABLE_FORMATS = {"dense-csv": load_dense_csv, "sparse-index-value": load_sparse}


def load_table(path, format="dense-csv") -> Dataset:
    check_choice("format", format, TABLE_FORMATS)
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
    # moving a checked batch out of a valid partition leaves one, so the
    # successor skips PoolState.__post_init__'s check of the whole pool
    state = object.__new__(PoolState)
    state.__dict__.update(
        data=pool.data,
        labeled_idx=np.concatenate([pool.labeled_idx, batch]),
        unlabeled_idx=pool.unlabeled_idx[kept],
        iteration=pool.iteration + 1,
    )
    return state


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
    check_real("center_distance", center_distance, 0)
    check_real("sigma", sigma, 0)
    check_real("pos_fraction", pos_fraction, 0, 1)
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
