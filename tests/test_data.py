import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from rankal.data import (
    DataFormatError,
    Dataset,
    PoolState,
    SplitSpec,
    load_table,
    make_two_blobs,
    normalize_features,
    oracle_label,
    split_pool,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadDense:
    def test_label_coercion_01(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b,y\n1,2,0\n3,4,1\n5,6,0\n")
        d = load_table(path, "dense-csv")
        assert d.labels.tolist() == [-1, 1, -1]
        assert d.ids.tolist() == [0, 1, 2]
        assert d.features.shape == (3, 2)

    def test_string_labels_sorted(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,y\n1,pos\n2,neg\n")
        d = load_table(path)
        # 'neg' < 'pos' lexicographically
        assert d.labels.tolist() == [1, -1]

    def test_malformed_row_reports_line(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b,y\n1,2,0\n1,oops,1\n")
        with pytest.raises(DataFormatError, match="row 3"):
            load_table(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_reports_line(self, tmp_path, value):
        path = write(tmp_path, "d.csv", f"a,b,y\n1,2,0\n3,4,1\n5,{value},0\n")
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: row 4:") + ".*finite"):
            load_table(path)

    def test_mixed_labels_name_row_and_label(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,y\n1,0\n2,1+1\n3,1\n")
        with pytest.raises(DataFormatError, match=re.escape(
                f"{path}: row 3: label '1+1' is not a number, unlike label '0' on row 2")):
            load_table(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_label_names_row_and_label(self, tmp_path, value):
        path = write(tmp_path, "d.csv", f"a,y\n1,0\n2,{value}\n3,0\n")
        with pytest.raises(DataFormatError, match=re.escape(
                f"{path}: row 3: label {value!r} is not a finite number")):
            load_table(path)

    def test_non_utf8_byte_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,y\n1,0\n2,\xff\n")
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: row 3: not UTF-8 text")):
            load_table(str(path))

    def test_three_labels_rejected(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,y\n1,0\n2,1\n3,2\n")
        with pytest.raises(ValueError, match="two distinct"):
            load_table(path)

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path, "d.csv", "")
        with pytest.raises(ValueError):
            load_table(path)


class TestLoadSparse:
    def test_fill_rule(self, tmp_path):
        path = write(tmp_path, "s.txt", "1 2:0.5\n-1 3:2.0\n")
        d = load_table(path, "sparse-index-value")
        assert d.features.tolist() == [[0.0, 0.5, 0.0], [0.0, 0.0, 2.0]]
        assert d.labels.tolist() == [1, -1]

    def test_bad_token_reports_line(self, tmp_path):
        path = write(tmp_path, "s.txt", "1 2:0.5\n1 nope\n")
        with pytest.raises(DataFormatError, match="row 2"):
            load_table(path, "sparse-index-value")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_reports_line(self, tmp_path, value):
        path = write(tmp_path, "s.txt", f"1 2:0.5\n-1 1:{value} 3:2.0\n")
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: row 2:") + ".*finite"):
            load_table(path, "sparse-index-value")

    def test_mixed_labels_name_row_and_label(self, tmp_path):
        path = write(tmp_path, "s.txt", "pos 1:1\n\n1 1:2\nneg 1:3\n")
        with pytest.raises(DataFormatError, match=re.escape(
                f"{path}: row 3: label '1' is a number, unlike label 'pos' on row 1")):
            load_table(path, "sparse-index-value")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_label_names_row_and_label(self, tmp_path, value):
        path = write(tmp_path, "s.txt", f"1 1:1\n\n{value} 1:2\n-1 1:3\n")
        with pytest.raises(DataFormatError, match=re.escape(
                f"{path}: row 3: label {value!r} is not a finite number")):
            load_table(path, "sparse-index-value")

    def test_unknown_format(self, tmp_path):
        path = write(tmp_path, "s.txt", "1 1:1\n")
        with pytest.raises(ValueError):
            load_table(path, "libsvm")


WDBC_PATH = os.path.join(os.path.dirname(__file__), "..", "datasets", "wdbc.csv")


@pytest.mark.skipif(not os.path.exists(WDBC_PATH), reason="wdbc not bundled")
def test_wdbc_shape():
    d = load_table(WDBC_PATH)
    assert len(d) == 569 and d.n_features == 30
    counts = sorted([(d.labels == -1).sum(), (d.labels == 1).sum()])
    assert counts == [212, 357]


class TestNormalize:
    def test_minmax(self):
        d = Dataset(np.array([[2.0], [4.0], [6.0]]), np.array([-1, 1, 1]), np.arange(3))
        out = normalize_features(d)
        assert out.features[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_constant_column(self):
        d = Dataset(np.array([[5.0, 1.0], [5.0, 2.0]]), np.array([-1, 1]), np.arange(2))
        out = normalize_features(d)
        assert out.features[:, 0].tolist() == [0.0, 0.0]

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        d = Dataset(rng.normal(size=(20, 4)), rng.choice([-1, 1], 20), np.arange(20))
        once = normalize_features(d)
        twice = normalize_features(once)
        np.testing.assert_allclose(once.features, twice.features, atol=1e-15)

    def test_order_preserved_per_column(self):
        rng = np.random.default_rng(1)
        d = Dataset(rng.normal(size=(30, 3)), rng.choice([-1, 1], 30), np.arange(30))
        out = normalize_features(d)
        for j in range(3):
            assert np.array_equal(
                np.argsort(d.features[:, j], kind="stable"),
                np.argsort(out.features[:, j], kind="stable"),
            )


class TestSplit:
    def test_sizes(self):
        d = make_two_blobs(n=10, seed=0)
        test, pool = split_pool(d, SplitSpec(0.5, 0))
        assert len(test) == 5 and len(pool.data) == 5
        assert pool.n_labeled == 0 and pool.n_unlabeled == 5

    def test_deterministic(self):
        d = make_two_blobs(n=40, seed=0)
        t1, p1 = split_pool(d, SplitSpec(0.5, 9))
        t2, p2 = split_pool(d, SplitSpec(0.5, 9))
        assert t1.ids.tolist() == t2.ids.tolist()
        assert p1.data.ids.tolist() == p2.data.ids.tolist()

    def test_seeds_differ(self):
        d = make_two_blobs(n=100, seed=0)
        differing = 0
        for s in range(20):
            a, _ = split_pool(d, SplitSpec(0.5, s))
            b, _ = split_pool(d, SplitSpec(0.5, 1000 + s))
            if a.ids.tolist() != b.ids.tolist():
                differing += 1
        assert differing >= 19

    def test_exhaustive_disjoint(self):
        d = make_two_blobs(n=31, seed=2)
        test, pool = split_pool(d, SplitSpec(0.4, 3))
        assert len(test) == round(0.4 * 31)
        combined = sorted(test.ids.tolist() + pool.data.ids.tolist())
        assert combined == list(range(31))

    @pytest.mark.parametrize(
        "make, kwargs, message",
        [
            (SplitSpec, dict(seed=-1), "seed must be an integer >= 0"),
            (SplitSpec, dict(seed=1.5), "seed must be an integer >= 0"),
            (SplitSpec, dict(seed=True), "seed must be an integer >= 0"),
            (make_two_blobs, dict(n=0), "n must be an integer >= 1"),
            (make_two_blobs, dict(n_features=0), "n_features must be an integer >= 1"),
            (make_two_blobs, dict(center_distance=float("nan")),
             "center_distance must be a finite number >= 0"),
            (make_two_blobs, dict(sigma=-1), "sigma must be a finite number >= 0"),
            (make_two_blobs, dict(pos_fraction=1.5), r"pos_fraction must lie in \[0, 1\]"),
            (make_two_blobs, dict(n="x"), "n must be an integer >= 1"),
        ],
        ids=["split-seed-negative", "split-seed-float", "split-seed-bool", "blobs-n-0",
             "blobs-n_features-0", "blobs-center_distance-nan", "blobs-sigma-negative",
             "blobs-pos_fraction-1.5", "blobs-n-str"],
    )
    def test_value_rejected(self, make, kwargs, message):
        with pytest.raises(ValueError, match=message):
            make(**kwargs)

    def test_tiny_dataset_rejected(self):
        d = Dataset(np.zeros((1, 2)), np.array([1]), np.arange(1))
        with pytest.raises(ValueError):
            split_pool(d, SplitSpec(0.5, 0))


class TestOracle:
    def setup_method(self):
        d = make_two_blobs(n=200, seed=5)
        _, self.pool = split_pool(d, SplitSpec(0.5, 5))

    def test_batch_moves_indices(self):
        batch = self.pool.unlabeled_idx[:1]
        after = oracle_label(self.pool, batch)
        assert after.n_unlabeled == 99 and after.n_labeled == 1
        assert after.iteration == 1

    def test_empty_batch_only_ticks(self):
        after = oracle_label(self.pool, np.array([], dtype=int))
        assert after.n_labeled == 0 and after.iteration == 1

    def test_partition_invariant_through_run(self):
        state = self.pool
        rng = np.random.default_rng(0)
        while state.n_unlabeled > 0:
            k = min(7, state.n_unlabeled)
            batch = rng.choice(state.unlabeled_idx, size=k, replace=False)
            state = oracle_label(state, batch)  # PoolState validates partition
        assert state.n_labeled == 100

    def test_rejects_labeled_index(self):
        state = oracle_label(self.pool, self.pool.unlabeled_idx[:2])
        with pytest.raises(ValueError):
            oracle_label(state, state.labeled_idx[:1])

    def test_rejects_duplicates(self):
        idx = self.pool.unlabeled_idx[0]
        with pytest.raises(ValueError, match="duplicate"):
            oracle_label(self.pool, np.array([idx, idx]))

    @pytest.mark.parametrize("bad", [-1, -200, 200, 10**9])
    def test_rejects_index_outside_pool(self, bad):
        batch = np.array([self.pool.unlabeled_idx[0], bad])
        with pytest.raises(ValueError, match="not unlabeled pool members"):
            oracle_label(self.pool, batch)

    @pytest.mark.parametrize("bad", [-1, 200])
    def test_duplicates_named_before_range(self, bad):
        with pytest.raises(ValueError, match="duplicate"):
            oracle_label(self.pool, np.array([bad, bad]))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1), size=st.integers(0, 8),
           low=st.integers(-3, 0), high=st.integers(0, 3), valid=st.booleans())
    def test_matches_reference(self, n, seed, size, low, high, valid):
        rng = np.random.default_rng(seed)
        perm = rng.permutation(n)
        cut = rng.integers(0, n + 1)
        pool = PoolState(make_two_blobs(n=n, seed=0), perm[:cut], perm[cut:])
        if valid:
            batch = rng.choice(pool.unlabeled_idx, size=min(size, n - cut), replace=False)
        else:
            batch = rng.integers(low, n + high, size=size)
        try:
            want = reference.oracle_label(pool, batch)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                oracle_label(pool, batch)
            return
        got = oracle_label(pool, batch)
        for name in ("labeled_idx", "unlabeled_idx"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
            assert getattr(got, name).dtype == getattr(want, name).dtype
        assert got.iteration == want.iteration and got.data is want.data


def test_oracle_successor_passes_the_full_partition_check():
    # oracle_label builds its result without PoolState's whole-pool check; the
    # constructor, which makes that check, must accept every state of a run
    _, state = split_pool(make_two_blobs(n=60, seed=6), SplitSpec(0.5, 6))
    rng = np.random.default_rng(6)
    while state.n_unlabeled:
        size = min(4, state.n_unlabeled)
        state = oracle_label(state, rng.choice(state.unlabeled_idx, size=size, replace=False))
        PoolState(state.data, state.labeled_idx, state.unlabeled_idx)  # raises if not one


class TestPoolState:
    data = make_two_blobs(n=6, seed=0)

    def state(self, labeled, unlabeled):
        return PoolState(self.data, np.array(labeled, dtype=int),
                         np.array(unlabeled, dtype=int))

    def test_partition_accepted(self):
        assert self.state([4, 1], [0, 2, 3, 5]).n_labeled == 2
        assert self.state([], range(6)).n_unlabeled == 6

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            self.state([1, 2], [0, 2, 3, 4, 5])

    @pytest.mark.parametrize("labeled, unlabeled", [
        ([0, 1], [2, 3, 4]),        # index 5 in neither set
        ([0, 0], [1, 2, 3, 4, 5]),  # duplicate in one set
        ([0, 6], [1, 2, 3, 4, 5]),  # out of range
        ([-1, 0], [1, 2, 3, 4]),    # negative
    ])
    def test_non_partition_rejected(self, labeled, unlabeled):
        with pytest.raises(ValueError, match="partition the pool"):
            self.state(labeled, unlabeled)
