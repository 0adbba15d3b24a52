import os
import re

import numpy as np
import pytest

from rankal.data import (
    DataFormatError,
    Dataset,
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
        with pytest.raises(ValueError):
            oracle_label(self.pool, np.array([idx, idx]))
