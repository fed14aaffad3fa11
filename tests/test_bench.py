import math

import numpy as np
import pytest

from mggp.bench import (
    Dataset,
    gen_k11c,
    gen_sigmoid,
    gen_ub5d,
    generate,
    k11c_target,
    load_csv,
    rotation_matrix,
    save_csv,
    split,
)
from mggp.errors import DataError, DegenerateDataError


class TestDataset:
    def test_validates_shapes_and_finiteness(self):
        with pytest.raises(DataError):
            Dataset("x", np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(DataError):
            Dataset("x", np.array([[1.0], [np.inf]]), np.array([1.0, 2.0]))

    def test_one_sample_rejected(self):
        with pytest.raises(DataError, match="a dataset needs at least 2 samples"):
            Dataset("x", np.zeros((1, 2)), np.zeros(1))

    def test_constant_target_rejected_for_training(self):
        X = np.zeros((4, 1))
        with pytest.raises(DegenerateDataError):
            Dataset("x", X, np.ones(4), role="train")
        Dataset("x", X, np.ones(4), role="test")  # fine for test data


class TestRotation:
    @pytest.mark.parametrize("d", [2, 5, 10])
    def test_orthogonal(self, d):
        R = rotation_matrix(d)
        assert np.max(np.abs(R.T @ R - np.eye(d))) <= 1e-12

    def test_2d_quarter_turn_first_component(self):
        R = rotation_matrix(2)
        out = R @ np.array([1.0, 1.0])
        assert out[0] == pytest.approx(0.0, abs=1e-15)


class TestSigmoidGenerator:
    def test_sizes(self):
        for d in (2, 5, 10):
            train, test = gen_sigmoid(d, False, np.random.default_rng(0))
            assert train.n == 100 * d and test.n == 250 * d
            assert train.dim == d and test.dim == d

    def test_unrotated_depends_only_on_first_coordinate(self):
        train, _ = gen_sigmoid(3, False, np.random.default_rng(1))
        expected = 1.0 / (1.0 + np.exp(-train.X[:, 0]))
        assert np.array_equal(train.y, expected)

    def test_zero_first_coordinate_gives_half(self):
        rng = np.random.default_rng(2)
        _, test = gen_sigmoid(2, False, rng)
        # reconstruct via the target rule on a crafted point
        X = np.array([[0.0, 123.4]])
        y = 1.0 / (1.0 + np.exp(-(X[:, 0])))
        assert y[0] == 0.5

    def test_rotated_2d_diagonal_gives_half(self):
        R = rotation_matrix(2)
        z = (R @ np.array([1.0, 1.0]))[0]
        assert 1.0 / (1.0 + math.exp(-z)) == pytest.approx(0.5, abs=1e-15)

    def test_rotated_false_equals_identity_rotation(self):
        a_train, a_test = gen_sigmoid(2, False, np.random.default_rng(3))
        b_train, b_test = gen_sigmoid(2, True, np.random.default_rng(3))
        # same draws, different targets; X streams must match bitwise
        assert np.array_equal(a_train.X, b_train.X)
        assert np.array_equal(a_test.X, b_test.X)
        R = rotation_matrix(2)
        expected = 1.0 / (1.0 + np.exp(-(b_train.X @ R.T)[:, 0]))
        assert np.array_equal(b_train.y, expected)

    def test_outputs_finite(self):
        train, test = gen_sigmoid(5, True, np.random.default_rng(4))
        assert np.isfinite(train.X).all() and np.isfinite(train.y).all()
        assert np.isfinite(test.X).all() and np.isfinite(test.y).all()


class TestK11c:
    def test_shapes_and_grid(self):
        train, test = gen_k11c(np.random.default_rng(5))
        assert train.n == 500
        assert test.n == 361201
        assert test.X[:, 0].min() == -3.0 and test.X[:, 0].max() == 3.0
        assert test.X[:, 1].min() == -3.0 and test.X[:, 1].max() == 3.0
        assert np.abs(train.X).max() <= 3.0

    def test_origin_value(self):
        val = k11c_target(np.array([[0.0, 0.0]]))[0]
        assert val == pytest.approx(-10.09, abs=0.02)

    def test_grid_is_rng_independent(self):
        _, t1 = gen_k11c(np.random.default_rng(6))
        _, t2 = gen_k11c(np.random.default_rng(7))
        assert np.array_equal(t1.X, t2.X)
        assert np.array_equal(t1.y, t2.y)


class TestUb5d:
    def test_center_and_range(self):
        assert 10.0 / (5.0 + 0.0) == 2.0
        train, test = gen_ub5d(np.random.default_rng(8))
        from mggp.bench import ub5d_target

        assert ub5d_target(np.full((1, 5), 3.0))[0] == 2.0
        for ds in (train, test):
            assert np.all(ds.y > 0.0)
            assert np.all(ds.y <= 2.0)

    def test_sizes(self):
        train, test = gen_ub5d(np.random.default_rng(9))
        assert train.n == 1024 and test.n == 5000
        assert train.dim == 5


class TestGenerateDispatch:
    def test_known_names(self):
        train, test = generate("S5D", np.random.default_rng(0))
        assert train.n == 500 and test.n == 1250

    def test_unknown_name(self):
        with pytest.raises(DataError):
            generate("nope", np.random.default_rng(0))


class TestCsv:
    def test_three_columns_target_last(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n7.0,8.0,10.0\n")
        data = load_csv(p)
        assert data.dim == 2
        assert np.array_equal(data.y, [3.0, 6.0, 10.0])

    def test_non_numeric_cell_names_location(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(DataError, match=r"row 1, column 1"):
            load_csv(p)

    def test_nan_cell_rejected(self, tmp_path):
        p = tmp_path / "nan.csv"
        p.write_text("1.0,2.0\nnan,1.0\n")
        with pytest.raises(DataError, match=r"row 1, column 0"):
            load_csv(p)

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        data = Dataset("rt", rng.normal(size=(20, 3)), rng.normal(size=20))
        p = tmp_path / "rt.csv"
        save_csv(data, p)
        back = load_csv(p, target="target", header=True, role="train")
        assert np.array_equal(back.X, data.X)
        assert np.array_equal(back.y, data.y)

    def test_target_by_name_requires_header(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
        data = load_csv(p, target="a", header=True)
        assert np.array_equal(data.y, [1.0, 3.0])
        with pytest.raises(DataError):
            load_csv(p, target="zz", header=True)

    @pytest.mark.parametrize("text", ["", "\n\n", "x1,target\n"])
    def test_no_data_rows_rejected(self, tmp_path, text):
        p = tmp_path / "empty.csv"
        p.write_text(text)
        with pytest.raises(DataError, match="no data rows"):
            load_csv(p, header=True)

    def test_target_name_without_header_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(DataError, match="selecting the target by name requires a header row"):
            load_csv(p, target="target")

    def test_header_is_the_first_non_empty_row(self, tmp_path):
        p = tmp_path / "blank.csv"
        p.write_text("\n\nx1,target\n\n1.0,2.0\n3.0,4.0\n")
        data = load_csv(p, target="target", header=True)
        assert np.array_equal(data.X, [[1.0], [3.0]])
        assert np.array_equal(data.y, [2.0, 4.0])

    @pytest.mark.parametrize("target, column", [(0, 0), (2, 2), (-1, 2), (-3, 0)])
    def test_target_index_in_range(self, tmp_path, target, column):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
        assert np.array_equal(load_csv(p, target=target).y, [[1.0, 4.0], [2.0, 5.0],
                                                             [3.0, 6.0]][column])

    @pytest.mark.parametrize("target", [3, 5, 7, -4])
    def test_target_index_out_of_range_rejected(self, tmp_path, target):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
        with pytest.raises(DataError, match=rf"target column {target} out of range for 3 columns"):
            load_csv(p, target=target)

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(DataError, match="ragged"):
            load_csv(p)


class TestSplit:
    def make(self, n=10):
        rng = np.random.default_rng(11)
        return Dataset("s", rng.normal(size=(n, 2)), rng.normal(size=n), role="full")

    def test_seventy_thirty(self):
        train, test = split(self.make(10), 0.7, np.random.default_rng(0))
        assert train.n == 7 and test.n == 3
        assert train.role == "train" and test.role == "test"

    def test_partition(self):
        data = self.make(25)
        train, test = split(data, 0.7, np.random.default_rng(1))
        joined = np.vstack([train.X, test.X])
        assert joined.shape[0] == data.n
        key = lambda M: sorted(map(tuple, M))
        assert key(joined) == key(data.X)

    def test_same_seed_same_split(self):
        data = self.make(30)
        a = split(data, 0.7, np.random.default_rng(2))
        b = split(data, 0.7, np.random.default_rng(2))
        assert np.array_equal(a[0].X, b[0].X)
        assert np.array_equal(a[1].y, b[1].y)

    def test_empty_side_rejected(self):
        with pytest.raises(DataError):
            split(self.make(2), 0.9, np.random.default_rng(3))

    def test_generator_is_required(self):
        # every split is seeded by its caller
        with pytest.raises(TypeError):
            split(self.make(10), 0.7)

    def test_bad_ratio(self):
        with pytest.raises(ValueError):
            split(self.make(5), 1.5, np.random.default_rng(4))
