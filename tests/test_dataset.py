import json
import re

import numpy as np
import pytest

from mia_audit import (CsvParseError, SplitPlan, TabularDataset,
                       TrainingConfig, generate_synthetic, load_csv,
                       make_split, random_means, sample_reference_subset, write_csv)
from mia_audit.dataset import read_columns, write_columns

from oracles import train
from test_nn import accuracy


def two_class(n, seed=7, cov=0.5):
    return generate_synthetic([[-3.0, -3.0], [3.0, 3.0]], cov, n, seed)


class TestTabularDataset:
    def test_label_range_enforced(self):
        with pytest.raises(ValueError):
            TabularDataset(np.zeros((2, 2)), [0, 2], num_classes=2)

    def test_nonfinite_features_rejected(self):
        with pytest.raises(ValueError):
            TabularDataset([[0.0, np.nan]], [0], num_classes=1)

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            TabularDataset(np.zeros((3, 2)), [0, 1], num_classes=2)

    def test_immutable_after_construction(self):
        ds = TabularDataset(np.zeros((2, 2)), [0, 1], num_classes=2)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 1.0


class TestGenerateSynthetic:
    def test_class_balance(self):
        ds = two_class(4)
        assert sorted(ds.labels.tolist()) == [0, 0, 1, 1]

    def test_deterministic(self):
        a = two_class(50)
        b = two_class(50)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_n_below_num_classes_rejected(self):
        with pytest.raises(ValueError):
            two_class(1)

    def test_uneven_balance(self):
        ds = two_class(5)
        counts = np.bincount(ds.labels)
        assert abs(counts[0] - counts[1]) <= 1

    def test_well_separated_classes_are_learnable(self):
        # well-separated Gaussians force near-perfect held-out accuracy
        ds = two_class(2000)
        half = len(ds) // 2
        model = train(ds.features[:half], ds.labels[:half], 0,
                      TrainingConfig(epochs=10), (2, 16, 2))
        assert accuracy(model, ds.features[half:], ds.labels[half:]) >= 0.99

    def test_distinct_means_required(self):
        with pytest.raises(ValueError):
            generate_synthetic([[1.0, 1.0], [1.0, 1.0]], 1.0, 4, 0)

    @pytest.mark.parametrize("cov", [0.0, -1.0, float("nan")])
    def test_nonpositive_cov_scale_rejected(self, cov):
        with pytest.raises(ValueError, match="cov_scale must be positive"):
            two_class(4, cov=cov)

    def test_means_must_be_a_matrix(self):
        with pytest.raises(ValueError, match="class_means must be 2-D"):
            generate_synthetic([1.0, -1.0], 1.0, 4, 0)

    def test_shape_of_means_gives_classes_and_dimension(self):
        ds = generate_synthetic(random_means(3, 5, 1.0, 2), 1.0, 7, 2)
        assert (ds.num_classes, ds.feature_dim) == (3, 5)
        assert np.bincount(ds.labels).tolist() == [3, 2, 2]

    def test_random_means_deterministic_and_distinct(self):
        a = random_means(3, 4, 1.0, 5)
        b = random_means(3, 4, 1.0, 5)
        assert np.array_equal(a, b)
        generate_synthetic(a, 1.0, 6, 5)  # validates pairwise distinctness


class TestLoadCsv(object):
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_basic_parse(self, tmp_path):
        ds = load_csv(self.write(tmp_path, "x0,x1,label\n1,2,0\n3,4,1\n5,6,0\n"))
        assert ds.features.shape == (3, 2)
        assert ds.labels.tolist() == [0, 1, 0]
        assert ds.num_classes == 2

    def test_spaces_around_header_names_and_cells(self, tmp_path):
        ds = load_csv(self.write(tmp_path, "x0, x1, label\n1, 2, 0\n3, 4, 1\n"))
        assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ds.labels.tolist() == [0, 1]

    def test_num_classes_inferred_from_max_label(self, tmp_path):
        ds = load_csv(self.write(tmp_path, "x0,label\n1,5\n2,0\n"))
        assert ds.num_classes == 6

    def test_nan_cell_named(self, tmp_path):
        with pytest.raises(CsvParseError, match="data row 1 column 'x1'"):
            load_csv(self.write(tmp_path, "x0,x1,label\n1,NaN,0\n"))

    def test_missing_label_column(self, tmp_path):
        with pytest.raises(CsvParseError, match="label"):
            load_csv(self.write(tmp_path, "x0,x1\n1,2\n"))

    def test_non_numeric_cell_named(self, tmp_path):
        with pytest.raises(CsvParseError, match="data row 2 column 'x0'"):
            load_csv(self.write(tmp_path, "x0,label\n1,0\nfoo,1\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(CsvParseError, match="empty"):
            load_csv(self.write(tmp_path, ""))

    def test_header_only(self, tmp_path):
        with pytest.raises(CsvParseError, match="no data rows"):
            load_csv(self.write(tmp_path, "x0,label\n"))

    def test_repeated_header_name(self, tmp_path):
        # a second `label` column must not load as a feature
        path = self.write(tmp_path, "x0,label,label\n1,0,1\n2,1,0\n")
        with pytest.raises(CsvParseError, match=re.escape(
                f"{path}: header ['x0', 'label', 'label'] repeats a name")):
            load_csv(path)

    def test_write_round_trip(self, tmp_path):
        ds = two_class(20)
        path = tmp_path / "out.csv"
        write_csv(path, ds)
        loaded = load_csv(path)
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.labels, ds.labels)


class TestCsvFormat:
    def test_columns_round_trip_bit_exact_with_lf_lines(self, tmp_path):
        floats = np.array([0.1, -0.0, 1e-300, np.inf, -np.inf, 2.0 / 3.0])
        path = tmp_path / "t.csv"
        write_columns(path, {"id": ["a", 7, "c", 8, "e", 9], "x": floats}, "d1")
        data = path.read_bytes()
        assert data.startswith(b"# config_digest=d1\nid,x\na,0.1\n")
        assert b"\r" not in data
        table = read_columns(path, {"id": str, "x": float})
        assert table["id"] == ["a", "7", "c", "8", "e", "9"]
        back = np.array(table["x"])
        assert np.array_equal(back, floats)
        assert np.array_equal(np.signbit(back), np.signbit(floats))

    @pytest.mark.parametrize("ids, xs, match", [
        (["a,b"], [1.0], "comma"),
        (["a"], [1.0, 2.0], "differ in length"),
        (["a\nb"], [1.0], "line break"),
    ], ids=["separator_in_cell", "ragged", "line_break_in_cell"])
    def test_writer_rejects_what_the_format_cannot_hold(self, tmp_path, ids, xs, match):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match=match):
            write_columns(path, {"id": ids, "x": xs})
        assert not path.exists()  # every column is checked before the file is opened

    def test_reader_rejects_short_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,x\na,1.0\nb\n", encoding="utf-8")
        with pytest.raises(ValueError, match="data row 2 has 1 cells"):
            read_columns(path, {"id": str, "x": float})


class TestMakeSplit:
    def test_standard_sizes(self):
        ds = two_class(6000)
        plan = make_split(ds, 1)
        sizes = (len(plan.target_train), len(plan.target_test), len(plan.shadow_train),
                 len(plan.shadow_test), len(plan.reference_pool))
        assert sizes == (1000, 1000, 1000, 1000, 2000)

    def test_minimum_case(self):
        ds = two_class(6)
        plan = make_split(ds, 1)
        sizes = (len(plan.target_train), len(plan.target_test), len(plan.shadow_train),
                 len(plan.shadow_test), len(plan.reference_pool))
        assert sizes == (1, 1, 1, 1, 2)

    def test_deterministic(self):
        ds = two_class(600)
        assert make_split(ds, 3) == make_split(ds, 3)

    def test_too_small_rejected(self):
        ds = two_class(5)
        with pytest.raises(ValueError):
            make_split(ds, 0)

    @pytest.mark.parametrize("n", [6, 7, 11, 100, 601, 6000])
    def test_disjoint_and_exhaustive_enough(self, n):
        ds = two_class(n)
        plan = make_split(ds, 42)
        groups = [plan.target_train, plan.target_test, plan.shadow_train,
                  plan.shadow_test, plan.reference_pool]
        union = set().union(*(set(g) for g in groups))
        assert len(union) == sum(len(g) for g in groups)  # pairwise disjoint
        assert union <= set(range(n))
        # leftovers from integer division land in the reference pool
        assert len(union) == n

    def test_json_round_trip(self):
        ds = two_class(60)
        plan = make_split(ds, 5)
        assert SplitPlan.from_json(json.dumps(plan.to_dict())) == plan

    def test_disjointness_validated(self):
        with pytest.raises(ValueError, match="disjoint"):
            SplitPlan((0,), (1,), (0,), (2,), (3,))


class TestSampleReferenceSubset:
    def plan(self, n=6000):
        return make_split(two_class(n), 1)

    def test_full_fraction_is_whole_pool(self):
        plan = self.plan()
        subset = sample_reference_subset(plan, 1.0, 0)
        assert sorted(subset) == sorted(plan.reference_pool)

    def test_half_fraction_cardinality_and_subset(self):
        plan = self.plan()
        subset = sample_reference_subset(plan, 0.5, 0)
        assert len(subset) == 1000
        assert len(set(subset)) == 1000
        assert set(subset) <= set(plan.reference_pool)

    def test_ceil_rounding(self):
        plan = self.plan(18)  # pool of 6
        assert len(sample_reference_subset(plan, 0.4, 0)) == 3  # ceil(2.4)

    def test_fraction_bounds(self):
        plan = self.plan(18)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                sample_reference_subset(plan, bad, 0)

    def test_deterministic_per_seed(self):
        plan = self.plan()
        assert sample_reference_subset(plan, 0.5, 7) == sample_reference_subset(plan, 0.5, 7)

    def test_different_seeds_overlap_near_expectation(self):
        # two random 1000-of-2000 subsets overlap in ~500 elements
        plan = self.plan()
        a = set(sample_reference_subset(plan, 0.5, 1))
        b = set(sample_reference_subset(plan, 0.5, 2))
        assert 350 <= len(a & b) <= 650
