import numpy as np
import pytest

from accd.counters import CounterSet
from accd.dataset import Dataset, load_csv, pairwise_brute
from accd.errors import DimensionMismatchError, FormatError, RangeError
from accd.metrics import MetricSpec, distance

L1 = MetricSpec(kind="L1")
L2 = MetricSpec(kind="L2")


# -- load_csv -------------------------------------------------------------


def test_load_plain_csv(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("1.0,2.0\n3.5,4.5\n5.0,6.0\n")
    ds = load_csv(f)
    assert ds.n == 3 and ds.d == 2
    assert np.array_equal(ds.ids, [0, 1, 2])


def test_load_csv_header_autodetected(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("x,y\n1,2\n3,4\n5,6\n")
    ds = load_csv(f)
    assert ds.n == 3 and ds.d == 2
    assert ds.values[0, 0] == 1.0


def test_load_csv_bad_cell_position(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("1,2\n3,abc\n")
    with pytest.raises(FormatError) as exc:
        load_csv(f)
    assert exc.value.row == 2 and exc.value.col == 2


def test_load_csv_ragged_row(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("1,2\n3\n")
    with pytest.raises(FormatError) as exc:
        load_csv(f)
    assert exc.value.row == 2


def test_load_csv_rejects_nan_inf(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("1,2\n3,inf\n")
    with pytest.raises(FormatError):
        load_csv(f)
    f.write_text("1,nan\n")
    with pytest.raises(FormatError):
        load_csv(f)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_reports_the_first_non_finite_cell(bad):
    values = np.zeros((5, 4))
    values[3, 2] = bad
    values[4, 0] = bad
    with pytest.raises(FormatError) as exc:
        Dataset.from_values(values)
    assert (exc.value.row, exc.value.col) == (4, 3)


def test_missing_file_is_oserror():
    with pytest.raises(OSError):
        load_csv("/no/such/file.csv")


# -- pairwise_brute -------------------------------------------------------


def test_single_point_self_distance():
    ds = Dataset.from_values([[2.0, 3.0]])
    dm = pairwise_brute(ds, ds, L2)
    assert dm.values.shape == (1, 1)
    assert dm.values[0, 0] == 0.0


def test_unit_square_corners():
    ds = Dataset.from_values([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    dm = pairwise_brute(ds, ds, L2).values
    assert dm[0, 1] == 1.0 and dm[0, 2] == 1.0
    assert dm[0, 3] == np.sqrt(2.0)
    assert np.array_equal(dm, dm.T)
    assert np.all(np.diag(dm) == 0.0)


def test_brute_matches_scalar_distance_bitwise():
    r = np.random.default_rng(11)
    src = Dataset.from_values(r.normal(size=(50, 60)))
    trg = Dataset.from_values(r.normal(size=(40, 60)))
    dm = pairwise_brute(src, trg, L1).values
    for i in range(0, 50, 7):
        for j in range(0, 40, 5):
            assert dm[i, j] == distance(src.values[i], trg.values[j], L1)


def test_brute_transpose_symmetry():
    r = np.random.default_rng(13)
    a = Dataset.from_values(r.normal(size=(23, 5)))
    b = Dataset.from_values(r.normal(size=(31, 5)))
    ab = pairwise_brute(a, b, L2).values
    ba = pairwise_brute(b, a, L2).values
    assert np.array_equal(ab, ba.T)


def test_brute_counts_all_pairs():
    c = CounterSet()
    a = Dataset.from_values(np.arange(12.0).reshape(6, 2))
    b = Dataset.from_values(np.arange(8.0).reshape(4, 2))
    pairwise_brute(a, b, L2, c)
    assert c.point_distances == 24


def test_brute_dim_mismatch():
    a = Dataset.from_values(np.zeros((2, 3)))
    b = Dataset.from_values(np.zeros((2, 4)))
    with pytest.raises(DimensionMismatchError):
        pairwise_brute(a, b, L2)


def test_dataset_id_invariant():
    with pytest.raises(RangeError):
        Dataset(values=np.zeros((3, 2)), ids=np.array([0, 1, 1]))
