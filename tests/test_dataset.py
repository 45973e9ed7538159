import numpy as np
import pytest

from accd.dataset import Dataset, NeighborLists, brute_rows, id_dtype, load_csv
from accd.errors import DimensionMismatchError, FormatError
from accd.metrics import MetricSpec, distance

L1 = MetricSpec(kind="L1")
L2 = MetricSpec(kind="L2")


# -- load_csv -------------------------------------------------------------


def test_load_plain_csv(tmp_path):
    f = tmp_path / "pts.csv"
    for bom in ("", "\ufeff"):  # a UTF-8 byte order mark is no part of the first cell
        f.write_text(bom + "1.0,2.0\n3.5,4.5\n5.0,6.0\n", encoding="utf-8")
        ds = load_csv(f)
        assert ds.n == 3 and ds.d == 2
        assert ds.values.tolist() == [[1.0, 2.0], [3.5, 4.5], [5.0, 6.0]]


def test_load_csv_header_autodetected(tmp_path):
    f = tmp_path / "pts.csv"
    for bom in ("", "\ufeff"):
        f.write_text(bom + "x,y\n1,2\n3,4\n5,6\n", encoding="utf-8")
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


# -- brute_rows -----------------------------------------------------------


def test_single_point_self_distance():
    pt = np.array([[2.0, 3.0]])
    dm = brute_rows(pt, pt, L2)
    assert dm.shape == (1, 1)
    assert dm[0, 0] == 0.0


def test_unit_square_corners():
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    dm = brute_rows(corners, corners, L2)
    assert dm[0, 1] == 1.0 and dm[0, 2] == 1.0
    assert dm[0, 3] == np.sqrt(2.0)
    assert np.array_equal(dm, dm.T)
    assert np.all(np.diag(dm) == 0.0)


def test_brute_matches_scalar_distance_bitwise():
    r = np.random.default_rng(11)
    src = r.normal(size=(50, 60))
    trg = r.normal(size=(40, 60))
    dm = brute_rows(src, trg, L1)
    for i in range(0, 50, 7):
        for j in range(0, 40, 5):
            assert dm[i, j] == distance(src[i], trg[j], L1)


def test_brute_transpose_symmetry():
    r = np.random.default_rng(13)
    a = r.normal(size=(23, 5))
    b = r.normal(size=(31, 5))
    ab = brute_rows(a, b, L2)
    ba = brute_rows(b, a, L2)
    assert np.array_equal(ab, ba.T)


def test_brute_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        brute_rows(np.zeros((2, 3)), np.zeros((2, 4)), L2)


# -- NeighborLists ------------------------------------------------------------


def test_neighbor_lists_are_a_read_only_sequence_of_csr_slices():
    lists = NeighborLists(offsets=np.array([0, 2, 2, 5]), ids=np.array([1, 2, 0, 1, 2], np.int32))
    assert len(lists) == 3
    assert [x.tolist() for x in lists] == [[1, 2], [], [0, 1, 2]]
    assert lists[-1].tolist() == [0, 1, 2] and lists[1].dtype == np.int32
    assert np.shares_memory(lists[2], lists.ids)  # a view, not a copy
    with pytest.raises(IndexError):
        lists[3]
    with pytest.raises(TypeError):
        lists[0] = np.array([], np.int32)


def test_id_dtype_is_int32_below_2_to_the_31():
    assert id_dtype(2**31 - 1) == np.int32 and id_dtype(2**31) == np.int64
