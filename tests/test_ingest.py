import numpy as np
import pytest

from lpplfit.ingest import IngestError, RawSeries, load_csv
from lpplfit.model import PriceSeries


def write(tmp_path, text, name="prices.csv", encoding="utf-8"):
    p = tmp_path / name
    p.write_text(text, encoding=encoding)
    return p


def test_headered_file_by_name(tmp_path):
    p = write(tmp_path, "Date,Open,Close\n2020-01-02,10,11.5\n2020-01-03,11,12.25\n")
    raw = load_csv(p, column="close")
    np.testing.assert_array_equal(raw.closes, [11.5, 12.25])
    assert raw.dates == ["2020-01-02", "2020-01-03"]


def test_headerless_file_by_position(tmp_path):
    p = write(tmp_path, "1,100.0\n2,101.0\n3,99.5\n")
    raw = load_csv(p, column=1)
    np.testing.assert_array_equal(raw.closes, [100.0, 101.0, 99.5])
    assert raw.dates is None


def test_missing_column_name(tmp_path):
    p = write(tmp_path, "date,close\n2020-01-02,10\n")
    with pytest.raises(IngestError, match="adj_close"):
        load_csv(p, column="adj_close")


def test_unparsable_row_reports_file_row_number(tmp_path):
    p = write(tmp_path, "date,close\n2020-01-02,10\n2020-01-03,N/A\n")
    with pytest.raises(IngestError, match="row 3"):
        load_csv(p)


def test_nonpositive_close_rejected(tmp_path):
    p = write(tmp_path, "date,close\n2020-01-02,10\n2020-01-03,-4\n")
    with pytest.raises(IngestError, match="row 3"):
        load_csv(p)


def test_empty_and_missing_files(tmp_path):
    with pytest.raises(IngestError, match="no such file"):
        load_csv(tmp_path / "absent.csv")
    p = write(tmp_path, "\n\n")
    with pytest.raises(IngestError, match="empty"):
        load_csv(p)
    p2 = write(tmp_path, "date,close\n", name="header_only.csv")
    with pytest.raises(IngestError, match="no data rows"):
        load_csv(p2)


def test_blank_lines_skipped(tmp_path):
    p = write(tmp_path, "close\n10\n\n11\n")
    assert load_csv(p).n == 2


def test_out_of_order_dates_warn(tmp_path):
    p = write(tmp_path, "date,close\n2020-01-03,10\n2020-01-02,11\n")
    with pytest.warns(UserWarning, match="out of order"):
        load_csv(p)


def test_raw_series_validation():
    with pytest.raises(IngestError):
        RawSeries(closes=np.array([]))
    with pytest.raises(IngestError, match="index 2"):
        RawSeries(closes=np.array([1.0, 0.0, 2.0]))
    with pytest.raises(IngestError):
        RawSeries(closes=np.array([1.0, np.nan]))


def test_trading_period_indices_ignore_calendar_gaps(tmp_path):
    # a weekend gap between rows still advances the index by exactly one
    p = write(tmp_path, "date,close\n2020-01-03,10\n2020-01-06,11\n" * 1)
    raw = load_csv(p)
    series = PriceSeries(np.log(raw.closes), np.ones(raw.n))
    np.testing.assert_array_equal(series.indices, [1, 2])


def test_row_without_its_date_reports_file_row_number(tmp_path):
    # the date column follows the close column, and row 3 stops after its close
    p = write(tmp_path, "close,date\n10,2020-01-02\n11\n12,2020-01-04\n")
    with pytest.raises(IngestError, match="row 3"):
        load_csv(p)


def test_byte_order_mark_is_skipped(tmp_path):
    # spreadsheet programs save UTF-8 CSVs with a BOM ahead of the first field
    p = write(tmp_path, "date,close\n2020-01-02,10\n2020-01-03,11\n", encoding="utf-8-sig")
    raw = load_csv(p)
    np.testing.assert_array_equal(raw.closes, [10.0, 11.0])
    assert raw.dates == ["2020-01-02", "2020-01-03"]
    # without a header, the first close is data, not a header named after it
    p = write(tmp_path, "10\n11\n12\n", name="bare.csv", encoding="utf-8-sig")
    np.testing.assert_array_equal(load_csv(p, column=0).closes, [10.0, 11.0, 12.0])
