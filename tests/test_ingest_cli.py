import csv
import io
import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurstmodes import (
    DataError,
    HurstDistribution,
    MixingMatrix,
    Panel,
    PipelineConfig,
    gen_panel,
    read_panel_csv,
    standardize,
)
from hurstmodes import cli, harness, ingest
from hurstmodes.cli import main, parse_sweep_spec
from hurstmodes.ingest import _read_blocks


def write_panel_csv(path, data, names=None, time_index=None, cell=repr):
    """columns = series, rows = time; cell formats each value"""
    p, n = data.shape
    names = names or [f"s{i}" for i in range(p)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        header = (["date"] if time_index is not None else []) + list(names)
        w.writerow(header)
        for t in range(n):
            row = ([time_index[t]] if time_index is not None else []) + [cell(float(x)) for x in data[:, t]]
            w.writerow(row)


@pytest.fixture
def block_reads(monkeypatch):
    """The arguments of every call to the block reader."""
    calls = []
    monkeypatch.setattr(ingest, "_read_blocks", lambda *args: calls.append(args) or _read_blocks(*args))
    return calls


def cointegrated_csv(path, rep, p=32, k=8, n=2**13):
    """The shape of a cointegration study: k random-walk rows (statistic
    0.5) and p - k white-noise rows (statistic -0.5), mixed by the Haar
    matrix of rep, written as a CSV."""
    z = np.random.default_rng([rep, 7]).standard_normal((p, n))
    np.cumsum(z[:k], axis=1, out=z[:k])
    np.savetxt(path, (MixingMatrix.haar(p, rep).matrix @ z).T, fmt="%.17g", delimiter=",",
               header=",".join(f"s{i}" for i in range(p)), comments="")


@pytest.fixture
def fbm_csv(tmp_path):
    panel, _ = gen_panel(HurstDistribution.point(0.5), 16, 2**14, seed=42)
    path = tmp_path / "panel.csv"
    write_panel_csv(path, panel.data)
    return path


class TestStandardize:
    def test_unit_diff_variance_unchanged(self, rng):
        x = np.cumsum(rng.standard_normal((2, 500)), axis=1)
        x = x / np.diff(x, axis=1).std(axis=1, ddof=1)[:, None]
        p = standardize(Panel(x))
        assert np.allclose(p.data, x, atol=1e-12)

    def test_scale_equivariance(self, rng):
        x = np.cumsum(rng.standard_normal((3, 300)), axis=1)
        a = standardize(Panel(x))
        b = standardize(Panel(10.0 * x))
        assert np.allclose(a.data, b.data, atol=1e-12)

    def test_diff_sd_is_one_after(self, rng):
        x = np.cumsum(rng.standard_normal((5, 400)), axis=1) * rng.uniform(0.1, 50, (5, 1))
        out = standardize(Panel(x))
        sd = np.diff(out.data, axis=1).std(axis=1, ddof=1)
        assert np.allclose(sd, 1.0, atol=1e-12)

    def test_constant_series_named(self):
        x = np.vstack([np.arange(10.0) * 0 + 3.0, np.arange(10.0)])
        with pytest.raises(DataError, match="flat"):
            standardize(Panel(x, series=("flat", "ramp")))

    @pytest.mark.parametrize("p,n", [(64, 2**14), (7, 1001), (512, 4096), (3, 5)])
    def test_row_by_row_equals_whole_panel_difference(self, rng, p, n):
        # each row's differences reduce in the same order as a row of the
        # p x n difference matrix, so the scale factors keep their bits
        x = np.cumsum(rng.standard_normal((p, n)), axis=1) * rng.uniform(0.1, 50, (p, 1))
        sd = np.diff(x, axis=1).std(axis=1, ddof=1)
        assert np.array_equal(standardize(Panel(x)).data, x / sd[:, None])

    def test_peak_memory_one_output(self, rng):
        # no p x n difference matrix next to the output
        panel = Panel(np.cumsum(rng.standard_normal((64, 2**14)), axis=1))
        tracemalloc.start()
        try:
            standardize(panel)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * panel.data.nbytes


class TestReadPanelCsv:
    def test_time_column_auto_dropped(self, tmp_path, rng):
        data = rng.standard_normal((3, 8))
        path = tmp_path / "a.csv"
        write_panel_csv(path, data, time_index=[f"1/{i}/59" for i in range(8)])
        panel = read_panel_csv(path)
        assert panel.series == ("s0", "s1", "s2")
        assert np.allclose(panel.data, data, atol=0)

    def test_no_time_column(self, tmp_path, rng):
        data = rng.standard_normal((2, 6))
        path = tmp_path / "b.csv"
        write_panel_csv(path, data)
        panel = read_panel_csv(path)
        assert panel.data.shape == (2, 6)

    def test_missing_cell_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("x,y\n1.0,2.0\n,3.0\n4.0,5.0\n")
        with pytest.raises(DataError, match="missing"):
            read_panel_csv(path)

    def test_non_rectangular_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n1.0,2.0\n1.0\n2.0,3.0\n")
        with pytest.raises(DataError, match="rectangular"):
            read_panel_csv(path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("x,y\n1.0,2.0\n1.0,oops\n3.0,4.0\n")
        with pytest.raises(DataError, match="not numeric"):
            read_panel_csv(path)

    @pytest.mark.parametrize("token", ["inf", "-nan", "+NaN", "1e400"])
    def test_non_finite_cell_named(self, tmp_path, capsys, token):
        path = tmp_path / "f.csv"
        path.write_text(f"x,y\n1.0,2.0\n3.0, {token}\n4.0,5.0\n")
        with pytest.raises(DataError) as exc:
            read_panel_csv(path)
        assert str(exc.value) == f"cell at data row 2, column 'y' (col 1) is not finite: {token!r}"
        assert main(["estimate", "--input", str(path)]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "data", "message": str(exc.value)}

    @pytest.mark.parametrize("text, first", [
        ("x,y\n1.0,2.0\n3.0,oops\n,4.0\n",
         "cell at data row 2, column 'y' (col 1) is not numeric: 'oops'"),
        ("x,y\n1.0, NA \nbad,2.0\n",
         "missing value at data row 1, column 'y' (col 1); no imputation is performed"),
        ("date,x,y\nd1,1.0,inf\nd2,oops,2.0\n",
         "cell at data row 1, column 'y' (col 2) is not finite: 'inf'"),
    ])
    def test_first_bad_cell_in_row_major_order(self, tmp_path, text, first):
        path = tmp_path / "g.csv"
        path.write_text(text)
        with pytest.raises(DataError) as exc:
            read_panel_csv(path)
        assert str(exc.value) == first

    @pytest.mark.parametrize("indexed", [False, True])
    def test_byte_order_mark_ignored(self, tmp_path, indexed):
        # the years are numeric, so only the empty header behind the mark
        # tells "auto" that the first column is a time index
        lead = ["" if t < 0 else str(2000 + t) for t in range(-1, 4)] if indexed else [None] * 5
        rows = [["s0", "s1"]] + [[f"{t}.5", f"{t * t}"] for t in range(4)]
        text = "\n".join(",".join(([c] if c is not None else []) + row) for c, row in zip(lead, rows))
        path = tmp_path / "bom.csv"
        path.write_bytes(("\ufeff" + text + "\n").encode("utf-8"))
        panel = read_panel_csv(path)
        assert panel.series == ("s0", "s1")
        assert np.array_equal(panel.data, [[0.5, 1.5, 2.5, 3.5], [0.0, 1.0, 4.0, 9.0]])

    def test_non_utf8_byte_names_line(self, tmp_path, capsys):
        # a Latin-1 export: 0xE9 is "é" there and no UTF-8 sequence; the
        # filler rows push the byte past the first decoded chunk
        path = tmp_path / "latin1.csv"
        filler = b"".join(b"%d.0,%d.5\n" % (t, t) for t in range(2000))
        path.write_bytes(b"\xef\xbb\xbfx,y\n" + filler + b"caf\xe9,3.0\n4.0,5.0\n")
        expected = f"{path}: line 2002 is not UTF-8 text (byte 0xe9 at byte 4 of the line)"
        with pytest.raises(DataError) as exc:
            read_panel_csv(path)
        assert str(exc.value) == expected
        assert main(["estimate", "--input", str(path)]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "data", "message": expected}

    @pytest.mark.parametrize("dated", [False, True])
    def test_read_bounds_memory(self, tmp_path, rng, block_reads, dated):
        # the C reader holds its rows-by-series floats and the transposed
        # result; the block reader, which takes the dated file, converts rows
        # block by block and keeps only column 0 as text.  Neither holds 1M
        # str cells
        data = rng.standard_normal((64, 2**14))
        text = io.StringIO()
        np.savetxt(text, data.T, delimiter=",", fmt="%.17g")
        lines = text.getvalue().splitlines(keepends=True)
        path = tmp_path / "wide.csv"
        with open(path, "w") as fh:
            fh.write(",".join((["date"] if dated else []) + [f"s{i}" for i in range(64)]) + "\n")
            fh.writelines(f"d{t},{line}" if dated else line for t, line in enumerate(lines))
        del text, lines
        tracemalloc.start()
        try:
            panel = read_panel_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(block_reads) == dated
        assert panel.data.tobytes() == data.tobytes()
        assert peak <= 3 * panel.data.nbytes

    def test_separator_character_names_cell(self, tmp_path):
        # float() refuses U+001C, which str.strip() and loadtxt drop as
        # whitespace; as data it is named, and "auto" takes it for an index
        path = tmp_path / "fs.csv"
        path.write_text("a,b\n\x1c1,2\n3,4\n")
        with pytest.raises(DataError) as exc:
            read_panel_csv(path, time_column=False)
        assert str(exc.value) == "cell at data row 1, column 'a' (col 0) is not numeric: '\\x1c1'"
        panel = read_panel_csv(path)
        assert panel.series == ("b",)
        assert np.array_equal(panel.data, [[2.0, 4.0]])
        path.write_text("a,b\n1,2\n3, \x1f4\n")
        with pytest.raises(DataError) as exc:
            read_panel_csv(path)
        assert str(exc.value) == "cell at data row 2, column 'b' (col 1) is not numeric: ' \\x1f4'"


def _long_rows(n, lead=None):
    """n data rows of two numeric cells, after a column-0 cell lead(t) if given."""
    return [([] if lead is None else [lead(t)]) + [f"{t}.0", f"{t}.5"] for t in range(1, n + 1)]


def _write_rows(path, header, rows):
    path.write_bytes(b"\n".join(row if isinstance(row, bytes) else ",".join(row).encode() for row in [header] + rows))


class TestBlockBoundaries:
    # 2,500 data rows are three blocks of 1,024 converted as they are read;
    # errors seen in different blocks win as they do over the whole file

    def test_decode_error_wins_over_earlier_bad_cell(self, tmp_path):
        rows = _long_rows(2500)
        rows[2][1] = "oops"
        rows[1998] = b"caf\xe9,1.0"  # line 2,000: the header is line 1
        path = tmp_path / "late-latin1.csv"
        _write_rows(path, ["x", "y"], rows)
        with pytest.raises(DataError) as exc:
            read_panel_csv(path)
        assert str(exc.value) == f"{path}: line 2000 is not UTF-8 text (byte 0xe9 at byte 4 of the line)"

    def test_short_row_wins_over_earlier_bad_cell(self, tmp_path):
        rows = _long_rows(2500)
        rows[4][1] = "oops"
        rows[2199] = ["1.0"]
        path = tmp_path / "late-short.csv"
        _write_rows(path, ["x", "y"], rows)
        with pytest.raises(DataError) as exc:
            read_panel_csv(path)
        assert str(exc.value) == f"{path}: row 2200 has 1 cells, header has 2 (panel must be rectangular)"

    def test_time_column_found_in_last_block(self, tmp_path):
        rows = _long_rows(2500, lead=lambda t: str(2000 + t))
        rows[2399][0] = "end"
        path = tmp_path / "late-index.csv"
        _write_rows(path, ["date", "x", "y"], rows)
        panel = read_panel_csv(path)
        t = np.arange(1, 2501)
        assert panel.series == ("x", "y")
        assert np.array_equal(panel.data, [t + 0.0, t + 0.5])

    def test_empty_index_cell_in_last_block_named(self, tmp_path):
        # an empty cell keeps column 0 as data, and it comes before "end"
        rows = _long_rows(2500, lead=lambda t: str(2000 + t))
        rows[2099][0] = ""
        rows[2399][0] = "end"
        path = tmp_path / "late-gap.csv"
        _write_rows(path, ["date", "x", "y"], rows)
        with pytest.raises(DataError) as exc:
            read_panel_csv(path)
        assert str(exc.value) == (
            "missing value at data row 2100, column 'date' (col 0); no imputation is performed")

    @pytest.mark.parametrize("lead_row, y_row, first", [
        (1500, 2200, "cell at data row 1500, column 'date' (col 0) is not numeric: 'x0'"),
        (2200, 1500, "cell at data row 1500, column 'y' (col 2) is not numeric: 'oops'"),
        (1500, 1500, "cell at data row 1500, column 'date' (col 0) is not numeric: 'x0'"),
    ])
    def test_kept_column_0_in_row_major_order(self, tmp_path, lead_row, y_row, first):
        rows = _long_rows(2500, lead=str)
        rows[lead_row - 1][0] = "x0"
        rows[y_row - 1][2] = "oops"
        path = tmp_path / "kept.csv"
        _write_rows(path, ["date", "x", "y"], rows)
        with pytest.raises(DataError) as exc:
            read_panel_csv(path, time_column=False)
        assert str(exc.value) == first

    @pytest.mark.parametrize("text, found", [("", 0), ("\n,\n", 0), ("x,y\n", 1), ("x,y\n1.0,2.0\n", 2)])
    def test_too_few_rows_counted(self, tmp_path, text, found):
        path = tmp_path / "short.csv"
        path.write_text(text)
        with pytest.raises(DataError) as exc:
            read_panel_csv(path)
        assert str(exc.value) == f"{path}: need a header row and at least 2 data rows, found {found} non-empty rows"


# cells that Python's float() reads, with the layout noise a spreadsheet
# export carries: padding, quotes, CRLF, blank and all-empty rows
_CONTRACT_CELLS = [
    [" 1.5 ", '"2.0"', "+1.", "-7"],
    ["1_000", '" -3e-2 "', ".5e-3", "\uff11\uff12"],
    ["4", "5", "6", "1E+2"],
]


def _contract_csv(path, index):
    lines = ["t,a,b,c,d"]
    for t, row in zip(index, _CONTRACT_CELLS):
        lines += [",".join([t] + row), "", ",,,,"]
    path.write_bytes("\r\n".join(lines).encode("utf-8"))


def _float_reference(cells):
    """Per-cell float() conversion, series in rows."""
    return np.array([[float(next(csv.reader([c]))[0]) for c in row] for row in cells]).T


class TestIngestContract:
    @pytest.mark.parametrize("time_column, index, kept", [
        ("auto", ["1", "2", "3"], True),
        ("auto", ["d1", "d2", "d3"], False),
        (True, ["1", "2", "3"], False),
        (False, ["1", "2", "3"], True),
    ])
    def test_matches_per_cell_float(self, tmp_path, time_column, index, kept):
        path = tmp_path / "contract.csv"
        _contract_csv(path, index)
        panel = read_panel_csv(path, time_column=time_column)
        cells = [([t] if kept else []) + row for t, row in zip(index, _CONTRACT_CELLS)]
        assert panel.series == (("t",) if kept else ()) + ("a", "b", "c", "d")
        assert panel.data.flags["C_CONTIGUOUS"]
        assert np.array_equal(panel.data, _float_reference(cells))

    @pytest.mark.parametrize("indexed", [False, True])
    def test_long_panel_round_trip(self, tmp_path, rng, indexed):
        # 2,500 rows: cells are converted in blocks of rows, and this crosses
        # two block boundaries
        data = rng.standard_normal((3, 2500)) * 10.0 ** rng.integers(-300, 300, (3, 2500))
        path = tmp_path / "long.csv"
        write_panel_csv(path, data, time_index=[f"t{t}" for t in range(2500)] if indexed else None)
        panel = read_panel_csv(path)
        assert panel.series == ("s0", "s1", "s2")
        assert panel.data.flags["C_CONTIGUOUS"]
        assert panel.data.tobytes() == data.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.integers(1, 5).flatmap(lambda p: st.integers(2, 12).flatmap(lambda n: st.lists(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n),
            min_size=p, max_size=p))),
        names=st.lists(st.text("abcXYZ019_ ,;\"'-.", min_size=1, max_size=6).map(str.strip).filter(bool),
                       min_size=5, max_size=5, unique=True),
        fmt=st.sampled_from(["%.17g", "repr"]),
        indexed=st.booleans(),
    )
    def test_write_read_round_trip(self, data, names, fmt, indexed):
        values = np.array(data)
        p, n = values.shape
        cell = repr if fmt == "repr" else (lambda x: fmt % x)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rt.csv"
            write_panel_csv(path, values, names[:p], [f"t{t}" for t in range(n)] if indexed else None, cell)
            panel = read_panel_csv(path)
        assert panel.series == tuple(names[:p])
        assert panel.data.tobytes() == values.tobytes()


def _read_outcome(read, path, time_column):
    """(data bytes, series) of a read, or (exception type, message)."""
    try:
        panel = read(path, time_column)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    assert panel.data.flags["C_CONTIGUOUS"]
    return panel.data.tobytes(), panel.series


# cells the C reader refuses or reads differently from float(), and cells
# that are no finite number
_ODD_CELLS = ["1_000", "\uff11", '"1.5"', "\xa01", "\x0b1", "\x1c1", "", "NA", "inf", "1e999"]


class TestReaderChoice:
    @pytest.mark.parametrize("text, plain", [
        ("a,b\n1,2.5\n-3e-2,4\n", True),
        ("a,b\r\n 1 ,\xa02\r\n\r\n3,\x0b4\r\n", True),  # padding float() drops, CRLF, a blank line
        ("t,a\nd1,1\nd2,2\n", False),  # a date column
        ("a,b\n1,2\n3,1_000\n", False),  # refused in the last row
        ("a,b\n1,2\n3,\uff14\n", False),
        ('a,b\n1,2\n3,"4"\n', False),
        ("a,b\n1,2\n,,\n3,4\n", False),  # a row of empty cells
        ("\na,b\n1,2\n3,4\n", False),  # a blank line before the header
        (" , \n1,2\n3,4\n5,6\n", False),  # a blank first row: "1,2" is the header
        ("a,b\n1,2\n", False),  # too few rows
        ("a,b\n1,2\n3,inf\n", False),
        ("a,b,c\n1,2\n3,4\n", False),  # rows narrower than the header
    ])
    def test_c_reader_takes_plain_files_only(self, tmp_path, block_reads, text, plain):
        path = tmp_path / "choice.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _read_outcome(read_panel_csv, path, "auto") == _read_outcome(_read_blocks, path, "auto")
        assert block_reads == ([] if plain else [(path, "auto")])

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 4).flatmap(lambda width: st.tuples(
            st.just(width),
            st.lists(st.lists(st.one_of(
                st.floats(allow_nan=False, allow_infinity=False).map(repr),
                st.floats(allow_nan=False, allow_infinity=False).map(lambda x: "%.17g" % x),
                st.sampled_from(_ODD_CELLS),
            ), min_size=width, max_size=width), min_size=0, max_size=5),
        )),
        st.one_of(st.none(), st.lists(st.sampled_from(["keep", "blank", "spaces", "short"]), min_size=5, max_size=5)),
        st.sampled_from(["plain", "plain", "mixed", "dated"]),
        st.sampled_from([True, False, "auto"]),
        st.booleans(),
        st.sampled_from(["\n", "\r\n"]),
    )
    def test_c_reader_matches_block_reader(self, shape, layout, kind, time_column, blank_name, newline):
        # every file reads to the block reader's bytes and names, or fails
        # with its error; "plain" files without layout noise hold only
        # numbers, so most of them take the C reader
        width, cells = shape
        header = ["" if blank_name else "t"] + [f"s{j}" for j in range(1, width)]
        lines = [",".join(header)]
        for t, (row, how) in enumerate(zip(cells, layout or ["keep"] * 5)):
            if kind == "plain":
                row = [c if c not in _ODD_CELLS else "7" for c in row]
            if kind == "dated":
                row = [f"2020-01-{t + 1:02d}"] + row[1:]
            if how == "blank":
                lines.append("")
            elif how == "spaces":
                lines.append("  ")
            elif how == "short" and width > 1:
                row = row[:-1]
            lines.append(",".join(row))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "choice.csv"
            path.write_bytes((newline.join(lines) + newline).encode("utf-8"))
            assert _read_outcome(read_panel_csv, path, time_column) == _read_outcome(_read_blocks, path, time_column)


class TestCliEstimate:
    def test_single_mode_end_to_end(self, fbm_csv, tmp_path, capsys):
        out = tmp_path / "est.json"
        code = main([
            "estimate", "--input", str(fbm_csv), "--j1", "2", "--j2", "5",
            "--seed", "3", "--output", str(out),
        ])
        assert code == 0
        result = json.loads(out.read_text())
        assert result["schema"] == "wrmsm/1"
        assert result["r_hat"] == 1
        assert abs(result["modes"][0] - 0.5) < 0.1
        assert len(result["probs"]) == result["r_hat"]
        assert sum(result["histogram"]["counts"]) == 16

    def test_byte_identical_reruns(self, fbm_csv, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            assert main(["estimate", "--input", str(fbm_csv), "--seed", "9",
                         "--output", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_roundtrip_lossless(self, fbm_csv, tmp_path):
        out = tmp_path / "rt.json"
        main(["estimate", "--input", str(fbm_csv), "--seed", "4", "--output", str(out)])
        first = json.loads(out.read_text())
        # serialize the parsed object again: identical text means the float
        # representation survives a parse/emit cycle exactly
        assert json.loads(json.dumps(first)) == first

    def test_macro_panel_schema(self, tmp_path):
        # stand-in panel with the real-data analysis geometry (p=14, n=709,
        # octaves 2..5); output schema carries r_hat plus matched-length
        # modes and probs, values not asserted
        panel, _ = gen_panel(HurstDistribution.uniform([0.2, 0.4, 0.6]), 14, 709, seed=8)
        path = tmp_path / "macro.csv"
        write_panel_csv(path, panel.data, time_index=[f"m{t}" for t in range(709)])
        out = tmp_path / "macro.json"
        code = main(["estimate", "--input", str(path), "--j1", "2", "--j2", "5",
                     "--seed", "1", "--output", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        assert result["p"] == 14 and result["n"] == 709
        assert result["mode"] == {"kind": "multiscale", "j1": 2, "j2": 5}
        assert len(result["modes"]) == result["r_hat"] == len(result["probs"])
        assert abs(sum(result["probs"]) - 1.0) < 1e-12
        assert len(result["trace"]["grid"]) == 10

    def test_single_scale_mode_descriptor(self, fbm_csv, tmp_path):
        out = tmp_path / "single.json"
        assert main(["estimate", "--input", str(fbm_csv), "--j", "1", "--a", "16",
                     "--output", str(out)]) == 0
        assert json.loads(out.read_text())["mode"] == {"kind": "single", "a": 16, "j": 1}

    def test_empty_input_exit_3(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["estimate", "--input", str(empty)]) == 3
        err = capsys.readouterr().err
        assert json.loads(err.strip())["error"] == "data"

    def test_one_series_exit_3_before_decomposing(self, tmp_path, monkeypatch, capsys):
        # one series gives one statistic and nothing to cluster: a fault of
        # the data, found before any decomposition; spectrum still reports it
        path = tmp_path / "one.csv"
        write_panel_csv(path, np.cumsum(np.random.default_rng(3).standard_normal((1, 4096)), axis=1))
        real = cli.log_eigen_set
        monkeypatch.setattr(cli, "log_eigen_set", lambda *args: pytest.fail("the panel was decomposed"))
        assert main(["estimate", "--input", str(path)]) == 3
        assert json.loads(capsys.readouterr().err.strip()) == {
            "error": "data", "message": "estimate needs at least 2 series to cluster, got 1"}
        monkeypatch.setattr(cli, "log_eigen_set", real)
        out = tmp_path / "spectrum.json"
        assert main(["spectrum", "--input", str(path), "--output", str(out)]) == 0
        assert json.loads(out.read_text())["p"] == 1

    def test_missing_file_exit_3(self, tmp_path):
        assert main(["estimate", "--input", str(tmp_path / "nope.csv")]) == 3

    @pytest.mark.parametrize("subcommand", ["estimate", "spectrum"])
    def test_missing_output_directory_exit_3_before_reading(self, fbm_csv, tmp_path, monkeypatch, capsys,
                                                            subcommand):
        # the output is created before the CSV is read, so a bad --output
        # costs no read, decomposition or selection
        read = []
        monkeypatch.setattr(cli, "read_panel_csv", lambda *args, **kwargs: read.append(args))
        missing = tmp_path / "missing"
        assert main([subcommand, "--input", str(fbm_csv), "--output", str(missing / "x.json")]) == 3
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "data" and str(missing / "x.json") in error["message"]
        assert read == []
        assert not missing.exists()

    def test_bad_scale_exit_2(self, fbm_csv):
        assert main(["estimate", "--input", str(fbm_csv), "--j", "1", "--a", "12"]) == 2

    def test_octaves_too_deep_exit_2(self, tmp_path, rng):
        path = tmp_path / "short.csv"
        write_panel_csv(path, np.cumsum(rng.standard_normal((3, 64)), axis=1))
        assert main(["estimate", "--input", str(path), "--j1", "2", "--j2", "6"]) == 2

    def test_rank_deficient_exit_4(self, tmp_path, rng):
        # more series than coarse-octave coefficients: degenerate spectrum
        path = tmp_path / "wide.csv"
        write_panel_csv(path, np.cumsum(rng.standard_normal((24, 680)), axis=1))
        code = main(["estimate", "--input", str(path), "--j1", "2", "--j2", "5"])
        assert code == 4

    def test_rank_deficient_positive_spectrum_exit_4(self, tmp_path, capsys):
        # 10 series against n_j = 8 coefficients at octave 4 (j = 1, a = 8):
        # this panel's rounded spectrum is positive, so only the p > n_j
        # check keeps it from printing statistics near -8.8 with exit 0
        path = tmp_path / "wide.csv"
        write_panel_csv(path, np.cumsum(np.random.default_rng(5).standard_normal((10, 200)), axis=1))
        assert main(["estimate", "--input", str(path), "--j", "1", "--a", "8"]) == 4
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "degenerate-spectrum"
        assert "p=10 exceeds the effective sample size n_j=8 at octave 4" in err["message"]

    def test_bad_m_exit_2(self, fbm_csv):
        assert main(["estimate", "--input", str(fbm_csv), "--M", "-1"]) == 2
        assert main(["estimate", "--input", str(fbm_csv), "--M", "bogus"]) == 2

    @pytest.mark.parametrize("flag", ["--m", "--min-cluster"])
    def test_grid_counts_below_one_exit_2_before_reading(self, tmp_path, capsys, flag):
        # a config error, not the missing-file data error
        assert main(["estimate", "--input", str(tmp_path / "nope.csv"), flag, "0"]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "config"

    # one rule for flags and spec keys: a setting the mode does not read is
    # an error, found before the CSV is read
    @pytest.mark.parametrize("argv, message", [
        (["estimate", "--j", "1", "--a", "16", "--j1", "3", "--j2", "4"],
         "single-scale mode (j set) does not read j1, j2"),
        (["estimate", "--a", "12"], "multiscale mode (j unset) does not read a"),
        (["spectrum", "--a", "8"], "multiscale mode (j unset) does not read a"),
    ])
    def test_unread_setting_exit_2_before_reading(self, fbm_csv, monkeypatch, capsys, argv, message):
        read = []
        monkeypatch.setattr(cli, "read_panel_csv", lambda *args, **kwargs: read.append(args))
        assert main([*argv, "--input", str(fbm_csv)]) == 2
        assert json.loads(capsys.readouterr().err.strip()) == {"error": "config", "message": message}
        assert read == []

    # column 0 is a random walk, numeric, so only its header tells "auto"
    # that it is a time index; --time-column yes and no override the header
    @pytest.mark.parametrize("header0, flag, p", [
        ("", "auto", 4), ("", "yes", 4), ("", "no", 5),
        ("t", "auto", 5), ("t", "no", 5), ("t", "yes", 4),
    ])
    def test_time_column_flag(self, tmp_path, rng, header0, flag, p):
        path = tmp_path / "indexed.csv"
        write_panel_csv(path, np.cumsum(rng.standard_normal((5, 1024)), axis=1),
                        names=[header0, "s0", "s1", "s2", "s3"])
        out = tmp_path / "est.json"
        assert main(["estimate", "--input", str(path), "--time-column", flag,
                     "--output", str(out)]) == 0
        assert json.loads(out.read_text())["p"] == p

    @pytest.mark.parametrize("rep", range(5))
    def test_cointegration_shape(self, tmp_path, rep):
        # 8 common trends among 32 series: two clusters, the upper one
        # holding exactly the 8 random-walk directions.  At n = 2^13 the
        # upper mode reads 0.41 to 0.44 over reps 0-19, the lower -0.51 to -0.50
        path = tmp_path / "coint.csv"
        cointegrated_csv(path, rep)
        out = tmp_path / "coint.json"
        assert main(["estimate", "--input", str(path), "--output", str(out)]) == 0
        result = json.loads(out.read_text())
        assert result["r_hat"] == 2
        assert result["probs"][1] == 8 / 32
        assert result["modes"] == pytest.approx([-0.5, 0.5], abs=0.1)

    def test_usage_tells_grid_size_from_bound(self, capsys):
        with pytest.raises(SystemExit):
            main(["estimate", "--help"])
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert "[--m m]" in usage and "[--M M]" in usage
        metavars = re.findall(r"\[--[\w-]+ (\S+?)\]", usage)
        assert len(metavars) == 12 and len(set(metavars)) == len(metavars)


class TestCliSpectrum:
    def test_histogram_counts_sum_to_p(self, fbm_csv, tmp_path):
        out = tmp_path / "spec.json"
        assert main(["spectrum", "--input", str(fbm_csv), "--bins", "12",
                     "--output", str(out)]) == 0
        result = json.loads(out.read_text())
        hist = result["histogram"]
        assert sum(hist["counts"]) == 16
        assert len(hist["bin_edges"]) == 13
        assert "seed" not in result

    def test_esd_affine_scale(self, fbm_csv, tmp_path):
        out_h = tmp_path / "h.json"
        out_e = tmp_path / "e.json"
        main(["spectrum", "--input", str(fbm_csv), "--output", str(out_h)])
        main(["spectrum", "--input", str(fbm_csv), "--affine", "esd", "--output", str(out_e)])
        h = json.loads(out_h.read_text())
        e = json.loads(out_e.read_text())
        np.testing.assert_allclose(
            np.array(e["histogram"]["bin_edges"]),
            2 * np.array(h["histogram"]["bin_edges"]) + 1, atol=1e-12,
        )

    @pytest.mark.parametrize("subcommand, bins", [("estimate", "0"), ("spectrum", "-2")])
    def test_nonpositive_bins_exit_2_before_reading(self, fbm_csv, monkeypatch, capsys, subcommand, bins):
        read = []
        monkeypatch.setattr(cli, "read_panel_csv", lambda *args, **kwargs: read.append(args))
        assert main([subcommand, "--input", str(fbm_csv), "--bins", bins]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "config"
        assert read == []

    @pytest.mark.parametrize("subcommand", ["estimate", "spectrum"])
    def test_negative_seed_exit_2_before_reading(self, fbm_csv, monkeypatch, capsys, subcommand):
        # np.random.SeedSequence takes no negative entropy, so estimate
        # rejects the flag with the other settings, not in a traceback;
        # spectrum draws no random number and takes no --seed at all
        read = []
        monkeypatch.setattr(cli, "read_panel_csv", lambda *args, **kwargs: read.append(args))
        argv = [subcommand, "--input", str(fbm_csv), "--seed", "-1"]
        if subcommand == "estimate":
            assert main(argv) == 2
            assert json.loads(capsys.readouterr().err.strip()) == {
                "error": "config", "message": "seed must be >= 0, got -1"}
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert read == []

    @pytest.mark.parametrize("subcommand, fmt", [("estimate", "json"), ("spectrum", "csv"), ("sweep", "csv")])
    def test_format_flag_rejected(self, fbm_csv, subcommand, fmt):
        # estimate and spectrum always print JSON; sweep always writes both
        # its CSV and its JSON
        source = "--spec" if subcommand == "sweep" else "--input"
        with pytest.raises(SystemExit) as exc:
            main([subcommand, source, str(fbm_csv), "--format", fmt])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--m", "--M", "--min-cluster"])
    def test_selection_flags_rejected(self, fbm_csv, flag):
        # spectrum selects no scheme, so it takes no selection setting
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--input", str(fbm_csv), flag, "5"])
        assert exc.value.code == 2


class TestCliSweep:
    def test_end_to_end(self, tmp_path, capsys):
        spec = tmp_path / "sweep.txt"
        spec.write_text(
            "# tiny smoke sweep\n"
            "family = bimodal\n"
            "base = 0.3\n"
            "deltas = 0,0.3\n"
            "n = 2048\n"
            "p = 8\n"
            "j1 = 2\n"
            "j2 = 4\n"
            "reps = 2\n"
            "m = 5\n"
            "M = auto\n"
            "methods = spectral,gmm\n"
            "seed = 5\n"
        )
        base = tmp_path / "out"
        assert main(["sweep", "--spec", str(spec), "--output", str(base)]) == 0
        with open(str(base) + ".csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # 2 configs x 2 methods
        assert {r["method"] for r in rows} == {"spectral", "gmm"}
        assert all(0.0 <= float(r["proportion_correct"]) <= 1.0 for r in rows)
        payload = json.loads((tmp_path / "out.json").read_text())
        assert payload["schema"] == "wrmsm/1"
        assert len(payload["records"]) == 4  # 2 configs x 2 reps
        assert capsys.readouterr().err == f"wrote {base}.csv, {base}.json\n"

    def test_unknown_key_exit_2(self, tmp_path):
        spec = tmp_path / "bad.txt"
        spec.write_text("family = bimodal\nwat = 1\n")
        assert main(["sweep", "--spec", str(spec)]) == 2

    # the gmm baseline reads neither m nor min_cluster; they are still config errors
    @pytest.mark.parametrize("line", ["M = 0", "workers = 2", "n = x", "M = bogus", "deltas = 0,a",
                                      "reps = 1.5", "m = 0\nmin_cluster = -3\nmethods = gmm",
                                      "reps = -3", "methods = ,", "fixed_mix = ture", "a = x",
                                      "j = 1\nj1 = 3", "j = 1\nj2 = 5", "methods = spectral,spectral",
                                      "n = 2048\nn = 4096", "p = 0", "p = 1"])
    def test_rejected_before_running(self, tmp_path, monkeypatch, line):
        ran = []
        monkeypatch.setattr(cli, "run_sweep", ran.append)
        spec = tmp_path / "bad.txt"
        spec.write_text(f"family = bimodal\n{line}\n")
        assert main(["sweep", "--spec", str(spec)]) == 2
        assert ran == []

    @pytest.mark.parametrize("text, message", [
        ("family = bimodal\nn 2048\n", "bad.txt:2: expected 'key = value', got 'n 2048'"),
        ("family = custom\n", "family=custom requires a 'modes' entry"),
        ("family = trimodal\n", "unknown family 'trimodal'"),
        ("M = bogus\n", "M must be positive or 'auto', got 'bogus'"),
        ("a = x\n", "sweep spec key 'a': cannot read 'x' as int"),
        ("j = 1\nj1 = 3\nj2 = 4\n", "single-scale mode (j set) does not read j1, j2"),
        ("a = 16\n", "multiscale mode (j unset) does not read a"),
        ("family = custom\nmodes = 0.2,0.8\ndeltas = 0,0.1\n", "keys for family 'custom': deltas"),
        ("family = custom\nmodes = 0.2,0.8\nbase = 0.3\n", "keys for family 'custom': base"),
        ("family = bimodal\nmodes = 0.2,0.8\n", "keys for family 'bimodal': modes"),
        ("methods = gmm,spectral,gmm\n", "methods must not repeat, got ('gmm', 'spectral', 'gmm')"),
        ("p = 1\n", "panel dimension p must be >= 2, got 1"),
        ("seed = -3\n", "seed must be >= 0, got -3"),
        ("fixed_mix = true\n", "unrecognized sweep spec keys for family 'bimodal': fixed_mix"),
        ("family = bimodal\nn = 2048\np = 8\n\n# again\nn = 4096\n",
         "sweep spec key 'n' repeated at lines 2 and 6"),
        # each probability goes to the mode at its place, so the modes stay as written
        ("family = custom\nmodes = 0.8,0.2\nprobs = 0.9,0.1\n", "modes must be strictly increasing: (0.8, 0.2)"),
    ], ids=["no-equals", "custom-no-modes", "unknown-family", "M-bogus", "a-not-int", "single-reads-j1-j2",
            "multi-reads-a", "custom-deltas", "custom-base", "bimodal-modes", "methods-repeat", "p-1",
            "seed-negative", "unknown-key", "key-repeated", "probs-modes-descending"])
    def test_rejection_named(self, tmp_path, monkeypatch, capsys, text, message):
        ran = []
        monkeypatch.setattr(cli, "run_sweep", ran.append)
        spec = tmp_path / "bad.txt"
        spec.write_text(text)
        assert main(["sweep", "--spec", str(spec)]) == 2
        assert message in json.loads(capsys.readouterr().err.strip())["message"]
        assert ran == []

    @staticmethod
    def _forbid_synthesis(monkeypatch):
        def gen_panel(*args, **kwargs):
            raise AssertionError("a panel was synthesized")

        monkeypatch.setattr(harness, "gen_panel", gen_panel)

    @pytest.mark.parametrize("lines, message", [
        ("deltas = 0,0.1\nn = 200\np = 10\nj = 1\na = 8\nreps = 3",
         "p=10 exceeds the effective sample size n_j=8 at octave 4: "
         "every replication's matrix would be rank deficient"),
        ("n = 64\nj1 = 2\nj2 = 6",
         "series of length 64 leaves no border-free coefficients at octave 4 (filter support 4); "
         "deepest usable octave is 3"),
        ("n = 2048\np = 4\nj1 = 2\nj2 = 4",
         "method gmm needs p >= 2*k_max = 6 series, got p=4"),
    ], ids=["p-above-n_j", "too-short", "gmm-p-below-6"])  # ids stay when a message changes
    def test_unrunnable_geometry_exit_2_before_synthesis(self, tmp_path, monkeypatch, capsys, lines, message):
        # every replication of these specs would fail in decompose or
        # wavelet_random_matrix, so the spec fails before any panel is made
        self._forbid_synthesis(monkeypatch)
        spec = tmp_path / "geometry.txt"
        spec.write_text(f"family = bimodal\n{lines}\n")
        assert main(["sweep", "--spec", str(spec)]) == 2
        assert json.loads(capsys.readouterr().err.strip()) == {"error": "config", "message": message}

    def test_missing_output_directory_exit_3_before_synthesis(self, tmp_path, monkeypatch, capsys):
        # the outputs are created before the first replication, so a bad
        # --output costs no run
        self._forbid_synthesis(monkeypatch)
        spec = tmp_path / "tiny.txt"
        spec.write_text("family = bimodal\ndeltas = 0\nn = 2048\np = 8\nj1 = 2\nj2 = 4\nreps = 1\n")
        missing = tmp_path / "missing"
        assert main(["sweep", "--spec", str(spec), "--output", str(missing / "sweep")]) == 3
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "data"
        assert str(missing / "sweep.csv") in error["message"]
        assert not missing.exists()

    def test_spectral_only_spec_takes_p_below_gmm_minimum(self, tmp_path):
        spec = tmp_path / "spectral.txt"
        spec.write_text("family = bimodal\ndeltas = 0.3\nn = 2048\np = 4\nj1 = 2\nj2 = 4\n"
                        "reps = 1\nmethods = spectral\n")
        base = tmp_path / "out"
        assert main(["sweep", "--spec", str(spec), "--output", str(base)]) == 0
        assert [r["method"] for r in json.loads((tmp_path / "out.json").read_text())["rows"]] == ["spectral"]

    def test_spec_defaults(self, tmp_path):
        spec = tmp_path / "defaults.txt"
        spec.write_text("family = bimodal\n")
        parsed = parse_sweep_spec(spec)
        assert parsed.pipeline == PipelineConfig(n=16384, p=64, multiscale=(2, 5))
        assert [label for label, _ in parsed.configs] == [
            "delta=0", "delta=0.025", "delta=0.05", "delta=0.075", "delta=0.1"]
        assert parsed.configs[1][1] == HurstDistribution((0.25, 0.275), (0.5, 0.5))
        assert (parsed.reps, parsed.methods, parsed.master_seed) == (200, ("spectral", "gmm"), 0)

    def test_single_scale_custom_spec_with_probs(self, tmp_path):
        spec = tmp_path / "single.txt"
        spec.write_text(
            "family = custom\nmodes = 0.2,0.8;0.3,0.7\nprobs = 0.25,0.75\n"
            "n = 4096\np = 8\nj = 1\na = 8\nm = 7\nM = 0.4\nmin_cluster = 3\nn_vanishing = 3\n"
        )
        parsed = parse_sweep_spec(spec)
        assert parsed.pipeline == PipelineConfig(n=4096, p=8, a=8, j=1, m=7, grid_max=0.4,
                                                 min_cluster=3, n_vanishing=3)
        assert parsed.configs == (
            ("0.2,0.8", HurstDistribution((0.2, 0.8), (0.25, 0.75))),
            ("0.3,0.7", HurstDistribution((0.3, 0.7), (0.25, 0.75))),
        )

    def test_custom_spec_without_probs_sorts_modes(self, tmp_path):
        spec = tmp_path / "uniform.txt"
        spec.write_text("family = custom\nmodes = 0.8,0.2\nn = 4096\np = 8\n")
        assert parse_sweep_spec(spec).configs == (("0.8,0.2", HurstDistribution((0.2, 0.8), (0.5, 0.5))),)

    def test_custom_family(self, tmp_path):
        spec = tmp_path / "custom.txt"
        spec.write_text(
            "family = custom\n"
            "modes = 0.2,0.8\n"
            "n = 2048\np = 8\nj1 = 2\nj2 = 4\nreps = 1\nmethods = spectral\nseed = 2\n"
        )
        base = tmp_path / "c"
        assert main(["sweep", "--spec", str(spec), "--output", str(base)]) == 0
        with open(str(base) + ".csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["true_r"] == "2"
