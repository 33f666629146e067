import ast
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from entrybounds import bounds, cli, matfree, mio, sense
from entrybounds.errors import ConfigError, DimensionMismatch

from conftest import kkt_interval, nullspace_overlap

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


class TestCsvRoundTrip:
    def test_matrix(self, tmp_path, rng):
        a = rng.standard_normal((5, 3))
        path = tmp_path / "m.csv"
        mio.write_matrix_csv(path, a)
        np.testing.assert_array_equal(mio.read_matrix_csv(path), a)

    def test_vector(self, tmp_path, rng):
        x = rng.standard_normal(7)
        path = tmp_path / "v.csv"
        mio.write_vector_csv(path, x)
        np.testing.assert_array_equal(mio.read_vector_csv(path), x)

    def test_rewrite_is_byte_identical(self, tmp_path, rng):
        a = rng.standard_normal((4, 4))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        mio.write_matrix_csv(p1, a)
        mio.write_matrix_csv(p2, mio.read_matrix_csv(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_row_format_matches_per_value_format(self, tmp_path, rng):
        """The one-format-per-row writer gives the bytes of formatting each
        value with ``FLOAT_FMT``, on NaN, +-inf, signed zeros and subnormals."""
        a = rng.standard_normal((6, 5)) * 10.0 ** rng.integers(-300, 300, (6, 5))
        a[0, :] = [np.nan, np.inf, -np.inf, 0.0, -0.0]
        a[1, :] = [5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, np.finfo(float).max]
        path = tmp_path / "m.csv"
        mio.write_matrix_csv(path, a)
        rows = "".join(",".join(mio.FLOAT_FMT % x for x in row) + "\n" for row in a.tolist())
        assert path.read_bytes() == ("6,5\n" + rows).encode()
        np.testing.assert_array_equal(mio.read_matrix_csv(path), a)


class TestCsvDiagnostics:
    def test_bad_header_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        for header in ("not-a-header", "-1,2", "2,-3"):
            path.write_text(header + "\n")
            with pytest.raises(ConfigError, match=r"bad\.csv:1: malformed header"):
                mio.read_matrix_csv(path)

    def test_short_file(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("3,2\n1,2\n")
        with pytest.raises(ConfigError, match=r"short\.csv:3"):
            mio.read_matrix_csv(path)

    def test_header_only_file_warns_nothing(self, tmp_path):
        """``np.loadtxt`` warns on input without lines; the reader does not."""
        path = tmp_path / "short.csv"
        path.write_text("3,2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=r"short\.csv:2: expected 3 data rows, found 0$"):
                mio.read_matrix_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [("1000000000000,1000000000000\n1,2\n", r"big\.csv:2: expected 1000000000000 values, found 2$"),
         ("100000000000,2\n1,2\n", r"big\.csv:3: expected 100000000000 data rows, found 1$")],
        ids=["columns", "rows"],
    )
    def test_huge_header_names_file_and_line(self, tmp_path, text, message):
        # the header's shape is never allocated before the rows are read
        path = tmp_path / "big.csv"
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            mio.read_matrix_csv(path)

    def test_rows_past_header(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("2,2\n1,0\n0,1\n5,5\n")
        with pytest.raises(ConfigError, match=r"long\.csv:4: expected 2 data rows, found more"):
            mio.read_matrix_csv(path)
        path.write_text("2,2\n1,0\n0,1\n\n  \n")
        np.testing.assert_array_equal(mio.read_matrix_csv(path), np.eye(2))

    def test_bad_token_reports_row(self, tmp_path):
        path = tmp_path / "tok.csv"
        path.write_text("2,2\n1,2\n3,oops\n")
        with pytest.raises(ConfigError, match=r"tok\.csv:3"):
            mio.read_matrix_csv(path)

    def test_vector_rejects_multicolumn(self, tmp_path):
        path = tmp_path / "wide.csv"
        mio.write_matrix_csv(path, np.eye(2))
        with pytest.raises(DimensionMismatch):
            mio.read_vector_csv(path)


# Tokens on which float() and np.loadtxt may disagree: 1_0 and non-ASCII
# digits (only float() parses them), whitespace, non-finite spellings,
# overflow and underflow, and tokens both reject (a complex one among them).
_CSV_TOKENS = ["1", "-2.5", "0", "-0.0", "1_0", "\u0661\u0662", " 1.5 ", "\t2", "nan", "-nan",
               "Infinity", "1e999", "1e-400", "5e-324", "0x10", "1e", "", '""', "#1", "1,",
               "\u20031", "1\x0b", "1+2j"]


@st.composite
def csv_files(draw):
    """The bytes of a small CSV, mostly well formed: a header (possibly
    ``0,k``, ``k,0`` or malformed), data rows with tokens from
    ``_CSV_TOKENS`` or finite doubles, blank lines inside and after the
    rows, and LF or CRLF endings."""
    size = st.sampled_from([0, 1, 1, 2, 2, 3, 3])
    rows, cols = draw(size), draw(size)
    header = draw(st.sampled_from([f"{rows},{cols}"] * 10 + [f"{rows}", f"{rows},x"]))
    double = st.floats(allow_nan=False)
    token = st.one_of(st.sampled_from(_CSV_TOKENS), double.map(lambda x: mio.FLOAT_FMT % x),
                      double.map(repr), st.integers(-99, 99).map(str))
    lines = [header]
    for _ in range(rows + draw(st.sampled_from([0] * 6 + [-1, 1]))):
        if draw(st.integers(0, 14)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
        else:
            width = max(1, cols + draw(st.sampled_from([0] * 10 + [-1, 1])))
            lines.append(",".join(draw(st.lists(token, min_size=width, max_size=width))))
    lines += draw(st.lists(st.sampled_from(["", "", " ", "\t", "7"]), max_size=2))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return (end.join(lines) + draw(st.sampled_from([end, ""]))).encode()


def _read_outcome(read, path):
    try:
        out = read(path)
    except ConfigError as exc:
        return "error", str(exc)
    return out.dtype, out.shape, out.tobytes()


class TestCsvFastPath:
    @settings(max_examples=300)
    @given(csv_files())
    @example("2,2\n1_0,2\n3,4\n".encode())
    @example("1,2\n\u0661\u0662,-nan\r\n".encode())
    @example(b"2,1\n1\n\n2\n")
    @example(b"0,3\n\n")
    def test_matches_token_loop(self, tmp_path_factory, data):
        """Every file reads to the array bytes of the token loop alone, or
        fails with its message."""
        path = tmp_path_factory.getbasetemp() / "fast_path.csv"
        path.write_bytes(data)
        assert _read_outcome(mio.read_matrix_csv, path) == \
            _read_outcome(mio._read_csv, path)

    def test_well_formed_file_skips_token_loop(self, tmp_path, rng, monkeypatch):
        a = rng.standard_normal((200, 50))
        mio.write_matrix_csv(tmp_path / "a.csv", a)
        mio.write_vector_csv(tmp_path / "b.csv", a[:, 0])

        def fail(*args):
            raise AssertionError("the token loop ran on a well-formed file")

        monkeypatch.setattr(mio, "_read_csv", fail)
        np.testing.assert_array_equal(mio.read_matrix_csv(tmp_path / "a.csv"), a)
        np.testing.assert_array_equal(mio.read_vector_csv(tmp_path / "b.csv"), a[:, 0])


@pytest.mark.parametrize("write", [mio.write_matrix_csv, mio.write_vector_csv, mio.write_pgm])
def test_real_writers_reject_complex(tmp_path, write):
    path = tmp_path / "z.out"
    with pytest.raises(TypeError, match="writes real data, got a complex array"):
        write(path, np.array([[1j, 2.0], [0.0, 1.0]]))
    assert not path.exists()


def test_write_json_rejects_nonfinite(tmp_path):
    path = tmp_path / "x.json"
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            mio.write_json(path, {"v": value})
        with pytest.raises(ValueError):
            mio.json_text({"v": value})
    assert not path.exists()


class TestPgm:
    def test_one_dimensional_grid_rejected(self, tmp_path):
        with pytest.raises(DimensionMismatch,
                           match=r"^PGM render expects a 2-D grid, got shape \(3,\)$"):
            mio.write_pgm(tmp_path / "g.pgm", [1.0, 2.0, 3.0])
        assert not (tmp_path / "g.pgm").exists()

    def test_header_and_range(self, tmp_path):
        path = tmp_path / "g.pgm"
        mio.write_pgm(path, [[0.0, 1.0], [0.5, np.nan]])
        lines = path.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "2 2"
        assert lines[2] == "255"
        pix = [int(v) for row in lines[3:] for v in row.split()]
        assert pix == [0, 255, 128, 0]  # NaN renders black

    def test_constant_map(self, tmp_path):
        path = tmp_path / "c.pgm"
        # exactly constant, and constant up to rounding (a span of 1e-15)
        near = [[12.517973016904218, 12.51797301690423], [12.517973016904225, np.nan]]
        for grid in (np.full((2, 2), 3.0), near):
            mio.write_pgm(path, grid)
            pix = [int(v) for row in path.read_text().splitlines()[3:] for v in row.split()]
            assert set(pix) == {0}

    def test_one_coil_flat_maps_keep_bytes(self, tmp_path):
        """With one coil only two mirror-image lines are bounded, and their
        values of these maps agree to rounding: 1e-14 relative perturbations
        keep the renders."""
        res = sense.run_pipeline({"coils": {"l": 1}})
        rng = np.random.default_rng(0)
        for name in ("global_envelope", "kappa_line"):
            grid = res.maps[name]
            assert np.isfinite(grid).any(), name
            mio.write_pgm(tmp_path / "map.pgm", grid)
            want = (tmp_path / "map.pgm").read_bytes()
            for _ in range(5):
                noisy = grid * (1.0 + 1e-14 * rng.uniform(-1.0, 1.0, grid.shape))
                mio.write_pgm(tmp_path / "noisy.pgm", noisy)
                assert (tmp_path / "noisy.pgm").read_bytes() == want, name

    def test_span_beyond_float_range(self, tmp_path):
        path = tmp_path / "s.pgm"
        mio.write_pgm(path, [[1e308, -1e308, 0.0], [np.finfo(float).max, np.nan, -np.inf]])
        pix = [int(v) for row in path.read_text().splitlines()[3:] for v in row.split()]
        assert pix == [182, 0, 91, 255, 0, 0]  # lo -1e308, hi the largest float

    @pytest.mark.parametrize("shape", [(7, 5), (4, 1), (1, 9)])
    def test_row_format_matches_per_value_format(self, tmp_path, rng, shape):
        grid = rng.standard_normal(shape)
        grid.flat[0] = np.nan
        path = tmp_path / "g.pgm"
        mio.write_pgm(path, grid)
        lines = path.read_text().splitlines()
        pix = [[int(v) for v in row.split()] for row in lines[3:]]
        rows = "".join(" ".join(str(v) for v in row) + "\n" for row in pix)
        assert path.read_bytes() == (f"P2\n{shape[1]} {shape[0]}\n255\n" + rows).encode()


_SPECIAL_FLOATS = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310,
                   2.2250738585072009e-308, np.finfo(float).max, -np.finfo(float).max]


@st.composite
def map_grids(draw):
    """A small map: mixed values (with +-inf, signed zeros and subnormals),
    a flat one or an all-NaN one, 1 x 1 to 5 x 5, with some rows all NaN."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    value = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats())
    kind = draw(st.sampled_from(["mixed", "flat", "nan"]))
    if kind == "mixed":
        grid = np.array(draw(st.lists(value, min_size=rows * cols, max_size=rows * cols)))
    else:
        grid = np.full(rows * cols, draw(value) if kind == "flat" else np.nan)
    grid = grid.reshape(rows, cols)
    grid[draw(st.lists(st.booleans(), min_size=rows, max_size=rows))] = np.nan
    return grid


def pgm_reference(grid):
    """The PGM bytes of the per-row ``"%d"`` template, with the pixels of
    :func:`mio.write_pgm`'s min-max scaling."""
    finite = np.isfinite(grid)
    scaled = np.zeros_like(grid)
    if finite.any():
        lo, hi = float(grid[finite].min()), float(grid[finite].max())
        if hi - lo > 1e-12 * max(abs(lo), abs(hi)):
            s = math.ldexp(1.0, -max(0, math.frexp(max(abs(lo), abs(hi)))[1] - 1022))
            scaled = np.where(finite, (grid * s - lo * s) / (hi * s - lo * s) * 255, 0.0)
    pix = np.clip(np.rint(scaled), 0, 255).astype(int)
    line = " ".join(["%d"] * grid.shape[1]) + "\n"
    rows = "".join(line % tuple(row) for row in pix.tolist())
    return f"P2\n{grid.shape[1]} {grid.shape[0]}\n255\n{rows}".encode()


@settings(max_examples=200)
@given(map_grids())
@example(np.array([[1.5]]))
@example(np.array([[np.nan, 2.0, -np.inf, 5e-324]]))
@example(np.array([[-0.0], [np.nan], [1e308], [-1e308]]))
def test_map_writers_match_per_value_formulas(tmp_path_factory, grid):
    """``write_matrix_csv`` writes each cell's ``FLOAT_FMT``, and
    ``write_pgm`` the pixels of the ``"%d"`` row template, byte for byte."""
    tmp = tmp_path_factory.mktemp("maps")
    mio.write_matrix_csv(tmp / "m.csv", grid)
    rows = "".join(",".join(mio.FLOAT_FMT % x for x in row) + "\n" for row in grid.tolist())
    assert (tmp / "m.csv").read_bytes() == (f"{grid.shape[0]},{grid.shape[1]}\n" + rows).encode()
    mio.write_pgm(tmp / "m.pgm", grid)
    assert (tmp / "m.pgm").read_bytes() == pgm_reference(grid)


def write_identity_fixture(tmp_path):
    mpath, dpath = tmp_path / "a.csv", tmp_path / "b.csv"
    mio.write_matrix_csv(mpath, np.eye(2))
    mio.write_vector_csv(dpath, [1.0, 2.0])
    return str(mpath), str(dpath)


class TestBoundsCommand:
    def test_identity_intervals(self, tmp_path):
        mpath, dpath = write_identity_fixture(tmp_path)
        out = tmp_path / "out.json"
        code = cli.main(
            ["bounds", "--matrix", mpath, "--data", dpath, "--epsilon", "0.5",
             "--json", str(out)]
        )
        assert code == 0
        recs = json.loads(out.read_text())["bounds"]
        assert recs[0]["lower"] == pytest.approx(0.5)
        assert recs[0]["upper"] == pytest.approx(1.5)
        assert recs[1]["lower"] == pytest.approx(1.5)
        assert recs[1]["upper"] == pytest.approx(2.5)

    def test_unbounded_entry_record(self, tmp_path):
        mpath, dpath = tmp_path / "a.csv", tmp_path / "b.csv"
        mio.write_matrix_csv(mpath, [[1.0, 0.0]])
        mio.write_vector_csv(dpath, [1.0])
        out = tmp_path / "out.json"
        code = cli.main(
            ["bounds", "--matrix", str(mpath), "--data", str(dpath),
             "--epsilon", "0.1", "--json", str(out)]
        )
        assert code == 0
        recs = json.loads(out.read_text())["bounds"]
        assert recs[0]["status"] == "finite"
        assert recs[1]["status"] == "unbounded"
        assert recs[1]["lower"] is None and recs[1]["upper"] is None

    def test_infeasible_exit_code(self, tmp_path):
        mpath, dpath = tmp_path / "a.csv", tmp_path / "b.csv"
        mio.write_matrix_csv(mpath, [[1.0], [0.0]])
        mio.write_vector_csv(dpath, [0.0, 5.0])
        out = tmp_path / "out.json"
        code = cli.main(
            ["bounds", "--matrix", str(mpath), "--data", str(dpath),
             "--epsilon", "1.0", "--json", str(out)]
        )
        assert code == 2
        assert json.loads(out.read_text())["bounds"][0]["status"] == "infeasible"

    def test_missing_file_exit_code(self, tmp_path, capsys):
        code = cli.main(
            ["bounds", "--matrix", str(tmp_path / "nope.csv"),
             "--data", str(tmp_path / "nope2.csv"), "--epsilon", "1.0"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, eps, weights",
        [([1.0, float("nan")], "0.5", None), ([1.0, 2.0], "nan", None),
         ([1.0, 2.0], "inf", None), ([1.0, 2.0], "0.5", [float("inf"), 0.0]),
         ([1.0, 2.0], "0.5", [1e308, 1e308])],
        ids=["nan-data", "nan-epsilon", "inf-epsilon", "inf-weights", "overflow-weights"],
    )
    def test_nonfinite_input_exit_code(self, tmp_path, capsys, data, eps, weights):
        mpath, dpath, wpath = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "w.csv"
        mio.write_matrix_csv(mpath, np.eye(2))
        mio.write_vector_csv(dpath, data)
        argv = []
        if weights is not None:
            mio.write_vector_csv(wpath, weights)
            argv = ["--weights", str(wpath)]
        out = tmp_path / "out.json"
        code = cli.main(
            ["bounds", "--matrix", str(mpath), "--data", str(dpath),
             "--epsilon", eps, "--json", str(out)] + argv
        )
        assert code == 1
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rtol", ["nan", "0", "2", "-1"])
    def test_bad_rtol_rejected_before_factoring(self, tmp_path, capsys, monkeypatch, rtol):
        """The rank tolerance is checked when the system is made, before the
        QR of [A | b] that an M >= 2N matrix takes."""
        def not_called(*args, **kwargs):
            raise AssertionError("the system was factored before its tolerance was checked")

        monkeypatch.setattr(np.linalg, "qr", not_called)
        mpath, dpath, out = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "out.json"
        mio.write_matrix_csv(mpath, np.eye(6, 3))
        mio.write_vector_csv(dpath, np.ones(6))
        code = cli.main(["bounds", "--matrix", str(mpath), "--data", str(dpath),
                         "--epsilon", "1.0", f"--rtol={rtol}", "--json", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and not out.exists()
        assert captured.err == f"error: rank tolerance must be in (0, 1), got {float(rtol)}\n"

    def test_subnormal_sigma_exit_code(self, tmp_path, capsys):
        """A matrix whose sigma_1 is below 2**-1024 gets an ``error:`` line."""
        mpath, dpath = tmp_path / "a.csv", tmp_path / "b.csv"
        mio.write_matrix_csv(mpath, np.vstack([np.diag([1e-310, 2e-310]), np.zeros((2, 2))]))
        mio.write_vector_csv(dpath, [1e-310, 0.0, 0.0, 0.0])
        out = tmp_path / "out.json"
        code = cli.main(["bounds", "--matrix", str(mpath), "--data", str(dpath),
                         "--epsilon", "1e-300", "--json", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: sigma_1 is below 2**-1024")
        assert not out.exists()

    def test_stdout_matches_json_file(self, tmp_path, capsys):
        argv = ["bounds", "--matrix", os.path.join(FIXTURES, "system_6x4.csv"),
                "--data", os.path.join(FIXTURES, "data_6.csv"), "--epsilon", "0.4"]
        out = tmp_path / "out.json"
        assert cli.main(argv + ["--json", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_entry_subset(self, tmp_path):
        mpath, dpath = write_identity_fixture(tmp_path)
        out = tmp_path / "out.json"
        cli.main(
            ["bounds", "--matrix", mpath, "--data", dpath, "--epsilon", "0.5",
             "--entries", "1", "--json", str(out)]
        )
        recs = json.loads(out.read_text())["bounds"]
        assert len(recs) == 1 and recs[0]["index"] == 1

    @pytest.mark.parametrize("entries", ["-1", "0,2"])
    def test_entry_out_of_range_exit_code(self, tmp_path, capsys, entries):
        mpath, dpath = write_identity_fixture(tmp_path)
        out = tmp_path / "out.json"
        code = cli.main(["bounds", "--matrix", mpath, "--data", dpath, "--epsilon", "0.5",
                         "--entries", entries, "--json", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: entry index")
        assert not out.exists()


# (matrix, data, golden output) in FIXTURES, all bounded at epsilon 0.4
GOLDEN_CASES = {
    "6x4": ("system_6x4.csv", "data_6.csv", "golden_bounds.json"),
    # column 3 equals column 0: rank 3, bounded through the SVD of the QR triangle
    "12x4-rank3": ("system_12x4_rank3.csv", "data_12.csv", "golden_bounds_12x4_rank3.json"),
    # full rank with M >= 2N: bounded through the inverse of the QR triangle
    "12x4-full": ("system_12x4_full.csv", "data_12.csv", "golden_bounds_12x4_full.json"),
}


def _golden_paths(case):
    return (os.path.join(FIXTURES, f) for f in GOLDEN_CASES[case])


class TestGoldenFixture:
    def test_rerun_is_byte_identical(self, tmp_path):
        self._check_rerun(tmp_path, "6x4")

    def test_golden_values_match_oracle(self):
        self._check_oracle("6x4")

    @pytest.mark.parametrize("case", ["12x4-rank3", "12x4-full"])
    def test_qr_rerun_is_byte_identical(self, tmp_path, case):
        self._check_rerun(tmp_path, case)

    @pytest.mark.parametrize("case", ["12x4-rank3", "12x4-full"])
    def test_qr_golden_values_match_oracle(self, case):
        self._check_oracle(case)

    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_entry_subset_is_golden_records(self, tmp_path, monkeypatch, case):
        """``--entries`` bounds only the listed coordinates, and writes the
        golden file's records of them, byte for byte."""
        matrix, data, golden = _golden_paths(case)
        sizes = []
        real = bounds._bound_arrays
        monkeypatch.setattr(bounds, "_bound_arrays", lambda p: sizes.append(p.e.size) or real(p))
        out = tmp_path / "bounds.json"
        code = cli.main(["bounds", "--matrix", matrix, "--data", data, "--epsilon", "0.4",
                         "--entries", "3,0,3", "--json", str(out)])
        assert code == 0 and sizes == [3]
        with open(golden) as fh:
            want = json.load(fh)
        want["bounds"] = [want["bounds"][i] for i in (3, 0, 3)]
        assert out.read_bytes() == mio.json_text(want).encode()

    @staticmethod
    def _check_rerun(tmp_path, case):
        matrix, data, golden = _golden_paths(case)
        out = tmp_path / "bounds.json"
        code = cli.main(
            ["bounds", "--matrix", matrix, "--data", data, "--epsilon", "0.4", "--json", str(out)]
        )
        assert code == 0
        with open(golden, "rb") as fh:
            assert out.read_bytes() == fh.read()

    @staticmethod
    def _check_oracle(case):
        matrix, data, golden = _golden_paths(case)
        a = mio.read_matrix_csv(matrix)
        b = mio.read_vector_csv(data)
        with open(golden) as fh:
            recs = json.load(fh)["bounds"]
        assert [r["index"] for r in recs] == list(range(a.shape[1]))
        for r in recs:
            w = np.zeros(a.shape[1])
            w[r["index"]] = 1.0
            if r["status"] == "unbounded":
                assert nullspace_overlap(a, w) > 1e-8
                continue
            assert r["status"] == "finite"
            lo, hi = kkt_interval(a, b, 0.4, w)
            assert r["lower"] == pytest.approx(lo, abs=1e-9)
            assert r["upper"] == pytest.approx(hi, abs=1e-9)


def test_cli_loads_no_test_dependency(tmp_path):
    """scipy, mpmath and hypothesis are the ``test`` extra: a run imports none."""
    matrix, data, _ = _golden_paths("6x4")
    argv = ["bounds", "--matrix", matrix, "--data", data, "--epsilon", "0.4",
            "--json", str(tmp_path / "bounds.json")]
    code = ("import sys\n"
            "from entrybounds import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'mpmath', 'hypothesis'}))")
    src = os.path.join(os.path.dirname(FIXTURES), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_cli_calls_no_private_kernel_function():
    """``cli`` reaches the ``bounds`` module only by its public names."""
    with open(cli.__file__) as fh:
        tree = ast.parse(fh.read())
    private = sorted(
        {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
         and isinstance(n.value, ast.Name) and n.value.id == "bnd" and n.attr.startswith("_")}
        | {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
           and n.module == "bounds" for a in n.names if a.name.startswith("_")})
    assert private == []


class TestExtremalCommand:
    def test_upper_target_achieves_bound(self, tmp_path, monkeypatch):
        out_x = tmp_path / "x.csv"
        out_json = tmp_path / "v.json"
        calls = []  # row passes: the vector and `expected` share one
        real = bounds._row_products
        monkeypatch.setattr(bounds, "_row_products", lambda *args: calls.append(1) or real(*args))
        code = cli.main(
            ["extremal",
             "--matrix", os.path.join(FIXTURES, "system_6x4.csv"),
             "--data", os.path.join(FIXTURES, "data_6.csv"),
             "--epsilon", "0.4", "--target", "upper", "--weight-index", "2",
             "--out", str(out_x), "--json", str(out_json)]
        )
        assert code == 0
        assert len(calls) == 1
        v = json.loads(out_json.read_text())
        assert v["achieved"] == pytest.approx(v["expected"], abs=1e-10)
        assert v["residual_norm"] <= v["epsilon"] * (1 + 1e-10)
        a = mio.read_matrix_csv(os.path.join(FIXTURES, "system_6x4.csv"))
        b = mio.read_vector_csv(os.path.join(FIXTURES, "data_6.csv"))
        x = mio.read_vector_csv(out_x)
        assert np.linalg.norm(a @ x - b) <= 0.4 * (1 + 1e-10)
        assert x[2] == pytest.approx(v["achieved"], abs=1e-12)

    def test_value_target_on_finite_functional_exits_2(self, tmp_path, capsys):
        code = cli.main(
            ["extremal",
             "--matrix", os.path.join(FIXTURES, "system_6x4.csv"),
             "--data", os.path.join(FIXTURES, "data_6.csv"),
             "--epsilon", "0.4", "--target", "value:7.0", "--weight-index", "0",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2

    def test_value_target_on_unbounded_functional(self, tmp_path):
        mpath, dpath = tmp_path / "a.csv", tmp_path / "b.csv"
        mio.write_matrix_csv(mpath, [[1.0, 0.0]])
        mio.write_vector_csv(dpath, [1.0])
        out_json = tmp_path / "v.json"
        code = cli.main(
            ["extremal", "--matrix", str(mpath), "--data", str(dpath),
             "--epsilon", "0.1", "--target", "value:42.0", "--weight-index", "1",
             "--out", str(tmp_path / "x.csv"), "--json", str(out_json)]
        )
        assert code == 0
        v = json.loads(out_json.read_text())
        assert v["achieved"] == pytest.approx(42.0, abs=1e-10)
        assert v["residual_norm"] <= 0.1 * (1 + 1e-10)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_value_target_exit_code(self, tmp_path, capsys, value):
        mpath, dpath = tmp_path / "a.csv", tmp_path / "b.csv"
        mio.write_matrix_csv(mpath, [[1.0, 0.0]])
        mio.write_vector_csv(dpath, [1.0])
        out_x = tmp_path / "x.csv"
        code = cli.main(
            ["extremal", "--matrix", str(mpath), "--data", str(dpath),
             "--epsilon", "0.1", "--target", f"value:{value}", "--weight-index", "1",
             "--out", str(out_x)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "must be finite" in captured.err
        assert captured.out == ""
        assert not out_x.exists()

    def test_weights_file_target(self, tmp_path, capsys):
        """``--weights`` reads w from a file: on A = [[1, 0], [0, 1], [1, 1]],
        b = [1, 2, 3.1], the vector attains the upper end of w = [1, -1]
        within epsilon; a w of another length exits 1."""
        paths = {name: tmp_path / name for name in ("a.csv", "b.csv", "w.csv", "x.csv", "v.json")}
        mio.write_matrix_csv(paths["a.csv"], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        mio.write_vector_csv(paths["b.csv"], [1.0, 2.0, 3.1])
        mio.write_vector_csv(paths["w.csv"], [1.0, -1.0])
        argv = ["extremal", "--matrix", str(paths["a.csv"]), "--data", str(paths["b.csv"]),
                "--epsilon", "0.5", "--target", "upper", "--weights", str(paths["w.csv"]),
                "--out", str(paths["x.csv"]), "--json", str(paths["v.json"])]
        assert cli.main(argv) == 0
        v = json.loads(paths["v.json"].read_text())
        assert v["achieved"] == pytest.approx(v["expected"], rel=1e-12)
        assert v["expected"] == pytest.approx(-0.2976230831431511, rel=1e-12)
        assert v["residual_norm"] <= 0.5
        x = mio.read_vector_csv(paths["x.csv"])
        assert x[0] - x[1] == pytest.approx(v["achieved"], rel=1e-12)

        paths["x.csv"].unlink()
        mio.write_vector_csv(paths["w.csv"], [1.0, -1.0, 0.0])
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: weight matrix has shape (1, 3), matrix has 2 columns\n")
        assert not paths["x.csv"].exists()


class TestEstimateDiagCommand:
    def test_dense_path_reports_exact_values(self, tmp_path):
        mpath = tmp_path / "a.csv"
        mio.write_matrix_csv(mpath, np.diag([2.0, 1.0]))
        out = tmp_path / "d.json"
        code = cli.main(
            ["estimate-diag", "--matrix", str(mpath), "--samples", "800",
             "--seed", "1", "--json", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        np.testing.assert_allclose(payload["exact"], [0.25, 1.0], rtol=1e-6)
        np.testing.assert_allclose(payload["values"], payload["exact"], rtol=0.2)
        assert payload["failed_samples"] == 0
        assert max(payload["relative_error"]) <= 0.2

    def test_dense_payload_keeps_its_keys(self, tmp_path):
        # 5x3 matrix, a budget of 180 iterations that 3 of the 12 probes
        # meet (they stop after 156, 173 and 179; the rest need 182 to 186)
        a = [[2.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.5, 3.0], [0.0, 2.0, 1.0],
             [1.0, 1.0, 1.0]]
        mpath, out = tmp_path / "a.csv", tmp_path / "d.json"
        mio.write_matrix_csv(mpath, np.array(a))
        code = cli.main(["estimate-diag", "--matrix", str(mpath), "--samples", "12",
                         "--seed", "4", "--rel-tol", "1e-10", "--max-iters", "180",
                         "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        # the payload of the residual form x <- x - tau A^T (A x - m), which
        # the normal form A^T A x - A^T m reproduces up to the last bits
        before = {
            "exact": [0.3476190476190476, 0.2285714285714285, 0.2238095238095237],
            "failed_samples": 9, "probe_kind": "gaussian",
            "relative_error": [0.8336417787198912, 0.29444755923846144, 0.7488580711482342],
            "samples": 12, "seed": 4, "sigma1_estimate": 4.195119548915796,
            "values": [0.0578292864449902, 0.29587372782593396, 0.05620795550491898],
        }
        assert set(payload) == set(before) | {"iterations", "max_last_update_norm"}
        for key, want in before.items():
            if isinstance(want, (float, list)):
                np.testing.assert_allclose(payload[key], want, rtol=1e-13, err_msg=key)
            else:
                assert payload[key] == want, key
        assert payload["iterations"] == {"min": 156, "median": 180.0, "max": 180}
        assert 0.0 < payload["max_last_update_norm"] < 1e-9

    def test_manifest_keeps_outputs_with_one_basename(self, tmp_path):
        """Two outputs named ``out`` in different directories both get their
        hash, keyed by path; a unique basename stays the key."""
        mpath = tmp_path / "a.csv"
        mio.write_matrix_csv(mpath, np.diag([2.0, 1.0]))
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        csv_out, json_out = tmp_path / "a" / "out", tmp_path / "b" / "out"
        manifest_path = tmp_path / "m.json"
        code = cli.main(["estimate-diag", "--matrix", str(mpath), "--samples", "5",
                         "--csv", str(csv_out), "--json", str(json_out),
                         "--manifest", str(manifest_path)])
        assert code == 0
        outputs = json.loads(manifest_path.read_text())["outputs"]
        assert outputs == {str(csv_out): mio.sha256_file(csv_out),
                           str(json_out): mio.sha256_file(json_out)}
        assert outputs[str(csv_out)] != outputs[str(json_out)]
        assert mio.hash_outputs([str(csv_out), str(mpath)]) == {
            "out": mio.sha256_file(csv_out), "a.csv": mio.sha256_file(mpath)}

    @pytest.mark.parametrize(
        "flag, value",
        [("--rel-tol", "nan"), ("--rel-tol", "-1"), ("--rel-tol", "inf"), ("--max-iters", "0")],
        ids=["rel-tol-nan", "rel-tol-negative", "rel-tol-inf", "max-iters-0"],
    )
    def test_rejects_settings_that_cannot_work(self, tmp_path, capsys, flag, value):
        # before, NaN and -1 ran every probe to the budget and then asked to
        # loosen it, inf returned 0.032 and 0.023 (exact 0.25 and 1.0) with no
        # failed probe, and 0 asked to loosen the budget
        mpath, out = tmp_path / "a.csv", tmp_path / "d.json"
        mio.write_matrix_csv(mpath, np.diag([2.0, 1.0]))
        code = cli.main(["estimate-diag", "--matrix", str(mpath), "--samples", "4",
                         f"{flag}={value}", "--json", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and not out.exists()
        assert captured.err.startswith(f"error: {flag[2:].replace('-', '_')} must ")

    @pytest.mark.parametrize("flag, value", [("--rel-tol", "nan"), ("--max-iters", "0")],
                             ids=["rel-tol-nan", "max-iters-0"])
    def test_rejects_settings_before_operator_work(self, tmp_path, capsys, monkeypatch,
                                                   flag, value):
        """The Landweber settings are checked before the operator is built."""
        def not_called(*args, **kwargs):
            raise AssertionError("operator work before the settings were checked")

        for module, name in ((sense, "build_problem"), (sense, "sense_operator"),
                             (matfree, "sigma1"), (matfree, "power_iteration_sigma1")):
            monkeypatch.setattr(module, name, not_called)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"grid": {"h": 16, "w": 16}}))
        code = cli.main(["estimate-diag", "--op", f"sense:{cfg_path}", "--samples", "2",
                         f"{flag}={value}"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and captured.err.startswith("error:")

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--samples", "0", "samples must be >= 1, got 0"),
         ("--seed", "-1", "seed must be >= 0, got -1")],
        ids=["samples-0", "seed-negative"],
    )
    def test_rejects_probe_settings_before_operator_work(self, tmp_path, capsys, monkeypatch,
                                                         flag, value, message):
        """The probe count and the seed are checked before the operator is
        built, with a message that names the flag."""
        def not_called(*args, **kwargs):
            raise AssertionError("operator work before the probe settings were checked")

        for module, name in ((sense, "sense_operator"), (matfree, "sigma1"),
                             (matfree, "power_iteration_sigma1")):
            monkeypatch.setattr(module, name, not_called)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"grid": {"h": 16, "w": 16}}))
        settings = {"--samples": "2", "--seed": "0", flag: value}
        code = cli.main(["estimate-diag", "--op", f"sense:{cfg_path}"]
                        + [f"{k}={v}" for k, v in settings.items()])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("entry", ["nan", "inf"])
    def test_rejects_a_non_finite_matrix_before_power_iteration(self, tmp_path, capsys,
                                                                monkeypatch, entry):
        """A NaN or infinite entry is rejected before any product."""
        def not_called(*args, **kwargs):
            raise AssertionError("sigma1 of a non-finite matrix")

        for name in ("sigma1", "power_iteration_sigma1"):
            monkeypatch.setattr(matfree, name, not_called)
        mpath = tmp_path / "a.csv"
        mpath.write_text(f"2,2\n1.0,0.0\n0.0,{entry}\n")
        code = cli.main(["estimate-diag", "--matrix", str(mpath), "--samples", "2"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: matrix contains NaN or Inf entries\n"

    def test_requires_an_operator(self, capsys):
        code = cli.main(["estimate-diag", "--samples", "10"])
        assert code == 1

    def test_takes_exactly_one_input(self, tmp_path, capsys):
        """--matrix and --op together are an error, not --op alone."""
        mpath, cfg_path = tmp_path / "a.csv", tmp_path / "cfg.json"
        mio.write_matrix_csv(mpath, np.diag([2.0, 1.0]))
        cfg_path.write_text(json.dumps({"grid": {"h": 8, "w": 8}}))
        for inputs, message in (
                ([], "one of the arguments --matrix --op is required"),
                (["--matrix", str(mpath), "--op", f"sense:{cfg_path}"],
                 "argument --op: not allowed with argument --matrix")):
            code = cli.main(["estimate-diag", *inputs, "--samples", "2"])
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert captured.err == f"error: {message}\n"

    def test_op_takes_sigma1_from_the_normal_blocks(self, tmp_path, monkeypatch):
        """Neither ``--op`` nor ``--matrix`` runs power iteration: both
        operators carry their normal blocks."""
        calls = []
        power = matfree.power_iteration_sigma1
        monkeypatch.setattr(matfree, "power_iteration_sigma1",
                            lambda *args, **kwargs: calls.append(1) or power(*args, **kwargs))
        cfg = {"grid": {"h": 8, "w": 8}, "coils": {"l": 2}, "pattern": {"accel": 2, "acs": 2}}
        cfg_path, mpath, out = tmp_path / "cfg.json", tmp_path / "a.csv", tmp_path / "d.json"
        cfg_path.write_text(json.dumps(cfg))
        mio.write_matrix_csv(mpath, np.diag([2.0, 1.0]))
        code = cli.main(["estimate-diag", "--op", f"sense:{cfg_path}", "--samples", "2",
                         "--rel-tol", "1e-6", "--json", str(out)])
        assert code == 0 and calls == []
        op, _ = sense.sense_operator(*sense.build_problem(cfg))
        assert json.loads(out.read_text())["sigma1_estimate"] == matfree.sigma1(op)
        code = cli.main(["estimate-diag", "--matrix", str(mpath), "--samples", "2",
                         "--json", str(out)])
        assert code == 0 and calls == []
        assert json.loads(out.read_text())["sigma1_estimate"] == 2.0

    def test_rejects_a_step_past_the_exact_stable_limit(self, tmp_path, capsys):
        """``--tau`` between 2 / sigma1^2 and the limit of the 200-step power
        estimate, which sits below sigma1, is outside the stable interval.
        Accepted, it diverged and failed every probe."""
        cfg = {"grid": {"h": 16, "w": 16}, "coils": {"l": 4}, "pattern": {"accel": 2, "acs": 2}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        op, _ = sense.sense_operator(*sense.build_problem(cfg))
        exact, power = matfree.sigma1(op), matfree.power_iteration_sigma1(op, seed=1)
        assert (exact - power) / exact > 7e-4
        limit = 2.0 / (exact * exact)
        tau = (limit + 2.0 / (power * power)) / 2
        code = cli.main(["estimate-diag", "--op", f"sense:{cfg_path}", "--samples", "1",
                         "--seed", "1", "--max-iters", "50", f"--tau={tau!r}"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: tau {tau} outside the stable interval (0, {limit})\n"

    def test_matrix_rejects_a_step_past_the_exact_stable_limit(self, tmp_path, capsys):
        """On ``--matrix`` too, ``--tau`` is checked against 2 / sigma1^2 of
        the exact sigma1. Against the 200-step power estimate of
        diag(1, 0.999, 0.5), 0.99967, this step passed, and every probe
        diverged."""
        mpath = tmp_path / "a.csv"
        mio.write_matrix_csv(mpath, np.diag([1.0, 0.999, 0.5]))
        code = cli.main(["estimate-diag", "--matrix", str(mpath), "--samples", "2",
                         "--max-iters", "50", "--tau", "2.000665"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: tau 2.000665 outside the stable interval (0, 2.0")

    def test_zero_normal_blocks_exit_code(self, tmp_path, capsys, monkeypatch):
        """An operator whose normal blocks are all zero has sigma1 0, and no
        stable step."""
        real = sense.sense_operator

        def zero_blocks(*args):
            op, voxel_map = real(*args)
            stack, index = op.normal_blocks
            return dataclasses.replace(op, normal_blocks=(np.zeros_like(stack), index)), voxel_map

        monkeypatch.setattr(sense, "sense_operator", zero_blocks)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"grid": {"h": 8, "w": 8}}))
        code = cli.main(["estimate-diag", "--op", f"sense:{cfg_path}", "--samples", "2"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == ("error: sigma1_estimate must be > 0 with a nonzero finite "
                                "square, got 0.0\n")

    def test_sense_operator_spec(self, tmp_path):
        cfg = {
            "grid": {"h": 8, "w": 8, "preset": "smooth-blobs", "seed": 0},
            "coils": {"l": 2, "seed": 0},
            "pattern": {"accel": 2, "acs": 2},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "d.json"
        code = cli.main(
            ["estimate-diag", "--op", f"sense:{cfg_path}", "--samples", "8",
             "--seed", "2", "--max-iters", "3000", "--rel-tol", "1e-6",
             "--json", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["samples"] == 8
        assert all(v >= 0 for v in payload["values"])


def check_sense_manifest(outdir):
    """The manifest's status counts are those of ``status.csv``, over every
    voxel, its factor paths count the lines not skipped, and the build and
    bound timings fit inside the total."""
    manifest = json.loads((outdir / "manifest.json").read_text())
    paths = manifest["factor_paths"]
    assert sorted(paths) == ["svd", "triangle"]
    assert sum(paths.values()) == sum("skipped" not in s for s in manifest["line_stats"])
    status = mio.read_matrix_csv(outdir / "status.csv")
    counts = manifest["status_counts"]
    assert list(counts) == ["0", "1", "2", "3", "4"]
    assert sum(counts.values()) == status.size
    assert counts == {code: int(np.count_nonzero(status == int(code))) for code in counts}
    timings = manifest["timings"]
    assert 0 < timings["build_s"] and 0 < timings["bounds_s"]
    assert timings["build_s"] + timings["bounds_s"] <= timings["total_s"]
    assert 0 <= timings["factor_s"] <= timings["bounds_s"]
    assert 0 <= timings["write_s"] <= manifest["wall_clock_s"]
    return manifest, status


class TestSenseCommand:
    CFG = {
        "grid": {"h": 12, "w": 12, "preset": "smooth-blobs", "seed": 0},
        "coils": {"l": 4, "phase_fold": True, "seed": 0},
        "pattern": {"accel": 2, "acs": 4},
        "noise": {"sigma": 0.01, "seed": 0},
    }

    def run_once(self, tmp_path, name):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(self.CFG))
        outdir = tmp_path / name
        code = cli.main(["sense", "--config", str(cfg_path), "--out", str(outdir)])
        return code, outdir

    def test_outputs_and_manifest(self, tmp_path):
        code, outdir = self.run_once(tmp_path, "run")
        assert code == 0
        manifest, status = check_sense_manifest(outdir)
        assert status.shape == (12, 12) and manifest["status_counts"]["0"] > 0
        for name in ("lower_re", "upper_re", "status", "sensitivity"):
            assert (outdir / f"{name}.csv").exists()
            assert f"{name}.csv" in manifest["outputs"]
        assert manifest["command"] == "sense"
        assert manifest["config"]["achieved"]["kept_lines"] > 0

    def test_rerun_reproducible_modulo_timings(self, tmp_path):
        _, dir1 = self.run_once(tmp_path, "run1")
        _, dir2 = self.run_once(tmp_path, "run2")
        m1 = json.loads((dir1 / "manifest.json").read_text())
        m2 = json.loads((dir2 / "manifest.json").read_text())
        assert m1["outputs"] == m2["outputs"]  # content hashes byte-identical
        for key in ("timings", "wall_clock_s"):
            m1.pop(key), m2.pop(key)
        assert m1 == m2

    def test_pgm_renders(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(self.CFG))
        outdir = tmp_path / "run"
        code = cli.main(
            ["sense", "--config", str(cfg_path), "--out", str(outdir), "--pgm"]
        )
        assert code == 0
        assert (outdir / "upper_re.pgm").read_text().startswith("P2\n")

    def test_manifest_only_echoes_resolved_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"grid": {"h": 16}}))
        code = cli.main(
            ["sense", "--config", str(cfg_path), "--out", str(tmp_path / "x"),
             "--manifest-only"]
        )
        assert code == 0
        echoed = json.loads(capsys.readouterr().out)
        assert echoed["grid"]["h"] == 16
        assert echoed["grid"]["w"] == 32  # defaults filled in
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "cfg", [{"coils": {"l": 1}}, {"pattern": {"accel": 16, "acs": 0}}], ids=["one-coil", "accel-16"]
    )
    def test_underdetermined_lines_counted(self, tmp_path, cfg):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        outdir = tmp_path / "run"
        code = cli.main(["sense", "--config", str(cfg_path), "--out", str(outdir)])
        assert code == 0
        manifest, status = check_sense_manifest(outdir)
        skipped = [s for s in manifest["line_stats"] if "skipped" in s]
        assert manifest["lines_skipped"] == len(skipped) > 0
        assert np.any(status == 4) and manifest["status_counts"]["4"] > 0

    @pytest.mark.parametrize("eps, code", [(1e307, 0), (1e308, 1)])
    def test_overflowing_lines_skipped(self, tmp_path, eps, code):
        """Lines whose bounds leave the float range are skipped and every map
        is written; a run in which every line overflows exits 1."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "grid": {"h": 32, "w": 32, "seed": 1}, "coils": {"seed": 1}, "noise": {"seed": 1},
            "pattern": {"accel": 4, "acs": 6}, "epsilon": {"mode": "fixed", "value": eps}}))
        outdir = tmp_path / "run"
        assert cli.main(["sense", "--config", str(cfg_path), "--out", str(outdir)]) == code
        if code == 0:
            manifest = json.loads((outdir / "manifest.json").read_text())
            assert manifest["lines_skipped"] == 18 and len(manifest["outputs"]) == 15
            assert all((outdir / name).exists() for name in manifest["outputs"])

    @pytest.mark.parametrize("manifest_only", [False, True], ids=["run", "manifest-only"])
    @pytest.mark.parametrize(
        "cfg",
        [
            {"grid": {"h": "32"}},
            {"coils": {"l": "8"}},
            {"noise": {"sigma": "x"}},
            {"pattern": {"accel": 2.5}},
            {"epsilon": {"mode": "fixed", "value": None}},
            [],
            None,
            {"outputs": {}},
            {"grid": {"h": 12, "w": 12}, "extremal": {"line": 999}},
            {"epsilon": {"mode": "heuristic", "value": 5.0}},
            {"epsilon": {"mode": "fixed", "value": -1.0}},
            {"grid": {"h": 16, "w": 16}, "noise": {"sigma": 10**400}},
            {"grid": {"h": 16, "w": 16}, "noise": {"seed": -1}},
            {"grid": {"h": 16, "w": 16}, "pattern": {"acs": -3}},
            {"pattern": {"accel": 0}},
            {"grid": {"h": 4, "w": 4}},
            {"grid": {"preset": "nope"}},
            {"coils": {"l": 0}},
            {"noise": {"sigma": -1}},
        ],
        ids=["str-h", "str-l", "str-sigma", "float-accel", "null-value", "list", "null",
             "outputs-key", "extremal-line-999", "value-not-fixed", "negative-value",
             "huge-int-sigma", "negative-seed", "negative-acs", "zero-accel", "grid-4x4",
             "unknown-preset", "zero-coils", "negative-sigma"],
    )
    def test_mistyped_config_exit_code(self, tmp_path, capsys, cfg, manifest_only):
        """A config a run rejects is rejected with the same error line by
        ``--manifest-only``, and neither writes stdout or an output directory."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        outdir = tmp_path / "x"
        argv = ["sense", "--config", str(cfg_path), "--out", str(outdir)]
        errors = []
        for only in (manifest_only, not manifest_only):
            assert cli.main(argv + ["--manifest-only"] * only) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error:") and captured.out == ""
            assert not outdir.exists()
            errors.append(captured.err)
        assert errors[0] == errors[1]

    def test_accel_beyond_the_grid_is_accel_h(self, tmp_path, capsys):
        """Every ``accel >= grid.h`` keeps line 0 and the ACS block: a run
        writes the maps of ``accel = h``, and ``estimate-diag --op`` gives its
        result."""
        results = []
        for accel in (16, 10**23):
            cfg_path, outdir = tmp_path / f"cfg{accel}.json", tmp_path / f"run{accel}"
            cfg_path.write_text(json.dumps({"grid": {"h": 16, "w": 16},
                                            "pattern": {"accel": accel, "acs": 0}}))
            assert cli.main(["sense", "--config", str(cfg_path), "--out", str(outdir)]) == 0
            hashes = json.loads((outdir / "manifest.json").read_text())["outputs"]
            code = cli.main(["estimate-diag", "--op", f"sense:{cfg_path}", "--samples", "2"])
            results.append((hashes, code, capsys.readouterr()))
        assert results[0] == results[1]

    def test_memory_error_exit_code(self, tmp_path, capsys, monkeypatch):
        """A run the host has no memory for gets an ``error:`` line and exit 1."""
        def no_memory(cfg):
            raise MemoryError("Unable to allocate 37.3 GiB")

        monkeypatch.setattr(sense, "run_pipeline", no_memory)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"grid": {"h": 100000}}))
        outdir = tmp_path / "x"
        assert cli.main(["sense", "--config", str(cfg_path), "--out", str(outdir)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: out of memory: Unable to allocate")
        assert captured.out == "" and not outdir.exists()

    @pytest.mark.parametrize("argv", [
        ["sense", "--out", "x"], ["sense", "--out", "x", "--manifest-only"],
        ["estimate-diag", "--samples", "2", "--op"],
    ], ids=["run", "manifest-only", "estimate-diag"])
    def test_size_limit_exit_code(self, tmp_path, capsys, monkeypatch, argv):
        """A config whose arrays pass ``core.MAX_ARRAY_BYTES`` exits 1 with
        an ``error:`` line before the phantom or the coils are built."""
        def no_allocation(*args, **kwargs):
            raise AssertionError("a grid-sized array was built")

        monkeypatch.setattr(sense, "make_phantom", no_allocation)
        monkeypatch.setattr(sense, "make_coils", no_allocation)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"grid": {"h": 100000}}))
        config = ["sense:cfg.json"] if argv[0] == "estimate-diag" else ["--config", "cfg.json"]
        assert cli.main(argv + config) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: the kept DFT rows (25006, 100000) would take "
                                "40009600000 bytes, more than the 1073741824 allowed\n")
        assert captured.out == "" and not (tmp_path / "x").exists()

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"grid": {"h": 12, "w": 12}, "bogus": {}}))
        code = cli.main(["sense", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert code == 1


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert "entrybounds" in capsys.readouterr().out
