import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from entrybounds import bounds, cli, mio, sense
from entrybounds.errors import ConfigError, DimensionMismatch

from conftest import kkt_interval

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

    def test_complex(self, tmp_path, rng):
        z = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        path = tmp_path / "z.csv"
        mio.write_complex_csv(path, z)
        np.testing.assert_array_equal(mio.read_complex_csv(path), z)

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
        with pytest.raises(ConfigError, match=r"short\.csv:3: expected 3 data rows, found 1"):
            mio.read_complex_csv(path)

    def test_header_only_file_warns_nothing(self, tmp_path):
        """``np.loadtxt`` warns on input without lines; the reader does not."""
        path = tmp_path / "short.csv"
        path.write_text("3,2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=r"short\.csv:2: expected 3 data rows, found 0$"):
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
# overflow and underflow, and tokens both reject.
_CSV_TOKENS = ["1", "-2.5", "0", "-0.0", "1_0", "\u0661\u0662", " 1.5 ", "\t2", "nan", "-nan",
               "Infinity", "1e999", "1e-400", "5e-324", "0x10", "1e", "", '""', "#1", "1,",
               "\u20031", "1\x0b"]


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
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
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
            _read_outcome(lambda p: mio._read_csv(p, float, float), path)

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
    with pytest.raises(TypeError, match="write_complex_csv"):
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


class TestGoldenFixture:
    MATRIX = os.path.join(FIXTURES, "system_6x4.csv")
    DATA = os.path.join(FIXTURES, "data_6.csv")
    GOLDEN = os.path.join(FIXTURES, "golden_bounds.json")

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "bounds.json"
        code = cli.main(
            ["bounds", "--matrix", self.MATRIX, "--data", self.DATA,
             "--epsilon", "0.4", "--json", str(out)]
        )
        assert code == 0
        with open(self.GOLDEN, "rb") as fh:
            assert out.read_bytes() == fh.read()

    def test_golden_values_match_oracle(self):
        a = mio.read_matrix_csv(self.MATRIX)
        b = mio.read_vector_csv(self.DATA)
        with open(self.GOLDEN) as fh:
            recs = json.load(fh)["bounds"]
        for r in recs:
            w = np.zeros(a.shape[1])
            w[r["index"]] = 1.0
            lo, hi = kkt_interval(a, b, 0.4, w)
            assert r["lower"] == pytest.approx(lo, abs=1e-9)
            assert r["upper"] == pytest.approx(hi, abs=1e-9)


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

    def test_requires_an_operator(self, capsys):
        code = cli.main(["estimate-diag", "--samples", "10"])
        assert code == 1

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
        manifest = json.loads((outdir / "manifest.json").read_text())
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
        manifest = json.loads((outdir / "manifest.json").read_text())
        skipped = [s for s in manifest["line_stats"] if "skipped" in s]
        assert manifest["lines_skipped"] == len(skipped) > 0
        status = mio.read_matrix_csv(outdir / "status.csv")
        assert np.any(status == 4)

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
        ],
        ids=["str-h", "str-l", "str-sigma", "float-accel", "null-value", "list", "null",
             "outputs-key", "extremal-line-999", "value-not-fixed"],
    )
    def test_mistyped_config_exit_code(self, tmp_path, capsys, cfg, manifest_only):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        outdir = tmp_path / "x"
        argv = ["sense", "--config", str(cfg_path), "--out", str(outdir)]
        code = cli.main(argv + ["--manifest-only"] * manifest_only)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""
        assert not outdir.exists()

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
