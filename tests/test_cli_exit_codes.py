"""The exit-code contract of the command line: 0 success, 1 input error
(usage errors included), 2 infeasible functional or system, or an
extremal target incompatible with the bound status.  ``cli.main`` alone
maps an outcome to its code, so in process it returns every one of them."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from entrybounds import cli, errors, mio
from entrybounds.errors import EntryBoundsError, IndexOutOfRange, InfeasibleSystem, StatusMismatch

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

# A = [[1, 0], [0, 1], [1, 1]] and b = [1, 2, 0]: the least-squares residual
# is 3 / sqrt(3) = 1.73, so no x has ||Ax - b|| <= 0.01.
INFEASIBLE = ([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 2.0, 0.0], "0.01")


@pytest.fixture
def inputs(tmp_path):
    """Paths of a 2x2 identity system and a weight vector."""
    paths = {name: str(tmp_path / name) for name in ("a.csv", "b.csv", "w.csv")}
    mio.write_matrix_csv(paths["a.csv"], np.eye(2))
    mio.write_vector_csv(paths["b.csv"], [1.0, 2.0])
    mio.write_vector_csv(paths["w.csv"], [1.0, 1.0])
    return paths


def run_main(argv, capsys):
    """``cli.main(argv)``, its stdout and its stderr."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["nope"], "argument command: invalid choice: 'nope'"),
    (["bounds"], "the following arguments are required: --matrix, --data, --epsilon"),
    (["bounds", "--matrix", "a.csv", "--data", "b.csv", "--epsilon", "x"],
     "argument --epsilon: invalid float value: 'x'"),
    (["extremal", "--matrix", "a.csv", "--data", "b.csv", "--epsilon", "1", "--weight-index",
      "0", "--out", "x.csv"], "the following arguments are required: --target"),
    (["estimate-diag", "--matrix", "a.csv", "--samples", "x"],
     "argument --samples: invalid int value: 'x'"),
    (["sense", "--config", "cfg.json"], "the following arguments are required: --out"),
    (["sense", "--config", "cfg.json", "--out", "o", "--bogus"],
     "unrecognized arguments: --bogus"),
], ids=["no-command", "unknown-command", "bounds", "bounds-epsilon", "extremal",
        "estimate-diag", "sense", "sense-unknown-flag"])
def test_usage_error_exits_1(capsys, argv, message):
    """A usage error is an input error: one ``error:`` line and exit 1,
    returned in process rather than raised as ``SystemExit(2)``."""
    code, out, err = run_main(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1 and err.endswith("\n")


def test_usage_error_process_status(tmp_path):
    """The process exits 1 on a usage error, with no usage text."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-m", "entrybounds.cli", "bounds"],
                         capture_output=True, text=True, env=env, cwd=tmp_path)
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr == ("error: the following arguments are required: "
                          "--matrix, --data, --epsilon\n")


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["bounds", "--help"],
                                  ["estimate-diag", "-h"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out and captured.err == ""


@pytest.mark.parametrize("command", ["bounds", "extremal"])
def test_infeasible_system_exits_2(tmp_path, capsys, command):
    """An empty near-consistency set exits 2 from both commands that read a
    system; ``extremal`` writes no ``--out``."""
    a, b, eps = INFEASIBLE
    mpath, dpath, out = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "x.csv"
    mio.write_matrix_csv(mpath, a)
    mio.write_vector_csv(dpath, b)
    argv = [command, "--matrix", str(mpath), "--data", str(dpath), "--epsilon", eps]
    if command == "extremal":
        argv += ["--target", "upper", "--weight-index", "0", "--out", str(out)]
        assert run_main(argv, capsys) == (
            2, "", "error: no vector is consistent with the data within epsilon\n")
        assert not out.exists()
    else:
        code, stdout, _ = run_main(argv, capsys)
        assert code == 2
        assert [r["status"] for r in json.loads(stdout)["bounds"]] == ["infeasible"] * 2


# estimate-diag's --matrix|--op pair is test_io_cli's test_takes_exactly_one_input
@pytest.mark.parametrize("command, flags, message", [
    ("extremal", ["--weights", "w.csv", "--weight-index", "0"],
     "argument --weight-index: not allowed with argument --weights"),
    ("extremal", [], "one of the arguments --weights --weight-index is required"),
    ("bounds", ["--entries", "0", "--weights", "w.csv"],
     "argument --weights: not allowed with argument --entries"),
    ("bounds", ["--weights", "w.csv", "--entries", "all"],
     "argument --entries: not allowed with argument --weights"),
], ids=["weights-weight-index", "neither-weights-nor-weight-index", "entries-weights",
        "weights-entries-all"])
def test_flag_pair_exits_1(tmp_path, capsys, monkeypatch, inputs, command, flags, message):
    """Each mutually exclusive pair is rejected with a line that names both
    flags, before any input is read or any output written."""
    system = ["--matrix", inputs["a.csv"], "--data", inputs["b.csv"], "--epsilon", "0.5"]
    rest = {"bounds": system, "extremal": system + ["--target", "upper", "--out", "x.csv"]}[command]
    argv = [command, *(inputs.get(f, f) for f in flags), *rest,
            "--json", str(tmp_path / "out.json")]
    monkeypatch.chdir(tmp_path)
    assert run_main(argv, capsys) == (1, "", f"error: {message}\n")
    assert sorted(os.listdir(tmp_path)) == sorted(inputs)


@pytest.mark.parametrize("index", ["2", "-1"])
def test_weight_index_out_of_range(tmp_path, capsys, inputs, index):
    """``extremal`` raises :class:`IndexOutOfRange` for a ``--weight-index``
    outside [0, N), which ``main`` maps to exit 1, writing no ``--out``."""
    out = tmp_path / "x.csv"
    argv = ["extremal", "--matrix", inputs["a.csv"], "--data", inputs["b.csv"], "--epsilon",
            "0.5", "--target", "upper", "--weight-index", index, "--out", str(out)]
    message = f"--weight-index {index} out of range for N=2"
    with pytest.raises(IndexOutOfRange) as exc:
        cli.cmd_extremal(cli.build_parser().parse_args(argv))
    assert str(exc.value) == message
    assert run_main(argv, capsys) == (1, "", f"error: {message}\n")
    assert not out.exists()


def test_nonfinite_value_target_exits_1_on_a_bounded_row(tmp_path, capsys, inputs):
    """``value:nan`` is an input error, found before the row's status is
    read: exit 1 where the row is bounded, not the 2 of a target that the
    status rejects, and no ``--out``."""
    out = tmp_path / "x.csv"
    argv = ["extremal", "--matrix", inputs["a.csv"], "--data", inputs["b.csv"], "--epsilon",
            "0.5", "--target", "value:nan", "--weight-index", "0", "--out", str(out)]
    assert run_main(argv, capsys) == (
        1, "", "error: arbitrary target value must be finite, got nan\n")
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--target", "value:abc", "must be lower|upper|value:<a>, got 'value:abc'"),
    ("--target", "middle", "must be lower|upper|value:<a>, got 'middle'"),
    ("--entries", "0,x", "must be 'all' or a comma list, got '0,x'"),
    ("--op", "cfg.json", "must look like sense:<cfg.json>, got 'cfg.json'"),
], ids=["target-value", "target-kind", "entries", "op"])
def test_malformed_flag_names_the_flag(capsys, inputs, flag, value, message):
    system = ["--matrix", inputs["a.csv"], "--data", inputs["b.csv"], "--epsilon", "0.5"]
    command = {"--target": ["extremal", *system, "--weight-index", "0", "--out", "x.csv"],
               "--entries": ["bounds", *system],
               "--op": ["estimate-diag", "--samples", "2"]}[flag]
    assert run_main(command + [flag, value], capsys) == (
        1, "", f"error: argument {flag}: {message}\n")


def test_manifest_echoes_flags_as_given(tmp_path, capsys, inputs):
    """A parsed flag is echoed in the manifest, and ``--target`` in the
    payload, as the text that was given."""
    system = ["--matrix", inputs["a.csv"], "--data", inputs["b.csv"], "--epsilon", "0.5"]
    manifest, payload = tmp_path / "m.json", tmp_path / "p.json"
    assert cli.main(["bounds", *system, "--entries", "1,0", "--manifest", str(manifest),
                     "--json", str(payload)]) == 0
    assert json.loads(manifest.read_text())["config"]["entries"] == "1,0"
    assert [r["index"] for r in json.loads(payload.read_text())["bounds"]] == [1, 0]
    mio.write_matrix_csv(inputs["a.csv"], [[1.0, 0.0]])
    mio.write_vector_csv(inputs["b.csv"], [1.0])
    assert cli.main(["extremal", *system, "--target", "value:7", "--weight-index", "1",
                     "--out", str(tmp_path / "x.csv"), "--manifest", str(manifest),
                     "--json", str(payload)]) == 0
    assert json.loads(payload.read_text())["target"] == "value:7"
    assert json.loads(manifest.read_text())["config"]["target"] == "value:7"
    assert capsys.readouterr().err == ""


ERROR_CLASSES = [c for c in EntryBoundsError.__subclasses__() if c.__module__ == errors.__name__]


def test_error_table_covers_errors_module():
    """Every error class of ``errors.py`` derives from ``EntryBoundsError``
    directly, so the table below walks them all."""
    defined = {c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, EntryBoundsError)}
    assert defined == {EntryBoundsError, *ERROR_CLASSES}


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_every_error_class_has_an_exit_code(monkeypatch, capsys, cls):
    """``main`` maps an infeasible set or target to 2, and every other
    package error to 1, with one ``error:`` line."""
    def raises(args):
        raise cls("what went wrong")

    monkeypatch.setattr(cli, "cmd_sense", raises)
    code = 2 if cls in (StatusMismatch, InfeasibleSystem) else 1
    assert run_main(["sense", "--config", "c.json", "--out", "o"], capsys) == (
        code, "", "error: what went wrong\n")
