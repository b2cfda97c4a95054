import inspect
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

import resgeo
from resgeo.cli import _emit, build_parser, load_graph, main
from resgeo.curvature import curvature_radius_sc
from resgeo.embed import read_coordinates
from resgeo.generators import random_class_q
from resgeo.graph import weight_balance
from resgeo.verify import _gth_censor
from test_curvature import spread_draw

SHOWCASE_EDGES = """\
# four-node showcase digraph
n 4
1 2 1
1 3 2
2 4 1
3 4 2
4 1 3
"""

PATH_ADJACENCY = """\
0,1,0
1,0,1
0,1,0
"""


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "graph.edges"
    path.write_text(SHOWCASE_EDGES)
    return str(path)


@pytest.fixture
def signed_file(tmp_path):
    q = random_class_q(4, np.random.default_rng(5), ensure_signed=True)
    path = tmp_path / "q.csv"
    path.write_text("\n".join(
        ",".join(format(v, ".17g") for v in row) for row in q.matrix
    ) + "\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_check_reports_structure(capsys, edge_file):
    code, report = run_cli(capsys, "check", edge_file)
    assert code == 0
    assert report["status"] == "ok"
    assert report["outputs"]["strongly_connected"] is True
    assert report["outputs"]["weight_balanced"] is True
    # The SVD cross-check of L^+ is the verify suite's, not this report's.
    assert report["residuals"] == {"row_sum_max": 0}


def test_check_on_unbalanced_and_disconnected_graphs(capsys, tmp_path):
    unbal = tmp_path / "unbal.csv"
    unbal.write_text("2,-2\n-1,1\n")
    code, report = run_cli(capsys, "check", str(unbal), "--as-laplacian")
    assert code == 0
    assert report["outputs"]["strongly_connected"] is True
    assert report["outputs"]["weight_balanced"] is False

    disc = tmp_path / "disc.csv"
    disc.write_text("0,0\n0,0\n")
    code, report = run_cli(capsys, "check", str(disc))
    assert code == 0
    assert report["outputs"]["strongly_connected"] is False


def test_kron_keeps_one_based_ids(capsys, edge_file):
    code, report = run_cli(capsys, "kron", edge_file, "--keep", "1,2,4")
    assert code == 0
    assert report["outputs"]["kept"] == [1, 2, 4]
    expected = [[3.0, -1.0, -2.0], [0.0, 1.0, -1.0], [-3.0, 0.0, 3.0]]
    assert np.abs(np.array(report["outputs"]["reduced"]) - expected).max() < 1e-9
    assert report["residuals"]["resistance_invariance"] < 1e-9


def test_resistance_on_adjacency_matrix(capsys, tmp_path):
    path = tmp_path / "path.csv"
    path.write_text(PATH_ADJACENCY)
    code, report = run_cli(capsys, "resistance", str(path))
    assert code == 0
    omega = np.array(report["outputs"]["omega"])
    expected = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
    assert np.abs(omega - expected).max() < 1e-9
    assert report["outputs"]["inertia"] == [1, 2, 0]
    assert report["outputs"]["metric_class"] == "resistance_metric"


def test_curvature_command(capsys, edge_file):
    code, report = run_cli(capsys, "curvature", edge_file)
    assert code == 0
    p = np.array(report["outputs"]["p"])
    assert np.abs(p - [0.0, 0.5, 0.5, 0.0]).max() < 1e-9
    assert abs(report["outputs"]["sigma2"] - 0.375) < 1e-12
    assert report["residuals"]["fiedler_bapat"] < 1e-8


def test_maxvar_command(capsys, edge_file):
    code, report = run_cli(capsys, "maxvar", edge_file)
    assert code == 0
    assert report["outputs"]["support"] == [2, 3]
    assert abs(report["outputs"]["value"] - 0.375) < 1e-9
    assert report["residuals"]["support_curvature"] < 1e-8
    assert report["residuals"]["radius_value"] < 1e-8


def test_embed_command_writes_coordinates(capsys, edge_file, tmp_path):
    out = tmp_path / "coords.csv"
    code, report = run_cli(capsys, "embed", edge_file, "--out", str(out))
    assert code == 0
    assert report["residuals"]["dihedral"] < 1e-9
    data = read_coordinates(out)
    assert np.abs(np.array(report["outputs"]["coordinates"])
                  - data["coordinates"]).max() == 0.0
    assert abs(report["outputs"]["circumradius"]
               - np.sqrt(0.375)) < 1e-12


def test_balance_command(capsys, tmp_path):
    path = tmp_path / "two.edges"
    path.write_text("1 2 2\n2 1 1\n")
    code, report = run_cli(capsys, "balance", str(path))
    assert code == 0
    m = np.array(report["outputs"]["m"])
    assert np.abs(m - [2.0 / 3.0, 4.0 / 3.0]).max() < 1e-9
    assert report["residuals"]["transform_vs_direct"] < 1e-9
    assert abs(report["outputs"]["sigma2"] - 1.0 / 6.0) < 1e-12
    assert abs(report["outputs"]["sigma2_balanced"] - 3.0 / 16.0) < 1e-12


def test_balance_command_on_spread_weights(capsys, tmp_path):
    # m spreads over ten decades on this draw; the balanced graph passes
    # the weight-balance check of every closed-form route it feeds.
    lap = spread_draw(100, 2, 33)
    src, dst = np.nonzero(lap.matrix < 0.0)
    path = tmp_path / "spread.edges"
    path.write_text("n 100\n" + "".join(
        f"{i + 1} {j + 1} {-lap.matrix[i, j]:.17g}\n" for i, j in zip(src, dst)))
    code, report = run_cli(capsys, "balance", str(path))
    assert code == 0, report["error"]
    assert np.array_equal(report["outputs"]["m"], weight_balance(lap).m)


def test_resistance_command_on_spread_weights(capsys, tmp_path):
    # The former route, the SVD L_s^+ of the balanced graph scaled
    # row-wise by m, reported Omega[40 -> 28] = 4.99e9 with status ok.
    lap = spread_draw(40, 3, 28)
    src, dst = np.nonzero(lap.matrix < 0.0)
    path = tmp_path / "spread.edges"
    path.write_text("n 40\n" + "".join(
        f"{i + 1} {j + 1} {float(-lap.matrix[i, j])!r}\n"
        for i, j in zip(src, dst)))
    code, report = run_cli(capsys, "resistance", str(path))
    assert code == 0, report["error"]
    gth = 1.0 / _gth_censor(lap, [39, 27])[0, 1]  # about 1.90872e17
    assert abs(report["outputs"]["omega"][39][27] / gth - 1.0) <= 1e-12


def test_curvature_of_an_unbalanced_graph_is_the_gated_solve(capsys, tmp_path):
    path = tmp_path / "unbalanced.edges"
    path.write_text("1 2 2\n2 3 1\n3 1 3\n1 3 0.5\n")
    code, report = run_cli(capsys, "curvature", str(path))
    assert code == 0
    cr = curvature_radius_sc(load_graph(str(path)))
    assert report["outputs"]["p"] == cr.p.tolist()
    assert report["outputs"]["sigma2"] == cr.sigma2
    assert report["outputs"]["zeta"] is None
    assert report["residuals"] == {}


def test_balance_refuses_a_signed_laplacian(capsys, signed_file):
    code, report = run_cli(capsys, "balance", signed_file, "--as-laplacian")
    assert code == 1
    assert report["error"] == {
        "type": "ValidationError",
        "message": "balance applies to directed Laplacians"}


@pytest.mark.parametrize("name, text, line, message", [
    ("g.edges", "n 3\nn 3\n1 2 1\n", 2, "malformed node-count header"),
    ("g.edges", "n 3 4\n1 2 1\n", 1, "malformed node-count header"),
    ("g.edges", "n three\n1 2 1\n", 1, "bad node count 'three'"),
    ("g.edges", "n 1\n1 1 1\n", None, "resistance geometry needs"),
    ("g.edges", "1 2 1\n2 one 1\n", 2, "unparseable edge '2 one 1'"),
    ("g.edges", "# two nodes\nn 2\n", None, "no edges found"),
    ("g.edges", "1 2 inf\n2 1 1\n", None, "laplacian contains non-finite"),
    ("g.csv", "0,1\n1,zero\n", 2, "unparseable row '1,zero'"),
    ("g.csv", "0,1,1\n1,0,1\n", None, "matrix rows must form a square"),
    ("g.csv", "0,1\n1\n", None, "matrix rows must form a square"),
    ("g.csv", "# comments only\n\n", None, "empty input"),
    ("g.csv", "1,1\n1,0\n", None, "adjacency diagonal must be zero"),
    ("g.csv", "0,nan\n1,0\n", None, "laplacian contains non-finite"),
], ids=["duplicate_header", "long_header", "bad_count", "one_node",
        "bad_edge", "header_only", "inf_weight", "bad_row", "not_square",
        "ragged", "comments_only", "adjacency_diagonal", "nan_entry"])
def test_input_errors_name_the_file_and_line(capsys, tmp_path, name, text,
                                             line, message):
    path = tmp_path / name
    path.write_text(text)
    code, report = run_cli(capsys, "check", str(path))
    assert (code, report["status"]) == (1, "fail")
    assert report["error"]["type"] == "ValidationError"
    where = str(path) if line is None else f"{path}:{line}"
    assert report["error"]["message"].startswith(f"{where}: {message}")


def test_signed_laplacian_input(capsys, signed_file):
    code, report = run_cli(capsys, "check", signed_file, "--as-laplacian")
    assert code == 0
    assert report["outputs"]["input_kind"] == "class_q"
    assert report["outputs"]["class_q"]["ok"] is True

    code, report = run_cli(capsys, "resistance", signed_file, "--as-laplacian")
    assert code == 0
    assert report["outputs"]["metric_class"] == "strict_negative_type"

    code, report = run_cli(capsys, "maxvar", signed_file, "--as-laplacian")
    assert code == 0
    assert report["residuals"]["kkt"] < 1e-9


@pytest.mark.parametrize("text, error", [
    ("2,-2\n-1,1\n", "ValidationError"),
    ("0,0\n0,0\n", "StructureError"),
], ids=["unbalanced", "disconnected"])
def test_maxvar_needs_a_symmetric_resistance_matrix(capsys, tmp_path,
                                                    text, error):
    # The library's own refusal, from the resistance matrix of the input.
    path = tmp_path / "graph.csv"
    path.write_text(text)
    code, report = run_cli(capsys, "maxvar", str(path), "--as-laplacian")
    assert code == 1
    assert report["error"]["type"] == error


def test_csv_of_neither_class_names_both_failures(capsys, tmp_path):
    path = tmp_path / "neither.csv"
    path.write_text("1,1,-2\n-1,2,-1\n0,-1,1\n")
    code, report = run_cli(capsys, "check", str(path), "--as-laplacian")
    assert code == 1
    message = report["error"]["message"]
    assert "not a directed Laplacian (off-diagonal entry (0, 1)" in message
    assert "not a valid signed Laplacian: asymmetric" in message


def test_verify_command(capsys):
    code, report = run_cli(capsys, "verify", "--cases", "2", "--n-max", "6")
    assert code == 0
    props = report["outputs"]["properties"]
    assert len(props) >= 20
    assert all(p["passed"] for p in props)


def test_verify_zero_cases(capsys):
    code, report = run_cli(capsys, "verify", "--cases", "0")
    assert code == 0
    assert report["status"] == "ok"


def test_missing_file_is_validation_error(capsys):
    code, report = run_cli(capsys, "check", "/no/such/file")
    assert code == 1
    assert report["status"] == "fail"
    assert "cannot read" in report["error"]["message"]


def test_malformed_edge_line_names_the_line(capsys, tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("1 2 1\n1 2\n")
    code, report = run_cli(capsys, "resistance", str(path))
    assert code == 1
    assert ":2:" in report["error"]["message"]


def test_zero_based_ids_rejected(capsys, tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("0 1 1\n")
    code, report = run_cli(capsys, "check", str(path))
    assert code == 1
    assert "1-based" in report["error"]["message"]


@pytest.mark.parametrize("text, message", [
    ("# header too small for node 5\n\nn 3\n1 2 1.0\n1 5 1.0\n",
     "5: endpoints (1, 5) outside [1, 3]"),
    ("2 2 1.0\n1 2 1.0\n", "1: self-loop at node 2"),
    ("1 2 1.0\n\n2 1 -0.5\n", "3: weight -0.5 must be positive"),
], ids=["range", "self_loop", "weight"])
def test_edge_errors_name_the_line_and_one_based_ids(capsys, tmp_path,
                                                     text, message):
    path = tmp_path / "bad.edges"
    path.write_text(text)
    code, report = run_cli(capsys, "check", str(path))
    assert code == 1
    assert report["error"]["message"] == f"{path}:{message}"


def test_negative_adjacency_rejected(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,-1\n-1,0\n")
    code, report = run_cli(capsys, "check", str(path))
    assert code == 1


def test_not_strongly_connected_resistance_fails(capsys, tmp_path):
    path = tmp_path / "dag.edges"
    path.write_text("1 2 1\n1 3 1\n2 3 1\n")
    code, report = run_cli(capsys, "resistance", str(path))
    assert code == 1
    assert "strong" in report["error"]["message"]


def test_bad_keep_rejected(capsys, edge_file):
    code, report = run_cli(capsys, "kron", edge_file, "--keep", "1")
    assert code == 1
    code, report = run_cli(capsys, "kron", edge_file, "--keep", "1,9")
    assert code == 1


def test_keep_must_be_integers(capsys, edge_file):
    code, report = run_cli(capsys, "kron", edge_file, "--keep", "1,two")
    assert (code, report["status"]) == (1, "fail")
    assert report["error"] == {
        "type": "ValidationError",
        "message": "--keep must be a comma-separated list: '1,two'"}


RERUN_CASES = (
    [("edge_file", c) for c in ("check", "kron", "resistance", "curvature",
                                "maxvar", "embed", "balance")]
    + [("signed_file", c) for c in ("check", "kron", "resistance",
                                    "curvature", "maxvar", "embed")]
)


RERUN_IDS = [command if source == "edge_file" else f"signed-{command}"
             for source, command in RERUN_CASES]


def _rerun_argv(request, source, command):
    argv = [command, request.getfixturevalue(source)]
    if source == "signed_file":
        argv.append("--as-laplacian")
    if command == "kron":
        argv += ["--keep", "1,2,4"]
    return argv


@pytest.mark.parametrize("source, command", RERUN_CASES, ids=RERUN_IDS)
def test_output_is_byte_identical(capsys, request, source, command):
    argv = _rerun_argv(request, source, command)
    assert main(argv) == 0
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


#: The parsed report of every ``RERUN_CASES`` call, keyed by its test id,
#: as recorded before the subcommands shared one loading and reporting
#: path; the echoed input path is stored as ``<input>``.
RECORDED_REPORTS = json.loads(
    (Path(__file__).resolve().parent / "cli_reports.json").read_text())


def _numbers(value):
    if isinstance(value, dict):
        return [x for item in value.values() for x in _numbers(item)]
    if isinstance(value, list):
        return [x for item in value for x in _numbers(item)]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [abs(value)]
    return []


def _assert_close(got, want, tol, where):
    """Same keys in the same order, same non-numbers, numbers within tol."""
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            _assert_close(got[key], want[key], tol, f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (a, b) in enumerate(zip(got, want)):
            _assert_close(a, b, tol, f"{where}[{k}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        # The writer prints an integral float without a point, so an int
        # and a float may stand for the same real.
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert abs(got - want) <= tol, (where, got, want)
    else:
        assert type(got) is type(want) and got == want, where


@pytest.mark.parametrize("source, command", RERUN_CASES, ids=RERUN_IDS)
def test_report_matches_the_recorded_one(capsys, request, source, command):
    # Outputs agree within 1e-12 of the report's largest number; the
    # residuals are roundoff, so only their keys and order are held.
    argv = _rerun_argv(request, source, command)
    code, report = run_cli(capsys, *argv)
    assert code == 0
    assert report["inputs"]["input"] == argv[1]
    report["inputs"]["input"] = "<input>"
    want = RECORDED_REPORTS[request.node.callspec.id]
    assert list(report) == list(want)
    for key in ("command", "status", "inputs"):
        _assert_close(report[key], want[key], 0.0, key)
    assert list(report["residuals"]) == list(want["residuals"])
    tol = 1e-12 * max(_numbers(want["outputs"]))
    _assert_close(report["outputs"], want["outputs"], tol, "outputs")


MAXVAR_GOLDEN_TEXT = """\
{
  "command": "maxvar",
  "status": "ok",
  "inputs": {
    "input": "%s",
    "as_laplacian": false
  },
  "outputs": {
    "f": [0, 0.5, 0.5, 0],
    "support": [2, 3],
    "value": 0.375,
    "method": "iterative"
  },
  "residuals": {
    "kkt": 0,
    "support_curvature": 0,
    "radius_value": 0
  }
}
"""


def test_maxvar_golden_text(capsys, edge_file):
    # Whole-subcommand bytes on the showcase graph, solver included.
    assert main(["maxvar", edge_file]) == 0
    assert capsys.readouterr().out == MAXVAR_GOLDEN_TEXT % edge_file


def test_tol_is_not_an_option(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["maxvar", "graph.edges", "--tol", "1e-6"])
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_no_public_callable_takes_a_tolerance():
    for name in resgeo.__all__:
        obj = getattr(resgeo, name)
        if not callable(obj) or (inspect.isclass(obj)
                                 and issubclass(obj, BaseException)):
            continue
        params = inspect.signature(obj).parameters
        assert not {"tol", "rank_tol", "cond_limit"} & set(params), name


def test_readme_command_lines_parse():
    # Every documented example parses, and together they cover every
    # subcommand; a flag dropped from the parser fails here.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    commands = [shlex.split(line, comments=True)
                for line in block.split("```", 1)[0].splitlines()
                if line.strip()]
    parser = build_parser()
    for argv in commands:
        assert argv[0] == "resgeo"
        parser.parse_args(argv[1:])
    assert {argv[1] for argv in commands} == {
        "check", "kron", "resistance", "curvature", "maxvar", "embed",
        "balance", "verify"}


def test_reports_echo_inputs(capsys, edge_file):
    _, report = run_cli(capsys, "kron", edge_file, "--keep", "1,2,4")
    assert report["inputs"]["keep"] == "1,2,4"
    assert report["inputs"]["input"] == edge_file
    assert report["command"] == "kron"


GOLDEN_REPORT = {
    "command": "golden",
    "nested": {"empty_dict": {}, "empty_list": [], "yes": True, "no": False,
               "none": None, "deeper": {"tuple": (1, 2)}},
    "ints": [1, -2, np.int64(3)],
    "quoted": 'say "hi" \\ done',
    "reals": [-0.0, 0.1, 1e16, 2.5e-300, 5e-324, float("nan"), float("inf"),
              float("-inf")],
    "scalars": {"f64": np.float64(-0.0), "f32": np.float32(0.5),
                "bool": np.bool_(True), "i32": np.int32(7),
                "nan": np.float64("nan")},
    "matrix": np.array([[1.0, -0.0], [1.0 / 3.0, np.nan]]),
    "mixed": [1, 2.5, None, "x", True],
    "table": [[1, 2], [3.0, float("-inf")], []],
}

GOLDEN_TEXT = """\
{
  "command": "golden",
  "nested": {
    "empty_dict": {},
    "empty_list": [],
    "yes": true,
    "no": false,
    "none": null,
    "deeper": {
      "tuple": [1, 2]
    }
  },
  "ints": [1, -2, 3],
  "quoted": "say \\"hi\\" \\\\ done",
  "reals": [0, 0.10000000000000001, 10000000000000000, 2.5e-300, \
4.9406564584124654e-324, null, null, null],
  "scalars": {
    "f64": 0,
    "f32": 0.5,
    "bool": true,
    "i32": 7,
    "nan": null
  },
  "matrix": [
    [1, 0],
    [0.33333333333333331, null]
  ],
  "mixed": [1, 2.5, null, "x", true],
  "table": [
    [1, 2],
    [3, null],
    []
  ]
}
"""


def test_emit_golden_text(capsys):
    # Fixed report, no linear algebra: the exact bytes of the JSON writer.
    _emit(GOLDEN_REPORT)
    assert capsys.readouterr().out == GOLDEN_TEXT
