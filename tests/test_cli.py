import inspect
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

import resgeo
from resgeo.cli import _emit, build_parser, main
from resgeo.embed import read_coordinates
from resgeo.generators import random_class_q

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
    assert report["residuals"]["shifted_pinv"] < 1e-10


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


RERUN_CASES = (
    [("edge_file", c) for c in ("check", "kron", "resistance", "curvature",
                                "maxvar", "embed", "balance")]
    + [("signed_file", c) for c in ("check", "kron", "resistance",
                                    "curvature", "maxvar", "embed")]
)


@pytest.mark.parametrize("source, command", RERUN_CASES, ids=[
    command if source == "edge_file" else f"signed-{command}"
    for source, command in RERUN_CASES
])
def test_output_is_byte_identical(capsys, request, source, command):
    argv = [command, request.getfixturevalue(source)]
    if source == "signed_file":
        argv.append("--as-laplacian")
    if command == "kron":
        argv += ["--keep", "1,2,4"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


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
    "kkt": 2.2204460492503131e-16,
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
