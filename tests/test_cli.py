import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from noumenal import GATES, load_circuit, matrix_to_json, simulate_circuit
from noumenal.cli import main
from noumenal.reports import BLOCK_FLOATS


@pytest.fixture
def bell_file(tmp_path):
    payload = {
        "atoms": [{"id": 0, "dim": 2, "label": "A"}, {"id": 1, "dim": 2, "label": "B"}],
        "initial_state": "pure:|00>",
        "gates": [{"name": "H", "targets": [0]}, {"name": "CNOT", "targets": [0, 1]}],
        "track": [[0]],
    }
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--atoms", "2x2", "--trials", "5", "--seed", "7")
    assert code == 0
    assert "0 failed" in out


def test_verify_zero_trials_skips(capsys):
    code, out, _ = run_cli(capsys, "verify", "--atoms", "2x2", "--trials", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert all(law["status"] == "skipped" for law in payload["laws"])


def test_verify_self_test_bug_fails(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--atoms", "2x2", "--trials", "3", "--seed", "1", "--self-test-bug"
    )
    assert code == 1
    assert "fail" in out


def test_verify_json_is_byte_identical(capsys):
    argv = ("verify", "--atoms", "2x3", "--trials", "5", "--seed", "21", "--format", "json")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_demo_bell(capsys):
    code, out, _ = run_cli(capsys, "demo", "bell-incompleteness", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"]
    assert all(payload["findings"]["verdicts"].values())


def test_demo_no_signalling(capsys):
    code, out, _ = run_cli(
        capsys,
        "demo",
        "no-signalling",
        "--atoms",
        "2x2x2",
        "--bipartition",
        "0,2",
        "--trials",
        "25",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["findings"]["system_a"] == [0, 2]
    assert payload["findings"]["noumenal_max_residual"] <= 1e-9


def test_demo_no_signalling_zero_trials_is_skipped(capsys):
    argv = ("demo", "no-signalling", "--atoms", "2x2", "--trials", "0")
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is None
    assert payload["findings"]["noumenal_max_residual"] is None
    assert payload["findings"]["phenomenal_max_residual"] is None
    assert "0 trials checked nothing: skipped" in payload["summary"]
    code, out, _ = run_cli(capsys, *argv, "--format", "text")
    assert code == 0
    assert "0 trials checked nothing: skipped" in out
    assert "verdict: SKIPPED" in out and "PASS" not in out and "residual" not in out


def test_demo_unknown_name_is_usage_error(capsys):
    code = main(["demo", "unheard-of"])
    assert code == 2


def test_negative_trials_is_input_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--atoms", "2x2", "--trials", "-1")
    assert code == 2
    assert "trials" in err


def test_non_positive_tolerance_is_input_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--atoms", "2x2", "--tol", "0")
    assert code == 2
    assert "tol" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_non_finite_tolerance_is_input_error(capsys, tol):
    code, _, err = run_cli(capsys, "verify", "--atoms", "2x2", "--trials", "1", f"--tol={tol}")
    assert code == 2
    assert "tol" in err


@pytest.mark.parametrize(
    "argv, track",
    [
        (("simulate", "--track", "a"), None),
        (("demo", "no-signalling", "--bipartition", "x"), None),
        (("simulate",), 5),
        (("simulate",), [["x"]]),
        (("verify", "--atoms", "2x2", "--trials", "1", "--seed", "-1"), None),
        (("demo", "no-signalling", "--atoms", "2x2", "--trials", "1", "--seed", "-1"), None),
        (("verify", "--atoms", "2x2", "--trials", "3", "--law", "no_such_law", "--trial", "0"), None),
        (("verify", "--atoms", "2x2", "--trials", "3", "--law", "no_signalling", "--trial", "3"), None),
        (("verify", "--atoms", "2x2", "--trials", "3", "--law", "no_signalling", "--trial", "-1"), None),
        (("simulate", "--track", "0,0"), None),
        (("simulate",), [[0, 0]]),
        (("demo", "no-signalling", "--bipartition", "0,0"), None),
    ],
)
def test_malformed_atom_ids_are_input_errors(capsys, tmp_path, argv, track):
    if argv[0] == "simulate":
        path = tmp_path / "circuit.json"
        path.write_text(json.dumps({"atoms": [{"id": 0, "dim": 2}], "track": track}))
        argv = (*argv, "--file", str(path))
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


NON_PSD = matrix_to_json(np.diag([1.5, -0.5, 0.0, 0.0]))


@pytest.mark.parametrize(
    "field, value, reason",
    [
        ("gates", 5, "'gates' must be a list"),
        ("gates", "H", "'gates' must be a list"),
        ("gates", [5], "gate entry must be an object"),
        ("gates", [{"name": "H", "targets": "0"}], "gate 'targets' must be a list"),
        ("track", "01", "'track' must be a list"),
        ("track", ["0"], "'track' entry must be a list"),
        ("initial_state", NON_PSD, "eigenvalue -0.5"),
        ("gates", [{"name": "H", "targets": [0.7]}], "gate 'targets' must be a list of integer"),
        ("gates", [{"name": "H", "targets": [True]}], "gate 'targets' must be a list of integer"),
        ("atoms", [{"id": 0, "dim": 2.9}, {"id": 1, "dim": 2}], "integer 'id' and 'dim'"),
        ("atoms", [{"id": 0, "dim": 2}, {"id": True, "dim": 2}], "integer 'id' and 'dim'"),
        # 1e999 reads as inf, here and in json.loads; int(inf) raises OverflowError.
        ("atoms", [{"id": 0, "dim": 1e999}, {"id": 1, "dim": 2}], "integer 'id' and 'dim'"),
        ("gates", [{"matrix": [[["0", "0"], ["1", "0"]], [["1", "0"], ["0", "0"]]], "targets": [1]}],
         "malformed matrix payload"),
        ("gates", [{"matrix": [[[False, False], [True, False]], [[True, False], [False, False]]],
                    "targets": [1]}], "malformed matrix payload"),
        ("gates", [{"matrix": [[[0, 0], [10**400, 0]], [[1, 0], [0, 0]]], "targets": [1]}],
         "malformed matrix payload"),
        # Unicode digits pass str.isdigit(): "²" then fails int(), "١" reads as 1.
        ("initial_state", "pure:|0²>", "need one digit per atom"),
        ("initial_state", "pure:|0١>", "need one digit per atom"),
        # A label passes into the output as is: a bare NaN there is not JSON.
        ("atoms", [{"id": 0, "dim": 2, "label": float("nan")}, {"id": 1, "dim": 2}], "'label' must be a string"),
        ("atoms", [{"id": 0, "dim": 2, "label": 5}, {"id": 1, "dim": 2}], "'label' must be a string"),
        ("track", [[1], [0, 1, 0]], "atom id 0 is listed twice"),
        ("track", [[2]], "no atom with id 2"),
        ("track", [], "'track' is empty"),
        ("initial_state", "|00>", "must look like 'pure:|01>'"),
        ("initial_state", "pure:|02>", "digit 2 out of range"),
        ("gates", [{"name": "X", "targets": [-1]}], "gate target -1 is not an atom id"),
    ],
)
def test_malformed_circuit_files_are_input_errors(capsys, tmp_path, field, value, reason):
    payload = {"atoms": [{"id": 0, "dim": 2}, {"id": 1, "dim": 2}], field: value}
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(payload, default=np.ndarray.tolist))
    code, out, err = run_cli(capsys, "simulate", "--file", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert reason in err


def test_demo_bad_lattice_is_input_error(capsys):
    code, _, err = run_cli(capsys, "demo", "bell-incompleteness", "--atoms", "2x3")
    assert code == 2
    assert "two qubit atoms" in err
    code, out, err = run_cli(capsys, "demo", "no-signalling", "--atoms", "2x2x2x2x2x2", "--trials", "1")
    assert (code, out, err) == (2, "", "error: demo is limited to global dimension 32, got 64\n")


def test_simulate_bell_file(capsys, bell_file):
    code, out, _ = run_cli(capsys, "simulate", "--file", bell_file, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"]
    final = payload["steps"][-1]["tracked"][0]
    marginal = np.array(final["phenomenal"], dtype=float)
    assert abs(marginal[0][0][0] - 0.5) < 1e-9
    assert abs(marginal[1][1][0] - 0.5) < 1e-9


def test_simulate_track_override(capsys, bell_file):
    code, out, _ = run_cli(
        capsys, "simulate", "--file", bell_file, "--track", "1;0,1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    systems = [entry["system"] for entry in payload["steps"][0]["tracked"]]
    assert systems == [[1], [0, 1]]


def test_simulate_missing_file_is_input_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "simulate", "--file", str(tmp_path / "nope.json"))
    assert code == 2
    assert "error" in err


def test_simulate_malformed_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "simulate", "--file", str(path))
    assert code == 2


def test_simulate_rejects_oversized_lattice(capsys, tmp_path):
    payload = {"atoms": [{"id": i, "dim": 2} for i in range(13)]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, "simulate", "--file", str(path))
    assert code == 2
    assert "exceeds" in err


def test_simulate_explicit_matrix_gate(capsys, tmp_path):
    theta = np.pi / 5
    rotation = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex
    )
    payload = {
        "atoms": [{"id": 0, "dim": 2}, {"id": 1, "dim": 2}],
        "gates": [{"matrix": matrix_to_json(rotation), "targets": [1]}],
        "track": [[1]],
    }
    path = tmp_path / "rot.json"
    path.write_text(json.dumps(payload, default=np.ndarray.tolist))
    code, out, _ = run_cli(capsys, "simulate", "--file", str(path), "--format", "json")
    assert code == 0
    final = json.loads(out)["steps"][-1]["tracked"][0]
    marginal = np.array(final["phenomenal"], dtype=float)[..., 0]
    expected = rotation @ np.diag([1.0, 0.0]) @ rotation.conj().T
    assert np.abs(marginal - expected.real).max() < 1e-9


def test_simulate_json_is_json_dumps_of_the_record(capsys, bell_file):
    code, out, _ = run_cli(capsys, "simulate", "--file", bell_file, "--format", "json")
    assert code == 0
    record = simulate_circuit(load_circuit(bell_file))
    assert out == json.dumps(record, indent=2, default=np.ndarray.tolist) + "\n"


def test_simulate_json_of_six_qubits_is_json_dumps_of_the_record(capsys, tmp_path):
    payload = {
        "atoms": [{"id": i, "dim": 2, "label": f"q{i}"} for i in range(6)],
        "initial_state": "pure:|000000>",
        "gates": [
            {"matrix": matrix_to_json(GATES["T"] @ GATES["H"]).tolist(), "targets": [4]},
            {"name": "CNOT", "targets": [4, 1]},
            {"name": "H", "targets": [1]},
        ],
        "track": [[1]],
    }
    path = tmp_path / "six.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "simulate", "--file", str(path), "--format", "json")
    assert code == 0
    record = simulate_circuit(load_circuit(path))
    # Each grid holds several runs of several whole rows.
    entries = record["steps"][-1]["tracked"][0]["evolution"]["entries"]
    rows_per_run = BLOCK_FLOATS // entries[0, 0, 0].size
    assert entries.shape == (2, 2, 64, 64, 2) and 1 < rows_per_run < entries.shape[2]
    assert out == json.dumps(record, indent=2, default=np.ndarray.tolist) + "\n"


ids = (
    st.integers(-1, 2)
    | st.integers()
    | st.floats()
    | st.text("0a,", max_size=2)
    | st.booleans()
    | st.none()
)
field_values = (
    st.lists(st.lists(ids, max_size=3), max_size=3)
    | st.lists(ids, max_size=3)
    | ids
    | st.dictionaries(st.text("0a", max_size=2), ids, max_size=2)
)
gate_entries = (
    st.fixed_dictionaries({"name": st.sampled_from(["H", "CNOT", "Q"]), "targets": field_values})
    | st.fixed_dictionaries({"matrix": st.just(matrix_to_json(GATES["X"])), "targets": field_values})
    | field_values
)
pairs = st.lists(st.floats(), min_size=2, max_size=2)
diagonal_states = st.lists(st.floats(-1, 2), min_size=3, max_size=3).map(
    lambda head: matrix_to_json(np.diag([*head, 1.0 - sum(head)]))
)


def _with_off_diagonal(value: float) -> np.ndarray:
    matrix = np.diag([1.0, 0.0, 0.0, 0.0])
    matrix[0, 1] = matrix[1, 0] = value
    return matrix_to_json(matrix)


def _x_with(value) -> list:
    """The X gate's ``[re, im]`` nest with one entry replaced by ``value``."""
    nest = matrix_to_json(GATES["X"]).tolist()
    nest[0][1][0] = value
    return nest


HUGE = 10**400  # a JSON integer no float holds
gate_matrices = (
    st.integers(1, 4).map(lambda n: matrix_to_json(np.eye(n)))  # shape (n, n, 2)
    | st.lists(st.lists(st.lists(st.floats(-2, 2), max_size=3), max_size=3), max_size=3)
    | st.sampled_from([math.nan, math.inf, -math.inf, HUGE, "1", True]).map(_x_with)
    | st.floats(0, 2).map(lambda scale: matrix_to_json(scale * GATES["X"]))
    | st.lists(st.floats(-1, 1), min_size=8, max_size=8).map(lambda v: np.reshape(v, (2, 2, 2)))
    | field_values
)
atom_entries = (
    st.fixed_dictionaries(
        {"id": st.integers(0, 2) | ids, "dim": st.integers(-1, 3) | st.sampled_from([True, 2.0, 2.9, 1e999])}
    )
    | field_values
)
atoms = st.lists(atom_entries, max_size=3) | field_values
initial_states = (
    st.lists(st.lists(pairs, min_size=1, max_size=5), min_size=1, max_size=5)
    | diagonal_states
    | st.sampled_from([math.nan, math.inf, -math.inf]).map(_with_off_diagonal)
    | field_values
)


def _number_nest(value):
    """``(shape, leaves)`` of a rectangular nest of JSON numbers, else ``None``."""
    if type(value) in (int, float):
        return (), [value]
    if not isinstance(value, list) or not value:
        return None
    parts = [_number_nest(item) for item in value]
    if None in parts or len({shape for shape, _ in parts}) != 1:
        return None
    return (len(value), *parts[0][0]), [leaf for _, leaves in parts for leaf in leaves]


def _must_reject(field, value) -> bool:
    """Inputs that a correct parser always refuses with exit 2."""

    def not_ids(ids) -> bool:
        return not isinstance(ids, list) or any(type(i) is not int for i in ids)

    if isinstance(field, int):  # one gate's targets
        return not_ids(value)
    if field == "atoms":
        if not isinstance(value, list) or not value or any(not isinstance(entry, dict) for entry in value):
            return True
        if not_ids([entry.get(key) for entry in value for key in ("id", "dim")]):
            return True
        return sorted(entry["id"] for entry in value) != list(range(len(value))) or any(
            entry["dim"] < 2 for entry in value
        )
    if field == "matrix":  # the X gate's matrix, on a qubit
        nest = _number_nest(json.loads(json.dumps(value, default=np.ndarray.tolist)))
        if nest is None or nest[0] != (2, 2, 2) or any(abs(leaf) > 1e300 for leaf in nest[1]):
            return True
        pairs = np.array(nest[1], dtype=float).reshape(2, 2, 2)
        if not np.isfinite(pairs).all():
            return True
        matrix = pairs[..., 0] + 1j * pairs[..., 1]
        return bool(np.abs(matrix @ matrix.conj().T - np.eye(2)).max() > 1e-6)
    if value is None:  # the field's default
        return False
    if field == "track":  # an empty list would track, and so check, nothing
        return not isinstance(value, list) or not value or any(not_ids(ids) for ids in value)
    if field == "gates":
        return not isinstance(value, list) or any(
            not isinstance(entry, dict) or not_ids(entry.get("targets")) for entry in value
        )
    try:  # initial_state
        matrix = np.array(value, dtype=float)
    except (TypeError, ValueError):
        return False
    if matrix.shape != (4, 4, 2) or not np.isfinite(matrix).all():
        return True
    return bool(np.linalg.eigvalsh(matrix[..., 0] + 1j * matrix[..., 1]).min() < -1e-9)


@settings(max_examples=150, deadline=None)
@given(
    drawn=st.one_of(
        st.tuples(st.sampled_from(["track", 0, 1, 2]), field_values),
        st.tuples(st.just("gates"), st.lists(gate_entries, max_size=3) | field_values),
        st.tuples(st.just("initial_state"), initial_states),
        st.tuples(st.just("atoms"), atoms),
        st.tuples(st.just("matrix"), gate_matrices),
    )
)
@example(drawn=(0, [math.inf]))
@example(drawn=("track", [[math.inf]]))
@example(drawn=("gates", 5))
@example(drawn=("track", "01"))
@example(drawn=("track", []))
@example(drawn=("initial_state", NON_PSD))
@example(drawn=("initial_state", [[[0.0, math.inf]]]))
@example(drawn=(0, [0.7]))
@example(drawn=("atoms", [{"id": 0, "dim": 2.9}, {"id": 1, "dim": 2}]))
@example(drawn=("atoms", [{"id": 0, "dim": 2}, {"id": True, "dim": 2}]))
@example(drawn=("atoms", [{"id": 0, "dim": 1e999}, {"id": 1, "dim": 2}]))
@example(drawn=("matrix", matrix_to_json(np.eye(3))))
@example(drawn=("matrix", [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0]]]))
@example(drawn=("matrix", _x_with(1e999)))
@example(drawn=("matrix", matrix_to_json(2 * GATES["X"])))
@example(drawn=("matrix", _x_with("1")))
@example(drawn=("matrix", _x_with(HUGE)))
def test_malformed_circuit_fields_never_escape(tmp_path_factory, drawn):
    field, value = drawn
    payload = {
        "atoms": [{"id": 0, "dim": 2}, {"id": 1, "dim": 2}],
        "gates": [
            {"name": "H", "targets": [0]},
            {"name": "CNOT", "targets": [0, 1]},
            {"matrix": matrix_to_json(GATES["X"]), "targets": [1]},
        ],
        "track": [[0]],
    }
    if isinstance(field, int):
        payload["gates"][field]["targets"] = value
    elif field == "matrix":
        payload["gates"][2]["matrix"] = value
    else:
        payload[field] = value
    path = tmp_path_factory.mktemp("fuzz") / "circuit.json"
    path.write_text(json.dumps(payload, default=np.ndarray.tolist))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["simulate", "--file", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    if _must_reject(field, value):
        assert code == 2
