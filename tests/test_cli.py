import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stablesq
from stablesq.cli import main
from stablesq.gram import singular_face_dim


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_table_text_with_diff(capsys):
    code, out, _ = run(
        capsys, "table", "--n", "3", "--d", "2..3", "--k", "1..2", "--diff-paper"
    )
    assert code == 0
    assert "all 4 compared cells match" in out


def test_table_json(capsys):
    code, out, _ = run(
        capsys, "table", "--n", "3", "--d", "2", "--k", "1..6", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    cells = {(c["n"], c["d"], c["k"]): c["value"] for c in payload["cells"]}
    assert cells[(3, 2, 1)] == 3
    assert cells[(3, 2, 6)] is None  # untabulated, k >= dim


def test_table_csv_and_threads(capsys):
    code, out, _ = run(
        capsys,
        "table",
        "--n", "3", "--d", "2..3", "--k", "1..2",
        "--format", "csv",
        "--threads", "2",
        "--diff-paper",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,d,k,value,published,match"
    assert "3,2,1,3,3,True" in lines


def test_m_command(capsys):
    code, out, _ = run(
        capsys, "m", "--n", "3", "--d", "2", "--k", "1", "--witnesses"
    )
    assert code == 0
    assert "max codim U^2 = 3" in out
    assert "x1^2" in out


def test_m_json(capsys):
    code, out, _ = run(
        capsys, "m", "--n", "4", "--d", "2..3", "--k", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert [r["value"] for r in payload] == [8, 8]


def test_m0_command(capsys):
    code, out, _ = run(capsys, "m0", "--n", "3", "--d", "2", "--k", "2")
    assert code == 0
    assert "max codim U^2 = 6" in out
    assert "bpf-monomial" in out


def test_enumerate_command(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "2", "--d", "2", "--k", "1")
    assert code == 0
    assert "1 subspaces" in out
    assert "x1^2" in out


def test_enumerate_csv_order_flag(capsys):
    code, out, _ = run(
        capsys,
        "enumerate",
        "--n", "3", "--d", "2", "--k", "2",
        "--format", "csv",
        "--order", "grlex",
    )
    assert code == 0
    assert out.splitlines()[0] == "n,d,k,complement"


def test_square_monomial_file(tmp_path, capsys):
    f = tmp_path / "u.json"
    f.write_text(json.dumps({"n": 2, "d": 2, "complement": [[2, 0]]}))
    code, out, _ = run(capsys, "square", str(f))
    assert code == 0
    assert "codim = 2" in out


def test_square_text_file(tmp_path, capsys):
    f = tmp_path / "u.txt"
    f.write_text("2 2 1\n2 0\n")
    code, out, _ = run(capsys, "square", str(f), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "monomial"
    assert payload["codim"] == 2
    # descending lex: the x2-bearing monomial beats the pure x1 power
    assert payload["complement"] == ["x1^3*x2", "x1^4"]


def test_square_rational_file(tmp_path, capsys):
    f = tmp_path / "u.json"
    rows = [["1", "0", "0", "0", "0", "1"]]  # x1^2 + x3^2 direction
    f.write_text(json.dumps({"n": 3, "d": 2, "order": "lex", "rows": rows}))
    code, out, _ = run(capsys, "square", str(f), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "rational"
    assert payload["dim"] == 1


def test_hilbert_command(tmp_path, capsys):
    f = tmp_path / "u.json"
    f.write_text(json.dumps({"n": 3, "d": 2, "complement": [[1, 1, 0], [1, 0, 1]]}))
    code, out, _ = run(capsys, "hilbert", str(f), "--max-degree", "4")
    assert code == 0
    assert "h = (1, 3, 2, 0, 0)" in out


def test_gram_command(capsys):
    code, out, _ = run(
        capsys, "gram", "--n", "5..6", "--d", "4", "--k", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,d,k,nonsingular_bound,singular_dim,gap"
    assert lines[1].startswith("5,4,2,")
    assert lines[1].endswith(",2")  # gap 2n - 8 at n = 5


def test_gram_gap_below_k(capsys):
    # n < k: the singular dimension comes from the search, not the closed form
    code, out, _ = run(
        capsys, "gram", "--n", "2", "--d", "5", "--k", "3", "--format", "json"
    )
    assert code == 0
    (row,) = json.loads(out)
    assert (row["n"], row["d"], row["k"]) == (2, 5, 3)
    assert row["gap"] == row["singular_dim"] - row["nonsingular_bound"]
    assert row["singular_dim"] == singular_face_dim(2, 5, 3)


def test_check_command(capsys):
    code, out, _ = run(capsys, "check", "--suite", "gram")
    assert code == 0
    assert "PASS face-bound-values" in out
    assert "3/3 checks passed" in out


def test_check_multiple_suites_comma(capsys):
    code, out, _ = run(capsys, "check", "--suite", "gram,base")
    assert code == 0
    assert "8/8 checks passed" in out


def test_conjecture_command(capsys):
    code, out, _ = run(
        capsys, "conjecture", "--n", "3", "--d", "3", "--k", "1", "--trials", "2"
    )
    assert code == 0
    assert "restriction-power-free-n3-d3-k1" in out


def test_invalid_range_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["table", "--n", "3..x", "--d", "2", "--k", "1"])
    assert err.value.code == 2


def test_unknown_suite_exits_2(capsys):
    assert main(["check", "--suite", "nope"]) == 2


def test_budget_exit_1(capsys):
    assert main(["m", "--n", "3", "--d", "3", "--k", "3", "--budget", "1"]) == 1


def test_enumerate_default_budget_exit_1(monkeypatch, capsys):
    monkeypatch.setenv("STABLESQ_BUDGET", "5")
    assert main(["enumerate", "--n", "4", "--d", "4", "--k", "6"]) == 1
    assert "budget exceeded" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, lines_read",
    [
        # about 200 KB of JSON, several pipe buffers: the reader leaves
        # after one line while the command is still writing
        (["enumerate", "--n", "3..5", "--d", "3..7", "--k", "1..8", "--format", "json"], 1),
        # one line, still buffered when the command ends: the reader has
        # left before anything is written
        (["m", "--n", "3", "--d", "2", "--k", "1"], 0),
    ],
)
def test_closed_pipe_exits_1_without_traceback(argv, lines_read):
    src = str(Path(stablesq.__file__).resolve().parents[1])
    # stdout block-buffered, as it is by default on a pipe
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    proc = subprocess.Popen(
        [sys.executable, "-m", "stablesq.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    for _ in range(lines_read):
        assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == ""


def test_missing_file_exits_2(capsys):
    assert main(["square", "/nonexistent/u.json"]) == 2


def test_bad_json_subspace_exits_2(tmp_path, capsys):
    f = tmp_path / "u.json"
    f.write_text(json.dumps({"n": 2, "d": 2}))
    assert main(["square", str(f)]) == 2


def test_conjecture_no_cells_exits_2(capsys):
    assert main(["conjecture", "--n", "2", "--d", "2", "--k", "2"]) == 2


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse exits on a bad flag
        return exc.code


@pytest.mark.parametrize(
    "name, content, args",
    [
        ("u.txt", "3 2 1\n1 x 1\n", ()),
        ("u.txt", "3 two 1\n1 1 0\n", ()),
        ("u.json", {"n": 3, "d": 2, "rows": [["1/0", "0", "0", "0", "0", "1"]]}, ()),
        ("u.json", {"n": 3, "d": 2, "rows": [["x", "0", "0", "0", "0", "1"]]}, ()),
        ("u.json", {"n": "x", "d": 2, "complement": []}, ()),
        ("u.txt", "2 2 1\n2 0\n", ("--budget", "0")),
        ("u.txt", "2 2 1\n2 0\n", ("--budget", "-3")),
        (None, None, ("m", "--n", "3", "--d", "2", "--k", "1", "--budget", "0")),
        (None, None, ("check", "--suite", "random", "--trials", "0")),
        (None, None, ("check", "--trials", "-1")),
        (None, None, ("check", "--budget", "5")),
        (None, None, ("conjecture", "--n", "3", "--d", "3", "--k", "1", "--trials", "0")),
        (None, None, ("table", "--n", "3", "--d", "2", "--k", "1", "--threads", "0")),
        (None, None, ("table", "--n", "3", "--d", "2", "--k", "1", "--threads", "-4")),
        ("u.json", {"n": 2, "d": 2, "complement": [[2, 0], [2, 0]]}, ()),
        ("u.txt", "2 2 2\n2 0\n2 0\n", ()),
        ("u.json", '{"n": 2, "d": 2, "rows": [[1e999, 0, 0]]}', ()),
        ("u.json", {"n": 2, "d": 2, "order": 5, "rows": [[1, 0, 0]]}, ()),
        ("u.json", {"n": 2, "d": 2, "order": None, "rows": [[1, 0, 0]]}, ()),
        ("u.json", {"n": 2, "d": 2.7, "complement": [[2, 0]]}, ()),
        ("u.json", {"n": True, "d": 2, "complement": [[2, 0]]}, ()),
        ("u.json", {"n": 2, "d": 1, "complement": [[True, False]]}, ()),
        ("u.json", {"n": 2, "d": 2.0, "rows": [[1, 0, 0]]}, ()),
        ("u.json", {"n": 2, "d": 2, "rows": [["1e3000000", 1, 0]]}, ()),
        ("u.json", {"n": 2, "d": 2, "rows": [["-2.5E+999999999", 1, 0]]}, ()),
        (None, None, ("m", "--n", "3", "--d", "2", "--k", "1", "--format", "csv", "--witnesses")),
        (None, None, ("m0", "--n", "3", "--d", "3", "--k", "1", "--format", "csv", "--witnesses")),
        ("u.json", {"n": 2, "d": 1, "rows": [[1, 0]]}, ("--budget", "5")),
    ],
)
def test_invalid_input_exits_2(tmp_path, capsys, name, content, args):
    if name is None:
        argv = list(args)
    else:
        f = tmp_path / name
        f.write_text(content if isinstance(content, str) else json.dumps(content))
        argv = ["square", str(f), *args]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# fuzz of the subspace file loader: any record or text is squared or
# refused with exit 2, never a traceback

sizes = st.one_of(st.integers(-1, 4), st.sampled_from([2.0, 2.5, True, "2", None]))
coefficients = st.one_of(
    st.integers(-5, 5),
    st.sampled_from(["1/2", "-3", "1/0", "x", "", 0.5, 1e999, float("nan"), None, True, [1]]),
)


def sized_lists(elements):
    return st.lists(st.lists(elements, max_size=7), max_size=6)


records = st.fixed_dictionaries(
    {"n": sizes, "d": sizes},
    optional={
        "rows": st.one_of(sized_lists(coefficients), st.sampled_from([5, "ab", None])),
        "complement": st.one_of(sized_lists(st.integers(-1, 4)), st.sampled_from([[5], ["ab"]])),
        "order": st.sampled_from(["lex", "grlex", "block:1", "block:x", "rev", 5, None]),
    },
).map(json.dumps)

texts = st.lists(
    st.lists(st.one_of(st.integers(-1, 4), st.sampled_from(["x", "1.5", "-"])), max_size=5).map(
        lambda tokens: " ".join(map(str, tokens))
    ),
    max_size=6,
).map("\n".join)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(records, texts))
def test_load_subspace_fuzz_exits_0_or_2(tmp_path, capsys, content):
    f = tmp_path / "u.txt"
    f.write_text(content)
    assert _exit_code(["square", str(f)]) in (0, 2)
    assert "Traceback" not in capsys.readouterr().err
