import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import stablesq
from stablesq import cli
from stablesq.cli import main
from stablesq.gram import singular_face_dim
from stablesq.monomial import monomial_to_text


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


@pytest.mark.parametrize(
    "threads, k, cores, workers",
    [
        ("100000", "1", 8, None),  # one cell: no pool
        ("100000", "1..3", 8, 3),
        ("100000", "1..9", 8, 8),
        ("4", "1..9", 8, 4),
        ("100000", "1..9", None, None),  # unknown core count: one
    ],
)
def test_table_threads_cap_the_pool(capsys, monkeypatch, threads, k, cores, workers):
    # a fake pool records its size and maps in process, so no worker
    # process starts whatever --threads asks for
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    argv = ("table", "--n", "3", "--d", "3", "--k", k, "--diff-paper")
    serial = run(capsys, *argv)
    assert run(capsys, *argv, "--threads", threads) == serial
    assert serial[0] == 0
    assert sizes == ([] if workers is None else [workers])


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


def test_enumerate_json_follows_order(capsys):
    argv = ["enumerate", "--n", "3", "--d", "2", "--k", "3"]

    def json_order(*flags):
        _, out, _ = run(capsys, *argv, *flags, "--format", "json")
        return [U["complement"] for U in json.loads(out)]

    _, out, _ = run(capsys, *argv, "--order", "block:1", "--format", "csv")
    csv_order = [row[3] for row in csv.reader(io.StringIO(out))][1:]
    block = json_order("--order", "block:1")
    assert [" ".join(monomial_to_text(tuple(M)) for M in comp) for comp in block] == csv_order
    assert block != json_order()  # block:1 and lex disagree on this grid


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


def quadric(n: int, i: int, j: int) -> list[int]:
    """The exponents of x_(i+1) * x_(j+1) in n variables."""
    return [(v == i) + (v == j) for v in range(n)]


def test_square_of_one_quadric_in_a_hundred_variables(tmp_path, capsys):
    # the walk lists only the T with at most 2 divisors, about 10^4 of the
    # 4,421,275 monomials of degree 4
    f = tmp_path / "u.json"
    f.write_text(json.dumps({"n": 100, "d": 2, "complement": [quadric(100, 0, 1)]}))
    code, out, _ = run(capsys, "square", str(f))
    assert code == 0
    assert "codim = 2" in out
    assert "missing monomials: x1*x2^3, x1^3*x2" in out


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
    monkeypatch.setattr("stablesq.errors.DEFAULT_BUDGET", 5)
    assert main(["enumerate", "--n", "4", "--d", "4", "--k", "6"]) == 1
    assert "budget exceeded" in capsys.readouterr().err


def test_m0_default_budget_exit_1(monkeypatch, capsys):
    # C(16, 3) = 560 subsets of the non-powers, over a default budget of 10
    monkeypatch.setattr("stablesq.errors.DEFAULT_BUDGET", 10)
    assert main(["m0", "--n", "4", "--d", "3", "--k", "3"]) == 1
    assert "budget exceeded" in capsys.readouterr().err


def test_table_diff_with_no_reference_cell_exits_1(capsys):
    code, out, err = run(capsys, "table", "--n", "7", "--d", "2", "--k", "1", "--diff-paper")
    assert code == 1
    assert out.endswith("no cell of the grid is in the reference table\n")
    assert "Traceback" not in err
    code, out, _ = run(
        capsys, "table", "--n", "7", "--d", "2", "--k", "1", "--diff-paper", "--format", "json"
    )
    assert code == 1 and json.loads(out)["compared"] == 0
    # without --diff-paper nothing is compared, and nothing is claimed
    assert run(capsys, "table", "--n", "7", "--d", "2", "--k", "1")[0] == 0


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


HUGE_INPUTS = {
    "u.txt": "3 2 1\n1 1 0\n",
    # span(x1^2): the quotient never dies, and its degree i lists 2i + 1
    # monomials outside the ideal
    "x1sq.txt": "3 2 5\n0 2 0\n0 0 2\n1 1 0\n1 0 1\n0 1 1\n",
    "huge.json": json.dumps({"n": 2, "d": 200000000, "complement": [[200000000, 0]]}),
    # JSON keys are strings, so no object row is ever a valid record
    "rows.json": json.dumps({"n": 11, "d": 11, "rows": [{"x": 1}]}),
    # five power-free quadrics in 100 variables: the sumset would list all
    # of A_4, and the walk every T of degree 4 with at most 10 divisors
    "wide.json": json.dumps(
        {"n": 100, "d": 2, "complement": [quadric(100, i, i + 1) for i in range(0, 10, 2)]}
    ),
}


@pytest.mark.parametrize(
    "argv",
    [
        ["hilbert", "u.txt", "--max-degree", "100000000"],
        ["m", "--n", "2", "--d", "200000000", "--k", "1"],
        ["m0", "--n", "2", "--d", "200000000", "--k", "1"],
        # C(19999, 10000) has over 6,000 digits, too many to print
        ["m0", "--n", "2", "--d", "20000", "--k", "10000"],
        ["square", "huge.json"],
        ["square", "huge.json", "--budget", "10"],
        ["square", "rows.json"],
        # a huge n is refused before a tuple of n exponents is built
        ["m", "--n", "99999999999999999999", "--d", "2", "--k", "1"],
        ["m", "--n", "1000000000", "--d", "2", "--k", "1"],
        ["table", "--n", "1000000000", "--d", "2", "--k", "1"],
        # a range is counted before it is listed, and a grid of more cells
        # than the budget is refused before any cell runs
        ["gram", "--n", "5..1000000000", "--d", "4", "--k", "2"],
        # a basis longer than the budget is refused before it is built
        ["conjecture", "--n", "1000000000", "--d", "3", "--k", "1"],
        # so is an enumeration whose root is a tuple of n exponents
        ["enumerate", "--n", "1000000000", "--d", "2", "--k", "1"],
        ["m", "--n", "3..1000000", "--d", "2", "--k", "1", "--budget", "1"],
        # a basis of n * dim A_d exponents over the budget is refused before
        # it is listed
        ["m0", "--n", "1500", "--d", "2", "--k", "1"],
        ["conjecture", "--n", "2000", "--d", "2", "--k", "1"],
        # so is a square whose listing would pass that many exponents
        ["square", "wide.json"],
        # the balanced owners of x_n^d, n tuples of n, are counted first
        ["m", "--n", "20000", "--d", "2", "--k", "1"],
        ["m", "--n", "300000", "--d", "300000", "--k", "1"],
        # dim A_d is compared with k by a capped count, not by math.comb
        ["table", "--n", "1000000", "--d", "1000000", "--k", "1"],
        # C(P, k) spans of dim A_d coefficients each, for P power-free monomials
        ["conjecture", "--n", "120", "--d", "2", "--k", "1"],
        ["conjecture", "--n", "200", "--d", "2", "--k", "1"],
        # face bounds longer than Python prints
        ["gram", "--n", "5000", "--d", "5000", "--k", "2"],
        ["gram", "--n", "1000000", "--d", "1000000", "--k", "2"],
        # a Hilbert function's work is bounded over all its degrees
        # together, not only in each
        ["hilbert", "x1sq.txt", "--max-degree", "100000"],
        # a trial count is a size like any other
        ["check", "--suite", "random", "--trials", "1000000000"],
        # every draw for the exceptional shapes is rejected, so each runs
        # all its trials
        ["conjecture", "--n", "3", "--d", "3", "--k", "2", "--trials", "100000000"],
        # a trial count under the budget is weighed by the work of a trial:
        # the squares a random trial may build, the spans a conjecture try
        # restricts
        ["check", "--suite", "random", "--trials", "10000000"],
        ["conjecture", "--n", "3", "--d", "3", "--k", "2", "--trials", "10000000"],
    ],
)
def test_huge_numbers_are_refused_quickly_without_traceback(argv, tmp_path):
    for name, text in HUGE_INPUTS.items():
        (tmp_path / name).write_text(text)
    start = time.monotonic()
    proc = _run_capped(argv, tmp_path)
    assert time.monotonic() - start < 10
    assert proc.returncode in (1, 2), proc.stderr
    assert "Traceback" not in proc.stderr


def _run_capped(argv, cwd):
    """Run the command line in a child that caps its own address space at
    1 GiB, so a list sized by the input fails there and not on the host."""
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from stablesq.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(stablesq.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-c", child, *argv],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=60,
    )


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
        ("u.json", {"n": 2, "d": 1, "rows": [[0.1, 1]]}, ()),
        ("u.json", {"n": 2, "d": 1, "rows": [[True, 1]]}, ()),
        # --order sorts the missing monomials of a monomial square only
        ("u.json", {"n": 3, "d": 2, "rows": [["1", "0", "0", "0", "0", "1"]]},
         ("--order", "block:5")),
        ("u.json", {"n": 2, "d": 1, "rows": [[1, 0]]}, ("--order", "lex")),
        ("u.json", {"n": 2, "d": 1, "rows": [[1, 0, 0], [True, 1]]}, ()),
        ("u.json", {"n": 2, "d": 1, "rows": [[1, 1], [1.5, 0]]}, ()),
        ("u.json", {"n": 0, "d": 1, "rows": [[0.5]]}, ()),
        # --suite values that name no suite would run no check
        (None, None, ("check", "--suite", ",")),
        (None, None, ("check", "--suite", " ")),
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


@pytest.mark.parametrize(
    "content",
    [
        {"n": 3, "d": 2, "complement": [[1, 1, 0]]},
        {"n": 3, "d": 2, "rows": [["1", "0", "0", "0", "0", "1"]]},
    ],
)
def test_hilbert_refuses_a_negative_max_degree(tmp_path, capsys, content):
    # the refusal is the library's, for monomial and rational subspaces alike
    f = tmp_path / "u.json"
    f.write_text(json.dumps(content))
    assert _exit_code(["hilbert", str(f), "--max-degree", "-1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "error:" in out.err
    assert "Traceback" not in out.err


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


# fuzz of the whole command line: every subcommand, with huge integers,
# reversed and huge ranges, and subspace files that are not JSON objects.
# Each example starts a child process, so the examples are few and fixed.
# A range end is small or past the default budget, so a grid either runs
# a few cells or is refused; a grid of up to the budget's 10 million
# cells would run that many.

HUGE = ["1000000000", "99999999999999999999"]
small = st.integers(-1, 4).map(str)
ends = st.one_of(small, st.sampled_from(HUGE))
ranges = st.one_of(
    small, st.sampled_from(["1000000", *HUGE]), st.builds("{}..{}".format, ends, ends)
)
grid_flags = st.sampled_from(
    [[], ["--budget", "1"], ["--format", "json"], ["--witnesses"], ["--diff-paper"],
     ["--threads", "2"], ["--order", "grlex"], ["--seed", HUGE[1]], ["--trials", "2"]]
)
grids = st.builds(
    lambda cmd, n, d, k, flags: [cmd, "--n", n, "--d", d, "--k", k, *flags],
    st.sampled_from(["table", "m", "m0", "enumerate", "gram", "conjecture"]),
    ranges, ranges, ranges, grid_flags,
)
huge_sizes = st.sampled_from([1000000, 10**9, 10**20])
huge_records = st.fixed_dictionaries(
    {"n": st.one_of(huge_sizes, st.integers(1, 3)), "d": st.one_of(huge_sizes, st.integers(0, 3))},
    optional={"rows": st.just([]), "complement": st.just([])},
).map(json.dumps)
not_objects = st.sampled_from(["[1, 2]", "5", '"x"', "null", "true", "[]", "[{}]"])
files = st.builds(
    lambda cmd, content, flags: (content, [cmd, "u.txt", *flags]),
    st.sampled_from(["square", "hilbert"]),
    st.one_of(records, texts, huge_records, not_objects),
    st.sampled_from(
        [[], ["--budget", "2"], ["--order", "grlex"], ["--format", "csv"],
         ["--max-degree", "6"], ["--max-degree", HUGE[0]], ["--max-degree", "-1"]]
    ),
)
checks = st.builds(
    lambda suite, seed: ["check", "--suite", suite, "--seed", seed, "--trials", "1"],
    st.sampled_from(["base", "gram", "conjecture", "nope", ","]),
    st.one_of(small, st.sampled_from(HUGE)),
)


@settings(
    max_examples=50, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.one_of(grids.map(lambda argv: ("", argv)), files, checks.map(lambda argv: ("", argv))))
# each of these hung in math.comb, or ended in a traceback
@example(("", ["gram", "--n", "1", "--d", "5", "--k", "3"]))
@example(('{"n": 1000000, "d": 1000000, "complement": []}', ["square", "u.txt"]))
@example(('{"n": 1000000, "d": 1000000, "complement": []}', ["hilbert", "u.txt"]))
@example(('{"n": 1000000000, "d": 1000000, "rows": []}', ["square", "u.txt"]))
@example(('{"n": 100, "d": 1000000, "complement": []}', ["hilbert", "u.txt"]))
def test_command_line_fuzz_exits_0_1_or_2(tmp_path, case):
    content, argv = case
    (tmp_path / "u.txt").write_text(content)
    proc = _run_capped(argv, tmp_path)
    assert proc.returncode in (0, 1, 2), (argv, proc.stderr)
    assert "Traceback" not in proc.stderr, (argv, proc.stderr)


# ---------------------------------------------------------------------------
# pinned output: the exit code and the sha256 of stdout of a fixed list of
# commands, error paths included.  A change to what any of them prints
# fails here; re-pin only for an intended change of the output.

PIN_FILES = {
    "mono.json": json.dumps({"n": 3, "d": 3, "complement": [[3, 0, 0], [2, 1, 0], [1, 1, 1]]}),
    "mono.txt": "3 2 2\n1 1 0\n0 1 1\n",
    "rational.json": json.dumps({
        "n": 3,
        "d": 2,
        "order": "lex",
        "rows": [["1", "0", "0", "0", "0", "1"], ["0", "1/2", "0", "-1", "0", "0"]],
    }),
}
# one list of rows read under three orders.  Within one degree grlex lists
# the columns as lex does, and block:1 in three variables as lex does
# with the variables reversed, so both print what the rows print under
# lex; block:2 lists them in another order, and prints another square and
# Hilbert function
ORDER_ROWS = [
    [0, 0, 0, 0, 0, 1, 0, 0, "1/2", 0], [-1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, "1/2", 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
    [-1, 0, 0, 0, 0, 0, 0, 0, 0, 0], [0, 0, -1, 0, "1/2", 0, 0, 0, 0, 0],
    [0, 0, "1/2", 0, 0, 0, 0, 0, 0, 0],
]
ORDER_FILES = {"grlex.json": "grlex", "block1.json": "block:1", "block2.json": "block:2"}
PIN_FILES.update(
    (name, json.dumps({"n": 3, "d": 3, "order": order, "rows": ORDER_ROWS}))
    for name, order in ORDER_FILES.items()
)

PINNED = {
    "table --n 3 --d 2..3 --k 1..6 --diff-paper": (
        0, "9f9e6948534913705f25ba0dff9c6895b7adf51d37107612acbf3cdb211de72b"
    ),
    "table --n 3 --d 2..3 --k 1..6 --diff-paper --format csv": (
        0, "578e239611dfd517d416853d6c8827cd6cc5b4f4feaedb94a3b20ee96b10356a"
    ),
    "table --n 3 --d 2..3 --k 1..6 --diff-paper --format json": (
        0, "457d5256570f20f218f34a86b8c0c283136bd81d98149c67dfaddc0d322887fb"
    ),
    "table --n 3..4 --d 2 --k 1..3 --format csv": (
        0, "fb5e1bb6a7053262a8162b6553687a3dac50b23e0e4fed09a796d3fd8a57fb92"
    ),
    "m --n 3..4 --d 2..3 --k 1..2": (
        0, "f9e88bc56200ddfbd20b754d2628cb3b7f81fcd28a0d859d8d5f49edb540c45d"
    ),
    "m --n 3..4 --d 2..3 --k 1..2 --format csv": (
        0, "44ce8a288018d9f0c70a95047080e836cb1d09f03bbd8c5d47f321d59c8bbfd4"
    ),
    "m --n 3..4 --d 2..3 --k 1..2 --format json": (
        0, "412080d0761c29f958ceded20e854699478b55b8c1669f9b86a1ad87c694c428"
    ),
    "m --n 3..4 --d 2..3 --k 1..2 --witnesses": (
        0, "edd0720adef2db5227fa06b54c339c7ee1ec10f190d8e218e4a3abc33628a28e"
    ),
    "m --n 3..4 --d 2..3 --k 1..2 --witnesses --format json": (
        0, "174ad634e947174a149c855c745026cd0d9641b7087b68c19e4f1498c8c5a366"
    ),
    "m0 --n 3..4 --d 2..3 --k 1..2": (
        0, "1cc19531854a892ec5fbc15cafe46d74b472ee77fb0755bcff594fd1fc669ba9"
    ),
    "m0 --n 3..4 --d 2..3 --k 1..2 --format csv": (
        0, "e8c335533a3ae6d8cd845a6575f05760991a38e6db9a4477b9b35f41605b0853"
    ),
    "m0 --n 3..4 --d 2..3 --k 1..2 --format json": (
        0, "55a46506d346b35c14f9de3cbf2e779136151c7a939200adafea7d2b79ed38d5"
    ),
    "m0 --n 3..4 --d 2..3 --k 1..2 --witnesses": (
        0, "72632d71b78dad6388d8b2e558331740ec1de72c927a02e8df7c67c359416aa6"
    ),
    "m0 --n 3..4 --d 2..3 --k 1..2 --witnesses --format json": (
        0, "1a7de6541bd3e957df85bf1f4f7471a23088edb80cbd66d07542df5986946d19"
    ),
    "enumerate --n 3 --d 2..3 --k 1..3": (
        0, "b84434f23bc4c1d80c4c7068c65e5b63345a47506a2364a1264dbc6287ebb026"
    ),
    "enumerate --n 3 --d 2..3 --k 1..3 --format csv": (
        0, "cb5a4b6e66d63709c81c9dd694887e7e00da45cb9e2bc600762b3147c2778d99"
    ),
    "enumerate --n 3 --d 2..3 --k 1..3 --format json": (
        0, "f4e41dd4ca15a161dabaeb5164877e6f2e1ecb923cdf831451ac38d6e3e72d58"
    ),
    "enumerate --n 3 --d 2..3 --k 1..3 --order lex --format json": (
        0, "f4e41dd4ca15a161dabaeb5164877e6f2e1ecb923cdf831451ac38d6e3e72d58"
    ),
    "enumerate --n 3 --d 2..3 --k 1..3 --order grlex": (
        0, "b84434f23bc4c1d80c4c7068c65e5b63345a47506a2364a1264dbc6287ebb026"
    ),
    "enumerate --n 3 --d 2..3 --k 1..3 --order grlex --format csv": (
        0, "cb5a4b6e66d63709c81c9dd694887e7e00da45cb9e2bc600762b3147c2778d99"
    ),
    "enumerate --n 3 --d 2..3 --k 1..3 --order grlex --format json": (
        0, "f4e41dd4ca15a161dabaeb5164877e6f2e1ecb923cdf831451ac38d6e3e72d58"
    ),
    "square mono.json": (
        0, "2e2167d1864d8fcfdf31c7a5597934a2be5337523ef0369d990659cb9ec157e3"
    ),
    "square mono.json --format csv": (
        0, "c025463ebf3cdbe751e80b4df83f8dc596946793d27d4ce4cf13f368e3cf09ef"
    ),
    "square mono.json --format json": (
        0, "27820af63cfd7070b48903322a852fe801330c617a935f5b3d942f0be956b151"
    ),
    "square mono.txt --order grlex": (
        0, "54e37dc23f2e4907adcc8a0a83cd2000e4b457a0aa6f66873acf2375e5cc16f4"
    ),
    "square mono.txt --format csv": (
        0, "91c72ebd0c1916287be894824f4c2964dc20c68561a6c9a7543b0a437b9cea47"
    ),
    "square mono.txt --format json": (
        0, "456e99a8761ec80b964a5bcd1432cd80f2157196d7517775a439784bba19dcbb"
    ),
    "square rational.json": (
        0, "6035dfd4dce701558ce5f26fc21aef5a5c4344b08b7ffef5e1528cef03e41664"
    ),
    "square rational.json --format csv": (
        0, "8182ebde3ed8a7e697a09c0d4559246f61d039601d427f14f6a51e601271062f"
    ),
    "square rational.json --format json": (
        0, "c2ee3fcde9e54a1c38543222641e55e215ca13e5259d1d16207327c8f1edcbfb"
    ),
    "hilbert mono.json": (
        0, "d058ce2350ecfdffb4bafb197ea7a7e2211ab954cf515e6dafd5c286ac804c58"
    ),
    "hilbert mono.json --format csv": (
        0, "b6ca05da56fbc24e59a7a0f895b914927f191e772329811c7a788614c6f71ee6"
    ),
    "hilbert mono.json --format json": (
        0, "fc8ce5013ea705230e38bc1b6cea8e0c150500fdd86127c1300b4958d1d95416"
    ),
    "hilbert mono.txt --max-degree 6": (
        0, "6646ba4d83966a2b589c2e39b32860875937876ba67cbfadb34d995057145bf3"
    ),
    "hilbert mono.txt --format csv": (
        0, "317e1989dfb2c8a573dad4bd2985666f36a72b2a6e282a3d814d3bff5701d6b3"
    ),
    "hilbert mono.txt --format json": (
        0, "ca4a9216c70ca47be927a72878d033045d7f5d93a493676a39579f561f7ed852"
    ),
    "hilbert rational.json": (
        0, "48ef372552a4bca16485958b486b81b9961279d4cd72c71b4584338ee763d0dc"
    ),
    "hilbert rational.json --format csv": (
        0, "3ab9896e05ebc94fecdd4266ef5d97ce53b603e0fecfb30ae07e6a813fffe6d0"
    ),
    "hilbert rational.json --format json": (
        0, "335a0d5312467da136964aac79de747710bcaad31c8f2c570393c9fcbad4fe89"
    ),
    "square grlex.json": (
        0, "fa0721b23927145930c69b5778bfd56fa452dfd5b66a32f2d340aa6893ca06cb"
    ),
    "square grlex.json --format json": (
        0, "3fb41e92c5fc78c84cd9a01f3f02342a50a69e9b13a2c00758502a09ed42ef09"
    ),
    "hilbert grlex.json": (
        0, "9a75534ec07e3950efecfcfc9457711fb0c59416970ab1ac29a57cbcc5458e1d"
    ),
    "hilbert grlex.json --format json": (
        0, "fbb4c5e63114fb1aef74cc021b72d310134482aeadb8424fe62b7f2cfd832b62"
    ),
    "square block1.json": (
        0, "fa0721b23927145930c69b5778bfd56fa452dfd5b66a32f2d340aa6893ca06cb"
    ),
    "square block1.json --format json": (
        0, "3fb41e92c5fc78c84cd9a01f3f02342a50a69e9b13a2c00758502a09ed42ef09"
    ),
    "hilbert block1.json": (
        0, "9a75534ec07e3950efecfcfc9457711fb0c59416970ab1ac29a57cbcc5458e1d"
    ),
    "hilbert block1.json --format json": (
        0, "fbb4c5e63114fb1aef74cc021b72d310134482aeadb8424fe62b7f2cfd832b62"
    ),
    "square block2.json": (
        0, "a24e4f007fc621de2874e607e337ce09bcb6fda2849bd7cdcb1023fc57712070"
    ),
    "square block2.json --format json": (
        0, "cd345a05e0edc228836a7651329037a4884b11219124afce29ca5f308be97ffc"
    ),
    "hilbert block2.json": (
        0, "070abbf2dfb4b0d7eb87bc476387434e68c5463f4fb8212cf2ffd1b8bdda9b87"
    ),
    "hilbert block2.json --format json": (
        0, "f238f29400205f8d6b4abd0dbbf24b7fe391f8e6d253cadf4ac959d5b47272f3"
    ),
    "gram --n 2..6 --d 4..5 --k 2..3": (
        0, "567e3c48032b79e8a241c08858da55d76878bce18aa578577267527302c63329"
    ),
    "gram --n 2..6 --d 4..5 --k 2..3 --format csv": (
        0, "0d67b3dc86563f7de6a737a1f7d6c1b8493b384fe051703f58ddd539c035355b"
    ),
    "gram --n 2..6 --d 4..5 --k 2..3 --format json": (
        0, "dac24a1013c91abdf0805fe4d3dfee7e0ef2d06f9837c1f7054f99f974a7acc4"
    ),
    "check --suite gram": (
        0, "4a6041db60e0314e07332f203006e0bd74ce407b9e74f4da4228952af6aa8c6d"
    ),
    "conjecture --n 3 --d 3..4 --k 1..2": (
        0, "a405f81e8c437fb4978c140a2bcfb1f37e8d7fe04ab9ec615307bc9b0cda0c1d"
    ),
    # error paths: what is printed before the error stays too
    "m --n 3 --d 2 --k 1 --witnesses --format csv": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    ),
    "m --n 3 --d 3 --k 3 --budget 1": (
        1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    ),
    "enumerate --n 3 --d 2 --k 2 --order block:3": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    ),
    # the order is checked against n before the CSV header is printed
    "enumerate --n 3 --d 2 --k 2 --order block:3 --format csv": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    ),
}


@pytest.mark.parametrize("command", list(PINNED))
def test_output_pinned(tmp_path, capsys, command):
    for name, content in PIN_FILES.items():
        (tmp_path / name).write_text(content)
    argv = [str(tmp_path / a) if a in PIN_FILES else a for a in command.split()]
    code = _exit_code(argv)
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == PINNED[command]
