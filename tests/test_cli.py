"""Command-line interface: verbs, text formats, and exit codes.

Most tests drive ``run(argv)`` in process and inspect captured output.
Two run the command in a separate process and check its real stdout and
exit status: ``test_installed_entry_point`` runs the ``tabrec`` target
declared under ``[project.scripts]`` in ``pyproject.toml`` the way the
installed console script does, so it needs no install; and
``test_console_script_on_path`` runs the ``tabrec`` script itself, and
is skipped unless one is on PATH (after ``pip install -e .``).
"""

import hashlib
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tabrec
from tabrec import cli
from tabrec.cli import run
from tabrec.core import StandardTableau, enumerate_syt_all
from tabrec.reconstruct import Invalid
from tabrec.taquin import minor_multiset, minor_set


def invoke(capsys, *argv):
    status = run(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def feed(monkeypatch, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))


def test_enumerate_all_of_size_three(capsys):
    status, out, err = invoke(capsys, "enumerate", "--n", "3")
    assert status == 0
    assert err == ""
    assert out == "1 2 3\n1 2 / 3\n1 3 / 2\n1 / 2 / 3\n"


def test_enumerate_one_shape(capsys):
    status, out, _ = invoke(capsys, "enumerate", "--n", "5", "--shape", "3,2")
    assert status == 0
    assert out == (
        "1 2 3 / 4 5\n1 2 4 / 3 5\n1 2 5 / 3 4\n1 3 4 / 2 5\n1 3 5 / 2 4\n"
    )


def test_enumerate_shape_size_mismatch(capsys):
    status, out, err = invoke(capsys, "enumerate", "--n", "4", "--shape", "3,2")
    assert status == 1
    assert out == ""
    assert err.startswith("error:")


def test_enumerate_rejects_non_partition_shape(capsys):
    status, _, err = invoke(capsys, "enumerate", "--n", "5", "--shape", "2,3")
    assert status == 2
    assert "not a comma-separated partition" in err


def test_delete_plain_and_with_trace(capsys):
    status, out, _ = invoke(
        capsys, "delete", "--tableau", "1 2 7 8 / 3 5 9 / 4 / 6", "--entry", "1"
    )
    assert status == 0
    assert out == "1 4 6 7 / 2 8 / 3 / 5\n"
    status, out, _ = invoke(
        capsys,
        "delete",
        "--tableau",
        "1 2 7 8 / 3 5 9 / 4 / 6",
        "--entry",
        "1",
        "--trace",
    )
    assert status == 0
    assert out == "1 4 6 7 / 2 8 / 3 / 5\npath (1,1) (1,2) (2,2) (2,3)\n"


def test_delete_entry_out_of_range(capsys):
    status, _, err = invoke(capsys, "delete", "--tableau", "1 2", "--entry", "5")
    assert status == 1
    assert err.startswith("error:")


def test_minors_set_and_multiset(capsys):
    status, out, _ = invoke(capsys, "minors", "--tableau", "1 2 4 / 3 5")
    assert status == 0
    assert out == (
        "deck k=1 n=5 size=4\n"
        "1 2 / 3 4\n"
        "1 3 / 2 4\n"
        "1 2 3 / 4\n"
        "1 2 4 / 3\n"
    )
    status, out, _ = invoke(
        capsys, "minors", "--tableau", "1 2 / 3", "--multiset"
    )
    assert status == 0
    assert out == "deck k=1 n=3 size=2\n1 / 2 x2\n1 2 x1\n"


def test_minors_bad_tableau(capsys):
    status, _, err = invoke(capsys, "minors", "--tableau", "2 1")
    assert status == 1
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["minors", "--k", "2", "--multiset"],
        ["minors"],
        ["delete", "--entry", "2", "--trace"],
    ],
)
@pytest.mark.parametrize(
    "tableau", ["1 2 7 8 / 3 5 9 / 4 / 6", "2 1", "1 2 / 3", "x"]
)
def test_tableau_dash_reads_stdin_as_the_argument_reads(
    capsys, monkeypatch, argv, tableau
):
    direct = invoke(capsys, *argv, "--tableau", tableau)
    # stdin may carry the text over several lines, with a newline at the end
    feed(monkeypatch, tableau.replace(" / ", "\n/ ") + "\n")
    assert invoke(capsys, *argv, "--tableau", "-") == direct
    assert direct[0] == (1 if tableau in ("2 1", "x") else 0)


def test_reconstruct_unique(capsys, monkeypatch):
    deck = minor_set(StandardTableau.from_text("1 3 5 / 2 4"), 1)
    feed(monkeypatch, deck.to_text())
    status, out, _ = invoke(capsys, "reconstruct")
    assert status == 0
    assert out == "unique 1 3 5 / 2 4\n"


def test_reconstruct_ambiguous_and_expect_unique(capsys, monkeypatch):
    deck = minor_set(StandardTableau.from_text("1 2 / 3 4"), 1)
    feed(monkeypatch, deck.to_text())
    status, out, _ = invoke(capsys, "reconstruct")
    assert status == 0
    assert out == "ambiguous 2\n1 2 / 3 4\n1 3 / 2 4\n"
    feed(monkeypatch, deck.to_text())
    status, out, _ = invoke(capsys, "reconstruct", "--expect-unique")
    assert status == 1
    assert out == "ambiguous 2\n1 2 / 3 4\n1 3 / 2 4\n"


def test_reconstruct_multiset_splits_set_ambiguity(capsys, monkeypatch):
    cards = minor_multiset(StandardTableau.from_text("1 2 / 3"), 1)
    feed(monkeypatch, cards.to_text())
    status, out, _ = invoke(capsys, "reconstruct", "--multiset")
    assert status == 0
    assert out == "unique 1 2 / 3\n"


@pytest.mark.parametrize("end", ["\r", " ", "\t "])
def test_reconstruct_reads_lines_with_trailing_whitespace(capsys, monkeypatch, end):
    # CRLF line ends, or spaces after a member, in both modes; the empty
    # tableau's card " x1" keeps its leading space
    t = StandardTableau.from_text("1 3 4 / 2 5")
    for deck, extra in ((minor_set(t), []), (minor_multiset(t), ["--multiset"])):
        feed(monkeypatch, deck.to_text().replace("\n", end + "\n") + end + "\n")
        assert invoke(capsys, "reconstruct", *extra) == (0, "unique 1 3 4 / 2 5\n", "")
    feed(monkeypatch, f"deck k=1 n=1 size=1{end}\n x1{end}\n")
    assert invoke(capsys, "reconstruct", "--multiset") == (0, "unique 1\n", "")


def test_reconstruct_invalid_deck_text(capsys, monkeypatch):
    feed(monkeypatch, "not a deck\n")
    status, _, err = invoke(capsys, "reconstruct")
    assert status == 1
    assert err.startswith("error:")
    # a member line repeated, though merged they would be a genuine deck
    feed(
        monkeypatch,
        "deck k=1 n=5 size=4\n1 3 / 2 4 x1\n1 2 4 / 3 x1\n1 2 4 / 3 x1\n"
        "1 3 4 / 2 x2\n",
    )
    assert invoke(capsys, "reconstruct", "--multiset", "--expect-unique") == (
        1, "", "error: duplicate members in deck text\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["reconstruct"],
        ["minors", "--tableau", "-"],
        ["delete", "--tableau", "-", "--entry", "1"],
    ],
)
def test_stdin_that_does_not_decode_is_an_error(capsys, monkeypatch, argv):
    # a strict UTF-8 stdin, as under a locale such as en_US.UTF-8
    raw = io.BytesIO(b"deck k=1 n=5 size=1\n\xff\n")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(raw, encoding="utf-8"))
    assert invoke(capsys, *argv) == (
        1, "", "error: 'utf-8' codec can't decode byte 0xff in position 20: "
        "invalid start byte\n"
    )


def test_reconstruct_minors_round_trip(capsys, monkeypatch):
    for n in range(5, 9):
        for t in list(enumerate_syt_all(n))[::7]:
            feed(monkeypatch, minor_set(t, 1).to_text())
            status, out, _ = invoke(capsys, "reconstruct", "--expect-unique")
            assert status == 0
            assert out == f"unique {t.to_text()}\n"


def test_census_text_and_json(capsys):
    status, out, _ = invoke(capsys, "census", "--n", "5")
    assert status == 0
    assert out == "census n=5 k=1 mode=set classes=0\n"
    status, out, _ = invoke(capsys, "census", "--n", "4", "--multiset", "--json")
    assert status == 0
    assert json.loads(out) == {
        "n": 4,
        "k": 1,
        "mode": "multiset",
        "total": 10,
        "classes": [["1 2 / 3 4", "1 3 / 2 4"]],
    }


def test_census_jobs_agree(capsys):
    outputs = set()
    for jobs in ("1", "2"):
        status, out, _ = invoke(capsys, "census", "--n", "6", "--jobs", jobs)
        assert status == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_hbound_plain_and_exact(capsys):
    status, out, _ = invoke(capsys, "hbound", "--n", "6")
    assert status == 0
    assert out == "hbound n=6 common=4 claimed=4 exact=none\n"
    status, out, _ = invoke(capsys, "hbound", "--n", "6", "--exact")
    assert status == 0
    assert out == "hbound n=6 common=4 claimed=4 exact=5\n"


def test_hbound_exact_below_five_lists_collisions(capsys):
    status, out, _ = invoke(capsys, "hbound", "--n", "4", "--exact")
    assert status == 0
    lines = out.splitlines()
    assert lines[0].startswith("hbound n=4 ")
    assert lines[0].endswith("exact=none")
    assert lines[1:] == ["class size=2", "1 2 / 3 4", "1 3 / 2 4"]


def test_verify_runs_clean_suites(capsys):
    status, out, err = invoke(
        capsys, "verify", "--suite", "lemma3.6", "--max-n", "6"
    )
    assert status == 0
    assert out == "verify suite=lemma3.6 max-n=6 violations=0\n"
    assert err == ""
    status, out, _ = invoke(
        capsys, "verify", "--suite", "theorem3.7", "--max-n", "6"
    )
    assert status == 0
    assert out == "verify suite=theorem3.7 max-n=6 violations=0\n"


def test_verify_exits_one_with_violations_on_stderr(capsys, monkeypatch):
    # the package re-exports the census function under the module's name
    census_module = importlib.import_module("tabrec.census")
    monkeypatch.setattr(
        census_module, "reconstruct_from_set", lambda deck: Invalid("wrong")
    )
    status, out, err = invoke(
        capsys, "verify", "--suite", "theorem3.7", "--max-n", "5"
    )
    assert status == 1
    assert out == "verify suite=theorem3.7 max-n=5 violations=26\n"
    lines = err.splitlines()
    assert len(lines) == 26
    assert lines[0] == "round trip of '1 2 3 4 5': invalid wrong"


def test_verify_rejects_unknown_suite(capsys):
    status, _, err = invoke(capsys, "verify", "--suite", "nope", "--max-n", "5")
    assert status == 2
    assert "invalid choice" in err


def test_usage_errors_and_help(capsys):
    assert invoke(capsys, )[0] == 2
    assert invoke(capsys, "frobnicate")[0] == 2
    assert invoke(capsys, "--help")[0] == 0
    assert invoke(capsys, "census")[0] == 2


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

CENSUS_ARGS = ["census", "--n", "4", "--multiset"]

CENSUS_N4_MULTISET = (
    "census n=4 k=1 mode=multiset classes=1\n"
    "class size=2\n"
    "1 2 / 3 4\n"
    "1 3 / 2 4\n"
)


def child_env():
    """The environment with the tested ``tabrec`` first on PYTHONPATH."""
    env = dict(os.environ)
    paths = [str(Path(tabrec.__file__).resolve().parent.parent)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def test_installed_entry_point():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["tabrec"]
    module, func = target.split(":")
    # The same two steps as the wrapper pip generates for the script.
    wrapper = (
        f"import sys; from {module} import {func}; "
        f"sys.argv[0] = 'tabrec'; sys.exit({func}())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, *CENSUS_ARGS],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == CENSUS_N4_MULTISET


@pytest.mark.skipif(
    shutil.which("tabrec") is None, reason="tabrec console script not on PATH"
)
def test_console_script_on_path():
    proc = subprocess.run(
        ["tabrec", *CENSUS_ARGS],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == CENSUS_N4_MULTISET


def test_serial_run_never_imports_multiprocessing():
    code = (
        "import sys; from tabrec.cli import run; "
        "status = run(['census', '--n', '4']); "
        "print(status, 'multiprocessing' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_census_rejects_jobs_below_one(capsys):
    for jobs in ("0", "-3", "two"):
        status, out, err = invoke(capsys, "census", "--n", "4", "--jobs", jobs)
        assert status == 2
        assert out == ""
        assert "--jobs" in err


def test_enumerate_single_row_of_1100(capsys):
    status, out, err = invoke(
        capsys, "enumerate", "--n", "1100", "--shape", "1100"
    )
    assert status == 0
    assert err == ""
    assert out == " ".join(str(v) for v in range(1, 1101)) + "\n"


def test_enumerate_refuses_shapes_over_the_cap(capsys):
    for argv in (["--shape", "6,5,4,3,2,1"], []):
        status, out, err = invoke(capsys, "enumerate", "--n", "21", *argv)
        assert status == 1
        assert out == ""
        assert err.startswith("error:") and "exceeds the cap" in err


def test_enumerate_eight_output_is_unchanged(capsys):
    status, out, err = invoke(capsys, "enumerate", "--n", "8")
    assert (status, err) == (0, "")
    assert len(out.splitlines()) == 764
    # sha256 of the output before shapes were checked against the cap
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2a6bd23c78332f8398c479dc0faba13f790489ce19a54656a534e986194685ef"
    )


def test_reconstruct_deep_deck_expect_unique(capsys, monkeypatch):
    # 1100 levels: far deeper than the interpreter's recursion limit
    t = StandardTableau([[1, 2, *range(5, 1101)], [3, 4]])
    feed(monkeypatch, minor_set(t, 1).to_text())
    status, out, err = invoke(capsys, "reconstruct", "--expect-unique")
    assert status == 0
    assert err == ""
    assert out == f"unique {t.to_text()}\n"


def test_hbound_rejects_n_above_cap(capsys):
    status, out, err = invoke(capsys, "hbound", "--n", "1001")
    assert status == 1
    assert out == ""
    assert err.startswith("error:") and "1000" in err


def test_walks_past_the_cap_exit_with_error(capsys):
    for argv in (
        ["census", "--n", "14"],
        ["hbound", "--n", "14", "--exact"],
        ["verify", "--suite", "lemma3.1", "--max-n", "20"],
        ["verify", "--suite", "lemma3.2", "--max-n", "14"],
        ["verify", "--suite", "lemma3.3", "--max-n", "14"],
        ["verify", "--suite", "theorem3.7", "--max-n", "14"],
        ["verify", "--suite", "proposition5", "--max-n", "1001"],
    ):
        status, out, err = invoke(capsys, *argv)
        assert status == 1, argv
        assert out == ""
        assert err.startswith("error:") and "exceeds the cap" in err


def test_census_ignores_cap_variable(capsys, monkeypatch):
    status, plain, _ = invoke(capsys, "census", "--n", "5")
    assert status == 0
    monkeypatch.setenv("TABREC_CENSUS_CAP", "10")
    assert invoke(capsys, "census", "--n", "5") == (0, plain, "")


def test_minors_level_cap_exits_with_error(capsys, monkeypatch):
    # the column-filled staircase with 55 cells: its minor levels grow
    # about 3x per k, so --k 20 would run for hours without the cap
    columns, v = [], 1
    for length in range(10, 0, -1):
        columns.append(range(v, v + length))
        v += length
    rows = ([c[i] for c in columns if i < len(c)] for i in range(10))
    staircase = StandardTableau(rows).to_text()
    monkeypatch.setattr(tabrec.taquin, "MAX_MINOR_LEVEL", 100)
    for extra in ([], ["--multiset"]):
        status, out, err = invoke(
            capsys, "minors", "--tableau", staircase, "--k", "20", *extra
        )
        assert status == 1
        assert out == ""
        assert err.startswith("error:") and "exceeds the cap of 100" in err


def test_cached_parser_keeps_no_state_between_runs(capsys, monkeypatch):
    # run() builds its parser once per process; every verb's output must
    # still be the same whatever ran before it
    monkeypatch.setenv("COLUMNS", "100")
    set_deck = minor_set(StandardTableau.from_text("1 3 5 / 2 4"), 1)
    cards = minor_multiset(StandardTableau.from_text("1 2 4 / 3 5"), 1)
    calls = [
        (["census", "--n"], None),
        (["--help"], None),
        (["delete", "--tableau", "2 1", "--entry", "1"], None),
        (["reconstruct"], set_deck.to_text()),
        (["reconstruct", "--multiset"], cards.to_text()),
        (["enumerate", "--n", "3"], None),
    ]

    def results(order):
        got = {}
        for argv, stdin in order:
            if stdin is not None:
                feed(monkeypatch, stdin)
            got[tuple(argv)] = invoke(capsys, *argv)
        return got

    forward = results(calls)
    assert results(calls[::-1]) == forward
    assert [forward[tuple(argv)][0] for argv, _ in calls] == [2, 0, 1, 0, 0, 0]
    assert "usage: tabrec" in forward[("census", "--n")][2]
    assert forward[("--help",)][1].startswith("usage: tabrec")
    assert forward[("reconstruct",)][1] == "unique 1 3 5 / 2 4\n"
    assert forward[("reconstruct", "--multiset")][1] == "unique 1 2 4 / 3 5\n"
    # the help text follows the terminal width of the call, not of the build
    monkeypatch.setenv("COLUMNS", "40")
    narrow = invoke(capsys, "--help")[1]
    assert narrow == cli._build_parser.__wrapped__().format_help()
    assert narrow != forward[("--help",)][1]
