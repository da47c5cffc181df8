import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cohh import cli, cohomology
from cohh.cli import (
    ParseError,
    format_e2,
    format_presentation,
    main,
    parse_e2,
    parse_presentation,
)
from cohh.coalg import EXTERIOR, POLYNOMIAL, CoalgebraPresentation, Cogenerator
from cohh.cochain import BidegreeWindow, build_complex
from cohh.cohomology import cohh_table, table_to_csv
from cohh.errors import InvariantFailure
from cohh.exactfield import Field
from cohh.selftest import TIME_BUDGETS_SECONDS

LAMBDA3 = "# one odd exterior class\nchar 3\nexterior y 3\n"
LAMBDA35_E2 = (
    "char 3\n"
    "exterior y1 0 3\n"
    "exterior y2 0 5\n"
    "polynomial w1 1 3\n"
    "polynomial w2 1 5\n"
)
GAMMA_E2 = "char 3\ndivided_power x 0 2\nexterior z 1 2\n"


def test_presentation_round_trip():
    C = parse_presentation(LAMBDA3)
    text = format_presentation(C)
    again = parse_presentation(text)
    assert format_presentation(again) == text
    assert again.field.characteristic == 3
    assert [c.name for c in again.cogenerators] == ["y"]


def test_e2_round_trip():
    e2 = parse_e2(LAMBDA35_E2)
    assert format_e2(parse_e2(format_e2(e2))) == format_e2(e2)
    assert e2.characteristic == 3


def test_parse_errors_carry_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_presentation("exterior y 3\n")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_presentation("char 3\nweird y 3\n")
    assert err.value.line == 2 and err.value.column == 1
    with pytest.raises(ParseError) as err:
        parse_presentation("char 3\nexterior y three\n")
    assert err.value.line == 2 and err.value.column == 12
    with pytest.raises(ParseError):
        parse_presentation("char x\n")
    with pytest.raises(ParseError):
        parse_e2("char 3\nexterior y 0\n")


def test_char_override():
    C = parse_presentation(LAMBDA3, override_char=5)
    assert C.field.characteristic == 5


def test_cohh_command_table_output(tmp_path, capsys):
    src = tmp_path / "lambda.coalg"
    src.write_text(LAMBDA3)
    code = main(["cohh", str(src), "--max-s", "4", "--max-t", "15"])
    out = capsys.readouterr().out
    assert code == 0
    assert "# identification: Λ(y1)⊗k[w1]" in out
    assert "euler=pass" in out


def test_cohh_command_csv_matches_library(tmp_path):
    src = tmp_path / "lambda.coalg"
    src.write_text(LAMBDA3)
    out_path = tmp_path / "table.csv"
    code = main([
        "cohh", str(src), "--max-s", "4", "--max-t", "15",
        "--format", "csv", "--out", str(out_path),
    ])
    assert code == 0
    C = parse_presentation(LAMBDA3)
    table = cohh_table(build_complex(C, BidegreeWindow(4, 15)))
    assert out_path.read_text() == table_to_csv(table)


def test_cohh_command_json(tmp_path, capsys):
    src = tmp_path / "lambda.coalg"
    src.write_text(LAMBDA3)
    assert main(["cohh", str(src), "--format", "json",
                 "--max-s", "3", "--max-t", "9"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["format_version"] == 3
    assert data["checks"]["d_squared"] == "ok"
    dims = {(e["s"], e["t"]): e["dim"] for e in data["entries"]}
    assert dims[(0, 3)] == 1


def test_cohh_command_deterministic(tmp_path):
    src = tmp_path / "lambda.coalg"
    src.write_text(LAMBDA3)
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    main(["cohh", str(src), "--max-t", "12", "--out", str(out1)])
    main(["cohh", str(src), "--max-t", "12", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_cohh_names_no_generators_in_a_window_of_row_0_alone(tmp_path, capsys):
    """Γ(x2) over Q at --max-s 0: the window shows no column-1 class, so no
    shape is named.  A greedy row-0 match named an exterior generator of
    even degree over Q, which no presentation can have."""
    src = tmp_path / "gamma.coalg"
    src.write_text("char 0\ndivided_power x 2\n")
    assert main(["cohh", str(src), "--max-s", "0"]) == 0
    assert "# identification: unrecognized\n" in capsys.readouterr().out


def test_cohh_command_rejects_bad_parity(tmp_path, capsys):
    src = tmp_path / "bad.coalg"
    src.write_text("char 3\npolynomial w 3\n")
    assert main(["cohh", str(src)]) == 2
    assert "input error" in capsys.readouterr().err


def test_cohh_command_rejects_composite_char(tmp_path, capsys):
    src = tmp_path / "bad.coalg"
    src.write_text("char 4\nexterior y 3\n")
    assert main(["cohh", str(src)]) == 2


def test_cohh_command_empty_presentation(tmp_path, capsys):
    src = tmp_path / "empty.coalg"
    src.write_text("char 0\n")
    assert main(["cohh", str(src), "--max-s", "2", "--max-t", "3",
                 "--format", "csv"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    dims = {}
    for row in rows:
        s, t, dim = row.split(",")
        dims[(int(s), int(t))] = int(dim)
    assert dims[(0, 0)] == 1
    assert sum(dims.values()) == 1


def test_collapse_command_obstructed(tmp_path, capsys):
    src = tmp_path / "e2.txt"
    src.write_text(LAMBDA35_E2)
    assert main(["collapse", str(src)]) == 0
    out = capsys.readouterr().out
    assert "verdict: obstructed" in out
    assert "d_2: y2*w1 (1, 8) -> w1^3 (3, 9)" in out
    assert "same-bidegree sources: y1*w2" in out
    assert "pm_ne_ratio_plus_one: FAIL" in out


@pytest.mark.parametrize("text", [
    "char 3\nexterior y1 0 1\nexterior y2 0 3\npolynomial w1 1 1\npolynomial w2 1 3\n",
    "char 2\nexterior y1 0 1\nexterior y2 0 1\npolynomial w1 1 1\npolynomial w2 1 1\n",
])
def test_collapse_command_degree_one_exterior_generator(tmp_path, capsys, text):
    src = tmp_path / "e2.txt"
    src.write_text(text)
    assert main(["collapse", str(src)]) == 0
    out = capsys.readouterr().out
    for check in ("degrees_odd_and_gt1", "pm_ne_ratio_plus_one", "p2_pm_ne_ratio",
                  "odd_p_pm_ne_twice_ratio"):
        assert f"#   {check}: FAIL" in out
    assert "verdict: obstructed" in out


def test_collapse_command_collapses_json(tmp_path, capsys):
    src = tmp_path / "e2.txt"
    src.write_text("char 5\nexterior y 0 3\npolynomial w 1 3\n")
    assert main(["collapse", str(src), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "collapses"
    assert data["obstructions"] == []
    assert data["convergence_note"]


# The 24-generator page (y_d at (0, d) and w_d at (1, d), odd d = 3..25) at
# --max-t 160: the sha256 of each report.  Report bytes change only with a
# format_version bump.
COLLAPSE_PAGE_SHA256 = {
    (2, "table"): "5566e88b7d7efede0d824f444a21f2a2cf3ad71a6b02d914ce3c3b09e0f8c14d",
    (2, "json"): "220b45995727dd9bce69a0cc968686ed29b35ad8b801478b3c4eb40786faf65f",
    (3, "table"): "505fc008fbfce0decce9c261dc8d306716ea40fa8d1ad3a971ee84e2d82d071a",
    (3, "json"): "6ccd629eab2c0041ff4644c262abdcb2936c160e380613a6324d24c4ab982033",
}


@pytest.mark.parametrize("p, fmt", sorted(COLLAPSE_PAGE_SHA256))
def test_collapse_reports_of_the_24_generator_page_are_pinned(tmp_path, p, fmt):
    degrees = range(3, 26, 2)
    src = tmp_path / "e2.txt"
    src.write_text(
        f"char {p}\n"
        + "".join(f"exterior y{d} 0 {d}\n" for d in degrees)
        + "".join(f"polynomial w{d} 1 {d}\n" for d in degrees)
    )
    out = tmp_path / "report"
    assert main(["collapse", str(src), "--max-t", "160", "--format", fmt,
                 "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == COLLAPSE_PAGE_SHA256[(p, fmt)]


# `cohh cohh` reports at the default window unless given: the sha256 of each
# format.  Report bytes change only with a format_version bump.
COHH_INPUTS = {
    "kw2-f3": ("char 3\npolynomial w 2\n", ["--max-s", "6", "--max-t", "24"]),
    "lambda35-f3": ("char 3\nexterior y1 3\nexterior y2 5\n", ["--max-s", "6", "--max-t", "40"]),
    "gamma2-q": ("char 0\ndivided_power x 2\n", []),
    "lambda3-kw2-q": ("char 0\nexterior y 3\npolynomial w 2\n", []),
    "kw1-f2": ("char 2\npolynomial w 1\n", []),
    "empty": ("char 0\n", []),
}
COHH_REPORT_SHA256 = {
    ("kw2-f3", "table"): "776a151c03878f6fa604925b8e9d3f4eafaf8dd5dba6adc3bd3abe0fe1331af5",
    ("kw2-f3", "csv"): "278f9f1db80da45b2d7b41ecdce3c6ba45428b37adf76118f17b6b495fcb029e",
    ("kw2-f3", "json"): "55fb34ae303078ff51cd1ae6fcf8f81b4b0b7fda32977442ba27dc59dc30ac40",
    ("lambda35-f3", "table"): "ef4cbb0f27ded49aeee28358f67f97c660e85026ede24bfb9394f2b58306c457",
    ("lambda35-f3", "csv"): "22e1d57dc1fa8ff516baecfca0b3f3fb99d7ad53527fb49578a588d32a1e7e0a",
    ("lambda35-f3", "json"): "69299d78df65eb4345b47e1303876f37ff88c0b20a30086822829766e257149a",
    ("gamma2-q", "table"): "24e99265f70123a24a9153f0f7a7a915a4cdb44a01fbac381b22291bce252e25",
    ("gamma2-q", "csv"): "f906b54368ec3be9cb3899003a80baddf45d44fa6ad634733f87b5140b55816c",
    ("gamma2-q", "json"): "86397a8934dcae8d5dd0a0d7fb0f08208a3f37a00a133dd6462a4de5aa09bfb9",
    ("lambda3-kw2-q", "table"): "6fd76fcbcf7e386b2f18a8b7e206803da2dfb6ed6ddaffd0ac10404206375511",
    ("lambda3-kw2-q", "csv"): "0f8310fd9ce14013ca37bf24a960f623d905dc223c58bce7da68f46ebacb6217",
    ("lambda3-kw2-q", "json"): "ff933a2b4986b0594ffdd2d7efe8c0e419ee22ffa1fe7b644586341ee81b7315",
    ("kw1-f2", "table"): "3c7d2b604154cb79259a83b61cddcf32bd74fe37253e128195235c122bf8b547",
    ("kw1-f2", "csv"): "bb7cfa6298421e3704111545981536ecb3fcbcab6b8d16ea9deec88b3df0c517",
    ("kw1-f2", "json"): "5fdac47f6afe539b6b0ea396038cd4d58ee544ebc3900f4d1f408c0049b970b5",
    ("empty", "table"): "0cca2f7685af623b2da35fc3abb25f7fa7baccb026e76eabbb4803d671a92688",
    ("empty", "csv"): "189f8e0b895d3917e744eed24675288d6b13eda5de9af872de44d5b360a9ad2f",
    ("empty", "json"): "27b7691bf3e25d69f4daad40c3a86e1368be8bebcdf22a9fa86f0dc96ca6106a",
}


@pytest.mark.parametrize("name, fmt", sorted(COHH_REPORT_SHA256))
def test_cohh_reports_are_pinned(tmp_path, name, fmt):
    text, window = COHH_INPUTS[name]
    src = tmp_path / "input.coalg"
    src.write_text(text)
    out = tmp_path / "report"
    assert main(["cohh", str(src), *window, "--format", fmt, "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == COHH_REPORT_SHA256[(name, fmt)]


def test_collapse_command_gamma(tmp_path, capsys):
    src = tmp_path / "e2.txt"
    src.write_text(GAMMA_E2)
    assert main(["collapse", str(src)]) == 0
    out = capsys.readouterr().out
    assert "verdict: collapses" in out
    assert "# argument:" in out


def test_collapse_command_wrong_shape(tmp_path, capsys):
    src = tmp_path / "e2.txt"
    src.write_text("char 3\ndivided_power x 0 2\npolynomial w 1 2\n")
    assert main(["collapse", str(src)]) == 2


def test_hz_command(tmp_path, capsys):
    assert main(["hz", "--char", "3"]) == 0
    out = capsys.readouterr().out
    assert "||ω||=(1,1)" in out
    assert "tor dims" in out
    assert main(["hz", "--char", "4"]) == 2


def test_primitives_command(tmp_path, capsys):
    src = tmp_path / "poly.coalg"
    src.write_text("char 3\npolynomial w 2\n")
    assert main(["primitives", str(src), "--max-t", "20"]) == 0
    out = capsys.readouterr().out
    assert "t=2: w" in out
    assert "t=6: w^3" in out
    assert "t=18: w^9" in out
    assert "t=4" not in out


def test_indecomposables_command(tmp_path, capsys):
    src = tmp_path / "alg.coalg"
    src.write_text("char 0\nexterior y1 3\nexterior y2 5\n")
    assert main(["indecomposables", str(src), "--max-t", "20"]) == 0
    out = capsys.readouterr().out
    assert "t=3: y1" in out
    assert "t=5: y2" in out
    assert "t=8" not in out


SRC = str(Path(cli.__file__).parents[1])


def run_cli(*argv, **options):
    """One `python -m cohh.cli` process on the source tree under test;
    `options` go to `subprocess.run`."""
    options = {"capture_output": True, "text": True, "timeout": 30, **options}
    env = dict(os.environ, PYTHONPATH=SRC, **options.pop("env", {}))
    return subprocess.run([sys.executable, "-m", "cohh.cli", *argv], env=env, **options)


# -- process exits: `run()` ends every process through `os._exit` --------------


def test_process_report_is_the_bytes_main_writes(tmp_path, capsys):
    src = tmp_path / "lambda.coalg"
    src.write_text(LAMBDA3)
    for argv in (["cohh", str(src)], ["selftest"], ["hz", "--char", "3"]):
        run = run_cli(*argv, text=False)
        assert run.returncode == 0, run.stderr
        assert main(argv) == 0
        assert run.stdout == capsys.readouterr().out.encode("utf-8")
        assert b"Traceback" not in run.stderr


def test_process_help_exits_0():
    run = run_cli("--help")
    assert run.returncode == 0
    assert run.stdout.startswith("usage: cohh") and run.stderr == ""


def test_process_usage_error_exits_2_with_argparse_message():
    run = run_cli("cohh")
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.startswith("usage: cohh cohh")
    assert run.stderr.endswith("cohh cohh: error: the following arguments are required: file\n")


def test_process_missing_file_exits_2_with_one_line(tmp_path):
    run = run_cli("cohh", str(tmp_path / "absent.coalg"))
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr == (
        f"input error: [Errno 2] No such file or directory: '{tmp_path / 'absent.coalg'}'\n"
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "command, unbuffered",
    [("cohh", "1"), ("cohh", ""), ("selftest", ""), ("--help", "")],
    ids=["report-unbuffered", "report-buffered", "selftest", "help"],
)
def test_process_stdout_without_space_exits_2_with_one_line(tmp_path, command, unbuffered):
    """ENOSPC on stdout is the environment's failure, not a bug.  A report
    is flushed by `_emit`, in or out of PYTHONUNBUFFERED; `--help` text
    that argparse leaves in the buffer is flushed by `run()`."""
    src = tmp_path / "lambda.coalg"
    src.write_text(LAMBDA3)
    argv = {"cohh": ["cohh", str(src)], "selftest": ["selftest"], "--help": ["--help"]}[command]
    with open("/dev/full", "w") as full:
        run = run_cli(*argv, capture_output=False, stdout=full, stderr=subprocess.PIPE,
                      env={"PYTHONUNBUFFERED": unbuffered})
    lines = [ln for ln in run.stderr.splitlines() if not ln.startswith("# ")]
    assert run.returncode == 2
    assert lines == ["input error: standard output: [Errno 28] No space left on device"]


def test_process_closed_stdout_exits_2_with_one_line(tmp_path):
    src = tmp_path / "lambda.coalg"
    src.write_text(LAMBDA3)
    run = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "cohh.cli", "cohh", str(src)],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=30,
    )
    assert run.returncode == 2
    assert run.stderr == "input error: standard output is closed\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "command, code, report",
    [("cohh", 0, "# cohh report\n"), ("missing", 2, ""), ("selftest", 0, "# selftest report\n")],
    ids=["cohh", "missing-file", "selftest"],
)
def test_process_stderr_without_space_keeps_the_exit_code(tmp_path, command, code, report):
    """stderr only describes a run (the stderr rule): when it cannot take a
    line, the line is dropped and the run exits as it would have."""
    src = tmp_path / "lambda.coalg"
    src.write_text(LAMBDA3)
    argv = {
        "cohh": ["cohh", str(src)],
        "missing": ["cohh", str(tmp_path / "absent.coalg")],
        "selftest": ["selftest"],
    }[command]
    with open("/dev/full", "w") as full:
        run = run_cli(*argv, capture_output=False, stdout=subprocess.PIPE, stderr=full)
    assert run.returncode == code
    assert run.stdout.startswith(report) and (report or run.stdout == "")


def test_process_closed_stderr_keeps_the_exit_code(tmp_path):
    src = tmp_path / "lambda.coalg"
    src.write_text(LAMBDA3)
    for path, code in [(src, 0), (tmp_path / "absent.coalg", 2)]:
        run = subprocess.run(
            ["sh", "-c", 'exec "$@" 2>&-', "sh", sys.executable, "-m", "cohh.cli", "cohh", str(path)],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=30,
        )
        assert run.returncode == code
        assert "input error" not in run.stdout and "elapsed" not in run.stdout


@pytest.mark.parametrize(
    "body, code, stderr",
    [
        ("return 1", 1, r"# elapsed_seconds: [0-9.]+\n"),
        ("raise cli.InvariantFailure('planted')", 1, r"invariant failure: planted\n"),
        ("raise RuntimeError('planted')", 3, r"internal error:\nTraceback .*\nRuntimeError: planted\n"),
        ("raise SystemExit('planted')", 1, r"planted\n"),
        ("raise SystemExit(None)", 0, r""),
        ("raise SystemExit(5)", 5, r""),
    ],
    ids=["returns-1", "invariant-failure", "internal-error", "exit-message",
         "exit-none", "exit-int"],
)
def test_process_exit_code_through_run(body, code, stderr):
    """A `python -c` process that plants a command and enters by `cli.run()`:
    main's code, or SystemExit's mapped as `sys.exit` maps it."""
    probe = (
        "import sys\n"
        "from cohh import cli\n"
        f"def planted(args):\n    {body}\n"
        "cli.cmd_hz = planted\n"
        "sys.argv = ['cohh', 'hz', '--char', '3']\n"
        "cli.run()\n"
        "print('run returned')\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=30,
    )
    assert (run.returncode, run.stdout) == (code, "")
    assert re.fullmatch(stderr, run.stderr, re.DOTALL), run.stderr


def test_main_in_process_never_exits_the_process(tmp_path, monkeypatch):
    """`main()` is the in-process API: every path returns or raises
    SystemExit (argparse), and none reaches `os._exit`."""
    def refuse_exit(code):
        raise AssertionError(f"os._exit({code}) from main")

    monkeypatch.setattr(os, "_exit", refuse_exit)
    src = tmp_path / "lambda.coalg"
    src.write_text(LAMBDA3)
    assert main(["cohh", str(src)]) == 0
    assert main(["cohh", str(tmp_path / "absent.coalg")]) == 2
    for argv in (["--help"], ["cohh"]):
        with pytest.raises(SystemExit):
            main(argv)
    monkeypatch.setattr(cli, "cmd_hz", lambda args: 1 / 0)
    assert main(["hz", "--char", "3"]) == 3


@pytest.mark.parametrize("command", ["primitives", "indecomposables"])
def test_structure_commands_on_ten_generators_are_closed_forms(tmp_path, command):
    """Ten polynomial generators over Q: the basis at t = 40 has C(29, 9)
    monomials, but the answer is the ten generators at t = 2."""
    src = tmp_path / "ten.coalg"
    src.write_text("char 0\n" + "".join(f"polynomial w{i} 2\n" for i in range(10)))
    run = run_cli(command, str(src), "--max-t", "40")
    assert run.returncode == 0, run.stderr
    body = [ln for ln in run.stdout.splitlines() if not ln.startswith("#")]
    assert body == ["t=2: " + "; ".join(f"w{i}" for i in reversed(range(10)))]


@pytest.mark.parametrize(
    "text, window",
    [
        ("char 0\npolynomial w 2\n", (8, 32)),
        ("char 0\npolynomial w 2\n", (12, 60)),
        ("char 0\ndivided_power x 2\n", (8, 32)),
    ],
)
def test_cohh_over_q_at_large_windows_is_the_closed_form(tmp_path, text, window):
    """k[w2] and Γ(x2) over Q: k[x] has entries at (0, 2j), j >= 0, and at
    (1, 2j), j >= 1.  Their cobar complexes took minutes at (8, 32)."""
    src = tmp_path / "one.coalg"
    src.write_text(text)
    max_s, max_t = window
    run = run_cli("cohh", str(src), "--max-s", str(max_s), "--max-t", str(max_t),
                  "--format", "csv")
    assert run.returncode == 0, run.stderr
    entries = {}
    for line in run.stdout.splitlines()[1:]:
        s, t, dim = map(int, line.split(","))
        entries[(s, t)] = dim
    assert entries == {
        (s, t): int(t % 2 == 0 and (s == 0 or (s == 1 and t > 0)))
        for s in range(max_s + 1)
        for t in range(max_t + 1)
    }


def test_cohh_refuses_a_huge_window_up_front(tmp_path):
    src = tmp_path / "poly.coalg"
    src.write_text("char 3\npolynomial w 2\n")
    start = time.perf_counter()
    run = run_cli("cohh", str(src), "--max-s", "100000", "--max-t", "100000")
    assert time.perf_counter() - start < 1
    assert run.returncode == 2
    assert run.stderr == (
        "input error: window BidegreeWindow(max_s=100000, max_t=100000) has "
        f"10000200001 cells; the limit is {cohomology.MAX_WINDOW_CELLS}\n"
    )
    assert run.stdout == ""


def test_cohh_refuses_too_many_factors_up_front(tmp_path):
    """300 exterior factors at (40, 400): each factor pays for every cell,
    ~24 s in-process without the budget."""
    src = tmp_path / "many.coalg"
    src.write_text("char 0\n" + "".join(f"exterior y{i} 3\n" for i in range(300)))
    start = time.perf_counter()
    run = run_cli("cohh", str(src), "--max-s", "40", "--max-t", "400")
    assert time.perf_counter() - start < 1
    assert run.returncode == 2
    assert run.stderr == (
        "input error: 300 factors times the 16441 cells of window "
        "BidegreeWindow(max_s=40, max_t=400) make 4932300; "
        f"the limit is {cohomology.MAX_FACTOR_CELLS}\n"
    )
    assert run.stdout == ""


def test_cohh_takes_two_dense_factors_at_the_widest_window(tmp_path):
    """Γ(x_1) over F_2 has a class in every degree; two of them at
    (0, 19999), the most cells a window may have, cost one pass over the
    cells per series term.  A pairwise convolution visited 20 000 x 20 000
    pairs here and ran past 25 s.  The bound is on the child's CPU time, which
    a busy host does not stretch as it does wall time."""
    src = tmp_path / "dense.coalg"
    src.write_text("char 2\ndivided_power a 1\ndivided_power b 1\n")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    run = run_cli("cohh", str(src), "--max-s", "0", "--max-t", "19999", "--format", "json")
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime) < 1
    assert run.returncode == 0
    report = json.loads(run.stdout)
    assert [e["dim"] for e in report["entries"]] == [t + 1 for t in range(20_000)]
    assert report["checks"]["euler"].startswith("pass")


def test_primitives_command_at_a_huge_max_t(tmp_path, capsys):
    src = tmp_path / "poly.coalg"
    src.write_text("char 5\npolynomial w 2\n")
    assert main(["primitives", str(src), "--max-t", str(10**12)]) == 0
    body = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
    assert body == [f"t={2 * 5**k}: " + ("w" if k == 0 else f"w^{5**k}") for k in range(17)]


def test_out_of_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_primitives", exhausted)
    src = tmp_path / "poly.coalg"
    src.write_text("char 3\npolynomial w 2\n")
    assert main(["primitives", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "input error: ran out of memory; lower the window\n"
    assert captured.out == ""


def test_indecomposables_rejects_divided_power(tmp_path, capsys):
    src = tmp_path / "alg.coalg"
    src.write_text("char 3\ndivided_power x 2\n")
    assert main(["indecomposables", str(src)]) == 2


def test_selftest_command(capsys):
    assert main(["selftest"]) == 0
    captured = capsys.readouterr()
    out = captured.out
    assert out.count("PASS ") == 8
    assert "FAIL" not in out
    assert "# total: 8 checks, 0 failed" in out
    for name, budget in TIME_BUDGETS_SECONDS.items():
        assert re.search(
            rf"^# {name}: \d+\.\d{{3}} s \(budget {budget} s\)$", captured.err, re.M
        )


def test_selftest_isolates_a_check_that_raises(capsys, monkeypatch):
    def corrupted(cog, p):
        raise InvariantFailure("corrupted factor table")

    monkeypatch.setattr(cohomology, "factor_series", corrupted)
    assert main(["selftest"]) == 1
    captured = capsys.readouterr()
    out = captured.out
    # a check that raises an invariant error fails alone; the run goes on
    for name in (
        "lambda-grid-reproduction", "divided-power-grid-reproduction",
        "hz-pipeline", "structural-invariants",
    ):
        assert f"FAIL {name} (corrupted factor table)" in out
    assert out.count("PASS ") == 4
    assert "# total: 8 checks, 4 failed" in out
    for name in TIME_BUDGETS_SECONDS:
        assert re.search(rf"^# {name}: ", captured.err, re.M)


def test_a_corrupt_twist_reaches_only_the_cobar_oracle(corrupted_twist, capsys):
    """The closed-form factor tables use no twist: the grid and pipeline
    checks pass, and the selftest's cobar oracle tells the two routes apart."""
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert (
        "FAIL structural-invariants (factor route differs from the cobar complex: "
        "Lambda(3) over characteristic 0)"
    ) in out
    assert "# total: 8 checks, 1 failed" in out


def test_selftest_catches_a_small_complex_without_its_map(capsys, monkeypatch):
    """Asked for over a characteristic that divides N, the closed form keeps
    the two classes that the small complex's map by N removes."""
    closed = cohomology.factor_series

    def zero_map(cog, p):
        return closed(cog, cog.truncation + 1 if cog.truncation else p)

    monkeypatch.setattr(cohomology, "factor_series", zero_map)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert (
        "FAIL structural-invariants (factor route differs from the cobar complex: "
        "Gamma_2(2) over characteristic 0)"
    ) in out
    assert "# total: 8 checks, 1 failed" in out


def test_missing_file(capsys):
    assert main(["cohh", "/nonexistent/path.coalg"]) == 2


@pytest.mark.parametrize(
    "make_argv, reason",
    [
        (lambda f: ["cohh", str(f / "x")], "Not a directory"),
        (lambda f: ["cohh", str(f.parent / ("a" * 5000))], "File name too long"),
        (lambda f: ["cohh", str(f), "--out", str(f / "report")], "Not a directory"),
    ],
    ids=["input-under-a-file", "input-name-too-long", "out-under-a-file"],
)
def test_os_errors_on_the_cli_files_exit_2(tmp_path, capsys, make_argv, reason):
    src = tmp_path / "lambda.coalg"
    src.write_text(LAMBDA3)
    assert main(make_argv(src)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: [Errno ")
    assert reason in captured.err and "internal error" not in captured.err
    assert captured.out == ""


def test_engine_os_error_is_not_an_input_error(tmp_path, capsys, monkeypatch):
    def broken(C, window):
        raise FileNotFoundError("a file the engine expected is missing")

    monkeypatch.setattr(cohomology, "kunneth_table", broken)
    src = tmp_path / "lambda.coalg"
    src.write_text(LAMBDA3)
    assert main(["cohh", str(src), "--max-t", "6"]) == 3
    err = capsys.readouterr().err
    assert "input error" not in err
    assert "FileNotFoundError: a file the engine expected is missing" in err


@pytest.mark.parametrize(
    "command, text, reason",
    [
        ("cohh", "char 3\nexterior y 3\nexterior y 5\n", "duplicate cogenerator names"),
        ("cohh", "char 3317044064679887385961981\nexterior y 3\n", "too large"),
        ("collapse", "char 3\nexterior y 0 3\npolynomial y 1 3\n", "duplicate generator"),
        ("collapse", "char 3\nexterior y 0 0\n", "positive internal degree"),
        ("indecomposables", "char 3\ndivided_power x 2\n", "polynomial or exterior"),
    ],
)
def test_rejected_input_exits_2_with_reason(tmp_path, capsys, command, text, reason):
    src = tmp_path / "input.txt"
    src.write_text(text)
    assert main([command, str(src)]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and reason in err


@pytest.mark.parametrize(
    "command, text",
    [
        ("collapse", LAMBDA35_E2),
        ("primitives", "char 3\npolynomial w 2\n"),
        ("indecomposables", "char 3\npolynomial w 2\n"),
    ],
)
def test_negative_max_t_exits_2_with_reason(tmp_path, capsys, command, text):
    src = tmp_path / "input.txt"
    src.write_text(text)
    assert main([command, str(src), "--max-t", "-1"]) == 2
    captured = capsys.readouterr()
    assert "input error: max_t=-1 is negative" in captured.err
    assert captured.out == ""


def test_over_budget_collapse_page_exits_2_with_the_count(tmp_path, capsys):
    src = tmp_path / "wide.e2"
    src.write_text("char 3\n" + "".join(
        f"exterior y{d} 0 {d}\npolynomial w{d} 1 {d}\n" for d in range(3, 42, 2)
    ))
    start = time.perf_counter()
    assert main(["collapse", str(src), "--max-t", "160"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert "input error: the collapse search would stream 1610037 sources" in captured.err
    assert captured.out == ""


def test_hz_rejects_characteristic_zero(capsys):
    assert main(["hz", "--char", "0"]) == 2
    assert "input error: characteristic must be a prime" in capsys.readouterr().err


def test_internal_value_error_is_not_an_input_error(tmp_path, capsys, monkeypatch):
    def broken(C, window):
        raise ValueError("shape mismatch inside the engine")

    monkeypatch.setattr(cohomology, "kunneth_table", broken)
    src = tmp_path / "lambda.coalg"
    src.write_text(LAMBDA3)
    assert main(["cohh", str(src), "--max-t", "6"]) == 3
    err = capsys.readouterr().err
    assert "input error" not in err
    assert "internal error:" in err
    assert "ValueError: shape mismatch inside the engine" in err


def test_cohh_command_fails_the_euler_check_on_a_corrupted_convolution(
    tmp_path, capsys, monkeypatch
):
    route = cohomology.kunneth_table

    def off_by_one(C, window):
        table = route(C, window)
        table.entries[(1, 6)] += 1
        return table

    monkeypatch.setattr(cohomology, "kunneth_table", off_by_one)
    src = tmp_path / "lambda.coalg"
    src.write_text(LAMBDA3)
    assert main(["cohh", str(src), "--max-s", "4", "--max-t", "12"]) == 1
    assert "# checks: d_squared=ok euler=FAIL t=6" in capsys.readouterr().out
    assert main(["cohh", str(src), "--max-s", "4", "--max-t", "12", "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks["euler"] == "FAIL at internal degree t=6"


def test_cohh_command_fails_the_euler_check_on_a_dropped_factor_entry(
    tmp_path, capsys, monkeypatch
):
    """A closed-form series has no ranks to telescope, so one missing
    numerator term, x q^3 of Λ(y_3), shows in the alternating sums."""
    closed = cohomology.factor_series

    def dropped(cog, p):
        num, dens = closed(cog, p)
        if cog.kind == EXTERIOR and cog.degree == 3:
            del num[(1, 3)]
        return num, dens

    monkeypatch.setattr(cohomology, "factor_series", dropped)
    src = tmp_path / "lambda.coalg"
    src.write_text(LAMBDA3)
    assert main(["cohh", str(src), "--max-s", "4", "--max-t", "12"]) == 1
    assert "# checks: d_squared=ok euler=FAIL t=3" in capsys.readouterr().out


def test_cohh_command_refuses_a_complex_with_nonzero_d_squared(
    tmp_path, capsys, monkeypatch, corrupted_twist
):
    """The grammar cannot say k[w2]/(w^6) over F_3, the one kind whose
    table comes from its cobar complex; as if it could, a corrupted twist
    exits 1 with nothing on stdout."""
    truncated = CoalgebraPresentation(
        Field(3), [Cogenerator("w", POLYNOMIAL, 2, truncation=5)]
    )
    monkeypatch.setattr(cli, "parse_presentation", lambda text, char=None: truncated)
    src = tmp_path / "truncated.coalg"
    src.write_text("char 3\npolynomial w 2\n")
    assert main(["cohh", str(src), "--max-s", "3", "--max-t", "18"]) == 1
    captured = capsys.readouterr()
    assert "invariant failure: d.d != 0 first fails at (s,t)=(0, 4)" in captured.err
    assert captured.out == ""
