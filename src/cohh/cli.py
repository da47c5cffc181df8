"""Command-line front end: file grammars, reports, and the self-test harness.

Presentation files are line oriented: a `char <n>` header, then one
`<kind> <name> <degree>` line per cogenerator, `#` comments anywhere.  E2
files use `<kind> <name> <s> <t>` lines instead.  Report bodies are
deterministic (byte-identical for identical inputs); timing goes to stderr.

`cohh cohh` computes its table by the factor route (`kunneth_table`): one
factor per cogenerator, and over F_p one per base-p digit of a polynomial
cogenerator (Lucas's theorem), each with a closed-form series
(`factor_series`), multiplied together (Künneth for Cotor; Bohmann,
Gerhardt, Høgenhaven, Shipley and Ziegenhagen, 2018).  The report's
`d_squared=ok` means that d.d = 0 was checked exactly on every complex the
table comes from; for every input the grammar accepts there is none, as no
complex is built.  A window of more than `cohomology.MAX_WINDOW_CELLS`
cells, or more than `cohomology.MAX_FACTOR_CELLS` factors times cells, is
refused with exit 2.

Exit codes: 0 success, 1 invariant failure, 2 input error, 3 internal error.
Codes 1 and 2 each have one exception base in `errors` (`InvariantFailure`,
`InvalidInput`), a module that imports nothing.  A `MemoryError` also exits
2, with one line and no traceback: the input asked for more than the machine
has, which is not a bug.

Start-up rule: a command imports only the engine modules it runs, inside its
own function, and `--help` imports none of them (nor `json`).  Every process
is a fresh interpreter, so a module-level import here is paid by every call.
For the same reason no engine module imports `dataclasses`: each process
compiles the modules it loads and pays for their imports, and `dataclasses`
pulls in `inspect`, `ast`, `dis` and `tokenize`, which cost more than the
table of a small presentation.  Records are `typing.NamedTuple`s, or plain
classes with `__slots__` where they validate, mutate or define equality.

Beyond `cohh`, `cli` and `errors`, which every process loads, the commands
load:

    cohh             coalg, cohomology
    collapse         coalg, hopfstruct, collapse
    primitives       coalg, hopfstruct
    indecomposables  coalg, hopfstruct
    hz               coalg, cohomology, exactfield, torpipe
    selftest         every module

`coalg` is the presentation module, holding `Field` and `BidegreeWindow`
too; the cobar machinery (`cochain`, and `exactfield` but for `hz`'s one
rank) is the oracle, which only `selftest` loads.

Exit rule: a process enters through `run()` (`python -m cohh.cli` and the
`cohh` console script), which calls `main()`, flushes stdout and stderr, and
ends with `os._exit`, as mypy's CLI does (`mypy.util.hard_exit`).  That skips
interpreter finalization (module teardown, a last collection, freeing every
object), 7-9 ms per process on a 2-vCPU host under CPython 3.11, which no
command needs: every report is written and flushed, and every `--out` file
closed, before `main` returns, and no cohh module registers an atexit
callback, a finalizer or a `__del__`.  Atexit callbacks that other code
registers (a site `.pth` hook, say) are skipped too.  `main()` is the
in-process API: it returns the exit code and never calls `os._exit`.  A
stdout that is closed or cannot take the report (ENOSPC, EPIPE) is an input
error, exit 2 with one line, like an unwritable `--out`.

Stderr rule: everything written to stderr (timings, the `input error:`,
`invariant failure:` and `internal error:` lines and the traceback) goes
through `_note`, which is best effort.  A stderr that is closed or cannot take
a line (ENOSPC) drops it, and the run keeps the exit code it has: the report
on stdout, or the refusal, is the result, and stderr only describes it.
"""

import argparse
import os
import sys
import time

from . import __version__
from .errors import InvalidInput, InvariantFailure

TOOL_LINE = f"# tool: cohh {__version__}"


class ParseError(InvalidInput):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _tokenize(text: str):
    """Yield (line_number, [(column, token), ...]) for meaningful lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = []
        col = 0
        for tok in line.split():
            col = line.index(tok, col)
            tokens.append((col + 1, tok))
            col += len(tok)
        if tokens:
            yield lineno, tokens


def _int_token(tokens, idx, what, lineno):
    col, value = tokens[idx]
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"{what} {value!r} is not an integer", lineno, col)


def _parse_records(text: str, override_char, usage: str, int_fields: tuple):
    """The `char <n>` header and the `<kind> <name> <ints...>` records after it.

    Returns (characteristic, [(kind, name, [ints])]); `int_fields` names the
    integers of a record, as error messages call them."""
    from .coalg import KINDS

    lines = list(_tokenize(text))
    characteristic = 0
    if lines:
        lineno, tokens = lines[0]
        if tokens[0][1] != "char":
            raise ParseError("expected `char <n>` header", lineno, tokens[0][0])
        if len(tokens) != 2:
            raise ParseError("header must be exactly `char <n>`", lineno, tokens[-1][0])
        characteristic = _int_token(tokens, 1, "characteristic", lineno)
    if override_char is not None:
        characteristic = override_char
    records = []
    for lineno, tokens in lines[1:]:
        if len(tokens) != 2 + len(int_fields):
            raise ParseError(f"expected `{usage}`", lineno, tokens[0][0])
        col, kind = tokens[0]
        if kind not in KINDS:
            raise ParseError(
                f"unknown kind {kind!r} (expected one of {', '.join(KINDS)})", lineno, col
            )
        ints = [_int_token(tokens, 2 + i, what, lineno) for i, what in enumerate(int_fields)]
        records.append((kind, tokens[1][1], ints))
    return characteristic, records


def parse_presentation(text: str, override_char=None):
    """A `CoalgebraPresentation` from the presentation file grammar."""
    from .coalg import CoalgebraPresentation, Cogenerator, Field

    characteristic, records = _parse_records(
        text, override_char, "<kind> <name> <degree>", ("degree",)
    )
    cogens = [Cogenerator(name, kind, degree) for kind, name, (degree,) in records]
    return CoalgebraPresentation(Field(characteristic), cogens)


def format_presentation(C) -> str:
    lines = [f"char {C.field.characteristic}"]
    for cog in C.cogenerators:
        lines.append(f"{cog.kind} {cog.name} {cog.degree}")
    return "\n".join(lines) + "\n"


def parse_e2(text: str, override_char=None):
    """An `E2Presentation` from the E2 file grammar."""
    from .collapse import E2Generator, E2Presentation

    characteristic, records = _parse_records(
        text, override_char, "<kind> <name> <s> <t>", ("column", "internal degree")
    )
    gens = [E2Generator(name, kind, s, t) for kind, name, (s, t) in records]
    return E2Presentation(characteristic, gens)


def format_e2(e2) -> str:
    lines = [f"char {e2.characteristic}"]
    for g in e2.generators:
        lines.append(f"{g.kind} {g.name} {g.s} {g.t}")
    return "\n".join(lines) + "\n"


# -- report rendering ---------------------------------------------------------


def render_grid(table) -> str:
    w = table.window
    width = max(2, *(len(str(v)) for v in table.entries.values()), len(str(w.max_s)))
    header = "# t\\s " + " ".join(f"{s:>{width}}" for s in range(w.max_s + 1))
    lines = [header]
    for t in range(w.max_t, -1, -1):
        cells = " ".join(
            f"{table.dim(s, t) or '.':>{width}}" for s in range(w.max_s + 1)
        )
        lines.append(f"{t:>5} {cells}")
    return "\n".join(lines)


def render_table_report(
    kind, title, table, characteristic, ident_str, comments, json_fields, fmt: str
) -> str:
    """A bigraded-table report (`cohh`, `hz`) in one format.

    csv is the table alone; json is the table's dict plus the report fields
    and `json_fields`; the table format prints `comments` between the
    characteristic and the identification, then the grid."""
    from .cohomology import table_to_csv, table_to_json_dict

    if fmt == "csv":
        return table_to_csv(table)
    if fmt == "json":
        import json

        data = table_to_json_dict(table)
        data.update(
            {
                "kind": kind,
                "tool": f"cohh {__version__}",
                "characteristic": characteristic,
                "identification": ident_str,
                **json_fields,
            }
        )
        return json.dumps(data, indent=2, ensure_ascii=False, sort_keys=True) + "\n"
    lines = [
        f"# {title} report",
        TOOL_LINE,
        f"# characteristic: {characteristic}",
        *comments,
        f"# identification: {ident_str}",
        render_grid(table),
    ]
    return "\n".join(lines) + "\n"


def render_cohh_report(C, window, table, ident, euler, fmt: str) -> str:
    """The `cohh cohh` report in one format.

    `d_squared=ok` is printed unconditionally: the table is only computed
    after d.d = 0 has been checked exactly on every complex it comes from
    (`kunneth_table`), and a failure raises before anything renders.  For
    every input the grammar accepts the table comes in closed form from no
    complex, so the line holds vacuously."""
    presentation = format_presentation(C).splitlines()
    comments = [
        f"# window: max_s={window.max_s} max_t={window.max_t}",
        "# presentation:",
        *(f"#   {ln}" for ln in presentation),
        "# checks: d_squared=ok"
        f" euler={'pass' if euler.passed else 'FAIL t=' + str(euler.first_violation)}",
    ]
    json_fields = {
        "presentation": presentation,
        "checks": {"d_squared": "ok", "euler": euler.describe()},
    }
    ident_str = ident.describe() if ident is not None else "unrecognized"
    return render_table_report(
        "cohh_report", "cohh", table, C.field.characteristic, ident_str,
        comments, json_fields, fmt,
    )


def render_hz_report(result, fmt: str) -> str:
    """The `hz` report in one format."""
    return render_table_report(
        "hz_report", "hz pipeline", result.table, result.characteristic,
        result.description, [f"# tor dims (degrees 0..4): {result.tor_dims}"],
        {"tor_dims": result.tor_dims}, fmt,
    )


def render_collapse_report(e2, cert, fmt: str) -> str:
    if fmt == "json":
        import json

        data = cert.to_json_dict(e2)
        data["tool"] = f"cohh {__version__}"
        data["presentation"] = format_e2(e2).splitlines()
        return json.dumps(data, indent=2, ensure_ascii=False, sort_keys=True) + "\n"
    lines = [
        "# collapse certificate",
        TOOL_LINE,
        f"# characteristic: {e2.characteristic}",
        f"# shape: {cert.shape}",
        f"# search bounds: max_t={cert.max_t} max_page={cert.max_page_searched}",
    ]
    if cert.hypothesis_checks:
        lines.append("# hypothesis checks:")
        for name, ok in sorted(cert.hypothesis_checks.items()):
            lines.append(f"#   {name}: {'pass' if ok else 'FAIL'}")
    lines.append(f"verdict: {cert.verdict}")
    if cert.obstructions:
        lines.append("obstructions:")
        names = cert.witness_names(e2)
        for o in cert.obstructions:
            lines.append(f"  {o.describe(e2, names[o.source_bidegree])}")
    if cert.argument:
        lines.append(f"# argument: {cert.argument}")
    if cert.verdict == "collapses":
        from .collapse import CONVERGENCE_NOTE

        lines.append(f"# note: {CONVERGENCE_NOTE}")
    lines.append("# caveats:")
    for c in cert.caveats:
        lines.append(f"#   - {c}")
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path):
    """Write a report to --out, or to stdout and flush it; a file or a stdout
    that cannot be written, or a closed stdout, is an input error."""
    if not out_path:
        if sys.stdout is None:
            raise InvalidInput("standard output is closed")
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            raise InvalidInput(f"standard output: {exc}") from exc
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInput(str(exc)) from exc


# -- commands -----------------------------------------------------------------


def _read(args, parse):
    """Parse the input file of a command, with its --char override; a file
    that cannot be read as UTF-8 text is an input error."""
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(str(exc)) from exc
    return parse(text, args.char)


def cmd_cohh(args) -> int:
    from .coalg import BidegreeWindow
    from .cohomology import identify_presentation, kunneth_table, presentation_euler_check

    C = _read(args, parse_presentation)
    window = BidegreeWindow(args.max_s, args.max_t)
    table = kunneth_table(C, window)
    euler = presentation_euler_check(C, window, table)
    ident = identify_presentation(table)
    _emit(render_cohh_report(C, window, table, ident, euler, args.format), args.out)
    return 0 if euler.passed else 1


def cmd_collapse(args) -> int:
    from .collapse import analyze

    e2 = _read(args, parse_e2)
    cert = analyze(e2, args.max_t)
    _emit(render_collapse_report(e2, cert, args.format), args.out)
    return 0


def cmd_hz(args) -> int:
    from .coalg import BidegreeWindow
    from .torpipe import hz_e2_pipeline

    result = hz_e2_pipeline(args.char, BidegreeWindow(args.max_s, args.max_t))
    _emit(render_hz_report(result, args.format), args.out)
    return 0


def render_monomial_report(title: str, C, max_t: int, found) -> str:
    """The `primitives` / `indecomposables` report of a `MonomialSet`: one
    line per nonempty degree."""
    lines = [
        f"# {title} report",
        TOOL_LINE,
        f"# characteristic: {C.field.characteristic}",
        f"# max internal degree: {max_t}",
    ]
    for t, elems in found.formatted(C).items():
        lines.append(f"t={t}: " + "; ".join(elems))
    return "\n".join(lines) + "\n"


def cmd_primitives(args) -> int:
    from .hopfstruct import primitives

    C = _read(args, parse_presentation)
    found = primitives(C, args.max_t)
    _emit(render_monomial_report("primitives", C, args.max_t, found), args.out)
    return 0


def cmd_indecomposables(args) -> int:
    from .hopfstruct import AlgebraPresentation, indecomposables

    C = _read(args, parse_presentation)
    A = AlgebraPresentation(C.field, C.cogenerators)
    found = indecomposables(A, args.max_t)
    _emit(render_monomial_report("indecomposables", A, args.max_t, found), args.out)
    return 0


def cmd_selftest(args) -> int:
    from .selftest import TIME_BUDGETS_SECONDS, run_selftest

    results = run_selftest()
    lines = ["# selftest report", TOOL_LINE]
    failures = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        failures += 0 if res.passed else 1
        detail = f" ({res.detail})" if res.detail else ""
        lines.append(f"{status} {res.name}{detail}")
        budget = TIME_BUDGETS_SECONDS[res.name]
        _note(f"# {res.name}: {res.elapsed:.3f} s (budget {budget} s)\n")
    lines.append(f"# total: {len(results)} checks, {failures} failed")
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohh",
        description=(
            "Exact coHochschild homology tables and spectral-sequence collapse "
            "certificates for graded coalgebras over a field."
        ),
        epilog=(
            "exit codes: 0 success; 1 invariant failure (d.d != 0, a failed "
            "check); 2 input error (the input is refused, with the reason); "
            "3 internal error (a bug; the traceback goes to stderr)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cohh", help="bigraded coHH table of a coalgebra presentation")
    p.add_argument("file", help="input presentation file")
    p.add_argument("--max-s", type=int, default=6)
    p.add_argument("--max-t", type=int, default=24)
    p.add_argument("--char", type=int, default=None,
                   help="override the characteristic header")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--out", default=None, help="write the report to this path")
    p.set_defaults(func=cmd_cohh)

    p = sub.add_parser("collapse", help="collapse certificate for an E2 presentation")
    p.add_argument("file")
    p.add_argument("--max-t", type=int, default=40)
    p.add_argument("--char", type=int, default=None)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_collapse)

    p = sub.add_parser("hz", help="Tor pipeline table at a prime")
    p.add_argument("--char", type=int, required=True)
    p.add_argument("--max-s", type=int, default=3)
    p.add_argument("--max-t", type=int, default=6)
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_hz)

    p = sub.add_parser("primitives", help="primitive elements per internal degree")
    p.add_argument("file")
    p.add_argument("--max-t", type=int, default=24)
    p.add_argument("--char", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_primitives)

    p = sub.add_parser(
        "indecomposables", help="indecomposable elements per internal degree"
    )
    p.add_argument("file")
    p.add_argument("--max-t", type=int, default=24)
    p.add_argument("--char", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_indecomposables)

    p = sub.add_parser("selftest", help="run the full acceptance suite")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_selftest)

    return parser


def _note(text: str):
    """Write text to stderr, best effort (the stderr rule)."""
    if sys.stderr is None:
        return
    try:
        sys.stderr.write(text)
    except OSError:
        pass


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        code = args.func(args)
    except InvariantFailure as exc:
        _note(f"invariant failure: {exc}\n")
        return 1
    except InvalidInput as exc:
        _note(f"input error: {exc}\n")
        return 2
    except MemoryError:
        # Reported after the handler, which frees the frames the traceback holds.
        code = None
    except Exception:
        import traceback  # here, not at the top: start-up never pays for it

        _note("internal error:\n" + traceback.format_exc())
        return 3
    if code is None:
        _note("input error: ran out of memory; lower the window\n")
        return 2
    _note(f"# elapsed_seconds: {time.perf_counter() - start:.3f}\n")
    return code


def run() -> None:
    """The process entry: `main()`, then flush and `os._exit` (the exit rule).

    argparse ends `--help` and usage errors with `SystemExit`, whose code
    maps as `sys.exit` maps it: None is 0, an int itself, anything else is
    printed to stderr and exits 1."""
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
        if code is None:
            code = 0
        elif not isinstance(code, int):
            _note(f"{code}\n")
            code = 1
    if sys.stdout is not None:  # nothing was written to a closed stdout
        try:
            _emit("", None)  # flushes what argparse left in the buffer
        except InvalidInput as exc:
            if code == 0:  # else main has reported why it failed
                _note(f"input error: {exc}\n")
                code = 2
    if sys.stderr is not None:
        try:
            sys.stderr.flush()
        except OSError:  # nowhere left to report it
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
