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

Report rule: every report byte is laid out here, by the `render_*`
functions: the grid, the csv, the json (one helper, `_json`, adds `tool` and
sorts the keys) and `FORMAT_VERSION`, the version of the `cohh` and `hz`
json; the `collapse` json is at version 1.  Engine records carry data and
the mathematical names of their objects (`format_monomial`,
`E2Presentation.describe`), and lay out no line, csv or json, so a format
change edits this module alone.

Exit codes: 0 success, 1 invariant failure, 2 input error, 3 internal error.
Codes 1 and 2 each have one exception base in `errors` (`InvariantFailure`,
`InvalidInput`), a module that imports nothing.  A `MemoryError` also exits
2, with one line and no traceback: the input asked for more than the machine
has, which is not a bug.

Start-up rule: a command imports only the engine modules it runs, inside its
own function, and `--help` imports none of them (nor `json`).  No process
imports argparse.  Every process is a fresh interpreter, so a module-level
import here is paid by every call.  For the same reason no engine module
imports `dataclasses`: each process compiles the modules it loads and pays
for their imports, and `dataclasses` pulls in `inspect`, `ast`, `dis` and
`tokenize`, which cost more than the table of a small presentation.  Records
are `typing.NamedTuple`s, or plain classes with `__slots__` where they
validate, mutate or define equality, as `Field` and `E2Presentation`, the
one E2 page record, which identification returns and `collapse` certifies.

The command line is read from `COMMANDS`, one static table near the end of
this module, by `parse_args`.  It follows argparse's rules for the options
the table declares and prints argparse's messages, without argparse's cost
in every process: the import, with `gettext` and `locale`, seven parsers to
build, and `textwrap` to format help.  Two rules are plainer than
argparse's: `--` ends the options wherever it stands, and `-h` is one
argument (`-hh` is an unknown option).  Each help text is argparse's output
at 80 columns, kept literal, so help formats nothing; a wider terminal gets
the same 80-column text.

Beyond `cohh`, `cli` and `errors`, which every process loads, the commands
load:

    cohh             coalg, cohomology
    collapse         coalg, hopfstruct, collapse
    primitives       coalg, hopfstruct
    indecomposables  coalg, hopfstruct
    hz               coalg, cohomology, torpipe
    selftest         every module

`coalg` is the presentation module, holding `Field`, `BidegreeWindow` and
the E2 page record too, so `cohh` names the page it identifies without
loading `collapse`; the cobar machinery, with its sparse matrices and
`rank`, is the oracle, `cochain`, which only `selftest` loads.

Exit rule: a process enters through `run()` (`python -m cohh.cli` and the
`cohh` console script), which calls `main()`, flushes stderr, and ends with
`os._exit`, as mypy's CLI does (`mypy.util.hard_exit`).  That skips
interpreter finalization (module teardown, a last collection, freeing every
object), 7-9 ms per process on a 2-vCPU host under CPython 3.11, which no
command needs: every report is written and flushed, and every `--out` file
closed, before `main` returns, and no cohh module registers an atexit
callback, a finalizer or a `__del__`.  Atexit callbacks that other code
registers (a site `.pth` hook, say) are skipped too.  `main()` is the
in-process API: it returns the exit code, help's and a usage error's too,
raises no `SystemExit` of its own and never calls `os._exit`.

Stdout rule: a report, or help, is written and flushed by `_emit`.  A stdout
that is closed or cannot take it (ENOSPC, EPIPE) is an input error, exit 2
with one line, like an unwritable `--out`.

Stderr rule: everything written to stderr (timings, usage errors, the
`input error:`, `invariant failure:` and `internal error:` lines and the
traceback) goes through `_note`, which is best effort.  A stderr that is
closed or cannot take a line (ENOSPC) drops it, and the run keeps the exit
code it has: the report on stdout, or the refusal, is the result, and stderr
only describes it.
"""

import os
import sys
import time

from . import __version__
from .errors import InvalidInput, InvariantFailure

TOOL_LINE = f"# tool: cohh {__version__}"
FORMAT_VERSION = 3  # of the `cohh` and `hz` json reports


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
    from .coalg import E2Generator, E2Presentation

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


def _json(data: dict) -> str:
    """A json report: `data` and `tool`, keys sorted, in one `json.dumps`."""
    import json

    data["tool"] = f"cohh {__version__}"
    return json.dumps(data, indent=2, ensure_ascii=False, sort_keys=True) + "\n"


def render_table_report(
    kind, title, table, characteristic, ident_str, comments, json_fields, fmt: str
) -> str:
    """A bigraded-table report (`cohh`, `hz`) in one format.

    csv is the table alone; json is the table with the report fields and
    `json_fields`; the table format prints `comments` between the
    characteristic and the identification, then the grid."""
    cells = sorted(table.entries.items())
    if fmt == "csv":
        return "".join(["s,t,dim\n", *(f"{s},{t},{dim}\n" for (s, t), dim in cells)])
    if fmt == "json":
        return _json({
            "format_version": FORMAT_VERSION,
            "window": {"max_s": table.window.max_s, "max_t": table.window.max_t},
            "entries": [{"s": s, "t": t, "dim": dim} for (s, t), dim in cells],
            "kind": kind,
            "characteristic": characteristic,
            "identification": ident_str,
            **json_fields,
        })
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
    if euler.passed:
        euler_text = (
            f"pass ({len(euler.checked_degrees)} degrees checked, "
            f"{len(euler.skipped_degrees)} beyond the window)"
        )
    else:
        euler_text = f"FAIL at internal degree t={euler.first_violation}"
    comments = [
        f"# window: max_s={window.max_s} max_t={window.max_t}",
        "# presentation:",
        *(f"#   {ln}" for ln in presentation),
        "# checks: d_squared=ok"
        f" euler={'pass' if euler.passed else 'FAIL t=' + str(euler.first_violation)}",
    ]
    json_fields = {
        "presentation": presentation,
        "checks": {"d_squared": "ok", "euler": euler_text},
    }
    ident_str = ident.describe() if ident is not None else "unrecognized"
    return render_table_report(
        "cohh_report", "cohh", table, C.field.characteristic, ident_str,
        comments, json_fields, fmt,
    )


def render_hz_report(result, characteristic: int, fmt: str) -> str:
    """The `hz` report in one format, with the cited Tor dimensions."""
    from .torpipe import TOR_DIMS

    return render_table_report(
        "hz_report", "hz pipeline", result.table, characteristic,
        result.description, [f"# tor dims (degrees 0..4): {TOR_DIMS}"],
        {"tor_dims": TOR_DIMS}, fmt,
    )


def render_collapse_report(e2, cert, fmt: str) -> str:
    """The `collapse` report in one format.  The obstructions of one source
    bidegree share its witnesses, so each list is formatted once; the first
    witness is the source, which the table line does not repeat."""
    from .collapse import CERTIFICATE_CAVEATS, CONVERGENCE_NOTE

    mono = e2.format_monomial
    shared = {o.source_bidegree: o.witnesses for o in cert.obstructions}
    names = {b: [mono(w) for w in ws] for b, ws in shared.items()}
    note = CONVERGENCE_NOTE if cert.verdict == "collapses" else None
    if fmt == "json":
        return _json({
            "format_version": 1,
            "verdict": cert.verdict,
            "shape": cert.shape,
            "characteristic": e2.characteristic,
            "search_bounds": {"max_t": cert.max_t, "max_page": cert.max_page_searched},
            "hypothesis_checks": cert.hypothesis_checks,
            "obstructions": [
                {
                    "page": o.page,
                    "source": mono(o.source),
                    "target": mono(o.target),
                    "source_bidegree": list(o.source_bidegree),
                    "target_bidegree": list(o.target_bidegree),
                    "same_bidegree_sources": names[o.source_bidegree],
                }
                for o in cert.obstructions
            ],
            "argument": cert.argument,
            "convergence_note": note,
            "caveats": list(CERTIFICATE_CAVEATS),
            "presentation": format_e2(e2).splitlines(),
        })
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
        for o in cert.obstructions:
            line = (
                f"  d_{o.page}: {mono(o.source)} {o.source_bidegree} -> "
                f"{mono(o.target)} {o.target_bidegree}"
            )
            if len(o.witnesses) > 1:
                line += f" (same-bidegree sources: {', '.join(names[o.source_bidegree][1:])})"
            lines.append(line)
    if cert.argument:
        lines.append(f"# argument: {cert.argument}")
    if note:
        lines.append(f"# note: {note}")
    lines.append("# caveats:")
    for c in CERTIFICATE_CAVEATS:
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
    _emit(render_hz_report(result, args.char, args.format), args.out)
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
    for t, ms in found.by_degree.items():
        lines.append(f"t={t}: " + "; ".join(C.format_monomial(m) for m in ms))
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


# -- the command line -----------------------------------------------------------
#
# Per command: the name of its `cmd_*` function, whether it takes a positional
# `file`, its options as `{option: (kind, default)}`, where a kind is int, str
# or a tuple of choices and a default of REQUIRED makes the option required,
# and its help text.  A help text's usage line runs to its first blank line.

REQUIRED = object()
FORMATS = ("table", "csv", "json")

HELP = """\
usage: cohh [-h] {cohh,collapse,hz,primitives,indecomposables,selftest} ...

Exact coHochschild homology tables and spectral-sequence collapse certificates
for graded coalgebras over a field.

positional arguments:
  {cohh,collapse,hz,primitives,indecomposables,selftest}
    cohh                bigraded coHH table of a coalgebra presentation
    collapse            collapse certificate for an E2 presentation
    hz                  Tor pipeline table at a prime
    primitives          primitive elements per internal degree
    indecomposables     indecomposable elements per internal degree
    selftest            run the full acceptance suite

options:
  -h, --help            show this help message and exit

exit codes: 0 success; 1 invariant failure (d.d != 0, a failed check); 2 input
error (the input is refused, with the reason); 3 internal error (a bug; the
traceback goes to stderr)
"""

COMMANDS = {
    "cohh": (
        "cmd_cohh", True,
        {"--max-s": (int, 6), "--max-t": (int, 24), "--char": (int, None),
         "--format": (FORMATS, "table"), "--out": (str, None)},
        """\
usage: cohh cohh [-h] [--max-s MAX_S] [--max-t MAX_T] [--char CHAR]
                 [--format {table,csv,json}] [--out OUT]
                 file

positional arguments:
  file                  input presentation file

options:
  -h, --help            show this help message and exit
  --max-s MAX_S
  --max-t MAX_T
  --char CHAR           override the characteristic header
  --format {table,csv,json}
  --out OUT             write the report to this path
""",
    ),
    "collapse": (
        "cmd_collapse", True,
        {"--max-t": (int, 40), "--char": (int, None),
         "--format": (("table", "json"), "table"), "--out": (str, None)},
        """\
usage: cohh collapse [-h] [--max-t MAX_T] [--char CHAR]
                     [--format {table,json}] [--out OUT]
                     file

positional arguments:
  file

options:
  -h, --help            show this help message and exit
  --max-t MAX_T
  --char CHAR
  --format {table,json}
  --out OUT
""",
    ),
    "hz": (
        "cmd_hz", False,
        {"--char": (int, REQUIRED), "--max-s": (int, 3), "--max-t": (int, 6),
         "--format": (FORMATS, "table"), "--out": (str, None)},
        """\
usage: cohh hz [-h] --char CHAR [--max-s MAX_S] [--max-t MAX_T]
               [--format {table,csv,json}] [--out OUT]

options:
  -h, --help            show this help message and exit
  --char CHAR
  --max-s MAX_S
  --max-t MAX_T
  --format {table,csv,json}
  --out OUT
""",
    ),
    "primitives": (
        "cmd_primitives", True,
        {"--max-t": (int, 24), "--char": (int, None), "--out": (str, None)},
        """\
usage: cohh primitives [-h] [--max-t MAX_T] [--char CHAR] [--out OUT] file

positional arguments:
  file

options:
  -h, --help     show this help message and exit
  --max-t MAX_T
  --char CHAR
  --out OUT
""",
    ),
    "indecomposables": (
        "cmd_indecomposables", True,
        {"--max-t": (int, 24), "--char": (int, None), "--out": (str, None)},
        """\
usage: cohh indecomposables [-h] [--max-t MAX_T] [--char CHAR] [--out OUT]
                            file

positional arguments:
  file

options:
  -h, --help     show this help message and exit
  --max-t MAX_T
  --char CHAR
  --out OUT
""",
    ),
    "selftest": (
        "cmd_selftest", False,
        {"--out": (str, None)},
        """\
usage: cohh selftest [-h] [--out OUT]

options:
  -h, --help  show this help message and exit
  --out OUT
""",
    ),
}


def _note(text: str):
    """Write text to stderr, best effort (the stderr rule)."""
    if sys.stderr is None:
        return
    try:
        sys.stderr.write(text)
    except OSError:
        pass


class _UsageError(Exception):
    """A command line `parse_args` refuses, with argparse's message."""


class _Exit(Exception):
    """Raised with an exit code when the command line is answered in full, by
    help (0) or a usage error (2): `main` returns the code, and no command
    runs."""


class Namespace:
    """A parsed command line: `command`, `func`, `file` if the command takes
    one, and one attribute per option (`--max-s` is `max_s`)."""

    def __init__(self, **values):
        self.__dict__.update(values)


def _option(arg: str, names):
    """Which of `names` the argument `arg` gives, as (name, `=` value or None);
    (None, None) for an unknown option, None for a positional.  argparse's
    rules: `--opt=value`, a unique prefix of a long option, and `-1` or a
    string with a space is positional."""
    if arg[:1] != "-" or arg == "-":
        return None
    if arg in names:
        return arg, None
    if arg[1] == "-":
        name, eq, value = arg.partition("=")
        matches = [name] if name in names else [n for n in names if n.startswith(name)]
        if len(matches) > 1:
            raise _UsageError(f"ambiguous option: {arg} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    number = arg[1:]
    if number.replace(".", "", 1).isdecimal() and not number.endswith(".") or " " in arg:
        return None
    return None, None


def _choice(what: str, value: str, choices):
    if value not in choices:
        listed = ", ".join(map(repr, choices))
        raise _UsageError(f"argument {what}: invalid choice: {value!r} (choose from {listed})")
    return value


def _help(text: str, value):
    """Print a help text as a report and end with code 0; help takes no `=`
    value."""
    if value is not None:
        raise _UsageError(f"argument -h/--help: ignored explicit argument {value!r}")
    _emit(text, None)
    raise _Exit(0)


def _parse_command(command: str, argv: list):
    """One command's arguments by attribute name, and those it leaves over.

    The first `--` ends the options and is dropped.  Every argument is
    classified before any is used, so an ambiguous prefix is refused even
    after `-h`."""
    _, takes_file, options, text = COMMANDS[command]
    names = ("-h", "--help", *options)
    end = argv.index("--") if "--" in argv else len(argv)
    argv = argv[:end] + argv[end + 1:]
    kinds = [_option(arg, names) for arg in argv[:end]] + [None] * (len(argv) - end)
    values = {name: default for name, (_, default) in options.items()}
    left = []  # indices, in order, of what no option takes
    i = 0
    while i < len(argv):
        found, i = kinds[i], i + 1
        if found is None or found[0] is None:  # a positional, or an unknown option
            left.append(i - 1)
            continue
        name, value = found
        if name in ("-h", "--help"):
            _help(text, value)
        if value is None:
            if i >= end or kinds[i] is not None:
                raise _UsageError(f"argument {name}: expected one argument")
            value, i = argv[i], i + 1
        kind = options[name][0]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise _UsageError(f"argument {name}: invalid int value: {value!r}") from None
        elif kind is not str:
            _choice(name, value, kind)
        values[name] = value
    args = {name[2:].replace("-", "_"): value for name, value in values.items()}
    missing = [name for name, value in values.items() if value is REQUIRED]
    positional = [j for j in left if kinds[j] is None]
    if takes_file and positional:
        args["file"] = argv[positional[0]]
        left.remove(positional[0])
    elif takes_file:
        missing.insert(0, "file")
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    return args, [argv[k] for k in left]


def parse_args(argv) -> Namespace:
    """The command line, read against `COMMANDS` as argparse read it: help
    prints to stdout and raises `_Exit(0)`; a usage error prints the usage
    line of the parser that refused it and `<prog>: error: <message>` to
    stderr, and raises `_Exit(2)`.  Before the command, a `--` is dropped
    and the next argument is the command.  Unrecognized arguments are refused
    by the top level, after the command's own errors.  `func` is looked up on
    the module here, at each call."""
    prog, text = "cohh", HELP
    try:
        extras = []
        i = 0
        while i < len(argv) and argv[i] != "--":
            found = _option(argv[i], ("-h", "--help"))
            if found is None:
                break
            if found[0] is None:  # an unknown option
                extras.append(argv[i])
            else:
                _help(text, found[1])
            i += 1
        if i < len(argv) and argv[i] == "--":
            i += 1
        if i == len(argv):
            raise _UsageError("the following arguments are required: command")
        command = _choice("command", argv[i], COMMANDS)
        prog, text = f"cohh {command}", COMMANDS[command][3]
        args, left = _parse_command(command, argv[i + 1:])
        if extras + left:
            prog, text = "cohh", HELP
            raise _UsageError(f"unrecognized arguments: {' '.join(extras + left)}")
    except _UsageError as exc:
        usage = text.split("\n\n", 1)[0]
        _note(f"{usage}\n{prog}: error: {exc}\n")
        raise _Exit(2) from None
    func = globals()[COMMANDS[command][0]]
    return Namespace(command=command, func=func, **args)


def main(argv=None) -> int:
    start = time.perf_counter()
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        code = args.func(args)
    except _Exit as exc:
        return exc.args[0]
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
    """The process entry: `main()`, a flush of stderr and `os._exit` (the
    exit rule).  Every report, help included, is flushed by `_emit`."""
    code = main()
    if sys.stderr is not None:
        try:
            sys.stderr.flush()
        except OSError:  # nowhere left to report it
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
