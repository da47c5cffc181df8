"""Workload inputs, CLI invocations and output checks for the cohh benchmark.

Every input file is written here from a seed.  The seed shuffles cogenerator
and generator lines and renames them; dimensions, and so the amount of work,
do not depend on it.  Each CLI report is reduced to a summary (table dims or
counts) that is compared with the golden summary recorded at the seed commit
and, where a closed form exists, with a grid computed here independently of
`cohomology.expected_grid`.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable, Optional

GOLDEN = json.loads(Path(__file__).with_name("golden.json").read_text(encoding="utf-8"))

WORKLOADS = ("kw2-f3", "lambda35-f3", "structure")

KW2 = (("polynomial", 2),)
LAMBDA35 = (("exterior", 3), ("exterior", 5))
PRIMITIVE_GENS = (("polynomial", 2), ("polynomial", 4))
E2_DEGREES = tuple(range(3, 26, 2))          # 12 exterior generators, degrees 3..25
COLLAPSE_MAX_T = 160
PRIMITIVE_MAX_T = 40


@dataclass
class Invocation:
    """One `python -m cohh.cli ...` call and the reading of its report."""

    label: str                     # key into the workload's golden summaries
    args: list                     # arguments after `-m cohh.cli`
    summarize: Callable            # report text -> JSON-comparable summary
    closed_form: Optional[list] = None   # independent dims, where a closed form exists
    text: Optional[str] = None     # the input file's text, for the traced replay
    window: Optional[tuple] = None


# -- seeded inputs -------------------------------------------------------------


def _names(rng: random.Random, n: int) -> list:
    names: list = []
    while len(names) < n:
        name = rng.choice("abcdefghijkmnpqrstuvxz") + format(rng.randrange(16 ** 4), "04x")
        if name not in names:
            names.append(name)
    return names


def presentation_text(rng: random.Random, characteristic: int, cogens) -> str:
    """A presentation file with renamed cogenerators in shuffled line order."""
    lines = [
        f"{kind} {name} {degree}"
        for (kind, degree), name in zip(cogens, _names(rng, len(cogens)))
    ]
    rng.shuffle(lines)
    return "\n".join([f"char {characteristic}", *lines]) + "\n"


def e2_text(rng: random.Random) -> str:
    """E2 page over char 2: exterior y_d at (0, d) and polynomial w_d at (1, d)."""
    gens = [("exterior", 0, d) for d in E2_DEGREES]
    gens += [("polynomial", 1, d) for d in E2_DEGREES]
    lines = [
        f"{kind} {name} {s} {t}"
        for (kind, s, t), name in zip(gens, _names(rng, len(gens)))
    ]
    rng.shuffle(lines)
    return "\n".join(["char 2", *lines]) + "\n"


def make_invocations(workload: str, seed: int, work_dir: Path) -> list:
    """Write the workload's input files under work_dir and list its invocations."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    work_dir.mkdir(parents=True, exist_ok=True)

    def write(name: str, text: str) -> str:
        path = work_dir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    if workload == "kw2-f3":
        text = presentation_text(rng, 3, KW2)
        return [_cohh_invocation(write("kw2.txt", text), text, (6, 24), None)]
    if workload == "lambda35-f3":
        text = presentation_text(rng, 3, LAMBDA35)
        path = write("lambda35.txt", text)
        closed = closed_form_dims(
            base=[(3, 1), (5, 1)], columns=[(3, None), (5, None)], max_s=6, max_t=40
        )
        return [_cohh_invocation(path, text, (6, 40), closed)]
    e2 = e2_text(rng)
    e2_path = write("e2.txt", e2)
    prim_text = presentation_text(rng, 0, PRIMITIVE_GENS)
    prim_path = write("primitives.txt", prim_text)
    max_t = str(PRIMITIVE_MAX_T)
    return [
        Invocation("selftest", ["selftest"], summarize_selftest),
        Invocation(
            "collapse", ["collapse", e2_path, "--max-t", str(COLLAPSE_MAX_T)],
            summarize_collapse, text=e2,
        ),
        Invocation(
            "primitives", ["primitives", prim_path, "--max-t", max_t],
            summarize_element_count, text=prim_text,
        ),
        Invocation(
            "indecomposables", ["indecomposables", prim_path, "--max-t", max_t],
            summarize_element_count, text=prim_text,
        ),
        Invocation(
            "hz", ["hz", "--char", "3"], summarize_grid_report,
            closed_form=closed_form_dims(
                base=[(1, 1)], columns=[(1, None)], max_s=3, max_t=6
            ),
            window=(3, 6),
        ),
    ]


def _cohh_invocation(path, text, window, closed) -> Invocation:
    args = ["cohh", path, "--max-s", str(window[0]), "--max-t", str(window[1])]
    return Invocation(
        "cohh", args, summarize_grid_report, closed_form=closed, text=text, window=window,
    )


# -- independent closed forms ---------------------------------------------------


def closed_form_dims(base, columns, max_s: int, max_t: int) -> list:
    """Dims of a free graded-commutative page, as sorted [s, t, dim] triples.

    base generators sit at (0, d) and columns at (1, d); each is a pair
    (degree, exponent cap) with cap None for unbounded.  Every exponent vector
    is enumerated directly, with no generating-function algebra."""
    gens = [(0, d, cap) for d, cap in base] + [(1, d, cap) for d, cap in columns]
    ranges = [
        range(min(max_t // d, max_t if cap is None else cap) + 1) for _, d, cap in gens
    ]
    counts: dict = {}
    for exps in product(*ranges):
        s = sum(e * g[0] for e, g in zip(exps, gens))
        t = sum(e * g[1] for e, g in zip(exps, gens))
        if s <= max_s and t <= max_t:
            counts[(s, t)] = counts.get((s, t), 0) + 1
    return [[s, t, n] for (s, t), n in sorted(counts.items())]


# -- report summaries -----------------------------------------------------------


def parse_grid(text: str) -> list:
    """Nonzero cells of a rendered `# t\\s` grid as sorted [s, t, dim] triples."""
    lines = text.splitlines()
    start = next((i for i, ln in enumerate(lines) if ln.startswith("# t\\s")), None)
    if start is None:
        return []
    columns = [int(tok) for tok in lines[start].split()[2:]]
    cells = []
    for ln in lines[start + 1:]:
        tokens = ln.split()
        if not tokens or tokens[0].startswith("#"):
            break
        t = int(tokens[0])
        for s, tok in zip(columns, tokens[1:]):
            if tok != ".":
                cells.append([s, t, int(tok)])
    return sorted(cells)


def summarize_grid_report(text: str) -> dict:
    """Window, check line and table dims of a `cohh cohh` or `cohh hz` report."""
    out: dict = {"dims": parse_grid(text)}
    window = re.search(r"^# window: max_s=(\d+) max_t=(\d+)$", text, re.M)
    if window:
        out["window"] = [int(window.group(1)), int(window.group(2))]
    checks = re.search(r"^# checks: (.*)$", text, re.M)
    if checks:
        out["checks"] = checks.group(1)
    return out


def summarize_selftest(text: str) -> dict:
    total = re.search(r"^# total: (\d+) checks, (\d+) failed$", text, re.M)
    return {
        "checks": int(total.group(1)) if total else None,
        "failed": int(total.group(2)) if total else None,
        "passed": len(re.findall(r"^PASS ", text, re.M)),
    }


def summarize_collapse(text: str) -> dict:
    verdict = re.search(r"^verdict: (\S+)$", text, re.M)
    return {
        "verdict": verdict.group(1) if verdict else None,
        "obstructions": len(re.findall(r"^  d_\d+: ", text, re.M)),
    }


def summarize_element_count(text: str) -> dict:
    """Number of elements listed on the `t=<n>: a; b` lines of a report."""
    count = 0
    for match in re.finditer(r"^t=\d+: (.*)$", text, re.M):
        count += len(match.group(1).split("; "))
    return {"count": count}


def check_summary(workload: str, inv: Invocation, summary) -> list:
    """Problems with one invocation's summary, against golden and closed form."""
    problems = []
    golden = GOLDEN["workloads"][workload][inv.label]
    if summary != golden:
        problems.append(f"{inv.label}: summary {summary} differs from golden {golden}")
    if inv.closed_form is not None and summary.get("dims") != inv.closed_form:
        problems.append(f"{inv.label}: table differs from the closed-form grid")
    return problems
