"""README.md stays true: every command in it parses, and everything it names exists.

Nothing runs.  A command line from a fenced block goes through its entry
point's real parser, with ``repro.cli._dispatch`` replaced by ``parse_args``;
a backticked repository path must exist, and a backticked ``file.py::name``
must name something that file defines.
"""

from __future__ import annotations

import ast
import re
import shlex
from pathlib import Path
from typing import Iterator, List, Set, Tuple

import pytest

import repro.cli
from repro.analysis.findings import FINDINGS

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()

#: Installed script -> ``repro.cli`` entry point.
SCRIPTS = {
    "repro-fuzz": "fuzz_main",
    "repro-simulate": "simulate_main",
    "repro-trace": "trace_main",
    "repro-triage": "triage_main",
    "repro-campaign": "campaign_main",
    "repro-coverage": "coverage_main",
}
PATH_PREFIXES = ("tests/", "examples/", "benchmarks/", "src/repro/")


def _blocks() -> Tuple[List[str], List[str]]:
    """(lines inside fenced blocks, continuations joined; lines outside them)."""
    fenced: List[str] = []
    prose: List[str] = []
    inside, pending = False, ""
    for line in README:
        if line.startswith("```"):
            inside = not inside
        elif not inside:
            prose.append(line)
        elif line.endswith("\\"):
            pending += line[:-1] + " "
        else:
            fenced.append(pending + line)
            pending = ""
    return fenced, prose


FENCED, PROSE = _blocks()


def _command(line: str):
    """``(entry point, argv)`` if ``line`` runs a ``repro.cli`` command, else None."""
    words = line.split()
    while words and re.fullmatch(r"[A-Z_]+=\S*", words[0]):  # leading VAR=value
        words.pop(0)
    if not words or not (words[0] in SCRIPTS or words[0] == "python"):
        return None
    words = shlex.split(" ".join(words), comments=True)
    if words[0] in SCRIPTS:
        return SCRIPTS[words[0]], words[1:]
    if words[:3] == ["python", "-m", "repro.cli"]:
        return "fuzz_main", words[3:]
    if words[:2] == ["python", "-c"]:
        entry = re.match(r"from repro\.cli import (\w+_main)\b", words[2])
        if entry:
            return entry.group(1), words[3:]
    return None


COMMANDS = [(line, found) for line in FENCED if (found := _command(line)) is not None]


def test_every_entry_point_has_a_command():
    assert {entry for _, (entry, _) in COMMANDS} == set(SCRIPTS.values())


def _parse_only(parser, argv) -> int:
    parser.parse_args(argv)
    return 0


@pytest.mark.parametrize("line, command", COMMANDS, ids=[line for line, _ in COMMANDS])
def test_the_command_parses(line, command, monkeypatch):
    monkeypatch.setattr(repro.cli, "_dispatch", _parse_only)
    entry, argv = command
    try:
        assert getattr(repro.cli, entry)(argv) == 0
    except SystemExit as exc:
        pytest.fail(f"README command does not parse (exit {exc.code}): {line}")


def _references() -> Iterator[str]:
    """Every repository path in a backticked span of the prose."""
    for span in re.findall(r"`([^`]+)`", "\n".join(PROSE)):
        for word in span.split():
            if word.startswith(PATH_PREFIXES):
                yield word.rstrip(".,;:")


REFERENCES = sorted(set(_references()))


def _defined(body: List[ast.stmt]) -> Iterator[Tuple[str, ast.AST]]:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def test_references_were_found():
    assert any("::" in ref for ref in REFERENCES)
    assert any(ref.startswith("src/repro/") for ref in REFERENCES)


@pytest.mark.parametrize("reference", REFERENCES)
def test_the_reference_exists(reference):
    path, *names = reference.split("::")
    assert (ROOT / path).exists(), f"README names a missing path: {path}"
    if not names:
        return
    scope: List[ast.stmt] = ast.parse((ROOT / path).read_text(encoding="utf-8")).body
    for name in names:
        found = dict(_defined(scope)).get(name)
        assert found is not None, f"{path} defines no {'::'.join(names)}"
        scope = getattr(found, "body", [])


def _first_table() -> List[str]:
    rows = [line for line in README if line.startswith("|")]
    first = README.index(rows[0])
    table: List[str] = []
    for line in README[first:]:
        if not line.startswith("|"):
            break
        table.append(line)
    return table


def test_the_readme_opens_with_one_row_per_finding():
    header, rule, *rows = _first_table()
    assert header.startswith("| finding |") and set(rule) <= set("|-")
    named: Set[str] = {row.split("|")[1].strip().strip("`") for row in rows}
    assert named == set(FINDINGS) and len(rows) == len(FINDINGS)
