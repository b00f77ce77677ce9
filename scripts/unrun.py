#!/usr/bin/env python3
"""The coverage command: which function-body statements of ``src/bftledger``
tier-1 never runs.

    python scripts/unrun.py

It runs tier-1 in this process under ``sys.settrace``, tracing lines only in
frames whose code lives in ``src/bftledger``. The bounded model check
(acceptance 2) and the catalogue's staleness checks (``tests/test_mutants.py``)
are deselected: the first only makes the run slow, the second runs no
program code. It then prints, per module, each statement inside a function
body that no traced line reached, and one total line. Module and class
bodies are left out: importing runs them. It uses the standard library and
the suite's own runner, and takes about 70 s on a 2-vCPU VM.

A statement counts as run when any line of it ran; a compound statement
(``if``, ``for``, ``with``, ...) counts by its header, and its body's
statements count on their own. Docstrings, ``pass``, ``global``,
``nonlocal`` and ``try`` emit no line of their own and are not counted.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
SRC = os.path.join(ROOT, "src", "bftledger")
DESELECTED = ("tests/test_acceptance.py::test_acceptance_2_bounded_model_check",
              "tests/test_mutants.py")
_SILENT = (ast.Pass, ast.Global, ast.Nonlocal, ast.Try)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _own_lines(stmt: ast.stmt) -> range:
    """The lines whose running counts as running ``stmt``: all of a simple
    statement, the header of a compound one."""
    start = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        return range(start, body[0].lineno)
    return range(start, stmt.end_lineno + 1)


def _statements(func: ast.AST):
    """Every statement of ``func``'s body, down to (not into) nested scopes."""
    body = func.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]  # the docstring
    todo = list(body)
    while todo:
        stmt = todo.pop()
        if not isinstance(stmt, _SILENT):
            yield stmt
        if isinstance(stmt, _SCOPES):
            continue
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                todo.append(child)
            elif isinstance(child, (ast.excepthandler, ast.match_case)):
                todo.extend(child.body)


def function_statements(path: str) -> list[ast.stmt]:
    """Each function-body statement of the module at ``path``, in line order."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    found = [stmt for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for stmt in _statements(node)]
    return sorted(found, key=lambda stmt: stmt.lineno)


def traced_run(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run pytest on ``args``; its exit code and every (file, line) run in ``SRC``."""
    import pytest

    hits: set[tuple[str, int]] = set()

    def local(frame, event, _arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, _event, _arg):
        return local if frame.f_code.co_filename.startswith(SRC) else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main() -> int:
    sys.path.insert(0, os.path.dirname(SRC))
    os.chdir(ROOT)
    args = ["-q", "-p", "no:cacheprovider", "tests",
            *(arg for test in DESELECTED for arg in ("--deselect", test))]
    code, hits = traced_run(args)
    total = raises = 0
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as f:
            source = f.read().splitlines()
        unrun = [stmt for stmt in function_statements(path)
                 if not any((path, line) in hits for line in _own_lines(stmt))]
        if not unrun:
            continue
        print(f"{name}: {len(unrun)} unrun")
        for stmt in unrun:
            print(f"  {name}:{stmt.lineno}: {source[stmt.lineno - 1].strip()}")
        total += len(unrun)
        raises += sum(isinstance(stmt, ast.Raise) for stmt in unrun)
    print(f"{total} unrun function-body statements in src/bftledger, {raises} of them raise"
          f" (tier-1 exit code {code})")
    return code


if __name__ == "__main__":
    sys.exit(main())
