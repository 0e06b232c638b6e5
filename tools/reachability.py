#!/usr/bin/env python3
"""List the tfkeyrate functions that no CLI command on the shipped configs calls.

Usage (from the root of a source checkout):

    python3 tools/reachability.py

The script installs a `sys.setprofile` hook, imports `tfkeyrate.cli` and
answers six commands in-process through `tfkeyrate.cli.main`, writing every
output into a temporary directory:

    keyrate    --config configs/link_a_c.json
    keyrate    --config configs/link_a_c.json --asymptotic
    sns-check  --config configs/sns_symmetric.json
    montecarlo --config configs/montecarlo_toy.json
    network    --config configs/network_four_users.json
    scan       --config configs/scan_symmetric.json

It then parses every module of `src/tfkeyrate` and prints, one per line as
`path:line qualname`, each function or method defined there (nested
functions included, lambdas not) whose code never ran, followed by one JSON
line with the command exit codes and the counts.  A function listed here is
either an error path, called only by tests, or dead.  The scan takes about a
minute; nothing is timed.
"""

from __future__ import annotations

import ast
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "tfkeyrate")

COMMANDS = (
    ("keyrate", "link_a_c.json", []),
    ("keyrate", "link_a_c.json", ["--asymptotic"]),
    ("sns-check", "sns_symmetric.json", []),
    ("montecarlo", "montecarlo_toy.json", []),
    ("network", "network_four_users.json", []),
    ("scan", "scan_symmetric.json", []),
)


def defined_functions(path: str) -> list[tuple[str, tuple[int, ...]]]:
    """(qualname, candidate first lines) of every def in a module.

    A decorated function's code may start at its first decorator or at its
    def line, so both are candidates.
    """
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                lines = {child.lineno, *(d.lineno for d in child.decorator_list)}
                found.append((name, tuple(sorted(lines))))
                visit(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def run_commands(out_dir: str) -> tuple[set[tuple[str, int]], list[int]]:
    """Answer COMMANDS under a profile hook; (filename, first line) of every
    code object called, and the exit codes."""
    called: set[tuple[str, int]] = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.setprofile(profile)
    try:
        from tfkeyrate import cli

        codes = []
        for index, (command, config, extra) in enumerate(COMMANDS):
            out = os.path.join(out_dir, f"{index}-{command}.out")
            argv = [command, "--config", os.path.join(ROOT, "configs", config), "--out", out, *extra]
            codes.append(cli.main(argv))
    finally:
        sys.setprofile(None)
    return called, codes


def main() -> int:
    with tempfile.TemporaryDirectory() as out_dir:
        called, codes = run_commands(out_dir)
    called_lines = {(os.path.realpath(f), line) for f, line in called}
    total = 0
    unreached = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.realpath(os.path.join(SRC, name))
        for qualname, lines in defined_functions(path):
            total += 1
            if not any((path, line) in called_lines for line in lines):
                unreached.append(f"{os.path.relpath(path, ROOT)}:{lines[-1]} {qualname}")
    print("\n".join(unreached))
    print(json.dumps({"exit_codes": codes, "functions": total, "unreached": len(unreached)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
