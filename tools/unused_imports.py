#!/usr/bin/env python3
"""List the names that an import binds and its module never reads.

    python3 tools/unused_imports.py src tests tools demos

Parses every ``.py`` file under the given paths (files or directories) with
:mod:`ast`.  A name counts as read when it is loaded anywhere in the
module; ``from __future__`` imports and the names listed in the module's
``__all__`` are exempt.  Prints ``file:line: name`` for each finding and
exits 1 if there is any.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    nodes = list(ast.walk(tree))
    read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and "__all__" in (getattr(t, "id", None) for t in node.targets):
            read.update(ast.literal_eval(node.value))
    found = []
    for node in nodes:
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and name not in read:
                    found.append((node.lineno, name))
    return found


def main(args: list[str]) -> int:
    files = sorted(f for arg in map(Path, args)
                   for f in ([arg] if arg.is_file() else arg.rglob("*.py")))
    findings = [f"{path}:{line}: {name}" for path in files
                for line, name in unused_imports(ast.parse(path.read_text(), str(path)))]
    for finding in findings:
        print(finding)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
