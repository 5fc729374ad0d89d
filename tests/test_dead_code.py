"""Every public function under ``src/repro`` is referenced somewhere.

A non-underscore ``def`` (function or method) whose name appears
nowhere in ``src``, ``tests``, ``benchmarks``, ``examples``, ``tools``
or ``perfbench`` except at its own definition is dead code: delete it,
or, if it is reached only by a name built at run time, add it to
:data:`ALLOWED`.  The check is by name, so a reference to any
same-named function keeps a definition alive.
"""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks", "examples", "tools", "perfbench")

#: Names dispatched by a name built at run time, which no text search
#: can see.
ALLOWED: frozenset = frozenset()


def unreferenced_defs():
    """``(path, line, name)`` of every public def nothing names."""
    texts = {path: path.read_text()
             for top in SCANNED for path in (ROOT / top).rglob("*.py")}
    defs = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(texts[path])):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not node.name.startswith("_")):
                defs.append((path.relative_to(ROOT).as_posix(),
                             node.lineno, node.name))
    words = collections.Counter()
    for text in texts.values():
        words.update(re.findall(r"[A-Za-z_]\w*", text))
    defined = collections.Counter(name for _path, _line, name in defs)
    return [(path, line, name) for path, line, name in defs
            if words[name] <= defined[name] and name not in ALLOWED]


def test_every_public_def_is_referenced():
    assert unreferenced_defs() == []
