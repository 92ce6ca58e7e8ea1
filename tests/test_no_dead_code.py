"""Every definition in ``src/vbfl`` is named by the program itself.

Each top-level function or class, and each method that is not a dunder,
must be named (as a Python name token, so not only in a string or a
comment) somewhere in ``src/``, ``scripts/`` or ``perfbench/`` outside its
own definition. A capability that only the tests call is a second way to
do something, or a format nothing reads; this check keeps one from coming
back unnoticed.
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM_DIRS = ("src", "scripts", "perfbench")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.Module):
    """Top-level functions and classes, and the non-dunder methods of those
    classes."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (
                item for item in node.body
                if isinstance(item, FUNCTIONS) and not is_dunder(item.name)
            )


def name_tokens(source: str) -> list[tuple[str, int]]:
    """(name, line) of every NAME token in source."""
    return [
        (tok.string, tok.start[0])
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.NAME
    ]


def unnamed_definitions(root: Path) -> list[str]:
    sources = {
        path: path.read_text()
        for top in PROGRAM_DIRS
        for path in sorted((root / top).rglob("*.py"))
    }
    names = {path: name_tokens(source) for path, source in sources.items()}
    missing = []
    for path in sorted((root / "src" / "vbfl").glob("*.py")):
        for node in definitions(ast.parse(sources[path])):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            named = any(
                name == node.name
                for other, tokens in names.items()
                for name, n in tokens
                if other != path or not first <= n <= node.end_lineno
            )
            if not named:
                missing.append(f"{path.relative_to(root)}:{node.lineno} {node.name}")
    return missing


def test_every_definition_is_named_by_the_program():
    assert unnamed_definitions(ROOT) == []


def test_the_check_sees_an_unnamed_definition(tmp_path):
    package = tmp_path / "src" / "vbfl"
    package.mkdir(parents=True)
    (package / "m.py").write_text(
        "def used():\n    return helper()\n\n\n"
        "def helper():\n    return helper\n\n\n"
        "class C:\n    def __init__(self):\n        pass\n\n"
        "    def orphan(self):\n        return self.orphan\n"
    )
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "run.py").write_text(
        "from vbfl.m import used, C\n\n"
        "print({'orphan': used()})  # C.orphan is never called\n"
    )
    assert unnamed_definitions(tmp_path) == ["src/vbfl/m.py:13 orphan"]
