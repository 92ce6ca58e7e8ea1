"""Every definition in ``src/vbfl`` is named by the program itself.

Each top-level function or class, and each method that is not a dunder,
must be named (as a Python name token, so not only in a string or a
comment) somewhere in ``src/``, ``scripts/`` or ``perfbench/`` outside its
own definition. A capability that only the tests call is a second way to
do something, or a format nothing reads; this check keeps one from coming
back unnoticed.

Each parameter of a package function must be read by its body, but for a
method that shares its name with a base-class method (both keep one
signature) and the parameters listed in ``UNREAD_ALLOWED``.

Each attribute a package class stores (a field annotated in its body, or
an attribute its methods set on ``self``) must be loaded by name somewhere
in the program, but for those listed in ``UNLOADED_ALLOWED``. A load inside
an assignment to an attribute of that name only updates it and does not
count, so a counter nothing reads is caught.

No package module imports an underscore name from another: a helper that
crosses a module boundary gets a public name.

Each name a package module imports must be loaded in that module, but for
``__init__.py``, whose imports are re-exports, ``from __future__`` imports
and the names listed in ``UNUSED_IMPORT_ALLOWED``.

Each entry of those three lists must exempt something: an entry whose
check finds the same without it is stale, and is named.
"""

import ast
import io
import tokenize
from pathlib import Path

import pytest

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


# Parameters a function may leave unread, with the reason.
UNREAD_ALLOWED = {
    # perfbench/tracer.py::_note_vote reads it from the call's arguments;
    # ROADMAP item 14 deletes it with that benchmark change.
    ("validate_by_voting", "update"),
}


def methods(cls: ast.ClassDef) -> dict[str, ast.AST]:
    return {f.name: f for f in cls.body if isinstance(f, FUNCTIONS)}


def overridden(classes: dict[str, ast.ClassDef]) -> set[int]:
    """ids of the methods that share a name with a method of a base class
    defined in the package, on both sides: they keep one signature."""
    out: set[int] = set()
    for cls in classes.values():
        for base in cls.bases:
            if isinstance(base, ast.Name) and base.id in classes:
                mine, theirs = methods(cls), methods(classes[base.id])
                out |= {id(f) for name in mine.keys() & theirs.keys()
                        for f in (mine[name], theirs[name])}
    return out


def unread_parameters(root: Path, allowed=UNREAD_ALLOWED) -> list[str]:
    """Parameters of package functions (methods and nested functions too)
    that the function body never reads, but for an overridden method."""
    trees = {
        path: ast.parse(path.read_text()) for path in sorted((root / "src" / "vbfl").glob("*.py"))
    }
    classes = {
        node.name: node for tree in trees.values() for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    exempt = overridden(classes)
    unread = []
    for path, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, FUNCTIONS) or id(fn) in exempt:
                continue
            a = fn.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            read = {
                node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            unread += [
                f"{path.relative_to(root)}:{fn.lineno} {fn.name}({p.arg})"
                for p in params
                if p is not None and p.arg not in read and (fn.name, p.arg) not in allowed
            ]
    return sorted(unread)


# Attributes a package class may store that the program never loads by
# name, with the reason; "*" stands for every field of the class.
UNLOADED_ALLOWED = {
    # perfbench/measure.py builds RunResult positionally; ROADMAP item 1b
    # deletes the field with that benchmark change.
    ("RunResult", "out_dir"),
}


def stored_attributes(cls: ast.ClassDef) -> dict[str, int]:
    """The first line that stores each field annotated in the class body or
    attribute a method sets on its first parameter, by name."""
    stored: dict[str, int] = {}
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            stored.setdefault(node.target.id, node.lineno)
        if isinstance(node, FUNCTIONS) and node.args.args:
            me = node.args.args[0].arg
            for n in ast.walk(node):
                if (
                    isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                    and isinstance(n.value, ast.Name) and n.value.id == me
                ):
                    stored.setdefault(n.attr, n.lineno)
    return stored


def loaded_attributes(tree: ast.Module) -> set[str]:
    """Names of the attributes tree loads, but for a load inside an
    assignment to an attribute of the same name: that only updates it."""
    updating: set[int] = set()
    for stmt in ast.walk(tree):
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = {t.attr for t in targets if isinstance(t, ast.Attribute)}
            updating |= {
                id(n) for n in ast.walk(stmt) if isinstance(n, ast.Attribute) and n.attr in names
            }
    return {
        n.attr for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load) and id(n) not in updating
    }


def unloaded_attributes(root: Path, allowed=UNLOADED_ALLOWED) -> list[str]:
    loads = set().union(*(
        loaded_attributes(ast.parse(path.read_text()))
        for top in PROGRAM_DIRS
        for path in sorted((root / top).rglob("*.py"))
    ))
    unloaded = []
    for path in sorted((root / "src" / "vbfl").glob("*.py")):
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef) or (cls.name, "*") in allowed:
                continue
            unloaded += [
                f"{path.relative_to(root)}:{line} {cls.name}.{name}"
                for name, line in stored_attributes(cls).items()
                if name not in loads and (cls.name, name) not in allowed
            ]
    return unloaded


def private_imports(root: Path) -> list[str]:
    """Underscore names (dunders aside) that a package module imports from
    another package module."""
    found = []
    for path in sorted((root / "src" / "vbfl").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "vbfl"
            ):
                found += [
                    f"{path.relative_to(root)}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not is_dunder(alias.name)
                ]
    return found


# (module, name) imports a module may leave unloaded, with the reason.
UNUSED_IMPORT_ALLOWED = {
    # perfbench/tracer.py wraps these names of the orchestrator module;
    # ROADMAP item 14 retires them with that benchmark change.
    ("orchestrator", "local_train"),
    ("orchestrator", "pretrain_one_epoch"),
}


def unused_imports(root: Path, allowed=UNUSED_IMPORT_ALLOWED) -> list[str]:
    """Names a package module (``__init__.py`` aside) imports and never loads."""
    unused = []
    for path in sorted((root / "src" / "vbfl").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        loaded = {
            n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [
                    f"{path.relative_to(root)}:{node.lineno} {name}"
                    for alias in node.names
                    for name in [alias.asname or alias.name.split(".")[0]]
                    if name not in loaded and (path.stem, name) not in allowed
                ]
    return unused


def stale_entries(check, root: Path, allowed: set) -> list:
    """The entries of allowed that exempt nothing: check(root) finds the
    same without each of them."""
    found = check(root, allowed)
    return sorted(entry for entry in allowed if check(root, allowed - {entry}) == found)


ALLOWLISTS = {
    "UNREAD_ALLOWED": (unread_parameters, UNREAD_ALLOWED),
    "UNLOADED_ALLOWED": (unloaded_attributes, UNLOADED_ALLOWED),
    "UNUSED_IMPORT_ALLOWED": (unused_imports, UNUSED_IMPORT_ALLOWED),
}


def test_every_definition_is_named_by_the_program():
    assert unnamed_definitions(ROOT) == []


def test_every_parameter_is_read():
    assert unread_parameters(ROOT) == []


def test_every_stored_attribute_is_loaded():
    assert unloaded_attributes(ROOT) == []


def test_no_module_imports_a_private_name():
    assert private_imports(ROOT) == []


def test_every_import_is_used():
    assert unused_imports(ROOT) == []


@pytest.mark.parametrize("allowlist", sorted(ALLOWLISTS))
def test_every_allowlist_entry_exempts_something(allowlist):
    check, allowed = ALLOWLISTS[allowlist]
    assert stale_entries(check, ROOT, allowed) == []


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


def test_the_check_sees_an_unread_parameter(tmp_path):
    package = tmp_path / "src" / "vbfl"
    package.mkdir(parents=True)
    (package / "m.py").write_text(
        "class Base:\n    def hook(self, x):\n        raise NotImplementedError\n\n\n"
        "class Child(Base):\n    def hook(self, x):\n        return 0\n\n"
        "    def other(self, y):\n        return self\n\n\n"
        "def f(a, b, *, c):\n    def inner(d):\n        return a\n    return inner(c)\n"
    )
    # Both hooks keep the one signature; every other unread parameter is named.
    assert unread_parameters(tmp_path) == [
        "src/vbfl/m.py:10 other(y)",
        "src/vbfl/m.py:14 f(b)",
        "src/vbfl/m.py:15 inner(d)",
    ]


def test_the_check_sees_an_unloaded_attribute(tmp_path):
    package = tmp_path / "src" / "vbfl"
    package.mkdir(parents=True)
    (package / "m.py").write_text(
        "class Shard:\n"
        "    size: int\n"
        "    label: str\n\n"
        "    def __init__(self, data):\n"
        "        self.data = data\n"
        "        self.reads = 0\n"
        "        self.hits = 0\n\n"
        "    def read(self):\n"
        "        self.reads += 1\n"
        "        self.hits = self.hits + 1\n"
        "        return self.data, self.size\n"
    )
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "run.py").write_text("print(shard.label)\n")
    # A field or attribute read anywhere counts; one only updated does not.
    assert unloaded_attributes(tmp_path) == [
        "src/vbfl/m.py:7 Shard.reads",
        "src/vbfl/m.py:8 Shard.hits",
    ]


def test_the_check_sees_a_private_import(tmp_path):
    package = tmp_path / "src" / "vbfl"
    package.mkdir(parents=True)
    (package / "m.py").write_text(
        "from __future__ import annotations\n\n"
        "import numpy as _np\n"
        "from . import n\n"
        "from .n import _helper, public\n"
        "from vbfl.n import __version__, _other\n"
        "from numpy import _globals\n"
    )
    assert private_imports(tmp_path) == ["src/vbfl/m.py:5 _helper", "src/vbfl/m.py:6 _other"]


def test_the_check_sees_an_unused_import(tmp_path):
    package = tmp_path / "src" / "vbfl"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from .m import used\n")
    (package / "m.py").write_text(
        "from __future__ import annotations\n\n"
        "import json\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Mapping, Sequence\n"
        "from .n import helper as h, other\n\n\n"
        "def used(xs: Sequence[int]) -> str:\n"
        "    return json.dumps(np.sum(xs), default=h)\n"
    )
    # A name counts as used once the module loads it, in an annotation too;
    # the package's __init__.py and the __future__ import are not checked.
    assert unused_imports(tmp_path) == [
        "src/vbfl/m.py:4 os",
        "src/vbfl/m.py:6 Mapping",
        "src/vbfl/m.py:7 other",
    ]


def test_the_check_names_a_stale_allowlist_entry(tmp_path):
    package = tmp_path / "src" / "vbfl"
    package.mkdir(parents=True)
    (package / "m.py").write_text(
        "class Shard:\n"
        "    size: int\n"
        "    label: str\n\n\n"
        "class Config:\n"
        "    seed: int\n\n\n"
        "def read(shard, config):\n"
        "    return shard.size + config.seed\n"
    )
    # Shard.label needs its entry; nothing needs the other two.
    allowed = {("Shard", "label"), ("Shard", "size"), ("Config", "*")}
    assert unloaded_attributes(tmp_path, allowed) == []
    assert stale_entries(unloaded_attributes, tmp_path, allowed) == [
        ("Config", "*"), ("Shard", "size"),
    ]
