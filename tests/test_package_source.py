"""Source guards over the whole package: no function calls itself by
name, no invariant is left to an ``assert`` statement (which
``python -O`` strips), no module-level function or method is dead, no
parameter is unread, no module-level function keeps an unbounded
cache, no import statement sits in a function body, no module imports
``dataclasses`` (whose import and class generation cost every command
about 20 ms of start-up), and every exported name resolves, is exported
once, and is used by the program or named in the README's library
section."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import branetile as bt

SOURCES = sorted(Path(bt.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
# the package, the benchmark harness and the scripts, without tests
PROGRAM = sorted(path for folder in ("src", "perfbench", "scripts")
                 for path in (ROOT / folder).rglob("*.py")
                 if "tests" not in path.relative_to(ROOT).parts)


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def self_calls(tree: ast.AST) -> list:
    """``(function name, line)`` of every call, inside a function's body
    or a body nested in it, of that function by its own name: plainly,
    or as an attribute of ``self`` or ``cls``."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name):
                named = f.id == fn.name
            else:
                named = (isinstance(f, ast.Attribute) and f.attr == fn.name
                         and isinstance(f.value, ast.Name)
                         and f.value.id in ("self", "cls"))
            if named:
                found.append((fn.name, node.lineno))
    return found


def test_the_guard_sees_direct_and_nested_self_calls():
    tree = ast.parse(
        "def fact(n):\n"
        "    return 1 if n < 2 else n * fact(n - 1)\n"
        "class Walk:\n"
        "    def step(self, k):\n"
        "        def inner():\n"
        "            return self.step(k - 1)\n"
        "        return inner() if k else 0\n"
        "def other(x):\n"
        "    return fact(x)\n")
    assert self_calls(tree) == [("fact", 2), ("step", 6)]


def test_no_function_in_the_package_calls_itself_by_name():
    found = [f"{path.name}:{line} {name}" for path in SOURCES
             for name, line in self_calls(parse(path))]
    assert found == []


def test_the_package_has_no_assert_statements():
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(parse(path)) if isinstance(node, ast.Assert)]
    assert found == []


def referenced_names(trees) -> set:
    """Every name and attribute name the trees use."""
    referenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return referenced


def unreferenced_functions(trees: dict, exported) -> list:
    """``module.function`` for every module-level function that no
    module refers to, by name or as an attribute, and that is not in
    ``exported``.  A same-named variable elsewhere hides a function, so
    the guard can miss dead code but never flags live code."""
    referenced = referenced_names(trees.values())
    return [f"{module}.{fn.name}" for module, tree in trees.items()
            for fn in tree.body
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and fn.name not in referenced and fn.name not in exported]


def test_the_guard_sees_unreferenced_functions():
    trees = {
        "a": ast.parse("def used():\n    pass\n"
                       "def public():\n    pass\n"
                       "def dead():\n    return used()\n"),
        "b": ast.parse("from . import a\n"
                       "def caller():\n    return a.dead\n"),
    }
    assert unreferenced_functions(trees, {"public"}) == ["b.caller"]


def test_every_function_in_the_package_is_referenced_or_exported():
    trees = {path.stem: parse(path) for path in SOURCES}
    assert unreferenced_functions(trees, set(bt.__all__)) == []


def unreferenced_methods(trees: dict, program) -> list:
    """``module.Class.method`` for every method or property, dunders
    aside, whose name no tree in ``program`` uses as an attribute.  A
    method is reached through an instance or a class, so a bare name,
    such as a local variable, does not keep it; a same-named attribute
    anywhere does, so the guard can miss dead code but never flags live
    code."""
    referenced = {node.attr for tree in program for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
    return [f"{module}.{cls.name}.{fn.name}"
            for module, tree in trees.items()
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not fn.name.startswith("__") and fn.name not in referenced]


def unread_parameters(tree: ast.AST) -> list:
    """Sorted ``(function, parameter)`` for every parameter, ``self``
    and ``cls`` aside, that its function's body never loads by name; a
    nested function reading it counts, as it sees the same variable."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        params = [a.arg for a in (*args.posonlyargs, *args.args,
                                  *args.kwonlyargs, args.vararg, args.kwarg)
                  if a is not None]
        read = {node.id for statement in fn.body
                for node in ast.walk(statement)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        found += [(fn.name, p) for p in params
                  if p not in ("self", "cls") and p not in read]
    return sorted(found)


def test_the_guard_sees_dead_methods_and_unread_parameters():
    tree = ast.parse(
        "class Box:\n"
        "    def __init__(self, x):\n"
        "        self.x = x\n"
        "    @property\n"
        "    def size(self):\n"
        "        return self.x\n"
        "    def dead(self, unused):\n"
        "        return 0\n"
        "    def degree(self):\n"
        "        return 1\n"
        "def scale(a, b, *rest, c=1, **extra):\n"
        "    def inner(d):\n"
        "        return a * d\n"
        "    c = 2\n"
        "    return inner(c) + len(rest)\n")
    # a local variable named as a method does not keep the method
    user = ast.parse("def area(box):\n"
                     "    degree = 2\n"
                     "    return box.size ** degree\n")
    assert unreferenced_methods({"m": tree}, [tree, user]) == [
        "m.Box.dead", "m.Box.degree"]
    assert unread_parameters(tree) == [
        ("dead", "unused"), ("scale", "b"), ("scale", "extra")]


# methods that no program code calls, each with its reason
UNCALLED_BY_DESIGN = [
    "lattice.LatticeTower.degree",  # offered by the README's library section
]


def test_every_method_in_the_package_is_referenced():
    trees = {path.stem: parse(path) for path in SOURCES}
    assert unreferenced_methods(trees, map(parse, PROGRAM)) \
        == UNCALLED_BY_DESIGN


# parameters left unread on purpose, each with its reason
UNREAD_BY_DESIGN = []


def test_every_parameter_in_the_package_is_read():
    found = [f"{path.stem}.{fn}({param})" for path in SOURCES
             for fn, param in unread_parameters(parse(path))]
    assert found == UNREAD_BY_DESIGN


def test_every_exported_name_resolves_and_is_listed_once():
    missing = [name for name in bt.__all__ if not hasattr(bt, name)]
    repeated = sorted({name for name in bt.__all__
                       if bt.__all__.count(name) > 1})
    assert (missing, repeated) == ([], [])


def library_names(readme: str) -> set:
    """The names that a README's ``## Library`` section gives: every
    dotted part of a name in backticks, and every ``bt.<name>``."""
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return ({part for span in re.findall(r"`([\w.]+)`", section)
             for part in span.split(".")}
            | set(re.findall(r"\bbt\.(\w+)", section)))


def unused_exports(exported, program: list, named: set) -> list:
    """Sorted names in ``exported`` that no tree in ``program`` uses as a
    name, an attribute or an import, and that ``named`` does not hold."""
    used = referenced_names(program) | {
        part for tree in program for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names for part in alias.name.split(".")}
    return sorted(set(exported) - used - named)


def test_the_guard_sees_exports_nothing_uses_or_names():
    program = [ast.parse("from .a import imported, called\n"
                         "def f(m):\n"
                         "    return called(m.read)\n")]
    readme = ("# pkg\n## Library\n\n"
              "```python\nbt.in_code(1)\n```\n\n"
              "See `mod.in_ticks` and `Box.method`.\n"
              "## Other\n\n`elsewhere` and bt.later\n")
    exported = ["imported", "called", "read", "in_code", "in_ticks", "Box",
                "method", "elsewhere", "later", "dead"]
    assert unused_exports(exported, program, library_names(readme)) == [
        "dead", "elsewhere", "later"]


def test_every_exported_name_is_used_by_the_program_or_documented():
    init = ROOT / "src" / "branetile" / "__init__.py"
    program = [parse(path) for path in PROGRAM if path != init]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert unused_exports(bt.__all__, program, library_names(readme)) == []


def unbounded_caches(tree: ast.Module) -> list:
    """Names of the module-level functions decorated with
    ``functools.cache``, or with ``functools.lru_cache`` given a
    ``maxsize`` that is not an integer literal (``None`` is unbounded;
    a bare or empty ``lru_cache`` keeps 128 entries).  The decorators
    count whether imported from ``functools`` or reached through it."""
    found = []
    for fn in tree.body:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in fn.decorator_list:
            call = decorator if isinstance(decorator, ast.Call) else None
            target = call.func if call else decorator
            name = (target.attr if isinstance(target, ast.Attribute)
                    else getattr(target, "id", None))
            if name == "lru_cache" and call is not None:
                sizes = call.args[:1] + [k.value for k in call.keywords
                                         if k.arg == "maxsize"]
                unbounded = any(not (isinstance(size, ast.Constant)
                                     and type(size.value) is int)
                                for size in sizes)
            else:
                unbounded = name == "cache"
            if unbounded:
                found.append(fn.name)
    return found


def test_the_guard_sees_unbounded_caches():
    tree = ast.parse(
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@functools.cache\ndef a(x):\n    return x\n"
        "@cache\ndef b(x):\n    return x\n"
        "@functools.lru_cache(maxsize=None)\ndef c(x):\n    return x\n"
        "@lru_cache(None)\ndef d(x):\n    return x\n"
        "@functools.lru_cache(maxsize=SIZE)\ndef e(x):\n    return x\n"
        "@functools.lru_cache(maxsize=1)\ndef f(x):\n    return x\n"
        "@lru_cache(64, typed=True)\ndef g(x):\n    return x\n"
        "@lru_cache\ndef h(x):\n    return x\n"
        "@functools.lru_cache()\ndef i(x):\n    return x\n"
        "@functools.cached_property\ndef j(x):\n    return x\n"
        "def k(x):\n"
        "    @functools.cache\n"
        "    def inner(y):\n"
        "        return y\n"
        "    return inner(x)\n")
    assert unbounded_caches(tree) == ["a", "b", "c", "d", "e"]


def test_no_module_level_function_keeps_an_unbounded_cache():
    found = [f"{path.name} {name}" for path in SOURCES
             for name in unbounded_caches(parse(path))]
    assert found == []


def imports_in_functions(tree: ast.AST) -> list:
    """Sorted lines of every ``import`` or ``from ... import`` statement
    in the body of a function or method, or of one nested in it."""
    return sorted({node.lineno for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_the_guard_sees_imports_inside_functions():
    tree = ast.parse(
        "import os\n"
        "from . import a\n"
        "def f():\n"
        "    import sys\n"
        "    def g():\n"
        "        from . import b\n"
        "    return g\n"
        "class C:\n"
        "    from . import c\n"
        "    def m(self):\n"
        "        if self:\n"
        "            import json\n")
    assert imports_in_functions(tree) == [4, 6, 12]


def test_no_function_in_the_package_imports():
    found = [f"{path.name}:{line}" for path in SOURCES
             for line in imports_in_functions(parse(path))]
    assert found == []


def imported_modules(tree: ast.AST) -> set:
    """The top-level name of every module an absolute ``import`` or
    ``from ... import`` statement loads, anywhere in the tree."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_the_guard_sees_every_form_of_import():
    tree = ast.parse(
        "import dataclasses as dc\n"
        "import os.path\n"
        "from typing import NamedTuple\n"
        "from . import tiling\n"
        "from .fan import Fan\n"
        "class C:\n"
        "    from inspect import signature\n")
    assert imported_modules(tree) == {"dataclasses", "os", "typing",
                                      "inspect"}


def test_no_module_in_the_package_imports_dataclasses():
    found = [path.name for path in SOURCES
             if "dataclasses" in imported_modules(parse(path))]
    assert found == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter without ``site``, so nothing but the package
    # and what it imports is loaded
    env = {**os.environ, "PYTHONPATH": str(Path(bt.__file__).parents[1])}
    probe = ("import sys, branetile.cli\n"
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"
