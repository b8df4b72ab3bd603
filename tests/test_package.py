"""The package's export list: every name in ``__all__`` resolves; no
module binds an import it never uses; every public top-level function
and class has a reader outside the tests; JSON documents are read in
one place and written in one format; only ``model`` tells a bool from
an int, tests for an int or states the id rule; ``EdrEvent``'s
hand-written constructor takes exactly its fields."""

from __future__ import annotations

import ast
import inspect
from dataclasses import MISSING, fields
from pathlib import Path

import trustgate
from trustgate.model import EdrEvent

NOQA = "# noqa: F401"
REPO = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in trustgate.__all__
               if not hasattr(trustgate, name)]
    assert missing == []


def test_export_list_has_no_duplicates():
    assert len(set(trustgate.__all__)) == len(trustgate.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from trustgate import *", namespace)
    assert set(trustgate.__all__) <= set(namespace)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read, except on a statement
    or name whose line carries ``# noqa: F401``."""

    tree = ast.parse(source)
    lines = source.splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            exempt = (NOQA in lines[node.lineno - 1]
                      or NOQA in lines[alias.lineno - 1])
            if name not in used and not exempt:
                unused.append(name)
    return unused


def test_unused_import_scan_finds_and_exempts():
    source = (
        "import os\nimport sys  # noqa: F401\n"
        "from json import (dumps,\n    loads)\nloads\n"
    )
    assert unused_imports(source) == ["os", "dumps"]


def test_no_module_binds_an_unused_import():
    package = Path(trustgate.__file__).parent
    found = {
        path.name: unused_imports(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in found.items() if names} == {}


def json_load_lines(source: str) -> list[int]:
    """Lines that call ``json.load`` or import ``load`` from json."""

    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "load"
                and isinstance(node.value, ast.Name)
                and node.value.id == "json"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "json"
                and any(alias.name == "load" for alias in node.names)):
            lines.append(node.lineno)
    return sorted(lines)


def test_json_load_scan_finds_calls_and_imports():
    source = (
        "import json\njson.loads('1')\nwith open(p) as fh:\n"
        "    json.load(fh)\nfrom json import dumps, load\n"
    )
    assert json_load_lines(source) == [4, 5]


def test_only_model_reads_json_documents():
    package = Path(trustgate.__file__).parent
    found = {
        path.name: json_load_lines(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
        if path.name != "model.py"
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def json_format_lines(source: str) -> list[int]:
    """Lines that call ``json.dump``, or ``json.dumps`` with ``indent=``."""

    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "json"):
            continue
        if node.func.attr == "dump" or (
                node.func.attr == "dumps"
                and any(kw.arg == "indent" for kw in node.keywords)):
            lines.append(node.lineno)
    return sorted(lines)


def test_json_format_scan_finds_dump_and_indented_dumps():
    source = (
        "import json\njson.dumps(obj)\njson.dump(obj, fh)\n"
        "json.dumps(obj, separators=(',', ':'))\n"
        "json.dumps(obj, sort_keys=True, indent=2)\n"
    )
    assert json_format_lines(source) == [3, 5]


def test_only_model_formats_json_documents():
    package = Path(trustgate.__file__).parent
    found = {
        path.name: json_format_lines(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
        if path.name != "model.py"
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def guard_lines(source: str, name: str) -> list[int]:
    """Lines of the ``isinstance`` calls that name the type ``name``."""

    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and any(isinstance(n, ast.Name) and n.id == name
                for arg in node.args[1:] for n in ast.walk(arg)))


GUARDS = (
    "isinstance(x, bool)\nisinstance(x, int)\n"
    "isinstance(x, (int, bool))\ntype(x) is bool\nbool(x)\nint(x)\n"
)


def test_bool_guard_scan_finds_calls():
    assert guard_lines(GUARDS, "bool") == [1, 3]


def test_int_guard_scan_finds_calls():
    assert guard_lines(GUARDS, "int") == [2, 3]


def outside_model(scan) -> dict[str, list[int]]:
    """The lines ``scan`` finds in each package module but ``model``,
    for the modules where it finds any."""

    package = Path(trustgate.__file__).parent
    found = {
        path.name: scan(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
        if path.name != "model.py"
    }
    return {name: lines for name, lines in found.items() if lines}


def test_only_model_tells_bools_from_ints():
    # bool is an int subclass; model.is_int is the one test that tells
    # them apart.
    assert outside_model(lambda source: guard_lines(source, "bool")) == {}


def test_only_model_tests_for_ints():
    # An isinstance test for int admits a bool; every other module asks
    # model.is_int instead.
    assert outside_model(lambda source: guard_lines(source, "int")) == {}


def id_rule_lines(source: str) -> list[int]:
    """Lines that spell the id rule's refusal."""

    return [number for number, line in enumerate(source.splitlines(), 1)
            if "must be a non-empty string" in line]


def test_only_model_states_the_id_rule():
    # model.check_id is the one check that an id is a non-empty string.
    assert outside_model(id_rule_lines) == {}


def public_defs(source: str) -> list[str]:
    """Names of the public top-level functions and classes."""

    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def names_read(source: str) -> set[str]:
    """Every name loaded, bare or as an attribute."""

    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_public_def_scan_finds_reads():
    source = (
        "def called(): pass\ndef unread(): pass\nclass _Hidden: pass\n"
        "class Used: pass\ncalled()\nmod.Used\nunread = 1\n"
    )
    assert public_defs(source) == ["called", "unread", "Used"]
    assert {"called", "Used"} <= names_read(source)
    assert "unread" not in names_read(source)


def test_every_public_def_is_read_outside_the_tests():
    package = Path(trustgate.__file__).parent
    modules = [path for path in sorted(package.glob("*.py"))
               if path.name != "__init__.py"]
    readers = [*modules, *sorted((REPO / "demos").glob("*.py")),
               *sorted((REPO / "bench").glob("*.py"))]
    read = set().union(*(names_read(path.read_text(encoding="utf-8"))
                         for path in readers))
    unread = {}
    for path in modules:
        unread[path.name] = [
            name for name in public_defs(path.read_text(encoding="utf-8"))
            if name not in read
        ]
    assert {name: names for name, names in unread.items() if names} == {}


def test_event_constructor_takes_the_fields_in_order():
    # EdrEvent writes its own __init__; the dataclass decorator keeps it,
    # so nothing else ties its parameters to the field list.
    params = list(inspect.signature(EdrEvent).parameters.values())
    assert [(p.name, p.kind, p.default) for p in params] == [
        (f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
         inspect.Parameter.empty if f.default is MISSING else f.default)
        for f in fields(EdrEvent)]
