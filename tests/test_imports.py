"""Every imported name is used, and every exported name has a caller: two
checks on the standard library's ast.

A name bound by an import must be referenced somewhere in its file, be listed
in the file's `__all__`, or sit on a line marked `# noqa: F401` (a name kept
for callers outside the file).

A name in `cyclecap.__all__`, and every module-level def, class and
assigned name of a module of the package (dunder names aside), must be
referenced by a module of the package or of `perfbench/`, outside its own
definition; `__init__.py` and the tests do not count. So must every public
method and property of a class in `cyclecap.__all__`, by attribute name. The
allowlists name each exception and why it stays.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("src/cyclecap/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(source: str):
    """(line, name) for every imported name the source never references."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [(a.asname or a.name) for a in node.names]
        else:
            continue
        if "# noqa: F401" not in lines[node.lineno - 1]:
            for name in names:
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\n__all__ = ['tau']\n"
    assert unused_imports(source) == [(1, "os"), (3, "pi")]


# Exported for users though nothing in the package calls them.
EXPORT_ALLOWLIST = {
    "sample_permutation": "the documented permutation sampler; the package itself draws cycle types",
    "sample_type_array": "the dense count-matrix sampler that acceptance criterion 3 draws from",
}
CALLER_FILES = sorted(
    p
    for p in [*ROOT.glob("src/cyclecap/*.py"), *ROOT.glob("perfbench/*.py")]
    if p.name != "__init__.py"
)


def defined_names(stmt):
    """Names a module-level statement binds by def, class or assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {node.id for t in stmt.targets for node in ast.walk(t) if isinstance(node, ast.Name)}
    return set()


def referenced_names(source: str):
    """Names and attributes the source reads, outside the statement that defines each name."""
    names = set()
    for stmt in ast.parse(source).body:
        here = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                here.add(node.id)
            elif isinstance(node, ast.Attribute):
                here.add(node.attr)
        names |= here - defined_names(stmt)
    return names


def exported_names(init_source: str):
    """The names in `__all__` of the init source."""
    return next(
        ast.literal_eval(node.value)
        for node in ast.parse(init_source).body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
    )


def uncalled_exports(init_source: str, caller_sources):
    """Names in `__all__` of the init source that no caller source references."""
    exported = exported_names(init_source)
    used = set().union(*(referenced_names(s) for s in caller_sources))
    return sorted(name for name in exported if name not in used)


def test_every_export_has_a_caller():
    init = (ROOT / "src/cyclecap/__init__.py").read_text()
    uncalled = uncalled_exports(init, [p.read_text() for p in CALLER_FILES])
    assert uncalled == sorted(EXPORT_ALLOWLIST)


def test_the_check_sees_an_uncalled_export():
    init = "from .a import f, g, h\n__all__ = ['f', 'g', 'h']\n"
    callers = ["def f():\n    return f()\n", "from .a import g\ng()\n", "import pkg\npkg.h()\n"]
    assert uncalled_exports(init, callers) == ["f"]
    assert uncalled_exports(init, [*callers, "def k():\n    return f()\n"]) == []
    assert uncalled_exports(init, ["from .a import f, g, h  # noqa: F401\n"]) == ["f", "g", "h"]


# Module-level names kept though nothing in the package reads them.
NAME_ALLOWLIST = {
    **EXPORT_ALLOWLIST,
    "power_probe": "ROADMAP direction 5's prefactor",
}


def unread_module_names(module_sources, caller_sources):
    """Module-level names of the module sources, dunders aside, that no caller source references."""
    used = set().union(*(referenced_names(s) for s in caller_sources))
    defined = {name for s in module_sources for stmt in ast.parse(s).body for name in defined_names(stmt)}
    return sorted(name for name in defined - used if not (name.startswith("__") and name.endswith("__")))


def test_every_module_level_name_is_read():
    modules = [p.read_text() for p in CALLER_FILES if p.parent.name == "cyclecap"]
    unread = unread_module_names(modules, [p.read_text() for p in CALLER_FILES])
    assert unread == sorted(NAME_ALLOWLIST)


def test_the_check_sees_a_leftover_module_name():
    module = "_FFT_C = 8.0\n_EPS = 1e-16\n__all__ = []\n\ndef _norm(v):\n    return _norm(v) * _EPS\n"
    assert unread_module_names([module], [module]) == ["_FFT_C", "_norm"]
    assert unread_module_names([module], [module, "import m\nm._norm(m._FFT_C)\n"]) == []


# Public methods and properties of exported classes kept though nothing in the package reads them.
METHOD_ALLOWLIST = {
    "CycleType.lengths": "perfbench/tests/test_bench_oracle.py reads it to check the integer oracle",
}


def read_attributes(node, own=""):
    """Attribute names read under node, each def or class's own name aside within its body."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        own = node.name
    names = {node.attr} if isinstance(node, ast.Attribute) else set()
    for child in ast.iter_child_nodes(node):
        names |= read_attributes(child, own)
    return names - {own}


def uncalled_methods(module_sources, exported, caller_sources):
    """Class.method for every public method or property of an exported class that no caller reads."""
    used = set().union(*(read_attributes(ast.parse(s)) for s in caller_sources))
    return sorted(
        f"{stmt.name}.{item.name}"
        for s in module_sources
        for stmt in ast.parse(s).body
        if isinstance(stmt, ast.ClassDef) and stmt.name in exported
        for item in stmt.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
        and item.name not in used
    )


def test_every_public_method_is_read():
    exported = exported_names((ROOT / "src/cyclecap/__init__.py").read_text())
    modules = [p.read_text() for p in CALLER_FILES if p.parent.name == "cyclecap"]
    uncalled = uncalled_methods(modules, exported, [p.read_text() for p in CALLER_FILES])
    assert uncalled == sorted(METHOD_ALLOWLIST)


def test_the_check_sees_an_uncalled_method():
    module = (
        "class A:\n"
        "    def f(self):\n        return self.f()\n"
        "    @property\n    def g(self):\n        return self.h()\n"
        "    def h(self):\n        return 1\n"
        "    def _k(self):\n        return 2\n"
        "    def __len__(self):\n        return 3\n"
        "class B:\n"
        "    def f(self):\n        return 4\n"
    )
    assert uncalled_methods([module], ["A"], [module]) == ["A.f", "A.g"]
    assert uncalled_methods([module], ["A", "B"], [module]) == ["A.f", "A.g", "B.f"]
    # a plain name is not an attribute read; an attribute read anywhere else is
    assert uncalled_methods([module], ["A"], [module, "f = g = 0\nf + g\n"]) == ["A.f", "A.g"]
    assert uncalled_methods([module], ["A"], [module, "def k(a):\n    return a.f() + a.g\n"]) == []
