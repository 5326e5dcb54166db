"""mpmath loads only for `asymptotics`, `table1` and `selftest`, and
argparse (with gettext and locale) never.

`asympt` is the one module that imports mpmath, and nothing imports
`asympt` at module level: the package serves its names on first use and
the CLI imports it inside the three commands.  The exact side (counts,
tables, streams, `compact`, `enumerate`) starts without it.  The CLI reads
its command line with its own table-driven parser, so no module of the
package imports argparse.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import compacta

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = "compacta"
ASYMPT_NAMES = ("FitResult", "SingularityData", "fit_constant", "singularity_data", "table1")

# runs in a fresh interpreter: argv[1] is the source root, argv[2] a tree file
CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import compacta.cli as cli
def loaded():
    return [m for m in ("mpmath", "argparse", "gettext", "locale") if m in sys.modules]
report = {"after import": loaded()}
for argv in (["count", "--kind", "compacted", "--n", "30"],
             ["sequence", "--family", "compacted", "--k", "3", "--upto", "40"],
             ["operator", "--family", "M", "--k", "4"],
             ["enumerate", "--n", "4", "--kind", "compacted"],
             ["compact", sys.argv[2]]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(argv)
    report[argv[0]] = [code, loaded()]
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.run(["asymptotics", "--k", "1", "--family", "relaxed"])
import compacta, compacta.asympt, compacta.dfinite
from compacta import CertificationError
report["asymptotics"] = [code, loaded(), out.getvalue()]
report["lazy names"] = compacta.singularity_data is compacta.asympt.singularity_data
report["one class"] = (CertificationError is compacta.asympt.CertificationError
                       is compacta.dfinite.CertificationError)
print(json.dumps(report))
"""


def test_exact_commands_never_load_mpmath(tmp_path):
    tree = tmp_path / "tree.sexp"
    tree.write_text("((. .) (. .))\n")
    done = subprocess.run([sys.executable, "-c", CHILD, str(SRC), str(tree)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report.pop("after import") == []
    code, loaded, out = report.pop("asymptotics")
    assert (code, loaded) == (0, ["mpmath"])
    assert out.startswith("k: 1\nfamily: relaxed\n")
    assert report.pop("lazy names") is True
    assert report.pop("one class") is True
    assert report == {command: [0, []]
                      for command in ("count", "sequence", "operator", "enumerate", "compact")}


def test_package_serves_the_asympt_names_lazily():
    assert set(ASYMPT_NAMES) <= set(dir(compacta))
    assert "CertificationError" in dir(compacta)
    for name in ASYMPT_NAMES:
        assert getattr(compacta, name) is getattr(compacta.asympt, name)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        compacta.no_such_name


# ---------------------------------------------------------------------------
# Static guard: a later module-level import would silently undo the boundary
# ---------------------------------------------------------------------------


def _module_level(node):
    """The nodes that run when the module is imported: all but function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _module_level(child)


def _imported(nodes) -> set[str]:
    """Dotted names of the modules the import statements among nodes load,
    with relative imports resolved inside the package."""
    names = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"{PACKAGE}.{base}" if base else PACKAGE
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def boundary_violations(name: str, source: str) -> list[str]:
    tree = ast.parse(source)
    found = []
    if name != "asympt.py" and any(m == "mpmath" or m.startswith("mpmath.")
                                   for m in _imported(ast.walk(tree))):
        found.append(f"{name} imports mpmath")
    if f"{PACKAGE}.asympt" in _imported(_module_level(tree)):
        found.append(f"{name} imports asympt at module level")
    if any(m == "argparse" or m.startswith("argparse.") for m in _imported(ast.walk(tree))):
        found.append(f"{name} imports argparse")
    return found


def test_only_asympt_imports_mpmath_and_nothing_imports_asympt_eagerly():
    modules = sorted((SRC / PACKAGE).glob("*.py"))
    assert {"asympt.py", "cli.py", "__init__.py"} <= {path.name for path in modules}
    found = [v for path in modules
             for v in boundary_violations(path.name, path.read_text(encoding="utf-8"))]
    assert found == []


@pytest.mark.parametrize("name, source", [
    ("cli.py", "from . import asympt, dfinite\n"),
    ("cli.py", "from .asympt import table1\n"),
    ("cli.py", "import compacta.asympt\n"),
    ("cli.py", "from compacta import asympt\n"),
    ("cli.py", "try:\n    from .asympt import table1\nexcept ImportError:\n    pass\n"),
    ("cli.py", "class C:\n    from . import asympt\n"),
    ("dfinite.py", "def f():\n    import mpmath\n"),
    ("dfinite.py", "from mpmath import mp\n"),
    ("dfinite.py", "import mpmath.libmp\n"),
    ("cli.py", "import argparse\n"),
    ("cli.py", "def run():\n    from argparse import ArgumentParser\n"),
    ("asympt.py", "import sys, argparse\n"),
])
def test_the_guard_sees_each_form_of_the_import(name, source):
    assert boundary_violations(name, source) != []


@pytest.mark.parametrize("name, source", [
    ("cli.py", "def run():\n    from . import asympt\n"),
    ("asympt.py", "from mpmath import mp, mpf\n"),
    ("dfinite.py", "from .recurrences import check_upto\n"),
])
def test_the_guard_allows_lazy_imports(name, source):
    assert boundary_violations(name, source) == []
