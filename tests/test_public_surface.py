"""Every public name is something the package itself uses, and the
verification suite is a library module that the CLI only calls."""

import ast
import subprocess
import sys
from pathlib import Path

import bellsphere

PACKAGE_DIR = Path(bellsphere.__file__).parent
# looked up by name by the benchmark's tracer, not called by the package;
# measure_pair_batch is also the tests' per-pair reference for the kernel
REACHED_FROM_OUTSIDE = {"sample_sphere", "measure_pair_batch"}


def referenced_names(tree):
    # loads of a name or an attribute: an assignment target, a def or an
    # import defines a name and does not use it
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_exported_name_is_used_inside_the_package():
    used = set()
    for path in PACKAGE_DIR.glob("*.py"):
        if path.name != "__init__.py":
            used |= referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    unused = sorted(set(bellsphere.__all__) - used - REACHED_FROM_OUTSIDE)
    assert unused == []
    # an exception that is no longer exported, or is now used inside, is stale
    assert REACHED_FROM_OUTSIDE <= set(bellsphere.__all__) - used


def top_level_names(path, imports):
    # the names a module binds at its top level: defs, classes and assignment
    # targets, and with ``imports`` the names its imports bind
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {target.id for target in node.targets if isinstance(target, ast.Name)}
        elif imports and isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def test_cli_holds_none_of_the_verification_suite():
    # cli.py neither defines nor re-exports a check, a helper or a constant
    # of the suite; it calls verify.run_verification through the module
    suite = top_level_names(PACKAGE_DIR / "verify.py", imports=False)
    assert {"run_verification", "_worst", "_within", "_plus_share", "FEASIBILITY_SAMPLES"} <= suite
    cli = top_level_names(PACKAGE_DIR / "cli.py", imports=True)
    assert sorted(cli & suite) == []
    assert sorted(name for name in cli if name.startswith("_check_")) == []


_VERIFY_WITHOUT_CLI = """
import contextlib, io, sys
import bellsphere.verify
with contextlib.redirect_stdout(io.StringIO()) as out:
    ok = bellsphere.verify.run_verification(0, feasibility_samples=20)
assert ok and "verification PASSED" in out.getvalue(), out.getvalue()
loaded = sorted({"bellsphere.cli", "argparse"} & set(sys.modules))
assert loaded == [], f"verify loaded {loaded}"
"""


def test_verify_runs_without_the_cli():
    # a fresh interpreter: nothing else has loaded the CLI or argparse
    result = subprocess.run(
        [sys.executable, "-c", _VERIFY_WITHOUT_CLI], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
