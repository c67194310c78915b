"""Every public name is something the package itself uses."""

import ast
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
