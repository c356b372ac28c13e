"""Every name the package exports is used by the library, its scripts or its benchmark.

Code that only the tests call lives in ``tests/`` (the oracles in ``tests/oracles.py``), so an
exported name must be referenced, as code rather than in a docstring, somewhere in ``src/hdcca``
(its re-export in ``__init__.py`` aside), ``scripts/`` or ``bench/``, and so must each public
method or property of an exported class.  ``KEEP`` names the few exports kept for their own
sake: the Wachter law and the population CCA of the paper.
"""

import ast
import types
from pathlib import Path

import hdcca

ROOT = Path(__file__).parent.parent
KEEP = ("ppf", "stieltjes", "edge_constants", "population_cca", "CovarianceTriple")


def referenced_names() -> set[str]:
    """Names loaded, or read as attributes, in the code of the library, the scripts and the benchmark."""
    paths = [*(ROOT / "src" / "hdcca").glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    names = set()
    for path in paths:
        if path == ROOT / "src" / "hdcca" / "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_is_used_outside_the_tests():
    exported = [
        name for name in dir(hdcca)
        if not name.startswith("_") and not isinstance(getattr(hdcca, name), types.ModuleType)
    ]
    unused = sorted(set(exported) - referenced_names() - set(KEEP))
    assert unused == [], f"exported but used only by the tests (move to tests/ or add to KEEP): {unused}"


def test_kept_names_are_exported():
    assert all(hasattr(hdcca, name) for name in KEEP)


def test_every_public_method_of_an_exported_class_is_used_outside_the_tests():
    classes = [getattr(hdcca, name) for name in dir(hdcca) if isinstance(getattr(hdcca, name), type)]
    members = {
        f"{cls.__name__}.{attr}"
        for cls in classes
        for attr, value in vars(cls).items()
        if not attr.startswith("_") and (callable(value) or isinstance(value, (property, classmethod, staticmethod)))
    }
    unused = sorted(m for m in members if m.split(".")[1] not in referenced_names())
    assert unused == [], f"public but used only by the tests (move to tests/ or delete): {unused}"
