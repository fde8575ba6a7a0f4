import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import busemann

MODULES = ["busemann"] + [f"busemann.{m.name}" for m in pkgutil.iter_modules(busemann.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # a deleted function must not stay behind in an __all__
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


ROOT = Path(__file__).resolve().parents[1]

# names in an __all__ that nothing in src/busemann, scripts/ or perfbench/
# runs, kept on purpose as scalar references and oracles of the tests; the
# README section "Kept references and oracles" lists the same names
KEPT_REFERENCES = (
    "convexity.parallel_check",
    "harmonic.conjugate_problem",
    "mapspace.scalar_norm",
    "mapspace.scalar_distance",
    "mapspace.permute_cells",
)


def _exports_used_nowhere_else() -> set:
    """Each ``module.name`` of an ``__all__`` under src/busemann, scripts/ and
    perfbench/ that no other code there uses: a use is a name, an attribute
    or a string equal to it (perfbench names the functions it times by
    string), outside the ``__all__`` lists and outside the name's own
    top-level definition."""
    trees = {
        path: ast.parse(path.read_text())
        for pattern in ("src/busemann/*.py", "scripts/*.py", "perfbench/*.py")
        for path in ROOT.glob(pattern)
    }
    exports, used = set(), set()
    for path, tree in trees.items():
        module = path.parent.name if path.stem == "__init__" else path.stem
        lists = [
            node for node in tree.body
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        ]
        exports |= {(module, e.value) for node in lists for e in node.value.elts}
        skip = {id(n) for node in lists for n in ast.walk(node)}
        spans = {
            node.name: (node.lineno, node.end_lineno)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            own = spans.get(name)
            if own is None or not own[0] <= node.lineno <= own[1]:
                used.add(name)
    return {f"{module}.{name}" for module, name in exports if name not in used}


def test_every_export_is_used_or_a_kept_reference():
    # a public function that only tests reach must be deleted, or named here
    # and in the README as a reference kept on purpose
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Kept references and oracles", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `(\w+\.\w+)`", section, flags=re.M)
    assert sorted(listed) == sorted(KEPT_REFERENCES)
    unused = _exports_used_nowhere_else()
    assert sorted(unused - set(KEPT_REFERENCES)) == []  # delete these, or keep them on purpose
    assert sorted(set(KEPT_REFERENCES) - unused) == []  # used now: no longer kept on purpose
