"""Every public top-level name of the package is used by the package.

A public function, class or constant of `src/cavityqft/*.py` counts as
used when some module of `src/cavityqft` or `perfbench` loads it as a name
or an attribute, or holds it as a string (the benchmark tracer lists its
targets by name).  Re-exports in `__init__.py` and uses in `tests/` do not
count.  Names kept on purpose are listed in KEEP with their reason.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cavityqft"

KEEP = {
    "quantum_dot_params": "the acceptance suite builds the paper's device with it",
    "zeeman_splitting": "the acceptance suite checks the Zeeman consistency with it",
    "reflection": "documented API in the README",
    "schedule_distance": "documented API in the README",
    "diamond_distance_kraus": "the oracle for the lossy-gate distance e(m) (ROADMAP item 2)",
}


def _defined(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name for name in names if not name.startswith("_")}


def _used(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def unused_public_names() -> set[str]:
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    defined = set().union(*(_defined(_parse(p)) for p in modules))
    users = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*(_used(_parse(p)) for p in users))
    return defined - used


def test_every_public_name_is_used_or_kept_for_a_reason():
    unused = unused_public_names()
    assert unused - KEEP.keys() == set(), "public names nothing in the package uses"
    assert KEEP.keys() - unused == set(), "KEEP entries that are used or gone"
