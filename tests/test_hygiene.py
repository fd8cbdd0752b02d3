"""Source hygiene: no unused imports, no public parameter that nothing reads, the
package exports what the README names, and importing the CLI leaves the sweep
oracle unloaded."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import toeplitz_periods

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "toeplitz_periods").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)

TOP_LEVEL = {
    "BoolMatrix",
    "PowerSequence",
    "ToeplitzSpec",
    "from_toeplitz",
    "competition_analysis",
    "analyze",
    "walksets_at",
    "certify_walk_ensured",
    "decide_walk_ensured_exact",
    "superset_same_period",
    "sink_source_same_period",
    "TheoremViolationError",
}


# accepted and never read: perfbench/tracing.py still passes them
UNREAD_HARNESS_SLOTS = {
    "boolmat.PowerSequence.cycle.max_steps",
    "engine.competition_analysis.max_power",
    "engine.decide_walk_ensured_exact.max_power",
}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import in the file -> line of the import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            ann = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ann = node.returns
        else:
            continue
        if ann is not None:
            yield ann


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere in the file, including inside quoted annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for const in ast.walk(ann):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                parsed = ast.parse(const.value, mode="eval")
                used |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return used


def test_no_unused_imports():
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue  # its imports are the package's exports, checked below
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used(tree)
        for name, line in _imported(tree).items():
            if name not in used:
                unused.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert unused == []


def _unread_parameters(body: list[ast.stmt], prefix: str):
    """prefix[Class.]function.parameter for every parameter of a public function or
    method, or of an __init__, that the function's body never loads."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _unread_parameters(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, ast.FunctionDef) and (
            node.name == "__init__" or not node.name.startswith("_")
        ):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            loaded = {
                n.id
                for stmt in node.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            yield from (f"{prefix}{node.name}.{a.arg}" for a in params if a.arg not in loaded)


def test_every_public_parameter_in_src_is_read():
    unread = set()
    for path in SOURCES:
        if path.parent.name == "toeplitz_periods":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            unread |= set(_unread_parameters(tree.body, f"{path.stem}."))
    assert unread == UNREAD_HARNESS_SLOTS


def test_every_private_helper_in_src_is_referenced():
    # a module-level _name function or class needs a reference in src/ outside its own body
    defined, used = {}, set()
    for path in SOURCES:
        if path.parent.name != "toeplitz_periods":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            if isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
            private = isinstance(node, (ast.FunctionDef, ast.ClassDef)) and (
                node.name.startswith("_") and not node.name.startswith("__")
            )
            if private:
                defined[node.name] = f"{path.relative_to(ROOT)}:{node.lineno}"
                names.discard(node.name)
            used |= names
    assert sorted(where for name, where in defined.items() if name not in used) == []


def test_package_exports_exactly_the_readme_names():
    public = {
        name
        for name, value in vars(toeplitz_periods).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == TOP_LEVEL
    assert isinstance(toeplitz_periods.__version__, str)


def test_cli_import_leaves_the_sweep_oracle_unloaded():
    # analyze, walksets and contract never compile the oracle; only sweep imports it
    code = "import sys, toeplitz_periods.cli; print('toeplitz_periods.oracle' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-B", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"
