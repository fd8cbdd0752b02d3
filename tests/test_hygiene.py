"""Source hygiene: no unused imports, no public name or parameter that nothing
reads, the package exports what the README names, every dotted name that a
docstring or README points to exists, importing the CLI leaves the sweep
oracle unloaded, and importing either leaves dataclasses and inspect
unloaded."""

import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import toeplitz_periods

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "toeplitz_periods").glob("*.py"))
SOURCES = SRC + sorted((ROOT / "tests").glob("*.py"))

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


# public, referenced nowhere in the program: the tests build matrices with them
TEST_CONSTRUCTORS = {"boolmat.BoolMatrix.zeros", "boolmat.BoolMatrix.from_entries"}

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


def test_the_crossover_order_is_compared_by_its_name_alone():
    # the order from which the shift kernel, the OR tables and the lift's
    # drops take over is boolmat._CROSSOVER_ORDER; a literal 32 compared
    # anywhere in src/ would let one of them drift from the others
    assert toeplitz_periods.boolmat._CROSSOVER_ORDER == 32
    literal = []
    for path in SRC:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare):
                literal += [
                    f"{path.relative_to(ROOT)}:{const.lineno}"
                    for const in ast.walk(node)
                    if isinstance(const, ast.Constant) and type(const.value) is int and const.value == 32
                ]
    assert literal == []


def _public_definitions(tree: ast.Module, module: str):
    """(module.[Class.]name, name) for every public module-level function or class
    and every public method of a module-level class."""
    public = lambda node: isinstance(node, (ast.FunctionDef, ast.ClassDef)) and (
        not node.name.startswith("_")
    )
    for node in filter(public, tree.body):
        yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for method in filter(public, node.body):
                yield f"{module}.{node.name}.{method.name}", method.name


def test_every_public_name_in_src_is_used():
    # referenced in src/ or perfbench/, exported by the package, or named in README
    defined, used = [], set(vars(toeplitz_periods))
    for path in SRC + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path in SRC:
            defined += _public_definitions(tree, path.stem)
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                used |= {alias.name for alias in n.names}
    used |= set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    assert {where for where, name in defined if name not in used} == TEST_CONSTRUCTORS


def test_package_exports_exactly_the_readme_names():
    public = {
        name
        for name, value in vars(toeplitz_periods).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == TOP_LEVEL
    assert isinstance(toeplitz_periods.__version__, str)


MODULES = {p.stem: importlib.import_module(f"toeplitz_periods.{p.stem}") for p in SRC if p.stem[0] != "_"}


def _resolves(dotted: str) -> bool:
    """Whether getattr along the dotted name succeeds from the package or one of
    its modules."""
    for root in (toeplitz_periods, *MODULES.values()):
        target = root
        for part in dotted.split("."):
            target = getattr(target, part, None)
        if target is not None:
            return True
    return False


def test_every_dotted_pointer_resolves():
    # the design is stated once, in the docstring of the code that rests on
    # it, and other places point there: ``module.name`` or ``Class.method``
    # in a src/ docstring, and `module.name` in README
    pointers = []
    for path in SRC:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = ast.get_docstring(node) or ""
                pointers += [(path.name, name) for name in re.findall(r"``(\w+(?:\.\w+)+)``", doc)]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = re.findall(r"`(\w+(?:\.\w+)+)`", readme)
    pointers += [("README.md", name) for name in named if name.split(".")[0] in MODULES]
    assert {where for where, _ in pointers} >= {"engine.py", "README.md"}
    assert [(where, name) for where, name in pointers if not _resolves(name)] == []


def _in_fresh_interpreter(code: str) -> str:
    """What code prints, run by a new interpreter that imports the package from src/."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-B", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def test_cli_import_leaves_the_sweep_oracle_unloaded():
    # analyze, walksets and contract never compile the oracle; only sweep imports it
    code = "import sys, toeplitz_periods.cli; print('toeplitz_periods.oracle' in sys.modules)"
    assert _in_fresh_interpreter(code) == "False"


def test_package_import_leaves_dataclasses_and_inspect_unloaded():
    # the records are named tuples; dataclasses would pull in inspect, ast and dis
    code = (
        "import sys, toeplitz_periods.cli, toeplitz_periods.oracle; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    assert _in_fresh_interpreter(code) == "[]"
