"""Import lints: what set-up loads, and what the package may import at all."""

import ast
import json
import re
import subprocess
import sys
import textwrap
from importlib.metadata import packages_distributions
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Modules set-up (import, catalog, registry) must not load: each is
#: imported where a solve first needs it, or not at all.
NOT_AT_SETUP = ("networkx", "scipy.integrate", "scipy.optimize", "scipy.stats")


def test_setup_skips_unused_modules(tmp_path):
    """Set-up as the benchmark client does it, in a fresh interpreter with
    ``networkx`` unimportable, loads none of :data:`NOT_AT_SETUP`."""
    script = textwrap.dedent(
        """
        import json
        import sys

        sys.modules["networkx"] = None  # undeclared: set-up must not need it
        from repro.runtime.cache import ResultCache
        from repro.runtime.registry import SolverRegistry
        from repro.scenarios import get_scenario_registry

        get_scenario_registry()
        SolverRegistry(ResultCache(directory=sys.argv[1]))
        print(json.dumps([m for m, mod in sys.modules.items() if mod is not None]))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "cache")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert sorted(
        m for m in loaded
        if any(m == name or m.startswith(name + ".") for name in NOT_AT_SETUP)
    ) == []


def _normalized(dist: str) -> str:
    return re.sub(r"[-_.]+", "-", dist).lower()


def _declared_dependencies() -> set[str]:
    """Distribution names in ``[project] dependencies`` of ``pyproject.toml``,
    read without ``tomllib`` (Python 3.10 has none)."""
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S).group(1)
    return {
        _normalized(re.match(r"[A-Za-z0-9._-]+", req).group())
        for req in re.findall(r"\"([^\"]+)\"", block)
    }


def _module_level_imports(tree: ast.Module):
    """``(top-level package, line)`` of each import outside function
    bodies: the imports that run when the module loads."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                yield node.module.split(".")[0], node.lineno
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo.extend(ast.iter_child_nodes(node))


def test_module_level_imports_are_declared():
    """Every third-party package ``src/repro`` imports at module load is a
    declared dependency: CI installs only those (plus the dev tools), so
    an undeclared one would fail ``import repro`` on a clean runner."""
    declared = _declared_dependencies()
    dists = packages_distributions()
    undeclared = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top, line in _module_level_imports(tree):
            if top == "repro" or top in sys.stdlib_module_names:
                continue
            if not {_normalized(d) for d in dists.get(top, [top])} & declared:
                undeclared.append(f"{path.relative_to(ROOT)}:{line} imports {top}")
    assert undeclared == [], f"not in pyproject.toml dependencies: {undeclared}"


#: Process-wide caches and the one module allowed to construct each.
CACHE_OWNERS = {
    "StateSpaceCache": "network/statespace.py",
}


def test_process_caches_have_one_owner():
    """Each process-wide cache class is instantiated in ``src/repro`` only
    by the module that owns the process's instance; every other module
    reaches it through that module's getter."""
    package = ROOT / "src" / "repro"
    strays = []
    for path in sorted(package.rglob("*.py")):
        owner = path.relative_to(package).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in CACHE_OWNERS and CACHE_OWNERS[name] != owner:
                strays.append(f"{owner}:{node.lineno} constructs {name}")
    assert strays == [], f"process caches built outside their owner: {strays}"


def test_one_module_solves_lp_bounds():
    """Only ``runtime/batch.py`` builds an LP engine in ``src/repro``: every
    bound is solved by ``BatchLPSolver``'s pairs, so whatever holds for its
    solves (start bases, counters, spans) holds for every bound."""
    package = ROOT / "src" / "repro"
    strays = []
    for path in sorted(package.rglob("*.py")):
        owner = path.relative_to(package).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "make_lp_engine" and owner != "runtime/batch.py":
                strays.append(f"{owner}:{node.lineno}")
    assert strays == [], f"LP engines built outside runtime/batch.py: {strays}"
