"""Static checks on the package's imports and exports, with the stdlib ``ast``.

Every name a module imports must be used in it (a name listed in the
module's ``__all__`` counts as used, since it is re-exported), and every name
an ``__all__`` lists must resolve.

Start-up loads only what the study runs, checked in a fresh interpreter each:
importing the CLI loads no ``scipy`` module and no process pool, ``triage``
and ``regret`` run without ``scipy``, and ``tightness_sweep`` loads
``scipy.special`` before it starts a pool, so the forked workers, whose bounds
call the normal CDF, inherit it instead of each importing it.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import statebandits

PACKAGE_DIR = pathlib.Path(statebandits.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py"))


def _declared_all(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            base = node
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name):
                used.add(base.id)
    return used


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text(encoding="utf-8"))
    used = _used_names(tree) | _declared_all(tree)
    unused = sorted(f"{name} (line {line})" for name, line in _imported_names(tree).items()
                    if name not in used)
    assert not unused, f"{module} imports names it never uses: {unused}"


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    name = "statebandits" if module == "__init__" else f"statebandits.{module}"
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ lists names that do not exist: {missing}"


def _fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this package; its stdout."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(
                             [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH", "")])})
    return out.stdout.strip()


def test_cli_import_leaves_out_scipy_stats():
    code = ("import sys, statebandits.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    assert _fresh_python(code) == "[]"


def test_cli_import_leaves_out_scipy_and_the_process_pool():
    code = ("import sys, statebandits.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
            "or m == 'concurrent.futures.process'))")
    assert _fresh_python(code) == "[]"


@pytest.mark.parametrize("command, config", [
    ("triage", "n = 40\nn_severe = 8\nk = 20,10,5\nnum_seeds = 2\nbaselines = 1Expert\n"),
    ("regret", "checkpoints = 20, 50\nruns = 5\n"),
], ids=["triage", "regret"])
def test_study_runs_without_scipy(tmp_path, command, config):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config, encoding="utf-8")
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    code = ("import contextlib, io, sys, statebandits.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    rc = cli.main({argv!r})\n"
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_python(code) == "0 []"


def test_tightness_pool_starts_with_scipy_special_loaded():
    code = ("import sys, concurrent.futures as cf\n"
            "from statebandits.montecarlo import SweepConfig, tightness_sweep\n"
            "seen = []\n"
            "class Pool(cf.ProcessPoolExecutor):\n"
            "    def __init__(self, *args, **kwargs):\n"
            "        seen.append('scipy.special' in sys.modules)\n"
            "        super().__init__(*args, **kwargs)\n"
            "cf.ProcessPoolExecutor = Pool\n"
            "records, failures = tightness_sweep(SweepConfig(num_envs=2, runs_per_env=5, k_max=3, s_max=2), 2)\n"
            "print(len(records), failures, seen)")
    assert _fresh_python(code) == "2 [] [True]"
