"""Static checks on the package's imports and exports, with the stdlib ``ast``.

Every name a module imports must be used in it (a name listed in the
module's ``__all__`` counts as used, since it is re-exported), and every name
an ``__all__`` lists must resolve. Each library module declares its exports
once, in a literal ``__all__``; the package root star-imports every library
module and exports exactly the concatenation of their lists.

Start-up loads only what the study runs, checked in a fresh interpreter each:
importing the CLI loads no ``scipy`` module and no process pool, and every
study runs without ``scipy``, the sweeps at one worker or a process pool of
two: the normal CDF of the ``tightness`` and ``verify`` bounds is the
package's own port, and ``sr-compare``'s sign test sums the exact binomial
tail in integers.
"""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import statebandits

PACKAGE_DIR = pathlib.Path(statebandits.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py"))


def _declared_all(tree: ast.Module) -> list[str]:
    """A module's literal ``__all__`` list; empty when it has none or builds one."""
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _star_imports(tree: ast.Module) -> list[str]:
    return [node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and any(alias.name == "*" for alias in node.names)]


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
    used = _used_names(tree) | set(_declared_all(tree))
    unused = sorted(f"{name} (line {line})" for name, line in _imported_names(tree).items()
                    if name not in used)
    assert not unused, f"{module} imports names it never uses: {unused}"


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    name = "statebandits" if module == "__init__" else f"statebandits.{module}"
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ lists names that do not exist: {missing}"


def test_package_exports_each_modules_all():
    trees = {m: ast.parse((PACKAGE_DIR / f"{m}.py").read_text(encoding="utf-8")) for m in MODULES}
    starred = {m: names for m, tree in trees.items() if (names := _star_imports(tree))}
    assert list(starred) == ["__init__"], f"only the package root star-imports: {starred}"
    exported = starred["__init__"]
    assert sorted(exported) == [m for m in MODULES if m not in ("__init__", "cli")]
    expected = []
    for module in exported:
        declared = _declared_all(trees[module])
        assert declared, f"{module} needs a literal __all__"
        expected += declared
    assert len(set(expected)) == len(expected), "a name is declared by two modules"
    assert statebandits.__all__ == expected


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


TIGHTNESS_CONFIG = "num_envs = 3\nruns_per_env = 5\nk_max = 3\ns_max = 2\n"
# at the default seed one of these environments errs more under the reference schedule
SIGN_TEST_CONFIG = "num_envs = 6\nruns_per_env = 20\n"


@pytest.mark.parametrize("command, config, extra", [
    ("triage", "n = 40\nn_severe = 8\nk = 20,10,5\nnum_seeds = 2\nbaselines = 1Expert\n", []),
    ("regret", "checkpoints = 20, 50\nruns = 5\n", []),
    ("tightness", TIGHTNESS_CONFIG, ["--workers", "1"]),
    ("tightness", TIGHTNESS_CONFIG, ["--workers", "2"]),
    ("sr-compare", SIGN_TEST_CONFIG, ["--workers", "1"]),
    ("sr-compare", SIGN_TEST_CONFIG, ["--workers", "2"]),
    ("verify", "", []),
], ids=["triage", "regret", "tightness-w1", "tightness-w2", "sr-compare-w1", "sr-compare-w2", "verify"])
def test_study_runs_without_scipy(tmp_path, command, config, extra):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config, encoding="utf-8")
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out"), *extra]
    # a finder that refuses scipy, inherited by forked pool workers, so theirs count too
    code = ("import contextlib, io, sys, statebandits.cli as cli\n"
            "class NoScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'scipy':\n"
            "            raise ImportError(name)\n"
            "sys.meta_path.insert(0, NoScipy())\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    rc = cli.main({argv!r})\n"
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_python(code) == "0 []"
    if command == "sr-compare":  # the sign test ran on an untied pair
        sign_test = json.loads((tmp_path / "out" / "sr_compare_summary.json").read_text())["sign_test"]
        assert sign_test["n_pos"] + sign_test["n_neg"] > 0
