import os
import pkgutil
import subprocess
import sys

import pytest

import gravopto

MODULES = sorted(m.name for m in pkgutil.iter_modules(gravopto.__path__))


def test_every_module_is_listed():
    assert MODULES == ["analysis", "bosonmap", "circuit", "cli", "digitizer", "errors",
                       "experiment", "qasm", "simulator", "tomography", "transpiler"]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_on_its_own(module):
    """``gravopto/__init__.py`` imports none of its modules, so each must
    import first in a fresh interpreter: a cycle between modules would
    otherwise show only for some import orders."""
    proc = _fresh(
        f"import gravopto.{module}\n"
        "import gravopto\n"
        "assert gravopto.__version__, 'no version'\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_the_cli_imports_neither_scipy_nor_numpy_random():
    """Start-up cost: gravopto imports no scipy at all, and sampling and
    seeding reach numpy.random only when they run, never on
    ``import gravopto.cli``."""
    proc = _fresh("import sys, gravopto.cli\n"
                  "print(sorted({'scipy', 'numpy.random'} & set(sys.modules)))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _fresh(script: str) -> subprocess.CompletedProcess:
    """``script`` run in a fresh interpreter that imports this gravopto."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(gravopto.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
