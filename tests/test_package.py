"""The package surface: one export table, each name loaded from its module on first read,
and one tolerance table, the only place its source writes a tolerance."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import telerev


def _fresh(script):
    """What ``script`` prints, run in a new interpreter that imports this telerev."""
    src = str(Path(telerev.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


# `import telerev` loads no module of its own, so building an instrument loads five of
# the nine (the ones it reads) and no json, which only the scenario writers need.
def test_a_cold_import_loads_only_the_modules_a_caller_reads():
    loaded = _fresh("import sys; import telerev as tv; "
                    "tv.build_instrument(tv.max_entangled(2), tv.bell_basis()); "
                    "print(*sorted(m for m in sys.modules if m.startswith('telerev')), "
                    "'json' in sys.modules)")
    assert loaded == ["telerev", "telerev.errors", "telerev.instrument", "telerev.jointmeas",
                      "telerev.linalg", "telerev.qstate", "False"]
    assert _fresh("import telerev; print(telerev.scenarios.__name__)") == ["telerev.scenarios"]


def test_the_package_names_exactly_its_export_table():
    namespace = {}
    exec("from telerev import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(telerev.__all__)
    assert len(telerev.__all__) == len(set(telerev.__all__)) == 42
    assert set(telerev.__all__) <= set(dir(telerev))


# The Haar Monte Carlo and SVD oracles are read from their modules, not the package.
@pytest.mark.parametrize("name", ["svd", "SvdResult", "polar_unitary", "estimate_performance",
                                  "estimate_leakage", "estimate_standard_fidelity", "nope"])
def test_a_name_outside_the_table_is_refused_by_name(name):
    with pytest.raises(AttributeError, match=rf"^module 'telerev' has no attribute '{name}'$"):
        getattr(telerev, name)


# Every tolerance is an entry of errors.TOLERANCES: no other module writes a float
# constant in (0, 1e-6] (a docstring is a string, not a float constant).
def test_no_module_but_errors_writes_a_tolerance():
    src = Path(telerev.__file__).resolve().parent
    found = [(path.name, node.lineno, node.value)
             for path in sorted(src.glob("*.py")) if path.name != "errors.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and type(node.value) is float
             and 0.0 < node.value <= 1e-6]
    assert found == []
