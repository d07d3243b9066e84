import ast
import os
import subprocess
import sys
from pathlib import Path

import lcsampler

SRC = Path(lcsampler.__file__).parent


def _library_references() -> set[str]:
    """Names the library reads (as a name or an attribute), outside the definition that binds them.

    ``__init__.py`` is skipped: re-exporting a name is not a use of it.
    """
    refs = set()

    def visit(node, inside: frozenset):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            name = None
        if name is not None and name not in inside:
            refs.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return refs


def test_every_exported_name_resolves():
    missing = [name for name in lcsampler.__all__ if not hasattr(lcsampler, name)]
    assert missing == []


def test_every_exported_name_is_used_by_the_library():
    # a name only tests call belongs in tests/helpers.py, not in the package
    unused = sorted(set(lcsampler.__all__) - _library_references())
    assert unused == []


def _unread_imports(source: str) -> list[str]:
    """Names a module imports but never reads; ``__future__`` imports are not names."""
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_unread_imports_are_found():
    assert _unread_imports("from operator import add, mul\nimport numpy as np\nnp.zeros(add(1, 2))") == ["mul"]


def test_every_import_is_read():
    # __init__.py's imports are its re-exports, read by importers
    unread = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py" and (names := _unread_imports(path.read_text(encoding="utf-8")))
    }
    assert unread == {}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reads(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each private name of another ``lcsampler`` module that ``source`` reads.

    A name is private when it starts with ``_`` and is not a dunder.  An
    import from the package reads each private name it imports; an attribute
    reads its private name when its chain starts at a name imported from the
    package, a module or anything a module defines.
    """
    tree = ast.parse(source)
    reads, imported = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.partition(".")[0] == "lcsampler"):
            for alias in node.names:
                imported.add(alias.asname or alias.name)
                if _is_private(alias.name):
                    reads.append((node.lineno, alias.name))
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names
                            if alias.name.partition(".")[0] == "lcsampler")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in imported:
                reads.append((node.lineno, f"{ast.unparse(node.value)}.{node.attr}"))
    return sorted(reads)


def test_private_reads_are_found():
    source = (
        "from . import numerics\nfrom .oracles import _Hidden, Shown\nimport lcsampler.envelope\n"
        "import numpy as np\n"
        "numerics._LIMIT, numerics.__name__, Shown._entry(), lcsampler.envelope._side, np._private\n"
        "self._own\n"
    )
    assert _private_reads(source) == [
        (2, "_Hidden"), (5, "Shown._entry"), (5, "lcsampler.envelope._side"), (5, "numerics._LIMIT"),
    ]


# The private names a module may read from another, each with its reason
ALLOWED_PRIVATE_READS = {
    # the documented private entry that builds an even potential from its right half
    ("hardfamily.py", "PiecewiseQuadraticPotential._even"),
    # build_envelope's isinstance guard, which refuses an oracle not normalized
    ("envelope.py", "_NormalizedOracle"),
}


def test_no_module_reads_another_modules_private_names():
    reads = [
        (path.name, line, name)
        for path in sorted(SRC.glob("*.py"))
        for line, name in _private_reads(path.read_text(encoding="utf-8"))
        if (path.name, name) not in ALLOWED_PRIVATE_READS
    ]
    assert reads == []


# Runs every path that needs a special function in a fresh interpreter, then
# prints the SciPy modules it loaded.  Tail and piece inversions are counted
# by the function that called erfcinv.
_SCIPY_FREE_RUN = """
import sys
from collections import Counter

import numpy as np

import lcsampler
import lcsampler.cli
from lcsampler import (
    Envelope, PiecewiseQuadraticPotential, PotentialOracle, acceptance_probability,
    prepare_envelope, quadratic_oracle, run_chain, sample_exact,
)
from lcsampler import numerics

inversions = Counter()
erfcinv = numerics.erfcinv


def counted(y):
    inversions[sys._getframe(1).f_code.co_name] += 1
    return erfcinv(y)


numerics.erfcinv = counted
potential = PiecewiseQuadraticPotential.gaussian(1.0)
normalized, env = prepare_envelope(PotentialOracle(potential, beta=4.0))
# a piece of drift 0.5 and length 2 right of the plateau, which draws invert
pieced = Envelope(1.0, ((-1.0, 0.0, 1.0),), ((1.0, 0.0, 0.5), (3.0, 2.0, 3.0)))
rng = np.random.default_rng(3)
for _ in range(10_000):
    sample_exact(normalized, env, rng)
    pieced.sample(rng)
    if inversions["sample_gaussian_tail"] and inversions["sample_gaussian_piece"]:
        break
else:
    raise SystemExit(f"no tail or no piece inversion: {dict(inversions)}")
run_chain(quadratic_oracle(np.array([1.0, 4.0, 9.0])), np.zeros(3), 20, rng)
acceptance_probability(potential, env)
potential.density_cdf(np.linspace(-3.0, 3.0, 7))
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
"""


def test_sampling_loads_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", _SCIPY_FREE_RUN], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
