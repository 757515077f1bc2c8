"""Static checks that no collkit module carries surface nothing reads.

A name bound by a module-level ``import`` or ``from ... import`` must be read
somewhere in that module.  ``__init__.py`` is exempt: its imports are the
package's re-exported surface.

A public function or method (no leading underscore) must read every parameter
it takes; a parameter no body reads is an option that does nothing.

collkit modules import each other only at module top level, so the import
graph is the one the module headers show; an import inside a function can
hide a cycle.

scipy is the opposite: no collkit module imports it when the module loads,
only inside the functions that call it, so ``import collkit`` and every
command that neither steps the solver nor builds a Boltzmann kernel load
numpy alone.

Every ``QuadratureScheme`` and ``KernelSpec`` field must be read as an
attribute by some module outside the class itself: the CLI takes one
``[quadrature]`` key per scheme field, and a derived kernel constant that
only the class reads is work done for nothing.

Every name ``__init__.py`` re-exports must be reached from outside its own
definition: from another part of the package, the CLI, the acceptance
criteria or the benchmark.  A public name only its own unit tests call is
surface nothing uses.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "collkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


def test_checker_flags_an_unused_import():
    src = "import os\nfrom typing import List, Optional\nx: List[int] = []\n"
    assert unused_imports(src) == ["Optional (line 2)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(node):
    """Absolute or relative module names an import statement reads."""
    if isinstance(node, ast.ImportFrom):
        return ["." * node.level + (node.module or "")]
    return [alias.name for alias in node.names]


def nested_package_imports(source):
    tree = ast.parse(source)
    top = set(map(id, tree.body))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
            and any(name.startswith(".") or name.split(".")[0] == "collkit"
                    for name in imported_modules(node))]


def test_checker_flags_a_nested_package_import():
    src = ("from . import util\nimport numpy\n"
           "def f():\n    from .core import KernelSpec\n    import scipy\n"
           "class C:\n    def g(self):\n        import collkit.util\n")
    assert nested_package_imports(src) == [4, 8]


@pytest.mark.parametrize("path", MODULES + [SRC / "__init__.py"], ids=lambda p: p.name)
def test_package_imports_at_top_level_only(path):
    assert nested_package_imports(path.read_text()) == []


def module_level_scipy_imports(source):
    """Lines of the scipy imports that run when the module loads (outside any function)."""
    tree = ast.parse(source)
    in_function = {id(sub) for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for sub in ast.walk(node)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in in_function
                  and any(name.split(".")[0] == "scipy" for name in imported_modules(node)))


def test_checker_flags_a_module_level_scipy_import():
    src = ("import numpy, scipy.fft as sf\nfrom scipy import special\nfrom . import scipy\n"
           "try:\n    import scipy.integrate\nexcept ImportError:\n    pass\n"
           "class C:\n    from scipy.fft import fft\n"
           "def f():\n    import scipy.fft\n    from scipy.integrate import quad\n")
    assert module_level_scipy_imports(src) == [1, 2, 5, 9]


@pytest.mark.parametrize("path", MODULES + [SRC / "__init__.py"], ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    assert module_level_scipy_imports(path.read_text()) == []


# (module, function, parameter) -> why it stays unread
UNREAD_ALLOWED = {
    ("solver.py", "homog_run", "q"): "the benchmark's homog workload passes it positionally",
}


def unread_parameters(source):
    tree = ast.parse(source)
    funcs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    classes = [c for c in tree.body if isinstance(c, ast.ClassDef) and not c.name.startswith("_")]
    funcs += [m for c in classes for m in c.body if isinstance(m, ast.FunctionDef)]
    unread = []
    for fn in funcs:
        if fn.name.startswith("_"):
            continue
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                  if p is not None]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [(fn.name, p) for p in params if p not in read]
    return unread


def test_checker_flags_an_unread_parameter():
    src = ("def f(a, b=1, *, c):\n    return a + c\n"
           "def _private(x):\n    pass\n"
           "class K:\n    def m(self, y):\n        return self\n")
    assert unread_parameters(src) == [("f", "b"), ("m", "y")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_public_functions_read_every_parameter(path):
    unread = [(path.name, fn, p) for fn, p in unread_parameters(path.read_text())]
    assert [u for u in unread if u not in UNREAD_ALLOWED] == []


def dataclass_fields(source, cls):
    """Names of the annotated fields of the top-level class ``cls``."""
    node = next(n for n in ast.parse(source).body
                if isinstance(n, ast.ClassDef) and n.name == cls)
    return [s.target.id for s in node.body
            if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]


def attributes_read(source, outside=None):
    """Attribute names loaded anywhere in ``source``, except inside class ``outside``."""
    tree = ast.parse(source)
    inside = {id(n) for c in tree.body if isinstance(c, ast.ClassDef) and c.name == outside
              for n in ast.walk(c)}
    return {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
            and isinstance(n.ctx, ast.Load) and id(n) not in inside}


def unread_fields(sources, defining, cls):
    """Fields of ``cls`` (defined in ``sources[defining]``) that no module reads outside it."""
    read = set().union(*(attributes_read(src, outside=cls) for src in sources.values()))
    return [name for name in dataclass_fields(sources[defining], cls) if name not in read]


def test_checker_flags_an_unread_field():
    sources = {
        "core.py": ("class Scheme:\n    a: int = 1\n    b: int = 2\n    c: int = 3\n"
                    "    def check(self):\n        return self.b\n"),
        "use.py": "def f(q):\n    q.c = 0\n    return q.a\n",
    }
    # b is read only by the class itself, c is only written
    assert unread_fields(sources, "core.py", "Scheme") == ["b", "c"]


def test_every_quadrature_field_is_read():
    # the CLI accepts a [quadrature] key per scheme field, so an unread field
    # is a key that does nothing; a kernel constant is computed on every
    # construction, so an unread one is wasted work
    sources = {p.name: p.read_text() for p in MODULES}
    for cls in ("QuadratureScheme", "KernelSpec"):
        assert unread_fields(sources, "core.py", cls) == [], cls


def test_landau_and_solver_do_not_load_scipy_integrate():
    # only a Boltzmann kernel's angular integrals need quad; a fresh process
    # shows what importing collkit and building Landau inputs loads
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import collkit\n"
        "from collkit.solver import make_gaussian_grid\n"
        "collkit.KernelSpec(dim=3, gamma=-3.0, operator='landau')\n"
        "make_gaussian_grid(8, 4.0, theta=0.3)\n"
        "assert 'scipy.integrate' not in sys.modules, 'scipy.integrate loaded'\n"
        "k = collkit.KernelSpec(dim=3, gamma=0.0, operator='boltzmann',\n"
        "                       b=lambda x: np.ones_like(np.asarray(x, dtype=float)))\n"
        "assert 'scipy.integrate' in sys.modules\n"
        "assert abs(k.angular_mass - 4.0 * np.pi) < 1e-12\n"
    )
    run_fresh(script)


def test_only_the_solver_loads_scipy_fft():
    # every pytest session imports scipy.integrate (and with it scipy.fft)
    # for its warning filter, so only a fresh process shows what loads scipy
    script = (
        "import sys\n"
        "import collkit\n"
        "from collkit.solver import make_gaussian_grid\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "k = collkit.KernelSpec(dim=3, gamma=-3.0, operator='landau')\n"
        "grid = make_gaussian_grid(16, 5.0, theta=0.3)\n"
        "collkit.q_landau(collkit.gaussian_field(), [0.5, 0.0, 0.0], k, collkit.QuadratureScheme())\n"
        "collkit.landau_delta_search(10.0, 3, -3.0)\n"
        "collkit.scenario_verdict(collkit.load_catalog()[0], 1.0)\n"
        "assert scipy_modules() == [], scipy_modules()\n"
        "collkit.homog_run(grid, k, None, t_end=1e-3, cfl=0.02)\n"
        "assert 'scipy.fft' in sys.modules\n"
        "assert 'scipy.integrate' not in sys.modules, 'scipy.integrate loaded'\n"
    )
    run_fresh(script)


def run_fresh(script):
    """Run ``script`` in a new interpreter that imports collkit from this checkout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def reexported_names(source):
    """Names an ``__init__.py`` binds by ``from ... import``."""
    return sorted(alias.asname or alias.name for node in ast.parse(source).body
                  if isinstance(node, ast.ImportFrom) for alias in node.names)


def referenced_names(source):
    """Names read as a ``Name`` or an ``Attribute``, except inside their own top-level def or class."""
    tree = ast.parse(source)
    owner = {id(sub): node.name for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef)) for sub in ast.walk(node)}
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, (ast.Name, ast.Attribute)):
            name = n.id if isinstance(n, ast.Name) else n.attr
            if owner.get(id(n)) != name:
                names.add(name)
    return names


def test_checker_flags_an_unreached_export():
    init = "from .a import f, g, h\nfrom .b import K\n"
    user = ("def f(n):\n    return f(n - 1)\n"  # only f itself calls f
            "class K:\n    pass\n"
            "def run(m):\n    return g(1) + m.h\n")
    assert [n for n in reexported_names(init) if n not in referenced_names(user)] == ["K", "f"]


def test_every_export_is_reached():
    # the package's other modules (cli.py among them), the acceptance
    # criteria and the benchmark are what use collkit; its unit tests are not
    users = MODULES + [ROOT / "tests" / "test_acceptance.py"] + sorted((ROOT / "bench").glob("*.py"))
    reached = set().union(*(referenced_names(p.read_text()) for p in users))
    assert [n for n in reexported_names((SRC / "__init__.py").read_text())
            if n not in reached] == []
