"""Dead-code and start-up checks over the package source.

* every name a module imports is used by that module (the package's
  ``__init__`` re-exports its imports, so it is exempt);
* every module-level ``_private`` function and assigned name (a constant
  such as ``_MAX_LEVEL``) is read somewhere in the package;
* every absolute import, nested ones included, names a standard-library
  module, so the package stays pure standard library at runtime, and none
  names json: cli.dumps_fixed writes the reports, whose floats json.dumps
  would print at repr's shortest digits rather than 17 significant ones;
* no power is written as exp(k * log(z)): Python's principal ``z ** k`` is
  the one way the package raises a number to a complex power;
* no function nested in a function of identities.py or quad.py (the
  integrands and series terms, called once per quadrature node or term)
  calls the complex(...) constructor, which costs about as much as the
  power it would feed, or a function or class of the package, which costs
  a second Python frame per node;
* no function nested in a function of identities.py compares against a
  number: the quadrature skips a node whose tabled weight is 0, so a
  tail cut-off belongs to the weight alone;
* every weight= argument in identities.py names a module-level function,
  or picks between such names: quad keeps one node table per weight object
  in an unbounded cache, so a lambda or closure would build a new table on
  every call and grow memory without bound; a sweep over ten real a adds
  at most one table per level to that cache;
* every lru_cache in the package holds one entry (maxsize=1), or is one of
  the named tables keyed on nothing a case chooses (a size, a level, a node
  map and a module-level weight), so no unbounded cache keyed on case data
  can grow with a sweep;
* every exception class the package defines is raised somewhere in the
  package, so none outlives the last raise of it;
* every route verify runs is annotated to return a QuadResult, the one
  record _run_route judges;
* the package re-exports every public name of its library modules;
* the README's method table lists exactly the (route, method) pairs that
  identities._plan can give, so a deleted or new method cannot leave it
  stale;
* every defaulted parameter of a public module-level function is passed
  by some call in src/, tests/ or perfbench/: a parameter that only ever
  takes its default is a constant, not a knob;
* importing the CLI loads none of the standard-library modules that made
  start-up slow (dataclasses, which pulls in inspect, and fractions, which
  pulls in decimal).
"""

import ast
import builtins
import importlib
import inspect
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zetaquad
from zetaquad import identities, quad

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "zetaquad"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _used_names(tree):
    """Names read anywhere in the tree, plus the strings listed in __all__."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = _used_names(tree)
    unused = [name for name in _imported_names(tree) if name not in used]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def _defined_names(node):
    """The names a module-level statement defines: a function's, or the plain
    names an assignment binds."""
    if isinstance(node, ast.FunctionDef):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]


def test_no_unreferenced_private_functions():
    trees = {path.name: _tree(path) for path in MODULES}
    used = set().union(*(_used_names(tree) for tree in trees.values()))
    dead = [f"{name}:{defined}"
            for name, tree in trees.items() for node in tree.body
            for defined in _defined_names(node)
            if defined.startswith("_") and not defined.startswith("__")
            and defined not in used]
    assert dead == [], f"private names nothing in the package reads: {dead}"


def test_imports_are_standard_library():
    foreign = []
    json_users = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
            json_users += [f"{path.name}:{node.lineno}" for name in names
                           if name.split(".")[0] == "json"]
    assert foreign == [], f"imports outside the standard library: {foreign}"
    assert json_users == [], f"json imported, not cli.dumps_fixed: {json_users}"


def _call_name(node):
    """The name a call's function is spelled with: f for f(...) and m.f(...)."""
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def _factors(node):
    """The factors of a product, through nested products and negations."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _factors(node.left) + _factors(node.right)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _factors(node.operand)
    return [node]


def test_powers_are_not_written_as_exp_of_log():
    # exp(k * log z) is z ** k with a second rounding and a second spelling
    found = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if not (isinstance(node, ast.Call) and _call_name(node).endswith("exp")
                    and len(node.args) == 1):
                continue
            factors = _factors(node.args[0])
            if len(factors) > 1 and any(isinstance(f, ast.Call) and _call_name(f).endswith("log")
                                        for f in factors):
                found.append(f"{path.name}:{node.lineno}")
    assert found == [], f"powers written as exp(k * log z), use z ** k: {found}"


def _integrand_calls(tree):
    """("function:line", called name) for each call of a bare name inside a
    function nested in a function of the tree: the integrands and terms."""
    for outer in ast.walk(tree):
        if not isinstance(outer, ast.FunctionDef):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, ast.FunctionDef):
                continue
            for node in ast.walk(inner):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    yield f"{inner.name}:{node.lineno}", node.func.id


@pytest.mark.parametrize("name", ["identities.py", "quad.py"])
def test_integrands_do_not_build_complex_numbers(name):
    # (log_a + u) ** k gives the bits of complex(re + u, im) ** k without
    # the constructor; build a constant outside the integrand, once per call
    found = [f"{name}:{where}" for where, called in _integrand_calls(_tree(SRC / name))
             if called == "complex"]
    assert found == [], f"complex(...) built inside an integrand: {found}"


@pytest.mark.parametrize("name", ["identities.py", "quad.py"])
def test_integrands_call_no_package_function(name):
    # A call into a function or class of the package costs each node or term
    # a second Python frame, as the theta = 0 ray's call of _lhs_weight once
    # did; write the few lines out.  The caller's parameters may be called,
    # as integrate_finite's mapped calls f.
    tree = _tree(SRC / name)
    package = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    package |= {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level for alias in node.names}
    found = [f"{name}:{where}:{called}" for where, called in _integrand_calls(tree)
             if called in package]
    assert found == [], f"package functions called inside an integrand: {found}"


def test_integrands_leave_the_cut_off_to_the_weight():
    # The quadrature skips a node whose tabled weight is 0, so the weight
    # alone says where its tail is cut off; an integrand that tests x against
    # a number (x > 700.0, say) repeats that cut-off in a second place.
    tree = _tree(SRC / "identities.py")
    found = []
    for outer in ast.walk(tree):
        if not isinstance(outer, ast.FunctionDef):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, (ast.FunctionDef, ast.Lambda)):
                continue
            for node in ast.walk(inner):
                if isinstance(node, ast.Compare) and any(
                        isinstance(side, ast.Constant) and isinstance(side.value, (int, float))
                        for side in [node.left, *node.comparators]):
                    found.append(f"identities.py:{node.lineno}")
    assert found == [], f"nested functions compare against a number: {found}"


def _module_level_names(node, functions):
    """Whether an expression is a module-level function's name, or a
    conditional whose branches all are."""
    if isinstance(node, ast.IfExp):
        return (_module_level_names(node.body, functions)
                and _module_level_names(node.orelse, functions))
    return isinstance(node, ast.Name) and node.id in functions


def test_quadrature_weights_are_module_level_functions():
    tree = _tree(SRC / "identities.py")
    functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    weights = [(node.lineno, kw.value) for node in ast.walk(tree) if isinstance(node, ast.Call)
               for kw in node.keywords if kw.arg == "weight"]
    bad = [f"identities.py:{line}" for line, value in weights
           if not _module_level_names(value, functions)]
    assert len(weights) >= 3
    assert bad == [], f"weight= must name a module-level function: {bad}"


def test_sweep_over_real_a_adds_no_table_per_case():
    # One real a first builds whatever the rest need at the levels they
    # reach; ten more distinct real a may add a level's table for the one
    # weight both lifted half-lines share, but not one table per case.
    ks = [0.5 + 0j, 2.0 + 1.0j]
    zetaquad.sweep(ks, [zetaquad.BranchedConstant(2.0)])
    before = quad._table.cache_info().currsize
    reports = zetaquad.sweep(ks, [zetaquad.BranchedConstant(0.3 + 0.25 * j) for j in range(10)])
    assert len(reports) == 20
    assert quad._table.cache_info().currsize - before <= quad._MAX_LEVEL + 1


# the unbounded caches, each keyed on sizes, levels, node maps or
# module-level weights alone
CASE_INDEPENDENT_CACHES = {"_bernoulli_floats", "_tail_steps", "_cvz_weights", "_table"}


def _cache_name(node):
    """"lru_cache" or "cache" if the node names functools' cache decorator."""
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name if name in ("lru_cache", "cache") else None


def test_caches_hold_one_entry_or_a_case_independent_table():
    decorated = {}
    uses = 0
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.Name, ast.Attribute)) and _cache_name(node):
                uses += 1
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    call = dec if isinstance(dec, ast.Call) else None
                    if _cache_name(call.func if call else dec):
                        size = None  # a bare @lru_cache keeps 128 entries, @cache all
                        if call:
                            given = ([kw.value for kw in call.keywords if kw.arg == "maxsize"]
                                     + call.args[:1])
                            size = ast.literal_eval(given[0]) if given else 128
                        decorated[f"{path.name}:{node.name}"] = (node.name, size == 1)
    assert uses == len(decorated), "a cache is built other than by a decorator"
    unbounded = {name for name, one in decorated.values() if not one}
    assert unbounded <= CASE_INDEPENDENT_CACHES, sorted(unbounded - CASE_INDEPENDENT_CACHES)
    # the list names no cache that has gone
    assert unbounded == CASE_INDEPENDENT_CACHES
    assert any(one for _, one in decorated.values())


def _is_exception(base, defined):
    """Whether a class base, written as a name, is a built-in exception or an
    exception class the package defines."""
    name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
    found = getattr(builtins, name, None)
    return name in defined or (isinstance(found, type) and issubclass(found, BaseException))


def test_every_exception_class_is_raised():
    trees = [_tree(path) for path in MODULES]
    classes = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    defined = set()
    while True:  # a subclass of a package exception is one too, in any order
        more = {c.name for c in classes if any(_is_exception(b, defined) for b in c.bases)}
        if more == defined:
            break
        defined = more
    raised = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", ""))
    assert len(defined) >= 5
    assert sorted(defined - raised) == [], "exception classes the package never raises"


def test_routes_return_quad_results():
    tree = _tree(SRC / "identities.py")
    routes = {node.args[1].id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and _call_name(node) == "_run_route"
              and isinstance(node.args[1], ast.Name)}
    assert routes == {"lhs_integral", "rhs_zeta", "rhs_series", "rhs_contour"}
    returns = {node.name: node.returns and ast.unparse(node.returns) for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name in routes}
    assert returns == dict.fromkeys(routes, "QuadResult")


@pytest.mark.parametrize("module", ["complexfn", "hurwitz", "quad", "identities"])
def test_package_exports_every_public_name(module):
    names = importlib.import_module(f"zetaquad.{module}").__all__
    missing = [name for name in names if not hasattr(zetaquad, name)]
    assert missing == [], f"zetaquad does not re-export {module}.{missing}"


def _readme_methods():
    """(route, method) of every row of the README's method table; a row for
    several routes, "zeta, series, contour", gives a pair for each."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| route | method | when | what it computes |")
    pairs = set()
    for line in itertools.takewhile(lambda ln: ln.startswith("|"), lines[start + 2:]):
        routes, method = (cell.strip() for cell in line.split("|")[1:3])
        pairs |= {(route, method.strip("`")) for route in routes.split(", ")}
    return pairs


def test_readme_method_table_matches_plan():
    # The probes reach every branch of _plan: k = 0, Re k >= 1, Re k on
    # either side of 1/2, theta on either side of 0.5.  The methods
    # they give must be every method among _plan's string literals (the
    # routes, the methods and the skip reasons, which have spaces), so a new
    # branch needs a probe here and a row in the table.
    given = {(route, method)
             for k in (0j, -1.8 + 0j, -1 + 0j, 0.5 + 0j, 0.7 + 0.1j, 2 + 0j)
             for a in (zetaquad.BranchedConstant(1.0), zetaquad.BranchedConstant(2.0, 1.0))
             for route, (method, _) in identities._plan(identities.IdentityCase(k, a)).items()
             if method}
    routes = {route for route, _ in given}
    words = {node.value for node in ast.walk(ast.parse(inspect.getsource(identities._plan)))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert {method for _, method in given} == {w for w in words if w and " " not in w} - routes
    assert _readme_methods() == given


def test_defaulted_parameters_are_passed():
    params = {}  # module.function: its name, positional parameters and defaulted ones
    for path in MODULES:
        for node in _tree(path).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                defaulted = set(positional[len(positional) - len(args.defaults):])
                defaulted |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                              if d is not None}
                params[f"{path.stem}.{node.name}"] = (node.name, positional, defaulted)
    calls = {}  # called name: its calls' positional counts and keyword names
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(_tree(path)):
                if isinstance(node, ast.Call):
                    seen = calls.setdefault(_call_name(node), set())
                    # a starred call counts as passing every parameter
                    starred = (any(isinstance(a, ast.Starred) for a in node.args)
                               or any(kw.arg is None for kw in node.keywords))
                    seen.add("*" if starred else len(node.args))
                    seen.update(kw.arg for kw in node.keywords if kw.arg is not None)
    unpassed = []
    for qualname, (name, positional, defaulted) in params.items():
        seen = calls.get(name, set())
        if "*" not in seen:
            most = max((n for n in seen if isinstance(n, int)), default=0)
            left = defaulted - seen - set(positional[:most])
            unpassed += [f"{qualname}:{p}" for p in sorted(left)]
    assert unpassed == [], f"defaulted parameters no call passes: {unpassed}"


def test_cli_import_leaves_slow_modules_out():
    # Compared with the modules the bare interpreter has already loaded, since
    # site may load some (typing, say) before any package code runs.
    code = ("import sys; bare = set(sys.modules); import zetaquad.cli; "
            "print(' '.join(sorted(set(sys.modules) - bare)))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    added = set(out.split())
    assert "zetaquad.cli" in added
    assert added & {"dataclasses", "inspect", "fractions", "decimal"} == set()
