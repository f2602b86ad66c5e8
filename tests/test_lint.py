"""Source-level checks over the package modules."""

import ast
import importlib
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "chebsum"


def test_no_assert_statements():
    # Invariants must raise a ChebsumError: an assert vanishes under python -O.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in src/chebsum: {found}"


# The packed monomial layout (field constants, storage attributes, pack
# helpers) and the numerators-over-one-denominator form are decisions of
# poly.py alone; other modules read ``Poly.terms``.
PACKED_LAYOUT_NAMES = {"FIELD_BITS", "EXP_LIMIT", "_FIELD", "_packed", "_pack", "_unpack",
                       "_tuples", "_tuple_terms", "_den", "_lowest", "_coeff"}


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def test_packed_layout_stays_in_poly():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names = {name for name, _ in _names(tree)}
        if path.name == "poly.py":
            # The list above must name what poly.py really uses.
            assert PACKED_LAYOUT_NAMES <= names
            continue
        found += [f"{path.name}:{line} {name}" for name, line in _names(tree)
                  if name in PACKED_LAYOUT_NAMES]
    assert not found, f"packed monomial layout named outside poly.py: {found}"


# Campaigns run in one process: a pool of workers was slower than running
# the suites serially and rebuilt every cache cold in each worker.
CONCURRENCY_MODULES = ("concurrent", "multiprocessing", "threading")


def test_no_process_or_thread_pools():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] in CONCURRENCY_MODULES]
    assert not found, f"concurrency imports in src/chebsum: {found}"


# The benchmark's cold passes clear only the program's known lru caches, so a
# cache kept at module level by the exact layers would survive and warm them.
# poly.py and qseries.py keep memos on the objects that own them (QContext).
COLD_MODULES = ("poly.py", "qseries.py")
CACHE_DECORATORS = {"lru_cache", "cache"}
DICT_FACTORIES = {"dict", "defaultdict", "OrderedDict", "WeakKeyDictionary",
                  "WeakValueDictionary"}


def _is_dict_value(node):
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in DICT_FACTORIES
    return False


def test_no_module_level_caches_in_cold_layers():
    found = []
    for name in COLD_MODULES:
        tree = ast.parse((SRC / name).read_text(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [f"{name}:{node.lineno} functools.{alias.name}"
                          for alias in node.names if alias.name in CACHE_DECORATORS]
            elif (isinstance(node, ast.Attribute) and node.attr in CACHE_DECORATORS
                  and isinstance(node.value, ast.Name) and node.value.id == "functools"):
                found.append(f"{name}:{node.lineno} functools.{node.attr}")
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None \
                    and _is_dict_value(stmt.value):
                found.append(f"{name}:{stmt.lineno} module-level dict")
    assert not found, f"module-level caches in the cold exact layers: {found}"


# A public helper that nothing in the program calls is dead weight; the tests
# alone are not a caller.  Each exception names why it stays.
UNCALLED_ALLOWED = {
    "chi_series_tail_bound": "the truncation bound that series reports are to carry",
    "d_truncated_product": "test oracle: the finite-product route to d_n",
    "ft_u_coeffs": "test oracle: the U-expansion of f_t that the quadrature integrates",
    "from_json_dict": "test oracle: reads back what to_json_dict writes",
}
PERFBENCH = SRC.parents[1] / "perfbench"


def test_public_helpers_have_callers():
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    named: dict[str, int] = {}
    for path in modules + sorted(PERFBENCH.glob("*.py")):
        for name, _ in _names(ast.parse(path.read_text(), filename=str(path))):
            named[name] = named.get(name, 0) + 1
    found = []
    for path in modules:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            # Top-level functions and classes, and the methods of those classes.
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node] + [m for m in members if isinstance(m, ast.FunctionDef)]:
                if isinstance(d, (ast.FunctionDef, ast.ClassDef)) \
                        and not d.name.startswith("_") and d.name not in named \
                        and d.name not in UNCALLED_ALLOWED:
                    found.append(f"{path.name}:{d.lineno} {d.name}")
    assert not found, f"public helpers that nothing in src/ or perfbench/ names: {found}"


def test_campaign_records_compute_their_verdict():
    # A record whose pass flag is a literal checks nothing.
    path = SRC / "campaign.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "_rec":
            passed = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "passed"), None)
            if isinstance(passed, ast.Constant):
                found.append(f"campaign.py:{node.lineno}")
    assert not found, f"_rec calls with a constant pass flag: {found}"


def test_tracer_targets_resolve():
    # perfbench's span tracer wraps these by name (``cls.__dict__[meth]`` for a
    # method), so a rename must fail here rather than in a traced benchmark run.
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(), filename="tracer.py")
    targets = next(stmt.value for stmt in tree.body if isinstance(stmt, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS" for t in stmt.targets))
    entries = [(e.elts[0].value, e.elts[1].value) for e in targets.elts]
    assert entries
    missing = []
    for mod_name, attr in entries:
        mod = importlib.import_module(f"chebsum.{mod_name}")
        owner, _, name = attr.rpartition(".")
        if owner:
            cls = vars(mod).get(owner)
            ok = isinstance(cls, type) and name in vars(cls)
        else:
            ok = name in vars(mod)
        if not ok:
            missing.append(f"{mod_name}.{attr}")
    assert not missing, f"tracer targets that chebsum does not define: {missing}"


def test_one_seed_caller():
    # cheb_eval is the one Chebyshev evaluator: every other path seeds through it.
    callers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                callers += [f"{path.name}:{fn.name}" for name, _ in _names(fn)
                            if name == "_cheb_nth"]
    assert callers == ["cheb.py:cheb_eval"], callers


# From Python 3.12 on the built-in sum() adds floats with compensation, so a
# float sum through it has different bits on different versions; float sums
# use cheb.left_sum.  The built-in stays only where every term is an int or a
# Fraction, at these sites (module:function -> number of calls, why exact).
SUM_ALLOWED = {
    "campaign.py:failures": (1, "counts failed records"),
    "cheb.py:sign_vector_sum": (1, "bit mask of the U slots"),
    "genfun.py:_basis_convolution": (2, "monomial degrees"),
    "kibble.py:kibble_series_oracle": (2, "pair caps"),
    "poly.py:sorted_terms": (1, "monomial degree"),
    "poly.py:_reduce_markers": (1, "packed monomial bit mask"),
    "qseries.py:d_of_q": (1, "Fraction series in q"),
    "qseries.py:ft_moment_U": (1, "Fraction series in q"),
    "qseries.py:_ft_moment_x": (1, "Fraction moments"),
    "qseries.py:ft_inner_product": (1, "Fraction moments"),
    "qseries.py:_fit_polynomial_in_q": (1, "Fraction interpolant at a Fraction q"),
}


def _sum_calls(node, module, function="<module>", builtin="sum"):
    """(module:function, line) of every call of the built-in ``builtin`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        name = child.name if isinstance(child, ast.FunctionDef) else function
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) \
                and child.func.id == builtin:
            yield f"{module}:{name}", child.lineno
        yield from _sum_calls(child, module, name, builtin)


def test_builtin_sum_only_over_exact_terms():
    lines: dict[str, list[int]] = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for site, line in _sum_calls(tree, path.name):
            lines.setdefault(site, []).append(line)
    found = [f"{site} lines {at}" for site, at in sorted(lines.items())
             if len(at) != SUM_ALLOWED.get(site, (0,))[0]]
    found += [f"{site} no longer calls sum()" for site in SUM_ALLOWED if site not in lines]
    assert not found, f"built-in sum() outside the listed exact sites: {found}"


# Source text becomes code in one place: Poly's Horner plan compiler, which
# writes only its own names, hex literals and operators.
CODE_BUILTINS_ALLOWED = {"exec": {"poly.py:_compile_plan": 1},
                         "compile": {"poly.py:_compile_plan": 1}, "eval": {}}


def test_exec_and_compile_only_in_the_plan_compiler():
    for builtin, allowed in CODE_BUILTINS_ALLOWED.items():
        sites: dict[str, int] = {}
        for path in sorted(SRC.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for site, _ in _sum_calls(tree, path.name, builtin=builtin):
                sites[site] = sites.get(site, 0) + 1
        assert sites == allowed, f"{builtin}() calls: {sites}"


# |x| <= 1 and |rho| < 1 are decided by errors.require_below alone.
BOUND_MESSAGE = re.compile(r"must be <=? 1\b")


def test_domain_bounds_stay_in_errors():
    found = []
    for path in sorted(SRC.glob("*.py")):
        hits = [i for i, line in enumerate(path.read_text().splitlines(), 1)
                if BOUND_MESSAGE.search(line)]
        if path.name == "errors.py":
            assert len(hits) == 1  # the gate's own message
        else:
            found += [f"{path.name}:{i}" for i in hits]
    assert not found, f"domain bounds raised outside errors.py: {found}"
