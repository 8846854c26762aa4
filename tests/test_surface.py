"""No library helper that only tests call.

Walks `src/` with `ast`.  A public module-level function, or a public method
of a public class, must be named somewhere in `src/` besides its own
definition; otherwise it is surface that only tests (or nobody) use.  A name
kept on purpose is listed in KEEP with its reason.  CLI command callbacks
and dunders are exempt.  Names are matched as identifiers, not resolved: a
function counts as used when a bare name, an import or `module.name` names
it, a method when any attribute of the same name is used.
"""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "hilbertpoincare"

KEEP = {
    "residue_ring": "a test seam: the ring-count tests monkeypatch it",
    "trace_data": "the four slopes as Fractions, built on demand: benchmark/tracing.py "
                  "wraps it, and the slope tests and the Poincare oracle read it",
    "classes_upto": "benchmark/tracing.py wraps CoefficientEvaluator.classes_upto",
    "kloosterman_symmetry_check": "an identity checker of the paper (S symmetric in nu, mu)",
    "unit_twist_check": "an identity checker of the paper (unit twist of S)",
    "lemma41_value": "the closed form of Lemma 4.1",
    "cor43_check": "the identity of Cor. 4.3",
    "check_linear_relation": "the grid check of the paper's operator relation",
    "audit_certificate": "re-audits a certificate from its stored enclosure",
    "nonvanishing_relations_report": "the dichotomy report of Cor. 4.5",
    "is_real": "CyclotomicInteger.is_real, an exact test on Z[zeta_M] values",
    "additive_character": "e(alpha) as an exact Z[zeta_M] value",
    "contains": "intervals.contains, the outward containment test of an exact "
                "Fraction that the enclosure tests check their oracles with",
    "conj": "Elt.conj, the Galois conjugate of an element: src conjugates in "
            "coordinates, and the slope and ideal oracles are built with it",
}


def _is_command(fn):
    """A click command callback: decorated with `@<group>.command(...)`."""
    for dec in fn.decorator_list:
        call = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(call, ast.Attribute) and call.attr == "command":
            return True
    return False


def _definitions(tree):
    """(name, node, is_method) of the public functions and public-class methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_") and not _is_command(node):
                yield node.name, node, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield item.name, item, True


def _mentions(trees):
    """Identifiers that can refer to a module-level function (a bare name, an
    import, `module.name`) and to a method (any attribute)."""
    modules = set(trees)
    functions, methods = Counter(), Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                functions[node.id] += 1
            elif isinstance(node, ast.alias):
                functions[node.asname or node.name.split(".")[-1]] += 1
            elif isinstance(node, ast.Attribute):
                methods[node.attr] += 1
                if isinstance(node.value, ast.Name) and node.value.id in modules:
                    functions[node.attr] += 1
    return functions, methods


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _unused():
    trees = _trees()
    functions, methods = _mentions(trees)
    return sorted(f"{module}.{name} (line {node.lineno})"
                  for module, tree in trees.items()
                  for name, node, is_method in _definitions(tree)
                  if not (methods if is_method else functions)[name]
                  and name not in KEEP)


def test_every_public_function_is_used_in_src():
    assert _unused() == []


def test_keep_lists_only_names_that_exist():
    # a helper deleted from src/ takes its KEEP entry with it
    defined = {name for tree in _trees().values() for name, _, _ in _definitions(tree)}
    assert sorted(set(KEEP) - defined) == []
    assert all(KEEP.values())


# the position of the precision argument of each function that takes one
PRECISION_ARG = {"prec_guard": 0, "embeddings": 0, "A_interval": 0, "besselj_eval": 2,
                 "real_interval": 0, "complex_interval": 0, "kloosterman_float": 1,
                 "interval": 0, "zeta_F_enclosure": 2, "from_fixed": 3}


def _literal_precisions():
    """Calls in src/ that pass an integer literal as the precision."""
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name not in PRECISION_ARG:
                continue
            pos = PRECISION_ARG[name]
            args = node.args[pos:pos + 1] + [kw.value for kw in node.keywords
                                             if kw.arg in ("precision", "bits")]
            if any(isinstance(a, ast.Constant) and isinstance(a.value, int) for a in args):
                yield f"{module}.{name} (line {node.lineno})"


def test_no_literal_precision_in_src():
    # a precision is DEFAULT_PREC or the caller's argument, never a number
    # that drifts apart from it
    assert sorted(_literal_precisions()) == []


def test_no_assert_in_src():
    # python -O deletes assert statements, so a check in src/ raises instead
    found = [f"{module} (line {node.lineno})" for module, tree in _trees().items()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_src_reads_no_environment():
    # every setting is an option or a config key, never a hidden variable:
    # no os.environ, os.getenv or a bare environ / getenv imported from os
    env = {"environ", "environb", "getenv", "getenvb"}

    def names(node):
        if isinstance(node, ast.Attribute):
            return {node.attr}
        if isinstance(node, ast.Name):
            return {node.id}
        if isinstance(node, ast.ImportFrom):
            return {alias.name for alias in node.names}
        return set()
    found = [f"{module} (line {node.lineno})" for module, tree in _trees().items()
             for node in ast.walk(tree) if names(node) & env]
    assert found == []


# the module-level caches: state that outlives a command, each with the reason
# it stays.  A new one is a design change, named here with its reason.
MODULE_CACHES = {
    "field.make_field": "immutable math: one field per d, shared by every caller",
    "cyclotomic._cos_table_fixed": "benchmark/tracing.py reads its cache_info()",
    "ideals._factor_ideal_cached": "benchmark/tracing.py reads its cache_info()",
    "kloosterman._EXACT_CACHE": "benchmark/tracing.py reads it",
    "poincare._ledger_cache": "the certify invocations of one process share it",
}


def _is_cache_decorator(dec):
    call = dec.func if isinstance(dec, ast.Call) else dec
    name = call.attr if isinstance(call, ast.Attribute) else getattr(call, "id", None)
    return name in ("cache", "lru_cache")


def _is_empty_container(value):
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, ast.List):
        return not value.elts
    return (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "set"
            and not value.args and not value.keywords)


def _module_caches():
    """module.name of each functools-cached function or method, and of each
    module name bound to an empty {}, [] or set()."""
    for module, tree in _trees().items():
        scopes = [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
        for node in (n for body in scopes for n in body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_is_cache_decorator(d) for d in node.decorator_list):
                    yield f"{module}.{node.name}"
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if _is_empty_container(node.value):
                    yield from (f"{module}.{t.id}" for t in targets
                                if isinstance(t, ast.Name))


def test_module_caches_are_the_listed_ones():
    assert sorted(_module_caches()) == sorted(MODULE_CACHES)
    assert all(MODULE_CACHES.values())
