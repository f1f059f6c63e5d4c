"""Every top-level function and class of the package is used by the package.

A name defined at module level in src/exactsdp must be loaded somewhere in
src/exactsdp outside its own definition: called, referenced or named in an
annotation, directly or through an import alias or a module attribute.  An
export from __init__ does not count as a use.  Code only tests use belongs
in the tests.
"""
import ast
import os

import exactsdp

SRC = os.path.dirname(exactsdp.__file__)

# names kept although nothing in the package loads them
ALLOWED = {
    # the benchmark's tracer binds it as a per-layer span
    ("certify", "inclusion_status"),
    # the one-member call of the stacked (C)' layer; the tests compare the
    # stack against it member by member
    ("certify", "slice_infimum"),
    # writes the problem-document schema that docio parses; tests use it
    ("docio", "problem_doc"),
    # the raster tests compare pixel signs against it
    ("model", "eval_quadratic"),
}


def _modules():
    out = {}
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py") and fname != "__init__.py":
            with open(os.path.join(SRC, fname)) as fh:
                out[fname[:-3]] = ast.parse(fh.read())
    return out


def _loads(tree):
    """For each top-level statement of a module, the names it loads, with
    import aliases resolved to the imported name."""
    aliases = {a.asname or a.name: a.name for sub in ast.walk(tree)
               if isinstance(sub, ast.ImportFrom) for a in sub.names}
    out = []
    for stmt in tree.body:
        found = set()
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                found.add(aliases.get(sub.id, sub.id))
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                found.add(sub.attr)
        out.append((stmt, found))
    return out


def test_every_top_level_definition_is_used():
    modules = _modules()
    loads = [pair for tree in modules.values() for pair in _loads(tree)]
    defined, unused = set(), []
    for mod, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defined.add((mod, node.name))
            if (mod, node.name) in ALLOWED:
                continue
            if not any(node.name in found for stmt, found in loads if stmt is not node):
                unused.append("%s.%s" % (mod, node.name))
    assert not unused, "defined in src/exactsdp but never used there: %s" % unused
    assert ALLOWED <= defined, "allow-list names that no longer exist: %s" % (ALLOWED - defined)
