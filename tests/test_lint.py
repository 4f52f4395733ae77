"""Lint gate: `ruff check` must be clean under the pyproject config.

The rule set (E4/E7/E9/F) targets real defects — unused imports,
undefined names, syntax errors — not style.  Where ruff is not
installed (the build box, a bare numpy/pytest environment) the same test
falls back to :func:`scan`, a standard-library ``ast`` pass over the
three rules a refactor actually trips — F401 unused import, F811
redefinition of an unused name, F821 undefined name — honouring
``__all__`` and ``# noqa``.  It is deliberately narrower than pyflakes
(one flat name set per scope, no flow analysis: a name bound anywhere in
a scope counts as bound everywhere in it); CI runs ruff.
"""

import ast
import builtins
import shutil
import subprocess
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
LINTED = ("src", "tests", "benchmarks", "examples")

_MODULE_NAMES = set(dir(builtins)) | {
    "__file__", "__name__", "__doc__", "__package__", "__spec__",
    "__path__", "__class__"}


class _Scope:
    def __init__(self, node, parent):
        self.node, self.parent = node, parent
        self.names: set[str] = set()

    def chain(self):
        scope = self
        while scope is not None:
            yield scope
            scope = scope.parent


class _Scanner(ast.NodeVisitor):
    """One walk: which scope binds what, which scope reads what, and
    every import / def / class statement in order."""

    def __init__(self, tree):
        self.scope = _Scope(tree, None)
        self.loads: list[tuple[str, ast.AST, _Scope]] = []
        self.definitions: list[tuple[str, ast.AST, _Scope]] = []
        self.star = False
        self.in_annotation = False
        self.generic_visit(tree)

    # -- scopes ----------------------------------------------------------

    def _inside(self, node, visit_body):
        self.scope = _Scope(node, self.scope)
        visit_body()
        self.scope = self.scope.parent

    def _annotation(self, node):
        if node is not None:
            self.in_annotation, was = True, self.in_annotation
            self.visit(node)
            self.in_annotation = was

    def _function(self, node):
        args = node.args
        every = args.posonlyargs + args.args + args.kwonlyargs \
            + [a for a in (args.vararg, args.kwarg) if a]
        # decorators, defaults and annotations evaluate outside
        for expr in getattr(node, "decorator_list", []) + args.defaults \
                + [d for d in args.kw_defaults if d]:
            self.visit(expr)
        for arg in every:
            self._annotation(arg.annotation)
        self._annotation(getattr(node, "returns", None))

        def body():
            self.scope.names.update(a.arg for a in every)
            for stmt in node.body if isinstance(node.body, list) \
                    else [node.body]:
                self.visit(stmt)
        self._inside(node, body)

    def visit_FunctionDef(self, node):
        self._define(node.name, node)
        self._function(node)

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = _function

    def visit_ClassDef(self, node):
        self._define(node.name, node)
        for expr in node.decorator_list + node.bases \
                + [k.value for k in node.keywords]:
            self.visit(expr)
        self._inside(node, lambda: [self.visit(s) for s in node.body])

    def _comprehension(self, node):
        first = node.generators[0]
        self.visit(first.iter)      # evaluates in the enclosing scope

        def body():
            for gen in node.generators:
                if gen is not first:
                    self.visit(gen.iter)
                self.visit(gen.target)
                for cond in gen.ifs:
                    self.visit(cond)
            for part in ("elt", "key", "value"):
                if hasattr(node, part):
                    self.visit(getattr(node, part))
        self._inside(node, body)

    visit_ListComp = visit_SetComp = visit_DictComp = _comprehension
    visit_GeneratorExp = _comprehension

    # -- bindings and reads ----------------------------------------------

    def _define(self, name, node):
        self.scope.names.add(name)
        self.definitions.append((name, node, self.scope))

    def _import(self, node):
        if getattr(node, "module", None) == "__future__":
            return
        for alias in node.names:
            if alias.name == "*":
                self.star = True
            else:
                self._define(alias.asname or alias.name.partition(".")[0],
                             node)

    visit_Import = visit_ImportFrom = _import

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.loads.append((node.id, node, self.scope))
        else:
            self.scope.names.add(node.id)

    def visit_NamedExpr(self, node):
        self.visit(node.value)
        scope = self.scope      # a walrus binds past comprehensions
        while not isinstance(scope.node, (ast.Module, ast.FunctionDef,
                                          ast.AsyncFunctionDef, ast.Lambda,
                                          ast.ClassDef)):
            scope = scope.parent
        scope.names.add(node.target.id)

    def visit_Global(self, node):
        self.scope.names.update(node.names)

    visit_Nonlocal = visit_Global

    def visit_ExceptHandler(self, node):
        if node.name:
            self.scope.names.add(node.name)
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        self._annotation(node.annotation)
        self.visit(node.target)
        if node.value is not None:
            self.visit(node.value)

    def visit_Constant(self, node):
        if self.in_annotation and isinstance(node.value, str):
            try:    # a quoted annotation reads the names it spells
                quoted = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return
            for sub in ast.walk(quoted):
                if isinstance(sub, ast.Name):
                    self.loads.append((sub.id, node, self.scope))


def scan(source: str, filename: str = "<string>") -> list[str]:
    """F401 / F811 / F821 findings in one module's source."""
    tree = ast.parse(source, filename)
    lines = source.splitlines()
    seen = _Scanner(tree)
    findings: list[tuple[int, str]] = []

    def report(node, code, text):
        _, noqa, codes = lines[node.lineno - 1].partition("# noqa")
        # a bare `# noqa` silences the line, `# noqa: X` only X
        if not noqa or codes.startswith(":") and code not in codes:
            findings.append(
                (node.lineno, f"{filename}:{node.lineno}: {code} {text}"))

    exported = {
        elt.value for stmt in tree.body
        if isinstance(stmt, (ast.Assign, ast.AugAssign))
        and any(isinstance(n, ast.Name) and n.id == "__all__"
                for n in ast.walk(stmt))
        for elt in ast.walk(stmt.value)
        if isinstance(elt, ast.Constant) and isinstance(elt.value, str)}
    #: statement -> the statement list it sits in (if/else arms differ)
    block = {id(stmt): id(body)
             for node in ast.walk(tree) for body in vars(node).values()
             if isinstance(body, list) for stmt in body
             if isinstance(stmt, ast.stmt)}

    read_at: dict[str, list] = {}
    for name, node, scope in seen.loads:
        read_at.setdefault(name, []).append((node.lineno, scope))

    def reads(name, scope):
        """Line numbers where ``name`` is read in ``scope`` or below."""
        return [line for line, s in read_at.get(name, ())
                if scope in s.chain()]

    previous: dict[tuple[int, str], ast.AST] = {}
    for name, node, scope in seen.definitions:
        is_import = isinstance(node, (ast.Import, ast.ImportFrom))
        if is_import and not reads(name, scope) and not (
                scope.parent is None and name in exported):
            report(node, "F401", f"`{name}` imported but unused")
        before = previous.get((id(scope), name))
        if before is not None and block[id(before)] == block[id(node)] \
                and not any(before.lineno < line <= node.lineno
                            for line in reads(name, scope)):
            report(node, "F811", f"redefinition of unused `{name}` from "
                                 f"line {before.lineno}")
        previous[id(scope), name] = node

    if not seen.star:
        for name, node, scope in seen.loads:
            # a class body's names are visible only to the class body
            if name not in _MODULE_NAMES and not any(
                    name in s.names for s in scope.chain()
                    if s is scope or not isinstance(s.node, ast.ClassDef)):
                report(node, "F821", f"undefined name `{name}`")
    return [text for _, text in sorted(findings)]


def test_ruff_clean():
    ruff = shutil.which("ruff")
    if ruff is not None:
        proc = subprocess.run([ruff, "check", *LINTED], cwd=REPO_ROOT,
                              capture_output=True, text=True)
        assert proc.returncode == 0, f"ruff findings:\n{proc.stdout}"
        return
    findings = [
        finding
        for top in LINTED
        for path in sorted((REPO_ROOT / top).rglob("*.py"))
        for finding in scan(path.read_text(),
                            str(path.relative_to(REPO_ROOT)))]
    assert not findings, "\n".join(findings)


def test_fallback_scan_finds_what_it_names():
    source = '''\
import os
import sys  # noqa: F401
import json
from typing import Any
from pathlib import Path

__all__ = ["json"]


def twice(x: "Any") -> Path:
    return x


def twice(x):
    import re
    return [undefined_a for y in x if (z := y)] + [z, undefined_b]


class K:
    limit = 3

    def m(self):
        return limit
'''
    got = [f.split(": ", 1)[1] for f in scan(source)]
    assert got == [
        "F401 `os` imported but unused",
        "F811 redefinition of unused `twice` from line 10",
        "F401 `re` imported but unused",
        "F821 undefined name `undefined_a`",
        "F821 undefined name `undefined_b`",
        "F821 undefined name `limit`",
    ]
