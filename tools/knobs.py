"""List the parameters with a default in src/ and which code passes them.

A parameter with a default that no caller passes is a setting nobody uses. A
caller is code in src/, perfbench/ or tests/test_acceptance.py: a setting
that only unit tests pass is a constant they may patch. This script scans
the package with `ast`, using the standard library only:

    python3 tools/knobs.py

It prints one line per parameter with a default of a function or method
under src/ (dataclass fields are not parameters here), naming which callers
pass it, and ends with the count of parameters that none of them passes.

A call counts for every function of the same name, since the scan does not
resolve types; a call of a class reaches its __init__. It passes a parameter
by keyword, or by position when it has more positional arguments than the
parameters before it, not counting self or cls; a `*args` argument passes
every positional parameter. A function that hands its own parameter on to
itself (a recursive or re-connecting call) does not count as passing it. A
call that passes `**kw` passes nothing by itself, but the keywords given to
a function are also given to each function it calls with its own `**kw`. A
call through anything but a name or an attribute, say a dict lookup,
reaches nothing.

Four more reports follow. Unreferenced names: the public top-level
functions and classes and the public methods of public classes under src/
that no caller names outside their own definition, so a name that only its
own unit tests call is unreferenced. A name counts as a variable, an
attribute, an imported name, or a string of dotted names (perfbench hooks
functions by such strings); as with calls, a name counts for every
definition of that name. Unread fields: the class-body annotations of the
classes under src/ (dataclass fields among them) and the attributes their
methods assign on self, that no code in src/, perfbench/ or tests/ reads,
as an attribute or through getattr with a constant name; a read counts for
every field of that name. Unused imports: the names a module under src/
imports and neither uses nor lists in its __all__. Unread parameters: the
parameters (self and cls left out) of the public top-level functions and
of the public methods of public classes under src/ that their body never
reads as a name; the methods of a class that subclasses a class defined
under src/ are skipped (they keep their base's signature), and so are
bodies that only raise.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
CALLERS = ("src", "perfbench", "tests/test_acceptance.py")
READERS = ("src", "perfbench", "tests")


def _files(root: Path, top: str):
    """The Python files of a directory under root, or the one file top names."""
    if top.endswith(".py"):
        return [root / top]
    return sorted((root / top).rglob("*.py"))


def _last_name(node) -> Optional[str]:
    """The name a name or attribute expression ends in, or None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _callee(call: ast.Call):
    """The name a call's target ends in, or None."""
    return _last_name(call.func)


class _Defs(ast.NodeVisitor):
    """Every function under src/ with its parameters that have a default."""

    def __init__(self, module: str):
        self.module = module
        self.scope: list = []
        self.found: list = []

    def visit_ClassDef(self, node):
        self.scope.append((node.name, True))
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node):
        a = node.args
        positional = a.posonlyargs + a.args
        in_class = bool(self.scope) and self.scope[-1][1]
        name = node.name
        if name == "__init__" and in_class:
            name = self.scope[-1][0]     # reached by calling the class
        first = len(positional) - len(a.defaults)
        params = [(p.arg, i) for i, p in enumerate(positional) if i >= first]
        params += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        forwards = []
        if a.kwarg is not None:
            for call in ast.walk(node):
                if (isinstance(call, ast.Call) and _callee(call)
                        and any(k.arg is None and isinstance(k.value, ast.Name)
                                and k.value.id == a.kwarg.arg for k in call.keywords)):
                    forwards.append(_callee(call))
        qual = ".".join([s for s, _ in self.scope] + [node.name])
        bound = in_class and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        self.found.append({"module": self.module, "qual": qual, "name": name,
                           "bound": bound, "params": params, "forwards": forwards})
        self.scope.append((node.name, False))
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef


def definitions(root: Path = ROOT) -> list:
    defs = []
    for path in _files(root, "src"):
        v = _Defs(path.stem)
        v.visit(ast.parse(path.read_text()))
        defs += v.found
    return defs


class Site(NamedTuple):
    """One call: where it is, its keywords and positional arguments (each the
    name it passes when that is a plain variable, else None), whether it
    unpacks *args, and the functions it sits in."""

    top: str
    keywords: dict
    positional: tuple
    star: bool
    inside: tuple

    def passes(self, fn: str, param: str, at: Optional[int]) -> bool:
        """Does this call of fn set param (at position `at`, None if keyword-only)?
        A call of fn from inside fn that hands on fn's own param sets nothing."""
        recursive = fn in self.inside
        if param in self.keywords:
            return not (recursive and self.keywords[param] == param)
        if at is None:
            return False
        if at < len(self.positional):
            return not (recursive and self.positional[at] == param)
        return self.star


def _name(node) -> Optional[str]:
    return node.id if isinstance(node, ast.Name) else None


def _sites(tree, top: str, out: dict, cls=None, inside=()) -> None:
    """Add every call under tree to out; cls(...) inside a class calls that class."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call) and _callee(node):
            name = _callee(node)
            if name == "cls" and cls is not None:
                name = cls
            out[name].append(Site(
                top, {k.arg: _name(k.value) for k in node.keywords if k.arg is not None},
                tuple(_name(x) for x in node.args if not isinstance(x, ast.Starred)),
                any(isinstance(x, ast.Starred) for x in node.args), inside))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _sites(node, top, out, cls, inside + (node.name,))
        else:
            _sites(node, top, out, node.name if isinstance(node, ast.ClassDef) else cls, inside)


def calls(root: Path = ROOT) -> dict:
    """Function name -> every Site that calls a function of that name."""
    out = defaultdict(list)
    for top in CALLERS:
        for path in _files(root, top):
            _sites(ast.parse(path.read_text()), top, out)
    return out


def scan(root: Path = ROOT) -> list:
    """[(module.qualname, parameter, sorted caller dirs that pass it)]."""
    defs = definitions(root)
    sites = calls(root)
    # keywords reaching a function through the **kw of the functions that call it
    changed = True
    while changed:
        changed = False
        for d in defs:
            for target in d["forwards"]:
                for site in list(sites[d["name"]]):
                    entry = site._replace(positional=(), star=False)
                    if site.keywords and entry not in sites[target]:
                        sites[target].append(entry)
                        changed = True
    rows = []
    for d in defs:
        for param, index in d["params"]:
            at = None if index is None else index - d["bound"]   # self or cls
            who = {s.top for s in sites[d["name"]] if s.passes(d["name"], param, at)}
            rows.append((f"{d['module']}.{d['qual']}", param, sorted(who)))
    return rows


def never_passed(root: Path = ROOT) -> list:
    return [f"{qual}({param})" for qual, param, who in scan(root) if not who]


def _public_defs(path: Path) -> list:
    """(qualified name, bare name, first line, last line) of each public
    top-level function and class and each public method of a public class."""
    out = []
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        out.append((node.name, node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if (isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not m.name.startswith("_")):
                    out.append((f"{node.name}.{m.name}", m.name, m.lineno, m.end_lineno))
    return out


_DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")


def _names(tree):
    """(name, line) of every name the code under tree uses."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            for part in node.value.split("."):
                yield part, node.lineno


def unreferenced(root: Path = ROOT) -> list:
    """module.qualname of each public name under src/ that no code in CALLERS
    names outside its own definition."""
    uses = defaultdict(list)
    for top in CALLERS:
        for path in _files(root, top):
            for name, line in _names(ast.parse(path.read_text())):
                uses[name].append((path, line))
    out = []
    for path in _files(root, "src"):
        for qual, name, first, last in _public_defs(path):
            if not any(p != path or not first <= line <= last for p, line in uses[name]):
                out.append(f"{path.stem}.{qual}")
    return out


def _reads(tree):
    """Every attribute name the code under tree reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (isinstance(node, ast.Call) and _callee(node) == "getattr"
              and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
            yield node.args[1].value


def _fields(node: ast.ClassDef) -> list:
    """The names a class annotates in its body, then those its methods assign
    on self, each once."""
    names = [f.target.id for f in node.body
             if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
    for fn in node.body:
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in ast.walk(fn):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
                for t in targets:
                    names += [e.attr for e in (t.elts if isinstance(t, ast.Tuple) else [t])
                              if isinstance(e, ast.Attribute) and isinstance(e.value, ast.Name)
                              and e.value.id == "self"]
    return list(dict.fromkeys(names))


def unread_fields(root: Path = ROOT) -> list:
    """module.Class.field of each field (_fields) of a class under src/ that
    no code in READERS reads."""
    read = set()
    for top in READERS:
        for path in _files(root, top):
            read.update(_reads(ast.parse(path.read_text())))
    out = []
    for path in _files(root, "src"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                out += [f"{path.stem}.{node.name}.{name}" for name in _fields(node)
                        if name not in read]
    return out


def unused_imports(root: Path = ROOT) -> list:
    """module.name of each name a module under src/ imports and never uses."""
    out = []
    for path in _files(root, "src"):
        tree = ast.parse(path.read_text())
        imported = []
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
            elif isinstance(node, ast.Import):
                imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
        out += [f"{path.stem}.{name}" for name in imported if name not in used]
    return out


def _only_raises(fn) -> bool:
    """Is a function's body, its docstring left out, nothing but raise statements?"""
    body = fn.body
    if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    return bool(body) and all(isinstance(stmt, ast.Raise) for stmt in body)


def _unread(fn, bound: bool) -> list:
    """The parameters of fn that its body never loads as a name, bound
    methods' first parameter (self or cls) left out."""
    a = fn.args
    params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs][int(bound):]
    loaded = {n.id for n in ast.walk(fn)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [p for p in params if p not in loaded]


def unread_parameters(root: Path = ROOT) -> list:
    """module.qualname(param) of each parameter that a public function or a
    public method of a public class under src/ never reads; classes that
    subclass a src/ class and bodies that only raise are skipped."""
    trees = [(path.stem, ast.parse(path.read_text())) for path in _files(root, "src")]
    src_classes = {n.name for _, tree in trees for n in ast.walk(tree)
                   if isinstance(n, ast.ClassDef)}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []
    for module, tree in trees:
        for node in tree.body:
            if not isinstance(node, functions + (ast.ClassDef,)) or node.name.startswith("_"):
                continue
            if isinstance(node, functions):
                if not _only_raises(node):
                    out += [f"{module}.{node.name}({p})" for p in _unread(node, False)]
            elif not any(_last_name(b) in src_classes for b in node.bases):
                for m in node.body:
                    if (isinstance(m, functions) and not m.name.startswith("_")
                            and not _only_raises(m)):
                        bound = not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                        for d in m.decorator_list)
                        out += [f"{module}.{node.name}.{m.name}({p})" for p in _unread(m, bound)]
    return out


def main() -> int:
    rows = scan()
    for qual, param, who in rows:
        print(f"{qual}({param}): {', '.join(who) if who else 'never passed'}")
    print(f"parameters with a default: {len(rows)}")
    print(f"never passed: {sum(not who for _, _, who in rows)}")
    names = unreferenced()
    for qual in names:
        print(f"unreferenced: {qual}")
    print(f"unreferenced names: {len(names)}")
    fields = unread_fields()
    for qual in fields:
        print(f"unread field: {qual}")
    print(f"unread fields: {len(fields)}")
    imports = unused_imports()
    for qual in imports:
        print(f"unused import: {qual}")
    print(f"unused imports: {len(imports)}")
    params = unread_parameters()
    for qual in params:
        print(f"unread parameter: {qual}")
    print(f"unread parameters: {len(params)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
