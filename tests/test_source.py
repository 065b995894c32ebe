"""Checks on the package source itself, read with ``ast``."""

import ast
from pathlib import Path

import mvfa
from source_lines import count_lines, sources

PACKAGE = Path(mvfa.__file__).parent


def _private_definitions(tree):
    """(name, node) of each module-level private function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _referenced_names(tree, skip):
    """Names read as a variable or an attribute outside the nodes in ``skip``."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_private_module_name_is_used_in_the_package():
    """Each module-level _name in src/mvfa is read somewhere outside its own definition.

    A private helper that only tests call, or that nothing calls, is dead code.
    A name counts as used in the package when some module reads it, as a name
    or an attribute, outside the statement that defines it; an import alone
    does not count.
    """
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree):
            used = any(name in _referenced_names(other, {definition} if other is tree else set())
                       for other in trees.values())
            if not used:
                unused.append(f"{module}: {name}")
    assert not unused, unused


def test_every_module_level_import_is_read_in_its_module():
    """Each name that a src/mvfa module imports at module level is read in that module.

    An import that outlives the code that used it is dead; ``__init__.py``,
    whose imports are the package's interface, and ``__future__`` are exempt.
    """
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unread += [f"{path.name}:{node.lineno}: {name}" for name in
                           (alias.asname or alias.name.split(".")[0] for alias in node.names)
                           if name not in read]
    assert not unread, unread


def test_only_fileio_imports_struct():
    """Binary layout lives in one module: no module of src/mvfa but fileio.py imports struct."""
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if "struct" in (m.split(".")[0] for m in modules) and path.name != "fileio.py":
                importers.append(path.name)
    assert not importers, importers


def test_only_the_worker_module_forks_or_imports_ctypes():
    """No module of src/mvfa but worker.py names ``fork`` or ``ctypes`` in code.

    Process machinery lives in one module, so a second fork path cannot grow
    back beside the split that training, scoring and gen-data share. Any
    name, attribute, import or string (a docstring aside) holding "fork"
    counts, ``hasattr(os, "fork")`` included, so the no-fork fallback lives
    in worker.py alone.
    """
    users = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                      and ast.get_docstring(node) is not None}
        for node in ast.walk(tree):
            names = [getattr(node, field, None)
                     for field in ("id", "attr", "name", "asname", "arg", "module")]
            if isinstance(node, ast.Constant) and id(node) not in docstrings:
                names.append(node.value)
            if path.name != "worker.py" and any(
                    isinstance(name, str) and ("ctypes" in name.split(".")
                                               or "fork" in name.lower()) for name in names):
                users.append(f"{path.name}:{node.lineno}")
    assert not users, users


def test_no_module_starts_a_thread_or_imports_queue():
    """No module of src/mvfa starts a ``threading.Thread`` or imports a queue or pool.

    Work is split across processes by the one forked worker (worker.py),
    so no writer thread can grow back beside it. Only autograd.py imports
    threading, for its thread-local ``no_grad`` flag.
    """
    users = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules, names = [alias.name.split(".")[0] for alias in node.names], []
            elif isinstance(node, ast.ImportFrom):
                modules = [(node.module or "").split(".")[0]]
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                modules, names = [], [node.attr]
            else:
                continue
            if ("Thread" in names
                    or {"queue", "_thread", "concurrent"} & set(modules)
                    or ("threading" in modules and path.name != "autograd.py")):
                users.append(f"{path.name}:{node.lineno}")
    assert not users, users


def test_source_line_kinds_add_up_to_each_modules_lines():
    """Code, docstring, comment and blank lines partition each module's lines.

    The example holds a blank docstring line, and a '#' and a blank line
    inside a string that is no docstring.
    """
    for name, text in sources():
        counts = count_lines(text)
        assert sum(counts.values()) == len(text.splitlines()), name
    text = ('''"""Module.\n\nMore."""\n\n# a comment\nx = """#\n\n"""  # trailing\n'''
            '''def f():\n    """One line."""\n    return x\n''')
    assert count_lines(text) == {"code": 4, "docstring": 4, "comment": 1, "blank": 2}
