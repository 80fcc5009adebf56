"""Every top-level function, class and constant of the package is used.

A name defined at the top of a module in `src/bevlanes/` must be referenced
somewhere besides its own definition and the package's `__init__.py`: as a
name, an attribute or a string (the stage table names the `io` readers and
writers by string) in another top-level statement of `src/`, or as a word in
`demos/`, `perfbench/` or `README.md`. An import does not count, and neither
do tests, so code that only a test calls is found here.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = [p for p in sorted((ROOT / "src" / "bevlanes").glob("*.py")) if p.name != "__init__.py"]
USERS = [p for d in ("demos", "perfbench") for p in sorted((ROOT / d).glob("*"))
         if p.suffix in (".py", ".md")] + [ROOT / "README.md"]


def _defined(statement: ast.stmt) -> list[str]:
    """The names a top-level function, class or assignment defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return [leaf.id for t in targets for leaf in ast.walk(t) if isinstance(leaf, ast.Name)]
    return []


def _referenced(statement: ast.stmt) -> set:
    """The names, attribute names and strings used in a statement."""
    return {node.id if isinstance(node, ast.Name) else
            node.attr if isinstance(node, ast.Attribute) else node.value
            for node in ast.walk(statement)
            if isinstance(node, (ast.Name, ast.Attribute))
            or isinstance(node, ast.Constant) and isinstance(node.value, str)}


def unused(modules, users) -> list[str]:
    """`<module>.<name>` of each top-level name of the modules that nothing uses."""
    statements = [(path, s) for path in modules for s in ast.parse(path.read_text()).body]
    uses = [_referenced(s) for _, s in statements]
    text = "\n".join(p.read_text() for p in users)
    return [f"{path.stem}.{name}" for k, (path, s) in enumerate(statements)
            for name in _defined(s) if not name.startswith("__")
            and not any(name in u for j, u in enumerate(uses) if j != k)
            and not re.search(rf"\b{re.escape(name)}\b", text)]


def test_every_top_level_name_of_the_package_is_used():
    assert unused(MODULES, USERS) == []


def test_the_guard_finds_what_only_its_own_definition_uses(tmp_path):
    module = tmp_path / "extra.py"
    module.write_text("def _extra_loop():\n    return _extra_loop()\n\n\nEXTRA_SIZE = 3\n\n\n"
                      "def extra_entry():\n    return EXTRA_SIZE\n")
    assert unused([*MODULES, module], USERS) == ["extra._extra_loop", "extra.extra_entry"]
    readme = tmp_path / "README.md"
    readme.write_text("Call `extra_entry()`.\n")
    assert unused([*MODULES, module], [*USERS, readme]) == ["extra._extra_loop"]
