"""Repository hygiene: README's Python examples run and print what their
comments say, no module imports a
name it never uses, the value parsers and the engines sit below the family
catalogue in the import graph, and every public name (each module's
top-level names and its classes' methods) has a caller or a reader outside
the tests."""

import ast
import re
import sys
from pathlib import Path

import pytest

import sepcurv

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "sepcurv"


def _readme_python_blocks() -> list[str]:
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)


def test_readme_has_python_examples():
    assert len(_readme_python_blocks()) >= 3


# a line `print(...)   # <text>` says that it prints exactly <text>
_PRINT_COMMENT = re.compile(r"^print\(.*\)\s+# (.*)$")


@pytest.mark.parametrize("index", range(len(_readme_python_blocks())))
def test_readme_python_block_runs(tmp_path, monkeypatch, index):
    monkeypatch.chdir(tmp_path)
    source = _readme_python_blocks()[index]
    printed = {}

    def record(*args):
        # each print's text by its line in the block
        printed[sys._getframe(1).f_lineno] = " ".join(map(str, args))

    exec(compile(source, f"README.md python block {index}", "exec"),
         {"__name__": "__readme__", "print": record})
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _PRINT_COMMENT.match(line)
        if match:
            assert printed.get(lineno) == match.group(1), line


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_module_uses_every_name_it_imports(module):
    assert _unused_imports(PACKAGE / module) == []


def _package_imports(module: str) -> set[str]:
    """The package modules `module` imports from, as `.name` or
    `sepcurv.name` (`from . import name` counts as importing `name`)."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / module).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            path = "." * node.level + (node.module or "")
            if path in (".", "sepcurv"):
                found.update(alias.name for alias in node.names)
            elif path.startswith((".", "sepcurv.")):
                found.add(path.lstrip(".").removeprefix("sepcurv.").split(".")[0])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("sepcurv.")
            )
    return found


def test_value_parsers_and_engines_sit_below_the_family_catalogue():
    # every module checks its arguments with the parsers in errors, so errors
    # imports no package module; the engines never need the family catalogue
    assert _package_imports("errors.py") == set()
    for module in ("geometry.py", "curvature.py", "meshing.py"):
        assert "families" not in _package_imports(module), module


def _src_references() -> set[str]:
    """Every name a package module other than `__init__.py` reads, and
    every attribute it refers to."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
    return found


def _public_definitions() -> list[str]:
    """Each package module's top-level public names, as `module.name`, and
    its classes' public methods, as `module.Class.method`."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                continue
            found += [f"{path.stem}.{name}" for name in names if not name.startswith("_")]
            if isinstance(node, ast.ClassDef):
                found += [
                    f"{path.stem}.{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    # a name only tests use is dead weight: put it to work or delete it
    readers = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "perfbench").glob("*.py"))]
    text = "\n".join(p.read_text(encoding="utf-8") for p in readers)
    referenced = _src_references()
    names = [*sepcurv.__all__, *_public_definitions()]
    unused = [
        name for name in names
        if (short := name.rsplit(".", 1)[-1]) not in referenced
        and not re.search(rf"\b{short}\b", text)
    ]
    assert unused == []
