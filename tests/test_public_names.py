"""The package's public names and the README's library imports resolve, so
a reshaped module cannot leave either pointing at a name that is gone."""

import ast
from pathlib import Path

import investlearn

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_public_name_resolves():
    for name in investlearn.__all__:
        assert hasattr(investlearn, name), name


def test_readme_library_imports_run():
    # only the import statements: the rest of the block solves and simulates
    block = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    block = block.split("```python", 1)[1].split("```", 1)[0]
    imports = [node for node in ast.parse(block).body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    exec(compile(ast.Module(body=imports, type_ignores=[]), "README.md", "exec"), {})
