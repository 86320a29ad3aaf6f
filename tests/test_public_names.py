"""The package's public names, the README's library imports and its config
example resolve, so a reshaped module cannot leave any of them pointing at a
name or a schema that is gone; and the package imports nothing but the
standard library and numpy, its one declared dependency."""

import ast
import re
import sys
from pathlib import Path

import investlearn
from investlearn.config import load_config

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(investlearn.__file__).resolve().parent


def test_every_public_name_resolves():
    for name in investlearn.__all__:
        assert hasattr(investlearn, name), name


def test_no_public_name_shadows_a_submodule():
    # importing a submodule binds it as a package attribute; a function
    # exported under the same name would replace it there
    submodules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert {"model", "boundary", "value", "simulate", "discrete", "config", "cli",
            "artifacts", "plots"} <= submodules
    assert not submodules & set(investlearn.__all__)


def test_readme_library_imports_run():
    # only the import statements: the rest of the block solves and simulates
    block = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    block = block.split("```python", 1)[1].split("```", 1)[0]
    imports = [node for node in ast.parse(block).body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    exec(compile(ast.Module(body=imports, type_ignores=[]), "README.md", "exec"), {})


def test_readme_config_schema_loads(tmp_path):
    # the documented example goes through the same readers as any run document
    block = README.read_text(encoding="utf-8").split("## Config schema", 1)[1]
    block = block.split("```json", 1)[1].split("```", 1)[0]
    cfg = tmp_path / "config.json"
    cfg.write_text(block, encoding="utf-8")
    assert load_config(cfg).config_hash.startswith("sha256:")


def test_package_imports_only_stdlib_and_numpy():
    # the package's own modules import each other relatively (level > 0)
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"


def test_package_depends_on_numpy_only():
    import tomllib

    project = tomllib.loads((README.parent / "pyproject.toml").read_text(encoding="utf-8"))
    names = [re.match(r"[A-Za-z0-9_.-]+", req).group().lower()
             for req in project["project"]["dependencies"]]
    assert names == ["numpy"]
