"""Source hygiene: every name a deltafuzz module imports is used there or
exported through its __all__."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "deltafuzz"


def unused_imports(path: Path, root: Path = PACKAGE) -> list[str]:
    """'file:line name' for each name path imports and never uses, the file
    relative to root."""
    tree = ast.parse(path.read_text(), str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    where = path.relative_to(root)
    return [f"{where}:{line} {name}" for name, line in imported.items() if name not in used]


def test_the_scan_flags_unused_and_spares_used_and_exported_names(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import os\nimport os.path as osp\nfrom sys import argv, path as search, version\n"
        "__all__ = ['argv']\nprint(osp.sep, version)\n"
    )
    assert unused_imports(probe, tmp_path) == ["probe.py:1 os", "probe.py:3 search"]


def test_no_module_imports_a_name_it_never_uses():
    files = sorted(PACKAGE.rglob("*.py"))
    assert files, f"no sources under {PACKAGE}"
    assert [entry for path in files for entry in unused_imports(path)] == []
