"""The package imports nothing outside the standard library, and parses as Python 3.10."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tiersim"


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, PACKAGE
    outside = []
    for path in sources:
        # the oldest Python that pyproject.toml admits: newer syntax fails to parse
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            outside += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
