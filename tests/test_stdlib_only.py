"""The runtime has no third-party dependencies (``dependencies = []``)."""

import ast
import sys
from pathlib import Path

import noncross

PACKAGE_DIR = Path(noncross.__file__).parent


def test_package_imports_only_the_standard_library_and_itself():
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    continue  # relative: the package itself
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "noncross" or top in sys.stdlib_module_names, (path.name, name)
