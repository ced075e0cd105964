"""The package's certificates hold in every build: no module under
``src/conductor`` has an ``assert`` statement, which ``python -O`` would
strip."""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "conductor")


def test_the_package_has_no_assert_statement():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert len(paths) > 10
    found = []
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [
            "%s:%d" % (os.path.basename(path), node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
