"""Rules the package source must keep, checked on its syntax trees."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cohomkit"


def test_package_has_no_assert_statements_or_assertion_errors():
    # python -O strips assert statements, and an AssertionError reads as a
    # failed assert: exactness checks raise InternalCheckError instead
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources, f"no modules under {PACKAGE}"
    offences = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assert)
                    or (isinstance(node, ast.Name)
                        and node.id == "AssertionError")
                    or (isinstance(node, ast.Attribute)
                        and node.attr == "AssertionError")):
                offences.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert not offences, "assert or AssertionError in: " + ", ".join(offences)
