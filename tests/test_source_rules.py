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


def test_benchmark_tracer_names_resolve():
    # the benchmark's tracer wraps package names by string; a rename would
    # break its traced runs without failing any package test
    import importlib
    import importlib.util
    import inspect

    path = PACKAGE.parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for mod, attr, *_ in tracing._FUNCTIONS + tracing._HOT_FUNCTIONS:
        if not callable(getattr(importlib.import_module("cohomkit." + mod),
                                attr, None)):
            missing.append(f"{mod}.{attr}")
    for mod, cls_name, attr, *_ in tracing._METHODS:
        cls = getattr(importlib.import_module("cohomkit." + mod), cls_name, None)
        if cls is None or attr not in vars(cls):
            missing.append(f"{mod}.{cls_name}.{attr}")
    assert not missing, "traced names missing: " + ", ".join(missing)
    cohomology = importlib.import_module("cohomkit.cohomology")
    assert inspect.isgeneratorfunction(cohomology.differential_rows)
