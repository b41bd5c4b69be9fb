"""The package surface: exported names and import hygiene of the sources."""

import ast
import importlib
from pathlib import Path

import gomptest

SOURCES = Path(gomptest.__file__).parent

# Each public name under the module that defines it.
PUBLIC = {
    "distributions": [
        "AlternativeSpec", "GompertzParams", "alt_pdf", "alt_sample", "as_sample",
        "gompertz_cdf", "gompertz_pdf", "gompertz_quantile", "gompertz_sample",
    ],
    "estimation": [
        "FitResult", "PilotFailedError", "RescaledSample", "ScoreOverflowError",
        "fit_mle", "nelson_aalen", "pilot_from_cumhaz", "pilot_scale", "rescale",
        "score_h",
    ],
    "stein_statistic": [
        "MomentConditionError", "StatisticInput", "WeightParam", "delta_estimate",
        "stein_transform", "t_statistic_closed_form", "t_statistic_quadrature",
        "v_process",
    ],
    "edf_tests": [
        "EdfInput", "ad_statistic", "cm_statistic", "ks_statistic", "watson_statistic",
    ],
    "bootstrap": [
        "TestKind", "TestOutcome", "bootstrap_many", "bootstrap_replicates",
        "bootstrap_test", "empirical_quantile",
    ],
    "lifetable": [
        "LifeTable", "Pmf", "hazard_to_pmf", "pmf_to_hazard", "read_lifetable",
        "read_pmf", "sample_lifetimes", "truncate_pmf", "write_pmf",
    ],
    "simulation": [
        "CellResult", "DEFAULT_A_GRID", "SimulationConfig", "SimulationReport",
        "config_from_file", "parse_family", "report_to_csv", "run_study",
        "scenario_label",
    ],
}


def test_package_exports_exactly_the_public_names():
    expected = sorted(name for names in PUBLIC.values() for name in names)
    assert len(expected) == 56
    assert sorted(gomptest.__all__) == expected
    for module, names in PUBLIC.items():
        mod = importlib.import_module(f"gomptest.{module}")
        for name in names:
            assert getattr(gomptest, name) is getattr(mod, name), (module, name)


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used)


def test_no_unused_module_level_imports():
    # __init__ imports only to re-export
    sources = sorted(p for p in SOURCES.glob("*.py") if p.name != "__init__.py")
    assert sources
    assert [u for p in sources for u in _unused_imports(p)] == []


def _module_level_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield node, target.id


def test_number_types_are_checked_only_by_the_input_rules():
    # The count, positive-real and level rules of distributions.py and the
    # seed rule rng._word are the only places that test for numbers.
    found = []
    for path in sorted(SOURCES.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom) and node.module == "numbers":
                    found.append((path.name, f"line {node.lineno}", "from numbers import"))
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id == "numbers"):
                    where = top.name if isinstance(top, ast.FunctionDef) else f"line {node.lineno}"
                    found.append((path.name, where, node.attr))
    assert sorted(found) == [
        ("distributions.py", "_count", "Integral"),
        ("distributions.py", "_level", "Real"),
        ("distributions.py", "_positive", "Real"),
        ("rng.py", "_word", "Integral"),
    ]


def test_every_private_name_is_used_by_the_sources():
    # A module-level _name that no source file reads, outside its own
    # definition, is production code that only tests (or nothing) use.
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SOURCES.glob("*.py"))}
    reads = [
        (node, {n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Load)}
         | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})
        for tree in trees.values() for node in tree.body
    ]
    unused = [
        f"{file}:{node.lineno} {name}"
        for file, tree in trees.items()
        for node, name in _module_level_definitions(tree)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in names for other, names in reads if other is not node)
    ]
    assert unused == []
