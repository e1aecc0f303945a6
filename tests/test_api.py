"""The public surface: the package exports, each module's ``__all__``, and
the names the benchmark harness imports from the package."""

import ast
import importlib
from pathlib import Path

import pytest

import specsumm
from specsumm import OcsaConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

MODULES = ("cli", "errors", "graph", "kmeans", "queries", "spectral",
           "stiefel", "summary")

PACKAGE_ALL = {
    "ConvergenceError", "ParameterError", "ParseError",
    "Graph", "adjacency_trace_sq", "generate_sbm",
    "largest_connected_component", "load_edge_list", "write_edge_list",
    "KmeansConfig", "kmeans_cost", "kmeanspp_init", "minibatch_kmeans",
    "TriangleEstimate", "exact_triangles", "expected_triangles",
    "EigenBasis", "lm_eigs",
    "AscentTrace", "OcsaConfig", "SkewDirection", "cayley_step", "gradient",
    "ocsa", "orthonormality_defect", "random_orthonormal_init",
    "skew_direction", "trace_objective_relaxed",
    "Membership", "ReassignConfig", "ReassignMove", "Summary",
    "SummaryReport", "build_summary", "l2_loss", "objective_integer",
    "reassignment", "specsumm", "supernode_edge_counts",
    "__version__",
}


def test_package_exports_are_pinned():
    assert len(specsumm.__all__) == len(set(specsumm.__all__))
    assert set(specsumm.__all__) == PACKAGE_ALL
    for name in specsumm.__all__:
        assert hasattr(specsumm, name), name


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"specsumm.{module}")
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert missing == []


def _perfbench_imports():
    """(module, name) for every ``from specsumm... import name`` in the
    harness sources, read without importing them."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "specsumm"):
                found.extend((node.module, alias.name) for alias in node.names)
    return found


def test_perfbench_imports_resolve():
    imports = _perfbench_imports()
    assert imports, "no specsumm imports found under perfbench/"
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_ocsa_config_keeps_the_fields_perfbench_reads():
    config = OcsaConfig()
    assert config.initial_step > 0
    assert 0 < config.contraction < 1
