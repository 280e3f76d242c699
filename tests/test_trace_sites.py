"""Every call site the benchmark's traced runs wrap must exist in the library.

``perfbench/spans.py`` replaces functions at the names the library's modules
import them under; a name that no longer resolves would break ``--trace 1``
runs without any other test noticing. Conversely, a name a module imports
only for those runs (marked ``# noqa: F401``) must still be a call site.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
LIBRARY = ROOT / "src" / "tradegains"


def _span_sites():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.SITES


def test_every_span_site_resolves():
    sites = _span_sites()
    assert sites
    missing = [
        f"tradegains.{module}.{attribute}"
        for module, attribute, *_ in sites
        if not callable(getattr(importlib.import_module(f"tradegains.{module}"), attribute, None))
    ]
    assert not missing


def _kept_alive_imports():
    """``(module, name)`` of every import in the library marked ``# noqa: F401``."""
    kept = []
    for path in sorted(LIBRARY.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                "noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]
            ):
                kept += [(path.stem, alias.asname or alias.name) for alias in node.names]
    return kept


def test_every_import_kept_for_traced_runs_is_a_span_site():
    kept = _kept_alive_imports()
    # cli, ratio, montecarlo and geometry each keep one or more
    assert {module for module, _ in kept} >= {"cli", "geometry", "montecarlo", "ratio"}
    sites = {(module, attribute) for module, attribute, *_ in _span_sites()}
    assert [site for site in kept if site not in sites] == []
