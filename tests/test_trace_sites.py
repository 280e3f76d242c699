"""Every call site the benchmark's traced runs wrap must exist in the library.

``perfbench/spans.py`` replaces functions at the names the library's modules
import them under; a name that no longer resolves would break ``--trace 1``
runs without any other test noticing.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
