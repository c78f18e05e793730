"""Every span pin of the end-to-end benchmark's tracer still resolves.

``benchmarks/e2e/trace.py`` wraps the entry points its ``SPANS`` table
names; a row whose target was renamed or deleted only shows up as a
crashed traced benchmark run.  The module is loaded from its file under
its own name, because the standard library's ``trace`` would shadow a
plain import.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACE_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "trace.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("e2e_trace", TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


SPANS = load_spans()


@pytest.mark.parametrize(
    "row", SPANS, ids=[".".join(filter(None, row[:3])) for row in SPANS]
)
def test_span_pin_resolves(row):
    module_name, owner_name, attr, span = row
    module = importlib.import_module(module_name)
    try:
        owner = getattr(module, owner_name) if owner_name else module
        inspect.getattr_static(owner, attr)
    except AttributeError:
        pytest.fail(
            f"SPANS row {row} ({span}) no longer resolves; keep the target "
            "until a change to the benchmark deletes the row"
        )
