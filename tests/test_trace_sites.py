"""Every layer the benchmark's span tracer wraps still exists: a rename in
the package fails here, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_sites():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SITES


SITES = load_sites()


@pytest.mark.parametrize(
    "module, path, span", SITES, ids=[f"{m}:{p}" for m, p, _ in SITES]
)
def test_trace_site_resolves_to_a_callable(module, path, span):
    target = importlib.import_module(module)
    for attr in path.split("."):
        target = getattr(target, attr)
    assert callable(target), span
