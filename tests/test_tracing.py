import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    # the benchmark's tracer wraps these module attributes by name; a rename
    # in dstlab would otherwise break traced runs without failing any test
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for owner, attr, _, _ in tracing.PATCHES:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
