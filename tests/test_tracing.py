import importlib.util
import math
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves():
    # the benchmark's tracer wraps these module attributes by name; a rename
    # in dstlab would otherwise break traced runs without failing any test
    tracing = _tracing()
    for owner, attr, _, _ in tracing.PATCHES:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_fixed_input_rows_run():
    # a traced run also times single q_kernel, action_and_constraint and
    # transported calls on random_direction inputs; a signature change there
    # would otherwise break traced runs only
    tracing = _tracing()
    rows = tracing.fixed_input_rows(0)
    assert rows and rows.keys() <= tracing.UNITS.keys()
    assert all(math.isfinite(us) and us > 0.0 for us in rows.values())
