"""The traced benchmark run wraps package functions by module attribute name
(bench/tracing.py), so a rename in the package must fail here, not there."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_layer_function_exists():
    tracing = _tracing()
    assert tracing.WRAPPED
    for owner, attr, span, _ in tracing.WRAPPED:
        assert callable(getattr(owner, attr, None)), (
            f"{owner.__name__}.{attr} (span {span}) no longer exists"
        )

