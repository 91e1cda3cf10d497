"""The traced benchmark run wraps package functions by name: every entry of
bench/tracing.py's TRACED list must still resolve, or `bench/run.py --trace 1`
fails when it installs its wrappers."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


TRACED = traced_names()


@pytest.mark.parametrize("module, attr, span", TRACED, ids=[t[2] for t in TRACED])
def test_traced_name_resolves(module, attr, span):
    owner = importlib.import_module(f"gibbsfactor.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        # Tracer.install reads the method from the class body, not by lookup
        assert callable(getattr(owner, cls_name).__dict__[meth])
    else:
        assert callable(getattr(owner, attr))
