"""The benchmark's tracer can find every package function it wraps."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # leave the benchmark's directory as it is: no bytecode cache there
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def test_every_traced_site_resolves():
    # the tracer looks each site up with owner.__dict__[attr]; a site the
    # package no longer defines would make --trace 1 fail with KeyError
    tracing = _load_tracing()
    for owner, attr, layer in tracing.SPAN_SITES + tracing.COUNT_SITES:
        assert attr in owner.__dict__, (owner.__name__, attr, layer)
