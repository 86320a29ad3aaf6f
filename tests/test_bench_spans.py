"""The benchmark's traced mode patches investlearn functions by name; a
rename must fail here rather than leave the traced report silently stale."""

import importlib.util
import sys
from pathlib import Path

import investlearn.model
import investlearn.simulate

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans(monkeypatch):
    # leave no compiled file in bench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_target_exists(monkeypatch):
    spans = _load_spans(monkeypatch)
    for owner, attr, _ in spans._SPANNED:
        assert attr in vars(owner), (owner.__name__, attr)
    assert any(isinstance(cls, type) and "gamma_derivs" in vars(cls)
               for cls in vars(investlearn.model).values())

    original = investlearn.simulate.rho
    tracer = spans.Tracer()
    tracer.install(0)
    try:
        patched = {(owner, attr) for owner, attr, _ in tracer._saved}
        assert patched >= {(owner, attr) for owner, attr, _ in spans._SPANNED}
        assert investlearn.simulate.rho is not original
    finally:
        tracer.uninstall()
    assert investlearn.simulate.rho is original
