"""The benchmark's traced run resolves every name and return shape it reads.

perfbench/tracer.py wraps the public functions of polyreal by name, and a
per-layer metric of BENCHMARK.json whose function is gone raises KeyError
only in the traced benchmark run. These tests resolve every such metric, span
and method the way perfbench/run.py does, and run one tiny call of each
function whose return value the tracer reads, so a refactor that drops a
traced name or changes a read return shape fails here.
"""

import json
import sys
from pathlib import Path

import polyreal  # noqa: F401  (the tracer wraps the imported modules)
from polyreal import forms, lattice_crystal, verify
from conftest import make_seq

ROOT = Path(__file__).resolve().parents[1]


def _tracer_module():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import tracer
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return tracer


def test_every_per_layer_metric_resolves():
    Tracer = _tracer_module().Tracer
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer()
    tracer.install()
    try:
        values = {
            m["name"]: tracer.metric(m["name"])
            for m in spec["per_layer"]
            if m["name"] != "trace.overhead_s"
        }
    finally:
        tracer.uninstall()
    assert len(values) == len(spec["per_layer"]) - 1
    assert all(isinstance(v, (int, float)) for v in values.values())


def test_every_span_and_method_resolves():
    tracer = _tracer_module()
    traced = tracer.Tracer()
    traced.install()
    try:
        for name in tracer.SPANS:
            assert name in traced.stats, name
        for _, _, _, name in tracer.METHODS:
            assert name in traced.stats, name
    finally:
        traced.uninstall()


def test_every_probed_counter_is_recorded():
    """The boundary calls whose results the tracer reads still return what it reads."""
    traced = _tracer_module().Tracer()
    traced.install()
    try:
        seq = make_seq("A1", 3)
        # read through the modules, where the tracer rebinds the names
        lattice_crystal.enumerate_image(seq, 2)
        forms.closure(seq, [forms.LinearForm.x(1, 1)], 2)
        verify.check_image_equality(seq, max_weight=1, size_bound=1)
        verify.check_step_identities(seq, size_bound=1)
    finally:
        traced.uninstall()
    for name in (
        "forms.closure.forms",
        "forms.closure.pruned",
        "lattice_crystal.enumerate_image.elements",
        "verify.image.candidates",
        "verify.steps.toggles_checked",
    ):
        assert name in traced.counters, name


def test_the_walk_has_its_own_span():
    """The step, closure and image checks list their generator objects through
    verify.generator_objects, so the walk is timed in its own span and not in
    the checks' self time."""
    traced = _tracer_module().Tracer()
    traced.install()
    try:
        seq = make_seq("A1", 3)
        for name, args in (
            ("check_step_identities", {"size_bound": 1}),
            ("check_closure_equality", {"k": 1, "depth": 1}),
            ("check_image_equality", {"max_weight": 1, "size_bound": 1}),
        ):
            before = traced.calls("verify.generator_objects")
            getattr(verify, name)(seq, **args)
            assert traced.calls("verify.generator_objects") > before, name
    finally:
        traced.uninstall()
