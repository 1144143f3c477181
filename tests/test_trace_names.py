"""The benchmark's traced run resolves every per-layer metric it declares.

perfbench/tracer.py wraps the public functions of polyreal by name, and a
per-layer metric of BENCHMARK.json whose function is gone raises KeyError
only in the traced benchmark run. This test resolves every such metric the
way perfbench/run.py does, so a refactor that drops a traced name fails here.
"""

import json
import sys
from pathlib import Path

import polyreal  # noqa: F401  (the tracer wraps the imported modules)

ROOT = Path(__file__).resolve().parents[1]


def test_every_per_layer_metric_resolves():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
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
