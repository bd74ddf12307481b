"""Import direction between the package's layers: the data layer, the encoder, scoring
and sampling load nothing of the layers that use them; and every function the benchmark
traces exists."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def loaded_modules(module):
    """The `spklab` modules a fresh interpreter has loaded after importing `module`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    code = (f"import sys, {module}\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('spklab'))))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    return set(run.stdout.split())


MODULES = {f"spklab.{path.stem}" for path in Path(SRC, "spklab").glob("*.py")} - {"spklab.__init__"}


@pytest.mark.parametrize("module, above", [
    ("spklab.dataset", {"spklab.training", "spklab.encoder", "spklab.losses",
                        "spklab.experiment"}),
    ("spklab.encoder", {"spklab.losses"}),
    ("spklab.scoring", MODULES - {"spklab.scoring", "spklab.embedding", "spklab.errors"}),
    ("spklab.sampling", MODULES - {"spklab.sampling", "spklab.errors"}),
], ids=["dataset", "encoder", "scoring", "sampling"])
def test_lower_layer_loads_no_upper_one(module, above):
    loaded = loaded_modules(module)
    assert module in loaded and not loaded & above, sorted(loaded & above)


def test_every_benchmark_span_target_exists():
    # the benchmark reports a renamed or deleted target as absent and leaves its metrics
    # out; here such a target fails the tests instead
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    absent = [f"spklab.{t.module}.{t.function}" for t in spans.TARGETS
              if not callable(getattr(importlib.import_module(f"spklab.{t.module}"),
                                      t.function, None))]
    assert spans.TARGETS
    assert not absent, absent
