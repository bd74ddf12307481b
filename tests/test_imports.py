"""Import direction between the package's layers: the data layer and the encoder load
nothing of the layers that use them."""

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


@pytest.mark.parametrize("module, above", [
    ("spklab.dataset", {"spklab.training", "spklab.encoder", "spklab.losses",
                        "spklab.experiment"}),
    ("spklab.encoder", {"spklab.losses"}),
], ids=["dataset", "encoder"])
def test_lower_layer_loads_no_upper_one(module, above):
    loaded = loaded_modules(module)
    assert module in loaded and not loaded & above, sorted(loaded & above)
