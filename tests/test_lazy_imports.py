"""Training imports no serving stack; exporting imports no HTTP tier.

``repro`` and ``repro.core`` resolve their serving and data-parallel names
on first access (PEP 562), so a process that only trains never imports the
HTTP server, TLS or multiprocessing.  ``repro.serve`` resolves its HTTP-tier
names the same way, and the CLI imports each verb's modules inside the
verb, so ``repro synth`` never loads the HTTP server either.  Checked in a
fresh interpreter: the test process itself has imported everything.
"""

import json
import subprocess
import sys

import pytest

import repro
import repro.core
import repro.serve

TRAIN_IMPORTS = """
import json, sys
from repro import low_privacy
from repro.data.datasets import load_dataset
load_dataset("airline", seed=1)
low_privacy(epochs=1, seed=1)
loaded = [m for m in ("repro.serve", "repro.core.parallel", "http.server",
                      "ssl", "multiprocessing", "repro.data.digits")
          if m in sys.modules]
import repro, repro.core
names = [repro.ModelRegistry.__name__, repro.core.ParallelTrainer.__name__]
print(json.dumps({"loaded": loaded, "names": names}))
"""


def test_train_setup_imports_no_serving_modules():
    done = subprocess.run([sys.executable, "-c", TRAIN_IMPORTS],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["loaded"] == []
    assert result["names"] == ["ModelRegistry", "ParallelTrainer"]


#: Runs the CLI on its arguments, then lists the HTTP-tier modules loaded.
SYNTH_IMPORTS = """
import json, sys
from repro.cli import main
assert main(sys.argv[1:]) == 0
loaded = [m for m in ("http.server", "http.client", "email.parser", "ssl",
                      "repro.serve.server") if m in sys.modules]
print(json.dumps({"loaded": loaded}))
"""


def test_in_process_export_imports_no_http_tier(tmp_path, trained_gan):
    registry = repro.serve.ModelRegistry(tmp_path / "registry")
    registry.register("m", trained_gan)
    out = tmp_path / "rows.csv"
    done = subprocess.run(
        [sys.executable, "-c", SYNTH_IMPORTS, "synth", "--registry",
         str(registry.root), "--model-name", "m", "-n", "300", "--out",
         str(out)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["loaded"] == []
    assert len(out.read_text().splitlines()) == 301


def test_every_exported_name_resolves():
    for module in (repro, repro.core, repro.serve):
        for name in module.__all__:
            assert getattr(module, name) is not None, (module.__name__, name)
    from repro.core.parallel import ParallelTrainer, ParallelTrainingError
    from repro.serve import SynthesisService
    from repro.serve.server import SynthesisServer

    assert repro.serve.SynthesisServer is SynthesisServer
    assert repro.core.ParallelTrainer is ParallelTrainer
    assert repro.core.ParallelTrainingError is ParallelTrainingError
    assert repro.SynthesisService is SynthesisService


@pytest.mark.parametrize("module", [repro, repro.core, repro.serve],
                         ids=["repro", "core", "serve"])
def test_unknown_names_still_raise_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
