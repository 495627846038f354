import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import adjckpt

MODULES = [f"adjckpt.{info.name}" for info in pkgutil.iter_modules(adjckpt.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_planning_commands_run_without_numpy(tmp_path):
    # A fresh interpreter: the test modules have already imported numpy here.
    script = textwrap.dedent(
        """
        import json, sys
        import adjckpt
        from adjckpt import cli

        codes = [
            cli.main(["advise"]),
            cli.main(["sweep", "--axis", "memory", "--range", "8e9:8e9:1"]),
            cli.main(["verify-schedule", "--nsteps", "30", "--slots", "3"]),
        ]
        report = {"codes": codes, "numpy": "numpy" in sys.modules}
        report["codecs"] = adjckpt.codecs.__name__
        try:
            adjckpt.nosuch
        except AttributeError as exc:
            report["nosuch"] = str(exc)
        print(json.dumps(report))
        """
    )
    src = str(Path(adjckpt.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {
        "codes": [0, 0, 0],
        "numpy": False,
        "codecs": "adjckpt.codecs",
        "nosuch": "module 'adjckpt' has no attribute 'nosuch'",
    }
