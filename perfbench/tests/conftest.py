import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))


@pytest.fixture(scope="session")
def pm():
    import posetmatrix

    return posetmatrix


@pytest.fixture(scope="session")
def quick_outputs():
    """One quick untraced worker round per library workload: (inputs, outputs)."""
    import inputs

    made = {}
    scratch = os.path.join(BENCH, "out", f"test-{os.getpid()}")
    for workload, maker in (("census", inputs.census), ("orbit", inputs.orbit),
                            ("antichains", inputs.antichains), ("clilib", inputs.cli)):
        inp = maker(5, quick=True)
        req = {"src": os.path.join(ROOT, "src"), "workload": workload, "inputs": inp,
               "trace": False, "full": True, "scratch": os.path.join(scratch, workload)}
        proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py")], input=json.dumps(req),
                              capture_output=True, text=True, cwd=ROOT, timeout=120, check=True)
        made[workload] = (inp, json.loads(proc.stdout)["outputs"])
    yield made
    shutil.rmtree(scratch, ignore_errors=True)
