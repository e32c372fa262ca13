"""The engine and the U-Net IP path never import numpy.

Only the Split-C apps compute with numpy.  A run that builds a U-Net
pair and streams UDP over it must leave numpy unloaded, so its import
time and memory stay out of every non-Split-C workload.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = """
import sys
from repro.bench import ip
world = ip.build_unet_pair()
ip.udp_bandwidth_on(world, 1024, n=4)
print("numpy" in sys.modules)
"""


def test_unet_udp_run_leaves_numpy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True,
        text=True, check=True,
    )
    assert out.stdout.strip() == "False"
