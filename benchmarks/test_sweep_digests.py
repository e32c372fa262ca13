"""Full-size figure outputs pinned to committed ``float.hex`` digests.

Each figure below is regenerated at full size through its bench file's
``sweep()``, the result is rendered canonically (every float as
``float.hex``, every ``Series`` as its label and points) and the sha256
of that rendering is compared with ``golden/sweep_digests.json``.  The
perturbation goldens under ``tests/analysis/golden/`` pin shrunk
variants of the same code paths; this file pins what the figures print.

The sweeps run cold (bench cache off) and take ~15 s together, so the
tier-1 suite leaves them out; CI runs them in the perf-smoke job::

    PYTHONPATH=src python -m pytest -q benchmarks/test_sweep_digests.py

A change that alters a figure on purpose regenerates the file and names
the moved figures in CHANGES.md::

    PYTHONPATH=src python benchmarks/test_sweep_digests.py --write
"""

import hashlib
import importlib
import json
import numbers
import sys
from pathlib import Path

import pytest

from repro.bench import Series

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "sweep_digests.json"

FIGURES = {
    "fig3": "bench_fig3_rtt.py",
    "fig4": "bench_fig4_bandwidth.py",
    "fig6": "bench_fig6_kernel_latency.py",
    "fig7": "bench_fig7_udp_bandwidth.py",
    "fig8": "bench_fig8_tcp_bandwidth.py",
    "fig9": "bench_fig9_ip_latency.py",
}


def _canonical(value):
    """JSON-able rendering with every float as ``float.hex``."""
    if isinstance(value, Series):
        return {"label": value.label, "xs": _canonical(value.xs), "ys": _canonical(value.ys)}
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value).hex()
    if isinstance(value, dict):
        return [[_canonical(k), _canonical(v)] for k, v in sorted(value.items())]
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    raise TypeError(f"no canonical form for {type(value).__name__}")


def _digest(name):
    # Imported by name from this directory, so sweep-point functions
    # pickle into parallel_map's worker processes.
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    module = importlib.import_module(Path(FIGURES[name]).stem)
    text = json.dumps(_canonical(module.sweep()), separators=(",", ":"))
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "floats": text.count('"0x') + text.count('"-0x'),
    }


def test_golden_covers_every_figure():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(FIGURES)


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_sweep_matches_golden(name, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_CACHE", "0")
    assert _digest(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_sweep_digests.py --write")
    import os

    os.environ["REPRO_BENCH_CACHE"] = "0"
    GOLDEN.parent.mkdir(exist_ok=True)
    table = {name: _digest(name) for name in sorted(FIGURES)}
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(table)} figures)")
