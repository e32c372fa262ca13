"""Attribute profiled host time to the ``src/repro`` layers.

One fixed module-path -> layer map; the longest matching prefix wins.
Two rules close the gaps a plain map leaves:

* code outside the map (C builtins such as heapq, zlib and numpy's
  kernels, the stdlib, numpy's Python code) is charged to the layers of
  its callers, in proportion to the self time each caller edge carried;
* the engine's ``exec``-compiled run loops and closures have file names
  of the form ``<repro.sim.engine:...>`` and belong to ``sim``.

What still reaches no layer (code with no profiled caller) is reported
as the unattributed remainder.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Tuple

LAYERS = (
    "sim", "sim.batch", "atm", "atm.crc", "core", "core.ni", "host", "am",
    "ip", "ip.tcp", "ip.kernel", "splitc", "splitc.apps", "obs", "bench",
)

#: Module prefix -> layer.  ``figbench`` is this benchmark's own code.
MODULE_LAYERS = {
    "repro.sim": "sim",
    "repro.sim.batch": "sim.batch",
    "repro.atm": "atm",
    "repro.atm.crc": "atm.crc",
    "repro.core": "core",
    "repro.core.ni": "core.ni",
    "repro.host": "host",
    "repro.am": "am",
    "repro.ip": "ip",
    "repro.ip.tcp": "ip.tcp",
    "repro.ip.kernel": "ip.kernel",
    "repro.splitc": "splitc",
    "repro.splitc.apps": "splitc.apps",
    "repro.obs": "obs",
    "repro.bench": "bench",
    "figbench": "bench",
}

Func = Tuple[str, int, str]  # cProfile's (file name, first line, function name)


def layer_of_module(module: str) -> Optional[str]:
    while module:
        if module in MODULE_LAYERS:
            return MODULE_LAYERS[module]
        module = module.rpartition(".")[0]
    return None


def module_of(filename: str, src: Path, bench: Path) -> str:
    """Dotted module name of a profiled file ('' outside the map)."""
    if filename.startswith("<"):
        # exec-compiled code: "<repro.sim.engine:calendar-core>"
        return filename[1:].split(":", 1)[0].rstrip(">")
    path = Path(filename)
    for root, prefix in ((src, ()), (bench, ("figbench",))):
        try:
            rel = path.relative_to(root)
        except ValueError:
            continue
        parts = prefix + rel.with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)
    return ""


def attribute(stats: Dict[Func, tuple], src: Path, bench: Path) -> Dict[str, Dict[str, float]]:
    """Self seconds and calls per layer from ``cProfile.Profile.stats``.

    Returns ``{layer: {"self_s": s, "calls": n}}`` for every layer plus
    an ``"unattributed"`` entry.
    """
    src, bench = src.resolve(), bench.resolve()
    own: Dict[Func, Optional[str]] = {}
    for func in stats:
        own[func] = layer_of_module(module_of(func[0], src, bench))

    shares: Dict[Func, Dict[str, float]] = {}

    def share_of(func: Func, visiting: set) -> Dict[str, float]:
        """Fraction of ``func``'s self time owed to each layer."""
        if own[func] is not None:
            return {own[func]: 1.0}
        if func in shares:
            return shares[func]
        if func in visiting:  # recursion among unmapped code: drop the edge
            return {}
        visiting.add(func)
        edges = {c: e for c, e in stats[func][4].items() if c in stats}
        # weight by the callee's self time along each caller edge; fall
        # back to call counts when the timer resolution rounds it to 0
        weights = {c: e[2] for c, e in edges.items()}
        if sum(weights.values()) <= 0:
            weights = {c: e[0] for c, e in edges.items()}
        total = sum(weights.values())
        out: Dict[str, float] = {}
        for caller, weight in weights.items():
            if weight <= 0:
                continue
            for layer, frac in share_of(caller, visiting).items():
                out[layer] = out.get(layer, 0.0) + frac * weight / total
        visiting.discard(func)
        shares[func] = out
        return out

    result = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    result["unattributed"] = {"self_s": 0.0, "calls": 0}
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        if own[func] is not None:
            result[own[func]]["calls"] += nc
        split = share_of(func, set())
        for layer, frac in split.items():
            result[layer]["self_s"] += tt * frac
        result["unattributed"]["self_s"] += tt * (1.0 - sum(split.values()))
    return result
