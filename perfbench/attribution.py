"""Per-layer self time and exact work counts from a deterministic profile.

A layer is a package ``repro.<layer>``.  A function defined in
``repro/<layer>/`` is charged to that layer.  Time in every other
function (stdlib, builtins, the benchmark's own code) is charged to
whoever called it, split over its caller edges in proportion to the
time spent on each edge, so the layer shares sum to 100%.  Time with no
repro caller at all lands in ``other``.

Work counts are exact call counts read from the same profile.  A
counted function that no longer exists is reported as absent (``None``)
rather than raising, so the benchmark outlives refactors of the code it
measures.

``-X importtime`` output is grouped the same way: a module's own import
time goes to its ``repro.<layer>``; a non-repro module imported from
inside a repro module is charged to the importing layer.
"""

from __future__ import annotations

import re
from collections import defaultdict
from typing import Iterable, Optional

#: The layers the benchmark reports, in report order.  Every other
#: ``repro`` package and all code outside ``repro`` is ``other``.
LAYERS = ("sim", "bluetooth", "radio", "lan", "core", "obs", "runner", "experiments")
OTHER = "other"

#: A profile key: (filename, first line, function name).
Func = tuple[str, int, str]

_REPRO_FILE = re.compile(r"[\\/]repro[\\/](?:(\w+)[\\/])?\w+\.py$")


def layer_of_file(filename: str) -> Optional[str]:
    """The layer a source file belongs to, ``other`` for repro modules
    outside the reported layers, None for non-repro code."""
    match = _REPRO_FILE.search(filename)
    if match is None:
        return None
    package = match.group(1)
    return package if package in LAYERS else OTHER


def _layer_weights(stats: dict) -> dict[Func, dict[str, float]]:
    """For each function, how its own time splits over layers."""
    weights: dict[Func, dict[str, float]] = {}
    in_progress: set[Func] = set()

    def resolve(func: Func) -> dict[str, float]:
        known = weights.get(func)
        if known is not None:
            return known
        layer = layer_of_file(func[0])
        if layer is not None:
            weights[func] = {layer: 1.0}
            return weights[func]
        in_progress.add(func)
        callers = stats[func][4]
        # Weigh caller edges by time spent on them, by call count when
        # every edge measured zero time.
        edges = [(caller, edge[2]) for caller, edge in callers.items()]
        if not any(weight > 0 for _, weight in edges):
            edges = [(caller, float(edge[0])) for caller, edge in callers.items()]
        total = 0.0
        mixed: dict[str, float] = defaultdict(float)
        for caller, weight in edges:
            if weight <= 0 or caller in in_progress or caller not in stats:
                continue
            for layer_name, share in resolve(caller).items():
                mixed[layer_name] += weight * share
            total += weight
        in_progress.discard(func)
        result = {k: v / total for k, v in mixed.items()} if total > 0 else {OTHER: 1.0}
        weights[func] = result
        return result

    for func in stats:
        resolve(func)
    return weights


def layer_self_seconds(stats: dict) -> dict[str, float]:
    """Self time per layer (plus ``other``); sums to the profile total."""
    seconds = {layer: 0.0 for layer in LAYERS + (OTHER,)}
    for func, weights in _layer_weights(stats).items():
        self_time = stats[func][2]
        for layer, share in weights.items():
            seconds[layer] += self_time * share
    return seconds


def _funcs(stats: dict, path_suffix: str, names: Iterable[str]) -> list[Func]:
    wanted = set(names)
    suffix = path_suffix.replace("/", "")
    return [
        func
        for func in stats
        if func[2] in wanted and re.sub(r"[\\/]", "", func[0]).endswith(suffix)
    ]


def call_count(stats: dict, path_suffix: str, *names: str) -> Optional[int]:
    """Total calls to the named functions of one module, None if absent."""
    funcs = _funcs(stats, path_suffix, names)
    if not funcs:
        return None
    return sum(stats[func][1] for func in funcs)


def entry_calls(stats: dict, path_suffix: str, prefixes: tuple[str, ...]) -> Optional[int]:
    """Calls into a family of functions from outside the family.

    ``Kernel.schedule`` delegates to ``schedule_at``; counting only
    edges from callers outside the family counts each scheduling
    request once.
    """
    family = {
        func
        for func in stats
        if func[2].startswith(prefixes)
        and re.sub(r"[\\/]", "", func[0]).endswith(path_suffix.replace("/", ""))
    }
    if not family:
        return None
    return sum(
        edge[0]
        for func in family
        for caller, edge in stats[func][4].items()
        if caller not in family
    )


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)\s*$")


def import_seconds_by_layer(stderr_text: str) -> dict[str, float]:
    """Group ``-X importtime`` self times by ``repro.<layer>``.

    The report lists a module after the modules it imported, indented
    one level deeper.  A non-repro module is charged to the nearest
    enclosing repro module, found by reading the lines in reverse.
    """
    rows = []
    for line in stderr_text.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            self_us, _, indent, module = match.groups()
            rows.append((len(indent), module, int(self_us)))
    seconds = {layer: 0.0 for layer in LAYERS + (OTHER,)}
    # Stack of (depth, layer) of enclosing modules while walking parents
    # before children (reverse order of the report).
    enclosing: list[tuple[int, Optional[str]]] = []
    for depth, module, self_us in reversed(rows):
        while enclosing and enclosing[-1][0] >= depth:
            enclosing.pop()
        layer: Optional[str] = None
        parts = module.split(".")
        if parts[0] == "repro":
            layer = parts[1] if len(parts) > 1 and parts[1] in LAYERS else OTHER
        else:
            layer = next((lay for _, lay in reversed(enclosing) if lay is not None), None)
        seconds[layer if layer is not None else OTHER] += self_us / 1e6
        enclosing.append((depth, layer))
    return seconds
