"""Span tracer that times equigon's layers from outside the package.

The package binds its dependencies by name (``from .power_sums import
compare_power_sums``), so replacing ``equigon.power_sums.compare_power_sums``
alone would miss the runner's call.  ``Tracer.install`` therefore replaces
every module attribute in the ``equigon`` package that refers to a traced
function, and the traced methods on their classes; ``uninstall`` puts the
originals back.

Each call records one span: layer, start, end, parent span, scenario id and
the exception type it raised, if any.  Spans are kept in flat arrays while
the run lasts and written out once at the end.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Any, Callable, Iterable

# Layer name -> (module, attribute path).  The layer name is the module and
# the public function or method it times.
LAYERS: dict[str, tuple[str, str]] = {
    "cli.main": ("equigon.cli", "main"),
    "scenario.parse_scenario": ("equigon.scenario", "parse_scenario"),
    "scenario.serialize_scenario": ("equigon.scenario", "serialize_scenario"),
    "sampling.random_scenario": ("equigon.sampling", "random_scenario"),
    "runner.run_scenario": ("equigon.runner", "run_scenario"),
    "runner.Report.to_dict": ("equigon.runner", "Report.to_dict"),
    "svgfig.render_svg": ("equigon.svgfig", "render_svg"),
    "polygon.vertex": ("equigon.polygon", "RegularPolygon.vertex"),
    "polygon.vertices": ("equigon.polygon", "RegularPolygon.vertices"),
    "polygon.from_side": ("equigon.polygon", "from_side"),
    "geom.circle_intersection": ("equigon.geom", "circle_intersection"),
    "power_sums.distances_squared": ("equigon.power_sums", "distances_squared"),
    "power_sums.compare_power_sums": ("equigon.power_sums", "compare_power_sums"),
    "power_sums.multisets_equal": ("equigon.power_sums", "multisets_equal"),
    "power_sums.verify_power_sum_identity": ("equigon.power_sums", "verify_power_sum_identity"),
    "equalizer.equal_distance_points": ("equigon.equalizer", "equal_distance_points"),
    "equalizer.align_rotation": ("equigon.equalizer", "align_rotation"),
    "equalizer.correspondence": ("equigon.equalizer", "correspondence"),
    "equalizer.verify_point_properties": ("equigon.equalizer", "verify_point_properties"),
    "bottema.bottema_construct": ("equigon.bottema", "bottema_construct"),
    "bottema.verify_independence": ("equigon.bottema", "verify_independence"),
    "bottema.vertex_angles": ("equigon.bottema", "vertex_angles"),
}

SETUP = -1  # scenario id of spans recorded while inputs are generated


@dataclass(frozen=True)
class LayerStats:
    calls: int  # spans recorded inside scenarios (set-up spans excluded)
    errors: int  # of those, spans that ended in an exception
    self_s: float  # self time over every span, set-up included


class Tracer:
    def __init__(self, layers: dict[str, tuple[str, str]] = LAYERS) -> None:
        self.names = list(layers)
        self._targets = [layers[name] for name in self.names]
        self.error_types: list[str] = [""]
        self.layer = array("H")
        self.parent = array("q")
        self.scenario_of = array("q")
        self.start = array("d")
        self.end = array("d")
        self.error = array("H")
        self.scenario = SETUP
        self._current = -1
        self._patches: list[tuple[Any, str, Any]] = []

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, layer: int, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Return ``fn`` recording one span per call under layer index ``layer``."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = self._current
            index = len(self.start)
            self.layer.append(layer)
            self.parent.append(parent)
            self.scenario_of.append(self.scenario)
            self.error.append(0)
            self.end.append(0.0)
            self._current = index
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self.error[index] = self._error_code(exc)
                raise
            finally:
                self.end[index] = perf_counter()
                self._current = parent

        return traced

    def _error_code(self, exc: BaseException) -> int:
        name = type(exc).__name__
        if name not in self.error_types:
            self.error_types.append(name)
        return self.error_types.index(name)

    def install(self, modules: Iterable[ModuleType]) -> None:
        """Replace each traced function wherever ``modules`` bind it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for m in modules if m.__name__.split(".")[0] == "equigon"]
        by_name = {m.__name__: m for m in modules}
        for index, (module_name, path) in enumerate(self._targets):
            owner: Any = by_name[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(index, original)
            if outer:
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def stats(self) -> tuple[dict[str, LayerStats], float]:
        """Per-layer stats and the traced busy time (sum of root spans)."""
        count = len(self.start)
        child_time = [0.0] * count
        busy = 0.0
        for i in range(count):
            duration = self.end[i] - self.start[i]
            parent = self.parent[i]
            if parent < 0:
                busy += duration
            else:
                child_time[parent] += duration
        calls = [0] * len(self.names)
        errors = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(count):
            layer = self.layer[i]
            self_s[layer] += self.end[i] - self.start[i] - child_time[i]
            if self.scenario_of[i] != SETUP:
                calls[layer] += 1
                errors[layer] += self.error[i] != 0
        out = {
            name: LayerStats(calls[i], errors[i], self_s[i]) for i, name in enumerate(self.names)
        }
        return out, busy

    def write(self, path: Path) -> None:
        """Write the spans, gzipped: a JSON header line, then one tab-separated line per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            header = {
                "layers": self.names,
                "error_types": self.error_types,
                "columns": ["layer", "parent", "scenario", "start", "end", "error"],
            }
            handle.write(json.dumps(header) + "\n")
            for row in zip(self.layer, self.parent, self.scenario_of, self.start, self.end, self.error):
                handle.write("%d\t%d\t%d\t%.9f\t%.9f\t%d\n" % row)


def equigon_modules() -> list[ModuleType]:
    return [m for name, m in sys.modules.items() if name == "equigon" or name.startswith("equigon.")]
