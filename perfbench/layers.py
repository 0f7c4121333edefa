"""Fold a stdlib ``cProfile`` run into the simulator's layers.

A layer is a ``repro`` package: every profiled function's self time and
call count go to the package whose file defines it.  ``core/policy.py``
is its own layer (``policy``); numpy, the standard library, builtins,
``repro`` modules outside the named packages (``cluster.py``,
``bench/``) and the benchmark's own code fold into ``other``.
"""

from __future__ import annotations

import cProfile
import os
from typing import Callable, Dict, Tuple, TypeVar

T = TypeVar("T")

LAYERS = ("sim", "core", "engine", "verbs", "memory", "fabric", "service",
          "policy", "telemetry", "other")

#: the package the benchmark runs (run.py puts ``src`` first on the path).
_REPRO_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src", "repro") + os.sep
_POLICY_FILE = os.path.join("core", "policy.py")
#: ShuffleStage construction, setup phases and disposal (core/stage.py).
#: Setup spawns its per-node phases as separate sim processes, so their
#: cumulative times do not nest inside ``setup``'s and can be summed.
_STAGE_FILE = os.path.join("core", "stage.py")
_STAGE_FUNCS = ("__init__", "setup", "phase1", "phase2", "dispose")


def layer_of(filename: str) -> str:
    """The layer a profiled function's defining file belongs to."""
    if not filename.startswith(_REPRO_DIR):
        return "other"
    rel = filename[len(_REPRO_DIR):]
    if rel == _POLICY_FILE:
        return "policy"
    package = rel.split(os.sep, 1)[0]
    return package if package in LAYERS else "other"


def _generated(code) -> bool:
    """Code compiled at run time (dataclass ``__init__`` and friends):
    its time and calls belong to the layer that calls it."""
    return getattr(code, "co_filename", None) == "<string>"


class LayerProfile:
    """Per-layer self seconds and call counts of one profiled call.

    Folds the raw ``Profile.getstats()`` entries, one per code object:
    ``pstats`` keys functions by (file, line, name) and keeps only one of
    the run-time generated ``__init__`` functions that share the key
    ``("<string>", 2, "__init__")``, which would lose their time.
    """

    def __init__(self, entries, root, wall_s: float):
        #: host seconds around the profiled call (profiler overhead
        #: included; the untraced/traced ratio is trace.overhead_x).
        self.wall_s = wall_s
        self.total_s = 0.0
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.stage_build_s = 0.0
        for entry in entries:
            code = entry.code
            if code is root:
                #: the profiler's own cumulative time of the profiled call.
                self.total_s = entry.totaltime
            if _generated(code):
                continue
            filename = getattr(code, "co_filename", "~")
            layer = layer_of(filename)
            self.self_s[layer] += entry.inlinetime
            self.calls[layer] += entry.callcount
            for sub in entry.calls or ():
                if _generated(sub.code):
                    self.self_s[layer] += sub.inlinetime
                    self.calls[layer] += sub.callcount
            if filename.endswith(_STAGE_FILE) and \
                    code.co_name in _STAGE_FUNCS:
                self.stage_build_s += entry.totaltime

    @property
    def folded_s(self) -> float:
        return sum(self.self_s.values())

    def conservation_error(self) -> float:
        """|folded self time - profiled total| / profiled total."""
        return abs(self.folded_s - self.total_s) / self.total_s


def profile_call(func: Callable[[], T],
                 timer: Callable[[], float]) -> Tuple[T, LayerProfile]:
    """Run ``func`` under cProfile; return its result and the layer fold."""
    profiler = cProfile.Profile()
    start = timer()
    profiler.enable()
    try:
        result = func()
    finally:
        profiler.disable()
    wall = timer() - start
    return result, LayerProfile(profiler.getstats(), func.__code__, wall)
