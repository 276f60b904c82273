"""Fixed reference work that measures how fast the host runs Python right now.

On the reference host the CPU time of the same Python code moves by up to 2x
within a minute, as other tenants contend for the physical cores.  The
benchmark therefore runs this kernel, which does not touch equigon, before
every scenario and expresses the scenario's CPU time in *reference seconds*:
CPU seconds scaled by ``REFERENCE_S / kernel CPU time``, the median over the
last ``WINDOW`` kernel runs.  DESIGN.md ("Host noise") gives the measurements
behind the choice.
"""

from __future__ import annotations

import math
import statistics
from collections import deque
from dataclasses import dataclass
from time import process_time

# A fixed scale, about the kernel's CPU time on the reference host: one
# reference second is the work of 1 / REFERENCE_S kernel runs.
REFERENCE_S = 0.0005
WINDOW = 5


@dataclass(frozen=True)
class _Point:
    x: float
    y: float

    def __add__(self, other: _Point) -> _Point:
        return _Point(self.x + other.x, self.y + other.y)

    def distance(self, other: _Point) -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def kernel() -> float:
    """Small frozen dataclasses, float arithmetic and a sort, then running products
    over a list of floats: the two kinds of work equigon does (geometry objects,
    power-sum loops)."""
    points = [_Point(math.cos(0.1 * k), math.sin(0.1 * k)) for k in range(60)]
    total = 0.0
    for _ in range(2):
        for point in points:
            total += (point + _Point(0.5, 0.25)).distance(point)
        points.sort(key=lambda p: p.x)
    values = [0.5 + 0.001 * k for k in range(120)]
    running = list(values)
    for _ in range(12):
        total += sum(running)
        running = [r * v for r, v in zip(running, values)]
    return total


def kernel_time() -> float:
    """CPU seconds of one kernel run."""
    start = process_time()
    kernel()
    return process_time() - start


class HostSpeed:
    """Running estimate of the kernel's CPU time, for scaling CPU time to reference seconds."""

    def __init__(self) -> None:
        self.recent: deque[float] = deque(maxlen=WINDOW)

    def reset(self) -> None:
        """Forget earlier runs (say, after moving to another CPU) and take WINDOW - 1 fresh ones."""
        self.recent.clear()
        for _ in range(WINDOW - 1):
            self.recent.append(kernel_time())

    def scale(self) -> float:
        """Time one kernel run; return the factor from CPU to reference seconds for what follows."""
        self.recent.append(kernel_time())
        return REFERENCE_S / statistics.median(self.recent)
