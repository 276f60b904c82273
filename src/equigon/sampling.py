"""Seeded random scenario generators backing the sweep verb.

Every generator draws from a caller-supplied ``random.Random`` so a sweep is
reproducible from its seed, and configurations are generated (and therefore
verified) in a fixed index order.
"""

from __future__ import annotations

import math
import random

from .geom import DEFAULT_TOLERANCE, Point
from .scenario import (
    BottemaConfig,
    IdentityCheckConfig,
    PairConfig,
    Scenario,
    ScenarioKind,
    SharedVertexConfig,
)


def _random_point(rng: random.Random, reach: float) -> Point:
    return Point(rng.uniform(-reach, reach), rng.uniform(-reach, reach))


def _pair(rng: random.Random) -> PairConfig:
    r1 = rng.uniform(0.3, 3.0)
    r2 = rng.uniform(0.3, 3.0)
    centroid1 = _random_point(rng, 5.0)
    angle = rng.uniform(-math.pi, math.pi)
    gap = rng.uniform(0.2, 1.2) * (r1 + r2)
    centroid2 = centroid1 + Point(math.cos(angle), math.sin(angle)) * gap
    return PairConfig(
        centroid1=centroid1,
        r1=r1,
        phase1=rng.uniform(-math.pi, math.pi),
        orient1=rng.choice((1, -1)),
        centroid2=centroid2,
        r2=r2,
        phase2=rng.uniform(-math.pi, math.pi),
        orient2=rng.choice((1, -1)),
    )


def _shared_vertex(rng: random.Random) -> SharedVertexConfig:
    vertex = _random_point(rng, 5.0)
    ang1 = rng.uniform(-math.pi, math.pi)
    ang2 = rng.uniform(-math.pi, math.pi)
    r1 = rng.uniform(0.3, 3.0)
    r2 = rng.uniform(0.3, 3.0)
    orient = rng.choice((1, -1))
    return SharedVertexConfig(
        vertex=vertex,
        centroid1=vertex + Point(math.cos(ang1), math.sin(ang1)) * r1,
        centroid2=vertex + Point(math.cos(ang2), math.sin(ang2)) * r2,
        orient1=orient,
        orient2=-orient,
    )


def _bottema(rng: random.Random) -> BottemaConfig:
    return BottemaConfig(
        an=Point(0.0, 0.0),
        a1=Point(rng.uniform(-1.0, 3.0), rng.uniform(0.1, 2.5)),
        bn=Point(2.0, 0.0),
    )


def _identity_check(rng: random.Random) -> IdentityCheckConfig:
    return IdentityCheckConfig(
        centroid=_random_point(rng, 5.0),
        r=rng.uniform(0.5, 5.0),
        phase=rng.uniform(-math.pi, math.pi),
        orient=rng.choice((1, -1)),
        probes=tuple(_random_point(rng, 10.0) for _ in range(5)),
    )


def random_scenario(kind: ScenarioKind, n: int, rng: random.Random) -> Scenario:
    """One random scenario of the requested kind and vertex count, at the default tolerance."""
    if kind is ScenarioKind.PAIR:
        config = _pair(rng)
    elif kind is ScenarioKind.SHARED_VERTEX:
        config = _shared_vertex(rng)
    elif kind is ScenarioKind.BOTTEMA:
        config = _bottema(rng)
    else:
        config = _identity_check(rng)
    return Scenario(kind=kind, n=n, tolerance=DEFAULT_TOLERANCE, seed=rng.randrange(2**31), config=config)
