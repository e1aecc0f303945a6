import os
from pathlib import Path

import numpy as np
import pytest

import specsumm
from specsumm import Graph, stiefel


@pytest.fixture
def k3() -> Graph:
    return Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def p3() -> Graph:
    """Path 0-1-2."""
    return Graph.from_edges(3, [(0, 1), (1, 2)])


@pytest.fixture
def k4() -> Graph:
    return Graph.from_edges(4, [(u, v) for u in range(4)
                                for v in range(u + 1, 4)])


@pytest.fixture
def two_triangles() -> Graph:
    return Graph.from_edges(6, [(0, 1), (0, 2), (1, 2),
                                (3, 4), (3, 5), (4, 5)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n)
                                for v in range(u + 1, n)])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


def use_lanes(monkeypatch, count: int, floor: int | None = 0) -> None:
    """Make ``stiefel.ocsa`` run on ``count`` lanes (1 or 2) whatever the
    host's CPUs: the process's CPU affinity reads as ``count`` CPUs, and
    the work floor becomes ``floor`` (None keeps the shipped one)."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)
    if floor is not None:
        monkeypatch.setattr(stiefel, "_TWO_LANE_MIN_ENTRIES", floor)


def planted_graph(blocks: int, size: int, deg_in: float, deg_out: float,
                  seed: int) -> Graph:
    """A planted-partition graph drawn in O(m): about ``deg_in`` neighbours
    per node inside its block of ``size`` and ``deg_out`` anywhere, repeats
    and self-loops dropped."""
    rng = np.random.default_rng(seed)
    n = blocks * size
    inside, anywhere = int(n * deg_in / 2), int(n * deg_out / 2)
    u = rng.integers(n, size=inside + anywhere)
    v = np.concatenate([u[:inside] // size * size
                        + rng.integers(size, size=inside),
                        rng.integers(n, size=anywhere)])
    keep = u != v
    return Graph.from_edges(n, np.column_stack([u[keep], v[keep]]))


def fresh_env(**extra: str) -> dict:
    """Environment for a fresh interpreter that imports this checkout's
    specsumm."""
    src = str(Path(specsumm.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath, **extra}
