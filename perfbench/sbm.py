"""Benchmark-side stochastic block model sampler in O(n + m).

For every block pair the sampler draws the edge count from its binomial,
then that many distinct node pairs uniformly among the pair's candidates
(Batagelj & Brandes, "Efficient generation of large random networks",
Phys. Rev. E 71, 2005).  Only the m sampled pairs are ever materialized,
unlike ``specsumm.generate_sbm``, which draws a uniform for all n(n-1)/2
pairs and cannot reach the sizes the benchmark needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Width of the binomial band the per-block-pair check accepts, in standard
# deviations (plus one edge).  A correct sample of any workload falls outside
# it somewhere with probability below 2e-4, from the exact binomial tails.
BAND_SIGMAS = 6.0


@dataclass(frozen=True)
class SbmSpec:
    """``blocks`` equal blocks of ``size`` nodes.  ``deg_in`` and
    ``deg_out`` are the expected numbers of neighbours a node has inside
    its own block and across all other blocks."""

    blocks: int
    size: int
    deg_in: float
    deg_out: float

    @property
    def n(self) -> int:
        return self.blocks * self.size

    @property
    def p_in(self) -> float:
        return self.deg_in / (self.size - 1)

    @property
    def p_out(self) -> float:
        return self.deg_out / ((self.blocks - 1) * self.size)

    def candidates(self, same_block: bool) -> int:
        """Number of node pairs in one block pair."""
        s = self.size
        return s * (s - 1) // 2 if same_block else s * s


def _distinct(rng: np.random.Generator, population: int, count: int
              ) -> np.ndarray:
    """``count`` distinct integers drawn uniformly from [0, population),
    sorted.  Redrawing only the shortfall keeps the subset uniform."""
    picked = np.unique(rng.integers(0, population, size=count))
    while len(picked) < count:
        extra = rng.integers(0, population, size=count - len(picked))
        picked = np.unique(np.concatenate([picked, extra]))
    return picked


def _triangle_decode(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map t in [0, s(s-1)/2) to the pair (i, j), i < j, with
    t = j(j-1)/2 + i."""
    j = np.floor((1.0 + np.sqrt(1.0 + 8.0 * t)) / 2.0).astype(np.int64)
    j -= (j * (j - 1) // 2) > t
    j += ((j + 1) * j // 2) <= t
    return t - j * (j - 1) // 2, j


def sample_sbm(spec: SbmSpec, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Edges as an (m, 2) int64 array with u < v in lexicographic order,
    and the planted block of every node."""
    rng = np.random.default_rng(seed)
    s = spec.size
    chunks = []
    for a in range(spec.blocks):
        for b in range(a, spec.blocks):
            same = a == b
            population = spec.candidates(same)
            count = int(rng.binomial(population, spec.p_in if same
                                     else spec.p_out))
            if count == 0:
                continue
            idx = _distinct(rng, population, count)
            if same:
                i, j = _triangle_decode(idx)
            else:
                i, j = np.divmod(idx, s)
            chunks.append(np.column_stack([a * s + i, b * s + j]))
    pairs = np.concatenate(chunks).astype(np.int64)
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    labels = np.arange(spec.n, dtype=np.int64) // s
    return pairs, labels


def edge_list_bytes(pairs: np.ndarray) -> bytes:
    """One "u v" line per edge, the format ``specsumm`` reads."""
    return "".join(f"{u} {v}\n" for u, v in pairs.tolist()).encode("ascii")


def labels_bytes(labels: np.ndarray) -> bytes:
    return "".join(f"{x}\n" for x in labels.tolist()).encode("ascii")


def check_sample(spec: SbmSpec, pairs: np.ndarray, labels: np.ndarray
                 ) -> list[str]:
    """Problems with a sample: self-loops, duplicates, or a block pair
    whose edge count falls outside its binomial band."""
    problems = []
    if np.any(pairs[:, 0] >= pairs[:, 1]):
        problems.append("edge with u >= v (self-loop or unordered pair)")
    if len(np.unique(pairs, axis=0)) != len(pairs):
        problems.append("duplicate edges")
    if pairs.min() < 0 or pairs.max() >= spec.n:
        problems.append("node id out of range")
        return problems
    k = spec.blocks
    ba, bb = labels[pairs[:, 0]], labels[pairs[:, 1]]
    counts = np.bincount(np.minimum(ba, bb) * k + np.maximum(ba, bb),
                         minlength=k * k).reshape(k, k)
    for same, p, observed in ((True, spec.p_in, np.diag(counts)),
                              (False, spec.p_out,
                               counts[np.triu_indices(k, k=1)])):
        population = spec.candidates(same)
        mean = population * p
        half = BAND_SIGMAS * np.sqrt(population * p * (1.0 - p)) + 1.0
        outside = np.abs(observed - mean) > half
        if np.any(outside):
            kind = "intra" if same else "inter"
            problems.append(f"{int(outside.sum())} {kind}-block counts outside "
                            f"mean {mean:.1f} +- {half:.1f}")
    return problems
