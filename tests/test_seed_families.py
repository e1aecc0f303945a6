"""Seed-family checks beside the release gate's pinned seeds.

c08 in ``test_acceptance.py`` checks planted-community recovery at one
master seed on three graphs.  The checks here run the same pipeline over a
family of seeds and graphs and bound how many runs miss c08's floor, so a
change that holds the pinned seeds while losing ground elsewhere shows.
The random-start ascent gets the same kind of check on graphs of another
shape, against the F a fixed-step ascent reached there.
"""

import numpy as np

from specsumm import (ReassignConfig, generate_sbm, objective_integer, ocsa,
                      random_orthonormal_init, specsumm)

# c08's graphs (20 blocks of 50, p_in 0.25, p_out 0.05) by graph seed, and
# their master seeds: graphs 1-3 at seeds 1-15, graphs 4-15 at c08's seed 9,
# 57 runs.
C08_FAMILY = {graph: range(1, 16) if graph <= 3 else (9,)
              for graph in range(1, 16)}
# Runs of the family below 0.95 of the planted F when this check was added
# (minimum ratio 0.924, median 0.956); the count may fall, never rise.
C08_FAMILY_BELOW = 16


def test_c08_family_misses_do_not_grow():
    ratios = {}
    for graph_seed, seeds in C08_FAMILY.items():
        graph, planted = generate_sbm(20, 50, 0.25, 0.05, seed=graph_seed)
        planted_f = objective_integer(graph, planted)
        for seed in seeds:
            _, report = specsumm(
                graph, 20, d=20, seed=seed,
                reassign=ReassignConfig(rounds=4, samples_per_round=500))
            ratios[graph_seed, seed] = report.objective / planted_f
    assert len(ratios) == 57
    below = {run: ratio for run, ratio in ratios.items() if ratio < 0.95}
    assert len(below) <= C08_FAMILY_BELOW, (
        f"{len(below)} of 57 runs below 0.95 of the planted F "
        f"(median {np.median(list(ratios.values())):.3f}): {below}")


# Graphs of 40 blocks of 100 nodes, expected degree 12 inside a block and 3
# across (the benchmark's refine-mid shape), by graph seed and random start
# at k 40: the final F of ``ocsa`` with its default config when every
# search started at ``initial_step`` and the Armijo constant was 1e-4.
OCSA_FAMILY_FIXED_STEP_F = {
    (1, 1): 4604.7, (1, 2): 4742.7, (1, 3): 4605.3,
    (2, 1): 4613.6, (2, 2): 4615.5, (2, 3): 4610.4,
    (3, 1): 4768.7, (3, 2): 4817.3, (3, 3): 4530.0,
}


def test_ocsa_family_holds_its_f():
    # A step size that grows too freely reaches a slow region early on
    # these graphs and stops there: a mean ratio of 0.84, and 0.79 at
    # worst, when each search started at the last accepted step, doubled
    # after a good first trial, with no quarter-gain test.
    ratios = {}
    for graph_seed in (1, 2, 3):
        graph, _ = generate_sbm(40, 100, 12 / 99, 3 / 3900, seed=graph_seed)
        for start in (1, 2, 3):
            Z0 = random_orthonormal_init(graph.node_count, 40, seed=start)
            _, trace = ocsa(graph, Z0)
            ratios[graph_seed, start] = (
                trace.objectives[-1]
                / OCSA_FAMILY_FIXED_STEP_F[graph_seed, start])
    assert np.mean(list(ratios.values())) >= 0.97, ratios
    assert min(ratios.values()) >= 0.9, ratios
