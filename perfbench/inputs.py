"""Seeded inputs for every workload.

The same (workload, seed, quick) always gives the same inputs.  Where the
cost of a call depends strongly on which poset it gets (canonical labelling,
orbit search), the classes are fixed and the seed picks the labelling or the
starting member, so runs with different seeds do the same amount of work
and their times can be compared.
"""

from __future__ import annotations

import random

import oracle

# Fixed base classes for canonical labelling: (n, edge densities).  The
# densities cover sparse posets, where pruning is weakest, to dense ones.
CANONICAL_BASES = (
    (5, (0.15, 0.3, 0.5, 0.7)),
    (6, (0.1, 0.2, 0.3, 0.4, 0.5, 0.7)),
    (7, (0.05, 0.1, 0.2, 0.3, 0.45, 0.6) * 2),
    (8, (0.05, 0.08, 0.1, 0.12, 0.15, 0.2, 0.3, 0.45)),
)
CANONICAL_BASE_SEED = "census-bases-1"
QUICK_CANONICAL_BASES = ((5, (0.2, 0.5)), (6, (0.2, 0.5)), (7, (0.3,)))

# Domination-orbit classes, one start vector each; orbit sizes in brackets.
ORBIT_BASES = (
    (4, (0, 1, 2, 5)),  # 240 states
    (4, (1, 2, 3, 5)),  # 156
    (4, (0, 1, 2, 3)),  # 151
    (4, (2, 5, 9, 13)),  # 138
    (5, (0, 1, 24, 27, 31)),  # 915
    (5, (1, 14, 22, 28, 31)),  # 2145
    (5, (0, 5, 7, 18, 26)),  # 3615
    (5, (11, 13, 16, 22, 30)),  # 5040
    (5, (6, 13, 24, 28, 30)),  # 7680
    (5, (6, 14, 17, 20, 28)),  # 11160
)
QUICK_ORBIT_BASES = ORBIT_BASES[:4]
ORBIT_WALK_STEPS = 40


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _random_vector(rng, n: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(1 << n), n)))


def census(seed: int, quick: bool = False) -> dict:
    base_rng = random.Random(CANONICAL_BASE_SEED)
    bases = []
    for n, densities in QUICK_CANONICAL_BASES if quick else CANONICAL_BASES:
        for density in densities:
            rows = oracle.random_poset(base_rng, n, density)
            while rows in bases:
                rows = oracle.random_poset(base_rng, n, density)
            bases.append(rows)
    if not quick:
        bases.append(tuple(1 << i for i in range(8)))  # the 8-element antichain
    rng = _rng("census", seed)
    samples, seen = [], set()
    for rows in bases:
        # Distinct rows keep every call a miss in the program's canonical cache.
        for _ in range(100):
            given = oracle.relabel(rows, oracle.random_linear_extension(rng, rows))
            if given not in seen:
                break
        seen.add(given)
        samples.append(
            {"rows": list(given), "relabel": list(oracle.random_linear_extension(rng, given))}
        )
    return {
        "count_sizes": list(range(6 if quick else 8)),
        "class_sizes": list(range(5 if quick else 7)),
        "classify_n": 4,
        "samples": samples,
    }


def orbit(seed: int, quick: bool = False) -> dict:
    rng = _rng("orbit", seed)
    starts = [
        {"n": n, "alpha": list(oracle.random_orbit_walk(rng, alpha, n, ORBIT_WALK_STEPS))}
        for n, alpha in (QUICK_ORBIT_BASES if quick else ORBIT_BASES)
    ]
    extra = [(5, 40), (4, 20)] if not quick else [(4, 10)]
    vectors = [(s["n"], s["alpha"]) for s in starts]
    for n, count in extra:
        vectors += [(n, list(_random_vector(rng, n))) for _ in range(count)]
    return {"orbits": starts, "matrices": [{"n": n, "alpha": a} for n, a in vectors]}


def antichains(seed: int, quick: bool = False) -> dict:
    rng = _rng("antichains", seed)
    top = 16 if quick else 32
    samples = 100 if quick else 1500
    ideals = rng.sample(oracle.all_ideals(top), samples)
    return {
        "count_sizes": list(range(top + 1)),
        "dedekind_ks": list(range(5 if quick else 6)),
        "table_sizes": [8, 16] if quick else [8, 16, 24, 32],
        "conversion_n": top,
        "ideals": ideals,
        "antichains": [oracle.maximal_elements(m, top) for m in ideals],
        "masks": [sum(1 << e for e in rng.sample(range(top), rng.randint(0, 6))) for _ in range(samples)],
    }


def cli(seed: int, quick: bool = False) -> dict:
    rng = _rng("cli", seed)
    return {
        "validate": list(oracle.random_poset(rng, 8, 0.3)),
        "embed": list(oracle.random_poset(rng, 6, 0.3)),
        "canonical": list(oracle.random_poset(rng, 6, 0.25)),
        "dual": list(oracle.random_poset(rng, 8, 0.3)),
        "induce": list(_random_vector(rng, 4)),
        "orbit": list(oracle.random_orbit_walk(rng, (2, 5, 9, 13), 4, ORBIT_WALK_STEPS)),
        "cache_keys": [f"bench:{seed}:{i}" for i in range(20 if quick else 200)],
        "enumerate_n": 4 if quick else 6,
        "json_n": 4 if quick else 7,
        "ideals_n": 16 if quick else 32,
        "dedekind_k": 4 if quick else 5,
        "broken_cache_n": 12 if quick else 20,
    }


MAKERS = {"census": census, "orbit": orbit, "antichains": antichains, "cli": cli}
