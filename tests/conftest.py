"""Shared fixtures: the seeded point sets, graphs, and routing traces that the
acceptance criteria and several unit tests all consume.  Everything here is
deterministic; building it once per session keeps the suite fast.

The property tests draw from one hypothesis profile, derandomized and with no
example database, so a run's verdict depends only on the checked-out code.
`--hypothesis-profile=default` explores with random seeds and the local
database instead; pin each case it finds with @example."""

import random

import pytest
from hypothesis import settings

from spannerkit import (
    build_g9,
    build_g12,
    build_half_theta6,
    gen_random,
    route_g9,
    route_g12,
    route_stateful,
    route_stateless,
)

SET_SEEDS = tuple(range(1000, 1100))
PAIRS_PER_SET = 200
SET_SIZE = 64

settings.register_profile("commit", derandomize=True, database=None, deadline=None)
settings.load_profile("commit")


@pytest.fixture(scope="session")
def random_sets():
    return {seed: gen_random(SET_SIZE, seed=seed) for seed in SET_SEEDS}


@pytest.fixture(scope="session")
def h6_graphs(random_sets):
    return {seed: build_half_theta6(ps) for seed, ps in random_sets.items()}


@pytest.fixture(scope="session")
def g12_graphs(h6_graphs):
    return {seed: build_g12(h) for seed, h in h6_graphs.items()}


@pytest.fixture(scope="session")
def g9_graphs(h6_graphs):
    return {seed: build_g9(h) for seed, h in h6_graphs.items()}


@pytest.fixture(scope="session")
def routing_pairs(random_sets):
    """200 seeded ordered pairs per set, shared by every routing criterion."""
    out = {}
    for seed, ps in random_sets.items():
        rng = random.Random(5000 + seed)
        ids = [p.id for p in ps]
        out[seed] = [tuple(rng.sample(ids, 2)) for _ in range(PAIRS_PER_SET)]
    return out


@pytest.fixture(scope="session")
def routing_traces(h6_graphs, g12_graphs, g9_graphs, routing_pairs):
    """All four routers over the shared pair sample: algo -> seed -> traces."""
    out = {"stateless": {}, "stateful": {}, "g12": {}, "g9": {}}
    for seed, pairs in routing_pairs.items():
        h = h6_graphs[seed]
        out["stateless"][seed] = [route_stateless(h, u, w) for u, w in pairs]
        out["stateful"][seed] = [route_stateful(h, u, w) for u, w in pairs]
        g12 = g12_graphs[seed]
        out["g12"][seed] = [route_g12(g12, u, w) for u, w in pairs]
        g9 = g9_graphs[seed]
        out["g9"][seed] = [route_g9(g9, u, w) for u, w in pairs]
    return out
