import gc
import random

import pytest

from metalogic import (
    AND,
    IMPLIES,
    NOT,
    OR,
    Atom,
    Binary,
    Bounds,
    Negation,
    church_p1_calculus,
    church_p2_calculus,
    kleene_calculus,
    propositional_alphabet,
)


@pytest.fixture
def kleene():
    return kleene_calculus()


@pytest.fixture
def church_p1():
    return church_p1_calculus()


@pytest.fixture
def church_p2():
    return church_p2_calculus()


@pytest.fixture
def pq_alphabet():
    return propositional_alphabet(("P", "Q"), connectives=(NOT, AND, OR, IMPLIES))


def small_bounds(**overrides):
    """Bounds tight enough for fast runs; override per test."""
    base = dict(max_stage=4, max_formula_size=11, node_budget=5000,
                instantiation_pool_size=3)
    base.update(overrides)
    return Bounds(**base)


def random_formula(rng: random.Random, atoms, connectives, max_depth: int):
    """Uniform-ish recursive formula sampler, deterministic under the rng."""
    if max_depth <= 0 or rng.random() < 0.3:
        return Atom(rng.choice(atoms))
    op = rng.choice(connectives)
    if op == NOT:
        return Negation(random_formula(rng, atoms, connectives, max_depth - 1))
    return Binary(
        op,
        random_formula(rng, atoms, connectives, max_depth - 1),
        random_formula(rng, atoms, connectives, max_depth - 1),
    )


def cyclic_garbage(call) -> int:
    """How many objects ``call()`` leaves that only the cyclic collector can
    free. The saved garbage is dropped afterwards with the debug flag off,
    so that one count does not carry over into the next."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        call()
        gc.collect()
        return len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.collect()
