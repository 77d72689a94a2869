import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfresnet import make_generator, split_seed
from mfresnet.rng import noise_table


def particle_noise(root_seed, particle_id, n_steps, dt, dim):
    """Stream oracle: all Brownian increments of one particle, (n_steps, dim)
    N(0, dt I) rows, drawn from that particle's own generator."""
    gen = make_generator(root_seed, particle_id)
    return gen.standard_normal((n_steps, dim)) * math.sqrt(dt)


def brownian_increments(root_seed, particle_id, step_index, dt, dim):
    """Increment of particle `particle_id` over step `step_index`: row
    `step_index` of the particle's stream."""
    return particle_noise(root_seed, particle_id, step_index + 1, dt, dim)[-1]


def test_split_seed_deterministic_and_label_sensitive():
    assert split_seed(1, "a") == split_seed(1, "a")
    assert split_seed(1, "a") != split_seed(1, "b")
    assert split_seed(1, "a") != split_seed(2, "a")
    assert split_seed(1, 0) == split_seed(1, 0)


def test_make_generator_reproducible():
    a = make_generator(7, "x").standard_normal(5)
    b = make_generator(7, "x").standard_normal(5)
    assert np.array_equal(a, b)


def test_particle_noise_prefix_property():
    """Requesting fewer steps returns a prefix of the longer table, so random
    access and bulk simulation agree."""
    long = particle_noise(3, 11, 10, 0.25, 2)
    short = particle_noise(3, 11, 4, 0.25, 2)
    assert np.array_equal(long[:4], short)


def test_brownian_increments_match_table():
    table = particle_noise(5, 2, 8, 0.125, 3)
    for k in range(8):
        assert np.array_equal(brownian_increments(5, 2, k, 0.125, 3), table[k])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64 - 1),
       st.lists(st.integers(0, 20) | st.integers(0, 2**64 - 1), min_size=1, max_size=8),
       st.integers(1, 8), st.floats(1e-4, 2.0), st.integers(1, 3))
@example(21, [4, 0, 9], 6, 0.5, 2)
@example(2**63 + 5, [7, 3, 7, 2**63], 4, 0.25, 1)
@example(2**64 - 1, np.array([5, 1, 5, 0]), 3, 0.1, 3)
@example(2**64 - 7, np.array([2**63, 2**64 - 1, 2**63 + 12345, 3], dtype=np.uint64), 5, 0.3, 2)
@example(8, [-1, 4, -2**63], 3, 0.5, 1)
def test_noise_table_stacks_per_particle_streams(root_seed, ids, n_steps, dt, dim):
    """Row i is particle ids[i]'s own stream, byte for byte, for unordered and
    repeated ids, uint64 ids from 2**63 on, negative ids (taken modulo 2**64,
    as make_generator takes them) and root seeds across the full 64-bit range."""
    table = noise_table(root_seed, ids, n_steps, dt, dim)
    assert table.shape == (len(ids), n_steps, dim)
    for row, pid in enumerate(ids):
        assert table[row].tobytes() == particle_noise(root_seed, pid, n_steps, dt, dim).tobytes()


def test_noise_independent_of_partitioning():
    """A particle's increments do not depend on which batch it is simulated in."""
    full = noise_table(13, [0, 1, 2, 3], 5, 0.2, 1)
    part = noise_table(13, [2, 3], 5, 0.2, 1)
    assert np.array_equal(full[2:], part)


def test_increment_scale():
    dt = 0.01
    table = particle_noise(0, 0, 20000, dt, 1)
    assert abs(np.std(table) - np.sqrt(dt)) < 0.01 * np.sqrt(dt) * 3


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 1000), st.integers(1, 20))
def test_prefix_property_hypothesis(seed, pid, n_steps):
    long = particle_noise(seed, pid, n_steps + 5, 1.0, 1)
    short = particle_noise(seed, pid, n_steps, 1.0, 1)
    assert np.array_equal(long[:n_steps], short)
