"""Reproducible noise streams built on the counter-based Philox generator.

Each particle owns an independent stream keyed by (root_seed, particle_id).
Increment step k is, by definition, row k of the stream's normal table, so
the same values come back no matter how many particles are simulated, in
what order, or on how many workers.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np

_MASK = (1 << 64) - 1


def _label_to_int(label) -> int:
    if isinstance(label, (int, np.integer)):
        return int(label) & _MASK
    digest = hashlib.blake2s(str(label).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def split_seed(root_seed, label) -> int:
    """Derive an independent child seed from (root_seed, label).

    Adding new labels never perturbs the streams of existing ones.
    """
    ss = np.random.SeedSequence([int(root_seed) & _MASK, _label_to_int(label)])
    return int(ss.generate_state(1, np.uint64)[0])


def make_generator(root_seed, label=0) -> np.random.Generator:
    """Philox generator keyed by (root_seed, label)."""
    key = np.array([int(root_seed) & _MASK, _label_to_int(label)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def noise_table(root_seed, particle_ids, n_steps, dt, dim) -> np.ndarray:
    """Stacked increments for many particles: (N, n_steps, dim), N(0, dt I)
    rows.  Row i is the first n_steps * dim standard normals of
    make_generator(root_seed, particle_ids[i]) times sqrt(dt), for integer
    ids (a uint64 array included).  One call-local Philox is reset to key
    (root_seed, id), counter 0 and an empty buffer per row, through one state
    dict of Python lists whose key word each row rewrites (the setter reads
    lists far faster than arrays); the ids become Python ints one at a time,
    so no list of every id is held."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    out = np.empty((len(particle_ids), n_steps, dim))
    gen = make_generator(root_seed)
    bitgen = gen.bit_generator
    fresh = bitgen.state  # counter 0, empty buffer
    fresh["buffer"] = fresh["buffer"].tolist()
    fresh["state"] = {name: words.tolist() for name, words in fresh["state"].items()}
    key = fresh["state"]["key"]
    for row, pid in zip(out, map(int, particle_ids)):
        key[1] = pid & _MASK
        bitgen.state = fresh
        gen.standard_normal(out=row)
    out *= math.sqrt(dt)
    return out
