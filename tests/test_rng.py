"""Tests for deterministic RNG plumbing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._rng import DEFAULT_SEED, _seed_states, generator_for, generators_for, spawn


class TestGeneratorFor:
    def test_same_scope_same_stream(self):
        a = generator_for(1, "detect", "ssd", "img-0")
        b = generator_for(1, "detect", "ssd", "img-0")
        assert a.uniform() == b.uniform()

    def test_different_scope_different_stream(self):
        a = generator_for(1, "detect", "ssd", "img-0")
        b = generator_for(1, "detect", "ssd", "img-1")
        draws_a = a.uniform(size=4)
        draws_b = b.uniform(size=4)
        assert not np.allclose(draws_a, draws_b)

    def test_different_seed_different_stream(self):
        a = generator_for(1, "x")
        b = generator_for(2, "x")
        assert a.uniform() != b.uniform()

    def test_stable_across_processes_by_construction(self):
        # The digest must not rely on salted hash(), and NumPy's seeding
        # must keep NEP 19's stream compatibility: a fixed scope yields this
        # fixed first draw in every process and NumPy release.
        assert generator_for(123, "pinned-scope").uniform().hex() == "0x1.45aeabc6d3da4p-1"

    def test_default_seed_exists(self):
        assert isinstance(DEFAULT_SEED, int)


def _draws(rng: np.random.Generator) -> list:
    """One of every kind of draw the library takes, ending with PCG64's
    buffered half-word set (``has_uint32``), which the next reseed must
    clear."""
    draws = [
        rng.uniform(),
        rng.beta(2.0, 3.0),
        rng.poisson(3.5),
        rng.integers(0, 7),
        rng.integers(0, 2**31),
        rng.standard_normal(),
        rng.exponential(),
        rng.random(dtype=np.float32),
    ]
    if not rng.bit_generator.state["has_uint32"]:
        draws.append(rng.random(dtype=np.float32))
    assert rng.bit_generator.state["has_uint32"]
    return draws


_scope_parts = st.one_of(
    st.text(max_size=12),
    st.integers(),
    st.floats(),
    st.tuples(st.integers(-5, 5), st.text(max_size=4)),
)
_ids = st.one_of(
    st.just(()),
    st.builds(range, st.integers(-3, 5), st.integers(0, 40)),
    st.lists(st.text(max_size=8), max_size=12).map(tuple),
)


class TestGeneratorsFor:
    def test_pinned_stream(self):
        # The one-pass seeding reproduces NumPy's own, pinned like the
        # one-off form above.
        first = [rng.uniform() for rng in generators_for(123, "pinned-scope", ids=["a", "b"])]
        assert first[1].hex() == "0x1.615465d431972p-2"

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(-(2**70), 2**70), scope=st.lists(_scope_parts, max_size=3), ids=_ids)
    def test_matches_generator_for(self, seed, scope, ids):
        seen = 0
        for item, rng in zip(ids, generators_for(seed, *scope, ids=ids), strict=True):
            assert _draws(rng) == _draws(generator_for(seed, *scope, item))
            seen += 1
        assert seen == len(ids)

    def test_more_ids_than_one_chunk(self):
        ids = range(1100)
        for item, rng in zip(ids, generators_for(7, "chunks", ids=iter(ids)), strict=True):
            assert rng.integers(0, 2**63) == generator_for(7, "chunks", item).integers(0, 2**63)

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_seed_states_match_seed_sequence(self, seed):
        expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        np.testing.assert_array_equal(_seed_states(np.array([seed], dtype=np.uint64))[0], expected)


class TestSpawn:
    def test_children_with_distinct_scopes_differ(self):
        parent = np.random.default_rng(0)
        a = spawn(parent, "a")
        parent2 = np.random.default_rng(0)
        b = spawn(parent2, "b")
        assert a.uniform() != b.uniform()

    def test_spawn_is_deterministic(self):
        a = spawn(np.random.default_rng(7), "x").uniform()
        b = spawn(np.random.default_rng(7), "x").uniform()
        assert a == b
