"""Tests for the incremental (streaming) trajectory matcher."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matcher import ExpertMapMatcher
from repro.core.store import ExpertMapStore
from repro.moe.gating import softmax_rows

from tests._reference_core import ReferenceTrajectoryMatch


@pytest.fixture
def loaded(rng):
    store = ExpertMapStore(
        capacity=32,
        num_layers=6,
        num_experts=4,
        embedding_dim=8,
        prefetch_distance=2,
    )
    for _ in range(12):
        emb = rng.standard_normal(8)
        store.add(emb, softmax_rows(rng.standard_normal((6, 4))))
    return ExpertMapMatcher(store), store


class TestEquivalence:
    def test_matches_full_recompute_layer_by_layer(self, loaded, rng):
        """Incremental scores must equal the O(C·l·J) full computation."""
        matcher, store = loaded
        query = softmax_rows(rng.standard_normal((2, 6, 4)))
        session = matcher.incremental_session(batch_size=2)
        for layer in range(6):
            incremental = session.observe_layer(query[:, layer, :])
            full = matcher.match_trajectory(query, layer + 1)
            assert incremental is not None and full is not None
            assert np.allclose(incremental.scores, full.scores, atol=1e-9)
            assert np.array_equal(incremental.indices, full.indices)

    def test_exact_prefix_scores_one(self, loaded):
        matcher, store = loaded
        target = store.get_map(5)[None, :, :].astype(np.float64)
        session = matcher.incremental_session(batch_size=1)
        for layer in range(6):
            result = session.observe_layer(target[:, layer, :])
        assert int(result.indices[0]) == 5
        assert result.scores[0] == pytest.approx(1.0, abs=1e-5)


class TestReferenceEquivalence:
    @given(
        seed=st.integers(0, 2**16),
        layers=st.integers(1, 6),
        experts=st.integers(2, 8),
        records=st.integers(1, 20),
        capacity=st.integers(1, 12),
        batch_size=st.integers(1, 3),
        replay=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_to_full_prefix_refold(
        self, seed, layers, experts, records, capacity, batch_size, replay
    ):
        """The streamed session equals the naive Eq. 5 refold, bit for bit.

        ``replay`` queries with stored maps (exact-prefix ties); stores
        past capacity exercise slot replacement.
        """
        rng = np.random.default_rng(seed)
        store = ExpertMapStore(
            capacity, layers, experts, 4, min(2, layers)
        )
        for _ in range(records):
            store.add(
                rng.standard_normal(4),
                softmax_rows(rng.standard_normal((layers, experts))),
            )
        if replay:
            slots = rng.integers(0, len(store), batch_size)
            query = store.gather_maps(slots).astype(np.float64)
        else:
            query = softmax_rows(
                rng.standard_normal((batch_size, layers, experts))
            )
        streamed = ExpertMapMatcher(store).incremental_session(batch_size)
        reference = ReferenceTrajectoryMatch(store, batch_size)
        for layer in range(layers):
            got = streamed.observe_layer(query[:, layer, :])
            want = reference.observe_layer(query[:, layer, :])
            assert np.array_equal(got.indices, want.indices), layer
            assert np.array_equal(got.scores, want.scores), layer


class TestGuards:
    def test_empty_store_returns_none(self):
        store = ExpertMapStore(4, 6, 4, 8, 2)
        session = ExpertMapMatcher(store).incremental_session(1)
        assert session.observe_layer(np.ones((1, 4))) is None

    def test_batch_size_mismatch(self, loaded):
        matcher, _ = loaded
        session = matcher.incremental_session(batch_size=2)
        with pytest.raises(ValueError, match="expected batch"):
            session.observe_layer(np.ones((3, 4)))

    def test_too_many_layers(self, loaded, rng):
        matcher, _ = loaded
        session = matcher.incremental_session(batch_size=1)
        for _ in range(6):
            session.observe_layer(rng.random((1, 4)))
        with pytest.raises(ValueError, match="already observed"):
            session.observe_layer(rng.random((1, 4)))

    def test_invalid_batch_size(self, loaded):
        matcher, _ = loaded
        with pytest.raises(ValueError):
            matcher.incremental_session(0)


class TestPerformance:
    def test_incremental_is_faster_on_wide_models(self, rng):
        """The optimization target: Qwen-like shapes (24 × 60)."""
        import time

        store = ExpertMapStore(512, 24, 60, 64, prefetch_distance=3)
        for _ in range(512):
            store.add(
                rng.standard_normal(64),
                softmax_rows(rng.standard_normal((24, 60))),
            )
        matcher = ExpertMapMatcher(store)
        query = softmax_rows(rng.standard_normal((1, 24, 60)))

        start = time.perf_counter()
        for _ in range(5):
            session = matcher.incremental_session(1)
            for layer in range(24):
                session.observe_layer(query[:, layer, :])
        incremental_time = time.perf_counter() - start

        start = time.perf_counter()
        for _ in range(5):
            for layer in range(24):
                matcher.match_trajectory(query, layer + 1)
        full_time = time.perf_counter() - start

        assert incremental_time < full_time
