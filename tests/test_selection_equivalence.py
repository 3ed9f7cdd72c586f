"""Similarity-aware selection against its previous numpy-wrapper form.

``selection_threshold`` and ``select_prefetch_experts`` run once per
matched layer, so they are written with Python ``min``/``max`` and
ndarray methods.  The reference below is the form they replaced —
``np.clip``, ``np.argsort``, ``np.cumsum`` and ``np.searchsorted`` —
kept here only as an oracle.  Both must return the same threshold bit
for bit and the same expert indices element for element, and reject the
same inputs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prefetch import select_prefetch_experts, selection_threshold
from repro.errors import ConfigError


def reference_threshold(score: float) -> float:
    return float(np.clip(1.0 - score, 0.0, 1.0))


def reference_select(distribution, threshold, top_k, max_count=None):
    distribution = np.asarray(distribution, dtype=np.float64)
    if distribution.ndim != 1:
        raise ConfigError("distribution must be 1-D")
    num_experts = distribution.shape[0]
    if not 1 <= top_k <= num_experts:
        raise ConfigError(f"top_k must be in [1, {num_experts}]")
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError("threshold must be in [0, 1]")
    min_needed = min(top_k + 1, num_experts)
    cap = num_experts if max_count is None else min(max_count, num_experts)
    cap = max(cap, min_needed)
    order = np.argsort(distribution)[::-1]
    cumulative = np.cumsum(distribution[order])
    count = int(np.searchsorted(cumulative, threshold) + 1)
    count = max(count, min_needed)
    count = min(count, cap)
    return order[:count]


#: Scores well outside the cosine range, so both clamps are exercised.
SCORES = st.floats(-4.0, 4.0, allow_nan=False)


@st.composite
def rows(draw):
    """A layer row: random, tie-heavy, or all zero."""
    width = draw(st.integers(1, 16))
    kind = draw(st.sampled_from(["random", "ties", "zeros"]))
    if kind == "zeros":
        return np.zeros(width)
    if kind == "ties":
        values = st.sampled_from([0.0, 0.125, 0.25, 0.5])
    else:
        values = st.floats(0.0, 1.0, allow_nan=False)
    return np.array(draw(st.lists(values, min_size=width, max_size=width)))


@st.composite
def selections(draw):
    """(row, score, top_k, max_count) with top_k up to the row width."""
    row = draw(rows())
    width = row.shape[0]
    top_k = draw(st.one_of(st.just(width), st.integers(1, width)))
    max_count = draw(
        st.one_of(st.none(), st.integers(0, top_k), st.integers(0, width + 3))
    )
    return row, draw(SCORES), top_k, max_count


class TestThreshold:
    @given(score=SCORES)
    @settings(max_examples=300, deadline=None)
    def test_equal_to_clip(self, score):
        for value in (score, np.float64(score)):
            got = selection_threshold(value)
            assert type(got) is float
            assert got == reference_threshold(value)
            assert np.signbit(got) == np.signbit(reference_threshold(value))


class TestSelection:
    @given(case=selections())
    @settings(max_examples=400, deadline=None)
    def test_element_for_element(self, case):
        row, score, top_k, max_count = case
        threshold = selection_threshold(score)
        got = select_prefetch_experts(row, threshold, top_k, max_count)
        want = reference_select(row, threshold, top_k, max_count)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_top_k_equal_to_width_selects_every_expert(self):
        row = np.array([0.1, 0.4, 0.2, 0.3])
        got = select_prefetch_experts(row, 0.0, 4, max_count=1)
        assert np.array_equal(got, reference_select(row, 0.0, 4, 1))
        assert sorted(got.tolist()) == [0, 1, 2, 3]

    @pytest.mark.parametrize(
        "distribution, threshold, top_k",
        [
            (np.ones((2, 4)) / 4, 0.5, 1),
            (np.ones(4) / 4, 0.5, 0),
            (np.ones(4) / 4, 0.5, 5),
            (np.ones(4) / 4, -0.1, 1),
            (np.ones(4) / 4, 1.5, 1),
        ],
    )
    def test_same_inputs_rejected(self, distribution, threshold, top_k):
        for select in (select_prefetch_experts, reference_select):
            with pytest.raises(ConfigError):
                select(distribution, threshold, top_k)
