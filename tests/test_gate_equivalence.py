"""The one-pass gate draw against the per-(draw, layer) reference loop.

``SyntheticGate.sample_decode`` / ``sample_prefill`` draw every layer's
top-K with one array partition.  The reference below is the scalar form
they replaced — one top-K, sort and set update per (token draw, layer) —
kept here only as an oracle.  Both consume the same RNG stream, so the
samples must agree bit for bit: distributions, logits, and the sorted
int64 ``activated`` arrays.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.moe.config import get_model_config, tiny_test_model
from repro.moe.gating import MAX_PREFILL_TOKEN_DRAWS, SyntheticGate

#: Prompt lengths around and beyond the prefill draw cap.
TOKEN_COUNTS = (1, 47, 48, 49, 500)

MODELS = ("mixtral-8x7b", "qwen1.5-moe", "phi-3.5-moe", "tiny", "tiny-full")


@lru_cache(maxsize=None)
def _gate(model: str, seed: int) -> SyntheticGate:
    if model == "tiny":
        config = tiny_test_model()
    elif model == "tiny-full":
        # top_k == experts_per_layer: every expert activates every layer.
        config = tiny_test_model(experts_per_layer=4, top_k=4)
    else:
        config = get_model_config(model)
    return SyntheticGate(config, seed=seed)


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _top_k_sorted(row: np.ndarray, k: int) -> np.ndarray:
    if k >= row.shape[-1]:
        return np.arange(row.shape[-1])
    return np.sort(np.argpartition(row, -k)[-k:])


def _noise_scale(gate: SyntheticGate) -> float:
    return gate.config.routing.iteration_noise * gate._width_factor()


def reference_decode(gate, cluster, phase, rng, prompt_bias=None):
    """(distributions, activated, logits) with one top-K per layer."""
    arch = gate.archetype_logits(cluster, phase)
    logits = arch + rng.gumbel(0.0, _noise_scale(gate), arch.shape)
    if prompt_bias is not None:
        logits = logits + prompt_bias
    logits = gate._logit_gain() * logits
    dist = _softmax(logits)
    activated = [
        _top_k_sorted(dist[layer], gate.config.top_k)
        for layer in range(gate.config.num_layers)
    ]
    return dist, activated, logits


def reference_prefill(gate, cluster, phase, num_tokens, rng, prompt_bias=None):
    """(distributions, activated, logits): a set union per (draw, layer)."""
    draws = min(num_tokens, MAX_PREFILL_TOKEN_DRAWS)
    arch = gate.archetype_logits(cluster, phase)
    if prompt_bias is not None:
        arch = arch + prompt_bias
    per_token = gate._logit_gain() * (
        arch[None, :, :]
        + rng.gumbel(0.0, _noise_scale(gate), (draws, *arch.shape))
    )
    dists = _softmax(per_token)
    activated = []
    for layer in range(gate.config.num_layers):
        chosen: set[int] = set()
        for t in range(draws):
            chosen.update(
                _top_k_sorted(dists[t, layer], gate.config.top_k).tolist()
            )
        activated.append(np.array(sorted(chosen), dtype=np.int64))
    return dists.mean(axis=0), activated, per_token.mean(axis=0)


def assert_same(sample, expected) -> None:
    dist, activated, logits = expected
    assert np.array_equal(sample.distributions, dist)
    assert np.array_equal(sample.logits, logits)
    assert len(sample.activated) == len(activated)
    for got, want in zip(sample.activated, activated):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


def _draw_case(data, model):
    gate = _gate(model, data.draw(st.sampled_from((0, 1, 7)), label="gate"))
    cluster = data.draw(st.integers(0, gate.num_clusters - 1), label="c")
    phase = data.draw(st.integers(0, gate.num_phases - 1), label="phase")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    bias = None
    if data.draw(st.booleans(), label="bias"):
        residual = np.random.default_rng(seed).standard_normal(
            gate.config.embedding_dim
        )
        bias = gate.prompt_bias(residual)
    return gate, cluster, phase, seed, bias


class TestDecodeEquivalence:
    @pytest.mark.parametrize("model", MODELS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, model, data):
        gate, cluster, phase, seed, bias = _draw_case(data, model)
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        for _ in range(3):
            sample = gate.sample_decode(cluster, phase, rng_a, bias)
            assert_same(
                sample, reference_decode(gate, cluster, phase, rng_b, bias)
            )
        # Both paths left the stream at the same place.
        assert rng_a.random() == rng_b.random()


class TestPrefillEquivalence:
    @pytest.mark.parametrize("model", MODELS)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), num_tokens=st.sampled_from(TOKEN_COUNTS))
    def test_matches_reference(self, model, data, num_tokens):
        gate, cluster, phase, seed, bias = _draw_case(data, model)
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        sample = gate.sample_prefill(cluster, phase, num_tokens, rng_a, bias)
        expected = reference_prefill(
            gate, cluster, phase, num_tokens, rng_b, bias
        )
        assert_same(sample, expected)
        assert rng_a.random() == rng_b.random()

    def test_full_width_activates_everything(self):
        gate = _gate("tiny-full", 0)
        sample = gate.sample_prefill(0, 0, 49, np.random.default_rng(3))
        for row in sample.activated:
            assert row.tolist() == list(range(4))


class TestOracleCatchesBrokenDraws:
    """The comparison flags a union or ordering the reference disagrees with."""

    def _prefill(self):
        gate = _gate("qwen1.5-moe", 0)
        sample = gate.sample_prefill(1, 0, 48, np.random.default_rng(11))
        expected = reference_prefill(
            gate, 1, 0, 48, np.random.default_rng(11)
        )
        return sample, expected

    def test_unsorted_rows_are_caught(self):
        sample, expected = self._prefill()
        broken = type(sample)(
            sample.distributions,
            tuple(row[::-1] for row in sample.activated),
            sample.logits,
        )
        with pytest.raises(AssertionError):
            assert_same(broken, expected)

    def test_partial_union_is_caught(self):
        sample, expected = self._prefill()
        k = _gate("qwen1.5-moe", 0).config.top_k
        # One draw's top-K instead of the union over every draw.
        broken = type(sample)(
            sample.distributions,
            tuple(row[:k] for row in sample.activated),
            sample.logits,
        )
        assert any(len(row) > k for row in sample.activated)
        with pytest.raises(AssertionError):
            assert_same(broken, expected)

    def test_wrong_dtype_is_caught(self):
        sample, expected = self._prefill()
        broken = type(sample)(
            sample.distributions,
            tuple(row.astype(np.int32) for row in sample.activated),
            sample.logits,
        )
        with pytest.raises(AssertionError):
            assert_same(broken, expected)
