"""Property tests for the Myers bit-parallel Levenshtein kernels.

The contract of :mod:`repro.metrics.bitparallel` is entry-for-entry
equality with the scalar Wagner–Fischer DP on arbitrary unicode input —
across both packed and blocked kernels, both drivers (per-text and
text-lock-step), both matrix orientations, the bounded variant's
certified-lower-bound semantics, and every fallback edge (huge
alphabets, packed-counter capacity overflow, empty strings and
collections).  The oracle here is an independent pure-Python DP, not the
library's scalar path (which itself runs Myers now).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import LevenshteinDistance, levenshtein
from repro.metrics import bitparallel, strings
from repro.metrics.encoding import (
    clear_encoding_cache,
    encode_strings,
    levenshtein_kernel_plan,
    levenshtein_matrix,
)
from repro.metrics.strings import _MYERS_MAX_LEN, _levenshtein_python

unicode_text = st.text(
    alphabet=st.sampled_from("ab\x00é́\U0001F600� z"), max_size=10
)
collections = st.lists(unicode_text, min_size=0, max_size=12)


def dp_matrix(xs, ys):
    """Independent scalar oracle: the classic two-row DP, no bit tricks."""
    out = np.empty((len(xs), len(ys)), dtype=np.int64)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i, j] = _dp(x, y)
    return out


def _dp(a, b):
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
            )
        previous = current
    return previous[-1]


def forced_myers(xs, ys, **kwargs):
    return levenshtein_matrix(
        encode_strings(xs), encode_strings(ys), kernel="myers", **kwargs
    )


class TestMyersEqualsScalar:
    @given(xs=collections, ys=collections)
    @settings(max_examples=100, deadline=None)
    def test_random_unicode(self, xs, ys):
        assert np.array_equal(forced_myers(xs, ys), dp_matrix(xs, ys))

    @given(xs=st.lists(st.text(alphabet="ab", max_size=5), max_size=15))
    @settings(max_examples=50, deadline=None)
    def test_heavy_ties_pairwise(self, xs):
        assert np.array_equal(forced_myers(xs, xs), dp_matrix(xs, xs))

    def test_empty_equal_and_all_equal_strings(self):
        xs = ["", "", "same", "same", "other"]
        assert np.array_equal(forced_myers(xs, xs), dp_matrix(xs, xs))
        same = ["aaaa"] * 6
        assert np.array_equal(forced_myers(same, same), np.zeros((6, 6)))

    def test_empty_collections(self):
        assert forced_myers([], ["a", "b"]).shape == (0, 2)
        assert forced_myers(["a", "b"], []).shape == (2, 0)

    @pytest.mark.parametrize("length", [62, 63, 64, 65, 127, 128, 129])
    def test_word_boundary_lengths(self, length):
        # Blocked-kernel block boundaries: patterns straddling each edge.
        rng = np.random.default_rng(length)
        letters = "acgt"
        xs = [
            "".join(letters[i] for i in rng.integers(0, 4, size=length + d))
            for d in (-1, 0, 1)
        ]
        ys = [
            "".join(letters[i] for i in rng.integers(0, 4, size=n))
            for n in (0, 1, 30, length, length + 40)
        ]
        assert np.array_equal(forced_myers(xs, ys), dp_matrix(xs, ys))
        assert np.array_equal(forced_myers(ys, xs), dp_matrix(ys, xs))

    def test_mixed_packed_and_blocked_chunks(self):
        # Shorts share words (packed), longs take blocks — one collection.
        xs = ["ab", "ba", "x" * 20, "y" * 70, ("xy" * 40)]
        ys = ["", "b", "x" * 19 + "z", "y" * 71]
        assert np.array_equal(forced_myers(xs, ys), dp_matrix(xs, ys))

    def test_guard_bit_regression(self):
        # Adder carries crossing packed-slot boundaries: these exact pairs
        # once corrupted the neighbouring slot with one guard bit.
        xs = ["bbaaba", "bbbbaab", "aabbbbb"]
        ys = ["baabbbaa", "", "b" * 30]
        assert np.array_equal(forced_myers(xs, ys), dp_matrix(xs, ys))


class TestFallbacks:
    def test_huge_alphabet_reports_ineligible_and_falls_back(self):
        n = bitparallel.DENSE_ALPHABET_MAX + 8
        xs = ["".join(chr(0x4E00 + i) for i in range(j, j + 4)) for j in range(0, n, 4)]
        encoded = encode_strings(xs)
        assert not bitparallel.myers_eligible(encoded)
        ys = ["".join(chr(0x4E00 + i) for i in (1, 3, 5)), "ab"]
        # The auto plan skips the ineligible orientation (it may still
        # pick Myers with ys as patterns); the matrix stays exact.
        assert np.array_equal(
            levenshtein_matrix(encoded, encode_strings(ys)), dp_matrix(xs, ys)
        )

    def test_forced_myers_raises_when_neither_side_fits(self):
        n = bitparallel.DENSE_ALPHABET_MAX + 8
        xs = ["".join(chr(0x4E00 + i) for i in range(j, j + 4)) for j in range(0, n, 4)]
        ys = ["".join(chr(0xA000 + i) for i in range(j, j + 4)) for j in range(0, n, 4)]
        with pytest.raises(ValueError):
            levenshtein_kernel_plan(
                encode_strings(xs), encode_strings(ys), kernel="myers"
            )

    def test_packed_capacity_overflow_falls_back_to_blocked(self):
        # W = 8 slots cap the packed score counter at 255; a 300-char text
        # must reroute the band through a throwaway blocked chunk.
        xs = ["ab", "ba", "abab"]
        ys = ["a" * 300, "ab" * 150, ""]
        assert np.array_equal(forced_myers(xs, ys), dp_matrix(xs, ys))


class TestBounded:
    @given(
        xs=st.lists(unicode_text, min_size=1, max_size=6),
        ys=st.lists(unicode_text, min_size=1, max_size=12),
        radius=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_certified_lower_bounds(self, xs, ys, radius):
        true = dp_matrix(xs, ys)
        banded = forced_myers(xs, ys, max_distance=radius)
        inside = true <= radius
        assert np.array_equal(banded <= radius, inside)
        assert np.array_equal(banded[inside], true[inside])
        assert (banded <= true).all()

    def test_long_strings_hit_pruning_passes(self):
        xs = ["a" * 90, "a" * 45 + "b" * 45, "c" * 20]
        ys = ["a" * 90, "b" * 90, "a" * 89 + "c", "c" * 60]
        true = dp_matrix(xs, ys)
        for radius in (0, 1, 5, 60):
            banded = forced_myers(xs, ys, max_distance=radius)
            inside = true <= radius
            assert np.array_equal(banded <= radius, inside)
            assert np.array_equal(banded[inside], true[inside])

    def test_metric_banded_path_on_myers(self, monkeypatch):
        # Small enough for the metric's scalar tier; turn it off so the
        # call reaches the banded kernel.
        monkeypatch.setattr(strings, "_SCALAR_MAX_PAIRS", 0)
        metric = LevenshteinDistance()
        xs = ["abc", "a" * 25]
        ys = ["abd", "zzz", "a" * 24 + "b", ""]
        true = dp_matrix(xs, ys)
        banded = metric.batch_distances_within(xs, ys, 2.0)
        inside = true <= 2
        assert np.array_equal(banded <= 2, inside)
        assert np.array_equal(banded[inside], true[inside])


class TestLockstepDriver:
    def _pair(self):
        rng = np.random.default_rng(9)
        letters = "abcz"
        sites = ["abz", "zzzz", "ba", "cabcab"]
        points = [
            "".join(letters[i] for i in rng.integers(0, 4, size=n))
            for n in rng.integers(0, 12, size=200)
        ] + ["", "abz"]
        return sites, points

    def test_matches_per_text_driver_and_oracle(self):
        sites, points = self._pair()
        ps = encode_strings(sites)
        ts = encode_strings(points)
        assert bitparallel.myers_lockstep_eligible(ps, ts)
        lock = np.empty((len(sites), len(points)), dtype=np.int64)
        bitparallel.myers_matrix_lockstep_into(ps, ts, lock)
        per_text = np.empty_like(lock)
        bitparallel.myers_matrix_into(ps, ts, per_text)
        assert np.array_equal(lock, per_text)
        assert np.array_equal(lock, dp_matrix(sites, points))

    def test_transposed_output_view(self):
        # levenshtein_matrix hands the driver out.T when sites are ys.
        sites, points = self._pair()
        out = np.empty((len(points), len(sites)), dtype=np.int64)
        bitparallel.myers_matrix_lockstep_into(
            encode_strings(sites), encode_strings(points), out.T
        )
        assert np.array_equal(out, dp_matrix(points, sites))

    def test_ineligible_shapes(self):
        # Blocked patterns (length > PACKED_MAX_LEN) have no lock-step.
        long_sites = encode_strings(["x" * 70])
        texts = encode_strings(["xy", "yx"])
        assert not bitparallel.myers_lockstep_eligible(long_sites, texts)
        # Texts beyond the packed counter capacity are rejected too.
        small = encode_strings(["ab", "ba"])
        giant = encode_strings(["a" * 300])
        assert not bitparallel.myers_lockstep_eligible(small, giant)
        out = np.empty((1, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            bitparallel.myers_matrix_lockstep_into(
                encode_strings(
                    [chr(0x4E00 + i) for i in range(bitparallel.DENSE_ALPHABET_MAX + 8)]
                ),
                texts,
                out,
            )

    def test_empty_texts_and_empty_patterns(self):
        sites = ["", "ab"]
        points = ["", "", "b"]
        out = np.empty((2, 3), dtype=np.int64)
        bitparallel.myers_matrix_lockstep_into(
            encode_strings(sites), encode_strings(points), out
        )
        assert np.array_equal(out, dp_matrix(sites, points))


class TestLayoutCache:
    def test_layout_built_once_per_collection(self):
        clear_encoding_cache()
        words = ["alpha", "beta", "gamma", "delta"]
        queries = ["alpa", "beat"]
        before = bitparallel.build_count()
        forced_myers(queries, words)
        after_first = bitparallel.build_count()
        assert after_first > before
        # Same collections, fresh list objects: encoding cache hits, and
        # the Myers layout rides along — no rebuild.
        forced_myers(list(queries), list(words))
        forced_myers(words, queries)  # transposed reuses both layouts
        assert bitparallel.build_count() == after_first

    def test_layout_cached_on_encoded_instance(self):
        encoded = encode_strings(["abc", "abd"])
        layout = bitparallel.myers_patterns(encoded)
        assert bitparallel.myers_patterns(encoded) is layout


class TestScalarMyersFastPath:
    @given(unicode_text, unicode_text)
    @settings(max_examples=150, deadline=None)
    def test_equals_python_dp(self, a, b):
        assert levenshtein(a, b) == _dp(a, b)

    @pytest.mark.parametrize("length", [63, 64, 65, 80])
    def test_word_boundary(self, length):
        rng = np.random.default_rng(length)
        a = "".join("acgt"[i] for i in rng.integers(0, 4, size=length))
        b = "".join("acgt"[i] for i in rng.integers(0, 4, size=length + 1))
        assert levenshtein(a, b) == _dp(a, b)

    def test_dispatch_uses_myers_inside_word_cap(self):
        # After affix stripping both cores are <= 64: Myers handles it;
        # beyond one word the numpy row DP takes over.  Both exact.
        a, b = "x" * 10 + "a" * 60, "x" * 10 + "b" * 60
        assert levenshtein(a, b) == 60
        a, b = "a" * (_MYERS_MAX_LEN + 30), "b" * (_MYERS_MAX_LEN + 30)
        assert levenshtein(a, b) == _MYERS_MAX_LEN + 30

    @given(unicode_text, unicode_text)
    @settings(max_examples=100, deadline=None)
    def test_python_dp_oracle_agrees_with_itself(self, a, b):
        # Keep the retired Python DP honest: it is this file's oracle.
        assert _levenshtein_python(a, b) == _dp(a, b)
