"""Rhythm-profile clustering, verified against exhaustive enumeration."""

import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from melodygen import profiles

from melodygen.encode import NO_EVENT, NOTE_OFF, MelodyGrid
from melodygen.profiles import (
    BAR_WIDTH,
    BEAT_WIDTH,
    KMeansFit,
    LloydRuns,
    ProfileCodebook,
    assign_many,
    binarize,
    build_codebook,
    cut_clips,
    elbow_report,
    kmeans,
    profile_sequences,
)
from melodygen.profiles import (
    _distinct_rows,
    _lloyd,
    _nearest,
    _screen,
    _squared_distances,
)
from support.kmeans_oracle import (
    ReferenceFit,
    brute_force_wcss,
    direct_wcss,
    elbow_warm_start,
    reference_elbow_report,
    reference_kmeans,
)
from support.lloyd_history import TracedKMeans, lloyd_histories, traced_kmeans


def assert_same_fit(got: KMeansFit, expected: KMeansFit | ReferenceFit) -> None:
    assert got.centroids.tobytes() == expected.centroids.tobytes()
    assert got.centroids.shape == expected.centroids.shape
    assert np.array_equal(got.labels, expected.labels)
    assert got.wcss == expected.wcss
    assert got.iterations == expected.iterations


def assert_matches_reference(got: TracedKMeans, expected: ReferenceFit) -> None:
    """The kept fit, and its objective after every iteration, equal the
    reference's."""
    assert_same_fit(got.fit, expected)
    assert got.history == expected.wcss_history


@st.composite
def binary_clip_sets(draw) -> np.ndarray:
    """0/1 clips of beat or bar width: distinct rows, each repeated, shuffled."""
    width = draw(st.sampled_from([BEAT_WIDTH, BAR_WIDTH]))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=width, max_size=width),
            min_size=1,
            max_size=12,
            unique_by=tuple,
        )
    )
    copies = draw(st.lists(st.integers(1, 5), min_size=len(rows), max_size=len(rows)))
    points = np.repeat(np.array(rows, dtype=np.float64), copies, axis=0)
    order = draw(st.permutations(range(len(points))))
    return points[list(order)]


def n_distinct(points: np.ndarray) -> int:
    return len(np.unique(points, axis=0))


class TestBinarize:
    def test_events_become_ones(self):
        events = [5, NO_EVENT, NOTE_OFF, NO_EVENT] * 4
        binary = binarize(MelodyGrid(tuple(events)))
        assert binary.tolist() == [1, 0, 1, 0] * 4


class TestCutClips:
    def test_beat_and_bar_widths(self):
        binary = np.arange(32) % 2
        beats = cut_clips(binary, BEAT_WIDTH)
        bars = cut_clips(binary, BAR_WIDTH)
        assert beats.shape == (8, 4) and bars.shape == (2, 16)
        assert beats.dtype == np.float64
        assert beats[0].tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_rejects_misaligned_length(self):
        with pytest.raises(ValueError, match="multiple"):
            cut_clips(np.zeros(10), 4)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            cut_clips(np.zeros((4, 4)), 4)


class TestKMeans:
    def test_two_obvious_clusters(self):
        points = np.array(
            [[0, 0, 0, 0], [0, 0, 0, 1], [1, 1, 1, 1], [1, 1, 1, 0]], dtype=float
        )
        fit = kmeans(points, 2, seed=0)
        assert sorted(np.bincount(fit.labels).tolist()) == [2, 2]
        got = {tuple(row) for row in fit.centroids}
        assert got == {(0.0, 0.0, 0.0, 0.5), (1.0, 1.0, 1.0, 0.5)}
        assert fit.wcss == pytest.approx(1.0)

    def test_matches_brute_force_on_random_instances(self):
        # Restarted Lloyd may land in a local optimum occasionally, so global
        # optimality is a rate; never beating the optimum is exact.
        rng = np.random.default_rng(42)
        attempted = optimal = 0
        for trial in range(40):
            n = int(rng.integers(4, 9))
            k = int(rng.integers(2, 4))
            points = rng.integers(0, 2, size=(n, 4)).astype(float)
            if len(np.unique(points, axis=0)) < k:
                continue
            fit = kmeans(points, k, seed=trial, restarts=12)
            optimum = brute_force_wcss(points, k)
            assert fit.wcss >= optimum - 1e-9, f"trial {trial}: beat the optimum?"
            attempted += 1
            optimal += fit.wcss <= optimum + 1e-9
        assert attempted >= 30
        assert optimal / attempted >= 0.95, f"{optimal}/{attempted} globally optimal"

    def test_reported_wcss_is_consistent(self):
        rng = np.random.default_rng(0)
        points = rng.random((30, 4))
        fit = kmeans(points, 5, seed=3)
        assert fit.wcss == pytest.approx(
            direct_wcss(points, fit.labels, fit.centroids), abs=1e-9
        )

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(1)
        points = rng.integers(0, 2, size=(40, 16)).astype(float)
        a = kmeans(points, 6, seed=11)
        b = kmeans(points, 6, seed=11)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.labels, b.labels)
        assert a.wcss == b.wcss

    def test_wcss_history_non_increasing(self):
        rng = np.random.default_rng(2)
        points = rng.random((50, 8))
        history = traced_kmeans(points, 4, seed=0, restarts=1).history
        assert all(
            later <= earlier + 1e-10 for earlier, later in zip(history, history[1:])
        )

    def test_too_few_distinct_points(self):
        points = np.array([[0.0, 1.0]] * 10 + [[1.0, 0.0]] * 10)
        with pytest.raises(ValueError, match="distinct"):
            kmeans(points, 3, seed=0)

    def test_k_equals_distinct_gives_zero_wcss(self):
        points = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]] * 5)
        fit = kmeans(points, 3, seed=0)
        assert fit.wcss == pytest.approx(0.0, abs=1e-12)

    def test_k_one_gives_total_variance(self):
        rng = np.random.default_rng(5)
        points = rng.random((20, 4))
        fit = kmeans(points, 1, seed=0, restarts=1)
        expected = float(((points - points.mean(axis=0)) ** 2).sum())
        assert fit.wcss == pytest.approx(expected)
        assert np.allclose(fit.centroids[0], points.mean(axis=0))

    def test_duplicate_heavy_data(self):
        # Mostly duplicates with a few distinct rows: k-means++ must not
        # divide by a zero total and the fit must still be valid.
        points = np.array([[1.0, 0.0]] * 30 + [[0.0, 1.0]] * 2 + [[1.0, 1.0]])
        fit = kmeans(points, 3, seed=0)
        assert fit.wcss == pytest.approx(0.0, abs=1e-12)

    def test_bad_arguments(self):
        points = np.zeros((4, 4))
        with pytest.raises(ValueError):
            kmeans(points, 0, seed=0)
        with pytest.raises(ValueError):
            kmeans(np.zeros((0, 4)), 1, seed=0)
        with pytest.raises(ValueError):
            kmeans(points, 1, seed=0, restarts=0)


class TestExactness:
    """kmeans over distinct clips equals the per-clip reference bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_kmeans_matches_reference(self, data):
        points = data.draw(binary_clip_sets())
        k = data.draw(st.integers(1, n_distinct(points)))
        restarts = data.draw(st.integers(1, 4))
        seed = data.draw(st.integers(0, 2**32 - 1))
        assert_matches_reference(
            traced_kmeans(points, k, seed=seed, restarts=restarts),
            reference_kmeans(points, k, seed=seed, restarts=restarts),
        )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_elbow_report_matches_reference(self, data):
        points = data.draw(binary_clip_sets())
        high = data.draw(st.integers(1, n_distinct(points)))
        low = data.draw(st.integers(1, high))
        restarts = data.draw(st.integers(1, 4))
        seed = data.draw(st.integers(0, 2**16))
        k_values = range(low, high + 1)
        fits = reference_elbow_report(points, k_values, seed=seed, restarts=restarts)
        rows = elbow_report(points, k_values, seed=seed, restarts=restarts)
        assert rows == [{"k": k, "wcss": fit.wcss} for k, fit in zip(k_values, fits)]
        # Each warm-started fit, not only its objective, matches too.
        for k, previous, fit in zip(k_values[1:], fits, fits[1:]):
            warm = elbow_warm_start(points, previous)
            got = traced_kmeans(
                points, k, seed=seed + k, restarts=restarts, initial_centroids=warm
            )
            assert_matches_reference(got, fit)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_warm_starts_that_empty_clusters(self, data):
        # Random k-means++ starts almost never empty a cluster, so draw warm
        # starts that do: rows of the data with repeats, one maybe far away.
        points = data.draw(binary_clip_sets())
        distinct = np.unique(points, axis=0)
        k = data.draw(st.integers(1, len(distinct)))
        picks = data.draw(
            st.lists(st.integers(0, len(distinct) - 1), min_size=k, max_size=k)
        )
        start = distinct[picks].copy()
        if data.draw(st.booleans()):
            start[data.draw(st.integers(0, k - 1))] = 10.0
        restarts = data.draw(st.integers(1, 4))
        assert_matches_reference(
            traced_kmeans(points, k, seed=1, restarts=restarts, initial_centroids=start),
            reference_kmeans(
                points, k, seed=1, restarts=restarts, initial_centroids=start
            ),
        )

    # In each case below the warm start reaches the optimum, so kmeans keeps
    # it (ties go to the first start) and its repaired first iteration shows
    # in its rebuilt objectives.
    @pytest.mark.parametrize(
        "points, start",
        [
            pytest.param(
                [[0, 0, 0, 0]] * 3 + [[1, 1, 1, 1]] * 3,
                [[0, 0, 0, 0], [0, 0, 0, 0]],
                id="duplicate-start-takes-one-of-three-identical-clips",
            ),
            pytest.param(
                [[1, 1, 0, 0], [0, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 0, 0]],
                [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
                id="two-repairs-from-a-triple-start",
            ),
            pytest.param(
                [[0, 1, 0, 1]] * 4 + [[1, 0, 0, 0]] * 2 + [[0, 0, 0, 0]],
                [[0, 1, 0, 1], [9, 9, 9, 9], [0, 0, 0, 0]],
                id="far-start-empties-a-cluster",
            ),
        ],
    )
    def test_empty_cluster_repairs(self, points, start):
        points = np.array(points, dtype=np.float64)
        k = len(start)
        got = traced_kmeans(points, k, seed=0, restarts=2, initial_centroids=start)
        expected = reference_kmeans(points, k, seed=0, restarts=2, initial_centroids=start)
        assert_matches_reference(got, expected)
        assert got.fit.wcss == 0.0 and got.fit.iterations >= 2


class TestLockstep:
    """All starts of one call advance together; each fit is its start's own."""

    # Five distinct clips with repeats; k = 3.
    POINTS = np.array(
        [[0, 0, 0, 0]] * 4 + [[1, 1, 0, 0]] * 3 + [[1, 1, 1, 0]] * 2
        + [[0, 0, 1, 1]] * 3 + [[0, 1, 1, 1]],
        dtype=np.float64,
    )
    STARTS = np.array(
        [
            [[0, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1]],  # near the optimum
            [[0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 1, 1]],  # duplicate: one repair
            [[1, 1, 1, 0], [1, 1, 0, 0], [0, 1, 1, 1]],  # several moves
        ],
        dtype=np.float64,
    )

    def test_batch_equals_each_start_alone(self, monkeypatch):
        distinct, inverse = _distinct_rows(self.POINTS)
        repairs = []
        original = profiles._repair

        def counting_repair(*args):
            repairs.append(None)
            return original(*args)

        monkeypatch.setattr(profiles, "_repair", counting_repair)
        alone = []
        repaired_alone = []
        for start in self.STARTS:
            before = len(repairs)
            alone.append(_lloyd(distinct, inverse, start[None], 100).fits[0])
            repaired_alone.append(len(repairs) > before)
        batch_repairs_before = len(repairs)
        batch = _lloyd(distinct, inverse, self.STARTS, 100)
        # The starts stop at different iterations, and only one repairs.
        assert len({fit.iterations for fit in alone}) > 1
        assert repaired_alone == [False, True, False]
        assert len(repairs) - batch_repairs_before == 1
        for got, expected in zip(batch.fits, alone):
            assert_same_fit(got, expected)
        assert batch.iterations == sum(fit.iterations for fit in alone)
        assert lloyd_histories(distinct, inverse, self.STARTS, batch) == [
            lloyd_histories(distinct, inverse, start[None], LloydRuns([fit]))[0]
            for start, fit in zip(self.STARTS, alone)
        ]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_batch_equals_each_start_alone_on_drawn_starts(self, data):
        points = data.draw(binary_clip_sets())
        distinct, inverse = _distinct_rows(points)
        k = data.draw(st.integers(1, len(distinct)))
        n_starts = data.draw(st.integers(1, 5))
        # Rows of the data with repeats (which empty clusters), one maybe far.
        picks = data.draw(
            st.lists(
                st.lists(st.integers(0, len(distinct) - 1), min_size=k, max_size=k),
                min_size=n_starts,
                max_size=n_starts,
            )
        )
        starts = distinct[np.array(picks)]
        if data.draw(st.booleans()):
            starts[data.draw(st.integers(0, n_starts - 1)), 0] = 10.0
        max_iter = data.draw(st.integers(1, 6))
        batch = _lloyd(distinct, inverse, starts, max_iter)
        assert len(batch.fits) == n_starts
        histories = lloyd_histories(distinct, inverse, starts, batch)
        for got, history, start in zip(batch.fits, histories, starts):
            alone = _lloyd(distinct, inverse, start[None], max_iter)
            assert_same_fit(got, alone.fits[0])
            assert history == lloyd_histories(distinct, inverse, start[None], alone)[0]


class TestCertifiedScreen:
    """The GEMM screen certifies a label only where the diff form agrees."""

    # At x = 0 both centroids are exactly 1/3 away: the mean of three clips
    # (1/3, 1/3, 1/3, 0) and the mean of six (1/2, 1/6, 1/6, 1/6). Rounded,
    # the float distances may order them either way.
    TIE = np.array([[1, 1, 1, 0], [3, 1, 1, 1]], dtype=np.float64) / np.array([[3.0], [6.0]])

    @pytest.mark.parametrize("order", [[0, 1], [1, 0]])
    def test_cross_size_exact_tie_takes_the_diff_form(self, order):
        point = np.zeros((1, 4))
        centroids = self.TIE[order][None]
        labels, uncertain = _screen(point, np.zeros(1), centroids)
        assert uncertain.tolist() == [[True]]
        expected = _squared_distances(point, centroids[0]).argmin(axis=1)
        assert _nearest(point, np.zeros(1), centroids).tolist() == [expected.tolist()]

    def test_cross_size_tie_inside_kmeans_matches_reference(self):
        # Clusters {e1, e2, e3} and {1100, 1010, 1001, 0000 x 3} have those
        # means, so a warm start at them ties the three zero clips.
        points = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 0, 0], [1, 0, 1, 0],
             [1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
            dtype=np.float64,
        )
        for start in (self.TIE, self.TIE[::-1].copy()):
            distinct, inverse = _distinct_rows(points)
            norms = np.einsum("ud,ud->u", distinct, distinct)
            _, uncertain = _screen(distinct, norms, start[None])
            assert uncertain[0, 0]  # the zero row sorts first
            assert_matches_reference(
                traced_kmeans(points, 2, seed=5, restarts=2, initial_centroids=start),
                reference_kmeans(points, 2, seed=5, restarts=2, initial_centroids=start),
            )

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_certified_labels_are_the_diff_form_argmin(self, data):
        d = data.draw(st.integers(1, 16))
        u = data.draw(st.integers(1, 12))
        k = data.draw(st.integers(1, 5))
        n_starts = data.draw(st.integers(1, 3))
        # Any finite value, or a few small ones that make exact ties likely.
        values = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
            [0.0, 1.0, 0.5, 1 / 3, 1 / 6, -1.0]
        )
        points = data.draw(hnp.arrays(np.float64, (u, d), elements=values))
        centroids = data.draw(hnp.arrays(np.float64, (n_starts, k, d), elements=values))
        # Small blocks split the uncertain pairs across several blocks.
        block = data.draw(st.sampled_from([1, 4, profiles.TIE_BLOCK]))
        with np.errstate(over="ignore", invalid="ignore"), mock.patch.object(
            profiles, "TIE_BLOCK", block
        ):
            norms = np.einsum("ud,ud->u", points, points)
            labels, uncertain = _screen(points, norms, centroids)
            nearest = _nearest(points, norms, centroids)
            expected = np.stack(
                [_squared_distances(points, c).argmin(axis=1) for c in centroids]
            )
        assert np.array_equal(labels[~uncertain], expected[~uncertain])
        assert np.array_equal(nearest, expected)

    @pytest.mark.parametrize("rows", [2048, 8192])
    def test_tie_fallback_memory_does_not_grow_with_the_tied_rows(self, rows):
        # Equal centroids tie every (start, row) pair, so every pair takes the
        # diff form, and the screen's own peak grows with the rows.
        n_starts, k, d = 2, 8, BAR_WIDTH
        points = np.random.default_rng(rows).integers(0, 2, size=(rows, d)).astype(np.float64)
        norms = np.einsum("ud,ud->u", points, points)
        centroids = np.full((n_starts, k, d), 0.5)
        peaks = []
        for labelling in (_screen, _nearest):
            tracemalloc.start()
            try:
                result = labelling(points, norms, centroids)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert result.shape == (n_starts, rows) and not result.any()
        # One block's (pairs, k, d) centroid gather and differences, and room
        # for its smaller temporaries.
        bound = 3 * profiles.TIE_BLOCK * k * d * 8
        assert peaks[1] - peaks[0] <= bound, peaks


class TestDistinctRows:
    @settings(max_examples=200, deadline=None)
    @given(
        points=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40),
            elements=st.sampled_from([-1.5, 0.0, 0.25, 1.0, 3.0]),
        )
    )
    def test_rows_and_inverse_equal_np_unique(self, points):
        distinct, inverse = _distinct_rows(points)
        expected, expected_inverse = np.unique(points, axis=0, return_inverse=True)
        assert distinct.shape == expected.shape
        assert distinct.tobytes() == expected.tobytes()
        assert np.array_equal(inverse, expected_inverse.reshape(-1))


class TestCodebook:
    def clips(self):
        rng = np.random.default_rng(8)
        return rng.integers(0, 2, size=(60, 4)).astype(float)

    def test_build_and_assign(self):
        codebook = build_codebook(self.clips(), "beat", 5, seed=2)
        assert codebook.k == 5 and codebook.width == BEAT_WIDTH
        indices = assign_many(np.array([[1.0, 0.0, 0.0, 0.0]]), codebook)
        assert indices.shape == (1,) and 0 <= indices[0] < 5

    def test_assign_is_nearest_centroid(self):
        codebook = build_codebook(self.clips(), "beat", 4, seed=0)
        clips = self.clips()[:10]
        expected = [
            int(np.argmin(((c - codebook.centroids) ** 2).sum(axis=1)))
            for c in clips
        ]
        assert assign_many(clips, codebook).tolist() == expected

    def test_assign_tie_resolves_to_lowest_index(self):
        codebook = ProfileCodebook(
            kind="beat",
            centroids=np.array([[0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0]]),
            seed=0,
            iterations=1,
            wcss=0.0,
        )
        # Equidistant from both centroids.
        assert assign_many(np.array([[0.5, 0.0, 0.0, 0.5]]), codebook).tolist() == [0]

    def test_kind_validation(self):
        with pytest.raises(ValueError, match="kind"):
            build_codebook(self.clips(), "measure", 4)

    def test_width_validation(self):
        with pytest.raises(ValueError, match="16"):
            ProfileCodebook("bar", np.zeros((2, 4)), 0, 1, 0.0)

    def test_distinct_centroids_required(self):
        with pytest.raises(ValueError, match="distinct"):
            ProfileCodebook("beat", np.zeros((2, 4)), 0, 1, 0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.25, 1.5])
    def test_centroids_lie_in_the_unit_interval(self, value):
        centroids = np.array([[0.0, 1.0, 0.5, 0.0], [1.0, 0.0, 0.0, 0.0]])
        centroids[0, 2] = value
        problem = "beat codebook centroids must lie in [0, 1]"
        with pytest.raises(ValueError, match=re.escape(problem)):
            ProfileCodebook("beat", centroids, 0, 1, 0.0)

    @pytest.mark.parametrize("entry", ["1", True, None])
    def test_centroid_entries_are_numbers(self, entry):
        stored = build_codebook(self.clips(), "beat", 6, seed=4).to_dict()
        stored["centroids"][2][1] = entry
        with pytest.raises(ValueError, match=re.escape(
            "field 'centroids' must be list[list[int | float]]"
        )):
            ProfileCodebook.from_dict(stored)

    def test_integer_centroid_entries_load_as_floats(self):
        stored = build_codebook(self.clips(), "beat", 6, seed=4).to_dict()
        stored["centroids"][0] = [round(v) for v in stored["centroids"][0]]
        loaded = ProfileCodebook.from_dict(stored)
        assert loaded.centroids.dtype == np.float64
        assert loaded.centroids[0].tolist() == stored["centroids"][0]

    def test_json_round_trip(self, tmp_path):
        codebook = build_codebook(self.clips(), "beat", 6, seed=4)
        path = tmp_path / "beat.json"
        codebook.save(path)
        loaded = ProfileCodebook.load(path, "beat")
        assert loaded.kind == codebook.kind
        assert np.array_equal(loaded.centroids, codebook.centroids)
        assert loaded.wcss == codebook.wcss

    def test_load_rejects_another_kind(self, tmp_path):
        path = tmp_path / "bar.json"
        build_codebook(self.clips(), "beat", 6, seed=4).save(path)
        with pytest.raises(ValueError, match="the bar codebook holds beat profiles"):
            ProfileCodebook.load(path, "bar")

    @pytest.mark.parametrize("k", [5, 7, 99])
    def test_k_must_count_the_centroids(self, k):
        stored = build_codebook(self.clips(), "beat", 6, seed=4).to_dict()
        with pytest.raises(ValueError, match=f"k is {k}, but the codebook holds 6 centroids"):
            ProfileCodebook.from_dict({**stored, "k": k})

    def test_save_is_deterministic(self, tmp_path):
        first = build_codebook(self.clips(), "beat", 6, seed=4)
        second = build_codebook(self.clips(), "beat", 6, seed=4)
        assert first.dumps() == second.dumps()


class TestProfileSequences:
    @staticmethod
    def grid_and_codebooks():
        rng = np.random.default_rng(3)
        events = []
        for _ in range(4 * 16):
            events.append(int(rng.integers(0, 36)) if rng.random() < 0.4 else NO_EVENT)
        grid = MelodyGrid(tuple(events))
        clips4 = cut_clips(binarize(grid), 4)
        clips16 = cut_clips(binarize(grid), 16)
        beat_cb = build_codebook(np.vstack([clips4] * 3), "beat", 4, seed=0)
        bar_cb = build_codebook(np.vstack([clips16] * 3), "bar", 3, seed=0)
        return grid, {"bar": bar_cb, "beat": beat_cb}

    def test_shapes_and_determinism(self):
        grid, codebooks = self.grid_and_codebooks()
        profiles = profile_sequences(grid, codebooks)
        assert profiles["bar"].shape == (4,) and profiles["beat"].shape == (16,)
        again = profile_sequences(grid, codebooks)
        assert all(np.array_equal(again[level], profiles[level]) for level in codebooks)

    @pytest.mark.parametrize(
        "levels", [(), ("bar",), ("beat",), ("bar", "beat"), ("beat", "bar")]
    )
    def test_each_level_is_keyed_to_its_own_codebook(self, levels):
        grid, codebooks = self.grid_and_codebooks()
        given = {level: codebooks[level] for level in levels}
        profiles = profile_sequences(grid, given)
        assert list(profiles) == list(levels)
        for level, book in given.items():
            expected = assign_many(cut_clips(binarize(grid), book.width), book)
            assert np.array_equal(profiles[level], expected)


class TestElbow:
    def test_curve_non_increasing_and_endpoints(self):
        rng = np.random.default_rng(9)
        points = rng.integers(0, 2, size=(50, 4)).astype(float)
        n_distinct = len(np.unique(points, axis=0))
        rows = elbow_report(points, range(1, n_distinct + 1), seed=0, restarts=4)
        wcss = [row["wcss"] for row in rows]
        assert all(b <= a + 1e-9 for a, b in zip(wcss, wcss[1:]))
        total_variance = float(((points - points.mean(axis=0)) ** 2).sum())
        assert wcss[0] == pytest.approx(total_variance)
        assert wcss[-1] == pytest.approx(0.0, abs=1e-12)

    def test_row_format(self):
        points = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]] * 4)
        rows = elbow_report(points, [1, 2], seed=0, restarts=2)
        assert [row["k"] for row in rows] == [1, 2]
