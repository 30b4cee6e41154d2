import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uqseg.arrays
import uqseg.cli
import uqseg.uncertainty
from uqseg.arrayio import write_array
from uqseg.arrays import pixel_blocks
from uqseg.cli import main
from uqseg.errors import ValidationError
from uqseg.uncertainty import (
    StructuringElement,
    class_scores,
    contour_normalizer,
    dilate,
    pixel_entropy,
    uncertainty_score,
)


def dilate_oracle(img, mask):
    """Brute-force double loop: out[x] = OR over set offsets a of img[x - a]."""
    radii = [s // 2 for s in mask.shape]
    out = np.zeros_like(img)
    offsets = [tuple(idx - r for idx, r in zip(pos, radii)) for pos in np.argwhere(mask == 1)]
    for pos in np.ndindex(img.shape):
        for off in offsets:
            src = tuple(p - o for p, o in zip(pos, off))
            if all(0 <= s < n for s, n in zip(src, img.shape)) and img[src]:
                out[pos] = 1
                break
    return out


def contour_oracle(img, mask):
    grown = dilate_oracle(img, mask)
    return (grown.astype(bool) & ~img.astype(bool)).astype(np.uint8)


def random_binary(rng, shape, p=0.3):
    return (rng.random(shape) < p).astype(np.uint8)


def uniform_posterior(c, shape):
    return np.full((c,) + shape, 1.0 / c)


def whole_array_entropy(p):
    """The former kernel: one float64 copy and one terms buffer of the whole stack."""
    arr = np.asarray(p, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.log2(arr)
        np.multiply(terms, arr, out=terms)
    np.negative(terms, out=terms)
    np.copyto(terms, 0.0, where=~(arr > 0.0))
    return terms.sum(axis=0)


@st.composite
def _posteriors(draw):
    """(c, H, W) or (c, D, H, W) softmax posteriors, c = 2..8, in float32 or float64.

    A large logit scale drives classes to exact 0 and 1, and some pixels
    are made exactly one-hot.
    """
    c = draw(st.integers(2, 8))
    spatial = draw(st.lists(st.integers(1, 9), min_size=2, max_size=3))
    scale = draw(st.sampled_from([0.3, 3.0, 300.0]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = scale * rng.normal(size=(c, *spatial))
    p = np.exp(logits - logits.max(axis=0))
    p /= p.sum(axis=0)
    hot = rng.random(spatial) < 0.2
    p[:, hot] = 0.0
    p[rng.integers(0, c), hot] = 1.0
    return p.astype(dtype)


class TestPixelEntropy:
    def test_uniform_pixel_hits_log2_c(self):
        for c in (2, 3, 4):
            h = pixel_entropy(uniform_posterior(c, (2, 2)))
            np.testing.assert_allclose(h, np.log2(c), atol=1e-12)

    def test_one_hot_is_zero(self):
        p = np.zeros((4, 3, 3))
        p[2] = 1.0
        np.testing.assert_array_equal(pixel_entropy(p), np.zeros((3, 3)))

    def test_half_half_is_one_bit(self):
        p = np.zeros((4, 1, 1))
        p[0] = p[1] = 0.5
        assert pixel_entropy(p)[0, 0] == 1.0

    def test_bounds(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(5, 16, 16))
        p = np.exp(logits) / np.exp(logits).sum(axis=0)
        h = pixel_entropy(p)
        assert h.min() >= 0.0
        assert h.max() <= np.log2(5) + 1e-12

    def test_invariant_under_class_relabeling(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(4, 8, 8))
        p = np.exp(logits) / np.exp(logits).sum(axis=0)
        perm = rng.permutation(4)
        np.testing.assert_allclose(pixel_entropy(p), pixel_entropy(p[perm]), atol=1e-12)


    def test_matches_direct_formula_bit_for_bit(self):
        rng = np.random.default_rng(6)
        for scale in (0.3, 3.0, 300.0):  # 300 drives some classes to exact 0 and 1
            logits = scale * rng.normal(size=(4, 6, 7, 5))
            p = np.exp(logits - logits.max(axis=0))
            p /= p.sum(axis=0)
            with np.errstate(divide="ignore", invalid="ignore"):
                direct = np.where(p > 0.0, -p * np.log2(p), 0.0).sum(axis=0)
            assert pixel_entropy(p).tobytes() == direct.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(p=_posteriors())
    def test_per_plane_equals_whole_array_kernel_bit_for_bit(self, p):
        expected = whole_array_entropy(p)
        if p.shape[0] >= 8 and p[0].size == 1:
            # numpy sums a lone pixel's c >= 8 terms pairwise, not in class
            # order (see test_class_order_for_every_shape_and_layout)
            eps = np.finfo(np.float64).eps
            np.testing.assert_allclose(pixel_entropy(p), expected, rtol=p.shape[0] * eps)
        else:
            assert pixel_entropy(p).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("c", [3, 8, 12, 17])
    def test_class_order_for_every_shape_and_layout(self, c):
        rng = np.random.default_rng(c)
        logits = rng.normal(size=(c, 5, 6))
        p = np.exp(logits) / np.exp(logits).sum(axis=0)
        h = pixel_entropy(p)
        # the same posterior stored class-last, and each pixel on its own
        class_last = np.ascontiguousarray(p.transpose(1, 2, 0)).transpose(2, 0, 1)
        assert pixel_entropy(class_last).tobytes() == h.tobytes()
        for y, x in np.ndindex(h.shape):
            assert pixel_entropy(p[:, y : y + 1, x : x + 1])[0, 0] == h[y, x]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_peak_memory_does_not_grow_with_classes(self, dtype):
        spatial = (4, 64, 64)
        plane = 8 * int(np.prod(spatial))  # one float64 plane
        # the map, the term buffer and two bool planes of the > 0 test, plus
        # numpy's cast buffers (8,192 float64 each) and interpreter objects
        bound = 2 * plane + 2 * plane // 8 + 128 * 1024
        peaks = []
        for c in (2, 8):
            p = uniform_posterior(c, spatial).astype(dtype)
            tracemalloc.start()
            try:
                pixel_entropy(p)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < bound, peaks
        assert peaks[1] - peaks[0] < plane // 8, peaks


class TestThreshold:
    """The 0.5 cut that turns a class plane into the mask uncertainty_score rings."""

    def test_above_threshold(self):
        p = np.zeros((2, 8, 8))
        p[1, 2:5, 2:5] = 0.6
        p[0] = 1.0 - p[1]
        s = uncertainty_score(p, 1)
        assert not s.empty_contour
        assert s.contour_pixels == 5 * 5 - 3 * 3

    def test_exactly_at_threshold_is_background(self):
        p = np.zeros((2, 6, 6))
        p[1, 2:4, 2:4] = 0.5
        p[0] = 1.0 - p[1]
        s = uncertainty_score(p, 1)
        assert s.empty_contour
        assert s.score == 0.0
        assert s.contour_pixels == 0

    def test_matches_per_pixel_comparison(self):
        rng = np.random.default_rng(8)
        p1 = rng.choice([0.2, 0.5, np.nextafter(0.5, 1.0), 0.9], size=(12, 12))
        p = np.stack([1.0 - p1, p1])
        mask = np.zeros(p1.shape, dtype=np.uint8)
        for pos in np.ndindex(p1.shape):
            mask[pos] = 1 if p1[pos] > 0.5 else 0
        ring = contour_oracle(mask, np.ones((3, 3), dtype=np.uint8)).astype(bool)
        s = uncertainty_score(p, 1, restrict_to_contour=True)
        assert s.contour_pixels == int(ring.sum())
        assert s.h_total == float(pixel_entropy(p)[ring].sum())


class TestDilate:
    def test_single_pixel_becomes_block(self):
        img = np.zeros((5, 5), dtype=np.uint8)
        img[2, 2] = 1
        out = dilate(img)
        expected = np.zeros((5, 5), dtype=np.uint8)
        expected[1:4, 1:4] = 1
        np.testing.assert_array_equal(out, expected)

    def test_empty_image_stays_empty(self):
        np.testing.assert_array_equal(dilate(np.zeros((4, 4), dtype=np.uint8)), 0)

    def test_matches_oracle_on_random_images(self):
        rng = np.random.default_rng(10)
        elem = StructuringElement.full(2)
        for _ in range(25):
            img = random_binary(rng, (16, 16))
            np.testing.assert_array_equal(dilate(img, elem), dilate_oracle(img, elem.mask))

    def test_matches_oracle_on_volumes(self):
        rng = np.random.default_rng(12)
        elem = StructuringElement.full(3)
        for _ in range(5):
            img = random_binary(rng, (8, 8, 8), p=0.15)
            np.testing.assert_array_equal(dilate(img, elem), dilate_oracle(img, elem.mask))

    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "shape, elem_ndim",
        [((9, 11), 2), ((1, 3), 2), ((5, 6, 7), 3), ((2, 1, 4), 3), ((3, 7, 6), 2)],
    )
    def test_box_radii_match_oracle(self, radius, shape, elem_ndim):
        rng = np.random.default_rng(100 * radius + len(shape))
        elem = StructuringElement.full(elem_ndim, radius)
        for _ in range(3):
            img = random_binary(rng, shape, p=0.2)
            if len(shape) == elem_ndim:
                expected = dilate_oracle(img, elem.mask)
            else:  # a 2D element on a volume: slice by slice
                expected = np.stack([dilate_oracle(sl, elem.mask) for sl in img])
            np.testing.assert_array_equal(dilate(img, elem), expected)

    def test_extensive_and_monotone(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            a = random_binary(rng, (16, 16))
            b = (a | random_binary(rng, (16, 16))).astype(np.uint8)
            da, db = dilate(a), dilate(b)
            assert np.all(da >= a)
            assert np.all(db >= da)

    def test_translation_equivariant_away_from_borders(self):
        rng = np.random.default_rng(15)
        img = np.zeros((16, 16), dtype=np.uint8)
        img[4:8, 5:9] = random_binary(rng, (4, 4))
        shifted = np.roll(img, (2, 3), axis=(0, 1))
        np.testing.assert_array_equal(
            np.roll(dilate(img), (2, 3), axis=(0, 1)), dilate(shifted)
        )

    def test_2d_element_applies_per_slice(self):
        rng = np.random.default_rng(16)
        vol = random_binary(rng, (4, 8, 8))
        out = dilate(vol)  # default element is 2D
        for k in range(4):
            np.testing.assert_array_equal(out[k], dilate(vol[k]))


class TestContourNormalizer:
    def test_single_pixel_ring(self):
        img = np.zeros((5, 5), dtype=np.uint8)
        img[2, 2] = 1
        ring = contour_normalizer(img)
        assert ring.sum() == 8
        assert ring[2, 2] == 0

    def test_solid_image_has_empty_ring(self):
        np.testing.assert_array_equal(
            contour_normalizer(np.ones((6, 6), dtype=np.uint8)), 0
        )

    def test_empty_input_empty_output(self):
        np.testing.assert_array_equal(
            contour_normalizer(np.zeros((6, 6), dtype=np.uint8)), 0
        )

    def test_matches_oracle(self):
        rng = np.random.default_rng(18)
        elem = StructuringElement.full(2)
        for _ in range(20):
            img = random_binary(rng, (16, 16))
            np.testing.assert_array_equal(
                contour_normalizer(img, elem), contour_oracle(img, elem.mask)
            )

    @settings(max_examples=150, deadline=None)
    @given(
        spatial=st.lists(st.integers(1, 10), min_size=2, max_size=3),
        elem_ndim=st.sampled_from([2, 3]),
        radius=st.integers(0, 3),
        density=st.sampled_from([0.05, 0.3, 0.7]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_disjoint_from_input_and_inside_dilation(
        self, spatial, elem_ndim, radius, density, seed
    ):
        elem_ndim = min(elem_ndim, len(spatial))
        img = np.random.default_rng(seed).random(spatial) < density
        elem = StructuringElement.full(elem_ndim, radius)
        ring = contour_normalizer(img, elem)
        grown = dilate(img, elem)
        assert ring.dtype == np.bool_ and ring.shape == img.shape
        assert not np.any(ring & img)
        assert not np.any(ring & ~grown)
        # the ring is exactly what the dilation added
        assert np.array_equal(ring | img, grown)


class TestTotalEntropy:
    """The entropy total ``h_total`` of a score, over the image or the contour ring."""

    def test_uniform_four_class_slice(self):
        s = uncertainty_score(uniform_posterior(4, (2, 2)), 1)
        assert s.h_total == pytest.approx(8.0, abs=1e-12)

    def test_one_hot_slice(self):
        p = np.zeros((3, 4, 4))
        p[0] = 1.0
        assert uncertainty_score(p, 1).h_total == 0.0

    def test_masked_sum_matches_loop(self):
        rng = np.random.default_rng(20)
        foreground = random_binary(rng, (9, 9)).astype(bool)
        p = np.empty((3, 9, 9))
        p[1] = np.where(foreground, 0.7, 0.2)
        p[2] = rng.random((9, 9)) * (1.0 - p[1])
        p[0] = 1.0 - p[1] - p[2]
        h = pixel_entropy(p)
        ring = contour_normalizer(foreground)
        assert ring.any()
        expected = sum(h[pos] for pos in np.ndindex(h.shape) if ring[pos])
        s = uncertainty_score(p, 1, restrict_to_contour=True)
        assert s.h_total == pytest.approx(expected, abs=1e-12)

    def test_image_total_adds_its_block_sums_as_uqseg_score_does(self, tmp_path, monkeypatch):
        """On a posterior of 858 pixel blocks, ``h_total`` is the block sums added left to
        right, bit for bit the total ``uqseg score`` hands ``class_scores``; the built-in
        ``sum`` compensates from Python 3.12 on, and these sums round apart."""
        e = np.random.default_rng(35).random((4, 3, 40, 50))
        p = (e / e.sum(axis=0)).astype(np.float32)
        write_array(tmp_path / "p.uqsg", p)
        monkeypatch.setattr(uqseg.arrays, "BLOCK_PIXELS", 7)
        flat = p.reshape(4, -1)
        sums = [float(pixel_entropy(flat[:, sl]).sum()) for sl in pixel_blocks(flat.shape[1])]
        assert len(sums) == 858
        in_order = 0.0
        for value in sums:
            in_order += value
        assert in_order != math.fsum(sums)  # the data tells the two sums apart
        totals, scores = [], uqseg.cli.class_scores
        monkeypatch.setattr(uqseg.cli, "class_scores",
                            lambda shape, classes, h, *args: totals.append(h) or scores(
                                shape, classes, h, *args))
        assert main(["score", "--in", str(tmp_path / "p.uqsg"), "--classes", "2",
                     "--out", str(tmp_path / "s.csv")]) == 0
        assert totals == [in_order]
        assert uncertainty_score(p, 2).h_total == in_order


    @pytest.mark.parametrize("contour", [False, True])
    def test_each_region_takes_only_the_entropy_it_sums(self, contour, monkeypatch):
        """The image total takes each block's entropy once; the contour total only its ring
        pixels', in ``class_scores``, and no image total. Either is, bit for bit, its
        region's block sums added in block order."""
        e = np.random.default_rng(36).random((3, 2, 20, 30))
        p = e / e.sum(axis=0)
        monkeypatch.setattr(uqseg.arrays, "BLOCK_PIXELS", 150)
        blocks = pixel_blocks(p[0].size)
        assert len(blocks) == 8
        h = pixel_entropy(p.reshape(3, -1))
        ring = np.stack([contour_normalizer(s) for s in p[1] > 0.5]).reshape(-1)  # per slice
        assert ring.any()
        region = ring if contour else np.ones_like(ring)
        expected = 0.0
        for sl in blocks:
            expected += float(h[sl][region[sl]].sum())
        sizes = []
        monkeypatch.setattr(uqseg.uncertainty, "pixel_entropy",
                            lambda rows: sizes.append(rows.shape[1]) or pixel_entropy(rows))
        assert uncertainty_score(p, 1, restrict_to_contour=contour).h_total == expected
        assert sizes == [int(np.count_nonzero(region[sl])) for sl in blocks]


class TestUncertaintyScore:
    def _disk_posterior(self, side=16, radius=4):
        """2-class scene: certain disk, certain background, ambiguous rim."""
        yy, xx = np.mgrid[0:side, 0:side]
        dist = np.sqrt((yy - side / 2) ** 2 + (xx - side / 2) ** 2)
        p1 = np.where(dist <= radius, 1.0, 0.0)
        p1[np.abs(dist - radius) < 0.5] = 0.5
        return np.stack([1.0 - p1, p1])

    def test_one_hot_blob_scores_zero(self):
        p = np.zeros((2, 8, 8))
        p[1, 2:5, 2:5] = 1.0
        p[0] = 1.0 - p[1]
        s = uncertainty_score(p, 1)
        assert s.h_total == 0.0
        assert s.score == 0.0
        assert not s.empty_contour
        assert s.contour_pixels > 0

    def test_disk_with_uncertain_rim_matches_hand_oracle(self):
        p = self._disk_posterior()
        s = uncertainty_score(p, 1)
        # oracle: recompute every stage with loops over pixels
        h = pixel_entropy(p)
        mask = (p[1] > 0.5).astype(np.uint8)
        ring = contour_oracle(mask, np.ones((3, 3), dtype=np.uint8))
        expected_h = float(h.sum())
        expected_ring = int(ring.sum())
        assert s.contour_pixels == expected_ring
        assert s.h_total == pytest.approx(expected_h, abs=1e-12)
        assert s.score == pytest.approx(expected_h / expected_ring, abs=1e-12)
        assert s.h_total > 0

    def test_no_foreground_sets_empty_flag(self):
        p = np.zeros((2, 6, 6))
        p[0] = 1.0
        s = uncertainty_score(p, 1)
        assert s.empty_contour
        assert s.score == 0.0
        assert s.contour_pixels == 0

    def test_background_rejected(self):
        with pytest.raises(ValidationError, match="background"):
            uncertainty_score(self._disk_posterior(), 0)

    def test_contour_restricted_entropy_mode(self):
        p = self._disk_posterior()
        whole = uncertainty_score(p, 1)
        banded = uncertainty_score(p, 1, restrict_to_contour=True)
        assert banded.h_total <= whole.h_total
        assert banded.contour_pixels == whole.contour_pixels

    def test_invariant_under_background_padding(self):
        p = self._disk_posterior()
        s = uncertainty_score(p, 1)
        padded = np.zeros((2, 24, 24))
        padded[0] = 1.0
        padded[:, 4:20, 4:20] = p
        sp = uncertainty_score(padded, 1)
        assert sp.contour_pixels == s.contour_pixels
        assert sp.h_total == pytest.approx(s.h_total, abs=1e-9)
        assert sp.score == pytest.approx(s.score, abs=1e-9)

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_slice_duplication_leaves_score_unchanged(self, k):
        p = self._disk_posterior()
        s2d = uncertainty_score(p, 1)
        vol = np.repeat(p[:, None, :, :], k, axis=1)
        s3d = uncertainty_score(vol, 1)
        assert s3d.contour_pixels == k * s2d.contour_pixels
        assert s3d.h_total == pytest.approx(k * s2d.h_total, rel=1e-12)
        assert s3d.score == pytest.approx(s2d.score, abs=1e-9)


def _slices_mask():
    """Three slices that differ: foreground on the last row of slice 0 and the first row of
    slice 2, whose dilation must not reach across into slice 1."""
    mask = np.zeros((3, 4, 5), dtype=bool)
    mask[0, -1] = mask[2, 0] = True
    mask[1, 1:3, 2] = True
    return mask


def _edges_mask():
    """Foreground on every edge of the image, and a block in its middle."""
    mask = np.zeros((6, 7), dtype=bool)
    mask[0, 2] = mask[-1, 4] = mask[3, 0] = mask[2, -1] = True
    mask[2:4, 2:5] = True
    return mask


class TestHaloRing:
    """``class_scores`` rings each pixel block from its image rows and one row either side;
    its ring pixels, in order, are those of ``contour_normalizer`` on the whole mask."""

    @staticmethod
    def ring_pixels(mask, block, monkeypatch):
        """The ring pixels the block pass finds, read off the rows it hands ``pixel_entropy``:
        each pixel's class-1 probability names it."""
        n = mask.size
        index = np.arange(n)
        p1 = np.where(mask.reshape(-1), 0.75 + 0.2 * index / n, 0.25 - 0.2 * index / n)
        flat = np.stack([1.0 - p1, p1])
        seen, entropy = [], uqseg.uncertainty.pixel_entropy
        monkeypatch.setattr(uqseg.uncertainty, "pixel_entropy",
                            lambda rows: seen.append(rows[1].copy()) or entropy(rows))
        monkeypatch.setattr(uqseg.arrays, "BLOCK_PIXELS", block)
        (score,) = class_scores(mask.shape, [1], 0.0, lambda sl: flat[:, sl], True)
        monkeypatch.setattr(uqseg.uncertainty, "pixel_entropy", entropy)
        names = {value: i for i, value in enumerate(p1)}
        pixels = [names[value] for value in np.concatenate(seen)]
        assert score.contour_pixels == len(pixels)
        return pixels

    @pytest.mark.parametrize("mask", [
        np.zeros((4, 5), dtype=bool),
        np.ones((4, 5), dtype=bool),
        _edges_mask(),
        np.random.default_rng(30).random((7, 1)) < 0.5,  # W = 1
        np.random.default_rng(31).random((1, 9)) < 0.5,  # H = 1
        _slices_mask(),
        np.random.default_rng(32).random((3, 1, 6)) < 0.5,
        np.random.default_rng(33).random((3, 5, 1)) < 0.5,
    ], ids=["empty", "full", "edges", "w1", "h1", "slices", "3d_h1", "3d_w1"])
    def test_ring_is_the_whole_mask_ring_at_every_block_size(self, mask, monkeypatch):
        width, plane, n = mask.shape[-1], mask.shape[-1] * mask.shape[-2], mask.size
        expected = list(np.flatnonzero(contour_normalizer(mask)))
        # blocks shorter than a row, of a row and a row and one, of a slice, of the image
        for block in sorted({1, 2, max(width - 1, 1), width, width + 1, plane, plane + 1, n,
                             n + 1}):
            assert self.ring_pixels(mask, block, monkeypatch) == expected, block
