"""The BLAS row facts that every byte guarantee rests on.

Evaluation embeds a whole domain in one trunk pass and scores it with one
gemm, and the reports stay byte-identical to embedding and scoring each
utterance alone. Finetune and adapt read a crop's g1-g3 rows from a
per-utterance table and a stacked pass over edge windows, and every
training stage runs the trainable trunk over all crops of a batch as one
stack; the checkpoints stay byte-identical to running each crop whole.
That holds only while a product row's bits do not depend on the other rows
in the product, and while the stack's grads sum in crop order. These tests
pin that at the shapes the code uses, so a BLAS that breaks it fails here,
with the property named, rather than as a changed sha256 somewhere
downstream.

Slices of fewer than 8 rows are left out on purpose: single-row slices
differ from the full product's rows at most shapes, and the code never
relies on them. A right operand passed as a transposed view needs care:
OpenBLAS 0.3.31 then takes a small-matrix kernel for any product of about
1,200 entries or fewer, so slices of up to 9 rows of a [64 x 128] score
matrix differ from its rows. ``score_trials`` relies on no slice of its
product (it merges identical rows instead), so its shapes are pinned here
with a contiguous operand; the trunk's input gradient ``dpre @ W.T`` is
pinned with the transposed view it passes, and ``model._gemm_rows_exact``
probes it per shape.
"""

import numpy as np
import pytest

from crossadapt.model import _gemm_rows_exact

# default model: 20 input dims, four 24-wide groups with context (2, 1, 1, 0)
# and 8 dictionary components; (spliced width, group width) per group
TRUNK_GEMMS = [(100, 24), (72, 24), (72, 24), (24, 24)]
FRAME_COUNTS = (60, 100, 200)  # training crops, recipe and eval-wide utterances
STACK_SIZES = (1, 2, 3, 8, 17, 64, 192)
COMPONENTS, WIDTH = 8, 24
CROP, HALO = 60, 4  # training crop frames; R = sum of the g1-g3 context widths


def slices(rows):
    """Row ranges of at least 8 rows, at a spread of offsets and lengths."""
    lengths = {n for n in (8, 9, 15, 16, 17, 31, 32, 33, 60, rows - 1, rows) if 8 <= n <= rows}
    for n in sorted(lengths):
        for start in sorted({0, 1, 5, 8, (rows - n) // 2, rows - n}):
            if 0 <= start <= rows - n:
                yield start, start + n


def assert_row_slices_match(x, w):
    full = x @ w
    for a, b in slices(x.shape[0]):
        assert (x[a:b] @ w).tobytes() == full[a:b].tobytes(), (
            f"BLAS row fact 'a gemm row slice of >= 8 rows equals those rows of the full "
            f"product' fails: rows {a}:{b} of [{x.shape[0]}x{x.shape[1]}] @ [{w.shape[0]}x{w.shape[1]}]"
        )


class TestStackedProductPerUtterance:
    """``lde_pool`` multiplies stacked utterances [N, T, D] at once."""

    @pytest.mark.parametrize("t", FRAME_COUNTS)
    def test_stacked_times_matrix_equals_each_utterance_product(self, t):
        rng = np.random.default_rng(t)
        dictionary_t = rng.normal(size=(WIDTH, COMPONENTS))
        for n in STACK_SIZES:
            frames = np.maximum(rng.normal(size=(n, t, WIDTH)), 0.0)
            stacked = frames @ dictionary_t
            for i in range(n):
                assert stacked[i].tobytes() == (frames[i] @ dictionary_t).tobytes(), (
                    f"BLAS row fact 'a stacked [N, T, D] @ [D, K] product equals each "
                    f"utterance's own 2-D product' fails: N={n}, T={t}, utterance {i}"
                )

    @pytest.mark.parametrize("t", FRAME_COUNTS)
    def test_stacked_batched_product_equals_each_utterance_product(self, t):
        rng = np.random.default_rng(1000 + t)
        for n in STACK_SIZES:
            weights = rng.random(size=(n, COMPONENTS, t))
            frames = np.maximum(rng.normal(size=(n, t, WIDTH)), 0.0)
            stacked = weights @ frames
            for i in range(n):
                assert stacked[i].tobytes() == (weights[i] @ frames[i]).tobytes(), (
                    f"BLAS row fact 'a stacked [N, K, T] @ [N, T, D] product equals each "
                    f"utterance's own 2-D product' fails: N={n}, T={t}, utterance {i}"
                )


class TestRowSlices:
    @pytest.mark.parametrize("t", FRAME_COUNTS)
    @pytest.mark.parametrize("k,n", TRUNK_GEMMS)
    def test_trunk_group_gemm(self, t, k, n):
        rng = np.random.default_rng(k * 1000 + t)
        assert_row_slices_match(rng.normal(size=(t, k)), rng.normal(size=(k, n)))

    @pytest.mark.parametrize("speakers", (20, 64, 120))
    @pytest.mark.parametrize("dim", (COMPONENTS * WIDTH, 32))  # pooled, adapted
    def test_score_trials_gemm(self, speakers, dim):
        """Speaker models [S, E] against test embeddings [E, 2S] (two test
        utterances per speaker), for the pooled and the subnet embedding."""
        rng = np.random.default_rng(speakers * 1000 + dim)
        models = rng.normal(size=(speakers, dim))
        assert_row_slices_match(models, rng.normal(size=(dim, 2 * speakers)))


class TestFrozenPrefixProducts:
    """The frozen-prefix cache of ``model.FrozenPrefix``: a crop's middle g1-g3
    rows come from a product over its whole utterance, its edge rows from
    one product over the 2R-row windows at both ends of every crop."""

    @pytest.mark.parametrize("t", (100, 200))
    @pytest.mark.parametrize("k,n", TRUNK_GEMMS[:3])
    def test_crop_rows_of_the_utterance_product(self, t, k, n):
        rng = np.random.default_rng(k * 10 + t)
        x, w = rng.normal(size=(t, k)), rng.normal(size=(k, n))
        table = x @ w
        for s in sorted({0, 1, 3, 7, 8, 13, (t - CROP) // 2, t - CROP - 1, t - CROP}):
            assert (x[s : s + CROP] @ w).tobytes() == table[s : s + CROP].tobytes(), (
                f"BLAS row fact 'a {CROP}-row crop product equals those rows of the "
                f"{t}-row utterance product' fails: offset {s}, [{k}x{n}] weights"
            )

    @pytest.mark.parametrize("crops", (16, 24, 32, 104))
    @pytest.mark.parametrize("k,n", TRUNK_GEMMS[:3])
    def test_edge_rows_of_the_stacked_window_product(self, crops, k, n):
        rng = np.random.default_rng(k * 1000 + crops)
        x, w = rng.normal(size=(crops, CROP, k)), rng.normal(size=(k, n))
        windows = np.concatenate([x[:, : 2 * HALO], x[:, -2 * HALO :]], axis=1)
        edges = (windows.reshape(-1, k) @ w).reshape(crops, 4 * HALO, n)
        for i in range(crops):
            own = x[i] @ w
            assert edges[i].tobytes() == np.vstack([own[: 2 * HALO], own[-2 * HALO :]]).tobytes(), (
                f"BLAS row fact 'a stacked [2N*2R, K] edge-window product equals those rows "
                f"of each crop's own product' fails: N={crops}, crop {i}, [{k}x{n}] weights"
            )

    @pytest.mark.parametrize("k,n", TRUNK_GEMMS[:3])
    def test_shape_probe_admits_the_trunk_shapes(self, k, n):
        assert _gemm_rows_exact(k, n), (
            f"the frozen prefix's row-exactness probe refuses the [{k}x{n}] trunk gemm, "
            "so finetune and adapt would build no table"
        )


class TestStackedTrunkProducts:
    """The trainable trunk of ``Model.encode``: every crop of a batch goes
    through a group as one stack [N, L, D], and the grads of the stack must
    equal adding up each crop's own grads, crop by crop."""

    @pytest.mark.parametrize("crops", (2, 32, 104))
    @pytest.mark.parametrize("k,n", TRUNK_GEMMS)
    def test_stacked_rows_equal_each_crop_product(self, crops, k, n):
        rng = np.random.default_rng(k * 1000 + crops)
        x, w = rng.normal(size=(crops * CROP, k)), rng.normal(size=(k, n))
        stacked = x @ w
        for i in range(crops):
            rows = slice(i * CROP, (i + 1) * CROP)
            assert (x[rows] @ w).tobytes() == stacked[rows].tobytes(), (
                f"BLAS row fact 'the [N*L, k] @ W stack product equals each crop's own "
                f"product' fails: N={crops}, crop {i}, [{k}x{n}] weights"
            )

    @pytest.mark.parametrize("crops", (2, 32, 104))
    @pytest.mark.parametrize("k,n", TRUNK_GEMMS)
    def test_stacked_input_gradient_rows_equal_each_crop_product(self, crops, k, n):
        """``dpre @ W.T`` passes a transposed view, which OpenBLAS sends to
        other kernels than a contiguous operand."""
        rng = np.random.default_rng(k * 1000 + crops + 1)
        dpre, w = rng.normal(size=(crops * CROP, n)), rng.normal(size=(k, n))
        stacked = dpre @ w.T
        for i in range(crops):
            rows = slice(i * CROP, (i + 1) * CROP)
            assert (dpre[rows] @ w.T).tobytes() == stacked[rows].tobytes(), (
                f"BLAS row fact 'the [N*L, n] @ W.T stack product equals each crop's own "
                f"product' fails: N={crops}, crop {i}, [{k}x{n}] weights"
            )

    @pytest.mark.parametrize("crops", (1, 2, 32, 104))
    @pytest.mark.parametrize("k,n", TRUNK_GEMMS)
    def test_batched_weight_gradient_equals_each_crop_product(self, crops, k, n):
        rng = np.random.default_rng(k * 1000 + crops + 2)
        x, dpre = rng.normal(size=(crops, CROP, k)), rng.normal(size=(crops, CROP, n))
        batched = np.swapaxes(x, 1, 2) @ dpre
        for i in range(crops):
            assert batched[i].tobytes() == (x[i].T @ dpre[i]).tobytes(), (
                f"BLAS fact 'a batched x.T @ dpre equals each crop's own 2-D product' "
                f"fails: N={crops}, crop {i}, [{k}x{n}] weights"
            )

    @pytest.mark.parametrize("crops", (2, 3, 32, 104))
    @pytest.mark.parametrize("k,n", TRUNK_GEMMS)
    def test_window_sums_equal_adding_crop_by_crop(self, crops, k, n):
        """Weight grads [N, k, n] and bias grads [N, L, n] summed over the
        windows, against the per-crop grads added in turn from the first."""
        rng = np.random.default_rng(k * 1000 + crops + 3)
        # mixed magnitudes make the summation order visible in the last bits
        dw = rng.normal(size=(crops, k, n)) * 10.0 ** rng.integers(-8, 9, size=(crops, k, n))
        dpre = rng.normal(size=(crops, CROP, n)) * 10.0 ** rng.integers(-8, 9, size=(crops, CROP, n))
        dpre[rng.random(size=dpre.shape) < 0.5] = 0.0  # ReLU zeros
        for stacked, terms, what in ((dw.sum(axis=0), list(dw), "weight"),
                                     (dpre.sum(axis=1).sum(axis=0), [d.sum(axis=0) for d in dpre], "bias")):
            total = terms[0].copy()
            for term in terms[1:]:
                total += term
            assert stacked.tobytes() == total.tobytes(), (
                f"numpy fact 'a {what} grad summed over the window axis equals adding the "
                f"crops' grads in turn' fails: N={crops}, [{k}x{n}] weights"
            )

    @pytest.mark.parametrize("crops", (1, 2, 32))
    @pytest.mark.parametrize("context,d", ((2, 20), (1, 24)))
    def test_offset_bincount_equals_each_window_bincount(self, crops, context, d):
        """The splice backward of a stack: one bincount whose index puts each
        window at its own offset, against one bincount per window."""
        rng = np.random.default_rng(crops * 100 + context)
        idx = np.clip(np.arange(CROP)[:, None] + np.arange(-context, context + 1), 0, CROP - 1)
        one = (idx[:, :, None] * d + np.arange(d)).ravel()
        dy = rng.normal(size=(crops, one.size)) * 10.0 ** rng.integers(-8, 9, size=(crops, one.size))
        flat = (np.arange(crops)[:, None] * (CROP * d) + one).ravel()
        stacked = np.bincount(flat, weights=dy.ravel(), minlength=crops * CROP * d).reshape(crops, -1)
        for i in range(crops):
            assert stacked[i].tobytes() == np.bincount(one, weights=dy[i], minlength=CROP * d).tobytes(), (
                f"numpy fact 'an offset bincount over a stack equals each window's own "
                f"bincount' fails: N={crops}, window {i}, context {context}, width {d}"
            )

    @pytest.mark.parametrize("k,n", TRUNK_GEMMS)
    def test_shape_probe_admits_the_trunk_shapes_both_ways(self, k, n):
        assert _gemm_rows_exact(k, n) and _gemm_rows_exact(n, k, transposed=True), (
            f"the row-exactness probe refuses the [{k}x{n}] trunk gemm or its input "
            "gradient, so training would run the trunk crop by crop"
        )
