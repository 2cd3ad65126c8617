"""The BLAS row facts that every byte guarantee rests on.

Evaluation embeds a whole domain in one trunk pass and scores it with one
gemm, and the reports stay byte-identical to embedding and scoring each
utterance alone. Finetune and adapt read a crop's g1-g3 rows from a
per-utterance table and a stacked pass over edge windows, and the
checkpoints stay byte-identical to running each crop whole. That holds
only while a product row's bits do not depend on the other rows in the
product. These tests pin that at the shapes the code uses, so a BLAS that
breaks it fails here, with the property named, rather than as a changed
sha256 somewhere downstream.

Slices of fewer than 8 rows are left out on purpose: single-row slices
differ from the full product's rows at most shapes, and the code never
relies on them. So does a right operand passed as a transposed view, as
``score_trials`` passes ``tests.T``: OpenBLAS 0.3.31 then takes a
small-matrix kernel for any product of about 1,200 entries or fewer, so
slices of up to 9 rows of a [64 x 128] score matrix differ from its rows.
``score_trials`` relies on no slice of its product (it merges identical
rows instead), so its shapes are pinned here with a contiguous operand.
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
