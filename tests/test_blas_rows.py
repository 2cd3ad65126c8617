"""The BLAS row facts that every byte guarantee rests on.

Forward-only passes (evaluation's trunk, the frozen g1-g3 table of finetune
and adapt, and the crops the table does not cover) promise that an
utterance's rows do not depend on its batch. They get that by
construction: ``Model._forward_windows`` gives every product of a T-frame
window one height, whether the window runs alone or in a batch, and at a
fixed height a row's bits depend on neither the other rows nor where the
row sits. ``TestFixedHeight`` pins that fixed-height fact at the trunk
shapes, here and in a new process under every OpenBLAS kernel set the
host runs. Evaluation also runs each subnet and each norm once over a
stack of one-row items, which numpy computes item by item.

Training promises determinism: the same crops and parameters give the same
bytes. The other classes pin the row facts of the default kernel that make
default-shape checkpoints also equal running each crop whole: a product
row's bits do not depend on the other rows of a product of at least 8 rows,
and a stack's grads sum in crop order. A BLAS that breaks them fails here,
with the property named, rather than as a changed sha256 somewhere
downstream. These facts belong to the default kernel (SkylakeX on the
2-core Xeon the project is measured on); under Haswell's kernels a row
slice of 8 or more rows can differ from those rows of the full product.

Slices of fewer than 8 rows are left out on purpose: single-row slices
differ from the full product's rows at most shapes. A right operand passed
as a transposed view needs care: OpenBLAS 0.3.31 then takes a small-matrix
kernel for any product of about 1,200 entries or fewer, so slices of up to
9 rows of a [64 x 128] score matrix differ from its rows. ``score_trials``
relies on no slice of its product (it merges identical rows instead), so
its shapes are pinned here with a contiguous operand. The trunk's input
gradient ``dpre @ W.T`` is pinned with the transposed view it passes.
"""

import numpy as np
import pytest

from crossadapt import model as model_mod
from crossadapt.model import Model
from conftest import BLAS_KERNELS, default_like_config, run_under_kernel

# default model: 20 input dims, four 24-wide groups with context (2, 1, 1, 0)
# and 8 dictionary components; (spliced width, group width) per group
TRUNK_GEMMS = [(100, 24), (72, 24), (72, 24), (24, 24)]
FRAME_COUNTS = (60, 100, 200)  # training crops, recipe and eval-wide utterances
STACK_SIZES = (1, 2, 3, 8, 17, 64, 192)
COMPONENTS, WIDTH = 8, 24
CROP, HALO = 60, 4  # training crop frames; R = sum of the g1-g3 context widths
EVAL_STACKS = (2, 3, 4, 5)  # windows per forward-only stack at 100-200 frames
SUBNET_GEMMS = [(192, 64), (64, 64), (64, 32), (32, 32)]  # front.0 .. back.1
EMBEDDING_DIMS = (COMPONENTS * WIDTH, 32)  # pooled, adapted
WINDOW_FRAMES = (7, 60, 100, 200)  # forward-only windows: short crops, training crops, utterances


def stack_height(t):
    """Rows of every product of a forward-only stack of t-frame windows:
    ``_STACK_ROWS // t`` windows, at least one, rounded up to 16 rows."""
    return -(-max(1, model_mod._STACK_ROWS // t) * t // 16) * 16


def assert_fixed_height(k, n, t):
    """At the height of a stack of t-frame windows, a row of [height x k]
    @ [k x n] keeps its bits when the other rows change and when it moves,
    and a window's rows in any slot of a stack are those it gets alone,
    first in a stack of zero rows."""
    height = stack_height(t)
    rng = np.random.default_rng(k * 1000 + n * 10 + t)
    x, w = rng.normal(size=(height, k)), rng.normal(size=(k, n))
    full = x @ w
    where = f"[{height}x{k}] @ [{k}x{n}], the height of {t}-frame windows"
    other = rng.normal(size=x.shape)
    keep = rng.random(height) < 0.5
    other[keep] = x[keep]
    assert (other @ w)[keep].tobytes() == full[keep].tobytes(), (
        f"fixed-height fact 'a row's bits do not depend on the other rows' fails: {where}")
    moved = rng.permutation(height)
    assert (x[moved] @ w).tobytes() == full[moved].tobytes(), (
        f"fixed-height fact 'a row keeps its bits wherever it sits' fails: {where}")
    alone = np.zeros_like(x)
    alone[:t] = x[:t]
    want = (alone @ w)[:t].tobytes()
    for slot in range(height // t):
        stack = x.copy()
        stack[slot * t : (slot + 1) * t] = x[:t]
        assert (stack @ w)[slot * t : (slot + 1) * t].tobytes() == want, (
            f"fixed-height fact 'a window's rows in slot {slot} are its rows alone' fails: {where}")


def assert_fixed_height_everywhere():
    for k, n in TRUNK_GEMMS:
        for t in WINDOW_FRAMES:
            assert_fixed_height(k, n, t)


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


class TestStackedTrunkProducts:
    """The trainable trunk of ``Model.encode``: every crop of a batch goes
    through a group as one stack [N, L, D].  At the default shapes the
    stack's rows and grads equal running each crop alone and adding up each
    crop's own grads, crop by crop."""

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


class TestFixedHeight:
    """Every product a forward-only T-frame window takes part in has
    ``stack_height(T)`` rows, alone or in a batch."""

    @pytest.mark.parametrize("t", WINDOW_FRAMES)
    @pytest.mark.parametrize("k,n", TRUNK_GEMMS)
    def test_a_row_keeps_its_bits_at_the_stack_height(self, k, n, t):
        assert_fixed_height(k, n, t)

    def test_the_fact_holds_under_every_kernel_the_host_runs(self):
        ran, skipped = [], []
        for kernel in BLAS_KERNELS:
            out = run_under_kernel(kernel, "import test_blas_rows\ntest_blas_rows.assert_fixed_height_everywhere()\n")
            (skipped if out is None else ran).append(kernel)
        print(f"fixed-height fact held under {ran}; the host runs none of {skipped}")
        if not ran:
            pytest.skip(f"the host runs none of {skipped}")


class TestForwardOnlyStacks:
    """Forward-only passes: evaluation's trunk and the frozen g1-g3 run
    equal-length windows in stacks of ``model._STACK_ROWS // T`` windows
    padded to one height (``Model._forward_windows``), and evaluation runs
    each subnet once over a stack of one-row items [N, 1, E] and takes each
    norm from one [N, 1, E] @ [N, E, 1] product."""

    @pytest.mark.parametrize("t", FRAME_COUNTS)
    @pytest.mark.parametrize("k,n", TRUNK_GEMMS)
    def test_stack_rows_equal_each_window_product(self, t, k, n):
        rng = np.random.default_rng(k * 1000 + t + 4)
        w = rng.normal(size=(k, n))
        for windows in EVAL_STACKS:
            x = rng.normal(size=(windows, t, k))
            stacked = x.reshape(-1, k) @ w
            for i in range(windows):
                assert (x[i] @ w).tobytes() == stacked[i * t : (i + 1) * t].tobytes(), (
                    f"BLAS row fact 'a [{windows}*{t}, {k}] stack product equals each window's "
                    f"own product' fails: window {i}, [{k}x{n}] weights"
                )

    @pytest.mark.parametrize("t,stacks,height", [
        (60, [(8, 60, 20), (8, 60, 20), (4, 60, 20)], 480),  # 512 // 60 windows a stack
        (7, [(20, 7, 20)], 512),  # 73 windows of 7 frames a stack: 511 rows, rounded up
    ])
    def test_stacks_are_padded_to_one_height_per_length(self, monkeypatch, t, stacks, height):
        """Every product has the height of a full stack, the last stack's
        and a window's alone too."""
        model = Model.create(default_like_config(), seed=0)
        windows = list(np.random.default_rng(t).normal(size=(20, t, 20)))
        seen, heights = [], []
        groups, affine = Model._groups_forward, model_mod.affine_forward

        def spy(self, h, first, last, mode, height=0):
            seen.append(np.shape(h))
            return groups(self, h, first, last, mode, height)

        def gemm(x, w, b):
            heights.append(len(x))
            return affine(x, w, b)

        monkeypatch.setattr(Model, "_groups_forward", spy)
        monkeypatch.setattr(model_mod, "affine_forward", gemm)
        out = list(model._forward_windows(windows, 1, 4))
        assert seen == stacks and heights == [height] * (4 * len(stacks))
        for x, got in zip(windows, out):
            assert got.tobytes() == next(model._forward_windows([x], 1, 4)).tobytes()

    @pytest.mark.parametrize("k,n", SUBNET_GEMMS)
    def test_one_row_items_equal_the_one_row_product(self, k, n):
        rng = np.random.default_rng(k * 1000 + n)
        w = rng.normal(size=(k, n))
        for items in (1, 2, 7, 64, 192):
            x = rng.normal(size=(items, 1, k))
            stacked = x @ w
            for i in range(items):
                assert stacked[i].tobytes() == (x[i] @ w).tobytes(), (
                    f"numpy fact 'each item of [{items}, 1, {k}] @ [{k}x{n}] equals the one-row "
                    f"product [1, {k}] @ W' fails: item {i}"
                )

    @pytest.mark.parametrize("dim", EMBEDDING_DIMS)
    def test_stacked_row_dots_equal_each_row_norm(self, dim):
        rng = np.random.default_rng(dim)
        # mixed magnitudes make the summation order visible in the last bits
        rows = rng.normal(size=(192, dim)) * 10.0 ** rng.integers(-8, 9, size=(192, dim))
        norms = np.sqrt((rows[:, None, :] @ rows[:, :, None]).reshape(-1))
        for i in range(len(rows)):
            assert norms[i].tobytes() == np.float64(np.linalg.norm(rows[i])).tobytes(), (
                f"numpy fact 'item {i} of [N, 1, {dim}] @ [N, {dim}, 1] is the dot product "
                f"np.linalg.norm takes of that row' fails"
            )
