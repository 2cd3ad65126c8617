import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossadapt import fileio
from crossadapt import model as model_mod
from crossadapt.corpus import FEATURE_MAGIC, write_features
from crossadapt.errors import (
    BadMagicError,
    BadVersionError,
    ContractError,
    FileFormatError,
    FingerprintMismatchError,
    StructuralError,
    TruncatedFileError,
    UnknownDomainError,
)
from crossadapt.model import (
    FROZEN_GROUPS,
    ExtractorConfig,
    FrozenPrefix,
    LdeConfig,
    Model,
    ModelConfig,
    SubnetConfig,
    _context_index,
    _stack_index,
    lde_pool,
    lde_pool_backward,
    load_checkpoint,
    save_checkpoint,
    set_trainable,
    splice_backward,
    splice_forward,
    trainable_names,
)
from conftest import default_like_config, duplicate_tensor, jitter_params, micro_config, set_arch_entry
from gradcheck import grad_check


class TestExtractor:
    def test_zero_weights_give_zero_activations(self, micro_model, rng):
        for name in micro_model.params:
            if name.startswith("g"):
                micro_model.params[name][:] = 0.0
        out, _ = micro_model.extractor_forward(rng.normal(size=(7, 4)))
        assert np.all(out == 0.0)

    def test_identity_groups_context_zero_equal_relu(self, rng):
        cfg = micro_config(input_dim=4, width=4, context=(0, 0, 0, 0))
        model = Model.create(cfg, seed=0)
        for g in range(1, 5):
            model.params[f"g{g}.W"][:] = np.eye(4)
            model.params[f"g{g}.b"][:] = 0.0
        x = rng.normal(size=(6, 4))
        out, _ = model.extractor_forward(x)
        assert np.allclose(out, np.maximum(x, 0.0))

    def test_frame_count_preserved_with_context(self, micro_model, rng):
        x = rng.normal(size=(9, 4))
        out, _ = micro_model.extractor_forward(x)
        assert out.shape == (9, 4)

    def test_dim_mismatch_raises(self, micro_model, rng):
        with pytest.raises(StructuralError):
            micro_model.extractor_forward(rng.normal(size=(5, 7)))

    @pytest.mark.parametrize("odd", [0, 2])
    def test_a_malformed_window_in_a_forward_only_stack_names_its_fault(self, micro_model, rng, odd):
        """Windows of one length but mixed widths, the odd one first or
        later, end in the extractor's own error, not numpy's."""
        utts = [rng.normal(size=(6, 4)) for _ in range(3)]
        utts[odd] = rng.normal(size=(6, 7))
        with pytest.raises(StructuralError, match="g1 expects feature dim 4, got 7"):
            micro_model.encode(utts, "eval")

    def test_gradients_match_finite_differences(self, rng):
        cfg = micro_config(input_dim=4, width=4, context=(1, 0, 2, 0))
        model = Model.create(cfg, seed=5)
        x = rng.normal(size=(5, 4))
        probe = rng.normal(size=(5, 4))
        names = [n for n in model.params if n.startswith("g")]
        # jitter off the zero-bias init so no ReLU pre-activation sits on the
        # kink, where central differences disagree with any subgradient
        point = {n: model.params[n] + 0.1 * rng.normal(size=model.params[n].shape) for n in names}

        def f(pt):
            for n in names:
                model.params[n][...] = pt[n]
            out, cache = model.extractor_forward(x)
            grads = {}
            model.extractor_backward(probe.copy(), cache, grads)
            return float(np.sum(out * probe)), {n: grads[n] for n in names}

        err = grad_check(f, point)
        assert err < 1e-4

    def test_backward_down_to_group_limits_grads(self, micro_model, rng):
        """A forward from g4 (the stages that freeze g1-g3) caches, and
        backpropagates into, g4 alone."""
        out, cache = micro_model.extractor_forward(rng.normal(size=(5, 4)), first_group=4)
        grads = {}
        micro_model.extractor_backward(np.ones_like(out), cache, grads)
        assert len(cache) == 1 and set(grads) == {"g4.W", "g4.b"}


def reference_splice_forward(x, context):
    """The splice as first written: the context index rebuilt on every call."""
    t = x.shape[0]
    if context == 0:
        return x, (x.shape, None)
    idx = np.clip(np.arange(t)[:, None] + np.arange(-context, context + 1)[None, :], 0, t - 1)
    return x[idx].reshape(t, -1), (x.shape, idx)


def reference_splice_backward(dy, cache):
    """The splice gradient as first written: one unbuffered scatter-add."""
    shape, idx = cache
    if idx is None:
        return dy
    dx = np.zeros(shape)
    np.add.at(dx, idx, dy.reshape(idx.shape[0], idx.shape[1], shape[1]))
    return dx


class TestSplice:
    @given(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_kernels_match_reference_bit_for_bit(self, n, t, d, context, fill, seed):
        """One window [T, D] (n = 0) or a stack [n, T, D]: the product rows
        are each window's reference splice, then ``fill`` copies of the
        first row; the gradient is each window's ``np.add.at`` scatter."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(t, d) if n == 0 else (n, t, d))
        windows = x.reshape(-1, t, d)
        refs = [reference_splice_forward(w, context) for w in windows]
        want = np.concatenate([y for y, _ in refs])
        filled, _ = splice_forward(x, context, len(want) + fill)
        assert filled.shape == (len(want) + fill, want.shape[1])
        assert filled[: len(want)].tobytes() == want.tobytes()
        assert filled[len(want) :].tobytes() == np.repeat(want[:1], fill, axis=0).tobytes()
        y, cache = splice_forward(x, context)
        assert y.tobytes() == want.tobytes()
        # mixed magnitudes make the summation order visible in the last bits;
        # exact zeros and -0.0 probe the sign of each sum's 0.0 start
        dy = rng.normal(size=y.shape) * 10.0 ** rng.integers(-8, 9, size=y.shape)
        dy[rng.random(size=y.shape) < 0.2] = 0.0
        dy[rng.random(size=y.shape) < 0.2] = -0.0
        dx = splice_backward(dy, cache)
        assert dx.shape == x.shape
        per_window = [reference_splice_backward(g, c) for g, (_, c) in zip(dy.reshape(len(windows), t, -1), refs)]
        assert dx.tobytes() == np.stack(per_window).tobytes()

    @pytest.mark.parametrize("context", [0, 1, 2])
    @pytest.mark.parametrize("shape", [(7, 3), (1, 4), (5, 6, 3), (2, 1, 4)])
    def test_gather_equals_fancy_indexing(self, rng, shape, context):
        """The one gather, bit for bit against ``x[idx]`` per window, the
        windows' rows one after another."""
        x = rng.normal(size=shape)
        y, _ = splice_forward(x, context)
        t = shape[-2]
        idx = np.clip(np.arange(t)[:, None] + np.arange(-context, context + 1), 0, t - 1)
        want = np.concatenate([w[idx].reshape(t, -1) for w in x.reshape(-1, *shape[-2:])])
        assert y.shape == want.shape and y.tobytes() == want.tobytes()

    @pytest.mark.parametrize("context", [0, 1])
    def test_rows_past_the_stack_are_fill(self, rng, context):
        """Rows already at the product's height: a context-0 splice passes
        them through, a wider one splices only the stack's own rows."""
        rows = rng.normal(size=(16, 3))
        y, _ = splice_forward(rows, context, 16, (2, 5))
        want, _ = splice_forward(rows[:10].reshape(2, 5, 3), context, 16)
        if context:
            assert y.tobytes() == want.tobytes()
        else:
            assert y.shape == rows.shape and np.shares_memory(y, rows)

    def test_all_negative_zero_gradient_sums_to_positive_zero(self):
        _, cache = splice_forward(np.ones((3, 2)), 2)
        dx = splice_backward(np.full((3, 10), -0.0), cache)
        assert not np.signbit(dx).any()

    def test_shared_context_index_is_read_only(self):
        """Every splice with the same shape shares the cached indexes: the
        per-window ones of the gather and the scatter, and a stack's."""
        for idx in (_context_index(6, 1), _context_index(6, 1, 4), _stack_index(2, 6, 1, 16)):
            with pytest.raises(ValueError):
                idx[0] = 5

    def test_backward_keeps_nothing_per_window_count(self, rng):
        """A stack's scatter index is built per call from the per-window
        one, so the memory the backward keeps does not grow with the number
        of distinct window counts it has seen."""
        t, d, context = 20, 8, 1
        passes = []
        for n in range(1, 41):
            y, cache = splice_forward(rng.normal(size=(n, t, d)), context)
            passes.append((rng.normal(size=y.shape), cache))
        splice_backward(*passes[0])
        tracemalloc.start()
        try:
            for dy, cache in passes[:2]:
                splice_backward(dy, cache)
            few = tracemalloc.get_traced_memory()[0]
            for dy, cache in passes[2:]:
                splice_backward(dy, cache)
            many = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert many - few < 4096

    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=3))
    @settings(max_examples=25)
    def test_splice_shapes_and_gradient(self, t, context):
        rng = np.random.default_rng(t * 10 + context)
        x = rng.normal(size=(t, 3))
        y, cache = splice_forward(x, context)
        assert y.shape == (t, (2 * context + 1) * 3)
        # linear map: backward of ones recovers column occurrence counts
        dx = splice_backward(np.ones_like(y), cache)
        assert dx.shape == x.shape
        assert dx.sum() == pytest.approx(y.size)


def reference_lde_pool(frames, dictionary, log_scale):
    """LDE pooling as first written: [T,K,D] residuals, and every sum over
    frames taken over sorted summands for permutation invariance."""
    s = np.exp(log_scale)
    resid = frames[:, None, :] - dictionary[None, :, :]  # [T,K,D]
    sqdist = np.einsum("tkd,tkd->tk", resid, resid)
    logits = -s[None, :] * sqdist
    logits = logits - logits.max(axis=1, keepdims=True)
    w = np.exp(logits)
    w /= w.sum(axis=1, keepdims=True)
    mass = np.maximum(np.sort(w, axis=0).sum(axis=0), np.finfo(np.float64).tiny)
    agg = np.sort(w[:, :, None] * resid, axis=0).sum(axis=0) / mass[:, None]
    u = w / mass[None, :]
    return agg.reshape(-1), (resid, sqdist, w, u, agg, s)


def reference_lde_pool_backward(dout, cache):
    """The gradients as first written, through the [T,K,D] residuals."""
    resid, sqdist, w, u, agg, s = cache
    de = dout.reshape(agg.shape)
    gw = np.einsum("kd,tkd->tk", de, resid) - np.einsum("kd,kd->k", de, agg)[None, :]
    gl = u * gw - w * (u * gw).sum(axis=1, keepdims=True)
    dlog_scale = -s * np.einsum("tk,tk->k", gl, sqdist)
    dresid = u[:, :, None] * de[None, :, :] - 2.0 * (s[None, :] * gl)[:, :, None] * resid
    return dresid.sum(axis=1), -dresid.sum(axis=0), dlog_scale


def lde_oracle_tol(frames, dictionary, log_scale):
    """Error allowed against the reference, relative to its largest value.

    The expanded distance differs from the residual form by rounding of
    order eps * s_k * (|f|^2 + |d|^2), and every output and gradient
    inherits it through the softmax.  Over 6000 random cases the largest
    error was 33 times that unit (the log_scale gradient of starved
    components); 1024 units leave room without hiding a wrong term.
    """
    sq = np.sum(frames * frames, axis=1).max() + np.sum(dictionary * dictionary, axis=1).max()
    return 1024 * np.finfo(np.float64).eps * max(1.0, float(np.exp(log_scale).max() * sq))


def plain_lde_pool(frames, dictionary, log_scale):
    """The matrix form as it ran before the running row max: numpy's max
    over the component axis and a fresh array for every step."""
    rows = np.ascontiguousarray(frames, dtype=np.float64)
    t, d = rows.shape[-2:]
    order = np.argsort(rows.view(np.dtype((np.void, rows.itemsize * d)))[..., 0], axis=-1, kind="stable")
    order = (order + t * np.arange(order.size // t).reshape(*order.shape[:-1], 1)).reshape(-1)
    f = np.take(rows.reshape(-1, d), order, axis=0).reshape(rows.shape)
    s = np.exp(log_scale)
    sqdist = np.einsum("...td,...td->...t", f, f)[..., None] - 2.0 * (f @ dictionary.T)
    sqdist += np.einsum("kd,kd->k", dictionary, dictionary)
    np.maximum(sqdist, 0.0, out=sqdist)
    logits = -s * sqdist
    logits -= logits.max(axis=-1, keepdims=True)
    w = np.exp(logits)
    w /= w.sum(axis=-1, keepdims=True)
    msum = w.sum(axis=-2)
    mass = np.maximum(msum, np.finfo(np.float64).tiny)
    u = w / mass[..., None, :]
    usum = msum / mass
    agg = np.swapaxes(u, -1, -2) @ f - usum[..., None] * dictionary
    cache = (order, f, dictionary, sqdist, w, u, usum, agg, s)
    return agg.reshape(*agg.shape[:-2], -1), cache


def plain_lde_pool_backward(dout, cache):
    """The backward of ``plain_lde_pool``, a fresh array for every step."""
    order, f, dictionary, sqdist, w, u, usum, agg, s = cache
    de = dout.reshape(agg.shape)
    gw = f @ np.swapaxes(de, -1, -2) - np.einsum("...kd,...kd->...k", de, dictionary + agg)[..., None, :]
    ug = u * gw
    gl = ug - w * ug.sum(axis=-1, keepdims=True)
    a = 2.0 * s * gl
    k, d = dictionary.shape
    dlog_scale = -s * (gl * sqdist).reshape(-1, k).sum(axis=0)
    ddict = np.swapaxes(a, -1, -2) @ f - a.sum(axis=-2)[..., None] * dictionary - usum[..., None] * de
    ddict = ddict.reshape(-1, k, d).sum(axis=0)
    dsorted = u @ de + a @ dictionary - a.sum(axis=-1, keepdims=True) * f
    dframes = np.empty((order.size, d))
    dframes[order] = dsorted.reshape(-1, d)
    return dframes.reshape(f.shape), ddict, dlog_scale


def void_sort_lde_pool(frames, dictionary, log_scale):
    """``lde_pool`` as it ran before the byte-string sort and the column
    sums: each row sorted as one np.void, numpy's own sums over the K
    components and over the T frames, and a scatter back to the input
    order in the backward.  The current form must give its bits."""
    rows = np.ascontiguousarray(frames, dtype=np.float64)
    if rows.ndim < 2 or rows.shape[-2] < 1:
        raise AssertionError("dictionary pooling needs at least one frame")
    if rows.shape[-1] != dictionary.shape[1]:
        raise AssertionError("frame dim does not match dictionary component dim")
    t, d = rows.shape[-2:]
    order = np.argsort(rows.view(np.dtype((np.void, rows.itemsize * d)))[..., 0], axis=-1, kind="stable")
    # flat row of each canonical frame, so one take gathers every utterance
    order = (order + t * np.arange(order.size // t).reshape(*order.shape[:-1], 1)).reshape(-1)
    f = np.take(rows.reshape(-1, d), order, axis=0).reshape(rows.shape)
    s = np.exp(log_scale)
    sqdist = f @ dictionary.T
    sqdist *= 2.0
    np.subtract(np.einsum("...td,...td->...t", f, f)[..., None], sqdist, out=sqdist)
    sqdist += np.einsum("kd,kd->k", dictionary, dictionary)
    np.maximum(sqdist, 0.0, out=sqdist)
    logits = -s * sqdist
    # each row's max as a running maximum over the K columns: a max is exact
    # in any order, and numpy reduces a short last axis slowly
    peak = logits[..., 0].copy()
    for j in range(1, logits.shape[-1]):
        np.maximum(peak, logits[..., j], out=peak)
    logits -= peak[..., None]
    w = np.exp(logits, out=logits)
    w /= w.sum(axis=-1, keepdims=True)
    # per-row softmax is strictly positive, but a component every frame is far
    # from can underflow to 0 mass; floor it so starved components pool to ~0
    msum = w.sum(axis=-2)  # [..., K]
    mass = np.maximum(msum, np.finfo(np.float64).tiny)
    # normalized per-component weights (each column sums to 1, or to 0 for a
    # fully starved component); backward works in this scale so that 1/mass
    # never appears as a bare factor that could overflow
    u = w / mass[..., None, :]
    usum = msum / mass  # the column sums of u, in closed form
    agg = np.swapaxes(u, -1, -2) @ f  # [..., K, D]
    agg -= usum[..., None] * dictionary
    cache = (order, f, dictionary, sqdist, w, u, usum, agg, s)
    return agg.reshape(*agg.shape[:-2], -1), cache


def void_sort_lde_pool_backward(dout, cache):
    """The backward of ``void_sort_lde_pool``."""
    order, f, dictionary, sqdist, w, u, usum, agg, s = cache
    de = dout.reshape(agg.shape)  # [..., K, D]
    # weight gradient de_k . (f_t - d_k - agg_k) combines the numerator and the
    # normalizing-mass paths; the mass division is folded into u so starved
    # components get gradient 0
    gw = f @ np.swapaxes(de, -1, -2)
    gw -= np.einsum("...kd,...kd->...k", de, dictionary + agg)[..., None, :]
    ug = np.multiply(u, gw, out=gw)
    spare = w * ug.sum(axis=-1, keepdims=True)
    gl = np.subtract(ug, spare, out=ug)  # softmax backward per frame
    k, d = dictionary.shape
    dlog_scale = -s * np.multiply(gl, sqdist, out=spare).reshape(-1, k).sum(axis=0)
    a = np.multiply(2.0 * s, gl, out=gl)  # gradient of the residual f_t - d_k is u de_k - a (f_t - d_k)
    ddict = np.swapaxes(a, -1, -2) @ f
    ddict -= a.sum(axis=-2)[..., None] * dictionary
    ddict -= usum[..., None] * de
    ddict = ddict.reshape(-1, k, d).sum(axis=0)
    dsorted = u @ de
    dsorted += a @ dictionary
    dsorted -= a.sum(axis=-1, keepdims=True) * f
    dframes = np.empty((order.size, d))
    dframes[order] = dsorted.reshape(-1, d)
    return dframes.reshape(f.shape), ddict, dlog_scale


def assert_same_bits(a, b, name):
    """Bit-equal but for the sign of a NaN, which numpy's max reduction and
    a running maximum can leave apart; no NaN reaches a checkpoint or a
    report."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    assert a.shape == b.shape and np.array_equal(nan, np.isnan(b)), name
    assert a[~nan].tobytes() == b[~nan].tobytes(), name


class TestLdePooling:
    @given(
        st.sampled_from([1, 3, 8, 17]),
        st.sampled_from([(), (1,), (5,)]),
        st.sampled_from([1, 2, 9, 60]),
        st.integers(min_value=1, max_value=24),
        st.sampled_from(["on", "near", "far", "inf"]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(k=8, lead=(104,), t=60, d=24, place="on", seed=1)  # the adapt shape
    @settings(max_examples=200, deadline=None)
    def test_bit_equal_to_the_plain_matrix_form(self, k, lead, t, d, place, seed):
        """The running row max and the reused temporaries change no bit of
        the pooled rows or the gradients, and the backward leaves its cache
        as it found it."""
        rng = np.random.default_rng(seed)
        frames = np.maximum(rng.normal(size=(*lead, t, d)), 0.0)
        frames.reshape(-1, d)[1::3] = frames.reshape(-1, d)[0]  # repeated frames tie
        dictionary = frames.reshape(-1, d)[rng.integers(0, frames.size // d, size=k)]
        if place == "near":
            dictionary = dictionary + 0.1 * rng.normal(size=(k, d))
        elif place == "far":  # starved components
            dictionary = dictionary + 3.0 * rng.normal(size=(k, d))
        log_scale = 3.0 * rng.normal(size=k)
        if place == "inf":  # an infinite scale: 0 * inf makes NaN rows
            log_scale[0] = 1000.0
        with np.errstate(all="ignore"):
            out, cache = lde_pool(frames, dictionary, log_scale)
            ref, ref_cache = plain_lde_pool(frames, dictionary, log_scale)
            dout = rng.normal(size=out.shape)
            want = plain_lde_pool_backward(dout, ref_cache)
            kept = [np.copy(c) for c in cache]
            for _ in range(2):
                got = lde_pool_backward(dout, cache)
                for name, a, b in zip(("dframes", "ddict", "dlog_scale"), got, want):
                    assert_same_bits(a, b, name)
        assert_same_bits(out, ref, "pooled")
        for i, (a, b, c) in enumerate(zip(cache, ref_cache, kept)):
            assert_same_bits(a, b, f"cache[{i}]")
            assert np.asarray(a).tobytes() == c.tobytes(), f"backward changed cache[{i}]"

    @given(
        st.sampled_from([1, 3, 60, 200]),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=24),
        st.sampled_from(["on", "near", "far"]),
        st.sampled_from([0.0, 3.0, 6.0]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(t=60, k=1, d=24, place="on", starve=0.0, seed=1)
    @example(t=200, k=8, d=24, place="on", starve=6.0, seed=2)
    @settings(max_examples=200, deadline=None)
    def test_matches_sort_based_reference(self, t, k, d, place, starve, seed):
        rng = np.random.default_rng(seed)
        frames = np.maximum(rng.normal(size=(t, d)), 0.0)
        # "on" puts components exactly on frames, as _seed_dictionary does, so
        # the expanded distance cancels; "far" leaves components starved
        dictionary = frames[rng.integers(0, t, size=k)]
        if place == "near":
            dictionary = dictionary + 0.1 * rng.normal(size=(k, d))
        elif place == "far":
            dictionary = dictionary + 3.0 * rng.normal(size=(k, d))
        log_scale = starve + rng.normal(size=k)
        out, cache = lde_pool(frames, dictionary, log_scale)
        ref, ref_cache = reference_lde_pool(frames, dictionary, log_scale)
        dout = rng.normal(size=out.shape)
        got = [out, *lde_pool_backward(dout, cache)]
        want = [ref, *reference_lde_pool_backward(dout, ref_cache)]
        tol = lde_oracle_tol(frames, dictionary, log_scale)
        for name, a, b in zip(("pooled", "dframes", "ddict", "dlog_scale"), got, want):
            assert a.shape == b.shape, name
            assert np.abs(a - b).max() <= tol * max(1.0, float(np.abs(b).max())), name

    def test_single_component_is_mean_residual(self, rng):
        frames = rng.normal(size=(6, 3))
        d = rng.normal(size=(1, 3))
        out, _ = lde_pool(frames, d, np.zeros(1))
        assert np.allclose(out, frames.mean(axis=0) - d[0])

    def test_assignment_weights_rows_sum_to_one(self, rng):
        frames = rng.normal(size=(10, 3))
        d = rng.normal(size=(4, 3))
        _, cache = lde_pool(frames, d, rng.normal(size=4))
        w = cache[4]
        assert np.all(np.abs(w.sum(axis=1) - 1.0) < 1e-12)

    def test_permutation_invariance_is_exact(self, rng):
        frames = rng.normal(size=(11, 3))
        d = rng.normal(size=(3, 3))
        ls = rng.normal(size=3)
        out, _ = lde_pool(frames, d, ls)
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(11)
            out_p, _ = lde_pool(frames[perm], d, ls)
            assert out.tobytes() == out_p.tobytes()

    def test_frames_on_component_saturate_assignment(self, rng):
        # components far enough apart to saturate the softmax towards d[1],
        # close enough that the off-component weights stay representable
        d = 0.5 * rng.normal(size=(3, 3))
        frames = np.tile(d[1], (5, 1))
        out, cache = lde_pool(frames, d, np.log(100.0) * np.ones(3))
        w = cache[4]
        agg = out.reshape(3, 3)
        assert np.all(w[:, 1] > 1.0 - 1e-6)
        assert np.allclose(agg[1], 0.0, atol=1e-9)
        for k in (0, 2):
            assert np.allclose(agg[k], d[1] - d[k], atol=1e-6)

    def test_empty_frames_rejected(self):
        with pytest.raises(ContractError):
            lde_pool(np.zeros((0, 3)), np.zeros((2, 3)), np.zeros(2))

    def test_gradients_match_finite_differences(self, rng):
        frames = rng.normal(size=(4, 3))
        probe = rng.normal(size=6)

        def f(point):
            out, cache = lde_pool(point["frames"], point["dict"], point["ls"])
            df, dd, dls = lde_pool_backward(probe, cache)
            return float(np.dot(out, probe)), {"frames": df, "dict": dd, "ls": dls}

        point = {"frames": frames, "dict": rng.normal(size=(2, 3)), "ls": rng.normal(size=2)}
        assert grad_check(f, point) < 1e-4


def adversarial_rows(rng, lead, t, d):
    """Frames [*lead, t, d] that a byte sort must order as np.void does:
    signed zeros, NaNs of either sign and several payloads, infinities,
    denormals, repeated rows and rows that share a long prefix."""
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0x7FF8000000000123],
                    dtype=np.uint64).view(np.float64)
    specials = np.concatenate([[0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308, 1.0, -1.0], nans])
    x = rng.choice(specials, size=(*lead, t, d))
    normal = rng.random(x.shape) < 0.3
    x[normal] = rng.normal(size=int(normal.sum()))
    rows = x.reshape(-1, t, d)
    rows[:, 1::3] = rows[:, :1]  # repeated rows tie
    rows[:, 2::5, : d // 2] = rows[:, :1, : d // 2]  # shared prefixes, other tails
    return x


class TestLdeExactness:
    """The byte-string sort, the column sums and the unsort gather give
    every bit of the np.void sort, numpy's reductions and the scatter."""

    @pytest.mark.parametrize("t", [1, 2, 60, 200])
    @pytest.mark.parametrize("lead", [(), (4,)])
    def test_byte_string_sort_is_the_void_sort(self, t, lead):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(1, 25))
            frames = adversarial_rows(rng, lead, t, d)
            dictionary, log_scale = rng.normal(size=(3, d)), rng.normal(size=3)
            with np.errstate(all="ignore"):
                _, cache = lde_pool(frames, dictionary, log_scale)
                _, ref_cache = void_sort_lde_pool(frames, dictionary, log_scale)
            assert np.array_equal(cache[0], ref_cache[0]), (seed, d)

    @pytest.mark.parametrize("floor", ["default", "none"])
    @pytest.mark.parametrize("k", [*range(1, 18), 64, 127, 128, 129, 136, 200, 300])
    def test_sum_helpers_are_numpys_sums(self, monkeypatch, floor, k):
        """Bit for bit, signed zeros included, over 2-D and stacked leading
        axes; ``none`` takes the column path at every size."""
        if floor == "none":
            monkeypatch.setattr(model_mod, "_SUM_ROWS", 0)
        rng = np.random.default_rng(k)
        for lead in [(1,), (7,), (300,), (3, 5), (4, 90), (2, 3, 50)]:
            shape = (*lead, k)
            x = rng.normal(size=shape) * 10.0 ** rng.integers(-12, 12, size=shape)
            draw = rng.random(shape)
            x[draw < 0.2] = 0.0
            x[draw > 0.8] = -0.0
            x.reshape(-1, k)[::4] = -0.0  # rows that sum to -0.0 term by term
            got, want = model_mod._sum_last(x), x.sum(axis=-1, keepdims=True)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), ("K", lead)
            for view in (x, x[..., ::-1]):  # contiguous, and a layout that stays numpy's
                got, want = model_mod._sum_frames(view), view.sum(axis=-2)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), ("T", lead)

    @given(
        st.sampled_from([1, 3, 8, 17]),
        st.sampled_from([(), (1,), (5,), (2, 3)]),
        st.sampled_from([1, 2, 9, 60, 200]),
        st.integers(min_value=1, max_value=24),
        st.sampled_from(["on", "near", "far", "inf", "adversarial"]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(k=8, lead=(104,), t=60, d=24, place="on", seed=1)  # the adapt shape
    @example(k=8, lead=(20,), t=200, d=24, place="near", seed=2)  # an eval-wide pooling chunk
    @settings(max_examples=150, deadline=None)
    def test_bit_equal_to_the_void_sort_form(self, k, lead, t, d, place, seed):
        rng = np.random.default_rng(seed)
        if place == "adversarial":
            frames = adversarial_rows(rng, lead, t, d)
        else:
            frames = np.maximum(rng.normal(size=(*lead, t, d)), 0.0)
            frames.reshape(-1, d)[1::3] = frames.reshape(-1, d)[0]
        dictionary = frames.reshape(-1, d)[rng.integers(0, frames.size // d, size=k)]
        log_scale = 3.0 * rng.normal(size=k)
        if place == "inf":
            log_scale[0] = 1000.0
        with np.errstate(all="ignore"):
            if place in ("near", "adversarial"):
                dictionary = dictionary + 0.1 * rng.normal(size=(k, d))
            elif place == "far":
                dictionary = dictionary + 3.0 * rng.normal(size=(k, d))
            out, cache = lde_pool(frames, dictionary, log_scale)
            ref, ref_cache = void_sort_lde_pool(frames, dictionary, log_scale)
            dout = rng.normal(size=out.shape)
            got = lde_pool_backward(dout, cache)
            want = void_sort_lde_pool_backward(dout, ref_cache)
        assert_same_bits(out, ref, "pooled")
        for name, a, b in zip(("dframes", "ddict", "dlog_scale"), got, want):
            assert_same_bits(a, b, name)
        for i, (a, b) in enumerate(zip(cache, ref_cache)):
            assert_same_bits(a, b, f"cache[{i}]")


class TestBatchComposition:
    @given(
        st.integers(min_value=1, max_value=70),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_pooled_row_independent_of_its_batch(self, t, b, seed):
        rng = np.random.default_rng(seed)
        crop = np.maximum(rng.normal(size=(t, 24)), 0.0)
        dictionary = crop[rng.integers(0, t, size=8)] + 0.1 * rng.normal(size=(8, 24))
        log_scale = rng.normal(size=8)
        alone, _ = lde_pool(crop, dictionary, log_scale)
        others = np.maximum(rng.normal(size=(b, t, 24)), 0.0)
        at = int(rng.integers(0, b + 1))
        stacked, _ = lde_pool(np.insert(others, at, crop, axis=0), dictionary, log_scale)
        assert stacked[at].tobytes() == alone.tobytes()

    @given(st.integers(min_value=1, max_value=70), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_permuting_one_crop_leaves_every_row_unchanged(self, t, seed):
        rng = np.random.default_rng(seed)
        crops = np.maximum(rng.normal(size=(6, t, 24)), 0.0)
        crops[1, t // 2] = crops[1, 0]  # a repeated frame ties in the sort
        dictionary = rng.normal(size=(8, 24))
        log_scale = rng.normal(size=8)
        before, _ = lde_pool(crops, dictionary, log_scale)
        j = int(rng.integers(0, 6))
        crops[j] = crops[j][rng.permutation(t)]
        after, _ = lde_pool(crops, dictionary, log_scale)
        assert after.tobytes() == before.tobytes()

    def test_ragged_encode_keeps_input_order_and_bytes(self, generic_model, rng):
        utts = [rng.normal(size=(n, 4)) for n in (5, 3, 5, 1, 8, 3, 5)]
        embs, _ = generic_model.encode(utts)
        assert embs.shape == (len(utts), 8)
        for row, x in zip(embs, utts):
            (alone,), _ = generic_model.encode([x])
            assert row.tobytes() == alone.tobytes()

    def test_ragged_encode_backward_sums_per_utterance_gradients(self, generic_model, rng):
        utts = [rng.normal(size=(n, 4)) for n in (5, 3, 5, 1)]
        demb = rng.normal(size=(len(utts), 8))
        embs, cache = generic_model.encode(utts)
        grads = {}
        generic_model.encode_backward(demb, cache, grads)
        summed = {}
        for x, d in zip(utts, demb):
            _, one = generic_model.encode([x])
            generic_model.encode_backward(d[None, :], one, summed)
        assert set(grads) == set(summed)
        for name in grads:
            assert np.allclose(grads[name], summed[name], rtol=1e-12, atol=1e-12), name


def per_crop_encode(model, utts, first_group, demb):
    """``encode`` and ``encode_backward`` with the extractor run per crop,
    each crop a stack of one, and one stacked ``lde_pool``: the trunk as it
    ran before the batch was stacked.  Returns embeddings and grads."""
    outs, caches = zip(*(model.extractor_forward(x, "train", first_group) for x in utts))
    embs, lde_cache = lde_pool(np.stack(outs), model.params["lde.dict"], model.params["lde.log_scale"])
    dstack, ddict, dlog = lde_pool_backward(demb, lde_cache)
    grads = {"lde.dict": ddict, "lde.log_scale": dlog}
    for dh, cache in zip(dstack, caches):
        model.extractor_backward(dh, cache, grads)
    return embs, grads


CONTEXTS = [(2, 1, 1, 0), (0, 1, 0, 2), (1, 0, 2, 1)]
EXACT_WIDTHS = [(24, 24, 24, 24), (8, 16, 6, 24), (5, 7, 3, 4)]
# trunks where no row of a group's x @ W or dpre @ W.T depends on the other
# rows of its product, so a stack equals running each crop alone; the
# spliced widths of (5, 7, 3, 4) break that at the other two contexts
EXACT_TRUNKS = [(w, c) for w in EXACT_WIDTHS[:2] for c in CONTEXTS] + [(EXACT_WIDTHS[2], CONTEXTS[1])]
# widths where it need not hold: 17 and 33 fail the row probe, 12 and 20
# differ between small and large products, 32 in the input gradient, and
# a one-wide g4 sums its grads over the stack pairwise
OTHER_WIDTHS = [(17, 24, 33, 24), (24, 24, 24, 17), (12, 20, 12, 12), (24, 32, 24, 24), (6, 5, 7, 1)]


def trunk_model(widths, context, seed, input_dim=20):
    config = ModelConfig(
        extractor=ExtractorConfig(input_dim, widths, context),
        lde=LdeConfig(num_components=3, component_dim=widths[3]),
        subnet=SubnetConfig(front_dims=(5, 4), back_dims=(4, 3), num_domains=2),
        num_speakers=3,
    )
    return jitter_params(Model.create(config, seed=seed % 1000), seed=seed, scale=0.3)


def in_dim_of(model, first_group):
    ex = model.config.extractor
    return ex.input_dim if first_group == 1 else ex.group_dims[first_group - 2]


def train_pass(model, x, first_group, demb):
    """One training ``encode`` and ``encode_backward``: embeddings and grads."""
    embs, cache = model.encode(x, first_group=first_group)
    grads = {}
    model.encode_backward(demb, cache, grads)
    return embs, grads


class TestStackedTrunk:
    @given(
        st.sampled_from([1, 2, 7, 104]),
        st.sampled_from([8, 9, 60]),
        st.sampled_from([1, 4]),
        st.sampled_from(EXACT_TRUNKS),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_stack_equals_the_per_crop_trunk_bit_for_bit(self, n, t, first_group, trunk, seed):
        widths, context = trunk
        rng = np.random.default_rng(seed)
        model = trunk_model(widths, context, seed)
        x = rng.normal(size=(n, t, in_dim_of(model, first_group)))
        demb = rng.normal(size=(n, model.config.lde.output_dim))
        embs, grads = train_pass(model, x, first_group, demb)
        want_embs, want = per_crop_encode(model, list(x), first_group, demb)
        assert embs.tobytes() == want_embs.tobytes()
        assert set(grads) == set(want) == {"lde.dict", "lde.log_scale",
                                           *(f"g{g}.{p}" for g in range(first_group, 5) for p in "Wb")}
        for name in grads:
            assert grads[name].tobytes() == want[name].tobytes(), name

    @given(
        st.sampled_from([1, 2, 7, 104]),
        st.sampled_from([7, 8, 60]),
        st.sampled_from([1, 4]),
        st.sampled_from(EXACT_WIDTHS + OTHER_WIDTHS),
        st.sampled_from(CONTEXTS),
        st.integers(0, 2**32 - 1),
    )
    @example(7, 7, 1, EXACT_WIDTHS[0], CONTEXTS[0], 1)  # crops under 8 frames
    @example(104, 60, 1, OTHER_WIDTHS[3], CONTEXTS[0], 2)  # the input gradient of g2
    @example(104, 60, 4, OTHER_WIDTHS[4], CONTEXTS[0], 3)  # a one-wide g4
    @settings(max_examples=60, deadline=None)
    def test_stack_is_deterministic_and_close_to_the_per_crop_trunk(self, n, t, first_group, widths,
                                                                     context, seed):
        """At every shape, those where the stack need not equal each crop
        run alone included, a training pass gives the same bytes every
        time, within rounding of the per-crop trunk."""
        rng = np.random.default_rng(seed)
        model = trunk_model(widths, context, seed)
        x = rng.normal(size=(n, t, in_dim_of(model, first_group)))
        demb = rng.normal(size=(n, model.config.lde.output_dim))
        embs, grads = train_pass(model, x, first_group, demb)
        again_embs, again = train_pass(model, x.copy(), first_group, demb)
        assert embs.tobytes() == again_embs.tobytes()
        assert set(grads) == set(again)
        for name in grads:
            assert grads[name].tobytes() == again[name].tobytes(), name
        want_embs, want = per_crop_encode(model, list(x), first_group, demb)
        assert set(grads) == set(want)
        for name, got, ref in [("embs", embs, want_embs), *((k, grads[k], want[k]) for k in grads)]:
            # a sum's rounding scales with its terms, not with the sum: the
            # log-scale grads cancel terms far larger than themselves
            assert np.allclose(got, ref, rtol=1e-12, atol=1e-9 * max(1.0, np.abs(ref).max())), name

    @pytest.mark.parametrize("t", [7, 60])
    @pytest.mark.parametrize("first_group", [1, 4])
    @pytest.mark.parametrize("widths", EXACT_WIDTHS + OTHER_WIDTHS)
    def test_training_runs_one_stack_per_length_group(self, monkeypatch, widths, t, first_group):
        model = trunk_model(widths, (2, 1, 1, 0), seed=0)
        in_dim = in_dim_of(model, first_group)
        rng = np.random.default_rng(t)
        utts = [rng.normal(size=(t + (i % 2), in_dim)) for i in range(5)]
        seen = []
        forward = Model.extractor_forward

        def spy(self, x, mode="train", first_group=1):
            seen.append(np.shape(x))
            return forward(self, x, mode, first_group)

        monkeypatch.setattr(Model, "extractor_forward", spy)
        _, cache = model.encode(utts, first_group=first_group)
        assert seen == [(3, t, in_dim), (2, t + 1, in_dim)]
        assert len(cache) == 2

    def test_gradients_match_finite_differences_where_rows_depend_on_the_stack(self):
        """A stack of 7-frame crops through a one-wide g4: the old per-crop
        fallback's shapes, now stacked, against central differences."""
        rng = np.random.default_rng(7)
        model = trunk_model((5, 7, 3, 1), (1, 0, 1, 0), seed=7, input_dim=4)
        x = rng.normal(size=(3, 7, 4))
        demb = rng.normal(size=(3, model.config.lde.output_dim))
        names = [n for n in sorted(model.params) if n.startswith(("g", "lde."))]

        def f(point):
            for name in names:
                model.params[name][...] = point[name]
            embs, grads = train_pass(model, x, 1, demb)
            return float(np.sum(embs * demb)), {name: grads[name] for name in names}

        assert grad_check(f, {name: model.params[name].copy() for name in names}) < 1e-4


def reference_g3(model, crop):
    """g1-g3 over one crop as the stages ran them before the frozen prefix:
    per crop, with the splice as first written."""
    h = crop
    for g in range(3):
        spliced, _ = reference_splice_forward(h, model.config.extractor.context[g])
        h = np.maximum(spliced @ model.params[f"g{g + 1}.W"] + model.params[f"g{g + 1}.b"], 0.0)
    return h


@st.composite
def prefix_cases(draw):
    """A trunk, utterances of mixed length and crops at drawn offsets; a
    crop longer than its utterance is padded (offset None)."""
    context = tuple(draw(st.integers(0, 3)) for _ in range(4))
    r = sum(context[:3])
    size = draw(st.sampled_from(sorted({n for n in (1, 5, 7, 8, 9, 2 * r, 2 * r + 1, 4 * r + 1, 30) if n >= 1})))
    lengths = draw(st.lists(st.integers(1, size + 30), min_size=1, max_size=4))
    crops = []
    for _ in range(draw(st.integers(1, 8))):
        u = draw(st.integers(0, len(lengths) - 1))
        room = lengths[u] - size
        offset = None if room < 0 else draw(st.sampled_from([0, room, draw(st.integers(0, room))]))
        crops.append((u, offset))
    return {"context": context, "widths": tuple(draw(st.integers(1, 12)) for _ in range(4)),
            "input_dim": draw(st.integers(1, 6)), "size": size, "lengths": lengths, "crops": crops}


def tabled_prefix(model, utterances):
    """A ``FrozenPrefix`` that tables ``utterances``: crops of 4R + 1 frames,
    one more of them than the utterances hold frames, pay for the table."""
    r = sum(model.config.extractor.context[:FROZEN_GROUPS])
    return FrozenPrefix(model, utterances, 1 + sum(len(x) for x in utterances.values()), 4 * r + 1)


def _case(context, size, lengths, crops, widths=(5, 7, 3, 4), input_dim=3):
    return {"context": context, "widths": widths, "input_dim": input_dim, "size": size,
            "lengths": lengths, "crops": crops}


class TestFrozenPrefix:
    @given(prefix_cases(), st.integers(0, 2**32 - 1))
    @example(_case((2, 1, 1, 0), 60, [100, 100], [(0, 0), (1, 40), (0, 17), (1, 0)]), 1)  # default shapes
    @example(_case((1, 1, 0, 2), 4, [30, 30], [(0, 0), (1, 26), (0, 9)]), 2)  # L = 2R
    @example(_case((1, 1, 1, 0), 7, [30, 30], [(0, 0), (1, 23), (0, 3)]), 3)  # L = 2R + 1 < 8
    @example(_case((2, 2, 1, 0), 11, [11, 40], [(0, 0), (1, 29), (1, 0)]), 4)  # L = 2R + 1
    @example(_case((0, 0, 0, 1), 9, [9, 20], [(0, 0), (1, 11), (1, 5)], widths=(2, 9, 1, 3)), 5)  # R = 0
    @example(_case((1, 0, 0, 0), 12, [20, 5], [(0, 8), (1, None), (0, 0)]), 6)  # padded, one tabled crop
    @example(_case((0, 2, 0, 3), 10, [4, 30], [(0, None), (1, 20), (1, 0), (0, None)]), 7)  # padded
    @settings(max_examples=300, deadline=None)
    def test_rows_equal_the_per_crop_rows_bit_for_bit(self, case, seed):
        rng = np.random.default_rng(seed)
        config = ModelConfig(
            extractor=ExtractorConfig(case["input_dim"], case["widths"], case["context"]),
            lde=LdeConfig(num_components=2, component_dim=case["widths"][3]),
            subnet=SubnetConfig(front_dims=(5, 4), back_dims=(4, 3), num_domains=2),
            num_speakers=3,
        )
        model = jitter_params(Model.create(config, seed=seed % 1000), seed=seed, scale=0.3)
        store = {f"u{i}": rng.normal(size=(t, case["input_dim"])) for i, t in enumerate(case["lengths"])}
        size = case["size"]
        crops, keys = [], []
        for u, offset in case["crops"]:
            x = store[f"u{u}"]
            crops.append(np.vstack([x, np.repeat(x[-1:], size - len(x), axis=0)]) if offset is None
                         else x[offset : offset + size])
            keys.append((f"u{u}", offset))
        # a stage of no crops builds no table
        for prefix in (tabled_prefix(model, store), FrozenPrefix(model, store, 0, size)):
            rows = prefix.crop_rows(crops, keys)
            assert len(rows) == len(crops)
            for crop, got in zip(crops, rows):
                # the crop alone through the forward-only path: an untabled
                # crop's rows by construction, a tabled crop's because on the
                # default kernel the table's and the edge pass's product rows
                # keep their bits at every height here
                want = next(model._forward_windows([crop], 1, FROZEN_GROUPS))
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                # and g4 from the g3 rows is the forward-only trunk over the crop
                full = next(model._forward_windows([crop], 1, 4))
                assert next(model._forward_windows([got], 4, 4)).tobytes() == full.tobytes()

    @given(st.lists(st.sampled_from([5, 8, 60, 100]), min_size=1, max_size=12),
           st.integers(1, 40), st.sampled_from([7, 8, 60]), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_stacked_table_and_untabled_crops_equal_each_run_alone(self, lengths, n, size, seed):
        """At default shapes the table, built per length in L2-sized stacks,
        holds each utterance's own g1-g3 rows, and so do untabled crops."""
        rng = np.random.default_rng(seed)
        model = jitter_params(Model.create(default_like_config(), seed=seed % 1000), seed=seed, scale=0.05)
        store = {f"u{i}": rng.normal(size=(t, 20)) for i, t in enumerate(lengths)}
        prefix = tabled_prefix(model, store)
        assert set(prefix.table) == set(store)
        for u, x in store.items():
            assert prefix.table[u].tobytes() == reference_g3(model, x).tobytes(), u
        crops = list(rng.normal(size=(n, size, 20)))
        rows = prefix.crop_rows(crops, [("untabled", 0)] * n)
        for i, crop in enumerate(crops):
            assert rows[i].tobytes() == reference_g3(model, crop).tobytes(), i

    def test_tabled_crops_read_the_table(self, generic_model, rng):
        """At default-like shapes the middle rows of a tabled crop are the
        table's rows, so the edge path, not the whole-crop path, made them."""
        store = {"a": rng.normal(size=(40, 4))}
        prefix = tabled_prefix(generic_model, store)
        assert prefix.halo == 1  # micro context (0, 1, 0, 0)
        prefix.table["a"] = prefix.table["a"] + 1.0  # mark the table's rows
        rows = prefix.crop_rows([store["a"][5:25], store["a"][0:20]], [("a", 5), ("a", 0)])
        assert np.array_equal(rows[0][1:-1], prefix.table["a"][6:24])
        assert np.array_equal(rows[1][1:-1], prefix.table["a"][1:19])

    def test_short_and_lone_crops_read_the_table(self, generic_model, rng):
        """A crop of fewer than 8 frames, and a lone crop whose edge pass
        has 4R = 4 rows, take the table-and-edge path too, and give the
        same bytes every time."""
        a = rng.normal(size=(40, 4))
        prefix = tabled_prefix(generic_model, {"a": a})
        assert prefix.halo == 1
        prefix.table["a"] = prefix.table["a"] + 1.0  # mark the table's rows
        for size, offsets in ((7, (3, 20)), (20, (5,))):
            crops, keys = [a[s : s + size] for s in offsets], [("a", s) for s in offsets]
            rows = prefix.crop_rows(crops, keys)
            assert rows.tobytes() == prefix.crop_rows(crops, keys).tobytes()
            for got, s in zip(rows, offsets):
                assert np.array_equal(got[1:-1], prefix.table["a"][s + 1 : s + size - 1]), (size, s)

    def test_table_is_built_only_when_it_saves_frames(self, generic_model, rng):
        """A crop of L frames read from the table saves L - 4R frames of
        g1-g3; the table costs one pass over the utterances' frames."""
        store = {"a": rng.normal(size=(40, 4)), "b": rng.normal(size=(24, 4))}  # 64 frames
        assert not FrozenPrefix(generic_model, store, 4, 20).table  # 4 * (20 - 4) = 64 saved
        assert set(FrozenPrefix(generic_model, store, 5, 20).table) == {"a", "b"}  # 80 saved
        assert not FrozenPrefix(generic_model, store, 10**6, 4).table  # L = 4R saves nothing


class TestSubnetAndClassifier:
    def test_tied_subnets_give_identical_outputs(self, micro_model, rng):
        for key in list(micro_model.params):
            if key.startswith("sub1."):
                micro_model.params[key][...] = micro_model.params["sub0." + key[5:]]
        emb = rng.normal(size=(4, 8))
        out0, _ = micro_model.subnet_forward(emb, 0)
        out1, _ = micro_model.subnet_forward(emb, 1)
        assert np.array_equal(out0, out1)

    def test_zero_input_zero_bias_gives_zero(self, micro_model):
        out, _ = micro_model.subnet_forward(np.zeros((2, 8)), 0)
        assert np.all(out == 0.0)

    def test_full_pass_caches_the_front_output(self, micro_model, rng):
        """``cache["front"]`` is the output of the two front layers."""
        emb = rng.normal(size=(3, 8))
        p = micro_model.params
        front = np.maximum(emb @ p["sub1.front.0.W"] + p["sub1.front.0.b"], 0.0)
        front = np.maximum(front @ p["sub1.front.1.W"] + p["sub1.front.1.b"], 0.0)
        _, cache = micro_model.subnet_forward(emb, 1)
        assert np.array_equal(front, cache["front"])

    def test_only_the_full_stage_exists(self, micro_model):
        with pytest.raises(ContractError):
            micro_model.subnet_forward(np.zeros((1, 8)), 0, "front")

    def test_unknown_domain_rejected(self, micro_model):
        with pytest.raises(UnknownDomainError):
            micro_model.subnet_forward(np.zeros((1, 8)), 5)
        with pytest.raises(UnknownDomainError):
            micro_model.classifier_forward(np.zeros((1, 3)), -1)

    def test_classifier_zero_weights_uniform_posterior(self, micro_model):
        micro_model.params["cls0.W"][:] = 0.0
        micro_model.params["cls0.b"][:] = 0.0
        logits, _ = micro_model.classifier_forward(np.ones((1, 3)), 0)
        post = np.exp(logits[0]) / np.exp(logits[0]).sum()
        assert np.allclose(post, 1.0 / 3.0)

    def test_classifier_onehot_rows_copy_coordinates(self, micro_model):
        micro_model.params["cls0.W"][:] = np.eye(3)
        micro_model.params["cls0.b"][:] = 0.0
        emb = np.array([[0.3, -1.2, 2.0]])
        logits, _ = micro_model.classifier_forward(emb, 0)
        assert np.allclose(logits, emb)

    def test_subnet_gradients_match_finite_differences(self, micro_model, rng):
        emb = rng.normal(size=(3, 8))
        probe_out = rng.normal(size=(3, 3))
        probe_front = rng.normal(size=(3, 4))
        names = [n for n in micro_model.params if n.startswith("sub0.")]

        def f(point):
            for n in names:
                micro_model.params[n][...] = point[n]
            out, cache = micro_model.subnet_forward(emb, 0)
            grads = {}
            micro_model.subnet_backward(probe_out.copy(), probe_front.copy(), cache, grads)
            value = float(np.sum(out * probe_out) + np.sum(cache["front"] * probe_front))
            return value, {n: grads[n] for n in names}

        point = {n: micro_model.params[n].copy() for n in names}
        assert grad_check(f, point) < 1e-4


class TestSetTrainable:
    def test_pretrain_nothing_frozen(self):
        model = Model.create(micro_config(), seed=1)
        groups = set_trainable(model, "pretrain")
        assert all(not g.frozen for g in groups)
        assert all(g.lr_multiplier == 1.0 for g in groups)

    def test_finetune_unfreezes_exactly_g4_lde_head(self, micro_model):
        groups = set_trainable(micro_model, "finetune")
        unfrozen = {g.name for g in groups if not g.frozen}
        assert unfrozen == {"g4", "lde", "head"}

    def test_adapt_multiplier_ratio_is_ten(self, micro_model):
        groups = set_trainable(micro_model, "adapt")
        by_name = {g.name: g for g in groups}
        assert by_name["sub0"].lr_multiplier / by_name["g4"].lr_multiplier == 10.0
        assert by_name["cls1"].lr_multiplier == 10.0
        assert by_name["head"].frozen and by_name["g1"].frozen
        assert not by_name["g4"].frozen and not by_name["lde"].frozen

    def test_adapt_requires_subnets(self):
        model = Model.create(micro_config(), seed=1)
        with pytest.raises(StructuralError):
            set_trainable(model, "adapt")

    def test_trainable_names_cover_params(self, micro_model):
        groups = set_trainable(micro_model, "pretrain")
        assert trainable_names(groups) == set(micro_model.params)


class TestCheckpoints:
    def test_round_trip_bit_exact(self, micro_model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, micro_model, "adapt", step=42)
        loaded, meta = load_checkpoint(path)
        assert meta.stage == "adapt" and meta.step == 42
        assert set(loaded.params) == set(micro_model.params)
        for name, arr in micro_model.params.items():
            assert arr.tobytes() == loaded.params[name].tobytes(), name

    def test_save_is_byte_deterministic(self, micro_model, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, micro_model, "pretrain", 7)
        save_checkpoint(p2, micro_model, "pretrain", 7)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_rejected(self, micro_model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, micro_model, "finetune", 1)
        blob = path.read_bytes()
        for cut in (3, 10, len(blob) // 2, len(blob) - 5):
            path.write_bytes(blob[:cut])
            with pytest.raises(TruncatedFileError):
                load_checkpoint(path)

    def test_bad_magic_rejected(self, micro_model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, micro_model, "finetune", 1)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagicError):
            load_checkpoint(path)

    def test_bad_version_rejected(self, micro_model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, micro_model, "finetune", 1)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(BadVersionError):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 4.5])
    @pytest.mark.parametrize("slot", [0, 2, 16])
    def test_non_integral_arch_entry_rejected(self, micro_model, tmp_path, slot, value):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, micro_model, "pretrain", 1)
        set_arch_entry(path, slot, value)
        with pytest.raises(FileFormatError):
            load_checkpoint(path)

    def test_tampered_fingerprint_rejected(self, micro_model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, micro_model, "pretrain", 1)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FingerprintMismatchError):
            load_checkpoint(path)

    @pytest.mark.parametrize("name,shape", [("g2.W", (12, 5)), ("g2.W", (4, 12)), ("head.b", (4,)),
                                            ("lde.dict", (8,)), ("sub1.back.0.W", (4, 5)), ("cls0.b", (3, 1))])
    def test_misshapen_tensor_rejected(self, micro_model, tmp_path, name, shape):
        """Names are not enough: every tensor must have the shape the
        architecture record gives it."""
        micro_model.params[name] = np.zeros(shape)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, micro_model, "adapt", 1)
        with pytest.raises(FileFormatError, match=f"misshapen=\\['{name}'\\]"):
            load_checkpoint(path)

    def test_duplicate_tensor_rejected(self, micro_model, tmp_path):
        """A later copy of a tensor once replaced the first without a word:
        here an all-zero g1.W."""
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, micro_model, "adapt", 1)
        duplicate_tensor(path, "g1.W")
        with pytest.raises(FileFormatError, match="g1.W twice"):
            load_checkpoint(path)

    def test_trailing_garbage_rejected(self, micro_model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, micro_model, "pretrain", 1)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FileFormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("dims", [(2**31, 2**10), (2**20, 16)])
    def test_oversized_tensor_rejected_before_reading(self, tmp_path, dims):
        path = tmp_path / "big.ckpt"
        name = b"g1.W"
        header = struct.pack("<IBQIH", 1, 0, 1, 1, len(name)) + name + struct.pack("<BII", 2, *dims)
        path.write_bytes(b"XDCK" + header + bytes(64))
        tracemalloc.start()
        try:
            with pytest.raises(FileFormatError):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_unwritable_path_is_format_error(self, micro_model, tmp_path):
        (tmp_path / "adir").mkdir()
        for name in ("nodir/m.ckpt", "adir"):
            with pytest.raises(FileFormatError):
                save_checkpoint(tmp_path / name, micro_model, "pretrain", 1)
        assert [p.name for p in tmp_path.iterdir()] == ["adir"]  # no temporary file left

    @pytest.mark.parametrize("artifact", ["checkpoint", "features"])
    def test_failed_write_keeps_previous_file(self, micro_model, tmp_path, monkeypatch, artifact):
        path = tmp_path / "m.out"
        write, magic = {
            "checkpoint": (lambda step: save_checkpoint(path, micro_model, "adapt", step), b"XDCK"),
            "features": (lambda step: write_features(path, np.full((3, 2), step, np.float32)), FEATURE_MAGIC),
        }[artifact]
        write(1)
        before = path.read_bytes()

        def crash(src, dst):
            assert Path(src).read_bytes()[:4] == magic  # the new bytes are on disk
            raise OSError("simulated crash before the rename")

        monkeypatch.setattr(fileio.os, "replace", crash)
        with pytest.raises(FileFormatError):
            write(2)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.out"]

    def test_every_truncation_is_a_format_error(self, generic_model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, generic_model, "adapt", 3)
        raw = path.read_bytes()
        for n in range(len(raw)):
            path.write_bytes(raw[:n])
            with pytest.raises(FileFormatError):
                load_checkpoint(path)

    @given(st.integers(0, 2**16), st.integers(1, 255))
    @example(4 + 4 + 1 + 8 + 4 + 2 + 4, 0x40)  # the rank of the first tensor, "arch": 1 -> 65 dims
    @example(32 + 4 * 7 + 3, 0x80)  # the sign of arch slot 7, context[1]: 1 -> -1
    @settings(max_examples=300, deadline=None)
    def test_a_flipped_byte_loads_or_is_a_format_error(self, where, mask):
        """A flip may leave a valid checkpoint, with other weights; anything
        else, a broken architecture record or a shape numpy cannot make
        included, is ``FileFormatError``."""
        model = jitter_params(Model.create(micro_config(), seed=5, with_subnets=True))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.ckpt"
            save_checkpoint(path, model, "adapt", 3)
            blob = bytearray(path.read_bytes())
            blob[where % len(blob)] ^= mask
            path.write_bytes(bytes(blob))
            try:
                with np.errstate(invalid="ignore"):  # a flip can make a signalling NaN
                    loaded, _ = load_checkpoint(path)
            except FileFormatError:
                return
            assert set(loaded.params) == set(model.params)

    def test_loaded_model_runs_forward(self, micro_model, tmp_path, rng):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, micro_model, "adapt", 3)
        loaded, _ = load_checkpoint(path)
        x = rng.normal(size=(6, 4))
        emb_expected, _ = micro_model.encode([x], mode="eval")
        emb_loaded, _ = loaded.encode([x], mode="eval")
        assert np.array_equal(emb_expected, emb_loaded)
