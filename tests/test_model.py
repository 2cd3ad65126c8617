import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossadapt import fileio
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
    ExtractorConfig,
    FrozenPrefix,
    LdeConfig,
    Model,
    ModelConfig,
    SubnetConfig,
    lde_pool,
    lde_pool_backward,
    load_checkpoint,
    save_checkpoint,
    set_trainable,
    splice_backward,
    splice_forward,
    trainable_names,
)
from conftest import jitter_params, micro_config, set_arch_entry
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
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_kernels_match_reference_bit_for_bit(self, t, d, context, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(t, d))
        y, cache = splice_forward(x, context)
        y_ref, cache_ref = reference_splice_forward(x, context)
        assert y.tobytes() == y_ref.tobytes()
        assert cache[0] == cache_ref[0] and np.array_equal(cache[1], cache_ref[1])
        # mixed magnitudes make the summation order visible in the last bits;
        # exact zeros and -0.0 probe the sign of each sum's 0.0 start
        dy = rng.normal(size=y.shape) * 10.0 ** rng.integers(-8, 9, size=y.shape)
        dy[rng.random(size=y.shape) < 0.2] = 0.0
        dy[rng.random(size=y.shape) < 0.2] = -0.0
        dx = splice_backward(dy, cache)
        assert dx.shape == x.shape
        assert dx.tobytes() == reference_splice_backward(dy, cache_ref).tobytes()

    def test_all_negative_zero_gradient_sums_to_positive_zero(self):
        _, cache = splice_forward(np.ones((3, 2)), 2)
        dx = splice_backward(np.full((3, 10), -0.0), cache)
        assert not np.signbit(dx).any()

    def test_shared_context_index_is_read_only(self, rng):
        _, (_, idx) = splice_forward(rng.normal(size=(6, 2)), 1)
        with pytest.raises(ValueError):
            idx[0, 0] = 5

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


class TestLdePooling:
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


class TestStackedTrunk:
    @given(
        st.sampled_from([1, 2, 7, 104]),
        st.sampled_from([8, 9, 60]),
        st.sampled_from([1, 4]),
        # widths 17 and 33 fail the row probe and run per crop; 12 and 20
        # differ between small and large products, 32 in the input gradient;
        # a one-wide g4 would sum its grads pairwise
        st.sampled_from([(24, 24, 24, 24), (8, 16, 6, 24), (5, 7, 3, 4), (17, 24, 33, 24),
                         (24, 24, 24, 17), (12, 20, 12, 12), (24, 32, 24, 24), (6, 5, 7, 1)]),
        st.sampled_from([(2, 1, 1, 0), (0, 1, 0, 2), (1, 0, 2, 1)]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_stack_equals_the_per_crop_trunk_bit_for_bit(self, n, t, first_group, widths, context, seed):
        rng = np.random.default_rng(seed)
        config = ModelConfig(
            extractor=ExtractorConfig(20, widths, context),
            lde=LdeConfig(num_components=3, component_dim=widths[3]),
            subnet=SubnetConfig(front_dims=(5, 4), back_dims=(4, 3), num_domains=2),
            num_speakers=3,
        )
        model = jitter_params(Model.create(config, seed=seed % 1000), seed=seed, scale=0.3)
        in_dim = 20 if first_group == 1 else widths[first_group - 2]
        x = rng.normal(size=(n, t, in_dim))
        demb = rng.normal(size=(n, config.lde.output_dim))
        embs, cache = model.encode(x, first_group=first_group)
        grads = {}
        model.encode_backward(demb, cache, grads)
        want_embs, want = per_crop_encode(model, list(x), first_group, demb)
        assert embs.tobytes() == want_embs.tobytes()
        assert set(grads) == set(want) == {"lde.dict", "lde.log_scale",
                                           *(f"g{g}.{p}" for g in range(first_group, 5) for p in "Wb")}
        for name in grads:
            assert grads[name].tobytes() == want[name].tobytes(), name

    @pytest.mark.parametrize("widths,t,first_group,stacks", [
        ((24, 24, 24, 24), 60, 1, True),
        ((24, 24, 24, 24), 7, 4, False),  # fewer than 8 rows
        ((24, 24, 24, 17), 60, 4, False),  # x @ W fails the row probe: n % 8 == 1
        ((24, 32, 24, 24), 60, 1, False),  # dpre @ W.T of the 32-wide g2 fails it
        ((24, 32, 24, 24), 60, 4, True),  # from g4 no input gradient is computed
        ((24, 24, 24, 1), 60, 4, False),  # a one-wide grad would sum pairwise
    ])
    def test_gate_stacks_only_exact_shapes(self, widths, t, first_group, stacks):
        config = ModelConfig(
            extractor=ExtractorConfig(20, widths, (2, 1, 1, 0)),
            lde=LdeConfig(num_components=3, component_dim=widths[3]),
            subnet=SubnetConfig(front_dims=(5, 4), back_dims=(4, 3), num_domains=2),
            num_speakers=3,
        )
        model = Model.create(config, seed=0)
        in_dim = 20 if first_group == 1 else widths[first_group - 2]
        _, cache = model.encode(np.ones((3, t, in_dim)), first_group=first_group)
        (_, _, windows), = cache
        assert (len(windows) == 1) is stacks


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
        for table in (store, {}):
            rows = FrozenPrefix(model, table).crop_rows(crops, keys)
            assert len(rows) == len(crops)
            for crop, got in zip(crops, rows):
                want = reference_g3(model, crop)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                # and g4 from the g3 rows is the full trunk over the crop
                full, _ = model.extractor_forward(crop)
                from_g4, _ = model.extractor_forward(got, first_group=4)
                assert from_g4.tobytes() == full.tobytes()

    def test_tabled_crops_read_the_table(self, generic_model, rng):
        """At default-like shapes the middle rows of a tabled crop are the
        table's rows, so the edge path, not the whole-crop path, made them."""
        store = {"a": rng.normal(size=(40, 4))}
        prefix = FrozenPrefix(generic_model, store)
        assert prefix.halo == 1  # micro context (0, 1, 0, 0)
        prefix.table["a"] = prefix.table["a"] + 1.0  # mark the table's rows
        rows = prefix.crop_rows([store["a"][5:25], store["a"][0:20]], [("a", 5), ("a", 0)])
        assert np.array_equal(rows[0][1:-1], prefix.table["a"][6:24])
        assert np.array_equal(rows[1][1:-1], prefix.table["a"][1:19])


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

    def test_failed_write_keeps_previous_file(self, micro_model, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, micro_model, "pretrain", 1)
        before = path.read_bytes()

        def crash(src, dst):
            assert Path(src).read_bytes()[:4] == b"XDCK"  # the new bytes are on disk
            raise OSError("simulated crash before the rename")

        monkeypatch.setattr(fileio.os, "replace", crash)
        with pytest.raises(FileFormatError):
            save_checkpoint(path, micro_model, "adapt", 2)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_loaded_model_runs_forward(self, micro_model, tmp_path, rng):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, micro_model, "adapt", 3)
        loaded, _ = load_checkpoint(path)
        x = rng.normal(size=(6, 4))
        emb_expected, _ = micro_model.encode([x], mode="eval")
        emb_loaded, _ = loaded.encode([x], mode="eval")
        assert np.array_equal(emb_expected, emb_loaded)
