"""Objective-function tests against hand and brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossadapt.errors import ContractError, StructuralError
from crossadapt.losses import (
    DomainBatch,
    _mmd_eval,
    cross_entropy_grad,
    discrepancy_backward,
    discrepancy_loss,
    median_bandwidth,
    mmd_pair,
    mmd_pair_backward,
    total_loss,
)
from crossadapt.model import Model
from crossadapt.numkit import ParamGroup, OptimState, adam_step, progressive_weight

from conftest import blas_corename, default_like_config, jitter_params, micro_config, run_under_kernel
from gradcheck import grad_check


def by_domain(batch):
    """Each domain's samples of ``batch``, clean first."""
    ends = np.cumsum([len(labels) for labels in batch.labels])
    return [batch.utts[start:end] for start, end in zip([0, *ends[:-1]], ends)]


def brute_cls(batch, model):
    """Summed per-domain classifier cross-entropy, one utterance at a time."""
    total = 0.0
    for h in range(batch.num_domains):
        logits = []
        for x in by_domain(batch)[h + 1]:
            emb, _ = model.encode([x])
            back, _ = model.subnet_forward(emb, h)
            logits.append(model.classifier_forward(back, h)[0][0])
        total += cross_entropy_grad(np.array(logits), batch.labels[h + 1])[0]
    return total


def make_batch(rng, input_dim=4, num_domains=2, n_src=3, n_tgt=3, frames=4, num_speakers=3):
    src = [rng.normal(size=(frames, input_dim)) for _ in range(n_src)]
    src_y = rng.integers(0, num_speakers, size=n_src)
    tgts = [rng.normal(size=(frames, input_dim)) for _ in range(n_tgt * num_domains)]
    tgt_y = [rng.integers(0, num_speakers, size=n_tgt) for _ in range(num_domains)]
    return DomainBatch(src + tgts, [src_y, *tgt_y])


class TestDomainBatch:
    def test_single_clean_sample_rejected(self, rng):
        with pytest.raises(StructuralError):
            DomainBatch([rng.normal(size=(3, 4))] * 3, [[0], [0, 1]])

    def test_single_target_sample_rejected(self, rng):
        with pytest.raises(StructuralError):
            DomainBatch([rng.normal(size=(3, 4))] * 3, [[0, 1], [0]])

    def test_label_count_mismatch_rejected(self, rng):
        with pytest.raises(StructuralError):
            DomainBatch([rng.normal(size=(3, 4))] * 4, [[0, 1, 2], [0, 1]])

    def test_no_target_domain_rejected(self, rng):
        with pytest.raises(StructuralError):
            DomainBatch([rng.normal(size=(3, 4))] * 2, [[0, 1]])

    def test_crop_stack_of_another_size_rejected(self, rng):
        batch = make_batch(rng)
        with pytest.raises(StructuralError):
            DomainBatch(np.stack(batch.utts[:3]), batch.labels)

    def test_out_of_range_label_rejected(self, rng):
        batch = make_batch(rng, num_speakers=3)
        batch.labels[1][0] = 7
        with pytest.raises(ContractError):
            batch.validate(num_speakers=3, num_domains=2)

    def test_domain_count_mismatch_rejected(self, rng):
        batch = make_batch(rng, num_domains=2)
        with pytest.raises(StructuralError):
            batch.validate(num_speakers=3, num_domains=3)


class TestDiscrepancy:
    def test_identical_outputs_zero(self, rng):
        a = rng.normal(size=(4, 5))
        assert discrepancy_loss([a, a.copy(), a.copy()]) == 0.0

    def test_two_domain_hand_value(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[0.0, 4.0]])
        assert discrepancy_loss([a, b]) == pytest.approx(1.5, abs=1e-12)

    def test_three_domain_matches_pair_enumeration(self, rng):
        fronts = [rng.normal(size=(5, 4)) for _ in range(3)]
        brute = 0.0
        pairs = 0
        for i in range(3):
            for j in range(i + 1, 3):
                brute += np.abs(fronts[i] - fronts[j]).mean()
                pairs += 1
        assert discrepancy_loss(fronts) == pytest.approx(brute / pairs, abs=1e-12)

    def test_symmetric_under_relabeling(self, rng):
        fronts = [rng.normal(size=(3, 4)) for _ in range(4)]
        base = discrepancy_loss(fronts)
        assert discrepancy_loss(fronts[::-1]) == pytest.approx(base, abs=1e-12)
        assert base > 0.0

    def test_single_domain_rejected(self, rng):
        with pytest.raises(ContractError):
            discrepancy_loss([rng.normal(size=(2, 2))])

    def test_gradient_matches_finite_differences(self, rng):
        point = {f"f{i}": rng.normal(size=(3, 4)) for i in range(3)}

        def f(pt):
            fronts = [pt[f"f{i}"] for i in range(3)]
            grads = discrepancy_backward(fronts)
            return discrepancy_loss(fronts), {f"f{i}": grads[i] for i in range(3)}

        assert grad_check(f, point) < 1e-6


def rbf_oracle(x, y, bw):
    m, n = len(x), len(y)

    def k(u, v):
        return math.exp(-float(np.sum((u - v) ** 2)) / (2.0 * bw * bw))

    sxx = sum(k(x[i], x[j]) for i in range(m) for j in range(m) if i != j) / (m * (m - 1))
    syy = sum(k(y[i], y[j]) for i in range(n) for j in range(n) if i != j) / (n * (n - 1))
    if m == n:
        sxy = sum(k(x[i], y[j]) for i in range(m) for j in range(n) if i != j) / (m * (m - 1))
    else:
        sxy = sum(k(x[i], y[j]) for i in range(m) for j in range(n)) / (m * n)
    return sxx + syy - 2.0 * sxy


class TestMmd:
    def test_identical_sets_zero_both_kernels(self, rng):
        x = rng.normal(size=(5, 3))
        assert abs(mmd_pair(x, x.copy(), "linear")) < 1e-9
        assert abs(mmd_pair(x, x.copy(), "rbf", bandwidth=1.0)) < 1e-9

    def test_linear_hand_value(self):
        src = np.array([[0.0, 0.0], [2.0, 2.0]])
        tgt = np.array([[1.0, 0.0], [3.0, 2.0]])
        assert mmd_pair(src, tgt, "linear") == pytest.approx(1.0, abs=1e-12)

    def test_linear_translation_invariant(self, rng):
        src = rng.normal(size=(4, 3))
        tgt = rng.normal(size=(6, 3))
        shift = rng.normal(size=3)
        base = mmd_pair(src, tgt, "linear")
        assert mmd_pair(src + shift, tgt + shift, "linear") == pytest.approx(base, abs=1e-9)

    @pytest.mark.parametrize("sizes", [(6, 6), (5, 7)])
    def test_rbf_matches_bruteforce(self, rng, sizes):
        m, n = sizes
        x = rng.normal(size=(m, 3))
        y = 0.5 + rng.normal(size=(n, 3))
        got = mmd_pair(x, y, "rbf", bandwidth=1.3)
        assert got == pytest.approx(rbf_oracle(x, y, 1.3), abs=1e-12)

    def test_rbf_median_heuristic_default(self, rng):
        x = rng.normal(size=(4, 2))
        y = rng.normal(size=(4, 2))
        bw = median_bandwidth(x, y)
        assert mmd_pair(x, y, "rbf") == pytest.approx(mmd_pair(x, y, "rbf", bandwidth=bw), abs=1e-15)

    def test_median_bandwidth_values(self):
        assert median_bandwidth(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])) == pytest.approx(5.0)
        same = np.ones((3, 2))
        assert median_bandwidth(same, same) == 1.0

    @given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 40), st.booleans(),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_median_bandwidth_equals_the_full_distance_matrix(self, m, n, d, ties, seed):
        """Only the pairs i < j are formed, in the order the upper triangle
        of the full [n, n] matrix gave them, so the median is bit-equal."""
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=(m, d)), rng.normal(size=(n, d))
        if ties:  # repeated points and repeated distances
            x[::2] = x[0]
            y = np.round(y)
        pooled = np.vstack([x, y])
        diff = pooled[:, None, :] - pooled[None, :, :]
        upper = np.sqrt(np.sum(diff * diff, axis=-1))[np.triu_indices(len(pooled), k=1)]
        med = float(np.median(upper)) if upper.size else 0.0
        got = median_bandwidth(x, y)
        assert np.float64(got).tobytes() == np.float64(med if med > 0.0 else 1.0).tobytes()

    def test_bad_bandwidth_rejected(self, rng):
        x = rng.normal(size=(3, 2))
        with pytest.raises(ContractError):
            mmd_pair(x, x, "rbf", bandwidth=0.0)

    def test_unknown_kernel_rejected(self, rng):
        x = rng.normal(size=(3, 2))
        with pytest.raises(ContractError):
            mmd_pair(x, x, "cubic")

    def test_rbf_needs_two_per_side(self, rng):
        with pytest.raises(ContractError):
            mmd_pair(rng.normal(size=(1, 2)), rng.normal(size=(3, 2)), "rbf", bandwidth=1.0)

    def test_unbiased_on_same_distribution(self):
        # fixed bandwidth keeps the estimator a U-statistic, hence unbiased
        rng = np.random.default_rng(77)
        vals = []
        for _ in range(200):
            x = rng.normal(size=(8, 2))
            y = rng.normal(size=(8, 2))
            vals.append(mmd_pair(x, y, "rbf", bandwidth=1.0))
        vals = np.array(vals)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean()) < 3.0 * se

    @pytest.mark.parametrize("kernel,sizes", [("linear", (4, 6)), ("rbf", (4, 4)), ("rbf", (4, 6))])
    def test_gradients_match_finite_differences(self, rng, kernel, sizes):
        m, n = sizes
        point = {"src": rng.normal(size=(m, 3)), "tgt": 0.3 + rng.normal(size=(n, 3))}

        def f(pt):
            val = mmd_pair(pt["src"], pt["tgt"], kernel, bandwidth=1.1)
            dsrc, dtgt = mmd_pair_backward(pt["src"], pt["tgt"], kernel, bandwidth=1.1)
            return val, {"src": dsrc, "tgt": dtgt}

        assert grad_check(f, point) < 1e-6


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = np.zeros((5, 4))
        assert cross_entropy_grad(logits, [0, 1, 2, 3, 0])[0] == pytest.approx(math.log(4.0), abs=1e-12)

    def test_confident_logit_vanishes(self):
        logits = np.zeros((1, 3))
        logits[0, 1] = 20.0
        assert cross_entropy_grad(logits, [1])[0] < 1e-8

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ContractError):
            cross_entropy_grad(np.zeros((2, 3)), [0, 3])

    def test_gradient_is_softmax_minus_onehot(self, rng):
        logits = rng.normal(size=(4, 5))
        labels = np.array([1, 0, 4, 2])
        _, dlogits = cross_entropy_grad(logits, labels)
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        onehot = np.eye(5)[labels]
        assert np.allclose(dlogits, (probs - onehot) / 4.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        point = {"logits": rng.normal(size=(3, 4))}
        labels = np.array([2, 0, 1])

        def f(pt):
            loss, d = cross_entropy_grad(pt["logits"], labels)
            return loss, {"logits": d}

        assert grad_check(f, point) < 1e-6


class TestComposite:
    def test_cls_decomposes_per_domain(self, micro_model, rng):
        batch = make_batch(rng)
        total = total_loss(batch, micro_model, p=0.5).cls
        assert total == pytest.approx(brute_cls(batch, micro_model), abs=1e-12)

    def test_zero_classifiers_give_uniform(self, micro_model, rng):
        batch = make_batch(rng)
        for h in range(2):
            micro_model.params[f"cls{h}.W"][:] = 0.0
            micro_model.params[f"cls{h}.b"][:] = 0.0
        assert total_loss(batch, micro_model, p=0.5).cls == pytest.approx(2.0 * math.log(3.0), abs=1e-12)

    def test_mmd_loss_decomposes_per_domain(self, micro_model, rng):
        batch = make_batch(rng)
        total = total_loss(batch, micro_model, p=0.5, kernel="linear").mmd
        brute = 0.0
        src_utts, *tgt_utts = by_domain(batch)
        src = np.vstack([micro_model.encode([x])[0] for x in src_utts])
        for h in range(2):
            tgt = np.vstack([micro_model.encode([x])[0] for x in tgt_utts[h]])
            sb, _ = micro_model.subnet_forward(src, h)
            tb, _ = micro_model.subnet_forward(tgt, h)
            brute += mmd_pair(sb, tb, "linear")
        assert total == pytest.approx(brute, abs=1e-12)

    def test_progress_zero_is_pure_classification(self, micro_model, rng):
        batch = make_batch(rng)
        out = total_loss(batch, micro_model, p=0.0)
        assert out.mu == 0.0
        assert out.total == out.cls
        assert out.cls == pytest.approx(brute_cls(batch, micro_model), abs=1e-12)

    @pytest.mark.parametrize("kernel", ["linear", "rbf"])
    def test_tied_subnets_identical_samples_reduce_to_cls(self, micro_model, rng, kernel):
        src = [rng.normal(size=(4, 4)) for _ in range(3)]
        labels = np.array([0, 1, 2])
        for name in list(micro_model.params):
            if name.startswith("sub0."):
                micro_model.params[name.replace("sub0.", "sub1.")][:] = micro_model.params[name]
        batch = DomainBatch(src + [x.copy() for x in src] * 2, [labels] * 3)
        out = total_loss(batch, micro_model, p=0.7, kernel=kernel, bandwidth=1.0)
        assert out.dis == 0.0
        assert abs(out.mmd) < 1e-9
        assert out.total == pytest.approx(out.cls, abs=1e-9)

    def test_crop_stack_gives_the_bytes_of_the_sample_lists(self, micro_model, rng):
        """A batch that carries its samples as one stack, as the adapt stage
        builds it, has the loss and grads of the same batch as lists."""
        batch = make_batch(rng, frames=9)
        stacked = DomainBatch(np.stack(batch.utts), batch.labels)
        grads, stacked_grads = {}, {}
        out = total_loss(batch, micro_model, p=0.6, grads=grads)
        assert total_loss(stacked, micro_model, p=0.6, grads=stacked_grads) == out
        assert set(grads) == set(stacked_grads)
        for name in grads:
            assert grads[name].tobytes() == stacked_grads[name].tobytes(), name

    def test_breakdown_recomposes(self, micro_model, rng):
        batch = make_batch(rng)
        out = total_loss(batch, micro_model, p=0.5)
        assert out.total == pytest.approx(out.mu * (out.mmd + out.dis) + out.cls, abs=1e-12)
        assert out.dis >= 0.0 and out.cls >= 0.0

    def test_bad_progress_rejected(self, micro_model, rng):
        batch = make_batch(rng)
        with pytest.raises(ContractError):
            total_loss(batch, micro_model, p=1.5)

    def test_full_gradient_matches_finite_differences(self, rng):
        cfg = micro_config()
        model = Model.create(cfg, seed=9, with_subnets=True)
        batch = make_batch(rng, n_src=2, n_tgt=2, frames=3)
        names = [n for n in model.params if not n.startswith("head.")]
        # jitter away from ReLU kinks and |.| ties so the loss is smooth at
        # the evaluation point
        point = {n: model.params[n] + 0.1 * rng.normal(size=model.params[n].shape) for n in names}

        def f(pt):
            for n in names:
                model.params[n][...] = pt[n]
            grads = {}
            out = total_loss(batch, model, p=0.5, grads=grads)
            return out.total, {n: grads[n] for n in names}

        assert grad_check(f, point) < 1e-4

    def test_classifier_only_training_decreases_cls(self, rng):
        cfg = micro_config()
        model = Model.create(cfg, seed=3, with_subnets=True)
        batch = make_batch(rng, n_src=2, n_tgt=4, frames=3)
        names = [n for n in model.params if n.startswith("cls")]
        group = ParamGroup("cls", {n: model.params[n] for n in names}, 1.0, False)
        state = OptimState()
        prev = total_loss(batch, model, p=0.0).cls
        for _ in range(50):
            grads = {}
            total_loss(batch, model, p=0.0, grads=grads)
            adam_step([group], {n: grads[n] for n in names}, state, base_lr=0.005, weight_decay=0.0)
            cur = total_loss(batch, model, p=0.0).cls
            assert cur < prev + 1e-12
            prev = cur


def per_domain_total_loss(batch, model, p, kernel="linear", bandwidth=None, grads=None):
    """``total_loss`` as it ran before the subnets were stacked: each domain's
    subnet runs alone, once over the clean rows and once over its own, and
    ``dsrc`` sums the domains' clean gradients in order."""
    num_domains = batch.num_domains
    mu = progressive_weight(p, 10.0)
    cuts = np.cumsum([len(labels) for labels in batch.labels])[:-1]
    embs, enc_cache = model.encode(batch.utts)
    src_embs, *tgt_embs = np.split(embs, cuts)
    src_sub = [model.subnet_forward(src_embs, h) for h in range(num_domains)]
    dis = discrepancy_loss([cache["front"] for _, cache in src_sub])
    tgt_sub, mmd_vals, mmd_grads = [], [], []
    cls_total = 0.0
    for h in range(num_domains):
        back, cache = model.subnet_forward(tgt_embs[h], h)
        logits, cls_cache = model.classifier_forward(back, h)
        ce, dlogits = cross_entropy_grad(logits, batch.labels[h + 1])
        cls_total += ce
        value, dsrc, dtgt = _mmd_eval(src_sub[h][0], back, kernel, bandwidth)
        mmd_vals.append(value)
        mmd_grads.append((dsrc, dtgt))
        tgt_sub.append((cache, cls_cache, dlogits))
    mmd_total = float(sum(mmd_vals))
    out = (dis, mmd_total, cls_total, mu, mu * (mmd_total + dis) + cls_total)
    dis_grads = discrepancy_backward([cache["front"] for _, cache in src_sub], upstream=mu)
    dembs = np.zeros_like(embs)
    dsrc_embs, *dtgt_embs = np.split(dembs, cuts)
    for h in range(num_domains):
        sub_cache, cls_cache, dlogits = tgt_sub[h]
        dsrc_back, dtgt_back = mmd_grads[h]
        dback = mu * dtgt_back + model.classifier_backward(dlogits, cls_cache, grads)
        dtgt_embs[h][...] = model.subnet_backward(dback, None, sub_cache, grads)
        dsrc_embs += model.subnet_backward(mu * dsrc_back, dis_grads[h], src_sub[h][1], grads)
    model.encode_backward(dembs, enc_cache, grads)
    return out, dembs


# (config, clean count, target counts): equal counts make one stacked target
# pass, ragged ones a pass per count
STACK_CASES = [
    ("micro", 3, (3, 3)), ("micro", 2, (2, 3)), ("micro", 4, (3, 3, 3)), ("micro", 3, (2, 4, 2)),
    ("micro", 2, (3, 3, 3, 3)), ("micro", 3, (2, 3, 4, 3)), ("default", 5, (4, 4, 4)), ("default", 4, (2, 3, 2)),
]


def assert_stacked_equals_per_domain(config, n_src, counts, kernel, seed=0):
    """``total_loss`` gives the per-domain form's loss parts, every grad and
    the embedding gradient of every clean and target row, bit for bit."""
    num_domains = len(counts)
    if config == "micro":
        cfg = micro_config(num_domains=num_domains)
    else:
        cfg = default_like_config()
        cfg = type(cfg)(cfg.extractor, cfg.lde, type(cfg.subnet)(cfg.subnet.front_dims, cfg.subnet.back_dims,
                                                                   num_domains), cfg.num_speakers)
    model = jitter_params(Model.create(cfg, seed=seed, with_subnets=True))
    rng = np.random.default_rng(seed)
    utts = rng.normal(size=(n_src + sum(counts), 9, cfg.extractor.input_dim))
    labels = [rng.integers(0, cfg.num_speakers, size=n) for n in (n_src, *counts)]
    batch = DomainBatch(utts, labels)
    bandwidth = 1.3 if kernel == "rbf" else None
    seen = []
    encode_backward = model.encode_backward

    def record(demb, cache, grads):
        seen.append(demb.copy())
        encode_backward(demb, cache, grads)

    model.encode_backward = record
    grads, ref_grads = {}, {}
    out = total_loss(batch, model, p=0.6, kernel=kernel, bandwidth=bandwidth, grads=grads)
    ref, ref_dembs = per_domain_total_loss(batch, model, 0.6, kernel, bandwidth, ref_grads)
    where = (config, n_src, counts, kernel)
    assert (out.dis, out.mmd, out.cls, out.mu, out.total) == ref, where
    assert seen[0].tobytes() == ref_dembs.tobytes(), where
    assert set(grads) == set(ref_grads), where
    for name in ref_grads:
        assert grads[name].tobytes() == ref_grads[name].tobytes(), (where, name)


def assert_stacked_equals_per_domain_everywhere():
    for case in STACK_CASES:
        for kernel in ("linear", "rbf"):
            assert_stacked_equals_per_domain(*case, kernel)


class TestStackedSubnets:
    @pytest.mark.parametrize("kernel", ["linear", "rbf"])
    @pytest.mark.parametrize("config,n_src,counts", STACK_CASES)
    def test_one_pass_per_count_equals_the_per_domain_passes(self, config, n_src, counts, kernel):
        assert_stacked_equals_per_domain(config, n_src, counts, kernel)

    def test_under_another_blas_kernel(self):
        """The equality rests on each item of a batched product making the
        per-domain product's BLAS call, so it holds on the other kernel
        too: Haswell's, or SkylakeX's where Haswell's are the default."""
        code = "import test_losses\ntest_losses.assert_stacked_equals_per_domain_everywhere()\n"
        for kernel in [k for k in ("Haswell", "SkylakeX") if k != blas_corename()]:
            if run_under_kernel(kernel, code) is not None:
                return
        pytest.skip(f"the host runs neither Haswell's nor SkylakeX's kernels but {blas_corename()}")

    def test_the_stacked_pass_reads_the_current_weights(self, generic_model, rng):
        """The optimizer updates a subnet tensor in place, and a caller may
        bind a new array to its name: a pass through every subnet reads the
        weights as they are now either way."""
        emb = rng.normal(size=(4, 8))
        generic_model.params["sub1.front.0.W"] -= 0.25
        generic_model.params["sub0.back.1.b"] = generic_model.params["sub0.back.1.b"] + 1.0
        out, cache = generic_model.subnet_forward(emb, range(2))
        for h in range(2):
            alone, alone_cache = generic_model.subnet_forward(emb, h)
            assert out[h].tobytes() == alone.tobytes()
            assert cache["front"][h].tobytes() == alone_cache["front"].tobytes()

    def test_one_domain_and_a_sequence_of_one_agree(self, generic_model, rng):
        emb = rng.normal(size=(5, 8))
        alone, cache = generic_model.subnet_forward(emb, 1)
        (stacked,), stacked_cache = generic_model.subnet_forward(emb, [1])
        assert alone.tobytes() == stacked.tobytes()
        assert cache["front"].tobytes() == stacked_cache["front"][0].tobytes()
        dout = rng.normal(size=alone.shape)
        grads, stacked_grads = {}, {}
        demb = generic_model.subnet_backward(dout, None, cache, grads)
        stacked_demb = generic_model.subnet_backward(dout[None], None, stacked_cache, stacked_grads)
        assert demb.tobytes() == stacked_demb.tobytes()
        assert grads.keys() == stacked_grads.keys()
        for name in grads:
            assert grads[name].tobytes() == stacked_grads[name].tobytes(), name
