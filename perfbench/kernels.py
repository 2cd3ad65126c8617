"""Kernel timings at the shapes the default recipe feeds each function.

Every kernel is timed through the package's public function on inputs drawn
from the run seed.  Shapes follow the default config: 60-frame crops of
20-dim features, four 24-wide groups with context (2, 1, 1, 0), 8 dictionary
components, 64/64/32/32 subnets over 3 target domains, a clean batch of 32
and target batches of 24, and 800 trials per domain at evaluation.
``flop`` is computed from the shapes with the formula beside each kernel;
splicing only gathers and scatters, so the forward splice has no flop count.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

CROP = 60
INPUT_DIM = 20
WIDTH = 24
CONTEXT = (2, 1, 1, 0)
COMPONENTS = 8
FRONT, BACK = (64, 64), (32, 32)
SRC_BATCH, TGT_BATCH = 32, 24
TARGETS = 3
SPEAKERS = 20
TRIALS, TARGET_TRIALS = 800, 40


def _time_us(fn, budget_s):
    """Median microseconds per call over batches filling ``budget_s``."""
    fn()
    start = perf_counter()
    fn()
    once = max(perf_counter() - start, 1e-7)
    per_batch = max(1, int(budget_s / 9 / once))
    samples = []
    for _ in range(9):
        start = perf_counter()
        for _ in range(per_batch):
            fn()
        samples.append((perf_counter() - start) / per_batch)
    return 1e6 * statistics.median(samples)


def _affine_flop(rows, fan_in, fan_out):
    return 2 * rows * fan_in * fan_out + rows * fan_out


def kernel_cases(mods, seed):
    """Yield ``(name, call, flop or None)`` for every kernel."""
    model_mod, losses, numkit, evaluation, corpus = (
        mods["model"], mods["losses"], mods["numkit"], mods["evaluation"], mods["corpus"],
    )
    rng = np.random.default_rng(seed)
    dims = [INPUT_DIM, WIDTH, WIDTH, WIDTH]
    spliced = [(2 * c + 1) * d for c, d in zip(CONTEXT, dims)]

    for g in (1, 2, 3):
        x = rng.normal(size=(CROP, dims[g - 1]))
        yield f"splice_fwd.g{g}", lambda x=x, c=CONTEXT[g - 1]: model_mod.splice_forward(x, c), None
    # recipe runs the spliced backward only for g2 and g3 (same shape);
    # pretraining never needs the gradient of the g1 input frames
    _, sp_cache = model_mod.splice_forward(rng.normal(size=(CROP, WIDTH)), CONTEXT[1])
    dy = rng.normal(size=(CROP, spliced[1]))
    yield "splice_bwd.g2", lambda: model_mod.splice_backward(dy, sp_cache), CROP * spliced[1]

    for g in range(4):
        x = rng.normal(size=(CROP, spliced[g]))
        w = rng.normal(size=(spliced[g], WIDTH))
        b = rng.normal(size=WIDTH)
        yield (f"affine_fwd.g{g + 1}", lambda x=x, w=w, b=b: model_mod.affine_forward(x, w, b),
               _affine_flop(CROP, spliced[g], WIDTH))
    _, af_cache = model_mod.affine_forward(x, w, b)  # g4, the last group above
    dy4 = rng.normal(size=(CROP, WIDTH))
    yield ("affine_bwd.g4", lambda: model_mod.affine_backward(dy4, af_cache),
           4 * CROP * spliced[3] * WIDTH + CROP * WIDTH)

    t, k, d = CROP, COMPONENTS, WIDTH
    frames = np.maximum(rng.normal(size=(t, d)), 0.0)
    dictionary = frames[rng.integers(0, t, size=k)] + 0.1 * rng.normal(size=(k, d))
    log_scale = 0.1 * rng.normal(size=k)
    pooled, lde_cache = model_mod.lde_pool(frames, dictionary, log_scale)
    dpool = rng.normal(size=pooled.shape)
    # residuals, squared distances, weighted residual sums; softmax over k
    yield "lde_fwd", lambda: model_mod.lde_pool(frames, dictionary, log_scale), 5 * t * k * d + 5 * t * k
    # weight gradient, residual gradient and its two reductions
    yield "lde_bwd", lambda: model_mod.lde_pool_backward(dpool, lde_cache), 9 * t * k * d + 8 * t * k

    cfg = model_mod.ModelConfig(
        extractor=model_mod.ExtractorConfig(INPUT_DIM, (WIDTH,) * 4, CONTEXT),
        lde=model_mod.LdeConfig(COMPONENTS, WIDTH),
        subnet=model_mod.SubnetConfig(FRONT, BACK, TARGETS),
        num_speakers=SPEAKERS,
    )
    net = model_mod.Model.create(cfg, seed=seed, with_subnets=True)
    emb = rng.normal(size=(SRC_BATCH, k * d))
    sub_dims = [k * d, *FRONT, *BACK]
    sub_flop = sum(_affine_flop(SRC_BATCH, i, o) for i, o in zip(sub_dims[:-1], sub_dims[1:]))
    out, sub_cache = net.subnet_forward(emb, 0, "full")
    dout = rng.normal(size=out.shape)
    yield "subnet_fwd", lambda: net.subnet_forward(emb, 0, "full"), sub_flop
    yield "subnet_bwd", lambda: net.subnet_backward(dout, None, sub_cache, {}), 2 * sub_flop

    fronts = [rng.normal(size=(SRC_BATCH, FRONT[1])) for _ in range(TARGETS)]
    pairs = TARGETS * (TARGETS - 1) // 2
    yield "discrepancy_fwd", lambda: losses.discrepancy_loss(fronts), 3 * pairs * fronts[0].size
    yield "discrepancy_bwd", lambda: losses.discrepancy_backward(fronts, 0.5), 5 * pairs * fronts[0].size

    m, n, e = SRC_BATCH, TGT_BATCH, BACK[1]
    src, tgt = rng.normal(size=(m, e)), rng.normal(size=(n, e))
    # both means, the gap and its square, then both tiled gradients
    yield "mmd_linear", lambda: losses.mmd_pair(src, tgt, "linear"), 3 * (m + n) * e + 3 * e
    # median bandwidth over the pooled pairs, three Gram matrices, two pulls
    rbf_flop = 3 * (m + n) ** 2 * e + (2 * e + 5) * (m * m + n * n + m * n) + 4 * (m * m + n * n + m * n) * e
    yield "mmd_rbf", lambda: losses.mmd_pair(src, tgt, "rbf"), rbf_flop

    groups = model_mod.set_trainable(net, "adapt")
    names = model_mod.trainable_names(groups)
    grads = {name: 1e-3 * rng.normal(size=net.params[name].shape) for name in sorted(names)}
    state = numkit.OptimState()
    size = sum(net.params[name].size for name in names)
    yield "adam_step", lambda: numkit.adam_step(groups, grads, state, 1e-6), 16 * size

    scores = np.clip(rng.normal(size=TRIALS) * 0.2, -1.0, 1.0)
    scores[:TARGET_TRIALS] += 0.3
    records = [
        evaluation.ScoreRecord(corpus.TrialPair(f"e{i}", f"t{i}", i < TARGET_TRIALS), float(min(s, 1.0)))
        for i, s in enumerate(scores)
    ]
    # two sorts, a unique and two binary searches over the trial scores
    yield "compute_eer", lambda: evaluation.compute_eer(records), int(5 * TRIALS * math.log2(TRIALS))


def time_kernels(mods, seed, budget_s=0.05):
    """``{metric name: value}`` with ``kernel.<name>.us`` and ``.flop``."""
    out = {}
    for name, call, flop in kernel_cases(mods, seed):
        out[f"kernel.{name}.us"] = _time_us(call, budget_s)
        if flop is not None:
            out[f"kernel.{name}.flop"] = float(flop)
    return out
