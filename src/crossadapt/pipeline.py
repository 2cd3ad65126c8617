"""The three training stages and their batching plumbing.

Stage order is pretrain (everything, warmup schedule, pooled domains), then
finetune (clean data only, groups 1-3 frozen, constant LR at a tenth of the
pretrain peak), then adapt (fresh per-domain subnets and classifiers on top
of the frozen backbone; group 4 and pooling follow the inverse-decay
schedule while subnets and classifiers run ten times hotter).

All randomness is drawn from substreams derived from the stage seed, so a
stage rerun from the same checkpoint and seed reproduces its checkpoint
byte for byte.
"""

from __future__ import annotations

import logging
from pathlib import Path

import numpy as np

from .config import AppConfig, StageConfig
from .corpus import CorpusManifest, read_features
from .errors import ContractError, NumericError, StructuralError
from .losses import DomainBatch, cross_entropy_grad, total_loss
from .model import Model, load_checkpoint, save_checkpoint, set_trainable, trainable_names
from .numkit import OptimState, adam_step, inv_decay_lr, noam_lr, noam_peak
from .rng import substream

log = logging.getLogger("crossadapt")

__all__ = [
    "load_feature_store",
    "crop_utterance",
    "sample_supervised",
    "sample_batches",
    "pretrain",
    "finetune",
    "adapt",
]


def load_feature_store(manifest: CorpusManifest, root) -> dict:
    """Read every train-split feature file once; training samples only from
    the train split, and the corpus is desk-scale."""
    root = Path(root)
    return {r.utt_id: read_features(root / r.relpath) for r in manifest.select(split="train")}


def crop_utterance(features: np.ndarray, crop_frames: int, rng) -> np.ndarray:
    """Random fixed-length crop; utterances shorter than the crop are
    extended by replicating their last frame."""
    t = features.shape[0]
    if t >= crop_frames:
        offset = int(rng.integers(0, t - crop_frames + 1))
        return features[offset : offset + crop_frames]
    pad = np.repeat(features[-1:], crop_frames - t, axis=0)
    return np.vstack([features, pad])


def _draw(records, store, rng, n, crop_frames):
    idx = rng.integers(0, len(records), size=n)
    feats = [crop_utterance(store[records[i].utt_id], crop_frames, rng) for i in idx]
    labels = np.array([records[i].speaker_id for i in idx])
    return feats, labels


def sample_supervised(manifest, store, rng, cfg: StageConfig, clean_only: bool):
    """Uniform-with-replacement batch for the softmax-head stages."""
    if clean_only:
        records = manifest.select(domain_id=0, split="train")
    else:
        records = manifest.select(split="train")
    if not records:
        raise ContractError("train split is empty")
    return _draw(records, store, rng, cfg.batch_size, cfg.crop_frames)


def sample_batches(manifest, store, rng, cfg: StageConfig) -> DomainBatch:
    """One adaptation batch: clean samples plus one batch per target domain."""
    src_records = manifest.select(domain_id=0, split="train")
    if not src_records:
        raise ContractError("clean train split is empty")
    src, src_labels = _draw(src_records, store, rng, cfg.batch_size, cfg.crop_frames)
    tgt, tgt_labels = [], []
    for d in range(1, manifest.num_domains):
        records = manifest.select(domain_id=d, split="train")
        if not records:
            raise ContractError(f"domain {d} train split is empty")
        f, y = _draw(records, store, rng, cfg.tgt_batch_size, cfg.crop_frames)
        tgt.append(f)
        tgt_labels.append(y)
    return DomainBatch(src, src_labels, tgt, tgt_labels)


# -- the training loop ------------------------------------------------------------


def _train(model, stage, cfg: StageConfig, step, lr_at, out_path):
    """The one optimizer loop of all three stages; returns the trained model.

    ``step(k, rng, grads)`` samples step k's batch from ``rng``, accumulates
    the gradients of its objective into ``grads`` and returns ``(loss,
    detail)``, where ``detail`` is extra text for the progress log.
    ``lr_at(k)`` is the base learning rate of step k. The checkpoint is
    written once, after the last step.
    """
    groups = set_trainable(model, stage)
    names = trainable_names(groups)
    optim = OptimState()
    rng = substream(cfg.seed, stage, "batches")
    log_every = max(1, cfg.steps // 10)
    loss_avg = None
    for k in range(cfg.steps):
        grads = {}
        loss, detail = step(k, rng, grads)
        if not np.isfinite(loss):
            raise NumericError(f"{stage}: non-finite loss at step {k + 1}")
        adam_step(groups, {n: grads[n] for n in names}, optim, lr_at(k))
        loss_avg = loss if loss_avg is None else 0.9 * loss_avg + 0.1 * loss
        if (k + 1) % log_every == 0:
            log.info("%s step %d/%d loss %.4f%s", stage, k + 1, cfg.steps, loss_avg, detail)
    save_checkpoint(out_path, model, stage, cfg.steps)
    return model


def _supervised_step(model, manifest, store, cfg: StageConfig, clean_only: bool, down_to: int):
    """Softmax-head step of pretrain and finetune; the trunk backward stops
    at group ``down_to``."""

    def step(k, rng, grads):
        feats, labels = sample_supervised(manifest, store, rng, cfg, clean_only=clean_only)
        embs, caches = zip(*(model.encode(x) for x in feats))
        logits, head_cache = model.head_forward(np.vstack(embs))
        loss, dlogits = cross_entropy_grad(logits, labels)
        demb = model.head_backward(dlogits, head_cache, grads)
        for i, cache in enumerate(caches):
            model.encode_backward(demb[i], cache, grads, down_to_group=down_to)
        return loss, ""

    return step


def pretrain(corpus_root, app: AppConfig, out_path):
    """Train backbone + pooling + softmax head on all domains pooled."""
    corpus_root = Path(corpus_root)
    manifest = CorpusManifest.load(corpus_root / "manifest.tsv")
    speakers = {r.speaker_id for r in manifest.select(split="train")}
    if len(speakers) < 2:
        raise ContractError("pretraining needs at least 2 speakers in the train split")
    if manifest.num_domains < 3:
        raise ContractError("corpus must provide the clean domain plus at least 2 targets")
    cfg = app.pretrain
    model = Model.create(
        app.model_config(manifest.num_speakers, manifest.num_domains - 1),
        seed=cfg.seed,
        with_subnets=False,
    )
    store = load_feature_store(manifest, corpus_root)
    _seed_dictionary(model, manifest, store, cfg.seed)
    step = _supervised_step(model, manifest, store, cfg, clean_only=False, down_to=1)
    return _train(model, "pretrain", cfg, step, lambda k: noam_lr(k + 1, cfg.schedule), out_path)


def _seed_dictionary(model, manifest, store, seed: int) -> None:
    """Replace the random dictionary with K extractor activations of random
    training frames, so every component starts inside the populated region of
    activation space instead of centered on the origin."""
    records = manifest.select(split="train")
    rng = substream(seed, "pretrain", "dict")
    rows = []
    for idx in rng.integers(0, len(records), size=model.config.lde.num_components):
        feats = store[records[int(idx)].utt_id]
        acts, _ = model.extractor_forward(feats, mode="eval")
        rows.append(acts[int(rng.integers(0, acts.shape[0]))])
    model.params["lde.dict"] = np.asarray(rows, dtype=np.float64).astype(np.float32).astype(np.float64)


def finetune(init_ckpt, corpus_root, app: AppConfig, out_path):
    """Continue on clean data only, first three groups frozen, LR at a tenth
    of the pretrain schedule's peak."""
    model, meta = load_checkpoint(init_ckpt)
    if meta.stage != "pretrain":
        raise ContractError(f"finetune expects a pretrain checkpoint, got {meta.stage}")
    corpus_root = Path(corpus_root)
    manifest = CorpusManifest.load(corpus_root / "manifest.tsv")
    cfg = app.finetune
    lr = 0.1 * noam_peak(app.pretrain.schedule)
    store = load_feature_store(manifest, corpus_root)
    step = _supervised_step(model, manifest, store, cfg, clean_only=True, down_to=4)
    return _train(model, "finetune", cfg, step, lambda k: lr, out_path)


def adapt(init_ckpt, corpus_root, app: AppConfig, out_path):
    """Multi-target adaptation: fresh subnets/classifiers over the frozen
    backbone, trained under the scheduled composite objective."""
    model, meta = load_checkpoint(init_ckpt)
    if meta.stage != "finetune":
        raise ContractError(f"adapt expects a finetune checkpoint, got {meta.stage}")
    corpus_root = Path(corpus_root)
    manifest = CorpusManifest.load(corpus_root / "manifest.tsv")
    num_targets = manifest.num_domains - 1
    if num_targets < 2:
        raise ContractError("adaptation needs at least 2 target domains")
    if num_targets != model.config.subnet.num_domains:
        raise StructuralError(
            f"checkpoint was built for {model.config.subnet.num_domains} target domains, "
            f"corpus has {num_targets}"
        )
    cfg = app.adapt
    model.ensure_subnets(cfg.seed)
    store = load_feature_store(manifest, corpus_root)

    def progress(k):
        # runs exactly 0 -> 1 across the configured steps
        return k / (cfg.steps - 1) if cfg.steps > 1 else 1.0

    def step(k, rng, grads):
        batch = sample_batches(manifest, store, rng, cfg)
        out = total_loss(
            batch, model, progress(k),
            kernel=cfg.kernel, bandwidth=cfg.bandwidth,
            steepness=cfg.schedule.steepness, grads=grads, down_to_group=4,
        )
        detail = f" (dis {out.dis:.4f} mmd {out.mmd:.4f} cls {out.cls:.4f} mu {out.mu:.3f})"
        return out.total, detail

    return _train(model, "adapt", cfg, step,
                  lambda k: inv_decay_lr(progress(k), cfg.schedule), out_path)
