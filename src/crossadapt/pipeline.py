"""The three training stages and their batching plumbing.

Stage order is pretrain (everything, warmup schedule, pooled domains), then
finetune (clean data only, groups 1-3 frozen, constant LR at a tenth of the
pretrain peak), then adapt (fresh per-domain subnets and classifiers on top
of the frozen backbone; group 4 and pooling follow the inverse-decay
schedule while subnets and classifiers run ten times hotter).

All randomness is drawn from substreams derived from the stage seed, so a
stage rerun from the same checkpoint and seed reproduces its checkpoint
byte for byte.

A step's crops are one stack [N x L x D] (every crop has ``crop_frames``
rows, padded ones too), and the trainable trunk runs over the stack once
per batch, not once per crop (``Model.encode``; bit-equal, see
``model``).  Each stage selects the train records it samples from once, at
stage start.

Finetune and adapt never train g1-g3, so their batches hold each crop's g3
rows (``model.FrozenPrefix``) and the trunk runs from g4.  At stage start
they table g1-g3 over the train utterances they sample from when that
pays: a tabled crop runs g1-g3 over its 4R edge-window frames instead of
its L frames, so the table is built when n_crops * (L - 4R) exceeds the
stage's train frame total.  The rule reads only the config and the
manifest, and a table changes no byte, only the time and memory a stage
takes.

A step allocates and frees numpy temporaries of a few hundred KB; the CLI
has glibc keep those pages between steps (``cli._keep_freed_pages``), so
a larger stacked pass does not pay for them in page faults.
"""

from __future__ import annotations

import logging
from pathlib import Path

import numpy as np

from .config import AppConfig, StageConfig
from .corpus import CorpusManifest, read_features
from .errors import ContractError, FileFormatError, NumericError, StructuralError
from .losses import DomainBatch, cross_entropy_grad, total_loss
from .model import (
    FROZEN_GROUPS,
    FrozenPrefix,
    Model,
    load_checkpoint,
    save_checkpoint,
    set_trainable,
    trainable_names,
)
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


def crop_utterance(features: np.ndarray, crop_frames: int, rng):
    """Random fixed-length crop and its offset. An utterance shorter than the
    crop is extended by replicating its last frame; its offset is None."""
    t = features.shape[0]
    if t >= crop_frames:
        offset = int(rng.integers(0, t - crop_frames + 1))
        return features[offset : offset + crop_frames], offset
    pad = np.repeat(features[-1:], crop_frames - t, axis=0)
    return np.vstack([features, pad]), None


def _draw(records, store, rng, n, crop_frames):
    """``n`` crops drawn with replacement: their frames, their
    ``(utt_id, offset)`` keys and their speaker labels."""
    idx = rng.integers(0, len(records), size=n)
    feats, keys = [], []
    for i in idx:
        crop, offset = crop_utterance(store[records[i].utt_id], crop_frames, rng)
        feats.append(crop)
        keys.append((records[i].utt_id, offset))
    labels = np.array([records[i].speaker_id for i in idx])
    return feats, keys, labels


def _inputs(draws, prefix):
    """Every crop of the step as one stack [N x L x D] in draw order, or
    with a frozen prefix their g3 rows."""
    feats = [f for fs, _, _ in draws for f in fs]
    if prefix is None:
        return np.stack(feats)
    return prefix.crop_rows(feats, [k for _, keys, _ in draws for k in keys])


def sample_supervised(records, store, rng, cfg: StageConfig, prefix=None):
    """Uniform-with-replacement batch from ``records`` for the softmax-head
    stages; with a ``FrozenPrefix`` the batch holds each crop's g3 rows."""
    if not records:
        raise ContractError("train split is empty")
    draw = _draw(records, store, rng, cfg.batch_size, cfg.crop_frames)
    return _inputs([draw], prefix), draw[2]


def sample_batches(domain_records, store, rng, cfg: StageConfig, prefix=None) -> DomainBatch:
    """One adaptation batch: clean samples plus one batch per target domain,
    drawn from each domain's train records (clean first); with a
    ``FrozenPrefix`` it holds each crop's g3 rows."""
    for d, records in enumerate(domain_records):
        if not records:
            raise ContractError(f"domain {d} train split is empty")
    draws = [_draw(records, store, rng, n, cfg.crop_frames)
             for records, n in zip(domain_records, _draw_sizes(cfg, len(domain_records)))]
    crops = _inputs(draws, prefix)
    src, *tgt = np.split(crops, np.cumsum([len(labels) for _, _, labels in draws])[:-1])
    src_labels, *tgt_labels = [labels for _, _, labels in draws]
    return DomainBatch(src, src_labels, tgt, tgt_labels, crops)


def _draw_sizes(cfg: StageConfig, draws: int):
    """Crops per draw of a step: the batch size, then the target batch size
    for each target domain."""
    return [cfg.batch_size] + [cfg.tgt_batch_size] * (draws - 1)


def _sampled_records(manifest, stage: str):
    """The train records each draw of a ``stage`` step samples from, one
    list per draw, selected once per stage: pretrain pools every domain,
    finetune takes the clean domain and adapt each domain apart, clean
    first."""
    if stage == "adapt":
        return [manifest.select(domain_id=d, split="train") for d in range(manifest.num_domains)]
    return [manifest.select(domain_id=0 if stage == "finetune" else None, split="train")]


def _table_pays(cfg: StageConfig, domain_records, extractor) -> bool:
    """Whether the stage tables g1-g3 over its train utterances.

    A crop read from the table runs g1-g3 over its two 2R-frame edge windows
    instead of its L frames, so over the stage the table saves
    ``n_crops * (L - 4R)`` frames of work; building it costs one pass over
    the stage's train frames.  It is built only when that pays, which on a
    wide corpus trained for few steps it does not, and the table would only
    add memory.
    """
    per_step = sum(_draw_sizes(cfg, len(domain_records)))
    halo = sum(extractor.context[:FROZEN_GROUPS])
    frames = sum(r.frames for records in domain_records for r in records)
    return cfg.steps * per_step * (cfg.crop_frames - 4 * halo) > frames


def _frozen_prefix(model, domain_records, store, cfg: StageConfig) -> FrozenPrefix:
    """The g1-g3 rows of a finetune or adapt stage, tabled when that pays."""
    pays = _table_pays(cfg, domain_records, model.config.extractor)
    return FrozenPrefix(model, {r.utt_id: store[r.utt_id] for records in domain_records for r in records}
                        if pays else {})


# -- the training loop ------------------------------------------------------------


def _train(model, stage, cfg: StageConfig, step, lr_at, out_path):
    """The one optimizer loop of all three stages; returns the trained model.

    ``step(k, rng, grads)`` samples step k's batch from ``rng``, accumulates
    the gradients of its objective into ``grads`` and returns ``(loss,
    detail)``, where ``detail`` is extra text for the progress log.
    ``lr_at(k)`` is the base learning rate of step k. The checkpoint is
    written once, after the last step; a missing output directory is
    refused before the first.
    """
    if not Path(out_path).parent.is_dir():
        raise FileFormatError(f"{stage}: output directory of {out_path} does not exist")
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


def _supervised_step(model, records, store, cfg: StageConfig, prefix=None):
    """Softmax-head step of pretrain and finetune. With a ``FrozenPrefix``
    the trunk runs, and its backward descends, from g4 only."""
    first = 1 if prefix is None else FROZEN_GROUPS + 1

    def step(k, rng, grads):
        feats, labels = sample_supervised(records, store, rng, cfg, prefix)
        embs, cache = model.encode(feats, first_group=first)
        logits, head_cache = model.head_forward(embs)
        loss, dlogits = cross_entropy_grad(logits, labels)
        demb = model.head_backward(dlogits, head_cache, grads)
        model.encode_backward(demb, cache, grads)
        return loss, ""

    return step


def pretrain(corpus_root, app: AppConfig, out_path):
    """Train backbone + pooling + softmax head on all domains pooled."""
    corpus_root = Path(corpus_root)
    manifest = CorpusManifest.load(corpus_root / "manifest.tsv")
    (records,) = _sampled_records(manifest, "pretrain")
    speakers = {r.speaker_id for r in records}
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
    _seed_dictionary(model, records, store, cfg.seed)
    step = _supervised_step(model, records, store, cfg)
    return _train(model, "pretrain", cfg, step, lambda k: noam_lr(k + 1, cfg.schedule), out_path)


def _seed_dictionary(model, records, store, seed: int) -> None:
    """Replace the random dictionary with K extractor activations of random
    training frames, so every component starts inside the populated region of
    activation space instead of centered on the origin."""
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
    records = _sampled_records(manifest, "finetune")
    prefix = _frozen_prefix(model, records, store, cfg)
    step = _supervised_step(model, records[0], store, cfg, prefix)
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
    records = _sampled_records(manifest, "adapt")
    prefix = _frozen_prefix(model, records, store, cfg)

    def progress(k):
        # runs exactly 0 -> 1 across the configured steps
        return k / (cfg.steps - 1) if cfg.steps > 1 else 1.0

    def step(k, rng, grads):
        batch = sample_batches(records, store, rng, cfg, prefix)
        out = total_loss(
            batch, model, progress(k),
            kernel=cfg.kernel, bandwidth=cfg.bandwidth,
            steepness=cfg.schedule.steepness, grads=grads, down_to_group=FROZEN_GROUPS + 1,
        )
        detail = f" (dis {out.dis:.4f} mmd {out.mmd:.4f} cls {out.cls:.4f} mu {out.mu:.3f})"
        return out.total, detail

    return _train(model, "adapt", cfg, step,
                  lambda k: inv_decay_lr(progress(k), cfg.schedule), out_path)
