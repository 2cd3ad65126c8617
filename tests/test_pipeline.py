"""Stage-level training tests: batching, freezing, determinism, contracts."""

import numpy as np
import pytest

from crossadapt.config import build_config
from crossadapt.corpus import CorpusManifest, DomainSpec, gen_corpus
from crossadapt.errors import ContractError, StructuralError
from crossadapt.model import load_checkpoint
from crossadapt.pipeline import (
    adapt,
    crop_utterance,
    finetune,
    load_feature_store,
    pretrain,
    sample_batches,
    sample_supervised,
)
from crossadapt.rng import substream


def tiny_raw():
    return {
        "seed": 11,
        "corpus": {
            "num_speakers": 4,
            "utts_per_speaker": 10,
            "frames_per_utt": 30,
            "input_dim": 6,
            "identity_dim": 4,
            "domains": [
                {"kind": "clean"},
                {"kind": "channel", "channel_gain": [0.7, 1.3, 0.9, 1.1, 0.8, 1.2]},
                {"kind": "noisy", "snr_db": 4.0},
            ],
        },
        "model": {
            "group_dims": [6, 6, 6, 6],
            "context": [1, 1, 0, 0],
            "lde_components": 2,
            "front_dims": [8, 6],
            "back_dims": [6, 5],
        },
        "pretrain": {"steps": 6, "batch_size": 4, "crop_frames": 20},
        "finetune": {"steps": 5, "batch_size": 4, "crop_frames": 20},
        "adapt": {"steps": 5, "batch_size": 3, "tgt_batch_size": 3, "crop_frames": 20},
    }


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """One tiny corpus plus the full checkpoint chain, shared by this module."""
    root = tmp_path_factory.mktemp("chain")
    cfg = build_config(tiny_raw())
    c = cfg.corpus
    corpus_dir = root / "corpus"
    gen_corpus(corpus_dir, cfg.seed, c.num_speakers, c.utts_per_speaker, c.frames_per_utt,
               list(c.domains), input_dim=c.input_dim, identity_dim=c.identity_dim)
    pre = root / "pre.ckpt"
    ft = root / "ft.ckpt"
    ad = root / "ad.ckpt"
    pretrain(corpus_dir, cfg, pre)
    finetune(pre, corpus_dir, cfg, ft)
    adapt(ft, corpus_dir, cfg, ad)
    return {"root": root, "cfg": cfg, "corpus": corpus_dir, "pre": pre, "ft": ft, "ad": ad}


class TestCrop:
    def test_exact_length_passthrough(self, rng):
        x = np.arange(12.0).reshape(4, 3)
        out = crop_utterance(x, 4, rng)
        assert np.array_equal(out, x)

    def test_crop_window_is_contiguous(self, rng):
        x = np.arange(30.0).reshape(10, 3)
        out = crop_utterance(x, 4, rng)
        assert out.shape == (4, 3)
        start = int(out[0, 0] // 3)
        assert np.array_equal(out, x[start : start + 4])

    def test_short_utterance_replicates_last_frame(self, rng):
        x = np.arange(6.0).reshape(2, 3)
        out = crop_utterance(x, 5, rng)
        assert out.shape == (5, 3)
        assert np.array_equal(out[:2], x)
        for t in range(2, 5):
            assert np.array_equal(out[t], x[-1])


class TestSampling:
    def test_feature_store_holds_exactly_the_train_split(self, chain):
        manifest = CorpusManifest.load(chain["corpus"] / "manifest.tsv")
        store = load_feature_store(manifest, chain["corpus"])
        assert set(store) == {r.utt_id for r in manifest.records if r.split == "train"}

    def test_clean_only_restricts_domain(self, chain):
        cfg = chain["cfg"]
        manifest = CorpusManifest.load(chain["corpus"] / "manifest.tsv")
        store = load_feature_store(manifest, chain["corpus"])
        feats, labels = sample_supervised(
            manifest, store, substream(5, "x"), cfg.finetune, clean_only=True
        )
        clean_ids = {r.utt_id for r in manifest.select(0, "train")}
        stored = {r.utt_id: store[r.utt_id] for r in manifest.records if r.utt_id in clean_ids}
        for f in feats:
            assert any(
                f.shape[0] <= s.shape[0]
                and any(np.array_equal(f, s[o : o + f.shape[0]]) for o in range(s.shape[0] - f.shape[0] + 1))
                for s in stored.values()
            )
        assert all(0 <= y < 4 for y in labels)

    def test_batch_structure_matches_config(self, chain):
        cfg = chain["cfg"]
        manifest = CorpusManifest.load(chain["corpus"] / "manifest.tsv")
        store = load_feature_store(manifest, chain["corpus"])
        batch = sample_batches(manifest, store, substream(5, "y"), cfg.adapt)
        assert len(batch.src_utts) == cfg.adapt.batch_size
        assert batch.num_domains == 2
        for utts in batch.tgt_utts:
            assert len(utts) == cfg.adapt.tgt_batch_size
            assert all(u.shape == (cfg.adapt.crop_frames, 6) for u in utts)

    def test_speaker_sampling_uniform(self, chain):
        cfg = chain["cfg"]
        manifest = CorpusManifest.load(chain["corpus"] / "manifest.tsv")
        store = load_feature_store(manifest, chain["corpus"])
        rng = substream(123, "uniform")
        counts = np.zeros(4)
        draws = 0
        for _ in range(700):
            _, labels = sample_supervised(manifest, store, rng, cfg.pretrain, clean_only=False)
            for y in labels:
                counts[y] += 1
            draws += len(labels)
        p = 1.0 / 4.0
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) < 3 * sigma)

    def test_empty_split_rejected(self, chain, tmp_path):
        manifest = CorpusManifest.load(chain["corpus"] / "manifest.tsv")
        manifest.records = [r for r in manifest.records if r.split != "train"]
        cfg = chain["cfg"]
        with pytest.raises(ContractError):
            sample_supervised(manifest, {}, substream(1, "z"), cfg.pretrain, clean_only=False)
        with pytest.raises(ContractError):
            sample_batches(manifest, {}, substream(1, "z"), cfg.adapt)


class TestPretrain:
    def test_rejects_single_speaker(self, tmp_path):
        cfg = build_config(tiny_raw())
        man = CorpusManifest(1, 1, "f" * 32, [])
        from crossadapt.corpus import ManifestRecord
        man.records = [ManifestRecord(f"s000_u{u:03d}_d0", 0, 0, "train", "x", 5) for u in range(4)]
        man.save(tmp_path / "manifest.tsv")
        with pytest.raises(ContractError):
            pretrain(tmp_path, cfg, tmp_path / "out.ckpt")

    def test_rejects_too_few_domains(self, tmp_path):
        cfg = build_config(tiny_raw())
        gen_corpus(tmp_path / "c", 1, 3, 4, 10, [DomainSpec("clean"), DomainSpec("noisy", snr_db=3.0)], input_dim=6)
        with pytest.raises(ContractError):
            pretrain(tmp_path / "c", cfg, tmp_path / "out.ckpt")

    def test_deterministic_checkpoints(self, chain, tmp_path):
        cfg = chain["cfg"]
        out = tmp_path / "again.ckpt"
        pretrain(chain["corpus"], cfg, out)
        assert out.read_bytes() == chain["pre"].read_bytes()


class TestChain:
    def test_checkpoint_step_is_the_configured_step_count(self, chain):
        for key, stage in (("pre", "pretrain"), ("ft", "finetune"), ("ad", "adapt")):
            _, meta = load_checkpoint(chain[key])
            assert meta.stage == stage
            assert meta.step == getattr(chain["cfg"], stage).steps


class TestFinetune:
    def test_requires_pretrain_stage(self, chain, tmp_path):
        with pytest.raises(ContractError):
            finetune(chain["ft"], chain["corpus"], chain["cfg"], tmp_path / "x.ckpt")

    def test_frozen_groups_bit_identical(self, chain):
        before, _ = load_checkpoint(chain["pre"])
        after, meta = load_checkpoint(chain["ft"])
        assert meta.stage == "finetune"
        for g in ("g1", "g2", "g3"):
            for name in (f"{g}.W", f"{g}.b"):
                assert np.array_equal(before.params[name], after.params[name])
        assert not np.array_equal(before.params["g4.W"], after.params["g4.W"])
        assert not np.array_equal(before.params["head.W"], after.params["head.W"])


class TestAdapt:
    def test_requires_finetune_stage(self, chain, tmp_path):
        with pytest.raises(ContractError):
            adapt(chain["pre"], chain["corpus"], chain["cfg"], tmp_path / "x.ckpt")

    def test_requires_two_target_domains(self, chain, tmp_path):
        gen_corpus(tmp_path / "c2", 1, 4, 10, 30,
                   [DomainSpec("clean"), DomainSpec("noisy", snr_db=4.0)], input_dim=6)
        with pytest.raises(ContractError):
            adapt(chain["ft"], tmp_path / "c2", chain["cfg"], tmp_path / "x.ckpt")

    def test_freezes_backbone_and_head(self, chain):
        before, _ = load_checkpoint(chain["ft"])
        after, meta = load_checkpoint(chain["ad"])
        assert meta.stage == "adapt"
        assert after.has_subnets and not before.has_subnets
        for g in ("g1", "g2", "g3", "head"):
            for suffix in (".W", ".b"):
                key = g + suffix
                assert np.array_equal(before.params[key], after.params[key])
        assert not np.array_equal(before.params["g4.W"], after.params["g4.W"])

    def test_deterministic_checkpoints(self, chain, tmp_path):
        out = tmp_path / "again.ckpt"
        adapt(chain["ft"], chain["corpus"], chain["cfg"], out)
        assert out.read_bytes() == chain["ad"].read_bytes()

    def test_domain_count_mismatch_detected(self, chain, tmp_path):
        domains = [DomainSpec("clean"), DomainSpec("noisy", snr_db=2.0),
                   DomainSpec("noisy", snr_db=5.0), DomainSpec("noisy", snr_db=8.0)]
        gen_corpus(tmp_path / "c4", 1, 4, 10, 30, domains, input_dim=6)
        with pytest.raises(StructuralError):
            adapt(chain["ft"], tmp_path / "c4", chain["cfg"], tmp_path / "x.ckpt")
