"""Stage-level training tests: batching, freezing, determinism, contracts."""

import numpy as np
import pytest
import yaml

from crossadapt.cli import main
from crossadapt import pipeline
from crossadapt.config import SCHEMA, build_config, load_config
from crossadapt.corpus import CorpusManifest, DomainSpec, ManifestRecord, gen_corpus, split_counts
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
               list(c.domains), input_dim=c.input_dim, identity_dim=c.identity_dim,
               id_scale=c.id_scale, sess_scale=c.sess_scale, frame_sd=c.frame_sd, ar_rho=c.ar_rho)
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
        out, offset = crop_utterance(x, 4, rng)
        assert np.array_equal(out, x) and offset == 0

    def test_crop_window_is_contiguous(self, rng):
        x = np.arange(30.0).reshape(10, 3)
        out, offset = crop_utterance(x, 4, rng)
        assert out.shape == (4, 3)
        start = int(out[0, 0] // 3)
        assert np.array_equal(out, x[start : start + 4]) and offset == start

    def test_short_utterance_replicates_last_frame(self, rng):
        x = np.arange(6.0).reshape(2, 3)
        out, offset = crop_utterance(x, 5, rng)
        assert out.shape == (5, 3) and offset is None
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
        (records,) = pipeline._sampled_records(manifest, "finetune")
        feats, labels = sample_supervised(records, store, substream(5, "x"), cfg.finetune)
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
        records = pipeline._sampled_records(manifest, "adapt")
        batch = sample_batches(records, store, substream(5, "y"), cfg.adapt)
        assert len(batch.src_utts) == cfg.adapt.batch_size
        assert batch.num_domains == 2
        for utts in batch.tgt_utts:
            assert len(utts) == cfg.adapt.tgt_batch_size
            assert all(u.shape == (cfg.adapt.crop_frames, 6) for u in utts)

    def test_speaker_sampling_uniform(self, chain):
        cfg = chain["cfg"]
        manifest = CorpusManifest.load(chain["corpus"] / "manifest.tsv")
        store = load_feature_store(manifest, chain["corpus"])
        (records,) = pipeline._sampled_records(manifest, "pretrain")
        rng = substream(123, "uniform")
        counts = np.zeros(4)
        draws = 0
        for _ in range(700):
            _, labels = sample_supervised(records, store, rng, cfg.pretrain)
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
        (records,) = pipeline._sampled_records(manifest, "pretrain")
        with pytest.raises(ContractError):
            sample_supervised(records, {}, substream(1, "z"), cfg.pretrain)
        with pytest.raises(ContractError):
            sample_batches(pipeline._sampled_records(manifest, "adapt"), {}, substream(1, "z"), cfg.adapt)


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
    def test_corpus_is_the_one_its_config_names(self, chain, tmp_path):
        conf = tmp_path / "tiny.yaml"
        conf.write_text(yaml.safe_dump(tiny_raw()))
        assert main(["-q", "gen-corpus", "--config", str(conf), "--out", str(tmp_path / "cli")]) == 0
        ours = CorpusManifest.load(chain["corpus"] / "manifest.tsv")
        assert ours.fingerprint == CorpusManifest.load(tmp_path / "cli" / "manifest.tsv").fingerprint

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


class TestFrozenPrefix:
    @pytest.mark.parametrize("table", [True, False])
    def test_checkpoints_do_not_depend_on_the_table(self, chain, tmp_path, monkeypatch, table):
        """The tiny stages build no table by the rule; forced on, every crop
        takes the table-and-edge path, and the checkpoints keep their bytes."""
        built = []
        make = pipeline._frozen_prefix

        def spy(*args):
            built.append(make(*args))
            return built[-1]

        monkeypatch.setattr(pipeline, "_table_pays", lambda *args: table)
        monkeypatch.setattr(pipeline, "_frozen_prefix", spy)
        finetune(chain["pre"], chain["corpus"], chain["cfg"], tmp_path / "ft.ckpt")
        adapt(chain["ft"], chain["corpus"], chain["cfg"], tmp_path / "ad.ckpt")
        assert [bool(p.table) for p in built] == [table, table]
        assert (tmp_path / "ft.ckpt").read_bytes() == chain["ft"].read_bytes()
        assert (tmp_path / "ad.ckpt").read_bytes() == chain["ad"].read_bytes()


# perfbench/run.py's bench-size overrides, per workload
BENCH_SETS = {
    "recipe": ["pretrain.steps=10", "finetune.steps=50", "adapt.steps=50"],
    "scratch-train": ["pretrain.steps=180", "finetune.steps=15", "adapt.steps=8"],
    "eval-wide": ["corpus.num_speakers=64", "corpus.frames_per_utt=200", "pretrain.steps=60",
                  "finetune.steps=30", "adapt.steps=20", "adapt.kernel=rbf"],
}


def manifest_of(corpus):
    """The manifest ``gen-corpus`` writes for ``corpus``, without the files."""
    train, enroll, _ = split_counts(corpus.utts_per_speaker)
    records = [
        ManifestRecord(f"s{s:03d}_u{u:03d}_d{d}", s, d,
                       "train" if u < train else "enroll" if u < train + enroll else "test",
                       f"d{d}/s{s:03d}_u{u:03d}_d{d}.xdaf", corpus.frames_per_utt)
        for s in range(corpus.num_speakers) for u in range(corpus.utts_per_speaker)
        for d in range(len(corpus.domains))
    ]
    return CorpusManifest(1, corpus.num_speakers, "f" * 32, records)


@pytest.mark.parametrize("workload,tabled", [("recipe", True), ("scratch-train", False),
                                             ("eval-wide", False)])
def test_table_rule_at_bench_size(workload, tabled):
    """A table pays where many steps crop few utterances (recipe); not in a
    short finetune and adapt (scratch-train) or over a wide corpus (eval-wide)."""
    app = load_config(sets=BENCH_SETS[workload])
    manifest = manifest_of(app.corpus)
    extractor = app.model_config(manifest.num_speakers, manifest.num_domains - 1).extractor
    for cfg in (app.finetune, app.adapt):
        records = pipeline._sampled_records(manifest, cfg.stage)
        assert pipeline._table_pays(cfg, records, extractor) is tabled, cfg.stage


# a valid value for every key of the schema, other than the guard's base value
OTHER_VALUES = {
    "seed": "12",
    "corpus.num_speakers": "5",
    "corpus.utts_per_speaker": "11",
    "corpus.frames_per_utt": "31",
    "corpus.input_dim": "5",
    "corpus.identity_dim": "3",
    "corpus.id_scale": "0.5",
    "corpus.sess_scale": "0.3",
    "corpus.frame_sd": "0.4",
    "corpus.ar_rho": "0.5",
    "corpus.domains": "[{kind: clean}, {kind: farfield, smear_width: 3}, {kind: channel}]",
    "model.group_dims": "[6, 6, 6, 5]",
    "model.context": "[1, 0, 1, 0]",
    "model.lde_components": "3",
    "model.front_dims": "[7, 6]",
    "model.back_dims": "[6, 4]",
    "pretrain.steps": "5",
    "pretrain.batch_size": "5",
    "pretrain.crop_frames": "18",
    "pretrain.seed": "3",
    "pretrain.schedule.noam_dim": "32",
    "pretrain.schedule.noam_warmup": "100",
    "finetune.steps": "4",
    "finetune.batch_size": "5",
    "finetune.crop_frames": "18",
    "finetune.seed": "3",
    "adapt.steps": "4",
    "adapt.batch_size": "4",
    "adapt.tgt_batch_size": "4",
    "adapt.crop_frames": "18",
    "adapt.kernel": "rbf",
    "adapt.bandwidth": "2.0",
    "adapt.seed": "3",
    "adapt.schedule.lr0": "0.003",
    "adapt.schedule.alpha": "5.0",
    "adapt.schedule.beta": "0.5",
    "adapt.schedule.steepness": "5.0",
}


class TestEveryKeyIsRead:
    def test_every_key_changes_the_first_artifact_that_reads_it(self, tmp_path):
        """The manifest reads ``corpus.*``, the pretrain checkpoint ``seed`` and
        ``model.*``, each stage's checkpoint its own section; every upstream
        artifact comes from one shared base chain."""
        assert set(OTHER_VALUES) == set(SCHEMA)
        raw = tiny_raw()
        raw["corpus"]["domains"][1] = {"kind": "channel"}  # gains follow input_dim
        conf = tmp_path / "base.yaml"
        conf.write_text(yaml.safe_dump(raw))
        base = tmp_path / "base"

        def run(stage, name, sets=()):
            work = tmp_path / name
            work.mkdir(exist_ok=True)
            flags = ["--config", str(conf), *[f for s in sets for f in ("--set", s)]]
            argv = {
                "corpus": ["gen-corpus", "--out", str(work)],
                "pretrain": ["pretrain", "--corpus", str(base), "--out", str(work / "pretrain")],
                "finetune": ["finetune", "--init", str(base / "pretrain"), "--corpus", str(base),
                             "--out", str(work / "finetune")],
                "adapt": ["adapt", "--init", str(base / "finetune"), "--corpus", str(base),
                          "--out", str(work / "adapt")],
            }[stage]
            assert main(["-q", *argv, *flags]) == 0, (stage, sets)
            return (work / ("manifest.tsv" if stage == "corpus" else stage)).read_bytes()

        reference = {stage: run(stage, "base") for stage in ("corpus", "pretrain", "finetune", "adapt")}
        reference["rbf"] = run("adapt", "rbf", ["adapt.kernel=rbf"])
        unread = []
        for i, (key, value) in enumerate(sorted(OTHER_VALUES.items())):
            section = key.split(".")[0]
            stage = {"seed": "pretrain", "model": "pretrain"}.get(section, section)
            sets = [f"{key}={value}"]
            if key == "adapt.bandwidth":
                sets.insert(0, "adapt.kernel=rbf")
            if run(stage, f"k{i}", sets) == reference["rbf" if key == "adapt.bandwidth" else stage]:
                unread.append(key)
        assert unread == []
