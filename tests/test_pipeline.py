"""Stage-level training tests: batching, freezing, determinism, contracts."""

import dataclasses
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import yaml

from crossadapt.cli import main
from crossadapt import corpus as corpus_mod
from crossadapt import pipeline
from crossadapt.config import SCHEMA, build_config, load_config
from crossadapt.corpus import (
    CorpusManifest,
    DomainSpec,
    ManifestRecord,
    gen_corpus,
    read_features,
    split_counts,
    write_features,
)
from crossadapt.errors import ContractError, StructuralError
from crossadapt.evaluation import embed_utterances
from crossadapt.model import FROZEN_GROUPS, FrozenPrefix, Model, load_checkpoint
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

from conftest import blas_corename, recipe, run_under_kernel, unpack_corpus


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
    corpus_dir = root / "corpus"
    gen_corpus(corpus_dir, cfg.seed, cfg.corpus)
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
    @pytest.mark.parametrize("stage", ["pretrain", "finetune", "adapt"])
    def test_feature_store_holds_exactly_what_the_stage_samples(self, chain, stage):
        manifest = CorpusManifest.load(chain["corpus"] / "manifest.tsv")
        store = load_feature_store(manifest, chain["corpus"], stage, 6)
        sampled = {r.utt_id for records in pipeline._sampled_records(manifest, stage) for r in records}
        assert list(store) == [r.utt_id for r in manifest.records if r.utt_id in sampled]
        domains = {0} if stage == "finetune" else {0, 1, 2}
        assert sampled == {r.utt_id for r in manifest.records
                           if r.split == "train" and r.domain_id in domains}

    def test_clean_only_restricts_domain(self, chain):
        cfg = chain["cfg"]
        manifest = CorpusManifest.load(chain["corpus"] / "manifest.tsv")
        store = load_feature_store(manifest, chain["corpus"], "finetune", 6)
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
        store = load_feature_store(manifest, chain["corpus"], "adapt", 6)
        records = pipeline._sampled_records(manifest, "adapt")
        batch = sample_batches(records, store, substream(5, "y"), cfg.adapt)
        assert [len(labels) for labels in batch.labels] == [cfg.adapt.batch_size] + [cfg.adapt.tgt_batch_size] * 2
        assert batch.num_domains == 2
        assert batch.utts.shape == (cfg.adapt.batch_size + 2 * cfg.adapt.tgt_batch_size, cfg.adapt.crop_frames, 6)

    def test_speaker_sampling_uniform(self, chain):
        cfg = chain["cfg"]
        manifest = CorpusManifest.load(chain["corpus"] / "manifest.tsv")
        store = load_feature_store(manifest, chain["corpus"], "pretrain", 6)
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


def count_reads(monkeypatch):
    """Count the ``read_features`` calls the corpus reader makes, by path."""
    reads = Counter()

    def spy(path):
        reads[Path(path)] += 1
        return read_features(path)

    monkeypatch.setattr(corpus_mod, "read_features", spy)
    return reads


def once_each(corpus, records):
    """One read of each feature file that ``records`` name."""
    return Counter({corpus / path: 1 for path in {r.relpath for r in records}})


class TestFeatureReads:
    def test_finetune_reads_each_clean_train_file_once(self, chain, tmp_path, monkeypatch):
        reads = count_reads(monkeypatch)
        finetune(chain["pre"], chain["corpus"], chain["cfg"], tmp_path / "ft.ckpt")
        manifest = CorpusManifest.load(chain["corpus"] / "manifest.tsv")
        assert reads == once_each(chain["corpus"], manifest.select(0, "train"))
        assert (tmp_path / "ft.ckpt").read_bytes() == chain["ft"].read_bytes()

    def test_evaluate_reads_each_enroll_and_test_payload_once(self, chain, tmp_path, monkeypatch):
        reads = count_reads(monkeypatch)
        rc = main(["-q", "evaluate", "--ckpt", str(chain["ft"]), "--corpus", str(chain["corpus"]),
                   "--out", str(tmp_path / "r.report")])
        assert rc == 0
        manifest = CorpusManifest.load(chain["corpus"] / "manifest.tsv")
        assert reads == once_each(chain["corpus"], [r for r in manifest.records if r.split != "train"])

    @pytest.mark.parametrize("stage,domain,refused", [
        ("pretrain", 1, True), ("finetune", 0, True), ("adapt", 2, True), ("finetune", 1, False)])
    def test_a_file_that_disagrees_with_its_record(self, chain, tmp_path, stage, domain, refused):
        """A stage refuses a train file it samples whose frame count is not
        the manifest's; a file it does not sample it never reads."""
        corpus = tmp_path / "corpus"
        shutil.copytree(chain["corpus"], corpus)
        victim = CorpusManifest.load(corpus / "manifest.tsv").select(domain, "train")[3]
        write_features(corpus / victim.relpath, read_features(corpus / victim.relpath)[:-1])
        out = tmp_path / f"{stage}.ckpt"
        run = {"pretrain": lambda: pretrain(corpus, chain["cfg"], out),
               "finetune": lambda: finetune(chain["pre"], corpus, chain["cfg"], out),
               "adapt": lambda: adapt(chain["ft"], corpus, chain["cfg"], out)}[stage]
        if refused:
            with pytest.raises(StructuralError, match="frames"):
                run()
            assert not out.exists()
        else:
            run()
            assert out.read_bytes() == chain["ft"].read_bytes()


class TestFloat32Store:
    @pytest.mark.parametrize("stage", ["pretrain", "finetune", "adapt"])
    def test_store_holds_the_stored_float32_frames_read_only(self, chain, stage):
        manifest = CorpusManifest.load(chain["corpus"] / "manifest.tsv")
        store = load_feature_store(manifest, chain["corpus"], stage, 6)
        for feats in store.values():
            assert feats.dtype == np.float32 and not feats.flags.writeable
            with pytest.raises(ValueError):
                feats[0, 0] = 0.0
        dim = chain["cfg"].corpus.input_dim
        frames = sum(r.frames for r in manifest.records if r.utt_id in store)
        assert sum(a.nbytes for a in store.values()) == 4 * frames * dim

    def test_float64_frames_give_the_same_bytes(self, chain, tmp_path, monkeypatch):
        """The chain over float64 copies of every feature file (the store
        before frames stayed float32) writes the same checkpoints and
        reports: the trunk's cast to float64 is exact and comes first."""
        shipped = run_chain(chain["cfg"], chain["corpus"], tmp_path / "float32")
        monkeypatch.setattr(corpus_mod, "read_features", lambda path: read_features(path).astype(np.float64))
        assert run_chain(chain["cfg"], chain["corpus"], tmp_path / "float64") == shipped
        assert shipped["pre.ckpt"] == chain["pre"].read_bytes()


def run_chain(cfg, corpus, out):
    """pretrain, finetune, adapt and both evaluations on ``corpus`` into a
    new directory ``out``; returns the bytes of every file written."""
    out.mkdir()
    pretrain(corpus, cfg, out / "pre.ckpt")
    finetune(out / "pre.ckpt", corpus, cfg, out / "ft.ckpt")
    adapt(out / "ft.ckpt", corpus, cfg, out / "ad.ckpt")
    for ckpt in ("ft", "ad"):
        assert main(["-q", "evaluate", "--ckpt", str(out / f"{ckpt}.ckpt"), "--corpus", str(corpus),
                     "--out", str(out / f"{ckpt}.report")]) == 0
    return {p.name: p.read_bytes() for p in out.iterdir()}


def check_chain_guarantees(root):
    """The tiny chain twice under ``root``: the same bytes both times, g1-g3
    unchanged by finetune and adapt, and every evaluated row the bytes of
    its utterance embedded alone, at 7, 30 and 100 frames (stacks of 511,
    510 and 500 rows before they are padded to a multiple of 16)."""
    root = Path(root)
    cfg = build_config(tiny_raw())
    gen_corpus(root / "corpus", cfg.seed, cfg.corpus)
    first = run_chain(cfg, root / "corpus", root / "first")
    assert run_chain(cfg, root / "corpus", root / "second") == first, "the chain's bytes changed between runs"
    models = {name: load_checkpoint(root / "first" / f"{name}.ckpt")[0] for name in ("pre", "ft", "ad")}
    for name in (f"g{g + 1}.{kind}" for g in range(FROZEN_GROUPS) for kind in "Wb"):
        assert (models["pre"].params[name].tobytes() == models["ft"].params[name].tobytes()
                == models["ad"].params[name].tobytes()), f"{name} changed in finetune or adapt"
    manifest = CorpusManifest.load(root / "corpus" / "manifest.tsv")
    tests = list(manifest.read_frames(root / "corpus", manifest.select(split="test"), 6).values())
    utts = ([x[s : s + 7] for x in tests for s in (0, 7, 14, 21)] + tests
            + [np.vstack(tests[i : i + 4])[:100] for i in range(0, len(tests) - 3, 4)])
    for stage, name in (("finetune", "ft"), ("adapt", "ad")):
        for domain in range(manifest.num_domains):
            together = embed_utterances(utts, models[name], stage, domain)
            for i, x in enumerate(utts):
                alone = embed_utterances([x], models[name], stage, domain)[0]
                assert together[i].tobytes() == alone.tobytes(), (stage, domain, len(x), i)


class TestSecondKernel:
    def test_the_chain_keeps_its_guarantees_under_another_blas_kernel(self, tmp_path):
        """Every fact pinned elsewhere is the default kernel's; the
        guarantees the program makes hold under Haswell's kernels too, or
        under SkylakeX's where Haswell's are the default."""
        for kernel in [k for k in ("Haswell", "SkylakeX") if k != blas_corename()]:
            code = f"import test_pipeline\ntest_pipeline.check_chain_guarantees({str(tmp_path)!r})\n"
            if run_under_kernel(kernel, code) is not None:
                print(f"chain guarantees held under {kernel}")
                return
        pytest.skip(f"the host runs neither Haswell's nor SkylakeX's kernels but {blas_corename()}")

    def test_the_chain_keeps_its_guarantees_under_katmai(self, tmp_path):
        """Under Katmai's kernels an item of a stacked product that starts
        off a 16-byte boundary gets other bits; evaluation takes each norm
        from an aligned row, so the tiny chain's odd embedding width (5)
        keeps its guarantees there too."""
        code = f"import test_pipeline\ntest_pipeline.check_chain_guarantees({str(tmp_path)!r})\n"
        if run_under_kernel("Katmai", code) is None:
            pytest.skip(f"the host does not run Katmai's kernels, only {blas_corename()}'s")


class TestFileLayout:
    def test_one_file_per_record_gives_the_same_bytes(self, chain, tmp_path):
        """The chain over the corpus rewritten one record per feature file
        (the layout of older corpora) writes the checkpoints and reports it
        writes over one file per domain and split."""
        manifest = CorpusManifest.load(chain["corpus"] / "manifest.tsv")
        unpacked = unpack_corpus(chain["corpus"], manifest, tmp_path / "unpacked")
        assert len({r.relpath for r in unpacked.records}) == len(unpacked.records)
        got = run_chain(chain["cfg"], tmp_path / "unpacked", tmp_path / "out")
        assert got == run_chain(chain["cfg"], chain["corpus"], tmp_path / "packed")
        assert got["ad.ckpt"] == chain["ad"].read_bytes()


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
        gen_corpus(tmp_path / "c", 1,
                   recipe(3, 4, 10, [DomainSpec("clean"), DomainSpec("noisy", snr_db=3.0)], input_dim=6))
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

    def test_same_bytes_twice_where_a_stack_need_not_equal_each_crop(self, chain, tmp_path):
        """7-frame crops and a one-wide g4: shapes where a stacked product's
        rows and grads may differ from each crop's own, and the trunk still
        trains one stack per batch.  The chain writes the same bytes twice."""
        raw = tiny_raw()
        raw["model"]["group_dims"] = [6, 6, 6, 1]
        for stage in ("pretrain", "finetune", "adapt"):
            raw[stage]["crop_frames"] = 7
        cfg = build_config(raw)
        first = run_chain(cfg, chain["corpus"], tmp_path / "first")
        assert set(first) == {"pre.ckpt", "ft.ckpt", "ad.ckpt", "ft.report", "ad.report"}
        assert run_chain(cfg, chain["corpus"], tmp_path / "second") == first


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
        gen_corpus(tmp_path / "c2", 1, recipe(4, 10, 30,
                                              [DomainSpec("clean"), DomainSpec("noisy", snr_db=4.0)], input_dim=6))
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
        gen_corpus(tmp_path / "c4", 1, recipe(4, 10, 30, domains, input_dim=6))
        with pytest.raises(StructuralError):
            adapt(chain["ft"], tmp_path / "c4", chain["cfg"], tmp_path / "x.ckpt")


class TestSpeakerIds:
    @pytest.mark.parametrize("stage", ["pretrain", "finetune", "adapt"])
    def test_a_speaker_the_head_has_no_class_for_is_refused_before_step_1(self, chain, tmp_path, monkeypatch,
                                                                          stage):
        """A clean train record of speaker 9 in a 4-speaker corpus.  Pretrain
        sized its head from the 5 distinct ids, and each stage then failed
        or not by whether a step drew that record."""
        corpus = tmp_path / "corpus"
        shutil.copytree(chain["corpus"], corpus)
        man = CorpusManifest.load(corpus / "manifest.tsv")
        last = max(i for i, r in enumerate(man.records) if r.relpath == "d0/train.xdaf")
        man.records[last] = dataclasses.replace(man.records[last], speaker_id=9)
        man.save(corpus / "manifest.tsv")

        def no_step(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(pipeline, "adam_step", no_step)
        run = {"pretrain": lambda: pretrain(corpus, chain["cfg"], tmp_path / "x.ckpt"),
               "finetune": lambda: finetune(chain["pre"], corpus, chain["cfg"], tmp_path / "x.ckpt"),
               "adapt": lambda: adapt(chain["ft"], corpus, chain["cfg"], tmp_path / "x.ckpt")}[stage]
        with pytest.raises(StructuralError, match="speaker id 9"):
            run()
        assert not (tmp_path / "x.ckpt").exists()


class TestFrozenPrefix:
    @pytest.mark.parametrize("table", [True, False])
    def test_checkpoints_do_not_depend_on_the_table(self, chain, tmp_path, monkeypatch, table):
        """The tiny stages build no table by the rule; forced on, by a crop
        count the table pays for, every crop takes the table-and-edge path,
        and the checkpoints keep their bytes."""
        built = []

        def spy(model, utterances, crops, crop_frames):
            built.append(FrozenPrefix(model, utterances, 10**9 if table else 0, crop_frames))
            return built[-1]

        monkeypatch.setattr(pipeline, "FrozenPrefix", spy)
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
    split = [name for name, n in zip(("train", "enroll", "test"), split_counts(corpus.utts_per_speaker))
             for _ in range(n)]
    records = [
        ManifestRecord(f"s{s:03d}_u{u:03d}_d{d}", s, d, split[u], f"d{d}/{split[u]}.xdaf",
                       corpus.frames_per_utt)
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
    model = Model.create(app.model_config(manifest.num_speakers, manifest.num_domains - 1), seed=1)
    frames = np.zeros((app.corpus.frames_per_utt, app.corpus.input_dim), dtype=np.float32)
    store = {r.utt_id: frames for r in manifest.records}
    for cfg in (app.finetune, app.adapt):
        records = pipeline._sampled_records(manifest, cfg.stage)
        assert bool(pipeline._frozen_prefix(model, records, store, cfg).table) is tabled, cfg.stage


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
