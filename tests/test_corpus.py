"""Corpus generation, transform, trial, and file-format tests."""

import random
import struct
import tracemalloc

import numpy as np
import pytest

from crossadapt import corpus, evaluation
from crossadapt.cli import main
from crossadapt.corpus import (
    CorpusManifest,
    DomainSpec,
    apply_domain_transform,
    gen_corpus,
    read_feature_header,
    read_features,
    split_counts,
    write_features,
)
from crossadapt.errors import (
    BadMagicError,
    BadVersionError,
    ContractError,
    FileFormatError,
    StructuralError,
    TruncatedFileError,
    UnknownDomainError,
)
from crossadapt.evaluation import embed_utterances, evaluate_domain, score_trials
from crossadapt.rng import substream
from crossadapt.model import Model
from crossadapt.rng import substream

from conftest import jitter_params, micro_config


def small_domains(dim=6):
    return [
        DomainSpec("clean"),
        DomainSpec("channel", channel_gain=tuple(np.linspace(0.5, 1.5, dim))),
        DomainSpec("noisy", snr_db=0.0),
    ]


class TestFeatureFiles:
    def test_round_trip_is_f32_exact(self, tmp_path, rng):
        x = rng.normal(size=(7, 5))
        path = tmp_path / "a.xdaf"
        write_features(path, x)
        back = read_features(path)
        assert np.array_equal(back, x.astype("<f4").astype(np.float64))
        assert read_feature_header(path) == (7, 5)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.xdaf"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(BadMagicError):
            read_features(path)

    def test_bad_version(self, tmp_path, rng):
        path = tmp_path / "v.xdaf"
        write_features(path, rng.normal(size=(2, 2)))
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(BadVersionError):
            read_features(path)

    def test_truncated_payload(self, tmp_path, rng):
        path = tmp_path / "t.xdaf"
        write_features(path, rng.normal(size=(3, 4)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(TruncatedFileError):
            read_features(path)

    @pytest.mark.parametrize("frames,dim", [(2**31, 2**10), (2**20, 16)])
    def test_oversized_header_rejected_before_reading(self, tmp_path, frames, dim):
        path = tmp_path / "big.xdaf"
        path.write_bytes(b"XDAF" + struct.pack("<III", 1, frames, dim) + bytes(64))
        tracemalloc.start()
        try:
            with pytest.raises(FileFormatError):
                read_features(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_trailing_bytes_rejected(self, tmp_path, rng):
        path = tmp_path / "x.xdaf"
        write_features(path, rng.normal(size=(3, 4)))
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(FileFormatError):
            read_features(path)

    @pytest.mark.parametrize("reader", [read_features, read_feature_header])
    def test_missing_file_is_format_error(self, tmp_path, reader):
        with pytest.raises(FileFormatError):
            reader(tmp_path / "absent.xdaf")

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(ContractError):
            write_features(tmp_path / "n.xdaf", np.array([[np.nan, 1.0]]))


class TestDomainSpec:
    def test_unknown_kind(self):
        with pytest.raises(ContractError):
            DomainSpec("studio")

    def test_channel_needs_positive_gains(self):
        with pytest.raises(ContractError):
            DomainSpec("channel")
        with pytest.raises(ContractError):
            DomainSpec("channel", channel_gain=(1.0, -0.5))

    def test_farfield_validation(self):
        with pytest.raises(ContractError):
            DomainSpec("farfield", smear_width=0)
        with pytest.raises(ContractError):
            DomainSpec("farfield", atten=0.0)

    def test_snr_must_be_finite(self):
        with pytest.raises(ContractError):
            DomainSpec("noisy", snr_db=float("inf"))


class TestTransforms:
    def test_clean_is_identity_copy(self, rng):
        x = rng.normal(size=(5, 3))
        y = apply_domain_transform(x, DomainSpec("clean"))
        assert np.array_equal(x, y)
        y[0, 0] += 1.0
        assert x[0, 0] != y[0, 0]

    def test_channel_scales_per_dim(self, rng):
        x = rng.normal(size=(4, 3))
        spec = DomainSpec("channel", channel_gain=(2.0, 0.5, 1.0))
        assert np.array_equal(apply_domain_transform(x, spec), x * np.array([2.0, 0.5, 1.0]))

    def test_channel_gain_dim_mismatch(self, rng):
        spec = DomainSpec("channel", channel_gain=(1.0, 2.0))
        with pytest.raises(StructuralError):
            apply_domain_transform(rng.normal(size=(4, 3)), spec)

    def test_farfield_width_one_is_attenuation(self, rng):
        x = rng.normal(size=(6, 4))
        spec = DomainSpec("farfield", atten=0.5, smear_width=1)
        assert np.array_equal(apply_domain_transform(x, spec), 0.5 * x)

    def test_farfield_matches_trailing_mean_oracle(self, rng):
        x = rng.normal(size=(8, 3))
        spec = DomainSpec("farfield", atten=0.7, smear_width=3)
        got = apply_domain_transform(x, spec)
        y = 0.7 * x
        for t in range(8):
            lo = max(0, t - 2)
            assert np.allclose(got[t], y[lo : t + 1].mean(axis=0), atol=1e-12)

    def test_smear_longer_than_utterance_rejected(self, rng):
        spec = DomainSpec("farfield", smear_width=9)
        with pytest.raises(ContractError):
            apply_domain_transform(rng.normal(size=(4, 3)), spec)

    def test_noisy_hits_requested_snr(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(1000, 20))
        noisy = apply_domain_transform(x, DomainSpec("noisy", snr_db=0.0), np.random.default_rng(5))
        noise_power = np.mean((noisy - x) ** 2)
        assert abs(noise_power / np.mean(x * x) - 1.0) < 0.05

    def test_noisy_requires_stream(self, rng):
        with pytest.raises(ContractError):
            apply_domain_transform(rng.normal(size=(3, 2)), DomainSpec("noisy", snr_db=5.0))

    def test_non_finite_input_rejected(self):
        with pytest.raises(ContractError):
            apply_domain_transform(np.array([[np.inf]]), DomainSpec("clean"))


class TestSplits:
    def test_canonical_ten(self):
        assert split_counts(10) == (7, 1, 2)

    def test_remainder_goes_to_train(self):
        assert split_counts(23) == (17, 2, 4)

    @pytest.mark.parametrize("u", range(1, 40))
    def test_ordering_and_total(self, u):
        train, enroll, test = split_counts(u)
        assert train + enroll + test == u
        assert train >= test >= enroll >= 0


class TestGenCorpus:
    def test_counts_and_parallel_structure(self, tmp_path):
        man = gen_corpus(tmp_path, seed=7, num_speakers=4, utts_per_speaker=5,
                         frames_per_utt=6, domains=small_domains(), input_dim=6)
        assert len(man.records) == 4 * 5 * 3
        assert man.num_domains == 3
        clean = {r.utt_id[:-3]: r for r in man.select(domain_id=0)}
        for r in man.records:
            stem = r.utt_id[:-3]
            assert r.utt_id.endswith(f"_d{r.domain_id}")
            mate = clean[stem]
            assert (mate.speaker_id, mate.split, mate.frames) == (r.speaker_id, r.split, r.frames)

    def test_regeneration_is_byte_identical(self, tmp_path):
        kw = dict(seed=3, num_speakers=3, utts_per_speaker=4, frames_per_utt=5,
                  domains=small_domains(), input_dim=6)
        gen_corpus(tmp_path / "a", **kw)
        gen_corpus(tmp_path / "b", **kw)
        files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_speaker_structure_in_clean_features(self, tmp_path):
        man = gen_corpus(tmp_path, seed=5, num_speakers=5, utts_per_speaker=6,
                         frames_per_utt=20, domains=[DomainSpec("clean")], input_dim=8)
        means, spk = [], []
        for r in man.select(domain_id=0):
            means.append(read_features(tmp_path / r.relpath).mean(axis=0))
            spk.append(r.speaker_id)
        means = np.array(means)
        means /= np.linalg.norm(means, axis=1, keepdims=True)
        cos = means @ means.T
        same, cross = [], []
        for i in range(len(spk)):
            for j in range(i + 1, len(spk)):
                (same if spk[i] == spk[j] else cross).append(cos[i, j])
        assert np.mean(same) > np.mean(cross)

    def test_noise_spreads_within_speaker_features(self, tmp_path):
        man = gen_corpus(tmp_path, seed=9, num_speakers=3, utts_per_speaker=5,
                         frames_per_utt=12, domains=small_domains(), input_dim=6)

        def within_speaker_spread(domain_id):
            dists = []
            for s in range(3):
                rows = [read_features(tmp_path / r.relpath).mean(axis=0)
                        for r in man.select(domain_id=domain_id) if r.speaker_id == s]
                for i in range(len(rows)):
                    for j in range(i + 1, len(rows)):
                        dists.append(np.linalg.norm(rows[i] - rows[j]))
            return np.mean(dists)

        assert within_speaker_spread(2) > within_speaker_spread(0)

    def test_first_domain_must_be_clean(self, tmp_path):
        with pytest.raises(ContractError):
            gen_corpus(tmp_path, 1, 2, 2, 4, [DomainSpec("noisy", snr_db=3.0)], input_dim=4)

    def test_needs_two_speakers(self, tmp_path):
        with pytest.raises(ContractError):
            gen_corpus(tmp_path, 1, 1, 2, 4, [DomainSpec("clean")], input_dim=4)

    def test_manifest_round_trip(self, tmp_path):
        man = gen_corpus(tmp_path, seed=2, num_speakers=3, utts_per_speaker=4,
                         frames_per_utt=5, domains=small_domains(), input_dim=6)
        back = CorpusManifest.load(tmp_path / "manifest.tsv")
        assert back == man
        back.verify_files(tmp_path)

    def test_manifest_rejects_garbage(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("not a manifest\n")
        with pytest.raises(FileFormatError):
            CorpusManifest.load(path)

    def test_verify_files_catches_missing_and_mismatch(self, tmp_path, rng):
        man = gen_corpus(tmp_path, seed=2, num_speakers=2, utts_per_speaker=3,
                         frames_per_utt=5, domains=[DomainSpec("clean")], input_dim=6)
        victim = tmp_path / man.records[0].relpath
        write_features(victim, rng.normal(size=(9, 6)))
        with pytest.raises(StructuralError):
            man.verify_files(tmp_path)
        victim.unlink()
        with pytest.raises(StructuralError):
            man.verify_files(tmp_path)


def reference_ar1_noise(rng, frames, dim, sd, rho):
    """The frame noise as first written: one utterance, one frame at a time."""
    w = rng.normal(size=(frames, dim))
    out = np.empty((frames, dim))
    out[0] = sd * w[0]
    scale = sd * np.sqrt(1.0 - rho * rho)
    for t in range(1, frames):
        out[t] = rho * out[t - 1] + scale * w[t]
    return out


class TestFrameNoise:
    @pytest.mark.parametrize("frames,utts,dim,rho", [(1, 3, 4, 0.7), (2, 1, 1, 0.0), (100, 10, 20, 0.7),
                                                     (200, 7, 5, 0.95), (37, 4, 3, 0.3)])
    def test_stacked_recurrence_matches_the_per_utterance_loop(self, frames, utts, dim, rho):
        rngs = [substream(frames, "ref", u) for u in range(utts)]
        want = [reference_ar1_noise(r, frames, dim, 0.5, rho) for r in rngs]
        rngs = [substream(frames, "ref", u) for u in range(utts)]
        got = corpus._ar1_noise(np.stack([r.normal(size=(frames, dim)) for r in rngs], axis=1), 0.5, rho)
        for u in range(utts):
            assert got[:, u].tobytes() == want[u].tobytes()


class TestInterruptedGeneration:
    def test_no_manifest_survives_a_failed_rewrite(self, tmp_path, monkeypatch):
        """A rewrite that dies after some feature files leaves no manifest, so
        no stage loads the mixed corpus."""
        kw = dict(seed=3, num_speakers=3, utts_per_speaker=10, frames_per_utt=20,
                  domains=small_domains(), input_dim=6)
        gen_corpus(tmp_path / "c", **kw)
        assert (tmp_path / "c" / "manifest.tsv").is_file()
        write = corpus.write_features
        calls = []

        def failing(path, feats):
            calls.append(path)
            if len(calls) == 7:
                raise OSError("disk full")
            write(path, feats)

        monkeypatch.setattr(corpus, "write_features", failing)
        with pytest.raises(OSError):
            gen_corpus(tmp_path / "c", **{**kw, "seed": 4})
        assert len(calls) == 7
        assert not (tmp_path / "c" / "manifest.tsv").exists()
        assert main(["-q", "pretrain", "--corpus", str(tmp_path / "c"), "--out", str(tmp_path / "p.ckpt")]) == 2
        assert not (tmp_path / "p.ckpt").exists()


class TestTrials:
    """Trial counts and order, seen through ``evaluate_domain``."""

    def make(self, tmp_path, utts=10, speakers=2):
        return gen_corpus(tmp_path, seed=4, num_speakers=speakers, utts_per_speaker=utts,
                          frames_per_utt=4, domains=small_domains(), input_dim=6)

    def model(self, speakers=2):
        return jitter_params(Model.create(micro_config(input_dim=6, num_speakers=speakers), seed=5))

    def test_counts_two_speakers(self, tmp_path):
        man = self.make(tmp_path)
        out = evaluate_domain(self.model(), "pretrain", man, tmp_path, 1)
        # 2 speakers x (1 enroll, 2 test) each: 2*4 pairs, 1*2 targets per speaker
        assert (out.n_trials, out.n_targets) == (8, 4)

    def test_target_fraction_matches_counting_oracle(self, tmp_path):
        man = self.make(tmp_path, utts=20, speakers=3)
        out = evaluate_domain(self.model(3), "pretrain", man, tmp_path, 0)
        enroll = man.select(0, "enroll")
        test = man.select(0, "test")
        brute = sum(
            sum(1 for e in enroll if e.speaker_id == s) * sum(1 for t in test if t.speaker_id == s)
            for s in range(3)
        )
        assert out.n_targets == brute
        assert out.n_trials == len(enroll) * len(test)

    def test_stable_lexicographic_order(self, tmp_path, monkeypatch):
        man, model = self.make(tmp_path), self.model()
        seen = []

        def spy(*args):
            seen.append(score_trials(*args))
            return seen[-1]

        monkeypatch.setattr(evaluation, "score_trials", spy)
        first = evaluate_domain(model, "pretrain", man, tmp_path, 2)
        shuffled = list(man.records)
        random.Random(0).shuffle(shuffled)
        man_shuffled = CorpusManifest(man.seed, man.num_speakers, man.fingerprint, shuffled)
        assert evaluate_domain(model, "pretrain", man_shuffled, tmp_path, 2) == first
        assert seen[0].tobytes() == seen[1].tobytes()
        # one enroll utterance per speaker: its embedding is the speaker model
        emb = {r.utt_id: embed_utterances([read_features(tmp_path / r.relpath)], model,
                                          "pretrain", 2)[0]
               for r in man.select(2)}
        enroll = sorted(r.utt_id for r in man.select(2, "enroll"))
        test = sorted(r.utt_id for r in man.select(2, "test"))
        expect = [emb[e] @ emb[t] for e in enroll for t in test]
        assert np.allclose(seen[0], expect, rtol=0.0, atol=1e-12)

    def test_empty_enroll_split_rejected(self, tmp_path):
        man = self.make(tmp_path, utts=5)  # 5 utts -> enroll count 0
        with pytest.raises(ContractError):
            evaluate_domain(self.model(), "pretrain", man, tmp_path, 0)

    def test_unknown_domain_rejected(self, tmp_path):
        man = self.make(tmp_path)
        with pytest.raises(UnknownDomainError):
            evaluate_domain(self.model(), "pretrain", man, tmp_path, 5)
