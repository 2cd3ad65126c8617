"""Corpus generation, transform, trial, and file-format tests."""

import dataclasses
import os
import random
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossadapt import corpus, evaluation
from crossadapt.cli import main
from crossadapt.config import load_config
from crossadapt.corpus import (
    SPLITS,
    CorpusManifest,
    DomainSpec,
    ManifestRecord,
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

from conftest import jitter_params, micro_config, recipe, record_frames


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

    @pytest.mark.parametrize("reader", [read_features, read_feature_header])
    def test_directory_is_format_error(self, tmp_path, reader):
        """A directory opens like a file, but is not a regular one."""
        (tmp_path / "dir.xdaf").mkdir()
        with pytest.raises(FileFormatError):
            reader(tmp_path / "dir.xdaf")

    @pytest.mark.parametrize("reader", [read_features, read_feature_header])
    @pytest.mark.parametrize("tail,error", [(-5, TruncatedFileError), (-16, TruncatedFileError),
                                            (3, FileFormatError)])
    def test_header_must_agree_with_the_file_size(self, tmp_path, rng, reader, tail, error):
        """Both readers check the payload length the header declares against
        the file's size, so verification catches what the loader would."""
        path = tmp_path / "s.xdaf"
        write_features(path, rng.normal(size=(3, 4)))
        raw = path.read_bytes()
        path.write_bytes(raw[:tail] if tail < 0 else raw + bytes(tail))
        with pytest.raises(error):
            reader(path)

    def test_reads_leave_no_descriptor_open(self, tmp_path, rng):
        fds = Path("/proc/self/fd")
        if not fds.is_dir():
            pytest.skip("no /proc/self/fd to count descriptors")
        good = tmp_path / "good.xdaf"
        write_features(good, rng.normal(size=(4, 3)))
        raw = good.read_bytes()
        bad = {"magic": b"NOPE" + raw[4:], "truncated": raw[:-1], "trailing": raw + b"x",
               "short": raw[:10]}
        for name, data in bad.items():
            (tmp_path / f"{name}.xdaf").write_bytes(data)
        (tmp_path / "dir.xdaf").mkdir()
        paths = [str(tmp_path / f"{name}.xdaf") for name in ["good", *bad, "dir", "absent"]]
        before = len(os.listdir(fds))
        for i in range(2000):
            reader = read_features if i % 2 else read_feature_header
            try:
                reader(paths[i % len(paths)])
            except FileFormatError:
                pass
        assert len(os.listdir(fds)) == before

    def test_a_body_longer_than_one_read_loads(self, tmp_path, rng, monkeypatch):
        """Linux returns at most 2 GiB - 4 KiB from one read, so a larger
        body takes several.  With each read cut to 4 KiB a 48 KB payload
        takes twelve, into one read-only buffer."""
        frames = rng.normal(size=(600, 20)).astype(np.float32)
        write_features(tmp_path / "f.xdaf", frames)
        read, readv, cap = os.read, os.readv, 4096
        monkeypatch.setattr(os, "read", lambda fd, n: read(fd, min(n, cap)))
        monkeypatch.setattr(os, "readv", lambda fd, bufs: readv(fd, [memoryview(bufs[0])[:cap]]))
        back = read_features(tmp_path / "f.xdaf")
        assert back.tobytes() == frames.tobytes() and not back.flags.writeable

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(ContractError):
            write_features(tmp_path / "n.xdaf", np.array([[np.nan, 1.0]]))

    def test_values_that_overflow_float32_rejected(self, tmp_path):
        """The check reads the float32 values written, not their float64
        source, so a finite float64 beyond float32's range is refused."""
        with pytest.raises(ContractError):
            write_features(tmp_path / "big.xdaf", np.array([[1.0e60, 1.0]]))
        assert not (tmp_path / "big.xdaf").exists()

    def test_float32_frames_are_written_without_a_copy(self, tmp_path, rng):
        frames = rng.normal(size=(4096, 20)).astype(np.float32)
        tracemalloc.start()
        try:
            write_features(tmp_path / "f.xdaf", frames)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the finiteness mask takes a quarter of the payload; a float64 copy twice it
        assert peak < frames.nbytes / 2
        assert read_features(tmp_path / "f.xdaf").tobytes() == frames.tobytes()


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
        man = gen_corpus(tmp_path, 7, recipe(num_speakers=4, utts_per_speaker=5,
                                             frames_per_utt=6, domains=small_domains(), input_dim=6))
        assert len(man.records) == 4 * 5 * 3
        assert man.num_domains == 3
        clean = {r.utt_id[:-3]: r for r in man.select(domain_id=0)}
        for r in man.records:
            stem = r.utt_id[:-3]
            assert r.utt_id.endswith(f"_d{r.domain_id}")
            mate = clean[stem]
            assert (mate.speaker_id, mate.split, mate.frames) == (r.speaker_id, r.split, r.frames)

    def test_regeneration_is_byte_identical(self, tmp_path):
        kw = dict(num_speakers=3, utts_per_speaker=4, frames_per_utt=5,
                  domains=small_domains(), input_dim=6)
        gen_corpus(tmp_path / "a", 3, recipe(**kw))
        gen_corpus(tmp_path / "b", 3, recipe(**kw))
        files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_only_noisy_domains_build_a_noise_stream(self, tmp_path, monkeypatch):
        tags = []
        substream = corpus.substream

        def spy(seed, *names):
            tags.append(names[0])
            return substream(seed, *names)

        monkeypatch.setattr(corpus, "substream", spy)
        domains = small_domains() + [DomainSpec("farfield", smear_width=2)]
        gen_corpus(tmp_path, 3, recipe(num_speakers=3, utts_per_speaker=4, frames_per_utt=5,
                                       domains=domains, input_dim=6))
        assert tags.count("noise") == 3 * 4  # one noisy domain of four

    def test_speaker_structure_in_clean_features(self, tmp_path):
        man = gen_corpus(tmp_path, 5, recipe(num_speakers=5, utts_per_speaker=6,
                                             frames_per_utt=20, domains=[DomainSpec("clean")], input_dim=8))
        means, spk = [], []
        for r in man.select(domain_id=0):
            means.append(record_frames(tmp_path, man, r).mean(axis=0))
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
        man = gen_corpus(tmp_path, 9, recipe(num_speakers=3, utts_per_speaker=5,
                                             frames_per_utt=12, domains=small_domains(), input_dim=6))

        def within_speaker_spread(domain_id):
            dists = []
            for s in range(3):
                rows = [record_frames(tmp_path, man, r).mean(axis=0)
                        for r in man.select(domain_id=domain_id) if r.speaker_id == s]
                for i in range(len(rows)):
                    for j in range(i + 1, len(rows)):
                        dists.append(np.linalg.norm(rows[i] - rows[j]))
            return np.mean(dists)

        assert within_speaker_spread(2) > within_speaker_spread(0)

    def test_python_api_writes_the_cli_corpus(self, tmp_path):
        """``gen_corpus`` with a loaded config's recipe writes the bytes
        ``crossadapt gen-corpus`` writes from the same overrides and seed."""
        sets = ["corpus.num_speakers=3", "corpus.utts_per_speaker=4", "corpus.frames_per_utt=8"]
        cfg = load_config(sets=sets, seed=7)
        gen_corpus(tmp_path / "api", cfg.seed, cfg.corpus)
        argv = [f"--set={s}" for s in sets]
        assert main(["-q", "gen-corpus", *argv, "--seed", "7", "--out", str(tmp_path / "cli")]) == 0
        files = sorted(p.relative_to(tmp_path / "cli") for p in (tmp_path / "cli").rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(tmp_path / "api") for p in (tmp_path / "api").rglob("*") if p.is_file())
        for rel in files:
            assert (tmp_path / "api" / rel).read_bytes() == (tmp_path / "cli" / rel).read_bytes(), rel

    def test_first_domain_must_be_clean(self, tmp_path):
        with pytest.raises(ContractError):
            gen_corpus(tmp_path, 1, recipe(2, 2, 4, [DomainSpec("noisy", snr_db=3.0)], input_dim=4))

    def test_needs_two_speakers(self, tmp_path):
        with pytest.raises(ContractError):
            gen_corpus(tmp_path, 1, recipe(1, 2, 4, [DomainSpec("clean")], input_dim=4))

    def test_manifest_round_trip(self, tmp_path):
        man = gen_corpus(tmp_path, 2, recipe(num_speakers=3, utts_per_speaker=4,
                                             frames_per_utt=5, domains=small_domains(), input_dim=6))
        back = CorpusManifest.load(tmp_path / "manifest.tsv")
        assert back == man
        back.verify_files(tmp_path)

    def test_manifest_rejects_garbage(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("not a manifest\n")
        with pytest.raises(FileFormatError):
            CorpusManifest.load(path)

    @pytest.mark.parametrize("utts,splits", [(10, SPLITS), (5, ("train", "test")), (4, ("train",))])
    def test_one_feature_file_per_domain_and_split(self, tmp_path, utts, splits):
        """Each domain's utterances of one split share one file, stacked in
        manifest order; a split without utterances gets no file."""
        man = gen_corpus(tmp_path, 2, recipe(num_speakers=3, utts_per_speaker=utts,
                                             frames_per_utt=5, domains=small_domains(), input_dim=6))
        files = {f"d{d}/{split}.xdaf" for d in range(3) for split in splits}
        assert {r.relpath for r in man.records} == files
        assert {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()} == \
            files | {"manifest.tsv"}
        for path in files:
            named = [r for r in man.records if r.relpath == path]
            frames = read_features(tmp_path / path)
            assert frames.shape[0] == sum(r.frames for r in named)
            got = man.read_frames(tmp_path, named, 6)
            assert list(got) == [r.utt_id for r in named]
            assert np.concatenate(list(got.values())).tobytes() == frames.tobytes()

    def test_manifest_order_is_speaker_major(self, tmp_path):
        """Records run speaker, utterance, domain, whatever file holds them:
        stages sample records by their manifest index."""
        man = gen_corpus(tmp_path, 2, recipe(num_speakers=3, utts_per_speaker=10,
                                             frames_per_utt=5, domains=small_domains(), input_dim=6))
        assert [r.utt_id for r in man.records] == [f"s{s:03d}_u{u:03d}_d{d}" for s in range(3)
                                                    for u in range(10) for d in range(3)]

    def test_generation_never_holds_the_corpus(self, tmp_path):
        """Splits are rendered one at a time, so the peak of traced memory
        stays below the corpus's float32 payload."""
        kw = dict(num_speakers=16, utts_per_speaker=10, frames_per_utt=200, domains=small_domains(20))
        tracemalloc.start()
        try:
            man = gen_corpus(tmp_path, 3, recipe(**kw))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        payload = sum(4 * r.frames * 20 for r in man.records)
        assert peak < payload

    def test_reader_refuses_a_file_that_does_not_hold_its_records(self, tmp_path, rng):
        man = gen_corpus(tmp_path, 2, recipe(num_speakers=2, utts_per_speaker=10,
                                             frames_per_utt=5, domains=[DomainSpec("clean")], input_dim=6))
        enroll = man.select(0, "enroll")
        frames = read_features(tmp_path / enroll[0].relpath)
        # one record's worth of rows short: its neighbour's rows would shift
        write_features(tmp_path / enroll[0].relpath, frames[5:])
        with pytest.raises(StructuralError, match="frames"):
            man.read_frames(tmp_path, enroll[1:], 6)
        with pytest.raises(StructuralError, match="frames"):
            man.verify_files(tmp_path)
        man.read_frames(tmp_path, man.select(0, "train"), 6)

    def test_verify_files_catches_missing_and_mismatch(self, tmp_path, rng):
        man = gen_corpus(tmp_path, 2, recipe(num_speakers=2, utts_per_speaker=3,
                                             frames_per_utt=5, domains=[DomainSpec("clean")], input_dim=6))
        victim = tmp_path / man.records[0].relpath
        write_features(victim, rng.normal(size=(9, 6)))
        with pytest.raises(StructuralError):
            man.verify_files(tmp_path)
        victim.unlink()
        with pytest.raises(StructuralError):
            man.verify_files(tmp_path)


class TestManifestPaths:
    def write(self, tmp_path, records):
        CorpusManifest(1, 2, "f" * 32, records).save(tmp_path / "manifest.tsv")
        return tmp_path / "manifest.tsv"

    def test_duplicate_utterance_refused(self, tmp_path):
        rec = ManifestRecord("s000_u000_d0", 0, 0, "train", "d0/a.xdaf", 5)
        path = self.write(tmp_path, [rec, ManifestRecord(rec.utt_id, 1, 0, "test", "d0/b.xdaf", 5)])
        with pytest.raises(FileFormatError, match="twice"):
            CorpusManifest.load(path)

    @pytest.mark.parametrize("relpath", ["/etc/passwd", "/d0/a.xdaf"])
    def test_absolute_path_refused(self, tmp_path, relpath):
        path = self.write(tmp_path, [ManifestRecord("u", 0, 0, "train", relpath, 5)])
        with pytest.raises(FileFormatError, match="leaves the corpus"):
            CorpusManifest.load(path)

    @pytest.mark.parametrize("relpath", ["../a.xdaf", "d0/../../a.xdaf", "d0/.."])
    def test_parent_path_refused(self, tmp_path, relpath):
        path = self.write(tmp_path, [ManifestRecord("u", 0, 0, "train", relpath, 5)])
        with pytest.raises(FileFormatError, match="leaves the corpus"):
            CorpusManifest.load(path)

    @pytest.mark.parametrize("frames", [0, -5])
    def test_record_without_frames_refused(self, tmp_path, frames):
        """A record's frame count places the rows of the records after it in
        their file, so a count below one is refused."""
        path = self.write(tmp_path, [ManifestRecord("u", 0, 0, "train", "d0/a.xdaf", frames),
                                     ManifestRecord("v", 1, 0, "train", "d0/a.xdaf", 5)])
        with pytest.raises(FileFormatError, match="malformed manifest record"):
            CorpusManifest.load(path)

    @pytest.mark.parametrize("field,value", [("speaker_id", -1), ("domain_id", -1), ("split", "dev"),
                                             ("split", "")])
    def test_record_out_of_range_refused(self, tmp_path, field, value):
        """A negative speaker or domain id, or a split outside SPLITS, once
        loaded: training then failed or not by the draw, and finetune,
        adapt and evaluate skipped the record."""
        rec = dataclasses.replace(ManifestRecord("u", 0, 0, "train", "d0/a.xdaf", 5), **{field: value})
        with pytest.raises(FileFormatError, match="malformed manifest record"):
            CorpusManifest.load(self.write(tmp_path, [rec]))

    def test_records_out_of_generation_order_refused(self, tmp_path):
        """Shuffled, most records would read another record's rows."""
        man = gen_corpus(tmp_path, 2, recipe(num_speakers=4, utts_per_speaker=10,
                                             frames_per_utt=5, domains=small_domains(), input_dim=6))
        random.Random(0).shuffle(man.records)
        man.save(tmp_path / "manifest.tsv")
        with pytest.raises(FileFormatError, match="after a later utterance"):
            CorpusManifest.load(tmp_path / "manifest.tsv")

    @pytest.mark.parametrize("speakers,utts", [(1001, 3), (2, 1001)])
    def test_a_thousand_speakers_or_utterances_keep_generation_order(self, tmp_path, speakers, utts):
        """s999 is written before s1000, though "s1000" < "s999" as strings."""
        split = [name for name, n in zip(SPLITS, split_counts(utts)) for _ in range(n)]
        recs = [ManifestRecord(f"s{s:03d}_u{u:03d}_d{d}", s, d, split[u], f"d{d}/{split[u]}.xdaf", 5)
                for s in range(speakers) for u in range(utts) for d in range(2)]
        assert CorpusManifest.load(self.write(tmp_path, recs)).records == recs

    def test_dotted_names_inside_the_corpus_load(self, tmp_path):
        recs = [ManifestRecord("u", 0, 0, "train", "d0/..a.xdaf", 5),
                ManifestRecord("v", 1, 0, "train", "./d0/b..xdaf", 5)]
        assert CorpusManifest.load(self.write(tmp_path, recs)).records == recs


def _mutate(raw: bytes, where: int, mask: int) -> bytes:
    """``raw`` with one byte XORed by a nonzero ``mask``."""
    out = bytearray(raw)
    out[where % len(out)] ^= mask
    return bytes(out)


class TestFuzz:
    """Every truncation and single-byte flip of a valid file either loads or
    ends in ``FileFormatError``; verification may also say ``StructuralError``."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**32 - 1),
           st.integers(0, 2**16), st.integers(1, 255))
    def test_feature_file_loads_or_format_error(self, t, d, seed, where, mask):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "u.xdaf"
            write_features(path, np.random.default_rng(seed).normal(size=(t, d)))
            raw = path.read_bytes()
            manifest = CorpusManifest(1, 1, "f" * 32, [ManifestRecord("u", 0, 0, "train", "u.xdaf", t)])
            for n in range(len(raw)):
                path.write_bytes(raw[:n])
                with pytest.raises(FileFormatError):
                    read_features(path)
                with pytest.raises(FileFormatError):
                    read_feature_header(path)
                with pytest.raises(FileFormatError):
                    manifest.verify_files(tmp)
            path.write_bytes(_mutate(raw, where, mask))
            for reader in (read_features, read_feature_header):
                try:
                    reader(path)
                except FileFormatError:
                    pass
            try:
                manifest.verify_files(tmp)
            except (FileFormatError, StructuralError):
                pass

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 3), st.sampled_from(corpus.SPLITS),
                              st.integers(1, 500)), min_size=1, max_size=4),
           st.integers(0, 2**16), st.integers(1, 255))
    def test_manifest_loads_or_format_error(self, rows, where, mask):
        records = [ManifestRecord(f"s{s:03d}_u{i:03d}_d{dom}", s, dom, split,
                                  f"d{dom}/s{s:03d}_u{i:03d}_d{dom}.xdaf", frames)
                   for i, (s, dom, split, frames) in enumerate(rows)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "manifest.tsv"
            CorpusManifest(7, len(rows), "ab" * 16, records).save(path)
            raw = path.read_bytes()
            assert CorpusManifest.load(path).records == records
            for data in [raw[:n] for n in range(len(raw))] + [_mutate(raw, where, mask)]:
                path.write_bytes(data)
                try:
                    CorpusManifest.load(path)
                except FileFormatError:
                    pass


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
        kw = dict(num_speakers=3, utts_per_speaker=10, frames_per_utt=20,
                  domains=small_domains(), input_dim=6)
        gen_corpus(tmp_path / "c", 3, recipe(**kw))
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
            gen_corpus(tmp_path / "c", 4, recipe(**kw))
        assert len(calls) == 7
        assert not (tmp_path / "c" / "manifest.tsv").exists()
        assert main(["-q", "pretrain", "--corpus", str(tmp_path / "c"), "--out", str(tmp_path / "p.ckpt")]) == 2
        assert not (tmp_path / "p.ckpt").exists()


class TestTrials:
    """Trial counts and order, seen through ``evaluate_domain``."""

    def make(self, tmp_path, utts=10, speakers=2):
        return gen_corpus(tmp_path, 4, recipe(num_speakers=speakers, utts_per_speaker=utts,
                                              frames_per_utt=4, domains=small_domains(), input_dim=6))

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
        # the records of one file keep their order, which places their rows
        in_file = {path: iter([r for r in man.records if r.relpath == path])
                   for path in {r.relpath for r in man.records}}
        shuffled = [next(in_file[r.relpath]) for r in shuffled]
        man_shuffled = CorpusManifest(man.seed, man.num_speakers, man.fingerprint, shuffled)
        assert evaluate_domain(model, "pretrain", man_shuffled, tmp_path, 2) == first
        assert seen[0].tobytes() == seen[1].tobytes()
        # one enroll utterance per speaker: its embedding is the speaker model
        emb = {r.utt_id: embed_utterances([record_frames(tmp_path, man, r)], model,
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
