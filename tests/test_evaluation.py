"""Evaluation-side tests: embeddings, scoring, EER against oracles, reports."""

import functools
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossadapt import evaluation
from crossadapt import model as model_mod
from crossadapt.corpus import DomainSpec, TrialPair, gen_corpus, write_features
from crossadapt.errors import ContractError, FileFormatError, StructuralError, UnknownDomainError
from crossadapt.evaluation import (
    DomainEval,
    EvalReport,
    ScoreRecord,
    compute_eer,
    embed_utterances,
    enroll_speaker,
    equal_error_rate,
    evaluate_domain,
    evaluate_model,
    format_table,
    read_report,
    relative_decrease,
    score_trials,
    write_report,
)
from crossadapt.model import STAGES, Model, lde_pool

from conftest import default_like_config, jitter_params, micro_config, recipe, record_frames


def records_from(targets, nontargets):
    recs = [ScoreRecord(TrialPair("e", "t", True), s) for s in targets]
    recs += [ScoreRecord(TrialPair("e", "t", False), s) for s in nontargets]
    return recs


def eer_oracle(records):
    tar = sorted(r.score for r in records if r.trial.is_target)
    non = sorted(r.score for r in records if not r.trial.is_target)
    distinct = sorted(set(tar) | set(non))
    thresholds = [distinct[0] - 1.0]
    thresholds += [(a + b) / 2.0 for a, b in zip(distinct, distinct[1:])]
    thresholds += [distinct[-1] + 1.0]
    prev = None
    for th in thresholds:
        below_non = sum(1 for s in non if s < th)
        below_tar = sum(1 for s in tar if s < th)
        far = 1.0 - below_non / len(non)
        frr = below_tar / len(tar)
        if far == frr:
            return far
        if far < frr:
            f1, r1 = prev
            t = (f1 - r1) / ((f1 - r1) - (far - frr))
            return f1 + t * (far - f1)
        prev = (far, frr)
    raise AssertionError("no crossing found")


def cosine(e1, e2):
    return score_trials(np.array([e1], dtype=float), np.array([e2], dtype=float), [0])[0]


class TestCosine:
    def test_identical(self):
        v = np.array([0.3, -0.2, 0.9])
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 2.0]) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        assert cosine([1.0, 0.0], [1.0, 1.0]) == pytest.approx(2.0 ** -0.5, abs=1e-9)

    def test_zero_vector_rejected(self):
        with pytest.raises(ContractError):
            cosine([0.0, 0.0], [1.0, 0.0])


class TestEnroll:
    def test_single_embedding_normalized(self):
        v = np.array([3.0, 4.0])
        assert np.allclose(enroll_speaker([v]), v / 5.0, atol=1e-12)

    def test_copies_reduce_to_one(self):
        v = np.array([1.0, 2.0, 2.0])
        out = enroll_speaker([v, v.copy(), v.copy()])
        assert np.allclose(out, v / 3.0, atol=1e-12)

    def test_opposite_vectors_rejected(self):
        with pytest.raises(ContractError):
            enroll_speaker([np.array([1.0, 0.0]), np.array([-1.0, 0.0])])

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            enroll_speaker([])


@functools.lru_cache(maxsize=1)
def default_like_model():
    model = Model.create(default_like_config(), seed=4, with_subnets=True)
    return jitter_params(model, seed=4, scale=0.05)


def per_row_embed(features_list, model, stage, domain_id):
    """``embed_utterances`` as a loop: the trunk, the subnets and
    ``np.linalg.norm`` run for one utterance at a time."""
    rows = []
    for x in features_list:
        out, _ = model.extractor_forward(x, "eval")
        emb, _ = lde_pool(out, model.params["lde.dict"], model.params["lde.log_scale"])
        if stage == "adapt":
            subnets = [domain_id - 1] if domain_id > 0 else range(model.config.subnet.num_domains)
            emb = np.mean([model.subnet_forward(emb, h, mode="eval")[0][0] for h in subnets], axis=0)
        rows.append(emb / float(np.linalg.norm(emb)))
    return np.array(rows)


def embed_one(x, model, stage, domain_id):
    (emb,) = embed_utterances([x], model, stage, domain_id)
    return emb


class TestEmbed:
    def test_unit_norm_all_stages(self, generic_model, rng):
        x = rng.normal(size=(6, 4))
        for stage, dom in (("pretrain", 0), ("finetune", 1), ("adapt", 0), ("adapt", 2)):
            emb = embed_one(x, generic_model, stage, dom)
            assert abs(np.linalg.norm(emb) - 1.0) < 1e-9

    def test_pretrain_is_normalized_trunk_output(self, generic_model, rng):
        x = rng.normal(size=(5, 4))
        (emb,), _ = generic_model.encode([x])
        got = embed_one(x, generic_model, "pretrain", 0)
        assert np.allclose(got, emb / np.linalg.norm(emb), atol=1e-12)

    def test_adapt_target_uses_matching_subnet(self, generic_model, rng):
        x = rng.normal(size=(5, 4))
        (emb,), _ = generic_model.encode([x])
        out, _ = generic_model.subnet_forward(emb, 1)
        got = embed_one(x, generic_model, "adapt", 2)
        assert np.allclose(got, out[0] / np.linalg.norm(out[0]), atol=1e-12)

    def test_adapt_clean_averages_subnets(self, generic_model, rng):
        x = rng.normal(size=(5, 4))
        (emb,), _ = generic_model.encode([x])
        mean = np.mean(
            [generic_model.subnet_forward(emb, h)[0][0] for h in range(2)], axis=0
        )
        got = embed_one(x, generic_model, "adapt", 0)
        assert np.allclose(got, mean / np.linalg.norm(mean), atol=1e-9)

    def test_tied_subnets_clean_equals_single_subnet(self, generic_model, rng):
        for name in list(generic_model.params):
            if name.startswith("sub0."):
                generic_model.params[name.replace("sub0.", "sub1.")][:] = generic_model.params[name]
        x = rng.normal(size=(5, 4))
        assert np.allclose(
            embed_one(x, generic_model, "adapt", 0),
            embed_one(x, generic_model, "adapt", 1),
            atol=1e-9,
        )

    @pytest.mark.parametrize("stage", STAGES)
    def test_each_row_is_its_utterance_embedded_alone(self, generic_model, rng, stage):
        """Bitwise: one call over a ragged list (two frame counts, the longer
        ones interleaved) gives each utterance the bytes it gets on its own,
        under every domain, including adapt's clean-domain subnet average."""
        utts = [rng.normal(size=(t, 4)) for t in (7, 12, 7, 7, 12, 7, 12, 7, 7, 7, 12)]
        for dom in range(3):
            together = embed_utterances(utts, generic_model, stage, dom)
            assert together.shape == (len(utts), 3 if stage == "adapt" else 8)
            for i, x in enumerate(utts):
                alone = embed_one(x, generic_model, stage, dom)
                assert together[i].tobytes() == alone.tobytes(), (stage, dom, i)

    @given(st.lists(st.sampled_from([5, 8, 60, 100, 200]), min_size=1, max_size=14),
           st.sampled_from(STAGES), st.integers(0, 3), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_one_utterance_calls_for_any_n(self, lengths, stage, domain, seed):
        """At default shapes the trunk runs in stacks of one height per
        frame count and each subnet once over the [N, 1, E] stack; every
        row keeps the bytes of its utterance embedded alone, on any BLAS
        kernel."""
        rng = np.random.default_rng(seed)
        utts = [rng.normal(size=(t, 20)) for t in lengths]
        model = default_like_model()
        together = embed_utterances(utts, model, stage, domain)
        for i, x in enumerate(utts):
            assert together[i].tobytes() == embed_one(x, model, stage, domain).tobytes(), i

    @given(st.lists(st.sampled_from([5, 8, 60, 100, 200]), min_size=1, max_size=14),
           st.sampled_from(STAGES), st.integers(0, 3), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_the_per_row_loop_for_any_n(self, lengths, stage, domain, seed):
        """Every row also keeps the bytes of the per-row loop, which runs
        each utterance's trunk unpadded: at default shapes the default
        kernel gives a product row the same bits at every height
        (tests/test_blas_rows.py)."""
        rng = np.random.default_rng(seed)
        utts = [rng.normal(size=(t, 20)) for t in lengths]
        model = default_like_model()
        together = embed_utterances(utts, model, stage, domain)
        assert together.tobytes() == per_row_embed(utts, model, stage, domain).tobytes()

    @pytest.mark.parametrize("pool_rows", [1, 600, 1000, model_mod._POOL_ROWS])
    def test_pooling_chunks_and_float32_frames_change_no_byte(self, monkeypatch, pool_rows):
        """Stored float32 frames, pooled in chunks of 1, 3, 5 or 20
        utterances at T = 200 (1, 10, 16 or 68 at T = 60), embed to the
        bytes of their float64 copies embedded one by one."""
        rng = np.random.default_rng(7)
        utts = [rng.normal(size=(t, 20)).astype(np.float32) for t in [200] * 11 + [60] * 12]
        model = default_like_model()
        monkeypatch.setattr(model_mod, "_POOL_ROWS", pool_rows)
        for stage, domain in (("finetune", 0), ("adapt", 0), ("adapt", 2)):
            want = per_row_embed([x.astype(np.float64) for x in utts], model, stage, domain)
            assert embed_utterances(utts, model, stage, domain).tobytes() == want.tobytes()

    def test_peak_memory_does_not_grow_with_the_domain(self):
        """An eval-mode encode holds one pooling chunk, not the domain's
        whole [N, T, 24] trunk output and [N, T, K] pooling temporaries:
        the traced peak of embedding 2N utterances of 200 frames is that of
        N, and a few chunks' trunk output."""
        rng = np.random.default_rng(3)
        model = default_like_model()
        per = model_mod._POOL_ROWS // 200
        domain = [rng.normal(size=(200, 20)).astype(np.float32) for _ in range(4 * per)]
        embed_utterances(domain[:1], model, "adapt", 1)  # the row probes' caches fill outside the trace
        peaks = []
        for n in (2 * per, 4 * per):
            tracemalloc.start()
            try:
                embed_utterances(domain[:n], model, "adapt", 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        chunk_bytes = per * 200 * 24 * 8
        assert peaks[1] < 1.1 * peaks[0], peaks
        assert peaks[1] < 5 * chunk_bytes, (peaks, chunk_bytes)

    def test_empty_list_rejected(self, generic_model):
        with pytest.raises(ContractError):
            embed_utterances([], generic_model, "pretrain", 0)

    def test_unknown_domain_rejected(self, generic_model, rng):
        with pytest.raises(UnknownDomainError):
            embed_one(rng.normal(size=(4, 4)), generic_model, "adapt", 3)

    def test_unknown_stage_rejected(self, generic_model, rng):
        with pytest.raises(ContractError):
            embed_one(rng.normal(size=(4, 4)), generic_model, "warmup", 0)

    def test_adapt_without_subnets_rejected(self, rng):
        model = Model.create(micro_config(), seed=1, with_subnets=False)
        with pytest.raises(StructuralError):
            embed_one(rng.normal(size=(4, 4)), model, "adapt", 1)


class TestEer:
    def test_separable_is_zero(self):
        eer, _ = compute_eer(records_from([0.9, 0.8, 0.7], [0.6, 0.5, 0.4]))
        assert eer == 0.0

    def test_one_third_example(self):
        eer, thr = compute_eer(records_from([0.9, 0.7, 0.6], [0.8, 0.3, 0.2]))
        assert eer == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert thr == pytest.approx(0.65, abs=1e-12)

    def test_scores_one_ulp_apart_keep_their_operating_point(self):
        # the midpoint of 0.5 and the next double rounds onto one of them
        tight = equal_error_rate([0.3, np.nextafter(0.5, 1.0), 0.7, 0.9], [0.2, 0.4, 0.5, 0.6, 0.8])
        spread = equal_error_rate([0.3, 0.55, 0.7, 0.9], [0.2, 0.4, 0.45, 0.6, 0.8])
        assert tight[0] == spread[0] == pytest.approx(0.4, abs=1e-12)

    def test_matches_bruteforce_oracle(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n_tar = int(rng.integers(5, 250))
            n_non = int(rng.integers(5, 250))
            sep = rng.uniform(0.0, 0.6)
            recs = records_from(
                np.clip(rng.normal(sep, 0.3, n_tar), -1, 1),
                np.clip(rng.normal(0.0, 0.3, n_non), -1, 1),
            )
            eer, _ = compute_eer(recs)
            assert eer == pytest.approx(eer_oracle(recs), abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        recs = records_from(rng.uniform(-1, 1, 60), rng.uniform(-1, 1, 80))
        base, _ = compute_eer(recs)
        warped = [ScoreRecord(r.trial, float(np.tanh(2.0 * r.score))) for r in recs]
        assert compute_eer(warped)[0] == base

    def test_invariant_under_trial_permutation(self):
        rng = np.random.default_rng(2)
        recs = records_from(rng.uniform(-1, 1, 30), rng.uniform(-1, 1, 40))
        base, _ = compute_eer(recs)
        perm = [recs[i] for i in rng.permutation(len(recs))]
        assert compute_eer(perm)[0] == base

    def test_single_class_rejected(self):
        with pytest.raises(ContractError):
            compute_eer(records_from([0.5, 0.6], []))
        with pytest.raises(ContractError):
            equal_error_rate([], [0.5])

    def test_records_adapter_matches_score_arrays(self):
        rng = np.random.default_rng(3)
        tar, non = rng.uniform(-1, 1, 40), np.round(rng.uniform(-1, 1, 70), 1)
        assert compute_eer(records_from(tar, non)) == equal_error_rate(tar, non)

    def test_score_out_of_range_rejected(self):
        with pytest.raises(ContractError):
            ScoreRecord(TrialPair("a", "b", True), 1.5)
        with pytest.raises(ContractError):
            ScoreRecord(TrialPair("a", "b", True), float("nan"))


class TestRelativeDecrease:
    def test_table_values(self):
        assert relative_decrease(0.58, 0.22) == pytest.approx(62.07, abs=0.005)
        assert relative_decrease(1.49, 1.01) == pytest.approx(32.21, abs=0.005)
        assert relative_decrease(0.113, 0.108) == pytest.approx(4.42, abs=0.005)

    def test_equal_is_zero(self):
        assert relative_decrease(0.3, 0.3) == 0.0

    def test_regression_is_negative(self):
        assert relative_decrease(0.2, 0.4) == pytest.approx(-100.0, abs=1e-9)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ContractError):
            relative_decrease(0.0, 0.1)


class TestReports:
    def reports(self):
        base = EvalReport("pre@100", "finetune", [
            DomainEval(0, 0.0058, 40, 10), DomainEval(1, 0.0149, 40, 10), DomainEval(2, 0.113, 40, 10),
        ])
        new = EvalReport("adapt@200", "adapt", [
            DomainEval(0, 0.0022, 40, 10), DomainEval(1, 0.0101, 40, 10), DomainEval(2, 0.108, 40, 10),
        ])
        return base, new

    def test_round_trip(self, tmp_path):
        _, new = self.reports()
        write_report(tmp_path / "r.txt", new)
        back = read_report(tmp_path / "r.txt")
        assert back.checkpoint == new.checkpoint and back.stage == new.stage
        assert back.domains == new.domains

    @pytest.mark.parametrize("checkpoint", ["my run:adapt@5", "a=b:adapt@5", "x stage=y:adapt@5", " ", ""])
    def test_round_trip_of_a_checkpoint_id_with_spaces_or_equals(self, tmp_path, checkpoint):
        _, new = self.reports()
        new.checkpoint = checkpoint
        write_report(tmp_path / "r.txt", new)
        back = read_report(tmp_path / "r.txt")
        assert back.checkpoint == checkpoint and back.stage == new.stage
        assert back.domains == new.domains

    @pytest.mark.parametrize("checkpoint", ["two\nlines", "ends\r", "form\x0cfeed", "sep\u2028"])
    def test_a_checkpoint_id_with_a_line_break_is_refused(self, tmp_path, checkpoint):
        _, new = self.reports()
        new.checkpoint = checkpoint
        with pytest.raises(ContractError):
            write_report(tmp_path / "r.txt", new)
        assert not (tmp_path / "r.txt").exists()

    def test_reject_garbage(self, tmp_path):
        (tmp_path / "bad.txt").write_text("hello\n")
        with pytest.raises(FileFormatError):
            read_report(tmp_path / "bad.txt")

    @given(st.integers(0, 2**16), st.integers(1, 255))
    @example(len("checkpoint=adapt@200 stage=adapt\ndomain=d0 eer="), ord("0") ^ ord("5"))  # EER 5.0022
    @settings(max_examples=300, deadline=None)
    def test_every_truncation_and_a_flipped_byte_load_or_format_error(self, where, mask):
        _, new = self.reports()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.report"
            write_report(path, new)
            raw = path.read_bytes()
            flipped = bytearray(raw)
            flipped[where % len(raw)] ^= mask
            for data in [raw[:n] for n in range(len(raw))] + [bytes(flipped)]:
                path.write_bytes(data)
                try:
                    read_report(path)
                except FileFormatError:
                    pass

    @pytest.mark.parametrize("trials,targets", [(-3, 9), (5, 9), (5, -1), (-1, -1)])
    def test_counts_outside_the_trials_rejected(self, trials, targets):
        with pytest.raises(ContractError):
            DomainEval(0, 0.1, trials, targets)

    @pytest.mark.parametrize("line", ["domain=d1 eer=0.2 trials=40 targets=10",
                                      "domain=d3 eer=0.01 trials=-3 targets=9"])
    def test_domain_twice_or_impossible_counts_is_a_format_error(self, tmp_path, line):
        _, new = self.reports()
        path = tmp_path / "r.report"
        write_report(path, new)
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(FileFormatError):
            read_report(path)

    @pytest.mark.parametrize("domain", ["d-1", "ddd2", "2", "d", "d+2", "d 2"])
    def test_a_domain_id_other_than_d_and_digits_is_a_format_error(self, tmp_path, domain):
        _, new = self.reports()
        path = tmp_path / "r.report"
        write_report(path, new)
        path.write_text(path.read_text().replace("domain=d2 ", f"domain={domain} "))
        with pytest.raises(FileFormatError):
            read_report(path)

    def test_table_reproduces_rd_row(self):
        base, new = self.reports()
        table = format_table(new, base)
        for cell in ("62.07%", "32.21%", "4.42%", "0.58%", "0.22%"):
            assert cell in table

    def test_identical_reports_rd_zero(self):
        base, _ = self.reports()
        table = format_table(base, base)
        assert table.count("0.00%") == 3

    def test_domain_mismatch_rejected(self):
        base, new = self.reports()
        with pytest.raises(ContractError):
            format_table(EvalReport("x", "adapt", new.domains[:2]), base)


class TestEvaluateDomain:
    @pytest.fixture()
    def corpus(self, tmp_path):
        domains = [
            DomainSpec("clean"),
            DomainSpec("channel", channel_gain=(0.6, 1.4, 0.8, 1.2)),
            DomainSpec("noisy", snr_db=3.0),
        ]
        man = gen_corpus(tmp_path, 6, recipe(num_speakers=3, utts_per_speaker=10,
                                             frames_per_utt=6, domains=domains, input_dim=4))
        return man, tmp_path

    def test_counts_and_determinism(self, corpus, generic_model):
        man, root = corpus
        out = evaluate_domain(generic_model, "pretrain", man, root, 0)
        # 3 speakers x 1 enroll, x 2 test utts: 3 x 6 trials
        assert (out.n_trials, out.n_targets) == (18, 6)
        assert 0.0 <= out.eer <= 1.0
        again = evaluate_domain(generic_model, "pretrain", man, root, 0)
        assert again == out

    def test_full_report_covers_all_domains(self, corpus, generic_model):
        man, root = corpus
        report = evaluate_model(generic_model, "adapt", man, root, "ck@1")
        assert [d.domain_id for d in report.domains] == [0, 1, 2]


class TestScoreTrials:
    def test_missing_vector_rejected(self):
        models, tests = np.eye(2), np.array([[1.0, 0.0]])
        with pytest.raises(StructuralError):
            score_trials(models, tests, [0, 2])
        with pytest.raises(StructuralError):
            score_trials(models, np.ones((1, 3)), [0])

    def test_enroll_major_order(self):
        models = np.array([[1.0, 0.0], [0.0, 1.0]])
        tests = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        got = score_trials(models, tests, [1, 0, 1])
        h = 2.0 ** -0.5
        assert np.allclose(got, [0, 1, h, 1, 0, h, 0, 1, h], atol=1e-12)

    def test_duplicate_vectors_score_exactly_alike(self):
        # a gemm may sum identical rows or columns in different orders (it
        # does at some shapes), so each score must come from the one copy
        # of each distinct vector
        rng = np.random.default_rng(5)
        for n in (16, 17, 33, 49):
            u, v, w = rng.normal(size=(3, 32))
            scores = score_trials(np.array([w, u, w]), np.array([v] * n), [0, 1, 2, 1]).reshape(4, n)
            assert all(len(np.unique(row)) == 1 for row in scores)
            assert np.array_equal(scores[0], scores[2]) and np.array_equal(scores[1], scores[3])

    def test_non_finite_rejected(self):
        with pytest.raises(ContractError):
            score_trials([[np.nan, 1.0]], [[1.0, 0.0]], [0])
        with pytest.raises(ContractError):
            score_trials([[np.inf, 1.0]], [[1.0, 0.0]], [0])

    def test_out_of_range_rejected(self):
        # at subnormal scale the dot product and the product of the norms
        # round apart: this cosine of two parallel vectors comes out as 2.0
        with pytest.raises(ContractError):
            score_trials([[3e-162]], [[2.5e-162]], [0])


# -- the per-trial path evaluation used before scoring whole domains --------------


def reference_trials(manifest, domain_id):
    """Exhaustive enroll x test trials within one domain, lexicographic order."""
    if domain_id < 0 or domain_id >= manifest.num_domains:
        raise UnknownDomainError(f"domain {domain_id} not present in manifest")
    enroll = sorted(manifest.select(domain_id, "enroll"), key=lambda r: r.utt_id)
    test = sorted(manifest.select(domain_id, "test"), key=lambda r: r.utt_id)
    if not enroll or not test:
        raise ContractError(f"domain {domain_id} lacks enroll or test utterances")
    return [TrialPair(e.utt_id, t.utt_id, e.speaker_id == t.speaker_id) for e in enroll for t in test]


def reference_cosine(e1, e2):
    n1, n2 = np.linalg.norm(e1), np.linalg.norm(e2)
    if n1 <= 0.0 or n2 <= 0.0:
        raise ContractError("cosine score undefined for zero vectors")
    return float(e1 @ e2 / (n1 * n2))


def reference_evaluate_domain(model, stage, manifest, root, domain_id):
    trials = reference_trials(manifest, domain_id)

    def embed_records(records):
        return {
            r.utt_id: embed_one(record_frames(root, manifest, r), model, stage, domain_id)
            for r in records
        }

    enroll_records = manifest.select(domain_id, "enroll")
    test_vectors = embed_records(manifest.select(domain_id, "test"))
    enroll_embs = embed_records(enroll_records)
    by_speaker = {}
    for r in enroll_records:
        by_speaker.setdefault(r.speaker_id, []).append(enroll_embs[r.utt_id])
    models = {s: enroll_speaker(embs) for s, embs in by_speaker.items()}
    enroll_vectors = {r.utt_id: models[r.speaker_id] for r in enroll_records}
    records = [
        ScoreRecord(tr, reference_cosine(enroll_vectors[tr.enroll_utt], test_vectors[tr.test_utt]))
        for tr in trials
    ]
    eer, _ = compute_eer(records)
    out = DomainEval(domain_id, eer, len(records), sum(r.trial.is_target for r in records))
    return out, np.array([r.score for r in records])


@pytest.fixture(scope="module")
def micro_corpus(tmp_path_factory):
    """Cached micro corpora by ``(speakers, utts, copies)``. With ``copies``
    every test utterance is overwritten by speaker 0's utterance of the same
    index and domain, so each test embedding recurs under every speaker:
    target and nontarget trials then tie exactly."""
    cache = {}
    domains = [DomainSpec("clean"), DomainSpec("channel", channel_gain=(0.6, 1.4, 0.8, 1.2)),
               DomainSpec("noisy", snr_db=3.0)]

    def get(speakers, utts, copies):
        if (speakers, utts, copies) not in cache:
            root = tmp_path_factory.mktemp("micro")
            man = gen_corpus(root, 7, recipe(num_speakers=speakers, utts_per_speaker=utts,
                                             frames_per_utt=5, domains=domains, input_dim=4))
            if copies:
                test = man.select(split="test")
                frames = {r.utt_id: record_frames(root, man, r) for r in test}
                for path in {r.relpath for r in test}:
                    write_features(root / path, np.concatenate(
                        [frames[r.utt_id.replace(f"s{r.speaker_id:03d}_", "s000_")]
                         for r in test if r.relpath == path]))
            cache[speakers, utts, copies] = (man, root)
        return cache[speakers, utts, copies]

    return get


class TestMatchesPerTrialPath:
    @given(
        speakers=st.integers(2, 4),
        utts=st.sampled_from([10, 20, 30]),  # 1, 2 or 3 enroll utterances per speaker
        ties=st.sampled_from(["none", "copies", "embeddings"]),
        stage=st.sampled_from(STAGES),
        domain=st.integers(0, 2),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_eer_and_counts_equal(self, micro_corpus, speakers, utts, ties, stage, domain, seed):
        man, root = micro_corpus(speakers, utts, ties == "copies")
        model = jitter_params(Model.create(micro_config(num_speakers=speakers), seed=seed,
                                           with_subnets=True), seed=seed)
        if ties == "embeddings":
            # a dead last group makes the trunk output constant: every
            # utterance gets one embedding, and every trial ties
            model.params["g4.W"][:] = 0.0
            model.params["g4.b"][:] = np.abs(model.params["g4.b"]) + 0.1
        seen = []

        def spy(*args):
            seen.append(score_trials(*args))
            return seen[-1]

        with mock.patch.object(evaluation, "score_trials", spy):
            got = evaluate_domain(model, stage, man, root, domain)
        ref, ref_scores = reference_evaluate_domain(model, stage, man, root, domain)
        assert got == ref
        # same trials in the same order; a gemm sums in another order than
        # the per-pair dot, so the scores agree to a few float64 ulps
        (scores,) = seen
        assert np.allclose(scores, ref_scores, rtol=0.0, atol=1e-14)
        if ties == "embeddings":
            assert got.eer == 0.5


class TestOneTrunkPassPerDomain:
    def test_each_domain_is_encoded_by_one_call(self, micro_corpus, monkeypatch):
        man, root = micro_corpus(3, 20, False)
        model = jitter_params(Model.create(micro_config(), seed=3, with_subnets=True))
        sizes = []
        encode = Model.encode

        def counting(self, utts, mode="train"):
            sizes.append(len(utts))
            return encode(self, utts, mode)

        monkeypatch.setattr(Model, "encode", counting)
        evaluate_model(model, "adapt", man, root, "x")
        per_domain = [len(man.select(d, "enroll")) + len(man.select(d, "test"))
                      for d in range(man.num_domains)]
        assert sizes == per_domain, "evaluate_domain must make one Model.encode call per domain"
