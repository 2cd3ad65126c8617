"""Acceptance suite: one test per shipped guarantee.

Every check re-derives its expected values independently inside this file:
brute-force pair enumeration for the subnet discrepancy, quadratic-time
double sums for MMD, an exhaustive threshold sweep for EER, closed-form
schedule constants, and byte comparison of checkpoint files. Each test
prints a single `[criterion N] PASS/FAIL ...` line directly to the
terminal (bypassing capture) so a full run reads as a checklist.
"""

import math
import time

import numpy as np
import pytest

from crossadapt.config import build_config
from crossadapt.corpus import CorpusManifest, TrialPair, gen_corpus
from crossadapt.evaluation import (
    ScoreRecord,
    compute_eer,
    evaluate_model,
    relative_decrease,
    write_report,
)
from crossadapt.losses import (
    DomainBatch,
    cross_entropy_grad,
    discrepancy_loss,
    mmd_pair,
    mmd_pair_backward,
    total_loss,
)
from crossadapt.model import (
    ExtractorConfig,
    LdeConfig,
    Model,
    ModelConfig,
    SubnetConfig,
    load_checkpoint,
)
from crossadapt.numkit import (
    ScheduleConfig,
    grad_check,
    inv_decay_lr,
    noam_lr,
    noam_peak,
    progressive_weight,
)
from crossadapt.pipeline import adapt, finetune, pretrain


def _verdict(capsys, name, ok, detail):
    line = f"[{name}] {'PASS' if ok else 'FAIL'} {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


# -- criterion 1: gradient correctness ----------------------------------------


def _random_micro_model(rng, trial):
    width = int(rng.integers(3, 6))
    cfg = ModelConfig(
        extractor=ExtractorConfig(
            input_dim=int(rng.integers(3, 6)),
            group_dims=(width,) * 4,
            context=tuple(int(c) for c in rng.integers(0, 2, size=4)),
        ),
        lde=LdeConfig(num_components=int(rng.integers(2, 4)), component_dim=width),
        subnet=SubnetConfig(front_dims=(4, 3), back_dims=(3, 3),
                            num_domains=int(rng.integers(2, 4))),
        num_speakers=int(rng.integers(3, 5)),
    )
    model = Model.create(cfg, seed=1000 + trial, with_subnets=True)
    # jitter every tensor: unties the per-domain subnets (the discrepancy
    # loss kinks at exact ties) and moves biases off ReLU corners
    for name in sorted(model.params):
        model.params[name] += 0.15 * rng.normal(size=model.params[name].shape)
    return model


def _random_batch(rng, model):
    d = model.config.extractor.input_dim
    spk = model.config.num_speakers

    def utts(n):
        return [rng.normal(size=(int(rng.integers(4, 7)), d)) for _ in range(n)]

    n_src = int(rng.integers(2, 4))
    n_tgt = [int(rng.integers(2, 4)) for _ in range(model.config.subnet.num_domains)]
    return DomainBatch(
        src_utts=utts(n_src),
        src_labels=rng.integers(0, spk, size=n_src),
        tgt_utts=[utts(n) for n in n_tgt],
        tgt_labels=[rng.integers(0, spk, size=n) for n in n_tgt],
    )


_KIND_CYCLE = ("g1.", "g2.", "g3.", "g4.", "lde.dict", "lde.log_scale", "sub", "cls")


class TestCriterion1Gradients:
    def test_every_layer_and_loss_matches_finite_differences(self, capsys):
        start = time.perf_counter()
        rng = np.random.default_rng(41)
        worst = 0.0
        covered = set()
        for trial in range(20):
            model = _random_micro_model(rng, trial)
            batch = _random_batch(rng, model)
            kernel = "rbf" if trial % 2 else "linear"
            bandwidth = 1.6 if kernel == "rbf" else None

            # composite objective through the full network, checked against
            # a rotating focus tensor plus two random companions
            focus = _KIND_CYCLE[trial % len(_KIND_CYCLE)]
            covered.add(focus)
            matching = [n for n in sorted(model.params) if n.startswith(focus)]
            others = [n for n in sorted(model.params)
                      if not n.startswith(("head.", focus))]
            names = list(rng.choice(matching, size=min(2, len(matching)), replace=False))
            names += list(rng.choice(others, size=2, replace=False))
            names = sorted(set(names))

            def f(point, names=names, model=model, batch=batch,
                  kernel=kernel, bandwidth=bandwidth):
                for n in names:
                    model.params[n][...] = point[n]
                grads = {}
                breakdown = total_loss(batch, model, p=0.6, kernel=kernel,
                                       bandwidth=bandwidth, grads=grads,
                                       down_to_group=1)
                return breakdown.total, {n: grads[n] for n in names}

            point = {n: model.params[n].copy() for n in names}
            worst = max(worst, grad_check(f, point))

            # shared pretraining head, reached only by the supervised stages
            emb_dim = model.params["head.W"].shape[0]
            emb = rng.normal(size=(3, emb_dim))
            labels = rng.integers(0, model.config.num_speakers, size=3)

            def f_head(point, model=model, emb=emb, labels=labels):
                for n in ("head.W", "head.b"):
                    model.params[n][...] = point[n]
                logits, cache = model.head_forward(emb)
                loss, dlogits = cross_entropy_grad(logits, labels)
                grads = {}
                model.head_backward(dlogits, cache, grads)
                return loss, {n: grads[n] for n in ("head.W", "head.b")}

            point = {n: model.params[n].copy() for n in ("head.W", "head.b")}
            worst = max(worst, grad_check(f_head, point))

            # standalone MMD in both kernels, directly on sample matrices
            src = rng.normal(size=(int(rng.integers(2, 5)), 3))
            tgt = rng.normal(size=(int(rng.integers(2, 5)), 3))
            for k, bw in (("linear", None), ("rbf", 1.3)):
                def f_mmd(point, k=k, bw=bw):
                    value = mmd_pair(point["src"], point["tgt"], k, bw)
                    dsrc, dtgt = mmd_pair_backward(point["src"], point["tgt"], k, bw)
                    return value, {"src": dsrc, "tgt": dtgt}

                worst = max(worst, grad_check(f_mmd, {"src": src, "tgt": tgt}))

        elapsed = time.perf_counter() - start
        ok = worst < 1e-4 and elapsed < 60.0 and covered == set(_KIND_CYCLE)
        _verdict(capsys, "criterion 1", ok,
                 f"gradient checks on 20 random micro-configs: max rel err "
                 f"{worst:.2e} (tol 1e-4) in {elapsed:.1f}s")


# -- criterion 2: MMD oracle equivalence ---------------------------------------


def _rbf_kernel(a, b, bw):
    d2 = float(np.sum((a - b) ** 2))
    return math.exp(-0.5 * d2 / (bw * bw))


def _mmd_rbf_oracle(x, y, bw):
    m, n = len(x), len(y)
    kxx = sum(_rbf_kernel(x[i], x[j], bw)
              for i in range(m) for j in range(m) if i != j) / (m * (m - 1))
    kyy = sum(_rbf_kernel(y[i], y[j], bw)
              for i in range(n) for j in range(n) if i != j) / (n * (n - 1))
    if m == n:
        kxy = sum(_rbf_kernel(x[i], y[j], bw)
                  for i in range(m) for j in range(n) if i != j) / (m * (m - 1))
    else:
        kxy = sum(_rbf_kernel(x[i], y[j], bw)
                  for i in range(m) for j in range(n)) / (m * n)
    return kxx + kyy - 2.0 * kxy


def _median_oracle(x, y):
    pooled = list(x) + list(y)
    dists = [math.sqrt(float(np.sum((pooled[i] - pooled[j]) ** 2)))
             for i in range(len(pooled)) for j in range(i + 1, len(pooled))]
    med = float(np.median(dists))
    return med if med > 0 else 1.0


class TestCriterion2MmdOracle:
    def test_estimator_matches_brute_force_and_is_unbiased(self, capsys):
        rng = np.random.default_rng(7)
        worst = 0.0
        for case in range(30):
            dim = int(rng.integers(1, 5))
            m = int(rng.integers(2, 9))
            n = m if case % 3 == 0 else int(rng.integers(2, 9))
            x = rng.normal(size=(m, dim))
            y = rng.normal(size=(n, dim)) + 0.3
            bw = float(rng.choice([0.7, 1.0, 2.3]))
            worst = max(worst, abs(mmd_pair(x, y, "rbf", bw) - _mmd_rbf_oracle(x, y, bw)))
            # default bandwidth resolves to the median pairwise distance
            worst = max(worst, abs(mmd_pair(x, y, "rbf", None)
                                   - _mmd_rbf_oracle(x, y, _median_oracle(x, y))))

        self_worst = 0.0
        for n in (1, 2, 5):
            x = rng.normal(size=(n, 3))
            self_worst = max(self_worst, abs(mmd_pair(x, x, "linear")))

        draws = np.array([
            mmd_pair(rng.normal(size=(25, 3)), rng.normal(size=(25, 3)), "rbf", 1.5)
            for _ in range(200)
        ])
        mean = float(draws.mean())
        se = float(draws.std(ddof=1)) / math.sqrt(len(draws))

        ok = worst <= 1e-12 and self_worst <= 1e-9 and abs(mean) <= 3 * se
        _verdict(capsys, "criterion 2", ok,
                 f"RBF MMD vs brute force: max gap {worst:.2e} (tol 1e-12); "
                 f"self-MMD {self_worst:.1e}; 200-resample mean {mean:+.2e} "
                 f"within 3 SE ({3 * se:.2e})")


# -- criterion 3: discrepancy oracle -------------------------------------------


def _discrepancy_oracle(fronts):
    n = len(fronts)
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            diff = fronts[i] - fronts[j]
            total += float(np.mean(np.abs(diff)))
    return total * 2.0 / (n * (n - 1))


class TestCriterion3DiscrepancyOracle:
    def test_matches_pair_enumeration_and_zero_when_tied(self, capsys):
        rng = np.random.default_rng(13)
        worst = 0.0
        for n in (2, 3, 4):
            for _ in range(10):
                fronts = [rng.normal(size=(5, 6)) for _ in range(n)]
                worst = max(worst, abs(discrepancy_loss(fronts) - _discrepancy_oracle(fronts)))

        # subnets created for adaptation start weight-tied across domains,
        # so the same clean batch yields exactly zero discrepancy
        cfg = ModelConfig(
            extractor=ExtractorConfig(input_dim=4, group_dims=(4,) * 4,
                                      context=(0, 1, 0, 0)),
            lde=LdeConfig(num_components=2, component_dim=4),
            subnet=SubnetConfig(front_dims=(5, 4), back_dims=(4, 3), num_domains=3),
            num_speakers=4,
        )
        model = Model.create(cfg, seed=3)
        model.ensure_subnets(seed=3)
        emb = rng.normal(size=(6, 8))
        fronts = [model.subnet_forward(emb, h, "front")[1]["front"]
                  for h in range(3)]
        tied = discrepancy_loss(fronts)

        ok = worst <= 1e-12 and tied == 0.0
        _verdict(capsys, "criterion 3", ok,
                 f"pairwise-L1 vs enumeration: max gap {worst:.2e} (tol 1e-12); "
                 f"weight-tied subnets give {tied}")


# -- criterion 4: schedule values ----------------------------------------------


class TestCriterion4Schedules:
    def test_decay_progressive_and_warmup_constants(self, capsys):
        cfg = ScheduleConfig()
        # closed forms, written independently of the implementation
        exact = {
            0.0: 0.01,
            0.5: 0.01 * math.exp(-0.75 * math.log(6.0)),
            1.0: 0.01 * math.exp(-0.75 * math.log(11.0)),
        }
        gap = max(abs(inv_decay_lr(p, cfg) - v) for p, v in exact.items())
        # the canonical five-significant-figure prints of the same curve
        quoted = max(abs(inv_decay_lr(0.5, cfg) - 0.0026086),
                     abs(inv_decay_lr(1.0, cfg) - 0.0016558))

        mu0 = progressive_weight(0.0, steepness=10.0)
        mu1 = progressive_weight(1.0, steepness=10.0)

        peak_ok = True
        for dim, warmup in ((256, 4000), (64, 150)):
            sched = ScheduleConfig(noam_dim=dim, noam_warmup=warmup)
            at_peak = noam_lr(warmup, sched)
            peak_ok &= at_peak == pytest.approx(noam_peak(sched), abs=1e-15)
            peak_ok &= at_peak > noam_lr(warmup - 1, sched)
            peak_ok &= at_peak > noam_lr(warmup + 1, sched)

        ok = gap <= 1e-9 and quoted <= 5e-7 and mu0 == 0.0 and mu1 >= 0.9999 and peak_ok
        _verdict(capsys, "criterion 4", ok,
                 f"inverse decay at p=0,0.5,1 within {gap:.1e} of closed form "
                 f"(quoted 5-sig-fig values within {quoted:.1e}); mu(0)={mu0}, "
                 f"mu(1)={mu1:.6f}; warmup step is the Noam peak")


# -- criterion 5: EER oracle ----------------------------------------------------


def _eer_oracle(scores, labels):
    tar = sorted(s for s, is_t in zip(scores, labels) if is_t)
    non = sorted(s for s, is_t in zip(scores, labels) if not is_t)
    distinct = sorted(set(scores))
    thresholds = ([distinct[0] - 1.0]
                  + [(a + b) / 2.0 for a, b in zip(distinct, distinct[1:])]
                  + [distinct[-1] + 1.0])
    points = []
    for th in thresholds:
        far = sum(1 for s in non if s >= th) / len(non)
        frr = sum(1 for s in tar if s < th) / len(tar)
        points.append((far, frr))
    for j, (far, frr) in enumerate(points):
        if far - frr <= 0.0:
            if far == frr:
                return far
            f1, r1 = points[j - 1]
            t = (f1 - r1) / ((f1 - r1) - (far - frr))
            return f1 + t * (far - f1)
    raise AssertionError("no crossing found")


def _records(scores, labels):
    return [
        ScoreRecord(TrialPair(enroll_utt=f"e{i}", test_utt=f"t{i}", is_target=bool(l)), s)
        for i, (s, l) in enumerate(zip(scores, labels))
    ]


class TestCriterion5EerOracle:
    def test_matches_exhaustive_sweep_and_rd_arithmetic(self, capsys):
        rng = np.random.default_rng(29)
        worst = 0.0
        for case in range(100):
            n = int(rng.integers(2, 501))
            labels = rng.integers(0, 2, size=n).astype(bool)
            labels[0], labels[1] = True, False
            scores = rng.uniform(-1.0, 1.0, size=n)
            if case % 2:
                scores = np.round(scores, 1)  # heavy score ties
            got, _ = compute_eer(_records(scores.tolist(), labels.tolist()))
            worst = max(worst, abs(got - _eer_oracle(scores.tolist(), labels.tolist())))

        rd_cases = [(0.58, 0.22, 62.07), (1.49, 1.01, 32.21), (0.113, 0.108, 4.42)]
        rd_gap = max(abs(relative_decrease(base, new) - expect)
                     for base, new, expect in rd_cases)

        ok = worst <= 1e-12 and rd_gap <= 0.01
        _verdict(capsys, "criterion 5", ok,
                 f"EER vs exhaustive sweep on 100 sets: max gap {worst:.2e} "
                 f"(tol 1e-12); relative-decrease arithmetic within {rd_gap:.4f}pp")


# -- criteria 6 and 8: freeze contract and determinism ---------------------------


def _small_raw():
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


def _generate(cfg, out_dir):
    c = cfg.corpus
    return gen_corpus(out_dir, cfg.seed, c.num_speakers, c.utts_per_speaker,
                      c.frames_per_utt, list(c.domains), input_dim=c.input_dim,
                      identity_dim=c.identity_dim, id_scale=c.id_scale,
                      sess_scale=c.sess_scale, frame_sd=c.frame_sd, ar_rho=c.ar_rho)


@pytest.fixture(scope="module")
def small_chain(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_chain")
    cfg = build_config(_small_raw())
    corpus_dir = root / "corpus"
    _generate(cfg, corpus_dir)
    pre, ft, ad = root / "pre.ckpt", root / "ft.ckpt", root / "ad.ckpt"
    pretrain(corpus_dir, cfg, pre)
    finetune(pre, corpus_dir, cfg, ft)
    adapt(ft, corpus_dir, cfg, ad)
    return {"root": root, "cfg": cfg, "corpus": corpus_dir,
            "pre": pre, "ft": ft, "ad": ad}


class TestCriterion6FreezeContract:
    def test_groups_one_to_three_bit_identical(self, capsys, small_chain):
        models = {name: load_checkpoint(small_chain[name])[0]
                  for name in ("pre", "ft", "ad")}
        frozen = [f"g{g}.{p}" for g in (1, 2, 3) for p in ("W", "b")]
        same = all(
            models[stage].params[name].tobytes() == models["pre"].params[name].tobytes()
            for stage in ("ft", "ad") for name in frozen
        )
        moved = any(
            models["ft"].params[name].tobytes() != models["pre"].params[name].tobytes()
            for name in ("g4.W", "head.W")
        )
        ok = same and moved
        _verdict(capsys, "criterion 6", ok,
                 "extractor groups 1-3 bit-identical across finetune and adapt "
                 "checkpoints (while group 4 and the head train)")


class TestCriterion8Determinism:
    def test_stage_reruns_and_reports_are_bit_identical(self, capsys, small_chain, tmp_path):
        cfg = small_chain["cfg"]
        corpus_dir = small_chain["corpus"]
        pre2, ft2, ad2 = tmp_path / "pre.ckpt", tmp_path / "ft.ckpt", tmp_path / "ad.ckpt"
        pretrain(corpus_dir, cfg, pre2)
        finetune(small_chain["pre"], corpus_dir, cfg, ft2)
        adapt(small_chain["ft"], corpus_dir, cfg, ad2)
        stage_ok = all(
            a.read_bytes() == b.read_bytes()
            for a, b in ((small_chain["pre"], pre2), (small_chain["ft"], ft2),
                         (small_chain["ad"], ad2))
        )

        manifest = CorpusManifest.load(corpus_dir / "manifest.tsv")
        model, _ = load_checkpoint(small_chain["ad"])
        reports = []
        for k in range(2):
            path = tmp_path / f"report{k}.txt"
            write_report(path, evaluate_model(model, "adapt", manifest, corpus_dir, "ad"))
            reports.append(path.read_bytes())
        ok = stage_ok and reports[0] == reports[1]
        _verdict(capsys, "criterion 8", ok,
                 "identical config and seed reproduce every stage checkpoint "
                 "and evaluation report byte for byte")


# -- criterion 7: directional end-to-end run ------------------------------------


class TestCriterion7Directional:
    def test_default_recipe_improves_where_promised(self, capsys, tmp_path):
        summaries = []
        ok = True
        for seed in (1, 2, 3):
            t0 = time.perf_counter()
            cfg = build_config({"seed": seed})
            work = tmp_path / f"seed{seed}"
            corpus_dir = work / "corpus"
            manifest = _generate(cfg, corpus_dir)
            pre, ft, ad = work / "pre.ckpt", work / "ft.ckpt", work / "ad.ckpt"
            pretrain(corpus_dir, cfg, pre)
            finetune(pre, corpus_dir, cfg, ft)
            adapt(ft, corpus_dir, cfg, ad)

            eers = {}
            for stage, path in (("pretrain", pre), ("finetune", ft), ("adapt", ad)):
                model, _ = load_checkpoint(path)
                report = evaluate_model(model, stage, manifest, corpus_dir, stage)
                by_dom = {d.domain_id: d.eer for d in report.domains}
                eers[stage] = (by_dom[0],
                               float(np.mean([by_dom[d] for d in sorted(by_dom) if d > 0])))
            elapsed = time.perf_counter() - t0

            pre_c, _ = eers["pretrain"]
            ft_c, ft_t = eers["finetune"]
            ad_c, ad_t = eers["adapt"]
            a = ft_c < pre_c
            b = ad_t <= 0.9 * ft_t + 1e-12
            c = ad_c <= 1.1 * ft_c + 1e-12
            ok &= a and b and c and elapsed < 600.0
            summaries.append(
                f"seed{seed} "
                f"a{'+' if a else '-'}({100 * pre_c:.1f}->{100 * ft_c:.1f}) "
                f"b{'+' if b else '-'}({100 * ft_t:.1f}->{100 * ad_t:.1f}) "
                f"c{'+' if c else '-'}({100 * ft_c:.1f}->{100 * ad_c:.1f}) "
                f"[{elapsed:.0f}s]"
            )
        _verdict(capsys, "criterion 7", ok,
                 "clean EER drops with finetuning, target EER drops >=10% with "
                 "adaptation, clean holds within 10%: " + "; ".join(summaries))
