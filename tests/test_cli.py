"""End-to-end CLI tests driven in-process through main(argv)."""

import numpy as np
import pytest

from crossadapt.cli import main
from crossadapt.evaluation import read_report

TINY_YAML = """\
seed: 11
corpus:
  num_speakers: 4
  utts_per_speaker: 10
  frames_per_utt: 30
  input_dim: 6
  identity_dim: 4
model:
  group_dims: [6, 6, 6, 6]
  context: [1, 1, 0, 0]
  lde_components: 2
  front_dims: [8, 6]
  back_dims: [6, 5]
pretrain: {steps: 6, batch_size: 4, crop_frames: 20}
finetune: {steps: 5, batch_size: 4, crop_frames: 20}
adapt: {steps: 5, batch_size: 3, tgt_batch_size: 3, crop_frames: 20}
"""


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    """Run the whole subcommand chain once on a desk-sized config."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "tiny.yaml"
    cfg.write_text(TINY_YAML)
    corpus = root / "corpus"
    pre, ft, ad = root / "pre.ckpt", root / "ft.ckpt", root / "ad.ckpt"
    base_rep, ad_rep = root / "base.report", root / "adapt.report"
    conf = ["--config", str(cfg)]
    steps = [
        ["gen-corpus", *conf, "--out", str(corpus)],
        ["pretrain", *conf, "--corpus", str(corpus), "--out", str(pre)],
        ["finetune", *conf, "--init", str(pre), "--corpus", str(corpus), "--out", str(ft)],
        ["adapt", *conf, "--init", str(ft), "--corpus", str(corpus), "--out", str(ad)],
        ["evaluate", "--ckpt", str(ft), "--corpus", str(corpus), "--out", str(base_rep)],
        ["evaluate", "--ckpt", str(ad), "--corpus", str(corpus), "--out", str(ad_rep)],
    ]
    for argv in steps:
        assert main(["-q", *argv]) == 0, argv[0]
    return {
        "root": root, "config": cfg, "corpus": corpus,
        "pre": pre, "ft": ft, "ad": ad, "base_rep": base_rep, "ad_rep": ad_rep,
    }


class TestChain:
    def test_corpus_artifacts(self, env):
        assert (env["corpus"] / "manifest.tsv").exists()
        for d in range(4):
            trials = (env["corpus"] / f"trials_d{d}.txt").read_text().strip().splitlines()
            # 4 speakers x 1 enroll utt x (4 speakers x 2 test utts)
            assert len(trials) == 32

    def test_checkpoints_written(self, env):
        for key in ("pre", "ft", "ad"):
            assert env[key].stat().st_size > 0

    def test_reports_cover_all_domains(self, env):
        for key in ("base_rep", "ad_rep"):
            report = read_report(env[key])
            assert [d.domain_id for d in report.domains] == [0, 1, 2, 3]

    def test_single_domain_evaluate(self, env, tmp_path):
        out = tmp_path / "d2.report"
        rc = main(["-q", "evaluate", "--ckpt", str(env["ft"]), "--corpus", str(env["corpus"]),
                   "--domain", "2", "--out", str(out)])
        assert rc == 0
        report = read_report(out)
        assert [d.domain_id for d in report.domains] == [2]

    def test_report_prints_table_and_writes_summary(self, env, tmp_path, capsys):
        out = tmp_path / "cmp.txt"
        rc = main(["report", "--baseline", str(env["base_rep"]),
                   "--adapted", str(env["ad_rep"]), "--out", str(out)])
        assert rc == 0
        table = capsys.readouterr().out
        assert "system" in table and "d3" in table and "RD" in table
        text = out.read_text()
        for d in range(4):
            line = next(l for l in text.splitlines() if l.startswith(f"domain=d{d} "))
            assert "baseline_eer=" in line and "adapted_eer=" in line and "rd=" in line

    def test_evaluate_table_on_stdout(self, env, tmp_path, capsys):
        rc = main(["evaluate", "--ckpt", str(env["pre"]), "--corpus", str(env["corpus"]),
                   "--out", str(tmp_path / "r.report")])
        assert rc == 0
        table = capsys.readouterr().out
        assert "system" in table and "d0" in table and "%" in table


class TestSeeds:
    def test_seed_flag_reproduces_bytes(self, env, tmp_path):
        conf = ["--config", str(env["config"])]
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["-q", "gen-corpus", *conf, "--seed", "5", "--out", str(out)]) == 0
        probe = "d1/s000_u000_d1.xdaf"
        assert (a / probe).read_bytes() == (b / probe).read_bytes()
        assert (a / "manifest.tsv").read_bytes() == (b / "manifest.tsv").read_bytes()

    def test_seed_flag_changes_bytes(self, env, tmp_path):
        conf = ["--config", str(env["config"])]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["-q", "gen-corpus", *conf, "--seed", "5", "--out", str(a)]) == 0
        assert main(["-q", "gen-corpus", *conf, "--seed", "6", "--out", str(b)]) == 0
        probe = "d0/s000_u000_d0.xdaf"
        assert (a / probe).read_bytes() != (b / probe).read_bytes()


class TestExitCodes:
    def test_unknown_config_key_is_contract_failure(self, env, tmp_path):
        rc = main(["-q", "gen-corpus", "--config", str(env["config"]),
                   "--set", "corpus.bogus=1", "--out", str(tmp_path / "c")])
        assert rc == 2

    def test_wrong_stage_checkpoint(self, env, tmp_path):
        rc = main(["-q", "finetune", "--config", str(env["config"]), "--init", str(env["ad"]),
                   "--corpus", str(env["corpus"]), "--out", str(tmp_path / "x.ckpt")])
        assert rc == 2

    def test_corrupt_checkpoint(self, env, tmp_path):
        bogus = tmp_path / "bogus.ckpt"
        bogus.write_bytes(b"not a checkpoint")
        rc = main(["-q", "evaluate", "--ckpt", str(bogus), "--corpus", str(env["corpus"]),
                   "--out", str(tmp_path / "r.report")])
        assert rc == 2

    def test_unknown_domain(self, env, tmp_path):
        rc = main(["-q", "evaluate", "--ckpt", str(env["ft"]), "--corpus", str(env["corpus"]),
                   "--domain", "9", "--out", str(tmp_path / "r.report")])
        assert rc == 2

    def test_report_domain_mismatch(self, env, tmp_path):
        single = tmp_path / "single.report"
        assert main(["-q", "evaluate", "--ckpt", str(env["ft"]), "--corpus", str(env["corpus"]),
                     "--domain", "1", "--out", str(single)]) == 0
        rc = main(["-q", "report", "--baseline", str(single), "--adapted", str(env["ad_rep"])])
        assert rc == 2

    @pytest.mark.parametrize("mangle", [
        lambda text: text.replace("\tfingerprint=", "\tfingerprint", 1),
        lambda text: text.replace("\tseed=11\t", "\tseed=eleven\t", 1),
        lambda text: text.replace("\t30\n", "\tthirty\n", 1),
    ], ids=["header-token-without-equals", "non-integer-seed", "non-integer-record-field"])
    def test_malformed_manifest_exits_2(self, env, tmp_path, mangle):
        text = (env["corpus"] / "manifest.tsv").read_text()
        assert mangle(text) != text
        (tmp_path / "manifest.tsv").write_text(mangle(text))
        rc = main(["-q", "evaluate", "--ckpt", str(env["ft"]), "--corpus", str(tmp_path),
                   "--out", str(tmp_path / "r.report")])
        assert rc == 2

    def test_missing_manifest_exits_2(self, env, tmp_path):
        rc = main(["-q", "pretrain", "--config", str(env["config"]), "--corpus", str(tmp_path),
                   "--out", str(tmp_path / "x.ckpt")])
        assert rc == 2

    @pytest.mark.parametrize("mangle", [
        lambda text: text.replace("stage=", "stage ", 1),
        lambda text: text.replace("trials=", "trials ", 1),
    ], ids=["header", "domain-line"])
    def test_report_token_without_equals_exits_2(self, env, tmp_path, mangle):
        bad = tmp_path / "bad.report"
        bad.write_text(mangle(env["ad_rep"].read_text()))
        rc = main(["-q", "report", "--baseline", str(env["base_rep"]), "--adapted", str(bad)])
        assert rc == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_blowup_exits_3(self, env, tmp_path):
        # f64-finite feature values that overflow the f32 payload to inf,
        # so the first forward pass yields a non-finite loss
        conf = ["--config", str(env["config"])]
        corpus = tmp_path / "hot"
        assert main(["-q", "gen-corpus", *conf, "--set", "corpus.id_scale=1.0e60",
                     "--out", str(corpus)]) == 0
        rc = main(["-q", "pretrain", *conf, "--corpus", str(corpus),
                   "--out", str(tmp_path / "x.ckpt")])
        assert rc == 3
