"""End-to-end CLI tests driven in-process through main(argv)."""

import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crossadapt
from crossadapt import cli, pipeline
from crossadapt.cli import main
from crossadapt.evaluation import read_report
from conftest import set_arch_entry

SRC = str(Path(crossadapt.__file__).resolve().parent.parent)

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


# values that each ended in a traceback, were truncated or were accepted
BAD_VALUES = [
    "corpus.domains=5", "corpus.domains=[5]", "pretrain.schedule=5", "model.group_dims=7",
    "model.lde_components=abc", "seed=-1",
    "corpus.domains=[{kind: clean}, {kind: farfield, smear_width: 2.5}]",
    "pretrain.batch_size=3.9", "model.group_dims=[24.7,24,24,24]", "seed=1.5",
    "pretrain.schedule.noam_dim=2.5", "adapt.steps=true", "corpus.identity_dim=0",
    "adapt.bandwidth=nan", "adapt.schedule.lr0=inf",
]


def chain(root, cfg):
    """Output paths and argv lists of the whole subcommand chain under ``root``."""
    paths = {"corpus": root / "corpus", "pre": root / "pre.ckpt", "ft": root / "ft.ckpt",
             "ad": root / "ad.ckpt", "base_rep": root / "base.report", "ad_rep": root / "adapt.report"}
    p = {k: str(v) for k, v in paths.items()}
    conf = ["--config", str(cfg)]
    steps = [
        ["gen-corpus", *conf, "--out", p["corpus"]],
        ["pretrain", *conf, "--corpus", p["corpus"], "--out", p["pre"]],
        ["finetune", *conf, "--init", p["pre"], "--corpus", p["corpus"], "--out", p["ft"]],
        ["adapt", *conf, "--init", p["ft"], "--corpus", p["corpus"], "--out", p["ad"]],
        ["evaluate", "--ckpt", p["ft"], "--corpus", p["corpus"], "--out", p["base_rep"]],
        ["evaluate", "--ckpt", p["ad"], "--corpus", p["corpus"], "--out", p["ad_rep"]],
    ]
    return paths, steps


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    """Run the whole subcommand chain once on a desk-sized config."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "tiny.yaml"
    cfg.write_text(TINY_YAML)
    paths, steps = chain(root, cfg)
    for argv in steps:
        assert main(["-q", *argv]) == 0, argv[0]
    return {"root": root, "config": cfg, **paths}


class TestChain:
    def test_corpus_artifacts(self, env):
        for key in ("base_rep", "ad_rep"):
            for d in read_report(env[key]).domains:
                # 4 speakers x 1 enroll utt x (4 speakers x 2 test utts)
                assert (d.n_trials, d.n_targets) == (32, 8)
        assert not list(env["corpus"].glob("trials_d*.txt"))

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

    def test_non_utf8_tensor_name_exits_2(self, env, tmp_path):
        name = b"\xff\xfe"
        header = struct.pack("<IBQIH", 1, 1, 1, 1, len(name)) + name + struct.pack("<BI", 1, 1)
        bogus = tmp_path / "name.ckpt"
        bogus.write_bytes(b"XDCK" + header + bytes(4 + 16))
        rc = main(["-q", "evaluate", "--ckpt", str(bogus), "--corpus", str(env["corpus"]),
                   "--out", str(tmp_path / "r.report")])
        assert rc == 2

    def test_non_finite_arch_entry_exits_2(self, env, tmp_path):
        bogus = tmp_path / "arch.ckpt"
        shutil.copy(env["ft"], bogus)
        set_arch_entry(bogus, 3, float("nan"))
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

    def test_missing_checkpoint_exits_2(self, env, tmp_path):
        missing = str(tmp_path / "missing.ckpt")
        rc = main(["-q", "evaluate", "--ckpt", missing, "--corpus", str(env["corpus"]),
                   "--out", str(tmp_path / "r.report")])
        assert rc == 2
        rc = main(["-q", "finetune", "--config", str(env["config"]), "--init", missing,
                   "--corpus", str(env["corpus"]), "--out", str(tmp_path / "x.ckpt")])
        assert rc == 2
        assert not (tmp_path / "x.ckpt").exists()

    def test_missing_feature_file_exits_2(self, env, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(env["corpus"], corpus)
        (corpus / "d0" / "s000_u000_d0.xdaf").unlink()
        rc = main(["-q", "pretrain", "--config", str(env["config"]), "--corpus", str(corpus),
                   "--out", str(tmp_path / "x.ckpt")])
        assert rc == 2

    @pytest.mark.parametrize("flags", [
        lambda tmp: ["--config", str(tmp / "absent.yaml")],
        lambda tmp: ["--config", str(tmp / "broken.yaml")],
        lambda tmp: ["--set", "adapt.steps=[1"],
        *[lambda tmp, item=item: ["--set", item] for item in BAD_VALUES],
    ], ids=["missing-config-file", "yaml-syntax-error-in-file", "yaml-syntax-error-in-set",
            *BAD_VALUES])
    def test_bad_config_input_exits_2(self, tmp_path, flags):
        (tmp_path / "broken.yaml").write_text("corpus: [1\n")
        rc = main(["-q", "gen-corpus", *flags(tmp_path), "--out", str(tmp_path / "c")])
        assert rc == 2
        assert not (tmp_path / "c").exists()

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

    @pytest.mark.parametrize("command", ["pretrain", "finetune", "adapt", "evaluate", "report"])
    def test_unwritable_out_exits_2_before_training(self, env, tmp_path, monkeypatch, command):
        def no_step(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(pipeline, "adam_step", no_step)
        conf = ["--config", str(env["config"]), "--corpus", str(env["corpus"])]
        argv = {
            "pretrain": ["pretrain", *conf],
            "finetune": ["finetune", *conf, "--init", str(env["pre"])],
            "adapt": ["adapt", *conf, "--init", str(env["ft"])],
            "evaluate": ["evaluate", "--ckpt", str(env["ft"]), "--corpus", str(env["corpus"])],
            "report": ["report", "--baseline", str(env["base_rep"]), "--adapted", str(env["ad_rep"])],
        }[command]
        assert main(["-q", *argv, "--out", str(tmp_path / "nodir" / "x.out")]) == 2
        assert not (tmp_path / "nodir").exists()

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


class TestBlasThreads:
    def test_bytes_independent_of_blas_threads(self, tmp_path):
        """Every checkpoint and report byte is the same under one and two
        BLAS threads. Each chain runs in a fresh process, since BLAS reads
        its thread count when numpy loads; 200-frame utterances through
        24-wide groups give evaluation gemms big enough to be split."""
        cfg = tmp_path / "wide.yaml"
        cfg.write_text(TINY_YAML.replace("frames_per_utt: 30", "frames_per_utt: 200")
                       .replace("[6, 6, 6, 6]", "[24, 24, 24, 24]").replace("[1, 1, 0, 0]", "[1, 1, 1, 0]"))
        outputs = []
        for threads in ("1", "2"):
            paths, steps = chain(tmp_path / f"threads{threads}", cfg)
            env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            run = ("import json, sys; from crossadapt.cli import main; "
                   "sys.exit(0 if all(main(['-q', *a]) == 0 for a in json.loads(sys.argv[1])) else 1)")
            subprocess.run([sys.executable, "-c", run, json.dumps(steps)], env=env, check=True,
                           timeout=120)
            outputs.append({k: paths[k].read_bytes() for k in ("pre", "ft", "ad", "base_rep", "ad_rep")})
        assert outputs[0] == outputs[1]


class TestFreedPages:
    def test_checkpoints_do_not_depend_on_the_allocator_call(self, env, tmp_path):
        """finetune and adapt in a fresh process whose ``_keep_freed_pages``
        is a no-op write the bytes of the module's chain, which ran in this
        process with glibc's thresholds raised."""
        ft, ad = tmp_path / "ft.ckpt", tmp_path / "ad.ckpt"
        conf = ["--config", str(env["config"])]
        steps = [["finetune", *conf, "--init", str(env["pre"]), "--corpus", str(env["corpus"]), "--out", str(ft)],
                 ["adapt", *conf, "--init", str(ft), "--corpus", str(env["corpus"]), "--out", str(ad)]]
        run = ("import json, sys; from crossadapt import cli; cli._keep_freed_pages = lambda: None; "
               "sys.exit(0 if all(cli.main(['-q', *a]) == 0 for a in json.loads(sys.argv[1])) else 1)")
        subprocess.run([sys.executable, "-c", run, json.dumps(steps)], env=dict(os.environ, PYTHONPATH=SRC),
                       check=True, timeout=120)
        assert ft.read_bytes() == env["ft"].read_bytes()
        assert ad.read_bytes() == env["ad"].read_bytes()

    def test_main_makes_the_call_even_when_the_command_fails(self, env, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_keep_freed_pages", lambda: calls.append(1))
        assert main(["-q", "evaluate", "--ckpt", str(env["ft"]), "--corpus", "missing",
                     "--out", str(env["root"] / "unused.report")]) == 2
        assert calls == [1]

    def test_call_is_quiet_without_mallopt(self, monkeypatch):
        class NoMallopt:
            def __init__(self, name):
                pass

        monkeypatch.setattr(cli.ctypes, "CDLL", NoMallopt)
        assert cli._keep_freed_pages() is None
