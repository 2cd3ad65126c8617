"""End-to-end CLI tests driven in-process through main(argv)."""

import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crossadapt
from crossadapt import cli, pipeline
from crossadapt.cli import main
from crossadapt.corpus import FEATURE_HEADER, CorpusManifest, read_features, write_features
from crossadapt.evaluation import read_report
from crossadapt.model import load_checkpoint, save_checkpoint
from conftest import duplicate_tensor, set_arch_entry

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


def flip(raw, where, mask):
    out = bytearray(raw)
    out[where % len(out)] ^= mask
    return bytes(out)


def feature_file(corpus, utt_id):
    """The feature file that holds utterance ``utt_id`` of ``corpus``."""
    record = next(r for r in CorpusManifest.load(corpus / "manifest.tsv").records if r.utt_id == utt_id)
    return corpus / record.relpath


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


def run_capped(argv):
    """The CLI run on ``argv`` in a child process held to 1 GiB of address
    space and 10 s, so an input read without end, or an open that blocks,
    fails the test and not the host."""
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from crossadapt.cli import main; sys.exit(main(sys.argv[1:]))")
    return subprocess.run([sys.executable, "-c", code, "-q", *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1"), timeout=10)


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
        probe = feature_file(a, "s000_u000_d1").relative_to(a)
        assert (a / probe).read_bytes() == (b / probe).read_bytes()
        assert (a / "manifest.tsv").read_bytes() == (b / "manifest.tsv").read_bytes()

    def test_seed_flag_changes_bytes(self, env, tmp_path):
        conf = ["--config", str(env["config"])]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["-q", "gen-corpus", *conf, "--seed", "5", "--out", str(a)]) == 0
        assert main(["-q", "gen-corpus", *conf, "--seed", "6", "--out", str(b)]) == 0
        probe = feature_file(a, "s000_u000_d0").relative_to(a)
        assert (a / probe).read_bytes() != (b / probe).read_bytes()


class TestExitCodes:
    def test_unknown_config_key_is_contract_failure(self, env, tmp_path):
        rc = main(["-q", "gen-corpus", "--config", str(env["config"]),
                   "--set", "corpus.bogus=1", "--out", str(tmp_path / "c")])
        assert rc == 2

    def test_unrenderable_recipe_leaves_the_old_corpus(self, tmp_path):
        """Frames below a farfield domain's smear width are refused before
        gen-corpus removes the old manifest or rewrites a feature file."""
        out = tmp_path / "c"
        assert main(["-q", "gen-corpus", "--set", "corpus.num_speakers=4", "--out", str(out)]) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert out / "manifest.tsv" in before and feature_file(out, "s000_u000_d3") in before
        rc = main(["-q", "gen-corpus", "--set", "corpus.frames_per_utt=5", "--out", str(out)])
        assert rc == 2
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

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

    def test_duplicate_tensor_exits_2(self, env, tmp_path):
        bogus = tmp_path / "twice.ckpt"
        shutil.copy(env["ft"], bogus)
        duplicate_tensor(bogus, "g1.W")
        out = tmp_path / "r.report"
        rc = main(["-q", "evaluate", "--ckpt", str(bogus), "--corpus", str(env["corpus"]), "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "finetune"])
    def test_misshapen_tensor_exits_2(self, env, tmp_path, command):
        """A tensor whose shape disagrees with the architecture record ended
        in a ``ValueError`` traceback once the trunk ran."""
        model, _ = load_checkpoint(env["pre"])
        model.params["g2.W"] = np.zeros((model.params["g2.W"].shape[0], 7))  # g2 is 6 wide
        bogus = tmp_path / "shape.ckpt"
        save_checkpoint(bogus, model, "pretrain", 6)
        out = str(tmp_path / "out")
        argv = {"evaluate": ["evaluate", "--ckpt", str(bogus), "--corpus", str(env["corpus"]), "--out", out],
                "finetune": ["finetune", "--config", str(env["config"]), "--init", str(bogus),
                             "--corpus", str(env["corpus"]), "--out", out]}[command]
        assert main(["-q", *argv]) == 2
        assert not Path(out).exists()

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

    def test_every_truncated_report_exits_0_or_2(self, env, tmp_path):
        """A cut at a line end leaves a valid report, which may cover fewer
        domains than the baseline; nothing ends in a traceback."""
        raw = env["ad_rep"].read_bytes()
        cut = tmp_path / "cut.report"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            rc = main(["-q", "report", "--baseline", str(env["base_rep"]), "--adapted", str(cut)])
            assert rc in (0, 2), n

    @given(st.integers(0, 2**20), st.integers(1, 255))
    @example(4 + 4 + 1 + 8 + 4 + 2 + 4, 0x40)  # the rank of the first tensor, "arch": 1 -> 65 dims
    @settings(max_examples=25, deadline=None)
    def test_fuzzed_checkpoint_and_report_exit_0_or_2(self, env, where, mask):
        """A truncated checkpoint exits 2; a flipped byte of a checkpoint or
        a report either leaves a valid file or exits 2."""
        with tempfile.TemporaryDirectory() as tmp:
            bad = Path(tmp) / "bad"
            raw = env["ad"].read_bytes()
            bad.write_bytes(raw[: where % len(raw)])
            evaluate = ["-q", "evaluate", "--ckpt", str(bad), "--corpus", str(env["corpus"]),
                        "--out", str(Path(tmp) / "r.report")]
            assert main(evaluate) == 2
            bad.write_bytes(flip(raw, where, mask))
            with np.errstate(invalid="ignore"):  # a flip can make a signalling NaN
                assert main(evaluate) in (0, 2)
            bad.write_bytes(flip(env["ad_rep"].read_bytes(), where, mask))
            assert main(["-q", "report", "--baseline", str(env["base_rep"]), "--adapted", str(bad)]) in (0, 2)

    @pytest.mark.parametrize("case", ["out-is-a-file", "out-beneath-a-file", "manifest-is-a-directory",
                                      "feature-file-is-a-directory"])
    def test_unusable_corpus_path_exits_2(self, tmp_path, case):
        """An output path gen-corpus cannot write is a file error, not a traceback."""
        out = tmp_path / "c"
        if case == "out-is-a-file":
            out.write_text("x")
        elif case == "out-beneath-a-file":
            (tmp_path / "f").write_text("x")
            out = tmp_path / "f" / "c"
        elif case == "manifest-is-a-directory":
            (out / "manifest.tsv").mkdir(parents=True)
        else:
            (out / "d1" / "train.xdaf").mkdir(parents=True)
        assert main(["-q", "gen-corpus", "--set", "corpus.num_speakers=4", "--out", str(out)]) == 2

    @pytest.mark.parametrize("stem", ["my run", "a=b", "x stage=y"])
    def test_report_reads_what_evaluate_wrote(self, env, tmp_path, stem):
        """A checkpoint stem with a space or '=' goes into the report header,
        and ``report`` reads that header back."""
        ckpt = tmp_path / f"{stem}.ckpt"
        shutil.copyfile(env["ft"], ckpt)
        out = tmp_path / "r.report"
        assert main(["-q", "evaluate", "--ckpt", str(ckpt), "--corpus", str(env["corpus"]),
                     "--domain", "1", "--out", str(out)]) == 0
        assert read_report(out).checkpoint.startswith(f"{stem}:finetune@")
        assert main(["-q", "report", "--baseline", str(out), "--adapted", str(out)]) == 0

    def test_checkpoint_stem_with_a_line_break_exits_2(self, env, tmp_path):
        ckpt = tmp_path / "two\nlines.ckpt"
        shutil.copyfile(env["ft"], ckpt)
        out = tmp_path / "r.report"
        assert main(["-q", "evaluate", "--ckpt", str(ckpt), "--corpus", str(env["corpus"]),
                     "--domain", "1", "--out", str(out)]) == 2
        assert not out.exists()

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
        feature_file(corpus, "s000_u000_d0").unlink()
        rc = main(["-q", "pretrain", "--config", str(env["config"]), "--corpus", str(corpus),
                   "--out", str(tmp_path / "x.ckpt")])
        assert rc == 2

    @pytest.mark.parametrize("command", ["pretrain", "finetune", "adapt", "evaluate"])
    @pytest.mark.parametrize("damage", ["missing", "unreadable", "directory", "fifo", "truncated",
                                        "oversized", "trailing", "magic", "version", "misframed"])
    def test_bad_feature_file_exits_2(self, env, tmp_path, monkeypatch, command, damage):
        """A clean train file every command reads, damaged each way the
        reader refuses: each command exits 2 and writes nothing.  A
        misframed file is whole, but its header counts one frame fewer than
        the records that name it declare.  A FIFO without a writer would
        block the open, so that command runs capped in a child process."""
        corpus = tmp_path / "corpus"
        shutil.copytree(env["corpus"], corpus)
        victim = feature_file(corpus, "s000_u000_d0")
        raw = victim.read_bytes()
        if damage in ("missing", "directory", "fifo"):
            victim.unlink()
            if damage == "directory":
                victim.mkdir()
            elif damage == "fifo":
                os.mkfifo(victim)
        elif damage == "unreadable":
            # a mode bit does not stop every user, so the open is refused here
            real_open = os.open

            def refuse(path, *args, **kwargs):
                if os.fspath(path) == str(victim):
                    raise PermissionError(13, "Permission denied", path)
                return real_open(path, *args, **kwargs)

            monkeypatch.setattr(os, "open", refuse)
        else:
            victim.write_bytes({
                "truncated": raw[:-4],
                "oversized": raw[:8] + struct.pack("<II", 2**31, 2**10) + raw[16:],
                "trailing": raw + b"\0",
                "magic": b"XDAG" + raw[4:],
                "version": raw[:4] + struct.pack("<I", 2) + raw[8:],
                "misframed": raw[:8] + struct.pack("<I", struct.unpack_from("<I", raw, 8)[0] - 1)
                + raw[12:-4 * struct.unpack_from("<I", raw, 12)[0]],
            }[damage])
        conf = ["--config", str(env["config"]), "--corpus", str(corpus)]
        argv = {
            "pretrain": ["pretrain", *conf],
            "finetune": ["finetune", *conf, "--init", str(env["pre"])],
            "adapt": ["adapt", *conf, "--init", str(env["ft"])],
            "evaluate": ["evaluate", "--ckpt", str(env["ft"]), "--corpus", str(corpus)],
        }[command]
        argv += ["--out", str(tmp_path / "x.out")]
        assert (run_capped(argv).returncode if damage == "fifo" else main(["-q", *argv])) == 2
        assert not (tmp_path / "x.out").exists()

    @pytest.mark.parametrize("case", ["manifest-dev-zero", "manifest-fifo", "ckpt-fifo", "baseline-dev-zero",
                                      "config-dev-zero"])
    def test_input_that_is_not_a_regular_file_exits_2(self, env, tmp_path, case):
        """A device reads without end and a FIFO without a writer blocks its
        open: each is refused (exit 2) and nothing is written.  The command
        runs capped in a child process."""
        corpus = tmp_path / "corpus"
        shutil.copytree(env["corpus"], corpus)
        manifest, fifo = corpus / "manifest.tsv", tmp_path / "fifo"
        if case.startswith("manifest"):
            manifest.unlink()
        if case == "manifest-dev-zero":
            manifest.symlink_to("/dev/zero")
        elif case.endswith("fifo"):
            os.mkfifo(manifest if case == "manifest-fifo" else fifo)
        conf = ["--config", str(env["config"]), "--corpus", str(corpus)]
        argv = {
            "manifest-dev-zero": ["pretrain", *conf],
            "manifest-fifo": ["pretrain", *conf],
            "ckpt-fifo": ["evaluate", "--ckpt", str(fifo), "--corpus", str(corpus)],
            "baseline-dev-zero": ["report", "--baseline", "/dev/zero", "--adapted", str(env["ad_rep"])],
            "config-dev-zero": ["gen-corpus", "--config", "/dev/zero"],
        }[case]
        before = sorted(tmp_path.rglob("*"))
        done = run_capped([*argv, "--out", str(tmp_path / "x.out")])
        assert (done.returncode, "is not a regular file" in done.stderr) == (2, True), done.stderr
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command,victim", [("pretrain", "d1/train"), ("finetune", "d0/train"),
                                                ("adapt", "d1/train"), ("evaluate", "d1/test")])
    def test_frames_of_another_width_exit_2(self, env, tmp_path, command, victim):
        """A feature file the command reads, rewritten with a seventh value
        a frame: every seed exits 2 and writes nothing.  Pretrain at seed 4
        once stacked such crops with the others and ended in numpy's error."""
        corpus = tmp_path / "corpus"
        shutil.copytree(env["corpus"], corpus)
        path = corpus / f"{victim}.xdaf"
        frames = read_features(path)
        write_features(path, np.hstack([frames, frames[:, :1]]))
        conf = ["--config", str(env["config"]), "--corpus", str(corpus), "--out", str(tmp_path / "x.out")]
        argv = {
            "pretrain": ["pretrain", *conf],
            "finetune": ["finetune", *conf, "--init", str(env["pre"])],
            "adapt": ["adapt", *conf, "--init", str(env["ft"])],
            "evaluate": ["evaluate", "--ckpt", str(env["ft"]), *conf[2:]],
        }[command]
        for seed in ([] if command == "evaluate" else ["--seed", str(s)] for s in range(1, 6)):
            assert main(["-q", *argv, *seed]) == 2, seed
            assert not (tmp_path / "x.out").exists()

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
        # a domain listed twice once loaded, the last line winning, and
        # counts went unchecked
        lambda text: text + text.splitlines(keepends=True)[1],
        lambda text: text + re.sub(r"eer=\S+", "eer=0.5", text.splitlines(keepends=True)[2]),
        lambda text: re.sub(r"trials=\d+ targets=\d+", "trials=-3 targets=9", text, count=1),
        lambda text: re.sub(r"targets=\d+", "targets=-1", text, count=1),
        lambda text: re.sub(r"trials=(\d+) targets=\d+", r"trials=\1 targets=1\1", text, count=1),
    ], ids=["header-token-without-equals", "domain-token-without-equals", "repeated-line",
            "a-second-eer-for-one-domain", "negative-trials", "negative-targets", "more-targets-than-trials"])
    def test_malformed_report_exits_2(self, env, tmp_path, mangle):
        text = env["ad_rep"].read_text()
        assert mangle(text) != text
        bad = tmp_path / "bad.report"
        bad.write_text(mangle(text))
        for baseline, adapted in ((env["base_rep"], bad), (bad, env["ad_rep"])):
            rc = main(["-q", "report", "--baseline", str(baseline), "--adapted", str(adapted)])
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
        # a well-formed train file whose float32 payload is all inf, so the
        # first forward pass yields a non-finite loss
        conf = ["--config", str(env["config"])]
        corpus = tmp_path / "hot"
        shutil.copytree(env["corpus"], corpus)
        victim = feature_file(corpus, "s000_u000_d0")
        raw = victim.read_bytes()
        victim.write_bytes(raw[:16] + np.full((len(raw) - 16) // 4, np.inf, dtype="<f4").tobytes())
        rc = main(["-q", "pretrain", *conf, "--corpus", str(corpus),
                   "--out", str(tmp_path / "x.ckpt")])
        assert rc == 3

    def test_features_that_overflow_float32_exit_2(self, env, tmp_path):
        """Frames finite in float64 but not in float32 are refused before
        they are written, and gen-corpus leaves no manifest."""
        corpus = tmp_path / "hot"
        rc = main(["-q", "gen-corpus", "--config", str(env["config"]), "--set", "corpus.id_scale=1.0e60",
                   "--out", str(corpus)])
        assert rc == 2
        assert not (corpus / "manifest.tsv").exists()


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


def _edit_manifest(root, rng, edit):
    """Rewrite the manifest under ``root`` with ``edit(lines, train, i)``,
    which changes ``lines`` in place; ``train`` holds the line indexes of
    the clean train file's records and ``i`` one of them, drawn."""
    path = root / "corpus" / "manifest.tsv"
    lines = path.read_text().splitlines(keepends=True)
    train = [i for i, ln in enumerate(lines) if "\td0/train.xdaf\t" in ln]
    edit(lines, train, train[int(rng.integers(len(train)))])
    path.write_text("".join(lines))


def _set_field(field, value, pick=None):
    """A manifest edit that sets one field of a clean train record: the
    drawn one, or ``train[pick]``."""
    def edit(lines, train, i):
        i = i if pick is None else train[pick]
        lines[i] = "\t".join(value if k == field else col for k, col in enumerate(lines[i].split("\t")))
    return lambda root, rng: _edit_manifest(root, rng, edit)


def _swap_ends(lines, train, i):
    lines[train[0]], lines[train[-1]] = lines[train[-1]], lines[train[0]]


def _flip_file(path, rng, within=None):
    """Flip one drawn byte of ``path``, of its first ``within`` bytes if given."""
    raw = path.read_bytes()
    path.write_bytes(flip(raw, int(rng.integers(within or len(raw))), int(rng.integers(1, 256))))


def _cut_file(path, rng):
    raw = path.read_bytes()
    path.write_bytes(raw[: int(rng.integers(len(raw)))])


TRAINING = ("pretrain", "finetune", "adapt")
EVERY_CORPUS_READER = (*TRAINING, "evaluate")
ANY_EXIT = (0, 2, 3)

# (case, damage(root, rng), commands that read the damaged part, exit codes
# each may give); d0/train.xdaf is the clean train file every stage reads.
# A flip or a cut runs at DRAWS positions, each other case once.
DRAWS = 8
DAMAGES = [
    ("feature-byte-flip", lambda root, rng: _flip_file(root / "corpus/d0/train.xdaf", rng),
     EVERY_CORPUS_READER, ANY_EXIT),
    ("feature-header-flip", lambda root, rng: _flip_file(root / "corpus/d0/train.xdaf", rng, FEATURE_HEADER),
     EVERY_CORPUS_READER, (2,)),
    ("feature-truncated", lambda root, rng: _cut_file(root / "corpus/d0/train.xdaf", rng),
     EVERY_CORPUS_READER, (2,)),
    ("feature-width", lambda root, rng: write_features(
        root / "corpus/d0/train.xdaf", np.hstack([read_features(root / "corpus/d0/train.xdaf")] * 2)),
     TRAINING, (2,)),
    ("feature-frame-count", lambda root, rng: write_features(
        root / "corpus/d0/train.xdaf", read_features(root / "corpus/d0/train.xdaf")[:-1]),
     EVERY_CORPUS_READER, (2,)),
    ("feature-file-missing", lambda root, rng: (root / "corpus/d0/train.xdaf").unlink(),
     EVERY_CORPUS_READER, (2,)),
    ("manifest-byte-flip", lambda root, rng: _flip_file(root / "corpus/manifest.tsv", rng),
     EVERY_CORPUS_READER, ANY_EXIT),
    ("manifest-truncated", lambda root, rng: _cut_file(root / "corpus/manifest.tsv", rng),
     EVERY_CORPUS_READER, ANY_EXIT),
    ("record-order", lambda root, rng: _edit_manifest(root, rng, _swap_ends), EVERY_CORPUS_READER, (2,)),
    ("duplicate-line",
     lambda root, rng: _edit_manifest(root, rng, lambda lines, train, i: lines.append(lines[i])),
     EVERY_CORPUS_READER, (2,)),
    ("missing-line", lambda root, rng: _edit_manifest(root, rng, lambda lines, train, i: lines.pop(i)),
     EVERY_CORPUS_READER, (2,)),
    # the first and the last record of their file keep the generation order
    ("speaker-id-negative", _set_field(1, "-1", pick=0), EVERY_CORPUS_READER, (2,)),
    ("speaker-id-past-the-head", _set_field(1, "9", pick=-1), TRAINING, (2,)),
    ("domain-id-negative", _set_field(2, "-1"), EVERY_CORPUS_READER, (2,)),
    ("split-unknown", _set_field(3, "dev"), EVERY_CORPUS_READER, (2,)),
    ("checkpoint-byte-flip", lambda root, rng: _flip_file(root / "ft.ckpt", rng), ("adapt", "evaluate"),
     ANY_EXIT),
    ("checkpoint-truncated", lambda root, rng: _cut_file(root / "pre.ckpt", rng), ("finetune",), (2,)),
    ("checkpoint-missing", lambda root, rng: (root / "ft.ckpt").unlink(), ("adapt", "evaluate"), (2,)),
    ("wrong-stage-checkpoint", lambda root, rng: shutil.copy(root / "ad.ckpt", root / "pre.ckpt"),
     ("finetune",), (2,)),
    ("report-byte-flip", lambda root, rng: _flip_file(root / "ad.report", rng), ("report",), (0, 2)),
    ("report-truncated", lambda root, rng: _cut_file(root / "ad.report", rng), ("report",), (0, 2)),
]

CASES = [(i, k) for i, (name, *_) in enumerate(DAMAGES)
         for k in range(DRAWS if name.endswith(("flip", "truncated")) else 1)]


class TestDamageFuzz:
    @pytest.mark.parametrize("case,draw", CASES, ids=[f"{DAMAGES[i][0]}-{k}" for i, k in CASES])
    def test_a_damaged_artifact_never_ends_in_a_traceback(self, env, tmp_path, capsys, caplog, case, draw):
        """One damage to one artifact of a copy of the chain, drawn from a
        stream seeded by the case and draw: every command that reads it
        exits with a code the case allows, each of them 0, 2 or 3, and
        prints no traceback.  An error that escapes ``main``, exit 1 at
        the shell, fails the test."""
        name, damage, commands, allowed = DAMAGES[case]
        root = tmp_path / "chain"
        shutil.copytree(env["corpus"], root / "corpus")
        for key, file in (("pre", "pre.ckpt"), ("ft", "ft.ckpt"), ("ad", "ad.ckpt"), ("ad_rep", "ad.report"),
                          ("base_rep", "base.report")):
            shutil.copy(env[key], root / file)
        damage(root, np.random.default_rng([2026, case, draw]))
        conf = ["--config", str(env["config"]), "--corpus", str(root / "corpus"),
                *[f"--set={stage}.steps=2" for stage in TRAINING]]
        argv = {
            "pretrain": ["pretrain", *conf],
            "finetune": ["finetune", *conf, "--init", str(root / "pre.ckpt")],
            "adapt": ["adapt", *conf, "--init", str(root / "ft.ckpt")],
            "evaluate": ["evaluate", "--ckpt", str(root / "ft.ckpt"), "--corpus", str(root / "corpus")],
            "report": ["report", "--baseline", str(root / "base.report"), "--adapted", str(root / "ad.report")],
        }
        for command in commands:
            with np.errstate(all="ignore"):  # a flipped byte can make a signalling NaN
                rc = main(["-q", *argv[command], "--out", str(tmp_path / f"{command}.out")])
            assert rc in allowed, (name, command, rc)
            printed = capsys.readouterr()
            assert "Traceback" not in printed.out + printed.err + caplog.text, (name, command)
