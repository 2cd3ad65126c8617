"""Config loading, merging, and override tests."""

import pytest

from crossadapt.cli import main
from crossadapt.config import StageConfig, apply_overrides, build_config, load_config
from crossadapt.errors import ContractError
from crossadapt.numkit import ScheduleConfig


class TestDefaults:
    def test_loads_without_file(self):
        cfg = load_config()
        assert cfg.seed == 1
        assert cfg.corpus.num_speakers == 20
        assert cfg.pretrain.stage == "pretrain"
        assert cfg.adapt.kernel == "linear"

    def test_default_domains_clean_first(self):
        cfg = load_config()
        kinds = [d.kind for d in cfg.corpus.domains]
        assert kinds == ["clean", "channel", "farfield", "noisy"]
        gains = cfg.corpus.domains[1].channel_gain
        assert len(gains) == cfg.corpus.input_dim

    def test_stage_seeds_inherit_app_seed(self):
        cfg = load_config(seed=42)
        assert (cfg.pretrain.seed, cfg.finetune.seed, cfg.adapt.seed) == (42, 42, 42)


class TestFileAndOverrides:
    def test_partial_yaml_merges_over_defaults(self, tmp_path):
        f = tmp_path / "c.yaml"
        f.write_text("seed: 9\nadapt:\n  steps: 77\n  kernel: rbf\n  bandwidth: 2.5\n")
        cfg = load_config(f)
        assert cfg.seed == 9
        assert (cfg.adapt.steps, cfg.adapt.kernel, cfg.adapt.bandwidth) == (77, "rbf", 2.5)
        assert cfg.pretrain.steps == 120

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "c.yaml"
        f.write_text("adapt:\n  speed: 11\n")
        with pytest.raises(ContractError):
            load_config(f)

    @pytest.mark.parametrize("item", [
        "pretrain.checkpoint_every=5",
        "pretrain.schedule={noam_factor: 2}",
    ])
    def test_removed_keys_rejected(self, tmp_path, item):
        with pytest.raises(ContractError):
            load_config(sets=[item])
        assert main(["-q", "gen-corpus", "--set", item, "--out", str(tmp_path / "c")]) == 2

    def test_set_overrides(self):
        cfg = load_config(sets=["adapt.steps=500", "corpus.num_speakers=6"])
        assert cfg.adapt.steps == 500
        assert cfg.corpus.num_speakers == 6

    def test_set_parses_yaml_values(self):
        cfg = load_config(sets=["adapt.bandwidth=1.5", "corpus.domains=[{kind: clean}, {kind: noisy, snr_db: 2}, {kind: noisy, snr_db: 8}]"])
        assert cfg.adapt.bandwidth == 1.5
        assert [d.kind for d in cfg.corpus.domains] == ["clean", "noisy", "noisy"]

    def test_set_requires_equals(self):
        with pytest.raises(ContractError):
            load_config(sets=["adapt.steps"])

    def test_seed_flag_wins_over_file(self, tmp_path):
        f = tmp_path / "c.yaml"
        f.write_text("seed: 9\n")
        assert load_config(f, seed=123).seed == 123

    def test_explicit_stage_seed_kept_without_flag(self, tmp_path):
        f = tmp_path / "c.yaml"
        f.write_text("seed: 9\nadapt:\n  seed: 55\n")
        cfg = load_config(f)
        assert cfg.adapt.seed == 55 and cfg.pretrain.seed == 9

    def test_schedule_keys_validated(self, tmp_path):
        f = tmp_path / "c.yaml"
        f.write_text("pretrain:\n  schedule:\n    warmup: 10\n")
        with pytest.raises(ContractError):
            load_config(f)

    def test_schedule_values_pass_through(self, tmp_path):
        f = tmp_path / "c.yaml"
        f.write_text("adapt:\n  schedule:\n    lr0: 0.02\n    beta: 0.5\n")
        cfg = load_config(f)
        assert cfg.adapt.schedule.lr0 == 0.02
        assert cfg.adapt.schedule.beta == 0.5


class TestValidation:
    def base(self, **kw):
        args = dict(stage="pretrain", steps=10, batch_size=4, crop_frames=8,
                    schedule=ScheduleConfig(), seed=1)
        args.update(kw)
        return args

    def test_steps_positive(self):
        with pytest.raises(ContractError):
            StageConfig(**self.base(steps=0))

    def test_batch_minimum(self):
        with pytest.raises(ContractError):
            StageConfig(**self.base(batch_size=1))

    def test_adapt_needs_target_batch(self):
        with pytest.raises(ContractError):
            StageConfig(**self.base(stage="adapt", tgt_batch_size=1))

    def test_kernel_name_checked(self):
        with pytest.raises(ContractError):
            StageConfig(**self.base(kernel="poly"))

    def test_bandwidth_positive(self):
        with pytest.raises(ContractError):
            StageConfig(**self.base(kernel="rbf", bandwidth=-1.0))

    def test_domain_without_kind_rejected(self):
        with pytest.raises(ContractError):
            build_config({"corpus": {"domains": [{"snr_db": 1.0}]}})

    def test_domain_with_bad_field_rejected(self):
        with pytest.raises(ContractError):
            build_config({"corpus": {"domains": [{"kind": "clean", "gain": 2}]}})


class TestModelConfig:
    def test_architecture_dimensions(self):
        cfg = load_config()
        mc = cfg.model_config(num_speakers=10, num_target_domains=3)
        assert mc.num_speakers == 10
        assert mc.subnet.num_domains == 3
        assert mc.extractor.input_dim == cfg.corpus.input_dim
        assert mc.lde.component_dim == cfg.model["group_dims"][-1]


class TestApplyOverrides:
    def test_seed_clears_stage_seeds(self):
        raw = {"adapt": {"seed": 77}}
        out = apply_overrides(raw, None, seed=5)
        assert out["seed"] == 5
        assert "seed" not in out["adapt"]

    def test_original_untouched(self):
        raw = {"adapt": {"steps": 10}}
        apply_overrides(raw, ["adapt.steps=99"], seed=2)
        assert raw == {"adapt": {"steps": 10}}
