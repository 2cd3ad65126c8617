"""Config loading, merging, and override tests."""

import dataclasses
import inspect
import re
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from crossadapt.cli import main
from crossadapt.config import SCHEMA, apply_overrides, build_config, load_config
from crossadapt.corpus import CorpusConfig, gen_corpus
from crossadapt.errors import ContractError


README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_readme_yaml_block_loads(tmp_path):
    """Each ``yaml`` example of the README passes the schema, as written."""
    blocks = re.findall(r"^```yaml\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for i, block in enumerate(blocks):
        path = tmp_path / f"readme{i}.yaml"
        path.write_text(block)
        load_config(path)


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

    def test_corpus_recipe_defaults_live_only_in_the_schema(self):
        """Every recipe field is a ``corpus.*`` key and back, and
        ``gen_corpus`` has no default of its own to disagree with them."""
        keys = {key.split(".", 1)[1] for key in SCHEMA if key.startswith("corpus.")}
        assert {f.name for f in dataclasses.fields(CorpusConfig)} == keys
        params = inspect.signature(gen_corpus).parameters.values()
        assert all(p.default is inspect.Parameter.empty for p in params)


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
        # schedule values no stage reads
        *[f"finetune.schedule.{k}=2" for k in
          ("lr0", "alpha", "beta", "steepness", "noam_dim", "noam_warmup")],
        *[f"pretrain.schedule.{k}=2" for k in ("lr0", "alpha", "beta", "steepness")],
        *[f"adapt.schedule.{k}=2" for k in ("noam_dim", "noam_warmup")],
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

    def test_partial_schedule_keeps_stage_defaults(self):
        cfg = load_config(sets=["pretrain.schedule.noam_dim=32", "adapt.schedule={beta: 0.5}"])
        assert (cfg.pretrain.schedule.noam_dim, cfg.pretrain.schedule.noam_warmup) == (32, 150)
        assert (cfg.adapt.schedule.lr0, cfg.adapt.schedule.beta) == (0.001, 0.5)
        assert cfg.finetune.schedule is None

    def test_schedule_values_pass_through(self, tmp_path):
        f = tmp_path / "c.yaml"
        f.write_text("adapt:\n  schedule:\n    lr0: 0.02\n    beta: 0.5\n")
        cfg = load_config(f)
        assert cfg.adapt.schedule.lr0 == 0.02
        assert cfg.adapt.schedule.beta == 0.5


class TestValidation:
    def test_steps_positive(self):
        with pytest.raises(ContractError):
            load_config(sets=["pretrain.steps=0"])

    def test_batch_minimum(self):
        with pytest.raises(ContractError):
            load_config(sets=["pretrain.batch_size=1"])

    def test_adapt_needs_target_batch(self):
        with pytest.raises(ContractError):
            load_config(sets=["adapt.tgt_batch_size=1"])

    def test_kernel_name_checked(self):
        with pytest.raises(ContractError):
            load_config(sets=["adapt.kernel=poly"])

    def test_bandwidth_positive(self):
        with pytest.raises(ContractError):
            load_config(sets=["adapt.kernel=rbf", "adapt.bandwidth=-1.0"])

    @pytest.mark.parametrize("item", [
        "adapt.steps=true", "pretrain.batch_size=3.9", "seed=1.5", "seed=-1",
        "model.lde_components=abc", "model.lde_components=[8]", "corpus.input_dim=1e12",
    ])
    def test_integers_reject_bools_fractions_and_junk(self, item):
        with pytest.raises(ContractError):
            load_config(sets=[item])

    @pytest.mark.parametrize("value", ["nan", ".nan", "inf", "-.inf", "1e400", "true", "x", "[1]"])
    def test_floats_reject_non_finite_and_junk(self, value):
        with pytest.raises(ContractError):
            load_config(sets=[f"adapt.schedule.lr0={value}"])

    def test_numeric_strings_accepted(self):
        cfg = load_config(sets=["adapt.schedule.lr0=1e-3", "corpus.id_scale=1e60",
                                "pretrain.steps=2e2", "adapt.steps=30.0"])
        assert cfg.adapt.schedule.lr0 == 1e-3 and cfg.corpus.id_scale == 1e60
        assert (cfg.pretrain.steps, cfg.adapt.steps) == (200, 30)
        assert type(cfg.adapt.steps) is int

    @pytest.mark.parametrize("item", [
        "model.group_dims=[24, 24, 24]", "model.group_dims=[24, 24, 24, 24, 24]",
        "model.group_dims=[24.7, 24, 24, 24]", "model.context=[2, 1, 1, -1]",
        "model.front_dims=[64, x]", "model.back_dims={a: 1}",
    ])
    def test_lists_check_length_and_items(self, item):
        with pytest.raises(ContractError):
            load_config(sets=[item])

    def test_lists_become_tuples_of_int(self):
        cfg = load_config(sets=["model.group_dims=[8, 8.0, 8, 6]"])
        assert cfg.model["group_dims"] == (8, 8, 8, 6)
        assert all(type(d) is int for d in cfg.model["group_dims"])

    @pytest.mark.parametrize("section", ["corpus", "pretrain.schedule"])
    def test_non_mapping_section_named_without_stray_dot(self, section):
        with pytest.raises(ContractError, match=f"config section {section} must be a mapping$"):
            load_config(sets=[f"{section}=5"])

    @pytest.mark.parametrize("domains", [
        "5", "[5]", "[]", "null", "[{kind: clean}, {kind: farfield, smear_width: 2.5}]",
        "[{kind: clean}, {kind: channel, channel_gain: [1, 0, 1]}]",
        "[{kind: clean}, {kind: noisy, snr_db: .nan}]", "[{kind: loud}]",
    ])
    def test_domain_values_checked(self, domains):
        with pytest.raises(ContractError):
            load_config(sets=["corpus.input_dim=3", f"corpus.domains={domains}"])

    def test_channel_gain_length_must_match_input_dim(self):
        load_config(sets=["corpus.input_dim=2", "corpus.domains=[{kind: channel, channel_gain: [1, 2]}]"])
        with pytest.raises(ContractError):
            load_config(sets=["corpus.input_dim=3", "corpus.domains=[{kind: channel, channel_gain: [1, 2]}]"])

    def test_domain_without_kind_rejected(self):
        with pytest.raises(ContractError):
            build_config({"corpus": {"domains": [{"snr_db": 1.0}]}})

    def test_domain_with_bad_field_rejected(self):
        with pytest.raises(ContractError):
            build_config({"corpus": {"domains": [{"kind": "clean", "gain": 2}]}})


_JUNK = st.one_of(
    st.integers(), st.floats(allow_nan=True, allow_infinity=True), st.booleans(),
    st.none(), st.text(max_size=6), st.sampled_from(["1e-3", "8", "rbf", "linear", "clean"]),
    st.lists(st.one_of(st.integers(-1, 40), st.floats(-1, 40), st.text(max_size=2)), max_size=5),
    st.dictionaries(st.sampled_from(["kind", "snr_db", "noam_dim", "x"]), st.integers(-1, 9),
                    max_size=2),
)


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(sorted(SCHEMA) + ["corpus", "adapt.schedule"]),
                              _JUNK), max_size=4))
    def test_config_or_contract_error(self, pairs):
        sets = [f"{key}={yaml.safe_dump(value, default_flow_style=True)}" for key, value in pairs]
        try:
            cfg = load_config(sets=sets)
            cfg.model_config(4, 2)
        except ContractError:
            pass


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
