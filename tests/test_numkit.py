import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossadapt.errors import ContractError, NumericError, StructuralError
from crossadapt.numkit import (
    OptimState,
    ParamGroup,
    ScheduleConfig,
    adam_step,
    inv_decay_lr,
    noam_lr,
    noam_peak,
    progressive_weight,
)

from gradcheck import grad_check

# Frozen expected values, computed once with mpmath at 30 digits from the
# closed forms (inverse decay with lr0=0.01, alpha=10, beta=0.75; progressive
# weight with steepness=10; warmup schedule with dim=256, warmup=4000).
INV_DECAY_HALF = 0.0026084743001221455
INV_DECAY_ONE = 0.0016556002607617017
MU_AT_02 = 0.7615941559557649  # equals tanh(1)
MU_AT_1 = 0.9999092042625951
NOAM_STEP1 = 2.4705294220065464e-7
NOAM_PEAK = 0.0009882117688026185
ADAM_T1_W = 0.9000000009999999  # hand-evaluated single-step update, no decay


def scalar(x):
    return np.array([float(x)], dtype=np.float64)


class TestAdamStep:
    def test_single_step_hand_value(self):
        w = scalar(1.0)
        group = ParamGroup("w", {"w": w})
        state = OptimState()
        adam_step([group], {"w": scalar(1.0)}, state, base_lr=0.1, weight_decay=0.0)
        assert state.t == 1
        assert w[0] == pytest.approx(ADAM_T1_W, abs=1e-15)

    def test_frozen_group_bit_identical(self):
        w = scalar(1.2345)
        before = w.copy()
        group = ParamGroup("w", {"w": w}, frozen=True)
        adam_step([group], {}, OptimState(), base_lr=0.1)
        assert w.tobytes() == before.tobytes()

    def test_zero_grad_zero_moments_only_decay(self):
        w = scalar(2.0)
        group = ParamGroup("w", {"w": w})
        adam_step([group], {"w": scalar(0.0)}, OptimState(), base_lr=0.1, weight_decay=1e-4)
        # decoupled decay: w -= lr * wd * w, Adam term is exactly zero
        assert w[0] == pytest.approx(2.0 - 0.1 * 1e-4 * 2.0, abs=1e-15)

    def test_all_frozen_is_identity(self):
        a, b = scalar(1.0), scalar(-3.0)
        groups = [
            ParamGroup("a", {"a": a}, frozen=True),
            ParamGroup("b", {"b": b}, frozen=True),
        ]
        adam_step(groups, {}, OptimState(), base_lr=0.5)
        assert a[0] == 1.0 and b[0] == -3.0

    def test_lr_multiplier_scales_update(self):
        w1, w2 = scalar(1.0), scalar(1.0)
        g1 = ParamGroup("g1", {"w1": w1}, lr_multiplier=1.0)
        g2 = ParamGroup("g2", {"w2": w2}, lr_multiplier=10.0)
        adam_step(
            [g1, g2],
            {"w1": scalar(1.0), "w2": scalar(1.0)},
            OptimState(),
            base_lr=0.01,
            weight_decay=0.0,
        )
        assert (1.0 - w2[0]) == pytest.approx(10.0 * (1.0 - w1[0]), rel=1e-12)

    def test_shape_mismatch_raises_structural(self):
        group = ParamGroup("w", {"w": np.zeros(3)})
        with pytest.raises(StructuralError):
            adam_step([group], {"w": np.zeros(4)}, OptimState(), base_lr=0.1)

    def test_nonfinite_grad_names_tensor(self):
        group = ParamGroup("w", {"weird": scalar(1.0)})
        with pytest.raises(NumericError, match="weird"):
            adam_step([group], {"weird": scalar(float("nan"))}, OptimState(), base_lr=0.1)

    def test_grad_key_mismatch_raises(self):
        group = ParamGroup("w", {"w": scalar(1.0)})
        with pytest.raises(StructuralError):
            adam_step([group], {"w": scalar(1.0), "other": scalar(1.0)}, OptimState(), base_lr=0.1)
        with pytest.raises(StructuralError):
            adam_step([group], {}, OptimState(), base_lr=0.1)

    def test_vhat_monotone_nondecreasing(self):
        w = scalar(0.0)
        group = ParamGroup("w", {"w": w})
        state = OptimState()
        prev = 0.0
        rng = np.random.default_rng(7)
        for _ in range(20):
            adam_step([group], {"w": scalar(rng.normal())}, state, base_lr=0.01)
            assert state.vhat["w"][0] >= prev
            prev = state.vhat["w"][0]


class TestSchedules:
    def test_inv_decay_frozen_values(self):
        cfg = ScheduleConfig()
        assert inv_decay_lr(0.0, cfg) == pytest.approx(0.01, abs=1e-12)
        assert inv_decay_lr(0.5, cfg) == pytest.approx(INV_DECAY_HALF, abs=1e-12)
        assert inv_decay_lr(1.0, cfg) == pytest.approx(INV_DECAY_ONE, abs=1e-12)

    def test_inv_decay_out_of_range(self):
        cfg = ScheduleConfig()
        with pytest.raises(ContractError):
            inv_decay_lr(-0.01, cfg)
        with pytest.raises(ContractError):
            inv_decay_lr(1.01, cfg)

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    def test_inv_decay_strictly_decreasing(self, p1, p2):
        cfg = ScheduleConfig()
        lo, hi = min(p1, p2), max(p1, p2)
        if hi - lo > 1e-9:  # below float64 resolution of 1+alpha*p the inputs coincide
            assert inv_decay_lr(lo, cfg) > inv_decay_lr(hi, cfg)

    def test_progressive_weight_values(self):
        assert progressive_weight(0.0) == 0.0
        assert progressive_weight(0.2) == pytest.approx(MU_AT_02, abs=1e-12)
        assert progressive_weight(0.2) == pytest.approx(math.tanh(1.0), abs=1e-12)
        assert progressive_weight(1.0) == pytest.approx(MU_AT_1, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    def test_progressive_weight_monotone_below_one(self, p1, p2):
        lo, hi = min(p1, p2), max(p1, p2)
        assert progressive_weight(hi) < 1.0
        if hi - lo > 1e-9:
            assert progressive_weight(lo) < progressive_weight(hi)

    def test_noam_frozen_values(self):
        cfg = ScheduleConfig()
        assert noam_lr(1, cfg) == pytest.approx(NOAM_STEP1, rel=1e-12)
        assert noam_lr(4000, cfg) == pytest.approx(NOAM_PEAK, rel=1e-12)
        assert noam_lr(16000, cfg) == pytest.approx(NOAM_PEAK / 2.0, rel=1e-12)
        assert noam_peak(cfg) == pytest.approx(NOAM_PEAK, rel=1e-12)

    def test_noam_rises_then_falls(self):
        cfg = ScheduleConfig(noam_warmup=50)
        values = [noam_lr(s, cfg) for s in range(1, 200)]
        peak_idx = int(np.argmax(values))
        assert peak_idx + 1 == 50
        assert all(a < b for a, b in zip(values[:49], values[1:50]))
        assert all(a > b for a, b in zip(values[49:-1], values[50:]))

    def test_noam_step_zero_rejected(self):
        with pytest.raises(ContractError):
            noam_lr(0, ScheduleConfig())

    def test_schedule_config_validation(self):
        with pytest.raises(ContractError):
            ScheduleConfig(lr0=0.0)
        with pytest.raises(ContractError):
            ScheduleConfig(steepness=0.0)
        with pytest.raises(ContractError):
            ScheduleConfig(alpha=-1.0)


class TestGradCheck:
    def test_quadratic_is_nearly_exact(self):
        def f(point):
            w = point["w"]
            return float(np.sum(w * w)), {"w": 2.0 * w}

        err = grad_check(f, {"w": scalar(3.0)})
        assert err < 1e-9

    def test_softmax_cross_entropy_gradient(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(size=3)
        label = 1

        def f(point):
            z = point["z"]
            m = z.max()
            logp = z - m - math.log(np.sum(np.exp(z - m)))
            grad = np.exp(logp)
            grad[label] -= 1.0
            return float(-logp[label]), {"z": grad}

        err = grad_check(f, {"z": logits})
        assert err < 1e-6

    def test_detects_wrong_gradient(self):
        def f(point):
            w = point["w"]
            return float(np.sum(w * w)), {"w": 3.0 * w}  # deliberately wrong

        err = grad_check(f, {"w": scalar(2.0)})
        assert err > 1e-2

    def test_eps_contract(self):
        def f(point):
            return 0.0, {"w": np.zeros(1)}

        with pytest.raises(ContractError):
            grad_check(f, {"w": scalar(1.0)}, eps=1e-8)
        with pytest.raises(ContractError):
            grad_check(f, {"w": scalar(1.0)}, eps=1e-2)

    def test_nonfinite_f_raises_numeric(self):
        def f(point):
            w = point["w"]
            if w[0] != 1.0:
                return float("nan"), {"w": np.zeros(1)}
            return 1.0, {"w": np.zeros(1)}

        with pytest.raises(NumericError):
            grad_check(f, {"w": scalar(1.0)})

    def test_point_not_mutated(self):
        w = scalar(5.0)

        def f(point):
            return float(point["w"][0] ** 2), {"w": 2.0 * point["w"]}

        grad_check(f, {"w": w})
        assert w[0] == 5.0


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=400))
def test_noam_monotone_around_warmup(step):
    cfg = ScheduleConfig(noam_warmup=200)
    if step < 200:
        assert noam_lr(step, cfg) < noam_lr(step + 1, cfg)
    elif step > 200:
        assert noam_lr(step, cfg) < noam_lr(step - 1, cfg)
