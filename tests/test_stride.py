"""Tests for the stride predictor: two-delta, interval, CFI, catch-up."""

from repro.predictors import StrideConfig, StridePredictor
from repro.predictors.confidence import CFI_OFF


def drive(predictor, ip, addresses, offset=0):
    spec = correct = 0
    for addr in addresses:
        p = predictor.predict(ip, offset)
        if p.speculative:
            spec += 1
            if p.address == addr:
                correct += 1
        predictor.update(ip, offset, addr, p)
    return spec, correct


def array_walk(base, n, stride=16):
    return [base + stride * i for i in range(n)]


class TestBasicStride:
    def test_learns_stride(self):
        p = StridePredictor(StrideConfig.basic())
        spec, correct = drive(p, 0x100, array_walk(0x2000, 20))
        assert spec >= 15
        assert correct == spec

    def test_constant_address_is_stride_zero(self):
        p = StridePredictor(StrideConfig.basic())
        spec, correct = drive(p, 0x100, [0x2000] * 10)
        assert spec >= 6 and correct == spec

    def test_two_delta_ignores_single_blip(self):
        """One odd delta must not destroy a learned stride."""
        p = StridePredictor(StrideConfig.basic())
        walk = array_walk(0x2000, 10)
        drive(p, 0x100, walk)
        drive(p, 0x100, [0x9000])              # blip
        # Prediction resumes from the blip with the OLD stride.
        pred = p.predict(0x100, 0)
        assert pred.address == 0x9000 + 16

    def test_one_delta_variant_chases_blips(self):
        p = StridePredictor(StrideConfig.basic(two_delta=False))
        drive(p, 0x100, array_walk(0x2000, 10))
        drive(p, 0x100, [0x9000])
        pred = p.predict(0x100, 0)
        # Stride was immediately replaced by the blip delta.
        assert pred.address != 0x9000 + 16

    def test_negative_stride(self):
        p = StridePredictor(StrideConfig.basic())
        walk = [0x3000 - 8 * i for i in range(15)]
        spec, correct = drive(p, 0x100, walk)
        assert correct == spec and spec >= 10

    def test_random_addresses_not_speculated(self):
        import random

        rng = random.Random(1)
        p = StridePredictor(StrideConfig.basic())
        spec, _ = drive(
            p, 0x100, [rng.randrange(2**20) * 4 for _ in range(100)]
        )
        assert spec <= 2

    def test_reset_behaves_like_fresh_instance(self):
        walk = array_walk(0x2000, 30, stride=12)
        reused = StridePredictor(StrideConfig.basic(entries=64, ways=2))
        drive(reused, 0x80, walk)
        reused.reset()
        assert not reused.predict(0x80, 0).made
        fresh = StridePredictor(StrideConfig.basic(entries=64, ways=2))
        assert drive(reused, 0x80, walk) == drive(fresh, 0x80, walk)


class TestInterval:
    def test_interval_learned_at_wrap(self):
        p = StridePredictor(StrideConfig())
        walk = array_walk(0x2000, 20)
        drive(p, 0x100, walk * 2)
        from repro.predictors.base import lb_key

        state = p.table.peek(lb_key(0x100))
        assert state.interval > 0

    def test_interval_suppresses_wrap_misprediction(self):
        p = StridePredictor(StrideConfig())
        walk = array_walk(0x2000, 30)
        drive(p, 0x100, walk * 2)          # learn array length
        spec, correct = drive(p, 0x100, walk * 4)
        # Accuracy near-perfect: the wrap mispredictions are silenced.
        assert correct >= spec - 1

    def test_no_interval_pays_at_wraps(self):
        p = StridePredictor(StrideConfig(use_interval=False, cfi_mode=CFI_OFF))
        walk = array_walk(0x2000, 30)
        drive(p, 0x100, walk * 2)
        spec, correct = drive(p, 0x100, walk * 4)
        assert spec - correct >= 3          # one miss per wrap


class TestCFI:
    def test_cfi_blocks_bad_path(self):
        p = StridePredictor(StrideConfig())
        # Train a solid stride, then mispredict under a distinctive GHR.
        drive(p, 0x100, array_walk(0x2000, 10))
        p.ghr = 0b1010
        pred = p.predict(0x100, 0)
        assert pred.speculative
        p.update(0x100, 0, 0xDEAD0, pred)   # wrong -> records GHR 1010
        p.ghr = 0b0000                       # retrain on a different path
        drive(p, 0x100, array_walk(0xDEAD0, 6))
        p.ghr = 0b1010
        assert not p.predict(0x100, 0).speculative
        p.ghr = 0b0101
        assert p.predict(0x100, 0).speculative


class TestSpeculativeMode:
    def test_gap_zero_equivalence(self):
        """speculative_mode with immediate updates == plain mode."""
        walk = array_walk(0x2000, 40) * 3
        plain = StridePredictor()
        spec1, corr1 = drive(plain, 0x100, walk)
        spec_mode = StridePredictor()
        spec_mode.speculative_mode = True
        spec2, corr2 = drive(spec_mode, 0x100, walk)
        # Immediate updates keep spec state synced: same outcome.
        assert (spec1, corr1) == (spec2, corr2)

    def test_catch_up_extrapolates(self):
        """After a wrong resolution the spec address jumps pending strides."""
        from repro.predictors.base import lb_key
        from repro.predictors.stride import StrideState

        p = StridePredictor()
        p.speculative_mode = True
        # Train the stride through normal operation.
        preds = []
        addrs = array_walk(0x2000, 12)
        for i, addr in enumerate(addrs):
            pred = p.predict(0x100, 0)
            preds.append(pred)
            p.update(0x100, 0, addr, pred)
        state = p.table.peek(lb_key(0x100))
        assert state.stride == 16
        # Simulate three in-flight predictions, then a surprise jump.
        inflight = [p.predict(0x100, 0) for _ in range(3)]
        p.update(0x100, 0, 0x8000, inflight[0])   # wrong!
        # Catch-up: spec_last = 0x8000 + stride * pending(2).
        assert state.spec_last_addr == 0x8000 + 16 * 2
