"""Tests for the consolidated report and combined unit options."""

import random

import pytest

from repro.bits.ieee754 import BINARY64
from repro.core.formats import MFFormat, OperandBundle, RoundingMode
from repro.core.mfmult import MFMult
from repro.core.pipeline_unit import MFMultUnit
from repro.core.reduction import reduce_binary64


class TestReportGenerator:
    def test_report_contains_every_section(self, tmp_path):
        from repro.eval.report import generate_report

        path = tmp_path / "report.md"
        text = generate_report(n_cycles=4, out_path=str(path))
        assert path.read_text() == text
        for marker in ("Table I ", "Table II ", "Table III ", "Table IV ",
                       "Table V ", "Fig. 1", "Fig. 2", "Fig. 3", "Fig. 4",
                       "Fig. 5", "Fig. 6", "Sec. IV", "Sec. III-E"):
            assert marker in text, marker
        assert "paper" in text and "measured" in text

    def test_cli_report(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "r.md"
        assert main(["report", "--cycles", "4", "--no-sweeps",
                     "--no-verification", "--output", str(out)]) == 0
        assert "Table V" in out.read_text()


class TestCombinedUnitOptions:
    """RNE + reducer + operand isolation composed in one build."""

    @pytest.fixture(scope="class")
    def unit(self):
        return MFMultUnit(rounding="rne", with_reducer=True,
                          operand_isolation=True)

    def test_all_features_present(self, unit):
        blocks = {g.block.split("/", 1)[0] for g in unit.module.gates}
        assert "sticky" in blocks
        assert "reducer" in blocks
        assert unit.has_reducer

    def test_rne_and_reducer_together(self, unit):
        mf = MFMult(mode="full", rounding=RoundingMode.RNE)
        rng = random.Random(50)
        ops = [(OperandBundle.fp64(
            BINARY64.pack(0, rng.randint(600, 1400), rng.getrandbits(52)),
            BINARY64.pack(0, rng.randint(600, 1400), rng.getrandbits(52))),
            MFFormat.FP64) for __ in range(12)]
        for (bundle, fmt), res in zip(ops, unit.run_batch(ops)):
            expect = mf.multiply(bundle, fmt).ph
            assert res.ph == expect
            decision = reduce_binary64(expect)
            assert res.reduced == (1 if decision.reduced else 0)
            if decision.reduced:
                assert res.pl == decision.encoding32

    def test_int64_still_exact(self, unit):
        rng = random.Random(51)
        ops = [(OperandBundle.int64(rng.getrandbits(64),
                                    rng.getrandbits(64)), MFFormat.INT64)
               for __ in range(6)]
        for (bundle, __), res in zip(ops, unit.run_batch(ops)):
            assert (res.ph << 64) | res.pl == bundle.x * bundle.y
