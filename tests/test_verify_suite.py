"""The self-check suite: roster integrity, determinism, green margins."""

import json
import math

import pytest

from riskspace import verify
from riskspace.cli import main
from riskspace.verify import Invariant, roster, run_suite

REQUIRED_IDS = {
    "chebyshev-l1",
    "dual-grid-oracle",
    "embedding-inequality",
    "escape-risk-monotone",
    "hahn-banach-attains",
    "hoelder-lq",
    "kusuoka-mixture-risk",
    "kusuoka-roundtrip",
    "lipschitz-translation-tight",
    "norm-subadditive",
    "pairing-hoelder",
    "risk-monotone",
    "sandwich-avar",
    "step-approx-valid",
}


class TestRoster:
    def test_ids_unique_and_sorted(self):
        ids = [inv.ident for inv in roster()]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))

    def test_core_invariants_registered(self):
        ids = {inv.ident for inv in roster()}
        missing = REQUIRED_IDS - ids
        assert not missing, f"missing invariants: {sorted(missing)}"

    def test_anchors_state_the_property(self):
        for inv in roster():
            assert inv.anchor.strip()
            assert len(inv.anchor) < 200


class TestRunSuite:
    def test_all_green_on_small_budget(self):
        report = run_suite(seed=0, cases=3)
        assert report["failures_total"] == 0
        for entry in report["invariants"]:
            assert entry["failures"] == 0
            assert entry["passes"] == 3
            assert entry["worst_margin"] >= 0.0

    def test_hahn_banach_witness_on_a_rounding_width_piece(self):
        # seed 735 draws a spectrum node one ulp from a tail sum of |Y|; the
        # average density over that piece would put the witness gauge at 1.354
        assert run_suite(seed=735, cases=4)["failures_total"] == 0

    def test_report_shape(self):
        report = run_suite(seed=1, cases=2)
        assert set(report) == {"seed", "cases", "invariants", "failures_total"}
        assert report["seed"] == 1 and report["cases"] == 2
        assert len(report["invariants"]) == len(roster())
        for entry in report["invariants"]:
            assert set(entry) == {"id", "anchor", "passes", "failures", "worst_margin"}

    def test_reports_are_byte_deterministic(self):
        a = json.dumps(run_suite(seed=3, cases=2), sort_keys=True)
        b = json.dumps(run_suite(seed=3, cases=2), sort_keys=True)
        assert a == b

    def test_failures_and_nan_margins_are_counted(self, monkeypatch):
        monkeypatch.setattr(verify, "_REGISTRY", [
            Invariant("fails", "margin -1", lambda rng: -1.0),
            Invariant("nan", "margin NaN", lambda rng: math.nan),
        ])
        report = run_suite(seed=0, cases=3)
        fails, nan = report["invariants"]
        assert (fails["passes"], fails["failures"], fails["worst_margin"]) == (0, 3, -1.0)
        # a NaN margin fails the case and pins the worst margin at -inf
        assert (nan["passes"], nan["failures"], nan["worst_margin"]) == (0, 3, -math.inf)
        assert report["failures_total"] == 6

    def test_failed_cases_exit_one(self, monkeypatch, capsys):
        monkeypatch.setattr(verify, "_REGISTRY", [Invariant("fails", "margin -1", lambda rng: -1.0)])
        assert main(["verify", "--cases", "2"]) == 1
        captured = capsys.readouterr()
        assert "2 invariant case(s) failed" in captured.err
        assert json.loads(captured.out)["failures_total"] == 2

    def test_parameter_domain(self):
        with pytest.raises(ValueError):
            run_suite(seed=0, cases=0)
        with pytest.raises(ValueError):
            run_suite(seed=-1, cases=1)
