"""End-to-end coverage of the command-line frontend.

Commands run in-process through main(argv) for speed; one subprocess test
covers the installed module entry point.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import riskspace
from riskspace.cli import _jsonify, main


@pytest.fixture()
def files(tmp_path):
    (tmp_path / "avar05.json").write_text(json.dumps({"kind": "avar", "alpha": 0.5}))
    (tmp_path / "avar09.json").write_text(json.dumps({"kind": "avar", "alpha": 0.9}))
    (tmp_path / "power.json").write_text(json.dumps({"kind": "power_sqrt"}))
    (tmp_path / "flat.json").write_text(
        json.dumps({"kind": "step", "breakpoints": [0.0, 1.0], "values": [1.0]})
    )
    (tmp_path / "four.csv").write_text("1\n2\n3\n4\n")
    (tmp_path / "signed.csv").write_text("value,weight\n-2,0.5\n1,0.5\n")
    (tmp_path / "indicator.csv").write_text("0,0.75\n1,0.25\n")
    (tmp_path / "mu.json").write_text(json.dumps({"atoms": [[0.0, 0.5], [0.5, 0.5]]}))
    for name, doc in (("setA", "avar05"), ("setB", "avar09")):
        d = tmp_path / name
        d.mkdir()
        (d / "member.json").write_text((tmp_path / f"{doc}.json").read_text())
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


class TestEval:
    def test_risk_of_uniform_sample(self, files, capsys):
        code, payload, _ = run(
            capsys, "eval", "--spectrum", files / "avar05.json", "--samples", files / "four.csv"
        )
        assert code == 0
        assert payload["value"] == 3.5
        assert payload["method"] == "quantile-integral"
        assert payload["norm"] is False

    def test_norm_flag_folds_signs(self, files, capsys):
        code, payload, _ = run(
            capsys, "eval", "--spectrum", files / "avar05.json",
            "--samples", files / "signed.csv", "--norm",
        )
        assert code == 0
        assert payload["value"] == 2.0
        assert payload["norm"] is True

    def test_both_methods_cross_check(self, files, capsys):
        code, payload, _ = run(
            capsys, "eval", "--spectrum", files / "power.json",
            "--samples", files / "four.csv", "--method", "both",
        )
        assert code == 0
        assert payload["difference"] <= payload["tol"]
        assert payload["quantile-integral"] == pytest.approx(
            payload["cdf-tail-integral"], abs=1e-9
        )

    def test_methods_disagreeing_beyond_tol_exit_one(self, files, capsys, monkeypatch):
        monkeypatch.setattr("riskspace.cli.spectral_risk_via_cdf", lambda sigma, dist: 0.0)
        code, payload, err = run(
            capsys, "eval", "--spectrum", files / "avar05.json",
            "--samples", files / "four.csv", "--method", "both",
        )
        assert code == 1
        assert "methods disagree" in err
        assert payload["quantile-integral"] == 3.5
        assert payload["cdf-tail-integral"] == 0.0
        assert payload["difference"] == 3.5

    def test_weights_whose_total_overflows(self, files, tmp_path, capsys):
        (tmp_path / "huge.csv").write_text("1,1e308\n2,1e308\n")
        (tmp_path / "mean.json").write_text(json.dumps({"kind": "avar", "alpha": 0.0}))
        code, payload, _ = run(
            capsys, "eval", "--spectrum", tmp_path / "mean.json", "--samples", tmp_path / "huge.csv"
        )
        assert code == 0
        assert payload["value"] == 1.5

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method", ["quantile", "cdf", "both"])
    def test_values_spanning_more_than_the_float_range(self, files, tmp_path, capsys, method):
        # the value gap 3.4e308 overflows; the cdf form sums halved values
        (tmp_path / "wide.csv").write_text("-1.7e308\n1.7e308\n")
        code, payload, _ = run(
            capsys, "eval", "--spectrum", files / "avar09.json",
            "--samples", tmp_path / "wide.csv", "--method", method,
        )
        assert code == 0
        assert payload["value"] == 1.7e308

    def test_weight_that_underflows_when_normalised(self, files, tmp_path, capsys):
        (tmp_path / "tiny.csv").write_text("value,weight\n1,1e300\n2,1e-300\n")
        code, payload, err = run(
            capsys, "eval", "--spectrum", files / "avar05.json", "--samples", tmp_path / "tiny.csv"
        )
        assert code == 2
        assert payload is None
        assert "underflows" in err

    def test_cdf_method_alone(self, files, capsys):
        code, payload, _ = run(
            capsys, "eval", "--spectrum", files / "flat.json",
            "--samples", files / "four.csv", "--method", "cdf",
        )
        assert code == 0
        assert payload["method"] == "cdf-tail-integral"
        assert payload["value"] == pytest.approx(2.5, abs=1e-12)

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_invalid_tol_is_a_usage_error(self, files, capsys, tol):
        # a NaN tolerance would pass every comparison, a negative one fail it
        code, payload, err = run(
            capsys, "eval", "--spectrum", files / "power.json",
            "--samples", files / "four.csv", "--method", "both", "--tol", tol,
        )
        assert code == 2
        assert payload is None
        assert "--tol" in err


class TestNormAndDual:
    def test_norm_subcommand(self, files, capsys):
        code, payload, _ = run(
            capsys, "norm", "--spectrum", files / "avar05.json", "--samples", files / "signed.csv"
        )
        assert code == 0
        assert payload["value"] == 2.0

    def test_dual_norm_of_indicator(self, files, capsys):
        code, payload, _ = run(
            capsys, "dual-norm", "--spectrum", files / "avar05.json",
            "--samples", files / "indicator.csv",
        )
        assert code == 0
        assert payload["value"] == 0.5
        assert payload["attaining_alpha"] == 0.75
        assert "limit_unverified" not in payload


class TestDominate:
    def test_holds(self, files, capsys):
        code, payload, err = run(
            capsys, "dominate", "--spectrum", files / "avar05.json",
            "--samples", files / "indicator.csv", "--eta", "0.6",
        )
        assert code == 0
        assert payload["holds"] is True
        assert err == ""

    def test_violation_exits_one(self, files, capsys):
        code, payload, err = run(
            capsys, "dominate", "--spectrum", files / "avar05.json",
            "--samples", files / "indicator.csv", "--eta", "0.4",
        )
        assert code == 1
        assert payload["holds"] is False
        assert "dominance fails" in err

    def test_nan_eta_is_a_usage_error(self, files, capsys):
        code, payload, err = run(
            capsys, "dominate", "--spectrum", files / "avar05.json",
            "--samples", files / "indicator.csv", "--eta", "nan",
        )
        assert code == 2
        assert payload is None
        assert "eta must be positive" in err


class TestKusuoka:
    def test_to_measure(self, files, capsys):
        code, payload, _ = run(
            capsys, "kusuoka", "to-measure", "--spectrum", files / "avar05.json"
        )
        assert code == 0
        assert payload == {"atoms": [[0.5, 1.0]]}

    def test_to_spectrum(self, files, capsys):
        code, payload, _ = run(capsys, "kusuoka", "to-spectrum", "--measure", files / "mu.json")
        assert code == 0
        assert payload["kind"] == "step"
        assert payload["breakpoints"] == [0.0, 0.5, 1.0]
        assert payload["values"] == [0.5, 1.5]

    def test_roundtrip_through_files(self, files, tmp_path, capsys):
        code, measured, _ = run(
            capsys, "kusuoka", "to-measure", "--spectrum", files / "avar05.json"
        )
        assert code == 0
        back = tmp_path / "roundtrip.json"
        back.write_text(json.dumps(measured))
        code, payload, _ = run(capsys, "kusuoka", "to-spectrum", "--measure", back)
        assert code == 0
        assert payload["values"] == [0.0, 2.0]

    def test_nan_level_rejected(self, files, tmp_path, capsys):
        # json reads NaN; the measure must reject it, not count it as level 1
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps({"atoms": [[0.0, 0.5], [float("nan"), 0.5]]}))
        code, payload, err = run(capsys, "kusuoka", "to-spectrum", "--measure", bad)
        assert code == 2
        assert payload is None
        assert "levels must lie in [0, 1]" in err
        assert "nan.json" in err

    def test_missing_argument(self, files, capsys):
        code, payload, err = run(capsys, "kusuoka", "to-measure")
        assert code == 2
        assert payload is None
        assert "--spectrum" in err
        code, payload, err = run(capsys, "kusuoka", "to-spectrum")
        assert code == 2
        assert payload is None
        assert "--measure" in err


class TestEmbed:
    def test_pairwise_constant(self, files, capsys):
        code, payload, _ = run(
            capsys, "embed", "--from", files / "avar05.json", "--to", files / "avar09.json"
        )
        assert code == 0
        assert payload["constant"] == pytest.approx(5.0, abs=2e-15)
        assert payload["attaining_alpha"] == 0.9
        assert set(payload) == {"constant", "attaining_alpha"}

    def test_infinite_constant_serialized_as_string(self, files, capsys):
        code, payload, _ = run(
            capsys, "embed", "--from", files / "avar09.json", "--to", files / "power.json"
        )
        assert code == 0
        assert payload["constant"] == "inf"

    def test_set_families(self, files, capsys):
        code, payload, _ = run(
            capsys, "embed", "--set-from", files / "setA", "--set-to", files / "setB"
        )
        assert code == 0
        assert payload["constant"] == pytest.approx(5.0, abs=2e-15)
        assert payload["sources"] == 1 and payload["targets"] == 1

    def test_mixing_pair_and_set_arguments(self, files, capsys):
        code, _, err = run(capsys, "embed", "--from", files / "avar05.json")
        assert code == 2
        assert "either" in err

    def test_empty_set_directory(self, files, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, err = run(capsys, "embed", "--set-from", empty, "--set-to", files / "setB")
        assert code == 2
        assert "no spectrum files" in err


class TestEscape:
    def test_lp_mode(self, files, capsys):
        code, payload, _ = run(
            capsys, "escape", "--spectrum", files / "power.json",
            "--mode", "lp", "--q", "1.5", "--depth", "5",
        )
        assert code == 0
        assert payload["p"] == 3.0
        assert payload["spectral_risk"] <= payload["predicted_risk"] + 1e-12
        assert payload["predicted_risk"] <= payload["risk_limit"]
        assert payload["segments"] == len(payload["dist"]["values"])

    def test_lp_mode_at_depth(self, files, capsys):
        code, payload, _ = run(
            capsys, "escape", "--spectrum", files / "power.json",
            "--mode", "lp", "--depth", "3000",
        )
        assert code == 0
        assert payload["segments"] == 24001  # the zero band and 8 pieces per band

    def test_lp_mode_nonintegrable_exponent(self, files, capsys):
        code, payload, err = run(
            capsys, "escape", "--spectrum", files / "power.json", "--q", "2.0"
        )
        assert code == 2
        assert payload is None
        assert "not integrable" in err

    def test_lp_mode_band_below_the_double_range(self, files, capsys):
        code, payload, err = run(
            capsys, "escape", "--spectrum", files / "power.json", "--q", "1.999", "--depth", "1"
        )
        assert code == 2
        assert payload is None
        assert "below the smallest positive double" in err
        assert "Geometric" not in err

    def test_linf_mode_band_below_the_double_range(self, files, capsys):
        # AVaR(0.5) puts band n at gap 2**-(n+1), which is 0 beyond n = 1074
        code, payload, err = run(
            capsys, "escape", "--spectrum", files / "avar05.json",
            "--mode", "linf", "--depth", "1100",
        )
        assert code == 2
        assert payload is None
        assert "band boundaries collapsed" in err

    def test_linf_mode(self, files, capsys):
        code, payload, _ = run(
            capsys, "escape", "--spectrum", files / "power.json",
            "--mode", "linf", "--depth", "3",
        )
        assert code == 0
        assert payload["esssup"] == 3.0
        assert payload["risk"] <= payload["risk_bound"] <= 4.0


class TestDiverge:
    def test_builtin_heavy_tail(self, files, capsys):
        code, payload, _ = run(capsys, "diverge", "--spectrum", files / "flat.json")
        assert code == 0
        assert payload["exceeded_at"] == 2.0**19
        assert payload["vacuous"] is False
        assert payload["rows"][-1]["l1"] == pytest.approx(10.5, abs=1e-12)
        for row in payload["rows"]:
            assert row["sigma"] >= row["l1"] - 1e-12

    def test_bounded_samples_go_vacuous(self, files, capsys):
        code, payload, _ = run(
            capsys, "diverge", "--spectrum", files / "flat.json",
            "--samples", files / "four.csv", "--target", "50",
        )
        assert code == 0
        assert payload["vacuous"] is True
        assert payload["exceeded_at"] is None

    def test_levels_stay_finite_up_to_the_largest_double(self, files, capsys):
        (files / "huge.csv").write_text("1.5e308\n1\n")
        code, payload, _ = run(
            capsys, "diverge", "--spectrum", files / "flat.json",
            "--samples", files / "huge.csv", "--target", "1e308",
        )
        assert code == 0
        assert payload["vacuous"] is True
        assert payload["rows"][-1]["level"] == sys.float_info.max

    def test_nan_target_is_a_usage_error(self, files, capsys):
        code, payload, err = run(
            capsys, "diverge", "--spectrum", files / "flat.json", "--target", "nan"
        )
        assert code == 2
        assert payload is None
        assert "target must be positive" in err


class TestApprox:
    def test_certified_error_under_budget(self, files, capsys):
        code, payload, _ = run(
            capsys, "approx", "--spectrum", files / "avar05.json",
            "--samples", files / "four.csv", "--epsilon", "0.1",
        )
        assert code == 0
        assert payload["error"] < payload["epsilon"]
        assert payload["steps"] == 4

    def test_nan_epsilon_is_a_usage_error(self, files, capsys):
        code, payload, err = run(
            capsys, "approx", "--spectrum", files / "avar05.json",
            "--samples", files / "four.csv", "--epsilon", "nan",
        )
        assert code == 2
        assert payload is None
        assert "tolerance must be positive" in err


class TestVerify:
    def test_small_budget_green(self, files, capsys):
        code, payload, err = run(capsys, "verify", "--cases", "2")
        assert code == 0
        assert payload["failures_total"] == 0
        assert err == ""

    def test_global_flags_accepted_in_both_positions(self, files, capsys):
        code_a, before, _ = run(capsys, "--seed", "7", "verify", "--cases", "1")
        code_b, after, _ = run(capsys, "verify", "--cases", "1", "--seed", "7")
        assert code_a == code_b == 0
        assert before == after
        assert before["seed"] == 7


class TestOutputShape:
    def test_compact_json(self, files, capsys):
        code = main([
            "--json-indent=-1", "eval",
            "--spectrum", str(files / "avar05.json"),
            "--samples", str(files / "four.csv"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("\n") == 1  # one document, one trailing newline
        assert json.loads(out)["value"] == 3.5

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.startswith("riskspace ")


# invalid spectrum files, each with the text its error must contain
_BAD_SPECTRA = {
    "decreasing": (
        {"kind": "step", "breakpoints": [0.0, 0.5, 1.0], "values": [1.5, 0.5]},
        "monotonicity at u=0.5",
    ),
    "nan-breakpoint": (
        {"kind": "step", "breakpoints": [0.0, float("nan"), 1.0], "values": [1.0, 1.0]},
        "breakpoints must be strictly increasing",
    ),
}

# every command that reads a spectrum, with paths relative to the files
# fixture; bad/bad.json is the invalid spectrum
_SPECTRUM_READERS = {
    "eval": ["eval", "--spectrum", "bad/bad.json", "--samples", "four.csv"],
    "norm": ["norm", "--spectrum", "bad/bad.json", "--samples", "four.csv"],
    "dual-norm": ["dual-norm", "--spectrum", "bad/bad.json", "--samples", "four.csv"],
    "dominate": ["dominate", "--spectrum", "bad/bad.json", "--samples", "four.csv", "--eta", "1"],
    "to-measure": ["kusuoka", "to-measure", "--spectrum", "bad/bad.json"],
    "embed-from": ["embed", "--from", "bad/bad.json", "--to", "avar05.json"],
    "embed-to": ["embed", "--from", "avar05.json", "--to", "bad/bad.json"],
    "embed-set-from": ["embed", "--set-from", "bad", "--set-to", "setB"],
    "escape-lp": ["escape", "--spectrum", "bad/bad.json", "--mode", "lp", "--depth", "5"],
    "escape-linf": ["escape", "--spectrum", "bad/bad.json", "--mode", "linf", "--depth", "5"],
    "diverge": ["diverge", "--spectrum", "bad/bad.json"],
    "approx": ["approx", "--spectrum", "bad/bad.json", "--samples", "four.csv", "--epsilon", "0.1"],
}


@pytest.mark.parametrize("command", sorted(_SPECTRUM_READERS))
@pytest.mark.parametrize("bad", sorted(_BAD_SPECTRA))
def test_invalid_spectrum_file_exits_2(files, capsys, monkeypatch, command, bad):
    doc, message = _BAD_SPECTRA[bad]
    (files / "bad").mkdir()
    (files / "bad" / "bad.json").write_text(json.dumps(doc))
    monkeypatch.chdir(files)
    code, payload, err = run(capsys, *_SPECTRUM_READERS[command])
    assert code == 2
    assert payload is None
    assert message in err
    assert "bad.json" in err


class TestFailureExits:
    def test_missing_file(self, files, capsys):
        code, payload, err = run(
            capsys, "norm", "--spectrum", files / "avar05.json", "--samples", files / "nope.csv"
        )
        assert code == 2
        assert payload is None
        assert err != ""

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([1, 2], "must be an object with a 'kind' field"),
            ({"kind": "avar"}, "avar spectrum needs an 'alpha' field"),
            ({"kind": "step", "values": [1.0]}, "step spectrum needs 'breakpoints' and 'values'"),
        ],
    )
    def test_incomplete_spectrum_document(self, files, tmp_path, capsys, doc, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, payload, err = run(
            capsys, "norm", "--spectrum", bad, "--samples", files / "four.csv"
        )
        assert code == 2
        assert payload is None
        assert message in err

    def test_malformed_csv_reports_line(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1\n2\nbanana\n")
        code, _, err = run(
            capsys, "norm", "--spectrum", files / "avar05.json", "--samples", bad
        )
        assert code == 2
        assert "line 3" in err

    def test_ragged_row_reports_line(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,0.5\n2\n")
        code, payload, err = run(
            capsys, "norm", "--spectrum", files / "avar05.json", "--samples", bad
        )
        assert code == 2
        assert payload is None
        assert "line 2: inconsistent column count" in err

    def test_blank_lines_and_header_skipped(self, files, tmp_path, capsys):
        padded = tmp_path / "padded.csv"
        padded.write_text("value\n\n1\n2\n\n3\n4\n\n")
        code, payload, _ = run(
            capsys, "eval", "--spectrum", files / "avar05.json", "--samples", padded
        )
        assert code == 0
        assert payload["value"] == 3.5

    @pytest.mark.parametrize("text", ["\n\n\n", "value,weight\n", "value\n\n"])
    def test_file_without_observations(self, files, tmp_path, capsys, text):
        empty = tmp_path / "empty.csv"
        empty.write_text(text)
        code, payload, err = run(
            capsys, "norm", "--spectrum", files / "avar05.json", "--samples", empty
        )
        assert code == 2
        assert payload is None
        assert "no observations found" in err

    def test_spectrum_read_before_samples(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "cauchy"}))
        code, payload, err = run(
            capsys, "norm", "--spectrum", bad, "--samples", files / "nope.csv"
        )
        assert code == 2
        assert payload is None
        assert "unknown spectrum kind" in err

    def test_nonfinite_first_row_reports_line(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("inf\n2\n3\n")
        code, payload, err = run(
            capsys, "eval", "--spectrum", files / "avar05.json", "--samples", bad
        )
        assert code == 2
        assert payload is None
        assert "line 1" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("value\n1\n" + "x" * 200_000 + "\n",
             "line 3: field larger than field limit (131072)"),
            # a quoted cell spanning lines 2-3 leaves the next records on lines 4 and 5
            ('value\n"1\n"\n5\nabc\n',
             "line 5: non-numeric cell: could not convert string to float: 'abc'"),
            ('value\n1\n"2\n3"\n',
             "line 3: non-numeric cell: could not convert string to float: '2\\n3'"),
        ],
        ids=["field-limit", "after-multiline-cell", "multiline-cell"],
    )
    def test_csv_error_names_the_line_its_record_starts_on(
        self, files, tmp_path, capsys, text, message
    ):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        code, payload, err = run(
            capsys, "norm", "--spectrum", files / "avar05.json", "--samples", bad
        )
        assert code == 2
        assert payload is None
        assert err == f"input error: {message}\n"

    def test_kernel_out_of_memory_is_a_usage_error(self, files, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError()

        monkeypatch.setattr("riskspace.cli.linf_escape", exhausted)
        code, payload, err = run(
            capsys, "escape", "--spectrum", files / "avar05.json", "--mode", "linf"
        )
        assert code == 2
        assert payload is None
        assert err == "error: out of memory\n"

    def test_output_out_of_memory_is_a_usage_error(self, files, capsys, monkeypatch):
        def exhausted(obj):
            raise MemoryError("Unable to allocate 7.45 GiB")

        monkeypatch.setattr("riskspace.cli._jsonify", exhausted)
        code, payload, err = run(
            capsys, "norm", "--spectrum", files / "avar05.json", "--samples", files / "four.csv"
        )
        assert code == 2
        assert payload is None
        assert err == "error: out of memory: Unable to allocate 7.45 GiB\n"

    def test_json_indent_beyond_index_range_is_a_usage_error(self, files, capsys):
        huge = sys.maxsize + 1
        code, payload, err = run(
            capsys, "norm", "--spectrum", files / "avar05.json", "--samples", files / "four.csv",
            "--json-indent", huge,
        )
        assert code == 2
        assert payload is None
        assert err == f"error: --json-indent must be at most {sys.maxsize}, got {huge}\n"

    def test_nonpositive_weight_reports_line(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,0.5\n2,0\n")
        code, _, err = run(
            capsys, "norm", "--spectrum", files / "avar05.json", "--samples", bad
        )
        assert code == 2
        assert "line 2" in err

    def test_malformed_spectrum_json(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "avar",')
        code, _, err = run(
            capsys, "norm", "--spectrum", bad, "--samples", files / "four.csv"
        )
        assert code == 2
        assert "line" in err
        assert "bad.json" in err

    def test_deeply_nested_spectrum_json(self, files, tmp_path, capsys):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100_000)
        code, payload, err = run(
            capsys, "norm", "--spectrum", bad, "--samples", files / "four.csv"
        )
        assert code == 2
        assert payload is None
        assert err.startswith(f"error: {bad}: maximum recursion depth exceeded")

    def test_truncated_file_in_a_spectrum_set(self, files, capsys, monkeypatch):
        # the error names the member file, not just a line of some file
        (files / "setB" / "z.json").write_text('{"kind": "avar",\n')
        monkeypatch.chdir(files)
        code, payload, err = run(capsys, "embed", "--set-from", "setA", "--set-to", "setB")
        assert code == 2
        assert payload is None
        assert err == (
            f"input error: {Path('setB', 'z.json')}: line 2: "
            "Expecting property name enclosed in double quotes\n"
        )

    def test_unknown_spectrum_kind(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "cauchy"}))
        code, _, err = run(
            capsys, "norm", "--spectrum", bad, "--samples", files / "four.csv"
        )
        assert code == 2
        assert err != ""

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_subcommand(self, capsys):
        assert main([]) == 2


def test_module_entry_point(tmp_path):
    (tmp_path / "s.json").write_text(json.dumps({"kind": "avar", "alpha": 0.5}))
    (tmp_path / "d.csv").write_text("1\n2\n3\n4\n")
    # the child imports the same package as these tests, installed or not
    package_root = str(Path(riskspace.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "riskspace",
         "eval", "--spectrum", str(tmp_path / "s.json"), "--samples", str(tmp_path / "d.csv")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == 3.5


def test_closed_stdout_exits_141_quietly(tmp_path):
    # `riskspace approx ... | head -c 100`: the document is far larger than
    # a pipe's buffer, so the writer meets the closed pipe
    (tmp_path / "s.json").write_text(json.dumps({"kind": "avar", "alpha": 0.5}))
    rows = np.random.default_rng(0).standard_normal(20_000)
    (tmp_path / "d.csv").write_text("".join(f"{x!r}\n" for x in rows.tolist()))
    package_root = str(Path(riskspace.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    with subprocess.Popen(
        [sys.executable, "-m", "riskspace", "approx", "--spectrum", str(tmp_path / "s.json"),
         "--samples", str(tmp_path / "d.csv"), "--epsilon", "0.01"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        head = proc.stdout.read(100)
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
    assert head.startswith(b"{")
    assert stderr == b""


def test_jsonify_maps_only_nonfinite_array_entries():
    payload = {
        "x": np.array([1.5, np.inf, -np.inf, np.nan, -0.0]),
        "n": np.array([1, 2]),
        "m": np.zeros((2, 1)),
        "s": np.float64(-np.inf),
    }
    assert _jsonify(payload) == {
        "x": [1.5, "inf", "-inf", "nan", -0.0],
        "n": [1, 2],
        "m": [[0.0], [0.0]],
        "s": "-inf",
    }
