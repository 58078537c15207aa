"""Command-line interface: payloads, formats, exit codes."""

import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nrgit
from helpers import report_flatten, report_json
from nrgit import DegreeOverflowError, Status, cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


def flatten(prefix, value, lines):
    if isinstance(value, dict):
        for k, v in value.items():
            flatten(f"{prefix}.{k}", v, lines)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            flatten(f"{prefix}[{i}]", v, lines)
    else:
        lines.append(f"{prefix}: {value}")
    return lines


class TestClassify:
    def test_borel_example(self, capsys):
        doc = run_json(capsys, "classify", "--n", "4", "--m", "1", "--r", "2",
                       "--profile", "inf=1,zero=0,roots=3")
        assert doc["result"]["status_h"] == "StrictlySemistable"
        assert doc["result"]["status_sl2"] == "Unstable"
        assert doc["result"]["thresholds"] == {"inf_bound": "1", "other_bound": "3"}
        assert doc["result"]["envelope"]["group"] == "StrictlySemistable"

    def test_unipotent_example(self, capsys):
        doc = run_json(capsys, "classify", "--n", "5", "--m", "1", "--r", "0",
                       "--profile", "inf=2,zero=2,roots=1")
        assert doc["result"]["status_u"] == "Stable"
        assert doc["result"]["status_sl2"] == "Stable"

    def test_rational_thresholds_print_as_fractions(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "5", "--m", "2", "--r", "1",
                           "--profile", "zero=5")
        assert code == 0
        assert "result.thresholds.inf_bound: 9/4" in out
        assert "result.thresholds.other_bound: 11/4" in out

    def test_thresholds_print_as_the_fraction_formula_does(self):
        # (n -+ tau)/2 at tau = r/m, from integers, as str(Fraction) prints it:
        # every r around [0, nm] and some far past any degree
        cases = [(n, m, r) for n in range(1, 41) for m in range(1, 8)
                 for r in range(-n * m - 2, n * m + 3)]
        cases += [(n, m, r) for n, m in ((1, 1), (12, 7), (40, 6), (10**20 + 1, 4))
                  for r in (10**30, -10**30, 2**127 - 1, -(3**80), 6 * 10**20 + 6)]
        for n, m, r in cases:
            tau = Fraction(r, m)
            assert cli._thresholds(n, m, r) == {
                "inf_bound": str(Fraction(n - tau, 2)),
                "other_bound": str(Fraction(n + tau, 2)),
            }, (n, m, r)

    def test_profile_mass_overflow_rejected(self, capsys):
        code, _, err = run(capsys, "classify", "--n", "4", "--m", "1", "--r", "2",
                           "--profile", "inf=5")
        assert code == 2
        assert "error" in err

    def test_profile_garbage_rejected(self, capsys):
        for bad in ("inf=x", "roots=1+", "bogus=2", "inf"):
            code, _, err = run(capsys, "classify", "--n", "4", "--m", "1",
                               "--r", "2", "--profile", bad)
            assert code == 2, bad
            assert "error" in err

    @pytest.mark.parametrize("bad, field", [
        ("roots=1+1,roots=3", "'roots'"), ("inf=1,zero=1,inf=0", "'inf'"),
        ("zero=1,zero=1", "'zero'"), ("roots=+2+1", "roots"), ("roots=2++1", "roots"),
    ])
    def test_profile_repeats_and_empty_roots_rejected(self, capsys, bad, field):
        # a repeated field once overrode the earlier one, and empty pieces of
        # a roots list were dropped: both answered for another profile
        code, out, err = run(capsys, "classify", "--n", "3", "--profile", bad)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and field in err

    @pytest.mark.parametrize("bad, message", [
        ("roots=1_0,inf=\u0660", "malformed roots list '1_0'"),
        ("inf=1_0", "malformed multiplicity 'inf=1_0'"),
        ("zero=\u0660,roots=10", "malformed multiplicity 'zero=\u0660'"),
        ("roots=3+\u0667", "malformed roots list '3+\u0667'"),
        ("inf=\xa010", "malformed multiplicity 'inf=\\xa010'"),
    ])
    def test_profile_numbers_are_ascii_digits(self, capsys, bad, message):
        # int() reads "1_0" as 10 and Arabic-Indic digits as digits: the
        # first line once answered for roots=[10] and exited 0
        code, out, err = run(capsys, "classify", "--n", "10", "--profile", bad)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @given(st.text("0123456789+- \t_", max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_profile_reads_an_ascii_number_as_int_does(self, value):
        # every ASCII form int() reads, sign and spaces included, still
        # parses to the same multiplicity; digit-group underscores do not
        try:
            want = None if "_" in value else int(value)
        except ValueError:
            want = None
        if want is None:
            with pytest.raises(ValueError, match="malformed multiplicity"):
                cli.parse_profile(f"inf={value}", 1)
        elif want > 0:
            assert cli.parse_profile(f"inf={value}", want).mult_inf == want
            if "+" not in value:  # a roots list splits at "+"
                assert cli.parse_profile(f"roots={value}+1", want + 1).generic == (want, 1)

    @pytest.mark.parametrize("profile", ["inf=1,", ",inf=1", "inf=1, ,"])
    def test_empty_profile_piece_is_skipped(self, capsys, profile):
        argv = ("classify", "--n", "3", "--format", "json")
        assert run(capsys, *argv, "--profile", profile) == run(capsys, *argv, "--profile", "inf=1")

    def test_empty_roots_list_is_a_profile(self, capsys):
        doc = run_json(capsys, "classify", "--n", "3", "--profile", "inf=1,zero=2,roots=")
        assert doc["inputs"]["profile"] == str(nrgit.Divisor(3, 1, 2, ()))

    def test_text_and_json_carry_the_same_result(self, capsys):
        argv = ("classify", "--n", "4", "--m", "1", "--r", "2",
                "--profile", "inf=1,roots=2+1")
        doc = run_json(capsys, *argv)
        code, out, _ = run(capsys, *argv, "--format", "text")
        assert code == 0
        text_lines = {l for l in out.splitlines() if l.startswith("result.")}
        assert set(flatten("result", doc["result"], [])) == text_lines


class TestWeights:
    def test_row_count(self, capsys):
        for n in (1, 3, 6):
            doc = run_json(capsys, "weights", "--n", str(n), "--m", "1", "--r", "0")
            assert len(doc["result"]["rows"]) == 3 * (n + 1)

    def test_golden_rows(self, capsys):
        doc = run_json(capsys, "weights", "--n", "1", "--m", "3", "--r", "2")
        rows = {(row["point"], row["i"]): row["weight"] for row in doc["result"]["rows"]}
        assert rows[("[0:1:0]", 1)] == "(N+3, -N+2)"
        assert rows[("[0:0:1]", 0)] == "(-N-3, -N+2)"
        doc = run_json(capsys, "weights", "--n", "2", "--m", "1", "--r", "0")
        rows = {(row["point"], row["i"]): row["weight"] for row in doc["result"]["rows"]}
        assert rows[("[1:0:0]", 1)] == "(0, 0)"

    def test_text_mode_lists_rows(self, capsys):
        code, out, _ = run(capsys, "weights", "--n", "1", "--m", "3", "--r", "2",
                           "--format", "text")
        assert code == 0
        assert "result.rows[3].weight: (N+3, -N+2)" in out

    def test_rows_match_fixed_point_weights(self, capsys):
        # the command prints the table from the integer rows; the public
        # fixed_point_weights, its Weight2s printed, is the reference
        for m, r in ((1, 0), (3, 2), (2, -5), (7, 13)):
            for n in range(1, 41):
                weights = nrgit.fixed_point_weights(nrgit.EnvParams(n, nrgit.LinParam(m, r)))
                want = [(label, i, f"({w.x}, {w.y})") for label, i, w in weights]
                argv = ("weights", "--n", str(n), "--m", str(m), "--r", str(r))
                doc = run_json(capsys, *argv)
                got = [(row["point"], row["i"], row["weight"]) for row in doc["result"]["rows"]]
                assert got == want, (n, m, r)
                code, out, _ = run(capsys, *argv)
                assert code == 0
                lines = [
                    f"result.rows[{k}].{key}: {value}"
                    for k, row in enumerate(want)
                    for key, value in zip(("point", "i", "weight"), row)
                ]
                assert "\n".join(lines) + "\n" in out, (n, m, r)


class TestWalls:
    def test_degree_four(self, capsys):
        doc = run_json(capsys, "walls", "--n", "4")
        seq = doc["result"]["walls"]
        assert [w["kind"] for w in seq] == [
            "WallZero", "Chamber", "InteriorWall", "Chamber", "WallN",
        ]
        assert seq[2]["value"] == "2"
        assert seq[1]["interval"] == ["0", "2"]
        assert seq[2]["profile"]["kind"] == "StableUnionPoint"

    def test_rational_chamber_bounds(self, capsys):
        doc = run_json(capsys, "walls", "--n", "3")
        vals = [w.get("value") for w in doc["result"]["walls"] if "value" in w]
        assert vals == ["0", "1", "3"]

    def test_a_report_makes_no_python_level_enum_hash_call(self, capsys):
        # walls keys its profiles by WallKind, whose members hash by identity
        from enum import Enum

        code = Enum.__hash__.__code__
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is code:
                calls.append(frame.f_locals["self"])

        sys.setprofile(profile)
        try:
            answer = run(capsys, "walls", "--n", "16")
        finally:
            sys.setprofile(None)
        assert answer[0] == 0 and answer[1]
        assert calls == []


class TestWallsClosedForm:
    def test_degree_forty_answers(self, capsys):
        doc = run_json(capsys, "walls", "--n", "40")
        assert len(doc["result"]["walls"]) == 41


class TestFlips:
    def test_degree_six_wall_two(self, capsys):
        doc = run_json(capsys, "flips", "--n", "6", "--tau", "2")
        assert doc["result"]["flip"] == {
            "s": 2,
            "e_plus": [1, 2],
            "e_minus": [1, 2, 3, 4],
            "slice": [-4, -2],
        }

    def test_degree_three_refused(self, capsys):
        code, _, err = run(capsys, "flips", "--n", "3", "--tau", "1")
        assert code == 2
        assert "no flip" in err

    def test_non_wall_refused(self, capsys):
        code, _, _ = run(capsys, "flips", "--n", "6", "--tau", "5/2")
        assert code == 2

    @pytest.mark.parametrize("tau, shown", [
        ("3", "3"),
        ("10", "10"),
        ("1e40", "10000000000000000000000000000000000000000"),
        # past 50 digits a value is named by its first 6 digits
        ("1e5000", "about 1.00000e+5000"),
        ("-1e5000", "about -1.00000e+5000"),
        ("7e4299", "about 7.00000e+4299"),
        ("1e-5000", "about 1.00000e-5000"),
    ])
    def test_non_wall_message_names_tau_at_a_bounded_length(self, capsys, tau, shown):
        # str() of a Fraction past 4300 digits raises Python's own
        # "Exceeds the limit" error
        code, out, err = run(capsys, "flips", "--n", "6", f"--tau={tau}")
        assert (code, out) == (2, "")
        assert err == f"error: tau={shown} is not an interior wall for n=6\n"

    @pytest.mark.parametrize("tau", ["x", "1/0", "2/"])
    def test_tau_not_a_rational_is_a_usage_error(self, capsys, tau):
        code, out, err = run(capsys, "flips", "--n", "6", "--tau", tau)
        assert (code, out) == (2, "")
        assert err == f"error: expected a rational p/q, got {tau!r}\n"


class TestCensus:
    def test_clean_run_exits_zero(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "4", "--m", "1", "--r", "2",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["census_diff"] == []
        assert doc["result"]["checks_run"] > 0
        assert doc["result"]["envelope"]["chain_ok"] is True
        assert doc["result"]["envelope"]["counts_intrinsic"] == doc["result"]["envelope"]["counts_envelope"]

    def test_closed_form_disagreement_exits_three_after_its_report(self, capsys, monkeypatch):
        # a group closed form that calls every completion point Unstable
        # disagrees with the tied placements wherever a point is semistable
        import nrgit.oracle as oracle
        from nrgit.hilbert_mumford import Status

        monkeypatch.setattr(oracle, "_group_case", lambda *args: Status.UNSTABLE)
        argv = ("census", "--n", "3", "--m", "1", "--r", "1")
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (3, "")
        rows = json.loads(out)["result"]["census_diff"]
        assert rows
        assert {row["check"] for row in rows} == {"group closed form vs tied placements"}
        assert {row["got"] for row in rows} == {"Unstable"}
        code, out, err = run(capsys, *argv)
        assert (code, err) == (3, "")
        assert out.startswith("command: census\n")
        assert sum(line.startswith("result.census_diff[") and line.endswith("].got: Unstable")
                   for line in out.splitlines()) == len(rows)

    @pytest.mark.parametrize("field", ["stable_equal", "semistable_equal", "chain_ok"])
    def test_failed_envelope_report_alone_exits_three(self, capsys, monkeypatch, field):
        import nrgit.oracle as oracle

        real = oracle._envelope_report

        def failing(n, lin, statuses):
            report = real(n, lin, statuses)
            values = {name: getattr(report, name) for name in report.__slots__}
            values[field] = False
            return type(report)(**values)

        monkeypatch.setattr(oracle, "_envelope_report", failing)
        code, out, err = run(capsys, "census", "--n", "3", "--m", "1", "--r", "1",
                             "--format", "json")
        assert (code, err) == (3, "")
        doc = json.loads(out)["result"]
        assert doc["census_diff"] == []
        assert doc["envelope"][field] is False

    @pytest.mark.parametrize("value", ["abc", "", "1.5"])
    def test_env_var_not_an_integer_is_a_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("NRGIT_MAX_CENSUS_N", value)
        code, out, err = run(capsys, "census", "--n", "3")
        assert (code, out) == (2, "")
        assert err == f"error: NRGIT_MAX_CENSUS_N must be an integer, got {value!r}\n"

    def test_env_var_tightens_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("NRGIT_MAX_CENSUS_N", "2")
        code, _, err = run(capsys, "census", "--n", "3", "--m", "1", "--r", "1")
        assert code == 2
        assert "guard" in err
        monkeypatch.setenv("NRGIT_MAX_CENSUS_N", "3")
        code, _, _ = run(capsys, "census", "--n", "3", "--m", "1", "--r", "1")
        assert code == 0

    def test_guard_checked_before_any_census(self, capsys, monkeypatch):
        import nrgit.envelope as envelope
        import nrgit.oracle as oracle

        def refuse(*args):
            raise AssertionError("census work started past the census guard")

        monkeypatch.setenv("NRGIT_MAX_CENSUS_N", "2")
        # every binding through which census work starts: the profile
        # enumerations, the engine table and the envelope tally
        for module, name in ((oracle, "_all_profiles"), (oracle, "_engine_table"),
                             (oracle, "_envelope_report"), (envelope, "_all_profiles"),
                             (envelope, "_envelope_report")):
            monkeypatch.setattr(module, name, refuse)
        code, _, err = run(capsys, "census", "--n", "3", "--m", "1", "--r", "1")
        assert code == 2
        assert "guard" in err

    def test_one_profile_enumeration_per_census(self, capsys, monkeypatch):
        # both reports come from one pass: count the calls through every
        # binding of the profile enumeration in the package
        import nrgit.binary_forms as binary_forms

        real = binary_forms._all_profiles
        calls = []

        def counting(n):
            calls.append(n)
            return real(n)

        bound = [module for name, module in sys.modules.items()
                 if name.split(".")[0] == "nrgit" and getattr(module, "_all_profiles", None) is real]
        assert {module.__name__ for module in bound} >= {"nrgit.oracle", "nrgit.envelope"}
        for module in bound:
            monkeypatch.setattr(module, "_all_profiles", counting)
        code, _, _ = run(capsys, "census", "--n", "4", "--m", "1", "--r", "2")
        assert code == 0
        assert calls == [4]

    def test_arithmetic_error_exits_four_naming_its_type(self, capsys, monkeypatch):
        def overflow(*args, **kwargs):
            raise DegreeOverflowError("pairing is quadratic in N")

        monkeypatch.setattr(cli, "_census", overflow)
        code, out, err = run(capsys, "census", "--n", "3", "--m", "1", "--r", "1")
        assert code == 4
        assert out == ""
        assert err == (
            "internal invariant violation: DegreeOverflowError: "
            "pairing is quadratic in N\n"
        )

    @pytest.mark.parametrize("error", [RuntimeError, AssertionError])
    def test_invariant_error_exits_four_naming_its_type(self, capsys, monkeypatch, error):
        def broken(*args, **kwargs):
            raise error("boom")

        monkeypatch.setattr(cli, "_census", broken)
        code, out, err = run(capsys, "census", "--n", "3")
        assert code == 4
        assert out == ""
        assert err == f"internal invariant violation: {error.__name__}: boom\n"


class TestDiagram:
    def test_svg_well_formed(self, capsys):
        code, out, _ = run(capsys, "diagram", "--n", "2", "--m", "1", "--r", "1")
        assert code == 0
        assert out.startswith('<?xml version="1.0" encoding="UTF-8"?>')
        root = ET.fromstring(out)
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        circles = root.findall("{http://www.w3.org/2000/svg}circle")
        assert len(circles) == 3 * (2 + 1)

    def test_layout_heights_track_the_two_weight_levels(self, capsys):
        # untwisted rows sit at height r, twisted rows at -N + r
        code, out, _ = run(capsys, "diagram", "--n", "1", "--m", "1", "--r", "0",
                           "--N", "5")
        assert code == 0
        root = ET.fromstring(out)
        ys = sorted({float(c.get("cy")) for c in
                     root.findall("{http://www.w3.org/2000/svg}circle")})
        assert len(ys) == 2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "d.svg"
        code, out, _ = run(capsys, "diagram", "--n", "2", "--m", "1", "--r", "1",
                           "--out", str(target))
        assert code == 0
        assert out == "" or str(target) in out
        ET.fromstring(target.read_text())

    @pytest.mark.parametrize("where, reason", [
        ("dir", "Is a directory"),
        ("missing/d.svg", "No such file or directory"),
    ])
    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path, where, reason):
        (tmp_path / "dir").mkdir()
        target = tmp_path / where
        code, out, err = run(capsys, "diagram", "--n", "2", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write --out {target}: {reason}\n"
        assert not (tmp_path / "missing").exists()

    def test_degree_zero_rejected(self, capsys):
        code, _, _ = run(capsys, "diagram", "--n", "0", "--m", "1", "--r", "1")
        assert code == 2

    @pytest.mark.parametrize("value, shown", [
        ("0", "0"),
        ("-7/2", "-7/2"),
        ("-1e5000", "about -1.00000e+5000"),
    ])
    def test_display_value_not_positive_is_a_usage_error(self, capsys, value, shown):
        code, out, err = run(capsys, "diagram", "--n", "3", f"--N={value}")
        assert (code, out) == (2, "")
        assert err == f"error: display value of N must be positive, got {shown}\n"

    @pytest.mark.parametrize("flag, value", [
        ("--N", "1e400"),
        ("--r", str(10 ** 400)),
        ("--m", str(10 ** 400)),
        ("--N", "1e307"),  # fits a float, but the SVG's width would not
    ], ids=["N", "r", "m", "N-width"])
    def test_coordinates_beyond_a_float_are_a_usage_error(self, capsys, flag, value):
        code, out, err = run(capsys, "diagram", "--n", "3", flag, value)
        assert code == 2
        assert out == ""
        assert err == f"error: diagram coordinates do not fit a float; use a smaller {flag}\n"

    def test_largest_fitting_display_value_still_draws(self, capsys):
        code, out, _ = run(capsys, "diagram", "--n", "3", "--N", "1e300")
        assert code == 0
        ET.fromstring(out)


class TestLeanStartup:
    # SHA-256 of `diagram --n 3 --N 7/2` as the dataclass-based records printed it
    SVG_SHA256 = "467ed3b81e713ac9d2b2263f8688159f8910a0eed550d3800d0f218a96eb6ed6"
    # modules a clean command line may do without
    HEAVY = ("argparse", "dataclasses", "fractions", "inspect", "json", "re",
             "typing", "xml.etree.ElementTree")

    def fresh(self, script):
        # a fresh interpreter without site, as each command runs; `loaded()`
        # lists the HEAVY modules imported so far
        src = os.path.dirname(os.path.dirname(os.path.abspath(nrgit.__file__)))
        prelude = f"import sys\ndef loaded(): return sorted(set({self.HEAVY!r}) & set(sys.modules))\n"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", prelude + script],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_import_leaves_heavy_modules_unloaded(self):
        out = self.fresh(
            "import nrgit.cli\n"
            "print(loaded())\n"
            "nrgit.cli.main(['diagram', '--n', '3', '--N', '7/2'])\n"
        )
        loaded, svg = out.split("\n", 1)
        assert loaded == "[]"
        assert hashlib.sha256(svg.encode()).hexdigest() == self.SVG_SHA256

    @pytest.mark.parametrize("argv, loaded", [
        (["census", "--n", "4"], []),
        # json imports re for its decoder
        (["census", "--n", "4", "--format", "json"], ["json", "re"]),
    ])
    def test_a_clean_census_imports_only_what_it_writes_with(self, argv, loaded):
        out = self.fresh(
            "import nrgit.cli\n"
            f"code = nrgit.cli.main({argv!r})\n"
            "print('exit', code, loaded())\n"
        )
        assert out.splitlines()[-1] == f"exit 0 {loaded}"

    @pytest.mark.parametrize("fmt, loaded", [("text", []), ("json", ["json", "re"])])
    def test_walls_at_an_even_degree_builds_no_fraction(self, fmt, loaded):
        # every wall and every chamber midpoint of an even degree is an int
        out = self.fresh(
            "import nrgit.cli\n"
            f"code = nrgit.cli.main(['walls', '--n', '16', '--format', {fmt!r}])\n"
            "print('exit', code, loaded())\n"
        )
        assert out.splitlines()[-1] == f"exit 0 {loaded}"

    def test_help_still_reaches_argparse(self):
        out = self.fresh(
            "import nrgit.cli\n"
            "code = nrgit.cli.main(['census', '-h'])\n"
            "print('exit', code, 'argparse' in loaded())\n"
        )
        assert out.startswith("usage: nrgit census [-h] --n N")
        assert out.splitlines()[-1] == "exit 0 True"


class TestDegreeCeiling:
    # the commands whose output grows with n answer up to n = 100000; one
    # past it is a usage error that names the ceiling, before any work
    ARGS = {
        "flips": ("--tau", "2"),
        "weights": (),
        "walls": (),
        "diagram": (),
    }

    @pytest.mark.parametrize("command", sorted(ARGS))
    def test_ceiling_answers(self, capsys, command):
        code, out, err = run(capsys, command, "--n", "100000", *self.ARGS[command])
        assert code == 0, err
        head = "<?xml" if command == "diagram" else f"command: {command}\n"
        assert out.startswith(head)

    @pytest.mark.parametrize("command", sorted(ARGS))
    def test_one_past_the_ceiling_exits_two(self, capsys, command):
        # tau = 1 is an interior wall of degree 100001: only the ceiling refuses
        rest = ("--tau", "1") if command == "flips" else ()
        code, out, err = run(capsys, command, "--n", "100001", *rest)
        assert code == 2
        assert out == ""
        assert "exceeds the ceiling 100000" in err

    def test_classify_and_census_keep_their_own_limits(self, capsys):
        code, _, err = run(capsys, "classify", "--n", "100001", "--profile", "inf=100001")
        assert code == 0, err
        code, _, err = run(capsys, "census", "--n", "100001")
        assert code == 2
        assert "guard" in err


class TestUsageErrors:
    # argparse names an option's type function in the message, so that name
    # is what a user reads
    @pytest.mark.parametrize("argv, message", [
        (("flips", "--n", "abc", "--tau", "2"), "argument --n: invalid degree value: 'abc'"),
        (("weights", "--n", "3", "--m", "x"), "argument --m: invalid positive_int value: 'x'"),
        (("census", "--n", "x"), "argument --n: invalid positive_int value: 'x'"),
    ])
    def test_invalid_value_names_the_expected_type(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err
        assert "invalid _" not in err

    @pytest.mark.parametrize("argv", [
        ("flips", "--n", "6", "--tau", "1e100000000"),
        ("flips", "--n", "6", "--tau", "1.5E+1_000_001"),
        ("diagram", "--n", "3", "--N", "1e100000000"),
        ("diagram", "--n", "3", "--N", "1e-100001"),
    ], ids=["tau", "tau-written-out", "N", "N-negative"])
    def test_large_exponent_refused_before_fraction_reads_it(self, capsys, monkeypatch, argv):
        # Fraction computes 10**|e| in full, so a short --tau or --N could
        # take unbounded time; the refusal comes before any Fraction is built
        built = []

        def spy():
            built.append(argv)
            raise AssertionError("Fraction reached")

        monkeypatch.setattr(cli, "_fraction", spy)
        code, out, err = run(capsys, *argv)
        assert (code, out, built) == (2, "", [])
        assert err == f"error: expected an exponent of at most 100000 in size, got {argv[-1]!r}\n"

    def test_exponent_at_the_ceiling_still_reads(self):
        for text in ("1e100000", "1E-100000", "-2.5e+100000"):
            assert cli._parse_fraction(text) == Fraction(text), text

    # int() and Fraction() read at most this many digits in one number
    DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    LONG = "1" * (DIGIT_LIMIT + 1)

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python reads any number of digits")
    @pytest.mark.parametrize("argv", [
        ("flips", "--n", "6", "--tau", LONG),
        ("classify", "--n", "3", "--r", LONG),
        ("classify", "--n", "3", "--m", LONG),
        ("classify", "--n", LONG),
        ("diagram", "--n", "3", "--N", LONG),
    ], ids=["tau", "r", "m", "n", "N"])
    def test_number_past_the_digit_limit_is_named_by_its_first_digits(self, capsys, argv):
        # not refused as malformed with the whole number quoted: argparse's
        # "invalid int value" or "expected a rational p/q"
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (f"error: {argv[-2]} holds a number of more than {self.DIGIT_LIMIT} "
                       f"digits: about 1.11111e+{self.DIGIT_LIMIT}\n")

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python reads any number of digits")
    @pytest.mark.parametrize("argv, shown", [
        (("flips", "--n", "6", f"--tau=-{LONG}"), "--tau holds a number"),
        (("flips", "--n", "6", "--tau", f"1/{LONG}"), "--tau holds a number"),
        (("classify", "--n", "3", "--r", f"-{LONG}"), "about -1.11111e+"),
        (("classify", "--n", "3", "--r", "0" * DIGIT_LIMIT + "12"), "digits: 12\n"),
        (("classify", "--n", "3", "--profile", f"roots=2+{LONG}"), "--profile holds a number"),
        (("census", "--n", "4", LONG), "an argument holds a number"),
    ], ids=["tau=", "tau-denominator", "r-negative", "r-leading-zeros", "profile", "stray"])
    def test_every_long_number_is_refused_by_name(self, capsys, argv, shown):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert shown in err
        assert self.LONG not in err

    def test_a_clean_line_pays_no_digit_check(self, capsys, monkeypatch):
        # only a failing line can hold a number past the limit, so only a
        # failing line is searched for one
        monkeypatch.setattr(cli, "_long_number", lambda argv: pytest.fail(" ".join(argv)))
        assert run(capsys, "flips", "--n", "6", "--tau", "2")[0] == 0
        assert run(capsys, "classify", "--n", "3", "--r", "1", "--profile", "inf=1,roots=2")[0] == 0

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python reads any number of digits")
    def test_numbers_at_the_digit_limit_still_read(self, capsys):
        at = self.LONG[1:]
        code, out, err = run(capsys, "classify", "--n", "3", "--m", at, "--r", at,
                             "--profile", "inf=3", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["inputs"]["r"] == int(at)
        code, out, err = run(capsys, "classify", "--n", at, "--profile", f"inf={at}")
        assert (code, err) == (0, "")
        code, _, err = run(capsys, "flips", "--n", "6", "--tau", at)
        assert (code, err) == (2, f"error: tau=about 1.11111e+{len(at) - 1} is not an interior wall for n=6\n")
        code, _, err = run(capsys, "diagram", "--n", "3", "--N", at)
        assert (code, err) == (2, "error: diagram coordinates do not fit a float; use a smaller --N\n")

    # numbers int() reads but too long to quote: a message names each as
    # polytope._value_text names a rational, and an argument of at most 50
    # characters as written
    NINES, ONES = "9" * 4300, "1" * 4300
    SUM = "error: degree mismatch: multiplicities sum to about 1.99999e+4300, expected 3\n"
    CEILING = "argument --n: degree about 9.99999e+4299 exceeds the ceiling 100000\n"

    @pytest.mark.parametrize("argv, shown", [
        (("classify", "--n", "3", "--profile", f"inf={NINES},zero={NINES}"), SUM),
        (("classify", "--n", "3", "--profile", f"roots={NINES}+{NINES}"), SUM),
        (("classify", "--n", NINES), "sum to 0, expected about 9.99999e+4299\n"),
        (("census", "--n", ONES),
         "error: census degree about 1.11111e+4299 outside guard range [1, 12]\n"),
        (("weights", "--n", NINES), CEILING),
        (("walls", "--n", NINES), CEILING),
        (("classify", "--n", f"-{NINES}"), "got about -9.99999e+4299\n"),
        (("classify", "--n", "3", "--m", f"-{NINES}"), "got about -9.99999e+4299\n"),
        (("classify", "--n", "-0"), "argument --n: expected a positive integer, got -0\n"),
        (("census", "--n", "-" + "0" * 49), "got -" + "0" * 49 + "\n"),
    ], ids=["profile-slots", "profile-roots", "n-expected", "census-n", "weights-n", "walls-n",
            "n-negative", "m-negative", "n-minus-zero", "n-50-characters"])
    def test_a_number_too_long_to_quote_is_named_by_its_first_digits(self, capsys, argv, shown):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(shown) and len(err.encode()) < 300
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("profile, shown", [
        (f"roots=0+{NINES}", "error: nonpositive generic multiplicity 0 in a Divisor of degree 3\n"),
        (f"inf=-1,roots={NINES}", "error: negative special multiplicity -1 in a Divisor of degree 3\n"),
        ("inf=-1,roots=4", "error: negative special multiplicity in "
                           "Divisor(n=3, mult_inf=-1, mult_zero=0, generic=(4,))\n"),
        ("roots=0+3", "error: nonpositive generic multiplicity in "
                      "Divisor(n=3, mult_inf=0, mult_zero=0, generic=(3, 0))\n"),
    ], ids=["generic-long", "special-long", "special-short", "generic-short"])
    def test_a_profile_refusal_names_a_long_divisor_by_its_multiplicity(self, capsys, profile, shown):
        # not the whole Divisor repr with its 4300-digit root; a short one
        # keeps its bytes
        code, out, err = run(capsys, "classify", "--n", "3", "--profile", profile)
        assert (code, out, err) == (2, "", shown)

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python reads any number of digits")
    @pytest.mark.parametrize("value, shown", [
        (LONG, f"about 1.11111e+{DIGIT_LIMIT}"),
        (f" -0{LONG} ", f"about -1.11111e+{DIGIT_LIMIT}"),
    ], ids=["long", "negative-padded"])
    def test_a_census_guard_too_long_to_read_is_named_by_its_first_digits(
            self, capsys, monkeypatch, value, shown):
        monkeypatch.setenv("NRGIT_MAX_CENSUS_N", value)
        code, out, err = run(capsys, "census", "--n", "4")
        assert (code, out) == (2, "")
        assert err == (f"error: NRGIT_MAX_CENSUS_N holds a number of more than "
                       f"{self.DIGIT_LIMIT} digits: {shown}\n")

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python prints any number of digits")
    @pytest.mark.parametrize("argv", [
        ("weights", "--n", "3", "--m", NINES),
        ("weights", "--n", "3", "--m", NINES, "--r", f"-{NINES}", "--format", "json"),
        ("classify", "--n", "3", "--m", NINES, "--r", "1", "--profile", "inf=1,roots=2"),
        ("classify", "--n", NINES, "--m", NINES, "--r", "1", "--profile", f"inf={NINES}",
         "--format", "json"),
    ], ids=["weights", "weights-json", "classify", "classify-json"])
    def test_an_answer_past_the_digit_limit_prints_every_digit(self, capsys, argv):
        # a weight m(2i - n) + r or a threshold (nm -+ r)/(2m) of inputs read
        # at the limit has more digits than str() writes: these once exited
        # 2 naming Python's set_int_max_str_digits
        got = run(capsys, *argv)
        sys.set_int_max_str_digits(0)
        try:
            want = run(capsys, *argv)
        finally:
            sys.set_int_max_str_digits(self.DIGIT_LIMIT)
        assert got == want
        assert got[0] == 0
        assert max(map(len, re.findall(r"[0-9]+", got[1]))) > self.DIGIT_LIMIT


class TestHarness:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_deterministic_output(self, capsys):
        for fmt in ("text", "json"):
            argv = ("classify", "--n", "6", "--m", "1", "--r", "2",
                    "--profile", "inf=1,roots=3+2", "--format", fmt)
            _, first, _ = run(capsys, *argv)
            _, second, _ = run(capsys, *argv)
            assert first == second

    def test_every_payload_is_json_serialisable(self, capsys):
        for argv in (
            ("classify", "--n", "3", "--m", "2", "--r", "-1", "--profile", "roots=2+1"),
            ("weights", "--n", "2", "--m", "1", "--r", "0"),
            ("walls", "--n", "5"),
            ("flips", "--n", "4", "--tau", "2"),
            ("census", "--n", "2", "--m", "1", "--r", "1"),
        ):
            doc = run_json(capsys, *argv)
            assert set(doc) == {"command", "inputs", "notes", "result"}


COMMANDS = ("classify", "weights", "walls", "flips", "census", "diagram")
# argv that argparse answers, and lines beside them: help at both levels,
# usage errors at both levels, and answers
PARSER_CORPUS = [
    (), ("-h",), ("--help",), ("-h", "census"),
    ("frobnicate",), ("cens",),
    ("--bogus", "census", "--n", "4"), ("census", "--n", "4", "--bogus"),
    ("census", "--n", "4", "walls"),
    *((command, *tail) for command in COMMANDS for tail in ((), ("-h",), ("--help",))),
    ("flips", "--n", "6"), ("walls", "--n", "x"), ("weights", "--n", "3", "--m", "0"),
    ("classify", "--n", "3", "--format", "xml"), ("walls", "--n=3"),
    ("walls", "--n", "3", "--fo", "json"), ("census", "--n", "13"),
]


class TestArgparseBoundLines:
    def test_bare_nrgit_names_the_missing_command(self, capsys):
        # the full parser keeps argparse's own metavar for this message
        code, out, err = run(capsys)
        assert (code, out) == (2, "")
        assert err.endswith("error: the following arguments are required: cmd\n")

    def test_clean_lines_build_no_parser_and_the_others_the_full_one(self, capsys, monkeypatch):
        # a clean line is answered from the option table; argparse, with
        # every command, is built only for the lines the scanner leaves to it
        built = []
        full = cli.build_parser

        def spy():
            built.append("full")
            return full()

        monkeypatch.setattr(cli, "build_parser", spy)
        assert run(capsys, "walls", "--n", "3")[0] == 0
        assert built == []
        code, out, _ = run(capsys, "walls", "--n=3")
        assert (code, built) == (0, ["full"])
        assert out == run(capsys, "walls", "--n", "3")[1]
        code, out, _ = run(capsys, "-h")
        assert (code, built) == (0, ["full", "full"])
        # the full parser: help lists every command with its own help
        assert all(f"    {name} " in out and help_text in out for name, help_text, _, _ in cli._COMMANDS)


# clean lines: a command, then its own flags in full, each once, with a value
CLEAN_LINES = [
    ("classify", "--n", "3", "--m", "2", "--r", "-1", "--profile", "roots=2+1", "--format", "json"),
    ("classify", "--profile", "", "--n", "1"),
    ("weights", "--n", "4", "--r", "-0", "--m", "3"),
    ("walls", "--n", "16", "--format", "json"),
    ("flips", "--tau", "-1", "--n", "4"),
    ("census", "--n", " 4", "--m", "1", "--r", "2"),
    ("diagram", "--n", "3", "--N", "7/2"),
    ("diagram", "--out", "d.svg", "--n", "2", "--r", "-12"),
]
# lines beside a clean one that argparse reads otherwise or refuses
SCAN_TRAPS = [
    ("classify", "--n", "3", "--r", "-1_000"), ("classify", "--n", "3", "--r", "-1e3"),
    ("classify", "--n", "3", "--r", "-٣"), ("classify", "--n", "3", "--r", "-1\n"),
    ("flips", "--n", "6", "--tau", "-"), ("flips", "--n", "6", "--tau", "-x"),
    ("flips", "--n", "6", "--tau", "-²"), ("walls", "--n", "x", "--n", "4"),
    ("walls", "--n", "3", "--"), ("walls", "--", "--n", "3"), ("walls", "--n", "3", "--m", "2"),
    ("walls", "--format", "json"), ("walls", "--n", "100001"),
    ("walls", "--n", "3", "--format", "JSON"), ("walls", "-h", "--n"), ("census", "--n", "0"),
]


def parsed(argv):
    return vars(cli.build_parser().parse_args(argv))


class TestScan:
    # the fast path must not decay into "always leave it to argparse"
    @pytest.mark.parametrize("argv", CLEAN_LINES, ids=" ".join)
    def test_scan_answers_a_clean_line_of_every_command(self, argv):
        assert cli._scan(list(argv)) is not None
        assert {line[0] for line in CLEAN_LINES} == set(COMMANDS)

    @pytest.mark.parametrize("argv", CLEAN_LINES + SCAN_TRAPS + PARSER_CORPUS, ids=" ".join)
    def test_scan_agrees_with_argparse(self, argv):
        args = cli._scan(list(argv))
        if args is not None:
            assert vars(args) == parsed(argv)


FLAGS = sorted({option[0] for row in cli._COMMANDS for option in row[3]})
# every command's flags, their abbreviations and --flag=value forms, help and
# the option terminator
FLAG_TOKENS = [
    *FLAGS, *(flag[:k] for flag in FLAGS for k in range(3, len(flag))),
    *(f"{flag}=3" for flag in FLAGS), "-h", "--help", "--", "--bogus",
]
SCAN_VALUES = [
    "-1", "-0", "-1_000", " -1", "", "-", "٣", "JSON", "json", "text", "0", "3",
    "100001", "7/2", "roots=2+1", "-12", "-x", "-²", "--n", "-h",
]
# a value each flag accepts
GOOD_VALUES = {"--n": "3", "--m": "2", "--r": "-1", "--format": "json",
               "--profile": "roots=2+1", "--tau": "2", "--N": "7/2", "--out": "d.svg"}


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_scan_agrees_with_argparse_on_drawn_lines(data):
    # a clean line: the command's required flags and some others, each once
    name, _, _, options = data.draw(st.sampled_from(cli._COMMANDS))
    flags = data.draw(st.lists(st.sampled_from([option[0] for option in options]), unique=True))
    flags += [option[0] for option in options
              if option[3] is cli._REQUIRED and option[0] not in flags]
    flags = data.draw(st.permutations(flags))
    argv = [name, *(token for flag in flags for token in (flag, GOOD_VALUES[flag]))]
    # then up to two changes: a value replaced, or a token put in after the command
    for _ in range(data.draw(st.integers(0, 2))):
        if data.draw(st.booleans()):
            argv[2 * data.draw(st.integers(1, len(flags)))] = data.draw(st.sampled_from(SCAN_VALUES))
        else:
            token = data.draw(st.sampled_from(FLAG_TOKENS + SCAN_VALUES))
            argv.insert(data.draw(st.integers(1, len(argv))), token)
    args = cli._scan(argv)
    if args is not None:
        assert vars(args) == parsed(argv)


def reference_parser():
    """build_parser as it was before cli._read: each option's type function
    and choices handed to argparse, which words every refusal itself."""
    import argparse

    parser = argparse.ArgumentParser(prog="nrgit")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, _, _, options in cli._COMMANDS:
        p = sub.add_parser(name)
        for flag, kind, choices, default, _ in options:
            p.add_argument(flag, type=kind, choices=choices, required=default is cli._REQUIRED)
    return parser


# short values that int() or --format's choices refuse, and ("0", "-5",
# "100001", "-00...0") that the degree options' own functions refuse
SHORT_BAD_VALUES = ["x", "1.5", "", " ", "1e3", "0x1f", "1_0x", "٣x", "JSON", "text ",
                    "'q'", "0", "-5", "100001", "-" + "0" * 49, "x" * 50]
TYPED_OPTIONS = [(name, option) for name, _, _, options in cli._COMMANDS
                 for option in options if option[1] or option[2]]


@pytest.mark.parametrize("name, option", TYPED_OPTIONS,
                         ids=[f"{name} {option[0]}" for name, option in TYPED_OPTIONS])
def test_a_short_refusal_keeps_argparses_own_bytes(capsys, name, option):
    # argparse's wording on the running Python, not a copy of one version's
    flag = option[0]
    options = next(row[3] for row in cli._COMMANDS if row[0] == name)
    rest = [token for other in options if other[3] is cli._REQUIRED and other[0] != flag
            for token in (other[0], GOOD_VALUES[other[0]])]
    compared = 0
    for value in SHORT_BAD_VALUES:
        for argv in ([name, *rest, flag, value], [name, *rest, f"{flag}={value}"]):
            try:
                reference_parser().parse_args(argv)
                continue  # a value this option accepts
            except SystemExit as exc:
                want = (exc.code, *capsys.readouterr())
            assert run(capsys, *argv) == want, argv
            compared += 1
    assert compared >= len(SHORT_BAD_VALUES)


# values for every option: past int()'s digit limit and at it, malformed
# text thousands of characters long, short text that repr writes long (a
# control character in 4 characters, an astral non-printable one in 10) or
# that UTF-8 writes long (a printable emoji in 4 bytes), and valid values
# far from the usual
_NINES = TestUsageErrors.NINES
HOSTILE_VALUES = [
    "x" * 5000, "1" * 4301, _NINES, f"-{_NINES}", "1e5000", f"1/{_NINES}", "1_" * 2500 + "1",
    "٣" * 5000, " " * 5000, "1." + "5" * 4400, "0", "-3", "9" * 60, "1e100000000", "x",
    "\x01" * 100, "\U000e0001" * 100, "--", "\U0001F600" * 100,
]
HOSTILE_PROFILES = [
    "inf=" + "x" * 5000, "zero=" + "x" * 5000, "roots=" + "1+" * 2500 + "1",
    "bogus" * 1000 + "=1", f"inf={_NINES},zero={_NINES}",
]
# each command's line that a hostile value is put into: --r 1 lets a long
# --m reach classify's thresholds
HOSTILE_BASES = {
    "classify": ("--n", "3", "--r", "1", "--profile", "inf=1,roots=2"),
    "weights": ("--n", "3"), "walls": ("--n", "3"), "flips": ("--n", "6", "--tau", "2"),
    "census": ("--n", "3"), "diagram": ("--n", "3"),
}


def hostile_corpus():
    """(argv, NRGIT_MAX_CENSUS_N or None) lines: every command with each of
    its flags set to each hostile value, as `--flag v` and `--flag=v`, the
    hostile profiles, census under each hostile census guard, and weights at
    the degree ceiling with a 4300-digit --m or --r, whose rows would be too
    long to print."""
    lines = []
    for name, _, _, options in cli._COMMANDS:
        base = dict(zip(HOSTILE_BASES[name][::2], HOSTILE_BASES[name][1::2]))
        for flag, *_ in options:
            values = HOSTILE_VALUES + (HOSTILE_PROFILES if flag == "--profile" else [])
            for value in values:
                rest = [token for other, text in base.items() if other != flag
                        for token in (other, text)]
                lines.append(([name, *rest, flag, value], None))
                lines.append(([name, *rest, f"{flag}={value}"], None))
    lines += [(["census", "--n", "3"], value) for value in HOSTILE_VALUES]
    for flag in ("--m", "--r"):
        lines.append((["weights", "--n", "100000", flag, _NINES], None))
        lines.append((["weights", "--n", "100000", f"{flag}={_NINES}"], None))
    return lines


def test_every_hostile_line_is_answered_or_refused_in_bounded_words(capsys, monkeypatch, tmp_path):
    # exit 0, 2 or 3 within a second; a refusal's own words, after
    # argparse's usage lines, in at most 300 bytes and not naming Python's
    # digit limit
    monkeypatch.chdir(tmp_path)  # diagram --out writes its hostile paths here
    failures = []
    for argv, guard in hostile_corpus():
        if guard is None:
            monkeypatch.delenv("NRGIT_MAX_CENSUS_N", raising=False)
        else:
            monkeypatch.setenv("NRGIT_MAX_CENSUS_N", guard)
        start = time.perf_counter()
        code, _, err = run(capsys, *argv)
        seconds = time.perf_counter() - start
        words = err[err.rfind("\n", 0, err.find("error: ")) + 1:].encode("utf-8", "backslashreplace")
        if (code not in (0, 2, 3) or len(words) > 300 or "set_int_max_str_digits" in err
                or seconds > 1):
            failures.append((code, len(words), round(seconds, 2), err[:200], [a[:20] for a in argv]))
    assert failures == []


def test_a_flag_given_the_double_dash_is_refused_in_both_forms(capsys):
    # argparse reads `--flag=--` as the value [] and calls no type: every
    # flag of every command refuses it as it refuses `--flag --`
    lines = 0
    for name, _, _, options in cli._COMMANDS:
        base = dict(zip(HOSTILE_BASES[name][::2], HOSTILE_BASES[name][1::2]))
        for flag, *_ in options:
            rest = [token for other, text in base.items() if other != flag
                    for token in (other, text)]
            joined = run(capsys, name, *rest, f"{flag}=--")
            apart = run(capsys, name, *rest, flag, "--")
            assert joined == apart, (name, flag)
            code, out, err = joined
            assert code == 2 and out == "", (name, flag)
            assert err.endswith(f"{name}: error: argument {flag}: expected one argument\n")
            lines += 1
    assert lines == 24


# report trees: every kind of value the emitter may meet, strings with the
# characters json escapes (quote, backslash, controls) and with DEL,
# non-ASCII and astral characters it writes as \u escapes
REPORT_TEXT = st.text('"\\\x00\x08\n\x1f\x7f\x80é€\U0001f600a', max_size=8) | st.text(max_size=4)
REPORT_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(),
                          st.integers(-2**100, 2**100), st.floats(), REPORT_TEXT)
REPORT_TREES = st.recursive(
    REPORT_LEAVES,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(REPORT_TEXT, children, max_size=4)),
    max_leaves=16,
)
REPORT_DICTS = st.dictionaries(REPORT_TEXT, REPORT_TREES, max_size=4)


@given(REPORT_TREES, REPORT_DICTS, REPORT_DICTS, st.lists(REPORT_TEXT, max_size=3))
@settings(max_examples=150, deadline=None)
def test_emitter_writes_the_standard_librarys_bytes(tree, inputs, result, notes):
    assert cli._json(tree, "") == report_json(tree)
    got, want = [], []
    cli._flatten("result", tree, got)
    report_flatten("result", tree, want)
    assert got == want
    report = {"command": "c", "inputs": inputs, "result": result, "notes": notes}
    assert cli.emit_report("c", inputs, result, notes, "json") == report_json(report) + "\n"
    lines = ["command: c"]
    report_flatten("inputs", inputs, lines)
    report_flatten("result", result, lines)
    lines += [f"note: {note}" for note in notes]
    assert cli.emit_report("c", inputs, result, notes, "text") == "\n".join(lines) + "\n"


class _Text(str):
    pass


@pytest.mark.parametrize("leaf", [_Text('a"\x7f\u00e9'), Status.STABLE, 2**64 + 1, -2**70, "plain"],
                         ids=["str-subclass", "IntEnum", "int-past-2**64", "negative-int", "str"])
def test_a_scalar_is_written_as_json_dumps_writes_it(leaf):
    # a bare leaf takes _json's one scalar fallback, json.dumps; in a dict
    # or a list an exact str or int is written inline, a subclass through
    # that fallback
    for value in (leaf, {"k": leaf}, [leaf]):
        assert cli._json(value, "") == json.dumps(value, indent=2, sort_keys=True)


def test_a_container_held_twice_is_written_as_json_dumps_writes_it():
    # one dict object twice at one depth and once at another, as cmd_walls
    # shares its profile dicts between segments; then 50 segments sharing
    # one dict at three depths, beside empty containers
    shared = {"kind": "Chamber", "dimension": 2, "note": None, "roots": [1, 2]}
    tree = {"walls": [{"profile": shared}, {"profile": shared}], "top": shared}
    assert cli._json(tree, "") == json.dumps(tree, indent=2, sort_keys=True)
    shared = {"a": [1, "x"], "b": {"c": None}}
    tree = {"segments": [{"kind": f"k{i}", "interval": [str(i), str(i + 1)], "profile": shared}
                         for i in range(50)],
            "again": [shared, [[shared]]], "empty": [{}, []]}
    assert cli._json(tree, "") == json.dumps(tree, indent=2, sort_keys=True)


@pytest.mark.parametrize("argv", [
    ("census", "--n", "4"),
    ("census", "--n", "4", "--format", "json"),
    ("walls", "--n", "16"),
    ("walls", "--n", "16", "--format", "json"),
    ("walls", "--n", "5", "--format", "json"),
])
def test_a_command_leaves_no_cyclic_garbage(capsys, argv):
    # every object a command builds is freed by reference counting: a
    # self-referencing closure would be left for the cyclic collector
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code, _, err = run(capsys, *argv)
        gc.collect()
        garbage = [type(obj).__name__ for obj in gc.garbage]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert (code, err) == (0, "")
    assert garbage == []


def pinned_lines(n):
    """One command line of each command at degree n >= 4, where n - 2 is an
    interior wall; census refuses n past its guard."""
    profile = f"inf=1,zero=1,roots={n - 2}"
    lin = ("--m", "2", "--r", "1")
    return [
        ("classify", "--n", str(n), *lin, "--profile", profile),
        ("weights", "--n", str(n), *lin),
        ("walls", "--n", str(n)),
        ("flips", "--n", str(n), "--tau", str(n - 2)),
        ("census", "--n", str(n), *lin),
        ("diagram", "--n", str(n), *lin),
    ]


class TestOutputPin:
    # SHA-256 per degree of every pinned_lines(n) answer, "exit <code>" and
    # stdout, in order: text, then JSON; recorded before the report emitter
    # wrote JSON and text directly
    OUTPUT_SHA256 = {
        4: ("79df7e84cf01e1b93458b9a5a021c4a8e44b1abe03038a90685e874f434e7188",
            "b37c6f1b2d9992993c3752b838ab6a2cebc203df4495394747c890d883b21281"),
        7: ("4bc92dcedb711b5cf47ed0e652ad1522216577eaca09034a6b0d9400726c2b84",
            "1433db43091e40f1eb79b7e8db528bb0037d26c0cff219e905898c65aa8c8736"),
        12: ("9ace294e59dbbd3c410287fb889d7685a3c53f99aafcf1a6b5243945ba6d1604",
            "df7e4623f06599753acf54b0b666cab1a666e66480cf0a59f13ec869f569fe0e"),
        40: ("655a5d9790431acc7becbd15e444fc474b85199f203e1a2940684eeb95f5645c",
            "09d43d9eb1f9b4602044613c9fc611416875f38fedcd95c070238c3ae241a304"),
    }

    @pytest.mark.parametrize("n", sorted(OUTPUT_SHA256))
    def test_output_pinned(self, capsys, n):
        got = []
        for fmt in ("text", "json"):
            digest = hashlib.sha256()
            for argv in pinned_lines(n):
                code, out, _ = run(capsys, *argv, "--format", fmt)
                digest.update(f"exit {code}\n{out}".encode())
            got.append(digest.hexdigest())
        assert tuple(got) == self.OUTPUT_SHA256[n]
