"""End-to-end tests for the command-line interface.

Each test invokes ``hyperaccel.cli.main`` in process and inspects the
exit status together with captured stdout/stderr.  Covered: all eight
commands, the three exit codes (0 success, 1 computation failure,
2 usage error), byte-identical output across repeated and parallel
invocations, tab-separated output, and the HYPERACCEL_MAX_TERMS
override.
"""

import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from hyperaccel.accelerator import accelerated_stream
from hyperaccel.builtin_data import STORED
from hyperaccel.catalog import catalog_entries, verify_entry
from hyperaccel.cli import (_MAX_START, _MAX_STREAM_DIGITS, _MAX_STREAM_TERMS,
                            build_parser, main)
from hyperaccel.hypergeom_terms import FamilyId, family_instantiate
from hyperaccel.numerics import chu_eval_terms
from hyperaccel.telescoper import derive_recurrence, theorem_families

Q1_PARAMS = "1/3,1/3,1,1/3,1/3,2/3"
Q1_CHU = "z=1/4 upper=[2/3] lower=[11/6] num=[17,42,27] den=[1,4,3]"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# verify-symbolic
# ---------------------------------------------------------------------------


def test_verify_symbolic_all_families(capsys):
    code, out, err = run(capsys, "verify-symbolic")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 3
    for name, line in zip(("quarter", "neg-quarter", "neg-27"), lines):
        assert line.startswith(name)
        assert line.endswith("residual = 0")


def test_verify_symbolic_single_family(capsys):
    code, out, _ = run(capsys, "verify-symbolic", "--family", "neg-27")
    assert code == 0
    assert out.splitlines() == ["neg-27       residual = 0"]


def test_verify_symbolic_rejects_family_without_stored_recurrence(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-symbolic", "--family", "four-27"])
    assert exc.value.code == 2


def _option_choices(command: str, dest: str):
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return next(a for a in sub.choices[command]._actions if a.dest == dest).choices


def test_verify_symbolic_families_are_the_stored_table():
    """The stored table is the one record of which families carry a
    stored recurrence, in one order."""
    assert theorem_families() == tuple(STORED)
    assert _option_choices("verify-symbolic", "family") == [
        f.value for f in STORED]


# ---------------------------------------------------------------------------
# derive / rate
# ---------------------------------------------------------------------------


def test_derive_prints_reduced_recurrence(capsys):
    code, out, _ = run(capsys, "derive", "--family", "quarter",
                       "--params", Q1_PARAMS)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "family quarter"
    assert lines[1] == "r 1"
    assert lines[2] == "p1 [1,0,-9]"
    assert lines[3] == "p2 [0,-6,36]"
    assert lines[4].startswith("cert (") and ")/(" in lines[4]
    assert lines[5] == "rate 1/4"


def test_derive_with_index_reports_stream_head(capsys):
    code, out, _ = run(capsys, "derive", "--family", "quarter",
                       "--params", Q1_PARAMS, "--n", "1")
    assert code == 0
    assert out.splitlines()[-1] == "stream valid from n = 1, first term 17/10"


def test_derive_divergent_tuple_fails_with_diagnostic(capsys):
    code, _, err = run(capsys, "derive", "--family", "quarter",
                       "--params", "9,9,9,9,9,9", "--n", "1")
    assert code == 1
    assert err == "hyperaccel: remainder does not vanish\n"


def test_derive_from_a_point_where_the_series_diverges_fails(capsys):
    # the first shifted point n = 1/2 leaves the k-sum with decay
    # exponent 2/3, which the direct-summation oracle refuses
    code, out, err = run(capsys, "derive", "--family", "quarter",
                         "--params", Q1_PARAMS, "--n=-1/2")
    assert code == 1
    assert err == "hyperaccel: remainder does not vanish\n"
    assert "stream" not in out


@pytest.mark.parametrize("command", ["derive", "accelerate"])
def test_start_point_bound(capsys, command):
    """|n| = 1000 is accepted; there the remainder check sums about 1000
    terms at each shifted point of this binomial family.  A larger |n|,
    integer or not, is refused with exit 2 before anything is derived."""
    args = [command, "--family", "sixteen-27-a", "--params=-100,1/2"]
    extra = ["--terms", "1"] if command == "accelerate" else []
    code, out, err = run(capsys, *args, f"--n={_MAX_START}", *extra)
    assert (code, err) == (0, "") and out
    refused = ("hyperaccel: start point above supported range:"
               f" |n| at most {_MAX_START}\n")
    for n in (_MAX_START + 1, -_MAX_START - 1,
              Fraction(1000 * _MAX_START + 1, 1000)):
        assert run(capsys, *args, "--n", str(n), *extra) == (2, "", refused)


@pytest.mark.parametrize("spaced, joined", [
    (["rate", "--family", "neg-64", "--params", "-2/3,2/3,0"],
     ["rate", "--family", "neg-64", "--params=-2/3,2/3,0"]),
    (["derive", "--family", "neg-64", "--params", "-2/3,2/3,0", "--n", "-1/3"],
     ["derive", "--family", "neg-64", "--params=-2/3,2/3,0", "--n=-1/3"]),
])
def test_negative_rational_values_with_space_or_equals(capsys, spaced, joined):
    code, out, err = run(capsys, *spaced)
    assert (code, out, err) == run(capsys, *joined)
    assert code == 0 and err == ""
    assert out.splitlines()[-1].startswith(
        "rate = -1/64" if spaced[0] == "rate" else "stream valid from n = -1/3")


def test_unknown_flag_after_negative_value_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rate", "--family", "neg-64", "--params", "-2/3,2/3,0",
              "--bogus"])
    assert exc.value.code == 2


def test_derive_wrong_arity_is_usage_error(capsys):
    code, _, err = run(capsys, "derive", "--family", "quarter",
                       "--params", "1,2,3")
    assert code == 2
    assert "expects 6 parameters" in err


def test_rate_command(capsys):
    code, out, _ = run(capsys, "rate", "--family", "quarter",
                       "--params", Q1_PARAMS)
    assert code == 0
    assert out == "rate = 1/4\n"


def test_rate_r2_family(capsys):
    code, out, _ = run(capsys, "rate", "--family", "neg-quarter",
                       "--params", "2/3,1,-1/3", "--r", "2")
    assert code == 0
    assert out == "rate = -1/4\n"


@pytest.mark.parametrize("argv", [
    ("derive", "--n", "1"), ("rate",), ("accelerate", "--n", "1")],
    ids=["derive", "rate", "accelerate"])
def test_tuple_without_recurrence_fails_with_one_message(capsys, argv):
    code, out, err = run(capsys, *argv, "--family", "twenty7-32",
                         "--params", "1/3,1/5")
    assert (code, out) == (1, "")
    assert err == ("hyperaccel: no two-term recurrence found for family"
                   " twenty7-32 with the given parameters\n")


@pytest.mark.parametrize("argv", [
    ("derive", "--n", "1"), ("derive",), ("rate",), ("accelerate", "--n", "1"),
    ("accelerate", "--n", "1", "--chu")],
    ids=["derive-n", "derive", "rate", "accelerate", "accelerate-chu"])
@pytest.mark.parametrize("family,params,message", [
    ("quarter", "0,0,0,0,0,0", "parameter a = 0 puts Gamma(a) at a pole"),
    ("quarter", "1/3,-2,1,1/3,1/3,2/3", "parameter b = -2 puts Gamma(b) at a pole"),
    ("neg-64", "-1,2/3,0", "parameter a = -1 puts Gamma(a) at a pole")])
def test_degenerate_tuple_is_usage_error(capsys, argv, family, params, message):
    """A tuple that puts a Gamma factor free of n and k at a pole ends in
    exit 2 with one line naming the parameter and the factor."""
    code, out, err = run(capsys, *argv, "--family", family, "--params", params)
    assert (code, out, err) == (2, "", f"hyperaccel: {message}\n")


# ---------------------------------------------------------------------------
# accelerate
# ---------------------------------------------------------------------------


def test_accelerate_prints_exact_stream_terms(capsys):
    code, out, _ = run(capsys, "accelerate", "--family", "quarter",
                       "--params", Q1_PARAMS, "--n", "1", "--terms", "4")
    assert code == 0
    assert out.splitlines() == [
        "t[0] = 17/10",
        "t[1] = 43/440",
        "t[2] = 19/1428",
        "t[3] = 193/86020",
    ]


def test_accelerate_term_count_at_maximum(capsys):
    code, out, err = run(capsys, "accelerate", "--family", "quarter",
                         "--params", Q1_PARAMS, "--n", "1",
                         "--terms", str(_MAX_STREAM_TERMS))
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == _MAX_STREAM_TERMS
    assert lines[-1].startswith(f"t[{_MAX_STREAM_TERMS - 1}] = ")


@pytest.mark.parametrize("count", [_MAX_STREAM_TERMS + 1, 100000000])
def test_accelerate_term_count_above_maximum_is_usage_error(capsys, count):
    start = time.perf_counter()
    code, out, err = run(capsys, "accelerate", "--family", "quarter",
                         "--params", Q1_PARAMS, "--n", "1",
                         "--terms", str(count))
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out == ""
    assert err == ("hyperaccel: term count above supported range:"
                   f" at most {_MAX_STREAM_TERMS}\n")


def test_accelerate_prints_terms_beyond_int_str_limit(capsys):
    # large parameter denominators: term 299 has over 9000 digits on each
    # side, past Python's default 4300-digit int-to-str limit
    params = "1/1009,1/1013,1,1/1019,1/1021,2/1031"
    code, out, err = run(capsys, "accelerate", "--family", "quarter",
                         "--params", params, "--n", "1", "--terms", "300")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 300
    term = family_instantiate(FamilyId.QUARTER,
                              [Fraction(p) for p in params.split(",")])
    last = accelerated_stream(term, derive_recurrence(term), 1).term(299)
    assert last.denominator > 10 ** 4300
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = f"t[299] = {last}"
    finally:
        sys.set_int_max_str_digits(old)
    assert lines[-1] == want


def test_accelerate_output_above_digit_bound_is_usage_error(capsys):
    # 2000 terms of this stream are 1.22e8 digits, which took over a
    # minute to print; the bound trips near term 1980 before any term is
    # printed, after about 2 s (Python 3.11, 2 vCPUs)
    start = time.perf_counter()
    code, out, err = run(capsys, "accelerate", "--family", "quarter",
                         "--params", "1/1009,1/1013,1,1/1019,1/1021,2/1031",
                         "--n", "1", "--terms", "2000")
    assert time.perf_counter() - start < 30
    assert code == 2
    assert out == ""
    assert err == ("hyperaccel: stream output above supported range:"
                   f" at most {_MAX_STREAM_DIGITS} digits\n")


def test_accelerate_chu_output_parses_back(capsys):
    code, out, _ = run(capsys, "accelerate", "--family", "quarter",
                       "--params", Q1_PARAMS, "--n", "1", "--chu")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == Q1_CHU
    assert lines[1] == "scale = 1/10"


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_by_entry_id(capsys):
    code, out, _ = run(capsys, "eval", "--id", "Q1", "--digits", "30")
    assert code == 0
    assert out == "18.13799364234217850594078257642128 ± 1e-30\n"


def test_eval_explicit_series_matches_entry(capsys):
    code, out, _ = run(capsys, "eval", "--series", Q1_CHU, "--digits", "20")
    assert code == 0
    assert out.startswith("18.137993642342178505")


FR2_50 = "35.3429173528851739327047380618944074472181557429699362 ± 1e-50\n"


def test_eval_env_cap_too_small_fails(capsys, monkeypatch):
    monkeypatch.setenv("HYPERACCEL_MAX_TERMS", "10")
    assert run(capsys, "eval", "--id", "FR-2", "--digits", "50") == (
        1, "", "hyperaccel: requested digits unreachable\n")


def test_eval_env_cap_generous_succeeds(capsys, monkeypatch):
    monkeypatch.setenv("HYPERACCEL_MAX_TERMS", "900")
    assert run(capsys, "eval", "--id", "FR-2", "--digits", "50") == (0, FR2_50, "")


def test_eval_default_cap_sums_fr2(capsys, monkeypatch):
    # the cap numerics picks for FR-2 (z = 27/32) at 50 digits holds its
    # 687 terms, as the generous override does
    monkeypatch.delenv("HYPERACCEL_MAX_TERMS", raising=False)
    assert run(capsys, "eval", "--id", "FR-2", "--digits", "50") == (0, FR2_50, "")


def test_eval_digits_above_cap_fails_at_once(capsys):
    code, out, err = run(capsys, "eval", "--id", "Q1", "--digits", "20000")
    assert code == 1
    assert out == ""
    assert err == "hyperaccel: digits above supported range\n"


@pytest.mark.parametrize("source, digits, head", [
    (("--series", "z=1/2 upper=[] lower=[] num=[1] den=[1]"), 3000, "1.999"),
    (("--id", "Q1"), 5000, "18.13799364234217850594078257642155732284066248"),
])
def test_eval_prints_beyond_int_str_limit(capsys, source, digits, head):
    code, out, err = run(capsys, "eval", *source, "--digits", str(digits))
    assert code == 0
    assert err == ""
    assert out.startswith(head)
    match = re.fullmatch(r"\d+\.(\d+) ± 1e-(\d+)\n", out)
    assert match
    assert len(match.group(1)) == digits + 2
    assert int(match.group(2)) >= digits


@pytest.mark.parametrize("series, out", [
    # 1 - 3/2 + 3/2 - 3/4: the terms past j = 3 vanish through (-3)_j
    ("z=1/2 upper=[-3] lower=[] num=[1] den=[1]", "0.2500000 ± 0\n"),
    # 1 - 1/3 + 1/12: more upper than lower parameters, finite through -2
    ("z=1/2 upper=[-2,1] lower=[3] num=[1] den=[1]", "0.7500000 ± 0\n"),
])
def test_eval_finite_series_with_more_upper_parameters(capsys, series, out):
    code, got, err = run(capsys, "eval", "--series", series, "--digits", "5")
    assert (code, got, err) == (0, out, "")


def test_eval_terminating_series_below_its_stop_index(capsys, monkeypatch):
    # the tail rule first holds at j = 4, but the series ends after 3 terms
    # (upper parameter -2), so a cap of 3 sums it exactly: -40329/13475
    monkeypatch.setenv("HYPERACCEL_MAX_TERMS", "3")
    code, out, err = run(capsys, "eval", "--series",
                         "z=-3/4 upper=[-2,1/3] lower=[5/2,7/4] num=[-3,3]"
                         " den=[1,2]", "--digits", "12")
    assert (code, out, err) == (0, "-2.99287569573284 ± 1e-14\n", "")


def test_eval_near_unit_argument_exceeds_work_budget(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "--series",
                         "z=99999/100000 upper=[] lower=[] num=[1] den=[1]",
                         "--digits", "100")
    assert time.perf_counter() - start < 5
    assert code == 1
    assert out == ""
    assert err.startswith("hyperaccel: summation work above supported range")


@pytest.mark.parametrize("e, digits", [(20, 20), (4299, 9000)])
def test_eval_argument_within_float_rounding_of_one_exceeds_work_budget(
        capsys, e, digits):
    # log10 of numerator and denominator agree as floats, so the digit gain
    # comes from its lower bound (1 - z)/3 = 10^-e/3, and the cap of
    # 3 digits 10^e + 120 terms is printed in full past the int-to-str limit
    code, out, err = run(capsys, "eval", "--series",
                         f"z={10 ** e - 1}/{10 ** e} upper=[] lower=[] num=[1] den=[1]",
                         "--digits", str(digits))
    assert (code, out) == (1, "")
    cap = f"{3 * digits}{'0' * (e - 3)}120"
    assert err == ("hyperaccel: summation work above supported range:"
                   f" {cap} terms at {digits} digits\n")


def test_eval_argument_below_float_range(capsys):
    # z = 10^-400 is 0.0 as a float, but its default cap still follows
    # from the digit gain of 400 a term: sum z^j / (j + 1) = 1 + z/2 + ...
    code, out, err = run(capsys, "eval", "--series",
                         f"z=1/{10 ** 400} upper=[1] lower=[2] num=[1] den=[1]",
                         "--digits", "20")
    assert (code, out, err) == (0, "1.0000000000000000000000 ± 1e-400\n", "")


def test_eval_env_cap_above_work_budget_fails(capsys, monkeypatch):
    monkeypatch.setenv("HYPERACCEL_MAX_TERMS", "100000000")
    code, out, err = run(capsys, "eval", "--id", "Q1", "--digits", "10")
    assert code == 1
    assert out == ""
    assert err.startswith("hyperaccel: summation work above supported range")


def test_eval_unit_argument_is_divergent(capsys):
    code, out, err = run(capsys, "eval", "--series",
                         "z=1 upper=[1/2] lower=[3/2] num=[1] den=[1]",
                         "--digits", "10")
    assert code == 1
    assert out == ""
    assert err == "hyperaccel: divergent series: |z| >= 1\n"


@pytest.mark.parametrize("series", [
    "z=1/0 upper=[1/2] lower=[3/2] num=[1] den=[1]",
    "z=1/4 upper=[1/0] lower=[3/2] num=[1] den=[1]",
    "z=1/4 upper=[1/2] lower=[3/2] num=[] den=[1]",
])
def test_eval_series_outside_bracket_form_is_usage_error(capsys, series):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--series", series, "--digits", "10"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hyperaccel eval")
    assert f"malformed series text: {series!r}" in err
    assert "Traceback" not in err


def test_bad_env_cap_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("HYPERACCEL_MAX_TERMS", "many")
    code, _, err = run(capsys, "eval", "--id", "Q1", "--digits", "10")
    assert code == 2
    assert "HYPERACCEL_MAX_TERMS" in err


# ---------------------------------------------------------------------------
# check / check-all
# ---------------------------------------------------------------------------

CHECK_ROW = re.compile(
    r"^(\S+)\s+(PASS|FAIL) lhs=-?\d+\.\d+ ± (?:1e-\d+|0) "
    r"rhs=-?\d+\.\d+ ± (?:1e-\d+|0) terms=\d+$")


def test_check_single_entry_pass(capsys):
    code, out, _ = run(capsys, "check", "--id", "RT1", "--digits", "50")
    assert code == 0
    match = CHECK_ROW.match(out.rstrip("\n"))
    assert match is not None
    assert match.group(1) == "RT1"
    assert match.group(2) == "PASS"


def test_library_catalog_and_check_sum_each_display_alike(capsys):
    # numerics alone picks the default term cap, so a bare library call,
    # the catalog's verification and `check` sum each display the same way
    displays = [e for e in catalog_entries() if e.chu is not None]
    assert len(displays) == 95
    for e in displays:
        enc, terms = chu_eval_terms(e.chu, 50)
        report = verify_entry(e.id, 50)
        assert (report.lhs, report.terms_used) == (enc, terms), e.id
        code, out, err = run(capsys, "check", "--id", e.id, "--digits", "50")
        assert (code, err) == (0, ""), e.id
        assert f" lhs={enc.decimal(52)} " in out and out.endswith(
            f" terms={terms}\n"), e.id


def test_check_at_digits_cap_passes(capsys):
    # the closed form is computed with 10 guard digits past the cap
    code, out, err = run(capsys, "check", "--id", "Q1", "--digits", "10000")
    assert code == 0
    assert err == ""
    assert out.startswith("Q1 PASS lhs=18.137993642342178505940782576")
    code, out, err = run(capsys, "check", "--id", "Q1", "--digits", "10001")
    assert code == 1
    assert out == ""
    assert err == "hyperaccel: digits above supported range\n"


def test_check_tsv_fields(capsys):
    code, out, _ = run(capsys, "check", "--id", "RT1", "--digits", "20",
                       "--format", "tsv")
    assert code == 0
    fields = out.rstrip("\n").split("\t")
    assert fields[0] == "RT1"
    assert fields[1] == "PASS"
    assert fields[2].startswith("lhs=2.2672492052927723132")
    assert fields[4].startswith("terms=")


def test_check_entry_without_display_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "--id", "Q-R1", "--digits", "20")
    assert code == 2
    assert "no display series" in err


def test_check_unknown_id_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "--id", "NOPE", "--digits", "20")
    assert code == 2
    assert "unknown entry id" in err


def test_check_all_covers_every_display_entry(capsys):
    code, out, _ = run(capsys, "check-all", "--digits", "12")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "checked=95 passed=95 failed=0"
    assert len(lines) == 96
    assert all(CHECK_ROW.match(line) for line in lines[:-1])


def test_check_all_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "check-all", "--digits", "12")
    _, second, _ = run(capsys, "check-all", "--digits", "12")
    assert first == second


def test_check_all_parallel_matches_sequential(capsys):
    _, sequential, _ = run(capsys, "check-all", "--digits", "12")
    code, parallel, _ = run(capsys, "check-all", "--digits", "12",
                            "--jobs", "4")
    assert code == 0
    assert parallel == sequential


def test_check_all_jobs_bounded_by_cpus_and_displays(capsys, monkeypatch):
    # a stand-in pool records the size it is asked for and runs the work
    # in process, so no large pool is ever started
    import multiprocessing

    sizes = []

    class FakePool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, tasks):
            return [fn(*task) for task in tasks]

    _, sequential, _ = run(capsys, "check-all", "--digits", "12")
    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    for cpus, jobs, want in ((4, "100000", [4]), (8, "3", [3]),
                             (None, "100000", []), (1000, "100000", [95])):
        sizes.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        code, out, err = run(capsys, "check-all", "--digits", "12",
                             "--jobs", jobs)
        assert (code, out, err, sizes) == (0, sequential, "", want)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def test_catalog_list_has_one_row_per_entry(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 123
    assert lines[0].startswith("RAMANUJAN-1")


def test_catalog_list_marks_tentative_entries(capsys):
    _, out, _ = run(capsys, "catalog", "list")
    marked = {line.split()[0] for line in out.splitlines()
              if " tentative " in line}
    assert marked == {"Q16", "N27-5", "N27-7", "S2764-1", "FR-2"}


@pytest.mark.parametrize("name, reason", [
    ("missing/catalog.tsv", "No such file or directory"),
    ("", "Is a directory"),
])
def test_catalog_export_to_an_unwritable_path_is_usage_error(capsys, tmp_path,
                                                             name, reason):
    target = tmp_path / name
    code, out, err = run(capsys, "catalog", "export", "--out", str(target))
    assert (code, out, err) == (2, "", f"hyperaccel: cannot write {target}: {reason}\n")


def test_catalog_export_roundtrips(capsys, tmp_path):
    target = tmp_path / "catalog.tsv"
    code, out, _ = run(capsys, "catalog", "export", "--out", str(target))
    assert code == 0
    assert out == f"wrote 123 entries to {target}\n"
    lines = target.read_text().splitlines()
    assert len(lines) == 123
    assert all(len(line.split("\t")) == 3 for line in lines)


# ---------------------------------------------------------------------------
# argparse-level usage errors
# ---------------------------------------------------------------------------


def test_missing_required_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--id", "RT1"])
    assert exc.value.code == 2


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_malformed_rational_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rate", "--family", "quarter", "--params", "1/3,zebra"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["derive", "rate", "accelerate"])
def test_r_takes_1_or_2_on_every_family_command(capsys, command):
    """--r is one option on derive, rate and accelerate: 1 or 2, and when
    absent 1 then 2 are tried; any other value, auto among them, exits 2."""
    assert _option_choices(command, "r") == (1, 2)
    start = [] if command == "rate" else ["--n", "1"]
    for value in ("auto", "3"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--family", "quarter", "--params", Q1_PARAMS,
                  *start, "--r", value])
        assert exc.value.code == 2
        assert "argument --r: invalid" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["derive"], ["rate"], ["accelerate", "--n", "1"]])
def test_max_deg_is_not_an_option(capsys, command):
    # the ansatz degree cap is fixed at telescoper._MAX_DEG
    with pytest.raises(SystemExit) as exc:
        main([*command, "--family", "quarter", "--params", Q1_PARAMS,
              "--max-deg", "8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-deg 8" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The README's command examples
# ---------------------------------------------------------------------------


def _readme_examples():
    """(command line, expected output) for each `$ hyperaccel ...` line of
    the README's "Command line" section: the lines after it up to the
    next command or the end of its block, trailing blank lines dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"```text\n(.*?)```", section, re.S):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            if chunk.startswith("$ hyperaccel "):
                command, _, out = chunk.partition("\n")
                examples.append((command[len("$ hyperaccel "):], out.rstrip("\n")))
    return examples


def _output_pattern(expected: str) -> str:
    """A regex for the output: `...` matches any text, and any run of
    lines when it stands alone on a line."""
    parts = []
    for line in expected.split("\n") if expected else []:
        if line == "...":
            parts.append(r"(?:[^\n]*\n)*")
        else:
            parts.append(r"[^\n]*".join(map(re.escape, line.split("..."))) + "\n")
    return "".join(parts)


_README_EXAMPLES = _readme_examples()


def test_readme_shows_command_examples():
    assert len(_README_EXAMPLES) >= 10


@pytest.mark.parametrize("command, expected", _README_EXAMPLES,
                         ids=[c for c, _ in _README_EXAMPLES])
def test_readme_command_example(capsys, monkeypatch, tmp_path, command, expected):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, *shlex.split(command))
    assert code == 0
    assert re.fullmatch(_output_pattern(expected), out), out


# ---------------------------------------------------------------------------
# python -m hyperaccel
# ---------------------------------------------------------------------------


def test_python_dash_m_runs_the_cli():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-m", "hyperaccel",
                           "verify-symbolic"], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0
    assert done.stderr == ""
    assert len(done.stdout.splitlines()) == 3
