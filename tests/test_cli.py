import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gf2bup
from gf2bup import BupRecord, bup_search, cli, mersenne, parse
from gf2bup.bup_search import CandidateTuple
from gf2bup.cli import main

SRC = Path(gf2bup.__file__).resolve().parent.parent


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out


class TestFactor:
    def test_sigma_x6(self, capsys):
        code, out = run_cli(
            ["factor", "x^6+x^5+x^4+x^3+x^2+x+1", "--records"], capsys)
        assert code == 0
        assert out.strip() == "(x^3+x+1)*(x^3+x^2+1)"

    def test_prime_power(self, capsys):
        code, out = run_cli(["factor", "x^2", "--records"], capsys)
        assert code == 0
        assert out.strip() == "x^2"

    def test_human_mode_aliases(self, capsys):
        code, out = run_cli(["factor", "x^6+x^5+x^4+x^3+x^2+x+1"], capsys)
        assert code == 0
        assert "M2*M3" in out

    @pytest.mark.parametrize(
        "command", ["factor", "sigma", "sigma-star", "sigma-2star"])
    def test_input_degree_cap(self, command, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("an over-limit input reached the library")
        monkeypatch.setattr(cli, "factorize", refuse)
        for name in ("sigma", "sigma_star", "sigma_2star"):
            monkeypatch.setattr(cli, name, refuse)
        with pytest.raises(SystemExit) as exc:
            main([command, "x^4097+x+1"])
        assert exc.value.code == 2
        assert "4096" in capsys.readouterr().err


# each command's usage line, in the order help prints them
USAGE = {
    "factor": "gf2bup factor POLY [--records]",
    "sigma": "gf2bup sigma POLY [--records]",
    "sigma-star": "gf2bup sigma-star POLY [--records]",
    "sigma-2star": "gf2bup sigma-2star POLY [--records]",
    "verify-catalog": "gf2bup verify-catalog [--records]",
    "search": "gf2bup search [--case {even-even,even-odd,odd-even,odd-odd,all}]"
              " [--records]",
    "mersenne": "gf2bup mersenne --max-degree N",
    "scan": "gf2bup scan --max-degree N [--records]",
}
COMMANDS = ", ".join(USAGE)

# Every refusal of a bad argument, with the one stderr line it prints: the
# library's, then the command line's.
REFUSALS = [
    ([command, poly], f"error: {message}\n")
    for command in ("factor", "sigma", "sigma-star", "sigma-2star")
    for poly, message in (
        ("x^2+", "unexpected 'end' (position 4)"),
        ("x^4097+x+1", "degree exceeds the limit 4096 (position 2)"),
        ("0x1_3", "malformed hex literal (position 0)"),
        # past int()'s default limit of 4300 digits
        ("x^" + "9" * 5000, "unreadable integer (position 2)"),
        ("0", f"{command} is undefined for the zero polynomial"))
] + [
    (["scan", "--max-degree", "21"],
     "error: max_degree must be between 1 and 20\n"),
    (["scan", "--max-degree", "-1"],
     "error: max_degree must be between 1 and 20\n"),
    (["mersenne", "--max-degree", "0"],
     "error: max_degree must be positive\n"),
    ([], f"error: missing command (choose from {COMMANDS})\n"),
    (["frobnicate"],
     f"error: unknown command 'frobnicate' (choose from {COMMANDS})\n"),
    (["search", "--frobnicate"],
     "error: search: unknown option '--frobnicate'\n"),
    (["mersenne", "--max-degree", "4", "--records"],
     "error: mersenne: unknown option '--records'\n"),
    (["factor", "-x"], "error: factor: unknown option '-x'\n"),
    (["search", "--records=yes"],
     "error: search: --records takes no value\n"),
    (["scan", "--max-degree"], "error: scan: --max-degree needs a value\n"),
    (["search", "--case", "--records"],
     "error: search: --case needs a value\n"),
    (["scan", "--max-degree", "abc"],
     "error: scan: --max-degree needs an integer, got 'abc'\n"),
    (["search", "--case", "odd"],
     "error: search: --case must be one of even-even, even-odd, odd-even, "
     "odd-odd, all, got 'odd'\n"),
    (["scan", "--records"], "error: scan: --max-degree is required\n"),
    (["factor", "--records"], "error: factor: missing the POLY argument\n"),
    (["factor", "x", "x"], "error: factor: unexpected argument 'x'\n"),
]


@pytest.mark.parametrize("argv, err", REFUSALS,
                         ids=[" ".join(argv)[:40] or "(none)"
                              for argv, _ in REFUSALS])
def test_usage_error_leaves_main_as_exit_2(argv, err, capsys):
    # one way out for every refusal: SystemExit(2)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", err)


def fields(command, **values):
    return {"command": command, **values}


# Each form of a command line the parser accepts, with what it reads.
ACCEPTED = [
    (["factor", "x^2"], fields("factor", poly="x^2", records=False)),
    (["factor", "--records", "x^2"],
     fields("factor", poly="x^2", records=True)),
    (["factor", "x^2", "--rec"], fields("factor", poly="x^2", records=True)),
    (["factor", "--records", "--", "x^2"],
     fields("factor", poly="x^2", records=True)),
    (["factor", "--", "--records"],
     fields("factor", poly="--records", records=False)),
    (["verify-catalog"], fields("verify-catalog", records=False)),
    (["search"], fields("search", case="all", records=False)),
    (["search", "--case", "even-odd", "--case=odd-odd"],
     fields("search", case="odd-odd", records=False)),
    (["search", "--ca=even-even", "--r", "--records"],
     fields("search", case="even-even", records=True)),
    (["mersenne", "--max-degree", "4"], fields("mersenne", max_degree=4)),
    (["scan", "--max-degree=16", "--records"],
     fields("scan", max_degree=16, records=True)),
    (["scan", "--max", "16", "--max", "12"],
     fields("scan", max_degree=12, records=False)),
    (["scan", "--max-degree", "-1"],
     fields("scan", max_degree=-1, records=False)),
]


@pytest.mark.parametrize("argv, expected", ACCEPTED,
                         ids=[" ".join(argv) for argv, _ in ACCEPTED])
def test_accepted_command_lines(argv, expected):
    assert vars(cli._parse_args(argv)) == expected


TOP_HELP = "usage: " + "\n       ".join(USAGE.values()) + "\n"


@pytest.mark.parametrize("argv, out", [
    (["-h"], TOP_HELP),
    (["--help"], TOP_HELP),
    (["scan", "-h"], f"usage: {USAGE['scan']}\n"),
    (["search", "--case", "all", "--he"], f"usage: {USAGE['search']}\n"),
], ids=["-h", "--help", "scan -h", "search --case all --he"])
def test_help_prints_usage_and_exits_0(argv, out, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr() == (out, "")


class TestSigmaCommands:
    def test_sigma2star_x4(self, capsys):
        code, out = run_cli(["sigma-2star", "x^4", "--records"], capsys)
        assert code == 0
        assert out.strip() == "(x+1)^2*(x^2+x+1)"

    def test_sigma2star_unit(self, capsys):
        code, out = run_cli(["sigma-2star", "1", "--records"], capsys)
        assert code == 0
        assert out.strip() == "1"

    def test_sigma2star_c1_fixpoint(self, capsys):
        text = "x^3*(x+1)^4*(x^2+x+1)"
        code, out = run_cli(["sigma-2star", text, "--records"], capsys)
        assert code == 0
        assert out.strip() == text

    def test_sigma(self, capsys):
        code, out = run_cli(["sigma", "x^2", "--records"], capsys)
        assert code == 0
        assert out.strip() == "(x^2+x+1)"

    def test_sigma_star(self, capsys):
        code, out = run_cli(["sigma-star", "x^2", "--records"], capsys)
        assert code == 0
        assert out.strip() == "(x+1)^2"


class TestVerifyCatalog:
    def test_pass(self, capsys):
        code, out = run_cli(["verify-catalog", "--records"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 23
        assert all("\tPASS\t" in line for line in lines)
        assert lines[0].startswith("C1\t")

    def test_tampered_catalog_fails(self, capsys, monkeypatch):
        genuine = bup_search.catalog()
        c13 = genuine[12]
        tampered = genuine[:12] + [BupRecord(
            c13.poly + 1, c13.factorization, c13.candidate, c13.case_tag,
            c13.conjugate_class, c13.catalog_index)] + genuine[13:]
        monkeypatch.setattr(bup_search, "catalog", lambda: tampered)
        code, out = run_cli(["verify-catalog", "--records"], capsys)
        assert code == 1
        assert "C13\tFAIL" in out

    @pytest.mark.parametrize(
        "check", ["x(x+1)", "reduction_check", "is_indecomposable_bup"])
    def test_each_later_check_fails_its_entry(self, check, capsys,
                                              monkeypatch):
        # past is_bup: C13 replaced by 1, a fixpoint that x(x+1) does not
        # divide, or one of the two predicates refusing C13 alone
        genuine = bup_search.catalog()
        c13 = genuine[12]
        if check == "x(x+1)":
            tampered = genuine[:12] + [BupRecord(
                parse("1"), c13.factorization, c13.candidate, c13.case_tag,
                c13.conjugate_class, c13.catalog_index)] + genuine[13:]
            monkeypatch.setattr(bup_search, "catalog", lambda: tampered)
        else:
            predicate = getattr(bup_search, check)
            monkeypatch.setattr(bup_search, check,
                                lambda s: s != c13.poly and predicate(s))
        code, out = run_cli(["verify-catalog", "--records"], capsys)
        assert code == 1
        lines = out.strip().splitlines()
        assert [line.split("\t")[1] for line in lines] == (
            ["PASS"] * 12 + ["FAIL"] + ["PASS"] * 10)
        assert lines[12].startswith("C13\tFAIL")


class TestSearch:
    def test_even_even_records(self, capsys):
        code, out = run_cli(
            ["search", "--case", "even-even", "--records"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 8
        for line in lines:
            case_tag, tuple_text, factored, tag = line.split("\t")
            assert case_tag == "even-even"
            assert tuple_text.startswith("[") and tuple_text.endswith("]")
            assert parse(factored)  # records round-trip through the parser
            assert tag.lstrip("~").startswith("C")

    def test_even_even_human_footer(self, capsys):
        code, out = run_cli(["search", "--case", "even-even"], capsys)
        assert code == 0
        assert "# case even-even: 35000 candidates" in out
        # the seconds, with four decimals, so that a case that takes a few
        # milliseconds does not read 0.00s
        footers = [line for line in out.splitlines()
                   if line.startswith(("# case", "# total wall time"))]
        assert len(footers) == 2
        for line in footers:
            match = re.fullmatch(r".* ([0-9]+\.[0-9]{4})s", line)
            assert match, line
            assert float(match.group(1)) >= 0

    def test_mismatch_names_the_polynomials(self, capsys, monkeypatch):
        # the search checks its records by their exponent tuples
        genuine = bup_search._expected_hit_tuples("even-even")
        unexpected = (4, 4, 2, 0, 0, 0, 0)  # C3 = x^4*(x+1)^4*M1^2, found
        missing = (2, 2, 0, 0, 0, 0, 0)  # x^2*(x+1)^2, never a record
        monkeypatch.setattr(bup_search, "_expected_hit_tuples",
                            lambda case: genuine - {unexpected} | {missing})
        code = main(["search", "--case", "even-even", "--records"])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert err == [
            "missing\tx^2*(x+1)^2",
            "unexpected\tx^4*(x+1)^4*M1^2",
            "error: search results differ from the expected catalog subset",
        ]


    def test_search_expands_only_the_join_hits(self, capsys, monkeypatch):
        # the records are checked against the catalog by their tuples, so
        # a search expands each hit of the join once, to confirm it, and
        # expands no catalog tuple
        hits = [ct for case in bup_search.CASES
                for ct in bup_search._join_case(case)[1]]
        expanded = []
        expand = CandidateTuple.expand

        def counting_expand(ct):
            expanded.append(ct)
            return expand(ct)

        monkeypatch.setattr(CandidateTuple, "expand", counting_expand)
        assert main(["search", "--case", "all", "--records"]) == 0
        capsys.readouterr()
        assert (sorted(ct.exponents() for ct in expanded)
                == sorted(ct.exponents() for ct in hits))


class TestMersenne:
    def test_degree_4(self, capsys):
        code, out = run_cli(["mersenne", "--max-degree", "4"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == [
            "(1,1)\tx^2+x+1",
            "(1,2)\tx^3+x+1",
            "(2,1)\tx^3+x^2+1",
            "(1,3)\tx^4+x^3+x^2+x+1",
            "(3,1)\tx^4+x^3+1",
        ]

    def test_degree_1_empty(self, capsys):
        code, out = run_cli(["mersenne", "--max-degree", "1"], capsys)
        assert code == 0
        assert out.strip() == ""

    def test_degree_3(self, capsys):
        code, out = run_cli(["mersenne", "--max-degree", "3"], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_degree_above_limit_rejected(self, capsys, monkeypatch):
        def unreachable(p):
            raise AssertionError("is_irreducible reached")

        monkeypatch.setattr(mersenne, "is_irreducible", unreachable)
        with pytest.raises(SystemExit) as exc:
            main(["mersenne", "--max-degree", "129"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "error: max_degree 129 exceeds the limit 128\n")


class TestScan:
    def test_degree_4(self, capsys):
        code, out = run_cli(["scan", "--max-degree", "4", "--records"], capsys)
        assert code == 0
        assert out.strip().splitlines() == ["1", "x*(x+1)", "x^2*(x+1)^2"]

    def test_human_mode_aliases_only_mersenne_lines(self, capsys):
        # no '# ' alias where aliasing would not change the factored form
        code, out = run_cli(["scan", "--max-degree", "9"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[:4] == ["1", "x*(x+1)", "x^2*(x+1)^2", "x^3*(x+1)^3"]
        assert "x^3*(x+1)^4*(x^2+x+1)\t# x^3*(x+1)^4*M1" in lines

    def test_records_mode_does_not_alias(self, capsys, monkeypatch):
        # records lines are printed as factored, so aliasing would be waste
        aliased = []
        monkeypatch.setattr(cli, "_aliased", aliased.append)
        code, out = run_cli(["scan", "--max-degree", "9", "--records"], capsys)
        assert code == 0
        assert "x^3*(x+1)^4*(x^2+x+1)" in out.splitlines()
        assert aliased == []

    def test_degree_2(self, capsys):
        code, out = run_cli(["scan", "--max-degree", "2", "--records"], capsys)
        assert code == 0
        assert out.strip().splitlines() == ["1", "x*(x+1)"]

    def test_degree_9_includes_c1(self, capsys):
        code, out = run_cli(["scan", "--max-degree", "9", "--records"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert "x^3*(x+1)^4*(x^2+x+1)" in lines
        assert "x^3*(x+1)^3" in lines


class TestProcess:
    def test_closed_stdout_exits_141_without_traceback(self):
        # the read end is closed before the spawn, so the child's first
        # write to standard output fails with EPIPE
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        try:
            result = subprocess.run(
                [sys.executable, "-m", "gf2bup", "mersenne", "--max-degree",
                 "16"], stdout=write_end, stderr=subprocess.PIPE, env=env,
                text=True, timeout=60)
        finally:
            os.close(write_end)
        assert result.returncode == 141
        assert "Traceback" not in result.stderr
        assert "BrokenPipeError" not in result.stderr

    def test_over_limit_power_exits_2_before_it_is_expanded(self):
        # expanding it to degree 4 * 262143 = 1,048,572 takes seconds: only
        # the parser's limit, applied before the expansion, keeps this fast
        env = dict(os.environ, PYTHONPATH=str(SRC))
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "gf2bup", "factor",
             "(x^4+x^3+x^2+x+1)^262143"],
            capture_output=True, env=env, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        assert result.returncode == 2
        assert "4096" in result.stderr
        assert elapsed < 1.0

    def test_import_leaves_out_dataclasses_and_typing(self):
        # -S: no site module, so nothing the machine's site preloads counts
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import gf2bup, gf2bup.cli; "
                "print(' '.join(sorted(m for m in sys.argv[2:] "
                "if m in sys.modules)))")
        result = subprocess.run(
            [sys.executable, "-S", "-c", code, str(SRC),
             "dataclasses", "inspect", "ast", "typing", "argparse", "gettext",
             "locale"],
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == ""
