"""Tests for the command-line front end: JSON reports, exit codes and
deterministic table output."""

import csv
import io
import itertools
import json
import math
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uvartest import cli, core
from uvartest.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_DEGENERATE,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    InputError,
    main,
)
from uvartest.simlab import RejectionTable

from oracles import reference_read_grouped_csv

WORKED_CSV = "treatment,value\na,0\na,2\nb,1\nb,3\n"

REPORT_KEYS = {
    "method",
    "statistic",
    "p_value",
    "reject",
    "alpha",
    "k",
    "n",
    "group_sizes",
    "kappa",
    "extras",
}


@pytest.fixture
def worked_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(WORKED_CSV)
    return str(path)


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(
            {
                "name": "tiny",
                "designs": [{"kind": "balanced", "k": 5, "m": 3}],
                "b": {"family": "normal"},
                "e": {"family": "normal", "variance": 1.0},
                "mu": 2.0,
                "sigma_b2_grid": [0.0, 0.5],
                "alpha": 0.05,
                "replicates": 120,
                "seed": {"master_seed": 11},
                "methods": ["U", "F"],
            }
        )
    )
    return str(path)


# A complete config that runs in moments; the wrong-shape cases below each
# change one field of it.
SMALL_CONFIG = {
    "designs": [{"kind": "balanced", "k": 3, "m": 2}],
    "b": {"family": "normal"},
    "e": {"family": "normal"},
    "sigma_b2_grid": [0.0],
    "replicates": 2,
}


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class _PerThreadStdout(io.TextIOBase):
    """Standard output that keeps each thread's writes apart."""

    def __init__(self):
        self._local = threading.local()

    def write(self, s: str) -> int:
        return self._local.buf.write(s)

    def call(self, argv) -> tuple[int, str]:
        """(exit status, output) of ``main(argv)`` in this thread."""
        self._local.buf = io.StringIO()
        return main(argv), self._local.buf.getvalue()


class TestCmdTest:
    def test_u_method_worked_example(self, worked_csv, capsys):
        code, out, _ = _run(capsys, "test", worked_csv, "--method", "u")
        assert code == EXIT_OK
        report = json.loads(out)
        assert set(report) == REPORT_KEYS
        assert report["method"] == "U"
        assert report["statistic"] == pytest.approx(-0.2887, abs=1e-4)
        assert report["p_value"] == pytest.approx(0.6136, abs=1e-4)
        assert report["reject"] is False
        assert report["alpha"] == 0.05
        assert report["k"] == 2
        assert report["n"] == 4
        assert report["group_sizes"] == [2, 2]
        assert report["kappa"] == 1.0

    def test_f_method_worked_example(self, worked_csv, capsys):
        code, out, _ = _run(capsys, "test", worked_csv, "--method", "f")
        assert code == EXIT_OK
        report = json.loads(out)
        assert set(report) == REPORT_KEYS
        assert report["statistic"] == pytest.approx(0.5, abs=1e-12)
        assert report["p_value"] == pytest.approx(0.5528, abs=1e-4)
        assert report["extras"]["df"] == [1.0, 2.0]

    def test_both_is_schema_stable(self, worked_csv, capsys):
        code, out, _ = _run(capsys, "test", worked_csv, "--method", "both")
        assert code == EXIT_OK
        reports = json.loads(out)
        assert [r["method"] for r in reports] == ["U", "F"]
        for report in reports:
            assert set(report) == REPORT_KEYS

    def test_both_makes_one_kernel_call(self, worked_csv, capsys, monkeypatch):
        """--method both builds the U and F reports from one kernel call,
        and they equal the reports of --method u and --method f."""
        calls = []
        kernel = core._statistics

        def counted(values, sizes):
            calls.append(sizes.shape)
            return kernel(values, sizes)

        monkeypatch.setattr(core, "_statistics", counted)
        code, out, _ = _run(capsys, "test", worked_csv, "--method", "both")
        assert code == EXIT_OK
        assert calls == [(1, 2)]
        singles = [json.loads(_run(capsys, "test", worked_csv, "--method", m)[1]) for m in "uf"]
        assert json.loads(out) == singles

    def test_perm_method(self, worked_csv, capsys):
        code, out, _ = _run(
            capsys, "test", worked_csv, "--method", "perm", "--n-perm", "99", "--seed", "5"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert set(report) == REPORT_KEYS
        assert report["method"] == "PERM"
        assert report["extras"]["n_perm"] == 99
        assert 0.0 < report["p_value"] <= 1.0

    def test_perm_balanced_golden(self, capsys):
        """A balanced design's permutation report, byte for byte as committed
        in tests/data: its 999 permutations go through the group-sum screen."""
        data = Path(__file__).parent / "data"
        argv = ["test", str(data / "perm-balanced.csv"), "--method", "perm", "--n-perm", "999"]
        code, out, _ = _run(capsys, *argv, "--seed", "7")
        assert code == EXIT_OK
        assert out.encode() == (data / "perm-balanced.json").read_bytes()

    def test_perm_unbalanced_golden(self, capsys):
        """An unbalanced design's permutation report (9 groups of 2 to 60
        values), byte for byte as committed in tests/data."""
        data = Path(__file__).parent / "data"
        argv = ["test", str(data / "perm-unbalanced.csv"), "--method", "perm", "--n-perm", "999"]
        code, out, _ = _run(capsys, *argv, "--seed", "7")
        assert code == EXIT_OK
        assert out.encode() == (data / "perm-unbalanced.json").read_bytes()

    @pytest.mark.parametrize("flags, env, named", [
        (["--seed", "-1"], None, "--seed"),
        (["--seed", str(2**64)], None, "--seed"),
        ([], "-1", "$UVARTEST_SEED"),
        (["--n-perm", "0"], None, "--n-perm"),
        (["--n-perm", "-5", "--seed", "3"], None, "--n-perm"),
        (["--alpha", "1.5"], None, "--alpha"),
        (["--alpha", "nan"], None, "--alpha"),
    ])
    def test_errors_name_the_flag(self, worked_csv, capsys, monkeypatch, flags, env, named):
        if env is not None:
            monkeypatch.setenv("UVARTEST_SEED", env)
        code, out, err = _run(capsys, "test", worked_csv, "--method", "perm", *flags)
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert err.startswith(f"error: {named} must be")

    def test_largest_seed_accepted(self, worked_csv, capsys):
        argv = ["test", worked_csv, "--method", "perm", "--n-perm", "9", "--seed", str(2**64 - 1)]
        assert _run(capsys, *argv)[0] == EXIT_OK

    def test_perm_seed_env_default(self, worked_csv, capsys, monkeypatch):
        monkeypatch.setenv("UVARTEST_SEED", "5")
        _, out_env, _ = _run(capsys, "test", worked_csv, "--method", "perm", "--n-perm", "99")
        monkeypatch.delenv("UVARTEST_SEED")
        _, out_flag, _ = _run(
            capsys, "test", worked_csv, "--method", "perm", "--n-perm", "99", "--seed", "5"
        )
        assert out_env == out_flag

    def test_alpha_flag(self, worked_csv, capsys):
        code, out, _ = _run(capsys, "test", worked_csv, "--method", "u", "--alpha", "0.7")
        report = json.loads(out)
        assert report["alpha"] == 0.7
        assert report["reject"] is True  # p ~ 0.61 <= 0.7

    def test_degenerate_exits_1(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("treatment,value\na,5\na,5\nb,5\nb,5\n")
        code, _, err = _run(capsys, "test", str(path), "--method", "u")
        assert code == EXIT_DEGENERATE
        assert "constant" in err

    def test_roundoff_constant_groups_exit_1(self, tmp_path, capsys):
        # [[0.3, 0.1 + 0.2], [1, 1]]: constant groups up to one ulp
        path = tmp_path / "roundoff.csv"
        path.write_text(f"treatment,value\na,0.3\na,{0.1 + 0.2!r}\nb,1\nb,1\n")
        for method in ("u", "f", "both", "perm"):
            code, out, err = _run(capsys, "test", str(path), "--method", method)
            assert code == EXIT_DEGENERATE, method
            assert out == ""
            assert "constant" in err

    def test_values_near_the_float_limit_exit_0(self, tmp_path, capsys):
        # squaring 1e200 overflows unless the data are scaled first
        path = tmp_path / "huge.csv"
        path.write_text("treatment,value\na,1e200\na,2e200\nb,3e200\nb,1e200\n")
        for method in ("u", "f", "both", "perm"):
            code, out, _ = _run(capsys, "test", str(path), "--method", method)
            assert code == EXIT_OK, method
            reports = json.loads(out)
            for report in reports if isinstance(reports, list) else [reports]:
                assert 0.0 <= report["p_value"] <= 1.0

    def test_report_is_strict_json(self, tmp_path, capsys):
        # the sums of squares of 1e200-sized data overflow: null, not Infinity
        path = tmp_path / "huge.csv"
        path.write_text("treatment,value\na,1e200\na,2e200\nb,3e200\nb,1e200\n")
        code, out, _ = _run(capsys, "test", str(path), "--method", "both")
        assert code == EXIT_OK

        def reject_constant(name):
            raise ValueError(f"non-finite number {name} in the report")

        u, f = json.loads(out, parse_constant=reject_constant)
        assert u["extras"]["w_n"] is None and u["extras"]["b_n"] is None
        assert u["extras"]["m_n"] == 12.0
        assert f["extras"]["sq_between"] is None and f["extras"]["sq_within"] is None

    def test_singleton_treatment_exits_2(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("treatment,value\na,1\na,2\nb,3\n")
        code, _, err = _run(capsys, "test", str(path))
        assert code == EXIT_INPUT_ERROR
        assert "at least 2" in err
        assert "'b'" in err

    def test_malformed_row_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("treatment,value\na,1\na,2\nb,not-a-number\nb,4\n")
        code, _, err = _run(capsys, "test", str(path))
        assert code == EXIT_INPUT_ERROR
        assert "line 4" in err

    def test_wrong_header_exits_2(self, tmp_path, capsys):
        path = tmp_path / "head.csv"
        path.write_text("group,y\na,1\na,2\nb,3\nb,4\n")
        code, _, err = _run(capsys, "test", str(path))
        assert code == EXIT_INPUT_ERROR
        assert "treatment,value" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = _run(capsys, "test", "/nonexistent/data.csv")
        assert code == EXIT_INPUT_ERROR

    def test_crlf_accepted(self, tmp_path, capsys):
        path = tmp_path / "crlf.csv"
        path.write_bytes(WORKED_CSV.replace("\n", "\r\n").encode())
        code, out, _ = _run(capsys, "test", str(path), "--method", "u")
        assert code == EXIT_OK
        assert json.loads(out)["n"] == 4

    def test_byte_order_mark_accepted(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        path.write_bytes(WORKED_CSV.encode("utf-8-sig"))
        code, out, _ = _run(capsys, "test", str(path), "--method", "u")
        assert code == EXIT_OK
        assert json.loads(out)["n"] == 4

    def test_trailing_blank_line_accepted(self, tmp_path, capsys):
        path = tmp_path / "blank.csv"
        path.write_text(WORKED_CSV + "\n")
        code, out, _ = _run(capsys, "test", str(path), "--method", "u")
        assert code == EXIT_OK
        assert json.loads(out)["n"] == 4

    def test_blank_line_keeps_later_line_numbers(self, tmp_path, capsys):
        path = tmp_path / "gap.csv"
        path.write_text("treatment,value\na,1\n\na,2\nb,x\nb,4\n")
        code, _, err = _run(capsys, "test", str(path))
        assert code == EXIT_INPUT_ERROR
        assert "line 5" in err

    @pytest.mark.parametrize("body, message", [
        # lines 2-3 and 4-5 are one record each
        ('"a\nb",1\n"a\nb",2\na,x\n', "line 6: value 'x' is not a number"),
        ('"a\r\nb",1\r\n"a\r\nb",2\r\na,x\r\n', "line 6: value 'x' is not a number"),
        # a record on lines 3-5 is named by its first line
        ('"a\nb",1\n"a\nb\nc",2,3\n', "line 4: expected 2 fields, got 3"),
    ], ids=["lf", "crlf", "record-on-three-lines"])
    def test_multi_line_records_keep_file_line_numbers(self, tmp_path, capsys, body, message):
        path = tmp_path / "spans.csv"
        path.write_bytes(f"treatment,value\n{body}".encode())
        code, _, err = _run(capsys, "test", str(path))
        assert code == EXIT_INPUT_ERROR
        assert f"{path}: {message}" in err

    def test_quoted_fields_accepted(self, tmp_path, capsys):
        path = tmp_path / "quoted.csv"
        path.write_text('"treatment","value"\n"a",0\na,"2"\n"b","1"\nb,3\n')
        code, out, _ = _run(capsys, "test", str(path), "--method", "u")
        assert code == EXIT_OK
        assert json.loads(out)["group_sizes"] == [2, 2]

    def test_cr_line_ends_accepted(self, tmp_path, capsys):
        path = tmp_path / "cr.csv"
        path.write_bytes(WORKED_CSV.replace("\n", "\r").encode())
        code, out, _ = _run(capsys, "test", str(path), "--method", "u")
        assert code == EXIT_OK
        assert json.loads(out)["n"] == 4

    def test_over_long_field_exits_2(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text("treatment,value\na,1\na,2\nb," + "1" * 140_000 + "\nb,3\n")
        code, _, err = _run(capsys, "test", str(path))
        assert code == EXIT_INPUT_ERROR
        assert f"{path}: line 4: field larger than field limit" in err

    def test_undecodable_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("treatment,value\na,1\na,2\nb,3\nb,4\nc\u00e9,5\n".encode("latin-1"))
        code, _, err = _run(capsys, "test", str(path))
        assert code == EXIT_INPUT_ERROR
        assert f"{path}: not UTF-8 text" in err

    def test_concurrent_calls_report_their_own_data(self, worked_csv, tmp_path, monkeypatch):
        other = tmp_path / "other.csv"
        other.write_text("treatment,value\na,1\na,5\nb,2\nb,9\nc,4\nc,4.5\n")
        files = [worked_csv, str(other)]
        paths = files * 2  # four threads on two cores
        stdout = _PerThreadStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        expected = {path: stdout.call(["test", path, "--method", "both"]) for path in files}
        assert json.loads(expected[worked_csv][1])[0]["n"] == 4
        assert json.loads(expected[str(other)][1])[0]["n"] == 6
        results = {i: [] for i in range(len(paths))}

        def client(i):
            for _ in range(25):
                results[i].append(stdout.call(["test", paths[i], "--method", "both"]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(i,)) for i in range(len(paths))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for i, path in enumerate(paths):
            assert results[i] == [expected[path]] * 25


def _read_both(path: str):
    """(reference outcome, block reader outcome) for one file: the groups'
    values as bytes, or the error message."""
    try:
        ref = ("groups", [np.array(v).tobytes() for _, v in reference_read_grouped_csv(path)])
    except InputError as exc:
        ref = ("error", str(exc))
    except csv.Error as exc:  # the block reader names the line as well
        ref = ("csv.Error", str(exc))
    try:
        new = ("groups", [g.tobytes() for g in cli._read_grouped_csv(path).groups])
    except InputError as exc:
        new = ("error", str(exc))
    return ref, new


def _assert_same_reading(path: str) -> None:
    ref, new = _read_both(path)
    if ref[0] == "csv.Error":
        assert new[0] == "error" and new[1].startswith(f"{path}: line ")
        assert new[1].endswith(f": {ref[1]}")
    else:
        assert new == ref


_LABELS = st.sampled_from(["a", "b", "c", " a", "\u00e9", "a\x85b", "g\u20281"])
_VALUES = st.one_of(
    st.sampled_from(["1", "-2.5", " 1.5 ", "1_0", "\u0661\u0662", "-0.0"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
_BAD_VALUES = st.sampled_from(["nan", "inf", "1e999", "x", "", " ", "0x1p3"])


_HEADERS = ["treatment,value"] * 8 + ['"treatment","value"', "treatment,value,x", ""]
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _csv_texts(draw) -> str:
    """Records, quoted or not, and blank lines, each with its own line end,
    and perhaps one line that the reader refuses."""
    quoted = draw(st.booleans())
    lines = [draw(st.sampled_from(_HEADERS))]
    for label, value in draw(st.lists(st.tuples(_LABELS, _VALUES), max_size=30)):
        plain = [f"{label},{value}"] * 6 + [""]
        quotes = [f'"{label}",{value}', f'{label},"{value}"',
                  '"a,b",1', '"a\nb",2', '"a""b",3', 'a,"4\r\n"']
        lines.append(draw(st.sampled_from(plain + quotes * quoted)))
    if draw(st.booleans()):
        label, value, bad = draw(_LABELS), draw(_VALUES), draw(_BAD_VALUES)
        refused = [f"{label},{bad}", f",{value}", " ", "\t", label, f"{label},{value},{value}"]
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(refused)))
    ends = draw(st.lists(_LINE_ENDS, min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""  # no line end after the last line
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + "".join(line + end for line, end in zip(lines, ends))


class TestCsvReader:
    """The block reader of ``uvartest test`` against the ``csv.reader`` loop
    in ``oracles``: the same groups in the same order, or the same error."""

    @settings(max_examples=400, deadline=None)
    @given(
        text=_csv_texts(),
        block=st.integers(1, 48),
        limit=st.sampled_from([131_072, 131_072, 12, 20]),  # csv.field_size_limit()
    )
    def test_matches_the_reference(self, tmp_path_factory, text, block, limit):
        path = tmp_path_factory.getbasetemp() / "hypothesis.csv"
        path.write_bytes(text.encode())
        old_block, old_limit = cli._BLOCK_CHARS, csv.field_size_limit(limit)
        cli._BLOCK_CHARS = block
        try:
            _assert_same_reading(str(path))
        finally:
            cli._BLOCK_CHARS = old_block
            csv.field_size_limit(old_limit)

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("tail", ["", "\n", "b,x\n", "b,3,4\n"])
    def test_line_end_on_the_block_cut(self, tmp_path, end, offset, tail):
        """A file just past one block whose first read ends one character
        before, on, or one after the "\\r" of a line end."""
        at = cli._BLOCK_CHARS - 1 + offset  # index, past the header, of that "\r"
        for pad in itertools.count():
            body = f"a,{'0' * pad}1{end}" + f"b,2.5{end}" * (at // 6 + 2)
            if body[at] == "\r":
                break
        path = tmp_path / "cut.csv"
        path.write_bytes(f"treatment,value{end}{body}{tail}a,7{end}".encode())
        _assert_same_reading(str(path))


class TestCsvFastPath:
    """Plain LF and CRLF files, as ``cli-test`` writes them, are read block
    by block without the ``csv`` module; a blank line sends its block and
    the rest of the file to ``_csv_records``."""

    @staticmethod
    def _lines(end: str) -> list[str]:
        # distinct lines, enough for three blocks
        rows = 3 * cli._BLOCK_CHARS // len("g0,1000000" + end) + 1
        return ["treatment,value"] + [f"g{i % 3},{10**6 + i}" for i in range(rows)]

    @staticmethod
    def _groups(path) -> list[bytes]:
        return [g.tobytes() for g in cli._read_grouped_csv(str(path)).groups]

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_plain_file_skips_the_csv_module(self, tmp_path, monkeypatch, end):
        path = tmp_path / "plain.csv"
        lines = self._lines(end)
        path.write_bytes("".join(line + end for line in lines).encode())

        def refuse(*args):
            raise AssertionError("_csv_records was called")

        monkeypatch.setattr(cli, "_csv_records", refuse)
        assert self._groups(path) == [np.array(v).tobytes() for _, v in reference_read_grouped_csv(path)]

    def test_blank_line_sends_its_block_to_the_csv_module(self, tmp_path, monkeypatch):
        lines = self._lines("\n")
        plain = tmp_path / "plain.csv"
        plain.write_text("".join(line + "\n" for line in lines))
        blank_at = len(lines) // 2  # a line of the second of three blocks
        gapped = tmp_path / "gapped.csv"
        gapped.write_text("".join(line + "\n" for line in lines[:blank_at] + [""] + lines[blank_at:]))
        calls = []
        real = cli._csv_records

        def spy(path, records, lineno):
            first = next(records)
            calls.append((lineno, first))
            return real(path, itertools.chain([first], records), lineno)

        monkeypatch.setattr(cli, "_csv_records", spy)
        assert self._groups(gapped) == self._groups(plain)
        [(lineno, first)] = calls
        # from the first line of the second block, numbered as in the file:
        # the first block is _BLOCK_CHARS characters and the rest of a line
        assert first == lines[lineno - 1] + "\n"
        first_block = sum(len(line) + 1 for line in lines[1:lineno - 1])
        assert cli._BLOCK_CHARS <= first_block < cli._BLOCK_CHARS + len(first)
        assert lineno <= blank_at + 1


class TestCmdSimulate:
    def test_writes_csv(self, tiny_config, tmp_path, capsys):
        out_file = tmp_path / "table.csv"
        code, _, err = _run(capsys, "simulate", tiny_config, "--out", str(out_file))
        assert code == EXIT_OK
        lines = out_file.read_text().splitlines()
        assert lines[0] == "scenario,k,design,sigma_b2,method,rate,se,replicates"
        assert len(lines) == 1 + 2 * 2  # grid x methods
        # one summary line per cell on stderr
        assert len(err.strip().splitlines()) == 4

    def test_csv_round_trips_into_table(self, tiny_config, tmp_path, capsys):
        out_file = tmp_path / "table.csv"
        _run(capsys, "simulate", tiny_config, "--out", str(out_file))
        with open(out_file) as fh:
            table = RejectionTable.from_csv(fh)
        buf = io.StringIO()
        table.to_csv(buf)
        assert buf.getvalue() == out_file.read_text()

    def test_reruns_are_byte_identical(self, tiny_config, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        _run(capsys, "simulate", tiny_config, "--out", str(a))
        _run(capsys, "simulate", tiny_config, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_worker_threads_do_not_change_output(self, tiny_config, tmp_path, capsys):
        a = tmp_path / "w1.csv"
        b = tmp_path / "w4.csv"
        _run(capsys, "simulate", tiny_config, "--out", str(a), "--workers", "1")
        _run(capsys, "simulate", tiny_config, "--out", str(b), "--workers", "4")
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_output(self, tiny_config, tmp_path, capsys):
        a = tmp_path / "s1.csv"
        b = tmp_path / "s2.csv"
        _run(capsys, "simulate", tiny_config, "--out", str(a), "--seed", "1")
        _run(capsys, "simulate", tiny_config, "--out", str(b), "--seed", "2")
        assert a.read_bytes() != b.read_bytes()

    def test_seed_env_matches_flag(self, tiny_config, tmp_path, capsys, monkeypatch):
        a = tmp_path / "env.csv"
        b = tmp_path / "flag.csv"
        monkeypatch.setenv("UVARTEST_SEED", "9")
        _run(capsys, "simulate", tiny_config, "--out", str(a))
        monkeypatch.delenv("UVARTEST_SEED")
        _run(capsys, "simulate", tiny_config, "--out", str(b), "--seed", "9")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flags, env, named", [
        (["--seed", "-1"], None, "--seed"),
        ([], "-1", "$UVARTEST_SEED"),
        ([], str(2**64), "$UVARTEST_SEED"),
        (["--replicates", "0"], None, "--replicates"),
    ])
    def test_errors_name_the_flag(self, tiny_config, capsys, monkeypatch, flags, env, named):
        if env is not None:
            monkeypatch.setenv("UVARTEST_SEED", env)
        code, out, err = _run(capsys, "simulate", tiny_config, *flags)
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert err.startswith(f"error: {named} must be")

    def test_replicates_override(self, tiny_config, tmp_path, capsys):
        out_file = tmp_path / "r.csv"
        _run(capsys, "simulate", tiny_config, "--out", str(out_file), "--replicates", "40")
        with open(out_file) as fh:
            table = RejectionTable.from_csv(fh)
        assert all(c.replicates == 40 for c in table.cells)

    def test_markdown_format(self, tiny_config, capsys):
        code, out, _ = _run(capsys, "simulate", tiny_config, "--format", "md",
                            "--replicates", "40")
        assert code == EXIT_OK
        assert out.startswith("| sigma_b2 |")

    def test_stdout_when_no_out(self, tiny_config, capsys):
        code, out, _ = _run(capsys, "simulate", tiny_config, "--replicates", "40")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "scenario,k,design,sigma_b2,method,rate,se,replicates"

    def test_unknown_preset_exits_2(self, capsys):
        code, _, err = _run(capsys, "simulate", "table9-made-up")
        assert code == EXIT_INPUT_ERROR
        assert "preset" in err

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"designs": []}')
        code, _, _ = _run(capsys, "simulate", str(path))
        assert code == EXIT_INPUT_ERROR

    @pytest.mark.parametrize(
        ("config", "entry"),
        [
            ({"seed": 1.5, "designs": [{"kind": "balanced", "k": 3, "m": 2}]}, "scenario"),
            ({"designs": ["balanced"]}, "designs[0]"),
            ([1, 2], "scenario"),
            ({**SMALL_CONFIG, "redraw_design_per_replicate": "false"}, "scenario"),
            ({**SMALL_CONFIG, "designs": [{"kind": "balanced", "k": 3.7, "m": 2}]}, "designs[0]"),
            ({**SMALL_CONFIG, "replicates": 2.5}, "scenario"),
            ({**SMALL_CONFIG, "replicates": True}, "scenario"),
            ({**SMALL_CONFIG, "methods": "U"}, "scenario"),
            ({**SMALL_CONFIG, "methods": ["U", 1]}, "scenario"),
            ({**SMALL_CONFIG, "methods": [None]}, "scenario"),
            ({**SMALL_CONFIG, "seed": 1.5}, "seed"),
            ({**SMALL_CONFIG, "b": {"family": "normal", "variance": "1"}}, "b"),
            # values of the right type that a constructor refuses
            ({**SMALL_CONFIG, "e": {"family": "cauchy"}}, "e"),
            ({**SMALL_CONFIG, "seed": -1}, "seed"),
            (
                {
                    **SMALL_CONFIG,
                    "designs": [
                        {"kind": "balanced", "k": 3, "m": 2},
                        {"kind": "balanced", "k": 1, "m": 2},
                    ],
                },
                "designs[1]",
            ),
            ({**SMALL_CONFIG, "e": {"family": "scaled_t", "df": 2}}, "e"),
            ({**SMALL_CONFIG, "alpha": 1.5}, "scenario"),
            ({**SMALL_CONFIG, "mu": math.inf}, "scenario"),
            ({**SMALL_CONFIG, "sigma_b2_grid": [0, 0.5, math.nan]}, "scenario"),
            ({**SMALL_CONFIG, "methods": ["U", "U", "PERM", "PERM"]}, "scenario"),
            # repeated cells would share their table keys
            ({**SMALL_CONFIG, "designs": [{"kind": "balanced", "k": 10, "m": 5}] * 2}, "scenario"),
            ({**SMALL_CONFIG, "sigma_b2_grid": [0, 0, 0.5]}, "scenario"),
            # integers beyond the float range
            ({**SMALL_CONFIG, "mu": 10**400}, "scenario"),
            ({**SMALL_CONFIG, "sigma_b2_grid": [0, 10**400]}, "scenario"),
            ({**SMALL_CONFIG, "e": {"family": "scaled_t", "df": 10**400}}, "e"),
        ],
        ids=[
            "float-seed",
            "design-not-an-object",
            "top-level-list",
            "redraw-as-string",
            "fractional-k",
            "fractional-replicates",
            "boolean-replicates",
            "methods-as-string",
            "methods-holding-a-number",
            "methods-holding-null",
            "fractional-bare-seed",
            "variance-as-string",
            "unknown-noise-family",
            "negative-seed",
            "one-group-in-second-design",
            "scaled-t-df-2",
            "alpha-above-1",
            "mu-infinite",
            "grid-nan",
            "methods-repeated",
            "design-repeated",
            "grid-repeated",
            "mu-beyond-float",
            "grid-beyond-float",
            "df-beyond-float",
        ],
    )
    def test_config_of_the_wrong_shape_exits_2(self, config, entry, tmp_path, capsys):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(config))
        code, _, err = _run(capsys, "simulate", str(path))
        assert code == EXIT_INPUT_ERROR
        assert err.startswith(f"error: invalid scenario config {path}: {entry}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        ("config", "entry", "key"),
        [
            ({**SMALL_CONFIG, "replicate": 50}, "scenario", "replicate"),
            ({**SMALL_CONFIG, "designs": [{"kind": "balanced", "k": 3, "m": 2, "lo": 2}]}, "designs[0]", "lo"),
            ({**SMALL_CONFIG, "b": {"family": "normal", "varaince": 4.0}}, "b", "varaince"),
            ({**SMALL_CONFIG, "e": {"family": "scaled_t", "df": 5, "Skew": None}}, "e", "Skew"),
            ({**SMALL_CONFIG, "seed": {"masterseed": 7}}, "seed", "masterseed"),
        ],
        ids=["scenario", "design", "b", "e", "seed"],
    )
    def test_unknown_key_is_named(self, config, entry, key, tmp_path, capsys):
        """A misspelled key would otherwise run a different study, with the
        default of the key it misspells."""
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(config))
        code, out, err = _run(capsys, "simulate", str(path))
        assert code == EXIT_INPUT_ERROR and out == ""
        assert err.startswith(f"error: invalid scenario config {path}: {entry}: unknown key {key!r}; ")

    @pytest.mark.parametrize(
        ("entry", "noise", "name"),
        [
            ("e", {"family": "scaled_t", "df": math.inf}, "df"),
            ("b", {"family": "skew_t_std", "df": math.nan, "skew": 1.0}, "df"),
            ("e", {"family": "skew_t_std", "df": 4.1, "skew": -math.inf}, "skew"),
        ],
        ids=["df-infinite", "df-nan", "skew-infinite"],
    )
    def test_non_finite_shape_is_named(self, entry, noise, name, tmp_path, capsys):
        """JSON's Infinity and NaN are refused where they are read, not
        reported later as non-finite observations."""
        path = tmp_path / "shape.json"
        path.write_text(json.dumps({**SMALL_CONFIG, entry: noise}))
        code, out, err = _run(capsys, "simulate", str(path))
        assert code == EXIT_INPUT_ERROR and out == ""
        assert err.startswith(f"error: invalid scenario config {path}: {entry}: ")
        assert f"needs a finite {name}" in err

    @pytest.mark.parametrize(
        ("text", "key"),
        [
            (json.dumps(SMALL_CONFIG)[:-1] + ', "replicates": 3}', "replicates"),
            (json.dumps(SMALL_CONFIG).replace('"k": 3', '"k": 3, "k": 4'), "k"),
        ],
        ids=["scenario", "design"],
    )
    def test_repeated_key_is_named(self, text, key, tmp_path, capsys):
        """The JSON reader would keep the last of the two values alone."""
        path = tmp_path / "twice.json"
        path.write_text(text)
        code, out, err = _run(capsys, "simulate", str(path))
        assert code == EXIT_INPUT_ERROR and out == ""
        assert err == f"error: invalid scenario config {path}: repeated key {key!r}\n"

    def test_missing_design_field_is_named(self, tmp_path, capsys):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({**SMALL_CONFIG, "designs": [{"kind": "balanced", "k": 3}]}))
        code, _, err = _run(capsys, "simulate", str(path))
        assert code == EXIT_INPUT_ERROR
        assert "designs[0]" in err and "'m'" in err

    def test_integral_float_is_an_integer(self, tmp_path, capsys):
        path = tmp_path / "k.json"
        path.write_text(
            json.dumps({**SMALL_CONFIG, "designs": [{"kind": "balanced", "k": 3.0, "m": 2}]})
        )
        code, out, _ = _run(capsys, "simulate", str(path))
        assert code == EXIT_OK
        assert RejectionTable.from_csv(io.StringIO(out)).cells[0].k == 3

    def test_unwritable_out_exits_2(self, tiny_config, tmp_path, capsys):
        target = tmp_path / "missing" / "table.csv"
        code, _, err = _run(capsys, "simulate", tiny_config, "--replicates", "2",
                            "--out", str(target))
        assert code == EXIT_INPUT_ERROR
        assert f"error: cannot write {target}: " in err
        assert "Traceback" not in err

    def test_unwritable_out_fails_before_the_run(self, tiny_config, tmp_path, capsys):
        target = tmp_path / "missing" / "table.csv"
        code, _, err = _run(capsys, "simulate", tiny_config, "--replicates", "2",
                            "--out", str(target))
        assert code == EXIT_INPUT_ERROR
        assert "rate=" not in err

    def test_zero_workers_leave_out_untouched(self, tiny_config, tmp_path, capsys):
        out_file = tmp_path / "keep.csv"
        out_file.write_text("kept\n")
        code, _, err = _run(capsys, "simulate", tiny_config, "--replicates", "5",
                            "--out", str(out_file), "--workers", "0")
        assert code == EXIT_INPUT_ERROR
        assert "--workers" in err
        assert out_file.read_text() == "kept\n"

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, _ = _run(capsys, "simulate", str(path))
        assert code == EXIT_INPUT_ERROR


class _ClosedStdout(io.StringIO):
    """Standard output whose reader has gone away."""

    def write(self, s):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedStdout:
    def test_exit_status_of_its_own(self, worked_csv, tiny_config, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _ClosedStdout())
        for argv in (["test", worked_csv, "--method", "both"], ["simulate", tiny_config]):
            assert main(argv) == EXIT_BROKEN_PIPE
            assert "Traceback" not in capsys.readouterr().err
        assert EXIT_BROKEN_PIPE not in (EXIT_OK, EXIT_DEGENERATE, EXIT_INPUT_ERROR)

    def test_closed_pipe_in_a_process(self, worked_csv):
        proc = subprocess.Popen(
            [sys.executable, "-m", "uvartest", "test", worked_csv, "--method", "both"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()  # the reader leaves before anything is written
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
        assert err == ""


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(WORKED_CSV)
        proc = subprocess.run(
            [sys.executable, "-m", "uvartest", "test", str(path), "--method", "u"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["method"] == "U"
