"""Command-line front end.

Two subcommands:

``uvartest test DATA.csv``
    Run the U-test, the F-test, or a permutation test on grouped
    observations given in long form (header ``treatment,value``, one
    observation per row) and print a JSON report, in strict JSON: a number
    beyond the float range (a sum of squares of data near 1e200) is ``null``.

``uvartest simulate PRESET-OR-CONFIG.json``
    Run a canned or user-configured Monte Carlo study and write the
    rejection table as CSV or Markdown.  A config is the JSON object that
    ``simlab.scenario_from_dict`` reads (README gives its schema); ``--out``
    is opened, and truncated, before the study runs.

Exit status: 0 on success, 1 when the requested test is degenerate
(all groups internally constant, up to rounding), 2 on input,
configuration or file errors, 141 (as for a process ended by SIGPIPE) when
standard output closes before the output is written (``| head -1``).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import os
import sys
from typing import Sequence

import numpy as np

from .core import Dataset, DegenerateWithinVariance, Design, TestResult, _test_results, kappa
from .simlab import (
    PRESET_NAMES,
    permutation_pvalue,
    preset,
    run_scenario,
    scenario_from_dict,
)
from .randgen import SeedSpec

SEED_ENV_VAR = "UVARTEST_SEED"

EXIT_OK = 0
EXIT_DEGENERATE = 1
EXIT_INPUT_ERROR = 2
EXIT_BROKEN_PIPE = 141


class InputError(Exception):
    """User-facing input problem; maps to exit status 2."""


# Characters read per block; a block ends at the last line end in it.  Its
# field strings take about ten bytes per character, so 2**15 keeps the
# reader's peak memory under 0.7 MB on a 12,000-row file (1.1 MB at 2**16).
_BLOCK_CHARS = 2**15


def _csv_records(path: str, lines, lineno: int) -> tuple[list[str], list[float]]:
    """Treatments and values of the records in ``lines``, tokenised by
    ``csv`` and checked one by one; ``lineno`` is the number of the first
    line.  Blank lines are skipped.  Raises InputError naming the first line
    of the first offending record: a quoted field may span lines."""
    labels, values = [], []
    reader = csv.reader(lines)
    start = lineno  # the first line of the next record
    try:
        for row in reader:
            line, start = start, lineno + reader.line_num
            if len(row) != 2:
                if not row:  # a blank line
                    continue
                raise InputError(f"{path}: line {line}: expected 2 fields, got {len(row)}")
            treatment, raw_value = row
            if not treatment:
                raise InputError(f"{path}: line {line}: empty treatment label")
            try:
                value = float(raw_value)
            except ValueError:
                raise InputError(
                    f"{path}: line {line}: value {raw_value!r} is not a number"
                ) from None
            if not math.isfinite(value):
                raise InputError(f"{path}: line {line}: value must be finite")
            labels.append(treatment)
            values.append(value)
    except csv.Error as exc:  # a field past csv.field_size_limit()
        raise InputError(f"{path}: line {start}: {exc}") from None
    return labels, values


def _split_block(block: str) -> tuple[list[str], np.ndarray] | None:
    """Treatments and values of ``block``, whole lines without a quote, or
    None when a line is blank or fails a check ``_csv_records`` makes."""
    text = block.replace("\r\n", "\n").replace("\r", "\n") if "\r" in block else block
    if text and not text.endswith("\n"):  # the file's last line
        text += "\n"
    # UTF-8 code units: neither "," nor "\n" is ever part of a longer character.
    code = np.frombuffer(text.encode(), np.uint8)
    newline = code == 10  # ord("\n")
    rows = int(np.count_nonzero(newline))
    # Two fields a line: the separators run ",", "\n", ",", "\n", ...
    separators = code[newline | (code == 44)]  # ord(",")
    if separators.size != 2 * rows or not (separators.reshape(rows, 2) == (44, 10)).all():
        return None
    fields = text.replace("\n", ",").split(",")
    labels, raw_values = fields[0:-1:2], fields[1::2]
    if "" in labels:
        return None
    try:
        values = np.fromiter(map(float, raw_values), float, rows)
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    return labels, values


def _data_records(path: str, fh):
    """(treatments, values) of the data records of ``fh``, past the header,
    one block at a time.  A block holding a quote, a NUL (which ``csv``
    refuses before Python 3.11), a blank line, a line that could pass the
    field size limit or a line that fails a check ends the blocks: the rest
    of the file goes through ``_csv_records``, which skips blank lines and
    reports the first bad record.  Blocks of plain lines hold one record a
    line, so the line number grows by their record count."""
    limit = csv.field_size_limit()
    lineno = 2
    # readline() ends each block at a line end: with newline="", it returns
    # the "\n" of a "\r\n" that the read cut in two.
    while block := fh.read(_BLOCK_CHARS) + fh.readline():
        if (len(block) > limit or '"' in block or "\0" in block
                or (split := _split_block(block)) is None):
            lines = itertools.chain(io.StringIO(block, newline=""), fh)
            yield _csv_records(path, lines, lineno)
            return
        yield split
        lineno += len(split[0])


def _read_grouped_csv(path: str) -> Dataset:
    """Parse a long-form CSV into a dataset, groups in first-appearance order.

    A byte-order mark and blank lines are skipped.  Raises InputError naming
    the offending line for malformed content: a file line, counting blank
    lines, and the first line of a record whose quoted field spans lines.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    groups: dict[str, int] = {}  # treatment -> code, in first-appearance order
    codes, values = [], []
    with fh:
        try:
            try:
                header = next(csv.reader(fh), None)
            except csv.Error as exc:
                raise InputError(f"{path}: line 1: {exc}") from None
            if header != ["treatment", "value"]:
                raise InputError(
                    f"{path}: expected header 'treatment,value', got {header!r}"
                )
            for labels, block_values in _data_records(path, fh):
                for treatment in dict.fromkeys(labels):
                    groups.setdefault(treatment, len(groups))
                codes.append(np.fromiter(map(groups.__getitem__, labels), np.intp, len(labels)))
                values.append(np.asarray(block_values, dtype=float))
        except UnicodeDecodeError as exc:
            bad = exc.object[exc.start:exc.end]
            raise InputError(f"{path}: not UTF-8 text ({exc.reason}: {bad!r})") from None
    if not groups:
        raise InputError(f"{path}: no observations found")
    code = np.concatenate(codes)
    sizes = np.bincount(code, minlength=len(groups))
    for treatment, size in zip(groups, sizes.tolist()):
        if size < 2:
            raise InputError(
                f"{path}: treatment {treatment!r} has {size} observation(s); "
                "every treatment needs at least 2"
            )
    if len(groups) < 2:
        raise InputError(f"{path}: need at least 2 treatments, found {len(groups)}")
    pooled = np.concatenate(values)[np.argsort(code, kind="stable")]
    return Dataset.from_values(pooled, Design(tuple(sizes.tolist())))


def _report(result: TestResult, dataset: Dataset) -> dict:
    extras = {key: v if math.isfinite(v) else None for key, v in result.extras.items()}
    if result.df is not None:
        extras["df"] = list(result.df)
    return {
        "method": result.method,
        "statistic": result.statistic,
        "p_value": result.p_value,
        "reject": result.reject,
        "alpha": result.alpha,
        "k": dataset.design.k,
        "n": dataset.design.n,
        "group_sizes": list(dataset.design.group_sizes),
        "kappa": kappa(dataset.design),
        "extras": extras,
    }


def _seed(explicit: int | None) -> int | None:
    """The explicit seed, else ``$UVARTEST_SEED``, else None.  A seed outside
    0..2**64 - 1 raises InputError naming where it came from."""
    env = os.environ.get(SEED_ENV_VAR)
    if explicit is not None or env is None:
        seed, source = explicit, "--seed"
    else:
        try:
            seed, source = int(env), f"${SEED_ENV_VAR}"
        except ValueError:
            raise InputError(f"{SEED_ENV_VAR}={env!r} is not an integer") from None
    if seed is not None and not 0 <= seed < 2**64:
        raise InputError(f"{source} must be an integer from 0 to 2**64 - 1, got {seed}")
    return seed


def _cmd_test(args: argparse.Namespace) -> int:
    if not 0.0 < args.alpha < 1.0:
        raise InputError("--alpha must be in (0, 1)")
    if args.method == "perm":
        if args.n_perm < 1:
            raise InputError("--n-perm must be at least 1")
        seed = SeedSpec(_seed(args.seed) or 0)
    dataset = _read_grouped_csv(args.data)
    try:
        if args.method == "perm":
            results = [permutation_pvalue(dataset, args.n_perm, seed, alpha=args.alpha)]
        else:
            methods = {"u": "U", "f": "F", "both": "UF"}[args.method]
            results = _test_results(dataset, args.alpha, methods)
    except DegenerateWithinVariance as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    reports = [_report(result, dataset) for result in results]
    payload = reports[0] if len(reports) == 1 else reports
    print(json.dumps(payload, indent=2, allow_nan=False))
    return EXIT_OK


def _object(pairs: list) -> dict:
    """A JSON object from its (key, value) pairs, or a ValueError naming a
    key that it repeats: the JSON reader would keep the last value alone."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _load_scenario(source: str):
    if source in PRESET_NAMES:
        return preset(source)
    if os.path.exists(source):
        try:
            with open(source, encoding="utf-8") as fh:
                config = json.load(fh, object_pairs_hook=_object)
            return scenario_from_dict(config)
        except ValueError as exc:  # a JSONDecodeError is a ValueError
            raise InputError(f"invalid scenario config {source}: {exc}") from exc
    raise InputError(
        f"{source!r} is neither a preset ({', '.join(PRESET_NAMES)}) nor a config file"
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = _load_scenario(args.scenario)
    if (seed := _seed(args.seed)) is not None:
        spec = dataclasses.replace(spec, seed=SeedSpec(seed, spec.seed.stream_id))
    if args.replicates is not None:
        if args.replicates < 1:
            raise InputError("--replicates must be at least 1")
        spec = dataclasses.replace(spec, replicates=args.replicates)
    if args.workers < 1:
        raise InputError("--workers must be at least 1")
    # Opened (and truncated) before the run, as by a shell redirect.
    try:
        out = None if args.out is None else open(args.out, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise InputError(f"cannot write {args.out}: {exc}") from exc
    with out or contextlib.nullcontext(sys.stdout) as fh:
        table = run_scenario(spec, workers=args.workers)
        for cell in table.cells:
            print(
                f"{cell.scenario} k={cell.k} design={cell.design} "
                f"sigma_b2={cell.sigma_b2:g} {cell.method}: "
                f"rate={cell.rate:.4f} se={cell.se:.4f} n={cell.replicates}",
                file=sys.stderr,
            )
        fh.write(table.to_csv_string() if args.format == "csv" else table.to_markdown())
    return EXIT_OK


# Built once: parsing only reads the parser, so concurrent calls of main
# can share it.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uvartest",
        description="Tests for the between-treatment variance component in one-way random effects data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    test = sub.add_parser("test", help="run a test on a long-form CSV of grouped observations")
    test.add_argument("data", help="CSV file with header 'treatment,value'")
    test.add_argument("--method", choices=("u", "f", "both", "perm"), default="both")
    test.add_argument("--alpha", type=float, default=0.05, help="significance level (default 0.05)")
    test.add_argument("--n-perm", type=int, default=999, dest="n_perm",
                      help="permutation count for --method perm (default 999)")
    test.add_argument("--seed", type=int, default=None,
                      help=f"permutation seed (default: ${SEED_ENV_VAR} or 0)")

    sim = sub.add_parser("simulate", help="run a Monte Carlo study and write the rejection table")
    sim.add_argument("scenario", help="preset name or path to a JSON scenario config")
    sim.add_argument("--replicates", type=int, default=None, help="override the replicate count")
    sim.add_argument("--seed", type=int, default=None,
                     help=f"override the master seed (default: ${SEED_ENV_VAR} or the scenario's)")
    sim.add_argument("--out", default=None, help="output file (default: stdout)")
    sim.add_argument("--format", choices=("csv", "md"), default="csv")
    sim.add_argument("--workers", type=int, default=1, help="at least 1; changes nothing")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = _cmd_test(args) if args.command == "test" else _cmd_simulate(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        if sys.stdout is sys.__stdout__:  # keep the interpreter's last flush from failing again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (InputError, OSError, ValueError) as exc:  # BrokenPipeError is caught above
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
