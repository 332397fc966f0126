"""CLI behavior: golden outputs, exit codes, config resolution, reproducibility."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from quasijoint import (
    MarkerConfig,
    cli,
    harmonic_estimates,
    operational_joint_discrete,
    operational_joint_phase,
    sample_discrete,
    sample_phase,
)
from quasijoint.cli import MAX_PHASE_SHOTS, MAX_PHI_POINTS, MAX_SCAN_CELLS, build_parser, main
from quasijoint import _table
from quasijoint._table import _CSV_BLOCK, _LAYOUT_FROM, SIGNS, Coded, Table
from quasijoint.sampling import _SAMPLE_CHUNK, _phase_blocks
from quasijoint.states import PhaseDensity, evaluate_phase_density, phase_grid
from cli_cases import CASES, LARGE_CASES, REPORT_CASES, TILTED_STATE
from helpers import assert_same_text

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenFiles:
    @pytest.mark.parametrize("case", CASES + REPORT_CASES, ids=lambda c: c["name"])
    def test_byte_identical(self, case, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, case["argv"])
        assert code == 0, err
        assert out == (GOLDEN / case["stdout"]).read_text()
        for produced, stored in case["files"].items():
            assert (tmp_path / produced).read_text() == (GOLDEN / stored).read_text()

    def test_every_case_replays_byte_identical_in_one_warm_process(self, capsys, tmp_path, monkeypatch):
        # a phase report after the first at its grid size and nesting level reuses the phi text kept for them
        monkeypatch.chdir(tmp_path)
        cli._phase_axis.cache_clear()
        cases = CASES + REPORT_CASES
        for case in cases + cases[::-1]:
            code, out, err = run_cli(capsys, case["argv"])
            assert code == 0, err
            assert out == (GOLDEN / case["stdout"]).read_text(), case["name"]
            for produced, stored in case["files"].items():
                assert (tmp_path / produced).read_bytes() == (GOLDEN / stored).read_bytes(), case["name"]

    def test_large_outputs_match_their_pinned_digests(self, capsys, tmp_path, monkeypatch):
        # the sha256sum lines of tests/large_outputs.sha256, in LARGE_CASES order, as scripts/make_golden.py writes them
        monkeypatch.chdir(tmp_path)
        lines = (GOLDEN.parent / "large_outputs.sha256").read_text().splitlines()
        produced = []
        for case in LARGE_CASES:
            code, out, err = run_cli(capsys, case["argv"])
            assert code == 0, err
            if case["stdout"] is not None:
                produced.append((case["stdout"], out.encode("utf-8")))
            produced += [(stored, (tmp_path / path).read_bytes()) for path, stored in case["files"].items()]
        assert [f"{hashlib.sha256(data).hexdigest()}  {name}" for name, data in produced] == lines

    @pytest.mark.parametrize("name", ["exact_basis", "scan_csv"])
    def test_text_only_stdout_gets_the_same_text(self, name):
        case = next(c for c in CASES + REPORT_CASES if c["name"] == name)
        out = io.StringIO()  # no binary buffer: the blocks are decoded into it
        with contextlib.redirect_stdout(out):
            assert main(case["argv"]) == 0
        assert out.getvalue() == (GOLDEN / case["stdout"]).read_text()

    def test_json_outputs_parse_with_full_precision(self, capsys):
        code, out, _ = run_cli(
            capsys, ["invert", "--state", TILTED_STATE, "--theta", "0", "--vartheta", "0.4"]
        )
        assert code == 0
        report = json.loads(out)
        values = {(cell["x"], cell["z"]): cell["value"] for cell in report["result"]["joint"]["values"]}
        assert values[(-1, -1)] == pytest.approx((1 - math.sqrt(2)) / 4, abs=1e-12)
        assert report["result"]["negativity"]["min_value"] == values[(-1, -1)]


class TestParserReuse:
    """``main`` reuses one parser per process; no call leaves a trace on the next."""

    def test_interleaved_reports_stay_byte_identical(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "run.cfg"
        config.write_text(f"state={TILTED_STATE}\ntheta=0.6\nvartheta=1.1\n")
        golden_config = (GOLDEN / "operational_discrete.json").read_text()
        interludes = itertools.cycle([  # argv, exit code, stdout check
            (["invert", "--state", "1,0,0,0", "--theta", "0.3", "--bogus"], 2, lambda out: out == ""),
            (["sample", "--help"], 0, lambda out: out.startswith("usage: quasijoint sample")),
            (["operational", "--config", str(config)], 0, lambda out: out == golden_config),
        ])
        cases = CASES + REPORT_CASES
        for case in [*cases, *reversed(cases)]:
            code, out, err = run_cli(capsys, case["argv"])
            assert code == 0, err
            assert out == (GOLDEN / case["stdout"]).read_text(), case["name"]
            for produced, stored in case["files"].items():
                assert (tmp_path / produced).read_text() == (GOLDEN / stored).read_text(), case["name"]
            argv, expected_code, check = next(interludes)
            code, out, _ = run_cli(capsys, argv)
            assert code == expected_code, argv
            assert check(out), argv
        assert cli._parser.cache_info().currsize == 1

    def test_help_follows_the_terminal_width_of_each_call(self, capsys, monkeypatch):
        for columns in ("60", "140", "60"):
            monkeypatch.setenv("COLUMNS", columns)
            code, out, _ = run_cli(capsys, ["scan", "--help"])
            assert code == 0
            fresh = next(
                a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
            ).choices["scan"]
            assert out == fresh.format_help()
        assert max(map(len, out.splitlines())) <= 60


_MARKED = ["--state", TILTED_STATE, "--theta", "0.6", "--vartheta", "1.1"]
#: argv beyond the goldens'.  The top-level parser's own paths: no command, help, an unknown or abbreviated
#: command word, a flag before the command.  A command parser's: help, an unknown flag, a bad choice, a
#: missing value, trailing words, an abbreviated flag, and words after "--"
_EDGE_ARGV = {
    "empty": [],
    "help": ["-h"],
    "unknown command": ["inverse"],
    "abbreviated command": ["inv", *_MARKED],
    "flag before the command": ["--state", TILTED_STATE, "invert"],
    "unknown top-level flag": ["--bogus", "3"],
    "command help": ["invert", "-h"],
    "unknown flag": ["invert", "--bogus", "3"],
    "bad choice": ["invert", *_MARKED, "--mode", "sideways"],
    "missing value": ["invert", "--state", TILTED_STATE, "--theta"],
    "trailing words": ["invert", *_MARKED, "trailing", "words"],
    "abbreviated flag": ["invert", "--state", TILTED_STATE, "--th", "0.6", "--vartheta", "1.1"],
    "words after --": ["invert", *_MARKED, "--", "x"],
}


class TestParse:
    """``main`` parses an argv that starts with a command word once, exactly as ``_parser().parse_args`` parses it."""

    @pytest.mark.parametrize(
        "argv",
        [case["argv"] for case in CASES + REPORT_CASES] + list(_EDGE_ARGV.values()),
        ids=[case["name"] for case in CASES + REPORT_CASES] + list(_EDGE_ARGV),
    )
    def test_same_namespace_and_report_as_the_top_level_parser(self, argv, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        parse_args = cli._parser().parse_args

        def parsed(parse):
            try:
                return parse(argv), capsys.readouterr()
            except SystemExit as exc:
                return exc.code, capsys.readouterr()

        assert parsed(cli._parse) == parsed(parse_args)
        runs = []
        for parse in (cli._parse, parse_args):
            monkeypatch.setattr(cli, "_parse", parse)
            runs.append((run_cli(capsys, argv), {path.name: path.read_bytes() for path in tmp_path.iterdir()}))
        assert runs[0] == runs[1]

    def test_argv_none_reads_sys_argv(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["quasijoint", "invert", *_MARKED])
        assert cli._parse(None) == cli._parser().parse_args(None)


#: doubles that _format_e16 writes by its per-element fallback, or that sit at its edges
_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 9.999999999999999e-07, 1e-6,
    1.0000000000000002e-06, 99999999999999984.0, 1e17, -1e17, 1e300, 1.7976931348623157e308,
    -1e-100, -1e300, -5e-324,  # 24 characters, rendered by Python
]


@st.composite
def _float_arrays(draw):
    element = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),  # subnormals and zeros
        st.floats(-1e-6, 1e-6, exclude_min=True, exclude_max=True),
        st.floats(1e17, 1e300) | st.floats(-1e300, -1e17),
        st.sampled_from(_EDGE_FLOATS),
    )
    return np.array(draw(st.lists(element, max_size=40)), dtype=np.float64)


#: array lengths at the edges of the row-by-row path and of a layout block
_GRID_LENGTHS = st.sampled_from([0, 1, _LAYOUT_FROM - 1, _LAYOUT_FROM, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1])


@st.composite
def _grids(draw):
    """1 to 4 named arrays of edge or random lengths, their values drawn from ``_float_arrays``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    arrays = []
    for _ in range(draw(st.integers(1, 4), label="arrays")):
        pool = np.append(draw(_float_arrays()), 0.5)
        arrays.append(pool[rng.integers(pool.size, size=draw(_GRID_LENGTHS | st.integers(0, 300)))])
    return Table([f"a{i}" for i in range(len(arrays))], arrays)


def _as_lists(grid: Table) -> dict:
    return {name: values.tolist() for name, values in zip(grid.names, grid.columns)}


class TestJsonFloatArrays:
    """A table's float64 columns render as a JSON object, in one formatter pass, exactly as a dict of their ``tolist()``."""

    @given(_float_arrays(), st.integers(0, 3))
    def test_matches_list_rendering(self, values, level):
        grid = Table(["v"], [values])
        assert "".join(grid.json_object(level)) == cli._render_json_value(_as_lists(grid), level)

    @settings(max_examples=40, deadline=None)
    @given(_grids(), st.integers(0, 3))
    def test_grid_matches_its_arrays_rendered_one_by_one(self, grid, level):
        assert "".join(grid.json_object(level)) == cli._render_json_value(_as_lists(grid), level)

    def test_values_longer_than_their_slot_next_to_the_cuts(self):
        # rows formatted by Python, on either side of every array boundary and block edge: 24 characters
        # with a sign slot, 23 without one (all >= +0.0, so the layout has no NUL slot at all)
        for n, sign in itertools.product((_LAYOUT_FROM // 3, _LAYOUT_FROM, _CSV_BLOCK - 1, _CSV_BLOCK + 1), (-1.0, 1.0)):
            arrays = [np.full(n, 0.25) for _ in range(3)]
            for values in arrays:
                values[[0, -1]] = sign * 1e-100
            arrays[1][n // 2] = sign * 5e-324
            grid = Table(["phi", "plus", "minus"], arrays)
            assert "".join(grid.json_object(2)) == cli._render_json_value(_as_lists(grid), 2)

    def test_empty_array(self):
        for level in range(4):
            for arrays in ([[]], [[], [0.5] * 70, []], [[], []]):
                grid = Table([f"a{i}" for i in range(len(arrays))], [np.array(a, dtype=np.float64) for a in arrays])
                assert "".join(grid.json_object(level)) == cli._render_json_value(_as_lists(grid), level)

    def test_only_one_dimensional_float64_arrays(self):
        # np.int64 is no Python int: library values reach reports as Python scalars
        for values in (np.arange(3), np.zeros((2, 2)), np.zeros(3, np.float32), np.int64(3)):
            with pytest.raises(TypeError):
                cli._render_json_value(values, 0)
            for arrays in ([values], [np.zeros(3), values, np.zeros(3)]):
                with pytest.raises(TypeError):
                    "".join(Table([f"a{i}" for i in range(len(arrays))], arrays).json_object(1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_element_raises_the_list_message(self, bad):
        for values in ([bad], [0.5, -1e-9, bad, 2.0], [1.0, bad, -bad, math.nan], [0.25] * 100 + [bad, math.nan]):
            with pytest.raises(ValueError) as from_list:
                cli._render_json_value(values, 1)
            with pytest.raises(ValueError) as from_array:
                "".join(Table(["v"], [np.array(values)]).json_object(1))
            assert str(from_array.value) == str(from_list.value)
            assert str(from_array.value) == f"refusing to print non-finite value {bad!r}"

    @pytest.mark.parametrize("n", [3, 300, _CSV_BLOCK + 5])
    def test_first_non_finite_value_in_document_order_is_reported(self, n):
        # row by row, laid out in one block, and across blocks
        for first, second in ((math.inf, math.nan), (math.nan, -math.inf)):
            phi, plus, minus = np.linspace(0.0, 1.0, n), np.full(n, 0.5), np.full(n, 0.5)
            plus[-1], minus[0] = first, second
            grid = Table(["phi", "plus", "minus"], [phi, plus, minus])
            with pytest.raises(ValueError) as from_grid:
                "".join(grid.json_object(1))
            with pytest.raises(ValueError) as from_lists:
                cli._render_json_value(_as_lists(grid), 1)
            assert str(from_grid.value) == str(from_lists.value) == f"refusing to print non-finite value {first!r}"

    @pytest.mark.parametrize(
        "argv, sizes",
        [
            (["invert", "--state", "0.6,0,0.64,0.48", "--theta", "0.7", "--vartheta", "1.1", "--mode", "phase"], ([256, 512], [512])),
            (["exact", "--state", "0.6,0,0.64,0.48", "--phi-points", "256"], ([256, 256], [256])),
            (["invert", "--state", "0.6,0,0.64,0.48", "--theta", "0.7", "--vartheta", "1.1"], ([], [])),
        ],
        ids=["invert_phase", "exact", "invert_discrete"],
    )
    def test_a_report_formats_its_densities_in_one_kernel_call_after_phi_once(self, argv, sizes, capsys, monkeypatch):
        # a discrete report's tables are short, so they are formatted row by row; the first phase report
        # at a grid size formats phi in a call of its own, then its densities; a second one its densities only
        cli._phase_axis.cache_clear()
        kernel = _table._format_e16
        for expected in sizes:
            calls = []
            monkeypatch.setattr(_table, "_format_e16", lambda values, out: calls.append(values.size) or kernel(values, out))
            assert run_cli(capsys, argv)[0] == 0
            assert calls == expected

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([1, 2, 255, 256, 4096]),
        st.lists(st.tuples(*[st.floats(-1e300, 1e300)] * 3), min_size=1, max_size=3),
        st.integers(0, 3),
    )
    def test_grid_values_are_evaluate_phase_density_bit_for_bit(self, points, rows, level):
        densities = {f"d{i}": PhaseDensity(*row) for i, row in enumerate(rows)}
        grid, phi = cli._PhaseGrid(points, tuple(densities), np.array(rows)), phase_grid(points)
        cli._phase_axis.cache_clear()
        for _ in range(2):  # from an empty cache, then after the kept phi text
            rendered = json.loads(cli._render_json_value(grid, level))  # %.16e reads back exactly
            assert list(rendered) == ["phi", *densities]
            assert np.array_equal(np.array(rendered["phi"]).view(np.uint64), phi.view(np.uint64))
            for name, density in densities.items():
                expected = evaluate_phase_density(density, phi)
                assert np.array_equal(np.array(rendered[name]).view(np.uint64), expected.view(np.uint64))

    def test_a_grid_renders_at_each_level_as_from_an_empty_cache(self):
        # the phi text is kept per grid size and nesting level: a size-only key would indent level 2 as level 1
        grid = cli._PhaseGrid(300, ("plus", "minus"), np.array([(0.1, -0.05, 0.02), (0.06, 0.01, -0.03)]))
        cold = {}
        for level in (1, 2):
            cli._phase_axis.cache_clear()
            cold[level] = cli._render_json_value(grid, level)
        cli._phase_axis.cache_clear()
        for level in (1, 2, 1, 2):
            assert cli._render_json_value(grid, level) == cold[level]

    def test_the_kept_axis_is_read_only(self):
        # an immutable entry: rendering grids at its size and level changes neither its arrays nor its text
        cli._phase_axis.cache_clear()
        entry = cli._phase_axis(5, 2)
        assert isinstance(entry, tuple)
        *arrays, text = entry
        phi = phase_grid(5)
        assert text + "\n    }" == cli._render_json_value({"phi": phi.tolist()}, 2)
        assert np.array_equal(arrays[0], np.cos(phi)) and np.array_equal(arrays[1], np.sin(phi))
        for values in arrays:
            with pytest.raises(ValueError):
                values[0] = 1.0
        kept = [values.copy() for values in arrays]
        for row in ((0.1, 0.0, 0.0), (0.2, -0.1, 0.05)):
            cli._render_json_value(cli._PhaseGrid(5, ("values",), np.array([row])), 2)
            assert cli._phase_axis(5, 2) is entry
            assert entry[2] == text and all(map(np.array_equal, entry[:2], kept))

    @pytest.mark.parametrize("command", ["invert", "operational", "exact"])
    def test_a_csv_report_never_evaluates_its_phase_grid(self, command, capsys):
        # the grid is a result node that only the JSON writer evaluates; at 100,000 points its text is about 3 MB
        marked = ["--theta", "0.7", "--vartheta", "1.1", "--mode", "phase"] if command != "exact" else []
        argv = [command, "--state", "0.6,0,0.64,0.48", *marked, "--format", "csv", "--phi-points", str(MAX_PHI_POINTS)]
        cli._phase_axis.cache_clear()
        code, _, err = run_cli(capsys, argv)
        assert code == 0, err
        assert cli._phase_axis.cache_info().currsize == 0


def _csv_field(value) -> str:
    return "" if value is None else f"{value:.16e}" if isinstance(value, float) else str(value)


#: the float columns a table test draws: as drawn, all >= +0.0, all with the sign bit set, or
#: >= +0.0 but for -0.0, whose sign bit alone calls for a sign slot
_SIGNS = ("any", "nonnegative", "negative", "mixed")


def _signed(values: np.ndarray, sign: str) -> np.ndarray:
    if sign == "mixed":
        return np.append(np.abs(values), -0.0)
    return {"any": values, "nonnegative": np.abs(values), "negative": -np.abs(values)}[sign]


def _text_or_error(render) -> str:
    """What ``render`` returns, or the message of the ``ValueError`` it raises: inf has no JSON text."""
    try:
        return render()
    except ValueError as error:
        return f"ValueError: {error}"


class TestTables:
    """Every template of a ``Table`` renders exactly as its rows formatted field by field."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_csv_and_json_records_match_per_field_rendering(self, data):
        n = data.draw(st.one_of(st.integers(0, 2 * _LAYOUT_FROM), st.integers(0, 3 * _CSV_BLOCK + 1)), label="rows")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        kinds = data.draw(
            st.lists(st.sampled_from(["float", "int", "str", "coded float", "cycling", "cycling float"]), min_size=1, max_size=5)
        )
        kinds[0] = "float" if kinds[0].startswith("cycling") else kinds[0]  # the first column sets the row count
        # a tight layout has no NUL slot: float columns of one sign with nothing missing
        tight = data.draw(st.booleans(), label="tight")
        if tight:
            kinds = [kind if kind.endswith("float") else "float" for kind in kinds]
        # UTF-8 has no surrogates, and CSV text holds no NUL (both refused, see below)
        texts = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"), max_size=8)
        columns, cells = [], []
        for kind in kinds:
            if kind.endswith("float"):  # signs that set the sign slot, and texts too long for their slot
                sign = data.draw(st.sampled_from(_SIGNS[1:3] if tight else _SIGNS), label="sign")
                longer = data.draw(st.lists(st.sampled_from([1e-100, -1e-100, math.inf, -math.inf]), max_size=2))
                pool = _signed(np.concatenate([data.draw(_float_arrays()), data.draw(_float_arrays()), longer, [0.5]]), sign)
            if kind == "float":  # missing where NaN
                pool = pool if tight else np.append(pool, math.nan)
                columns.append(pool[rng.integers(pool.size, size=n)])
                cells.append([None if math.isnan(v) else v for v in columns[-1].tolist()])
                continue
            if kind.endswith(" float"):  # a float64 array, formatted by the kernel at once
                values, plain = pool, pool.tolist()
            else:
                values = plain = data.draw(
                    st.lists(texts if kind == "str" else st.integers(-(2**70), 2**70), min_size=1, max_size=5)
                )
            if kind.startswith("cycling"):
                repeat = data.draw(st.integers(1, 5000))
                columns.append(Coded(values, repeat=repeat))
                cells.append([plain[r // repeat % len(plain)] for r in range(n)])
            else:  # negative codes count from the end
                codes = rng.integers(-len(plain), len(plain), size=n)
                columns.append(Coded(values, codes))
                cells.append([plain[c] for c in codes.tolist()])
        names = [f"c{i}" for i in range(len(kinds))]
        rows = list(zip(*cells)) if n else []
        table = Table(names, columns)
        expected = "".join(",".join(map(_csv_field, row)) + "\n" for row in rows)
        assert_same_text(b"".join(table.csv_blocks()).decode("utf-8"), ",".join(names) + "\n" + expected)
        level = data.draw(st.integers(0, 3), label="level")
        records = [dict(zip(names, row)) for row in rows]
        assert_same_text(
            _text_or_error(lambda: "".join(table.json_records(level))),
            _text_or_error(lambda: cli._render_json_value(records, level)),
        )

    @pytest.mark.parametrize("rows", [5, _LAYOUT_FROM + 1, _CSV_BLOCK + 3])
    def test_negative_and_boolean_codes_index_as_in_python(self, rows):
        # row by row, laid out in one block, and across blocks: a negative code counts from the end,
        # and boolean codes (a scan's flag) pick values 0 and 1 rather than mask them
        rng = np.random.default_rng(rows)
        signs, flags, codes = rng.integers(-1, 2, rows), rng.random(rows) < 0.3, rng.integers(-3, 3, rows)
        floats = np.array([0.25, -1.5, 3.0])
        columns = [np.full(rows, 0.5), Coded(SIGNS, signs), Coded((0, 1), flags), Coded(np.array([7.0, 8.0]), flags), Coded(floats, codes)]
        cells = zip([0.5] * rows, signs.tolist(), flags.astype(int).tolist(), [8.0 if f else 7.0 for f in flags], floats[codes].tolist())
        expected = "".join(",".join(map(_csv_field, row)) + "\n" for row in cells)
        assert b"".join(Table(list("abcde"), columns).csv_blocks(header=False)).decode() == expected
        outside = Table(["a", "b"], [np.full(rows, 0.5), Coded((0, 1), np.full(rows, 2))])
        with pytest.raises(IndexError):  # a code outside the values is refused, not wrapped
            b"".join(outside.csv_blocks())

    def test_values_equal_as_numbers_keep_their_own_text(self):
        # every table formats its own values, so values equal as numbers keep their own text
        for values in ([0.0, 1, True], [-0.0, 1.0, 1], [0, 1.0, False]):
            table = Table(["v"], [Coded(values)])
            assert b"".join(table.csv_blocks()) == ("v\n" + "".join(f"{_csv_field(v)}\n" for v in values)).encode()
            assert "".join(table.json_records(0)) == cli._render_json_value([{"v": v} for v in values], 0)

    def test_csv_text_holding_nul_and_any_surrogate_are_refused(self):
        # the writer drops the NULs that pad its fields; JSON escapes a NUL as \u0000
        for values in (["a\0b"], ["\0", "a"]):
            table = Table(["name", "value"], [Coded(values, np.zeros(2, int)), np.ones(2)])
            with pytest.raises(ValueError, match="NUL"):
                b"".join(table.csv_blocks())
            assert json.loads("".join(table.json_records(0)))[1]["name"] == values[0]
        table = Table(["name"], [Coded(["\udcff"])])
        for render in (lambda: b"".join(table.csv_blocks()), lambda: table.json_records(0)):
            with pytest.raises(UnicodeEncodeError):  # a ValueError, exit 2 in the CLI
                render()

    def test_infinity_has_no_json_text(self):
        table = Table(["value"], [np.array([0.5, -math.inf, math.nan])])
        assert b"".join(table.csv_blocks()) == b"value\n5.0000000000000000e-01\n-inf\n\n"
        with pytest.raises(ValueError, match="refusing to print non-finite value -inf"):
            table.json_records(1)
        values = np.full(3 * _LAYOUT_FROM, 0.5)  # laid out as bytes
        values[_LAYOUT_FROM] = -math.inf
        for column in (values, Coded(values, np.arange(values.size)[::-1])):
            table = Table(["value"], [column])
            assert b"".join(table.csv_blocks()).count(b"\n-inf\n") == 1
            with pytest.raises(ValueError, match="refusing to print non-finite value -inf"):
                table.json_records(1)

    @pytest.mark.parametrize("rows", [2, _LAYOUT_FROM + 1])
    def test_the_first_value_without_json_text_in_the_document_is_named(self, rows):
        # row by row below _LAYOUT_FROM rows, laid out as bytes from it: either way the error names -inf,
        # in the first row, though the first column holds inf
        first, second = np.full(rows, 0.5), np.full(rows, 0.5)
        first[1], second[0] = math.inf, -math.inf
        records = [{"a": a, "b": b} for a, b in zip(first.tolist(), second.tolist())]
        for render in (lambda: Table(["a", "b"], [first, second]).json_records(0), lambda: cli._render_json_value(records, 0)):
            with pytest.raises(ValueError, match="refusing to print non-finite value -inf$"):
                render()


class TestExitCodes:
    def test_unnormalizable_state_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, ["exact", "--state", "1,0,0,1"])
        assert code == 2
        assert "unit norm" in err

    def test_malformed_state_is_validation_error(self, capsys):
        code, _, _ = run_cli(capsys, ["exact", "--state", "1,0,0"])
        assert code == 2

    def test_non_finite_magphase_phase_names_the_state(self, capsys):
        for spec in ("1,inf,0,0", "1,0,0,-inf", "1,nan,0,0"):
            code, out, err = run_cli(capsys, ["exact", "--state", spec, "--state-form", "magphase"])
            assert (code, out) == (2, "")
            assert err == f"error: state {spec!r} needs finite phases\n"

    def test_missing_required_option(self, capsys):
        code, _, err = run_cli(capsys, ["invert", "--state", "1,0,0,0", "--theta", "0.3"])
        assert code == 2
        assert "--vartheta" in err

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, ["exact", "--state", "1,0,0,0", "--bogus"])
        assert code == 2

    def test_singular_marking_names_the_denominator(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["invert", "--state", "1,0,0,0", "--theta", repr(math.pi / 2), "--vartheta", "0.8"],
        )
        assert code == 3
        assert "cos(theta)" in err

    def test_singular_analyzer_names_the_denominator(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["sample", "--state", "1,0,0,0", "--theta", "0.8", "--vartheta", "0.4", "--n", "10"],
        )
        assert code == 3
        assert "sin(" in err

    def test_small_theta_splits_the_closed_form_and_data_routes(self, capsys):
        # at theta = 1e-10 only the data route's sin(theta) factor is below the threshold
        angles = ["--state", TILTED_STATE, "--theta", "1e-10", "--vartheta", "0.3"]
        code, out, err = run_cli(capsys, ["invert", *angles])
        assert (code, err) == (0, "")
        assert json.loads(out)["result"]["negativity"]["min_value"] < 0.0
        code, out, err = run_cli(capsys, ["sample", *angles, "--n", "10"])
        assert (code, out) == (3, "")
        assert err.startswith("error: singular configuration: sin(theta)*sin(2*vartheta - theta) = ")

    def test_zero_marking_on_the_analyzer_line_is_singular(self, capsys):
        # theta = 0 takes the analyzer check too: sin(2*vartheta) = 0 has no finite delta
        code, out, err = run_cli(capsys, ["invert", "--state", "0.6,0,0.64,0.48", "--theta", "0", "--vartheta", "0"])
        assert (code, out) == (3, "")
        assert err == (
            "error: singular configuration: sin(2*vartheta - theta) = 0.000e+00 at theta = 0.0, vartheta = 0.0;"
            " magnitude <= 1.0e-09 cannot be inverted\n"
        )

    def test_near_singular_sample_prints_one_error_line(self, capsys):
        # just off both singular lines the inverted frequencies sum to exactly 0
        argv = ["sample", "--state", "0.6,0,0.8,0", "--theta", "1.5707963277948966",
                "--vartheta", "0.7853981632974483", "--n", "100"]
        with warnings.catch_warnings():
            warnings.simplefilter("always")  # a numpy warning would print to stderr, as outside the suite
            code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "error: inverted joint sums to 0.0, so it cannot be rescaled to sum to 1\n"

    # every size below is rejected before anything is allocated
    def test_oversized_scan_grid_rejected(self, capsys):
        for theta_grid, vartheta_grid in (
            ("0:1:100000", "0:1:100000"),
            ("0:1:1", f"0:1:{MAX_SCAN_CELLS + 1}"),
        ):
            code, out, err = run_cli(
                capsys,
                ["scan", "--state", "1,0,0,0", "--theta-grid", theta_grid, "--vartheta-grid", vartheta_grid],
            )
            assert code == 2
            assert out == ""
            assert str(MAX_SCAN_CELLS) in err

    @pytest.mark.parametrize(
        "points, message",
        [(MAX_PHI_POINTS + 1, f"phi-points must be <= {MAX_PHI_POINTS}"), (-1, "phi-points must be >= 0")],
        ids=["oversized", "negative"],
    )
    def test_oversized_phi_points_rejected(self, capsys, points, message):
        for argv in (
            ["exact", "--state", "1,0,0,0", f"--phi-points={points}"],
            ["invert", "--state", "1,0,0,0", "--theta", "0.3", "--vartheta", "0.9",
             "--mode", "phase", f"--phi-points={points}"],
        ):
            code, out, err = run_cli(capsys, argv)
            assert code == 2
            assert out == ""
            assert err == f"error: {message}\n"

    def test_oversized_phase_sample_rejected(self, capsys):
        for n in (MAX_PHASE_SHOTS + 1, 10**12):
            code, out, err = run_cli(
                capsys,
                ["sample", "--state", "1,0,0,0", "--theta", "0.3", "--vartheta", "0.9",
                 "--mode", "phase", "--n", str(n)],
            )
            assert code == 2
            assert out == ""
            assert str(MAX_PHASE_SHOTS) in err

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_rejected_phase_sample_writes_no_file(self, capsys, tmp_path, n):
        target = tmp_path / "shots.csv"
        code, out, err = run_cli(  # '=' form: the count may start with '-'
            capsys,
            ["sample", "--state", TILTED_STATE, "--theta", "0.6", "--vartheta", "1.1",
             "--mode", "phase", f"--n={n}", "--shots-out", str(target)],
        )
        assert code == 2
        assert out == ""
        assert err == "error: n must be >= 1\n"
        assert not target.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("mode", ["discrete", "phase"])
    def test_negative_seed_leaves_shots_out_untouched(self, capsys, tmp_path, mode, source):
        config = tmp_path / "run.cfg"
        config.write_text("seed=-1\n")
        seed = ["--seed", "-1"] if source == "flag" else ["--config", str(config)]
        fresh, existing = tmp_path / "fresh.csv", tmp_path / "existing.csv"
        existing.write_bytes(b"old shots")
        for target in (fresh, existing):
            code, out, err = run_cli(
                capsys,
                ["sample", "--state", "0.6,0,0.8,0", "--theta", "0.7", "--vartheta", "1.1", "--mode", mode,
                 "--n", "10", *seed, "--shots-out", str(target)],
            )
            assert (code, out, err) == (2, "", "error: seed must be >= 0\n")
        assert not fresh.exists()
        assert existing.read_bytes() == b"old shots"

    def test_non_finite_grid_bounds_rejected(self, capsys):
        for theta_grid, vartheta_grid, extra in (
            ("0:inf:3", "0:1:2", []),
            ("nan:1:3", "0:1:2", []),
            ("0:1:3", "-inf:1:2", []),
            ("0:1:3", "0:nan:2", ["--degrees"]),
            ("-1e308:1e308:3", "0:1:2", []),  # finite bounds whose span overflows
        ):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, err = run_cli(  # '=' form: a grid may start with '-'
                    capsys,
                    ["scan", "--state", "1,0,0,0", f"--theta-grid={theta_grid}",
                     f"--vartheta-grid={vartheta_grid}", *extra],
                )
            assert code == 2
            assert out == ""
            assert "finite bounds" in err
            assert repr(theta_grid) in err or repr(vartheta_grid) in err  # names the grid
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_overflowing_inputs_rejected(self, capsys):
        for argv in (
            ["exact", "--state", "1e308,0,1e308,0"],
            ["sample", "--state", "1,0,0,0", "--theta", "0.5", "--vartheta", "1",
             "--n", "100000000000000000000"],
        ):
            code, out, err = run_cli(capsys, argv)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("mode", ["discrete", "phase"])
    def test_shots_path_that_utf8_cannot_encode_leaves_no_file(self, capsys, tmp_path, mode):
        # the argv of a file name holding the byte 0xff, as Python decodes it
        code, out, err = run_cli(
            capsys,
            ["sample", "--state", "1,0,0,0", "--theta", "0.6", "--vartheta", "1.1", "--mode", mode,
             "--n", "10", "--shots-out", f"{tmp_path}/\udcff.csv"],
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --shots-out ") and err.count("\n") == 1, err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("option", ["--shots-out", "--output"])
    @pytest.mark.parametrize("mode", ["discrete", "phase"])
    def test_unwritable_path_is_one_error_line(self, capsys, tmp_path, mode, option):
        target = tmp_path / "missing" / "out.csv"
        code, out, err = run_cli(
            capsys,
            ["sample", "--state", TILTED_STATE, "--theta", "0.6", "--vartheta", "1.1",
             "--mode", mode, "--n", "1000", option, str(target)],
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(target) in err
        assert not target.parent.exists()

    def test_success_is_zero(self, capsys):
        code, _, _ = run_cli(capsys, ["exact", "--state", "1,0,0,0"])
        assert code == 0


class TestReproducibility:
    def test_sample_is_byte_identical_across_runs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = [
            "sample",
            "--state",
            TILTED_STATE,
            "--theta",
            "0.6",
            "--vartheta",
            "1.1",
            "--n",
            "100000",
            "--seed",
            "42",
            "--shots-out",
            "a.csv",
            "--output",
            "report_a.json",
        ]
        assert main(argv) == 0
        argv_again = [arg.replace("a.csv", "b.csv").replace("report_a", "report_b") for arg in argv]
        assert main(argv_again) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        report_a = (tmp_path / "report_a.json").read_text()
        report_b = (tmp_path / "report_b.json").read_text()
        assert report_a.replace("a.csv", "b.csv").replace("report_a", "report_b") == report_b

    def test_discrete_shots_file_is_the_counts_table(self, capsys, tmp_path):
        target = tmp_path / "shots.csv"
        code, out, err = run_cli(
            capsys,
            ["sample", "--state", TILTED_STATE, "--theta", "0.6", "--vartheta", "1.1",
             "--n", "1000", "--seed", "3", "--shots-out", str(target)],
        )
        assert code == 0, err
        counts = json.loads(out)["result"]["counts"]
        state = cli.parse_state(TILTED_STATE, "reim")
        shots = sample_discrete(operational_joint_discrete(state, MarkerConfig(0.6, 1.1)), 1000, 3)
        assert counts == [
            {"x": x, "z": z, "count": shots.count(x, z)} for x in (1, -1) for z in (1, -1)
        ]
        rows = "".join(f"{c['x']},{c['z']},{c['count']}\n" for c in counts)
        assert target.read_bytes() == b"x,z,count\n" + rows.encode("ascii")

    def test_phase_shots_file_is_the_library_csv(self, capsys, tmp_path):
        n = 3 * _CSV_BLOCK + 1
        target = tmp_path / "shots.csv"
        code, _, err = run_cli(
            capsys,
            ["sample", "--state", TILTED_STATE, "--theta", "0.6", "--vartheta", "1.1",
             "--mode", "phase", "--n", str(n), "--seed", "11", "--shots-out", str(target)],
        )
        assert code == 0, err
        joint = operational_joint_phase(cli.parse_state(TILTED_STATE, "reim"), MarkerConfig(0.6, 1.1))
        assert target.read_bytes() == sample_phase(joint, n, 11).to_csv().encode("ascii")

    @pytest.mark.parametrize("shots_out", [False, True])
    @pytest.mark.parametrize("n", [1, _SAMPLE_CHUNK, _SAMPLE_CHUNK + 1, 3 * _SAMPLE_CHUNK + 7])
    def test_phase_sample_matches_the_library(self, capsys, tmp_path, n, shots_out):
        # the CLI draws, sums and writes chunk by chunk without a record; the
        # library builds the record and sums it in the same chunks
        target = tmp_path / "shots.csv"
        argv = ["sample", "--state", TILTED_STATE, "--theta", "0.6", "--vartheta", "1.1",
                "--mode", "phase", "--n", str(n), "--seed", "11"]
        code, out, err = run_cli(capsys, argv + (["--shots-out", str(target)] if shots_out else []))
        assert code == 0, err
        joint = operational_joint_phase(cli.parse_state(TILTED_STATE, "reim"), MarkerConfig(0.6, 1.1))
        shots = sample_phase(joint, n, 11)
        estimates = harmonic_estimates(shots)
        result = json.loads(out)["result"]
        counts = {"plus": np.count_nonzero(shots.z == 1), "minus": np.count_nonzero(shots.z == -1)}
        assert result["slice_counts"] == counts
        assert estimates.shape == (2, 3) and not estimates.flags.writeable
        assert result["harmonic_estimates"] == [
            {"z": z, "c0": c0, "c_cos": c_cos, "c_sin": c_sin}
            for z, (c0, c_cos, c_sin) in zip((1, -1), estimates.tolist())
        ]
        assert target.exists() == shots_out
        if shots_out:
            assert target.read_bytes() == shots.to_csv().encode("ascii")
        start = 0
        for phi, z in _phase_blocks(joint, n, 11):
            assert phi.size == z.size == min(_SAMPLE_CHUNK, n - start)  # every chunk is full but the last
            np.testing.assert_array_equal(phi, shots.phi[start : start + phi.size])
            np.testing.assert_array_equal(z, shots.z[start : start + z.size])
            start += phi.size
        assert start == n

    def test_config_echo_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["invert", "--state", TILTED_STATE, "--theta", "0.6", "--vartheta", "1.1"],
        )
        assert code == 0
        config = json.loads(out)["config"]
        argv = [
            "invert",
            "--state",
            ",".join(repr(v) for v in config["state"]),
            "--theta",
            repr(config["theta"]),
            "--vartheta",
            repr(config["vartheta"]),
            "--mode",
            config["mode"],
            "--format",
            config["format"],
            "--phi-points",
            str(config["phi_points"]),
        ]
        code, out_again, _ = run_cli(capsys, argv)
        assert code == 0
        assert out_again == out


class TestOptionResolution:
    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# angles in radians\n"
            f"state={TILTED_STATE}\n"
            "theta=0.6\n"
            "vartheta=1.1\n"
        )
        code, from_file, _ = run_cli(capsys, ["operational", "--config", str(config)])
        assert code == 0
        code, from_flags, _ = run_cli(
            capsys,
            ["operational", "--state", TILTED_STATE, "--theta", "0.6", "--vartheta", "1.1"],
        )
        assert from_file == from_flags

    def test_config_file_is_read_as_utf8_under_the_c_locale(self, tmp_path):
        # without UTF-8 mode the C locale's default text encoding is ASCII
        config = tmp_path / "run.cfg"
        config.write_text(f"# \u03b8 and \u03d1 in radians\nstate={TILTED_STATE}\ntheta=0.6\nvartheta=1.1\n", "utf-8")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "quasijoint.cli", "operational", "--config", str(config)],
            env=env, capture_output=True, timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == (GOLDEN / "operational_discrete.json").read_bytes()

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "byte-order-mark"])
    def test_config_file_may_start_with_a_byte_order_mark(self, capsys, tmp_path, bom):
        config = tmp_path / "run.cfg"
        config.write_bytes(bom + f"state={TILTED_STATE}\ntheta=0.6\nvartheta=1.1\n".encode())
        code, out, err = run_cli(capsys, ["operational", "--config", str(config)])
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "operational_discrete.json").read_text()

    def test_marking_rotated_by_pi_keeps_its_angle_and_flips_the_fringe(self, capsys):
        # 0.6 + pi is reduced mod 2*pi, not mod pi: its P(x, z) is theta = 0.6's P(-x, z), bit for bit
        lines, values = {}, {}
        for theta in ("3.7415926535897933", "0.6"):
            argv = ["operational", "--state", "0.6,0,0.64,0.48", "--theta", theta, "--vartheta", "1.1", "--format", "csv"]
            code, out, err = run_cli(capsys, argv)
            assert (code, err) == (0, "")
            lines[theta] = out.splitlines()
            rows = lines[theta][lines[theta].index("x,z,value") + 1 :]
            values[theta] = {(int(x), int(z)): value for x, z, value in (row.split(",") for row in rows)}
        assert "# theta=3.7415926535897932e+00" in lines["3.7415926535897933"]
        assert "1,1,5.1608898986466450e-02" in lines["3.7415926535897933"]
        assert values["3.7415926535897933"] == {(-x, z): value for (x, z), value in values["0.6"].items()}

    def test_flags_override_config_file(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(f"state={TILTED_STATE}\ntheta=0.6\nvartheta=1.1\n")
        code, out, _ = run_cli(
            capsys, ["operational", "--config", str(config), "--theta", "0.9"]
        )
        assert code == 0
        assert json.loads(out)["config"]["theta"] == 0.9

    @pytest.mark.parametrize(
        "line, message",
        [
            ("thetta=0.6", "unknown config key 'thetta'"),
            ("just a line", "config line 'just a line' is not key=value"),
            ("mode=sideways", "unknown mode 'sideways'"),
            ("state_form=polar", "unknown state form 'polar'"),
        ],
        ids=["unknown-key", "no-equals-sign", "mode-outside-choices", "state-form-outside-choices"],
    )
    def test_unknown_config_key_is_rejected(self, capsys, tmp_path, line, message):
        config = tmp_path / "run.cfg"
        config.write_text(f"state={TILTED_STATE}\ntheta=0.6\nvartheta=1.1\n{line}\n")
        code, out, err = run_cli(capsys, ["operational", "--config", str(config)])
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_unknown_state_form_is_rejected_by_the_parser_too(self):
        with pytest.raises(ValueError, match="^unknown state form 'polar'$"):
            cli.parse_state("1,0,0,0", "polar")

    @pytest.mark.parametrize(
        "line, commands",
        [
            ("phi_points=abc", ("exact", "operational", "invert", "sample")),
            ("degrees=maybe", ("operational", "invert", "sample", "scan")),
            ("theta=wide", ("operational", "invert", "sample")),
            ("vartheta=1,2", ("operational", "invert", "sample")),
            ("n=1e3", ("sample",)),
            ("seed=0.5", ("sample",)),
        ],
    )
    def test_unconvertible_config_value_names_its_key(self, capsys, tmp_path, line, commands):
        config = tmp_path / "run.cfg"
        config.write_text(f"state={TILTED_STATE}\n{line}\n")
        key = line.split("=")[0]
        for command in commands:
            code, out, err = run_cli(capsys, [command, "--config", str(config)])
            assert code == 2, command
            assert out == ""
            assert err.startswith(f"error: config key '{key}': "), (command, err)

    @pytest.mark.parametrize("flags, line", [(["--degrees"], ""), ([], "degrees=yes")], ids=["flag", "config-file"])
    def test_degrees_flag(self, capsys, tmp_path, flags, line):
        config = tmp_path / "run.cfg"
        config.write_text(f"state={TILTED_STATE}\ntheta=45\nvartheta=90\n{line}\n")
        code, out_deg, _ = run_cli(capsys, ["operational", "--config", str(config), *flags])
        assert code == 0
        assert '"theta": 7.8539816339744828e-01,' in out_deg
        config = json.loads(out_deg)["config"]
        assert config["theta"] == pytest.approx(math.pi / 4, abs=1e-15)
        assert config["vartheta"] == pytest.approx(math.pi / 2, abs=1e-15)

    def test_degrees_off_in_a_config_file_reads_radians(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(f"state={TILTED_STATE}\ntheta=0.6\nvartheta=1.1\ndegrees=off\n")
        code, out, _ = run_cli(capsys, ["operational", "--config", str(config)])
        assert code == 0
        assert out == (GOLDEN / "operational_discrete.json").read_text()

    def test_magphase_form_matches_reim(self, capsys):
        code, out_mag, _ = run_cli(
            capsys,
            [
                "exact",
                "--state",
                "0.9238795325112867,0,0.3826834323650898,0",
                "--state-form",
                "magphase",
                "--phi-points",
                "0",
            ],
        )
        assert code == 0
        code, out_reim, _ = run_cli(
            capsys, ["exact", "--state", TILTED_STATE, "--phi-points", "0"]
        )
        assert code == 0
        assert out_mag == out_reim

    def test_a_half_turn_magphase_state_reports_its_phase_argmin_as_zero(self, capsys):
        # sin(180 deg) leaves <Y> = 1.2e-16, so the slice's minimum sits a hair below phi = 0,
        # which reduced mod 2*pi rounds up to 2*pi itself; [0, 2*pi) holds it as 0
        argv = ["invert", "--state", "0.6,0,0.8,180", "--state-form", "magphase", "--theta", "0.4",
                "--vartheta", "1.0", "--mode", "phase", "--format", "csv"]
        code, out, err = run_cli(capsys, argv)
        assert code == 0, err
        note = next(line for line in out.splitlines() if line.startswith("# negativity "))
        assert "argmin_phi=0.0000000000000000e+00" in note.split()

    @pytest.mark.parametrize("case", CASES + REPORT_CASES, ids=lambda c: c["name"])
    def test_output_file_matches_stdout(self, case, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        name = "report." + case["stdout"].rsplit(".", 1)[1]
        code, out, err = run_cli(capsys, [*case["argv"], "--output", name])
        assert code == 0, err
        assert out == ""
        if name.endswith(".json"):
            echo = (b'"output": null', f'"output": "{name}"'.encode())
        else:
            echo = (b"# output=\n", f"# output={name}\n".encode())
        golden = (GOLDEN / case["stdout"]).read_bytes()
        assert golden.count(echo[0]) == 1
        assert (tmp_path / name).read_bytes() == golden.replace(*echo)
        for produced, stored in case["files"].items():
            assert (tmp_path / produced).read_bytes() == (GOLDEN / stored).read_bytes()

    @pytest.mark.parametrize(
        "name", ["tab\there.json", "new\nline.json", 'quote".json', "back\\slash.json", "é.json", 'a\tb".json']
    )
    def test_json_echo_of_any_output_name_parses(self, capsys, tmp_path, name):
        target = tmp_path / name
        code, _, err = run_cli(capsys, ["exact", "--state", "1,0,0,0", "--phi-points", "0", "--output", str(target)])
        assert code == 0, err
        assert json.loads(target.read_bytes().decode("utf-8"))["config"]["output"] == str(target)

    @pytest.mark.parametrize(
        "argv",
        [
            ["exact", "--state", "1,0,0,0"],
            ["exact", "--state", "1,0,0,0", "--format", "csv"],
            ["scan", "--state", "1,0,0,0", "--theta-grid", "0:1:3", "--vartheta-grid", "0.3:1:2", "--format", "csv"],
        ],
        ids=["json", "csv", "scan-csv"],
    )
    def test_output_name_that_utf8_cannot_encode_leaves_no_file(self, capsys, tmp_path, argv):
        # the argv of a file name holding the byte 0xff, as Python decodes it
        target = f"{tmp_path}/\udcff.out"
        code, out, err = run_cli(capsys, [*argv, "--output", target])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not list(tmp_path.iterdir())


    def test_csv_config_lines_escape_echoed_strings(self, capsys, tmp_path):
        target = tmp_path / "new\nline.csv"
        code, _, err = run_cli(capsys, ["exact", "--state", "1,0,0,0", "--format", "csv", "--output", str(target)])
        assert code == 0, err
        lines = target.read_text().split("\n")
        keys = ["command", "state", "format", "phi_points", "output"]
        assert [line.split("=")[0] for line in lines[: len(keys)]] == [f"# {key}" for key in keys]
        assert lines[len(keys)] == "quantity,value"
        assert lines[len(keys) - 1] == f"# output={json.dumps(str(target), ensure_ascii=False)[1:-1]}"

    def test_scan_csv_output_under_a_non_ascii_path(self, capsys, tmp_path):
        # the config echo holds the path, and the scan table is joined to it as bytes
        argv = ["scan", "--state", TILTED_STATE, "--theta-grid", "0:1.4:5", "--vartheta-grid",
                "0.35:2.8:4", "--format", "csv"]
        target = tmp_path / "négativité.csv"
        code, _, err = run_cli(capsys, [*argv, "--output", str(target)])
        assert code == 0, err
        assert target.read_text() == (GOLDEN / "scan.csv").read_text().replace(
            "# output=\n", f"# output={target}\n"
        )


class TestParserSurface:
    """Each subcommand takes exactly these options, in this --help order."""

    COMMON = [
        ("--state", None, None),
        ("--state-form", ("reim", "magphase"), None),
        ("--format", ("json", "csv"), None),
        ("--output", None, None),
        ("--config", None, None),
    ]
    ANGLES = [
        ("--theta", None, float),
        ("--vartheta", None, float),
        ("--degrees", None, "store_true"),
        ("--mode", ("discrete", "phase"), None),
        ("--phi-points", None, int),
    ]
    SURFACE = {
        "exact": COMMON + [("--phi-points", None, int)],
        "operational": COMMON + ANGLES,
        "invert": COMMON + ANGLES,
        "sample": COMMON + ANGLES + [
            ("--n", None, int),
            ("--seed", None, int),
            ("--shots-out", None, None),
        ],
        "scan": COMMON + [
            ("--theta-grid", None, None),
            ("--vartheta-grid", None, None),
            ("--degrees", None, "store_true"),
        ],
    }

    def test_subcommands_take_exactly_these_options(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(self.SURFACE)
        assert [len(options) for options in self.SURFACE.values()] == [6, 10, 10, 13, 8]
        for command, parser in sub.choices.items():
            actions = [a for a in parser._actions if a.option_strings != ["-h", "--help"]]
            surface = [
                (
                    *a.option_strings,
                    a.choices,
                    "store_true" if isinstance(a, argparse._StoreTrueAction) else a.type,
                )
                for a in actions
            ]
            assert surface == self.SURFACE[command], command
            # a flag left out falls through to the config file, then to the built-in default
            assert all(a.default is None for a in actions), command

    def test_built_in_defaults(self, capsys):
        code, out, _ = run_cli(capsys, ["exact", "--state", "1,0,0,0"])
        assert code == 0
        assert json.loads(out)["config"] == {
            "command": "exact",
            "state": [1.0, 0.0, 0.0, 0.0],
            "format": "json",
            "phi_points": 256,
            "output": None,
        }
        code, out, _ = run_cli(
            capsys, ["sample", "--state", "1,0,0,0", "--theta", "0.6", "--vartheta", "1.1", "--n", "10"]
        )
        assert code == 0
        config = json.loads(out)["config"]
        assert (config["mode"], config["seed"], config["shots_out"]) == ("discrete", 0, None)
        code, out, _ = run_cli(
            capsys, ["scan", "--state", "1,0,0,0", "--theta-grid", "0:1:2", "--vartheta-grid", "0.3:1:2"]
        )
        assert code == 0
        assert list(json.loads(out)["config"]) == [
            "command", "state", "theta_grid", "vartheta_grid", "format", "output",
        ]
