"""Tests for the command line interface."""

import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import onticsim.cli
import onticsim.reduction
from onticsim import __version__
from onticsim.cli import main
from onticsim.indexing import POINT_CAP
from onticsim.permrep import random_permutation

README = Path(__file__).resolve().parents[1] / "README.md"
CSV_HEADER = "state_id,subset_mask,subset_size,purity,s2_bits"
PLOT_HEADER = "size,count,min_s2,mean_s2,max_s2,std_s2,state_mean_std"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def envelope_from_csv(text):
    """The CSV's metadata lines, and the plot-data table and asymmetry line
    recomputed from its rows with plain per-size and per-state lists."""
    lines = text.splitlines()
    header = lines.index(CSV_HEADER)
    k = next(ln for ln in lines if ln.startswith("# shape=")).count("x") + 1
    by_size, per_state, s2_of = {}, {}, {}
    for line in lines[header + 1:]:
        sid, mask, size, _, s2 = line.split(",")
        sid, mask, size, s2 = int(sid), int(mask), int(size), float(s2)
        by_size.setdefault(size, []).append(s2)
        per_state.setdefault(size, {}).setdefault(sid, []).append(s2)
        s2_of[sid, mask] = s2
    full = (1 << k) - 1
    asym = 0.0
    for (sid, mask), s2 in s2_of.items():
        if (sid, full ^ mask) in s2_of:
            asym = max(asym, abs(s2 - s2_of[sid, full ^ mask]))
    rows = [PLOT_HEADER]
    for size in sorted(by_size):
        vals = np.array(by_size[size])
        means = np.array([np.mean(v) for _, v in sorted(per_state[size].items())])
        rows.append(
            f"{size},{vals.size},{vals.min():.17g},{vals.mean():.17g},"
            f"{vals.max():.17g},{vals.std():.17g},{means.std():.17g}"
        )
    rows.append(f"# max_complement_asymmetry={asym:.17g}")
    return lines[:header], rows


class TestOverlap:
    def test_values(self, capsys):
        code, out, _ = run_cli(capsys, "overlap", "--q", "4:0xC", "--r", "4:0xA")
        assert code == 0
        assert "popcount=2" in out
        assert "inner_ontic=1" in out
        assert "overlap_standard=0" in out

    def test_bad_pattern_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "overlap", "--q", "4:0xC", "--r", "nope")
        assert code == 2
        assert "error" in err

    def test_degenerate_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "overlap", "--q", "4:0x0", "--r", "4:0xA")
        assert code == 2


class TestArea:
    def test_small_dimension(self, capsys):
        code, out, _ = run_cli(capsys, "area", "--n", "2")
        assert code == 0
        assert f"{math.pi / 2:.10f}"[:8] in out
        assert "natural_state_lower_bound=2" in out

    def test_dimension_one_omits_bound(self, capsys):
        code, out, _ = run_cli(capsys, "area", "--n", "1")
        assert code == 0
        assert "natural_state_lower_bound" not in out

    def test_bound_of_the_most_digits_printed(self, capsys):
        # 2**14284 - 2 has 4,300 digits, Python's default int-to-str limit
        code, out, _ = run_cli(capsys, "area", "--n", "14284")
        assert code == 0
        assert len(out.split("natural_state_lower_bound=")[1].strip()) == 4300

    def test_bound_over_the_digit_limit_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "area", "--n", "14300")
        assert code == 2
        assert out == ""
        assert err == "error: --n 14300: the state-count bound has over 4300 digits\n"


class TestCycles:
    def test_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "cycles", "--n", "6", "--samples", "2000", "--seed", "5"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert "length,mean,std_error,expected,flagged" in lines
        data = [ln for ln in lines if ln and not ln.startswith(("#", "length"))]
        assert len(data) == 6

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "cycles", "--n", "3", "--samples", "2", "--seed", "-1"
        )
        assert code == 2
        assert out == ""
        assert "Traceback" not in err

    def test_version_line(self, capsys):
        _, out, _ = run_cli(capsys, "cycles", "--n", "4", "--samples", "10")
        assert out.split("\n")[0] == f"# tool=onticsim {__version__}"


class TestSweep:
    def test_stdout_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--shape", "2x2x2", "--states", "2", "--seed", "3"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert "state_id,subset_mask,subset_size,purity,s2_bits" in lines
        data = [ln for ln in lines if ln and not ln.startswith(("#", "state_id"))]
        assert len(data) == 2 * 6

    def test_file_output_byte_identical(self, tmp_path, capsys):
        args = [
            "sweep", "--shape", "2^6", "--states", "3", "--seed", "11",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_plot_data_and_summary(self, tmp_path, capsys):
        plot = tmp_path / "envelope.txt"
        code, _, err = run_cli(
            capsys,
            "sweep", "--shape", "2^4", "--states", "2", "--seed", "2",
            "--out", str(tmp_path / "s.csv"), "--plot-data", str(plot), "--summary",
        )
        assert code == 0
        text = plot.read_text()
        assert "max_complement_asymmetry" in text
        assert "size count min mean max" in err
        # each --summary row is its size's plot-data row to 6 decimals
        table = text.splitlines()
        table = table[table.index(PLOT_HEADER) + 1:-1]
        expected = []
        for line in table:
            size, count, lo, mean, hi, std, spread = line.split(",")
            values = (float(v) for v in (lo, mean, hi, std, spread))
            expected.append(" ".join([size, count] + [f"{v:.6f}" for v in values]))
        summary = err.splitlines()
        summary = summary[summary.index("size count min mean max std state_mean_std") + 1:]
        assert len(expected) == 3
        assert summary == expected

    @pytest.mark.parametrize(
        "args",
        [
            ("--shape", "2^6", "--states", "5", "--seed", "1"),
            ("--shape", "2^6", "--states", "5", "--seed", "1", "--basis", "energy",
             "--generator", random_permutation(64, seed=7).cycle_string()),
            ("--shape", "3^5", "--states", "7", "--seed", "9"),
        ],
        ids=["2^6-ontic", "2^6-energy", "3^5"],
    )
    def test_plot_data_is_the_envelope_of_the_csv(self, tmp_path, capsys, args):
        out, plot = tmp_path / "s.csv", tmp_path / "envelope.txt"
        code, _, _ = run_cli(
            capsys, "sweep", *args, "--out", str(out), "--plot-data", str(plot)
        )
        assert code == 0
        meta, rows = envelope_from_csv(out.read_text())
        text = plot.read_text()
        lines = text.splitlines()
        assert text.endswith("\n")
        assert lines[:len(meta)] == meta
        assert lines[-len(rows):] == rows
        assert all(ln.startswith("#") for ln in lines[len(meta):-len(rows)])

    def test_explicit_state(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--shape", "2x2", "--ontic", "4:0x9"
        )
        assert code == 0
        assert "sampling=explicit:4:0x9" in out
        data = [ln for ln in out.strip().split("\n")
                if ln and not ln.startswith(("#", "state_id"))]
        for row in data:
            assert float(row.split(",")[4]) < 1e-12  # product state

    def test_energy_basis(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--shape", "2x2x2", "--states", "1", "--seed", "1",
            "--basis", "energy", "--generator", "(0 1 2 3)(4 5)",
        )
        assert code == 0
        assert "basis=energy" in out
        assert "generator=(0 1 2 3)(4 5)" in out

    def test_subset_policy_sizes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--shape", "2^5", "--states", "1", "--seed", "4",
            "--subset-policy", "sizes=1,4",
        )
        assert code == 0
        data = [ln for ln in out.strip().split("\n")
                if ln and not ln.startswith(("#", "state_id"))]
        assert len(data) == 5 + 5
        assert "subset_policy=sizes=1,4" in out

    def test_subset_policy_sampled(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--shape", "2^6", "--states", "1", "--seed", "4",
            "--subset-policy", "sizes=2,3;sampled=4",
        )
        assert code == 0
        data = [ln for ln in out.strip().split("\n")
                if ln and not ln.startswith(("#", "state_id"))]
        assert len(data) == 4 + 4

    def test_empty_size_list_exits_2_before_output(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys,
            "sweep", "--shape", "2x2x2", "--subset-policy", "sizes=",
            "--plot-data", str(tmp_path / "p.txt"),
        )
        assert code == 2
        assert out == ""
        assert "error" in err
        assert not (tmp_path / "p.txt").exists()

    def test_explicit_state_rows_match_inside_a_larger_run(self, capsys):
        patterns = ["16:0x1234", "16:0xBEEF", "16:0x0F0F"]
        argv = ["sweep", "--shape", "2^4"]
        code, out, _ = run_cli(
            capsys, *argv, *(a for q in patterns for a in ("--ontic", q))
        )
        assert code == 0
        rows = [ln.split(",", 1) for ln in out.split("\n")
                if ln and ln[0].isdigit()]
        for sid, q in enumerate(patterns):
            code, alone, _ = run_cli(capsys, *argv, "--ontic", q)
            assert code == 0
            want = [ln.split(",", 1)[1] for ln in alone.split("\n")
                    if ln and ln[0].isdigit()]
            got = [rest for state, rest in rows if state == str(sid)]
            assert got == want

    def test_out_of_range_purity_exits_3(self, capsys, monkeypatch):
        kernel = onticsim.reduction._gram_stack
        monkeypatch.setattr(
            onticsim.reduction, "_gram_stack",
            lambda stack, mask, *buffers: kernel(stack * 1.5, mask, *buffers),
        )
        code, _, err = run_cli(capsys, "sweep", "--shape", "2x2x2", "--states", "2")
        assert code == 3
        assert "numeric invariant violated" in err
        assert "Traceback" not in err

    def test_pure_subsystems_print_plus_zero(self, tmp_path, capsys):
        plot = tmp_path / "envelope.txt"
        code, out, err = run_cli(
            capsys, "sweep", "--shape", "2x2", "--ontic", "4:0xC",
            "--plot-data", str(plot), "--summary",
        )
        assert code == 0
        assert out.endswith("0,1,1,1,0\n0,2,1,1,0\n")
        assert "1,2,0,0,0,0,0" in plot.read_text().splitlines()
        assert "1 2 0.000000 0.000000 0.000000 0.000000 0.000000" in err
        for text in (out, plot.read_text(), err):
            assert "-0" not in text

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--shape", "2x2x2", "--states", "2", "--seed", "-3"
        )
        assert code == 2
        assert out == ""
        assert "seed" in err and "Traceback" not in err

    def test_subset_policy_garbage_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--shape", "2x2", "--subset-policy", "frob=1"
        )
        assert code == 2

    def test_bad_shape_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--shape", "bogus")
        assert code == 2
        assert "error" in err

    def test_generator_without_energy_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--shape", "2x2", "--generator", "(0 1)"
        )
        assert code == 2

    def test_energy_without_generator_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--shape", "2x2", "--basis", "energy"
        )
        assert code == 2
        assert out == ""
        assert "Traceback" not in err


class TestEvolve:
    def test_series(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "evolve", "--shape", "2x2x2", "--generator", "(0 1 2 3 4 5 6)",
            "--mask", "1", "--ontic", "8:0x2D", "--t-max", "6",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert "t,s2_bits" in lines
        data = [ln for ln in lines if ln and not ln.startswith(("#", "t,"))]
        assert len(data) == 7
        assert data[0].startswith("0,")

    def test_version_line_and_byte_identical_reruns(self, tmp_path, capsys):
        args = [
            "evolve", "--shape", "2x3x2", "--generator", "(0 5 7 11)(1 2 3)",
            "--mask", "1,2", "--seed", "6", "--t-max", "11",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().split("\n")[0] == f"# tool=onticsim {__version__}"

    def test_wrap_guard_exit_code(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "evolve", "--shape", "2x2", "--generator", "(0 1)",
            "--mask", "1", "--ontic", "4:0x9", "--t-max", "5",
        )
        assert code == 2

    def test_negative_t_max_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys,
            "evolve", "--shape", "2x2", "--generator", "(0 1)",
            "--mask", "1", "--ontic", "4:0x9", "--t-max", "-1",
        )
        assert code == 2
        assert out == ""
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "t_max, wrap",
        [("99999999999999999999", ["--allow-wrap"]), (str(POINT_CAP), [])],
        ids=["1e20-wrap", "cap"],
    )
    def test_t_max_no_array_can_index_exits_2_before_the_run(
        self, capsys, monkeypatch, t_max, wrap
    ):
        calls = []
        monkeypatch.setattr(
            onticsim.cli, "run_time_series", lambda *args, **kwargs: calls.append(args)
        )
        code, out, err = run_cli(
            capsys,
            "evolve", "--shape", "2x2", "--generator", "(0 1 2 3)",
            "--mask", "1", "--t-max", t_max, *wrap,
        )
        assert (code, out, calls) == (2, "", [])
        assert err == (
            f"error: a time series of more than {POINT_CAP} points: no array can index that many\n"
        )

    def test_t_max_of_cap_points_reaches_the_run(self, capsys, monkeypatch):
        # t = 0..POINT_CAP - 1 is POINT_CAP points, the most the cap allows
        lengths = []

        def spy(shape, q, g, mask, t_range, allow_wrap=False):
            lengths.append(len(t_range))
            return []

        monkeypatch.setattr(onticsim.cli, "run_time_series", spy)
        code, _, _ = run_cli(
            capsys,
            "evolve", "--shape", "2x2", "--generator", "(0 1 2 3)",
            "--mask", "1", "--t-max", str(POINT_CAP - 1), "--allow-wrap", "--out", os.devnull,
        )
        assert (code, lengths) == (0, [POINT_CAP])

    def test_out_of_range_purity_exits_3(self, capsys, monkeypatch):
        kernel = onticsim.reduction._gram_stack
        monkeypatch.setattr(
            onticsim.reduction, "_gram_stack",
            lambda stack, mask, *buffers: kernel(stack * 1.5, mask, *buffers),
        )
        code, _, err = run_cli(
            capsys,
            "evolve", "--shape", "2x2", "--generator", "(0 1)",
            "--mask", "1", "--ontic", "4:0x9", "--t-max", "1",
        )
        assert code == 3
        assert "numeric invariant violated" in err
        assert "Traceback" not in err

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys,
            "evolve", "--shape", "2x2", "--generator", "(0 1)",
            "--mask", "1", "--seed", "-3", "--t-max", "1",
        )
        assert code == 2
        assert out == ""
        assert "seed" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "mask, message",
        [
            ("9", "position 9 outside 1..3"),
            ("0", "position 0 outside 1..3"),
            ("1,1", "position 1 given more than once"),
        ],
    )
    def test_bad_mask_exits_2_naming_the_typed_position(self, capsys, mask, message):
        code, out, err = run_cli(
            capsys,
            "evolve", "--shape", "2^3", "--generator", "(0 1)",
            "--mask", mask, "--ontic", "8:0x2D", "--t-max", "1",
        )
        assert code == 2
        assert out == ""
        assert message in err and "Traceback" not in err

    def test_allow_wrap(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "evolve", "--shape", "2x2", "--generator", "(0 1)",
            "--mask", "1", "--ontic", "4:0x9", "--t-max", "5", "--allow-wrap",
        )
        assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--shape", "2^6", "--states", "3", "--seed", "2"],
        ["evolve", "--shape", "2x3x2", "--generator", "(0 5 7 11)(1 2 3)", "--mask", "1,2",
         "--t-max", "11"],
        ["cycles", "--n", "6", "--samples", "50", "--seed", "4"],
    ],
    ids=lambda argv: argv[0],
)
def test_stdout_equals_file_output(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    code, stdout, _ = run_cli(capsys, *argv, "--out", "-")
    assert code == 0
    assert stdout.encode() == out.read_bytes()


@pytest.mark.parametrize(
    "run, argv, message",
    [
        ("run_sweep", ["sweep", "--shape", "2x2"], ""),
        (
            "run_time_series",
            ["evolve", "--shape", "2x2", "--generator", "(0 1)", "--mask", "1"],
            "Unable to allocate 8.00 TiB",
        ),
        ("run_cycle_census", ["cycles", "--n", "3"], "Unable to allocate 8.00 TiB"),
    ],
)
def test_out_of_memory_exits_2(run, argv, message, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(onticsim.cli, run, exhausted)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: out of memory: {message or 'MemoryError'}\n"


@pytest.mark.parametrize(
    "argv, what",
    [
        (["evolve", "--shape", "2^62", "--generator", "()", "--mask", "1"], "a shape"),
        (["evolve", "--shape", "2^64", "--generator", "()", "--mask", "1"], "a shape"),
        (["sweep", "--shape", "2^70", "--states", "1"], "a shape"),
        (["cycles", "--n", "100000000000000000000", "--samples", "1"], "a permutation"),
        (
            ["overlap", "--q", "100000000000000000000000:0x1",
             "--r", "100000000000000000000000:0x2"],
            "an ontic vector",
        ),
    ],
    ids=["evolve-2^62", "evolve-2^64", "sweep-2^70", "cycles-1e20", "overlap-1e23"],
)
def test_size_no_array_can_index_exits_2(argv, what, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: {what} of more than {POINT_CAP} points: no array can index that many\n"
    )


def unwritable_path(target, tmp_path):
    """An output path that opening for writing fails on: a file in a
    missing directory, a directory, or the empty path."""
    return {
        "missing-directory": tmp_path / "missing" / "x.csv",
        "directory": tmp_path,
        "empty": "",
    }[target]


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--shape", "2x2"],
        ["evolve", "--shape", "2x2", "--generator", "(0 1)", "--mask", "1", "--t-max", "1"],
        ["cycles", "--n", "5", "--samples", "10"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("target", ["missing-directory", "directory", "empty"])
def test_unwritable_out_exits_2(argv, target, tmp_path, capsys):
    path = unwritable_path(target, tmp_path)
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


@pytest.mark.parametrize("target", ["missing-directory", "directory", "empty"])
@pytest.mark.parametrize(
    "run, argv",
    [
        ("run_sweep", ["sweep", "--shape", "2x2", "--out"]),
        ("run_sweep", ["sweep", "--shape", "2x2", "--out", "/dev/null", "--plot-data"]),
        ("run_time_series",
         ["evolve", "--shape", "2x2", "--generator", "(0 1)", "--mask", "1", "--out"]),
        ("run_cycle_census", ["cycles", "--n", "5", "--out"]),
    ],
    ids=["sweep-out", "sweep-plot-data", "evolve-out", "cycles-out"],
)
def test_unwritable_output_exits_2_before_the_run(run, argv, target, tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(onticsim.cli, run, lambda *args, **kwargs: calls.append(args))
    path = unwritable_path(target, tmp_path)
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out, calls) == (2, "", [])
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err


def test_unwritable_plot_data_exits_2_before_the_csv(tmp_path, capsys):
    csv = tmp_path / "x.csv"
    csv.write_text("kept\n")
    plot = tmp_path / "missing" / "plot.txt"
    code, _, err = run_cli(
        capsys, "sweep", "--shape", "2x2", "--out", str(csv), "--plot-data", str(plot)
    )
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and str(plot) in err
    # every output is checked before the run, so the CSV is not even opened
    assert csv.read_text() == "kept\n"


@pytest.mark.parametrize(
    "out, plot, exists",
    [
        ("same.txt", "same.txt", True),
        ("same.txt", "same.txt", False),
        ("./same.txt", "same.txt", True),
        ("./same.txt", "same.txt", False),
        ("same.txt", "sub/../same.txt", False),
        ("same.txt", "{tmp}/same.txt", False),
        ("symlink.txt", "same.txt", True),
        ("symlink.txt", "same.txt", False),
        ("hardlink.txt", "same.txt", True),
    ],
    ids=["equal-existing", "equal-new", "dot-slash-existing", "dot-slash-new", "dot-dot-new",
         "absolute-new", "symlink-existing", "symlink-dangling", "hardlink-existing"],
)
def test_outputs_naming_one_file_exit_2_before_the_run(
    out, plot, exists, tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    if exists:
        (tmp_path / "same.txt").write_bytes(b"kept\r\n\x00")
    if out == "symlink.txt":
        (tmp_path / out).symlink_to(tmp_path / "same.txt")
    elif out == "hardlink.txt":
        (tmp_path / out).hardlink_to(tmp_path / "same.txt")
    calls = []
    monkeypatch.setattr(onticsim.cli, "run_sweep", lambda *args, **kwargs: calls.append(args))
    plot = plot.format(tmp=tmp_path)
    code, stdout, err = run_cli(
        capsys, "sweep", "--shape", "2x2", "--states", "1", "--out", out, "--plot-data", plot
    )
    assert (code, stdout, calls) == (2, "", [])
    assert err == f"error: outputs {out!r} and {plot!r} name the same file\n"
    if exists:
        assert (tmp_path / "same.txt").read_bytes() == b"kept\r\n\x00"
    else:
        assert not (tmp_path / "same.txt").exists()


@pytest.mark.parametrize("path", ["-", "/dev/null"])
def test_stdout_and_null_device_may_be_given_twice(path, capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--shape", "2x2", "--ontic", "4:0xC", "--out", path, "--plot-data", path
    )
    assert code == 0
    assert ("0,1,1,1,0\n" in out) == (path == "-")


@pytest.mark.parametrize(
    "outputs",
    [
        ["--plot-data", "{file}"],
        ["--out", "{file}", "--plot-data", "-"],
        ["--plot-data", "/dev/stdout"],
    ],
    ids=["csv-to-stdout", "plot-data-to-stdout", "dev-stdout"],
)
def test_named_output_that_is_stdout_exits_2_before_the_run(outputs, tmp_path):
    # stdout appends to a file that already holds bytes: a named output
    # opened on that file would truncate it
    src = Path(onticsim.cli.__file__).resolve().parents[1]
    target = tmp_path / "out.csv"
    target.write_bytes(b"kept\r\n\x00")
    outputs = [arg.format(file=target) for arg in outputs]
    with open(target, "ab") as stdout:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from onticsim.cli import main; sys.exit(main())",
             "sweep", "--shape", "2x2", "--states", "1", *outputs],
            stdout=stdout,
            stderr=subprocess.PIPE,
            env={"PYTHONPATH": str(src), "PATH": ""},
            timeout=60,
        )
    named = next(arg for arg in outputs if arg.startswith("/"))
    assert proc.returncode == 2
    assert proc.stderr == f"error: output {named!r} is the file stdout writes to\n".encode()
    assert target.read_bytes() == b"kept\r\n\x00"


@pytest.mark.parametrize(
    "shape, states, reads",
    [
        # about 1 MB of CSV, far more than a pipe buffers, so the writer is
        # still writing when the reader goes away after one line
        ("2^10", "20", 1),
        # a table small enough to sit in stdout's buffer until the flush at
        # the end of the run, with the reader gone before the run starts
        ("2x2", "1", 0),
    ],
    ids=["closed-while-writing", "closed-before-the-run"],
)
def test_closed_stdout_exits_1_without_traceback(shape, states, reads):
    src = Path(onticsim.cli.__file__).resolve().parents[1]
    read_end, write_end = os.pipe()
    reader = os.fdopen(read_end, "rb")
    if not reads:
        reader.close()
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from onticsim.cli import main; sys.exit(main())",
         "sweep", "--shape", shape, "--states", states],
        stdout=write_end,
        stderr=subprocess.PIPE,
        env={"PYTHONPATH": str(src), "PATH": ""},
    )
    os.close(write_end)
    if reads:
        assert reader.readline().startswith(b"# tool=")
        reader.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""  # no traceback, no "Exception ignored" at exit


def readme_commands():
    """Every `onticsim ...` line of the README's CLI block, with
    backslash continuations joined."""
    text = README.read_text()
    block = text[text.index("## CLI") :].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.startswith("onticsim ")]


class TestReadme:
    def test_block_found(self):
        assert len(readme_commands()) >= 7

    @pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: f"{argv[1]} {argv[3]}")
    def test_cli_example_runs(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(capsys, *argv[1:])
        assert code == 0, err
