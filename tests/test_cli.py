"""Tests for the command line interface."""

import math

import onticsim.reduction
from onticsim import __version__
from onticsim.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert "max_complement_asymmetry" in plot.read_text()
        assert "size count min mean max" in err

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
        kernel = onticsim.reduction._stack_purities
        monkeypatch.setattr(
            onticsim.reduction, "_stack_purities",
            lambda stack, mask: kernel(stack * 1.5, mask),
        )
        code, _, err = run_cli(capsys, "sweep", "--shape", "2x2x2", "--states", "2")
        assert code == 3
        assert "numeric invariant violated" in err
        assert "Traceback" not in err

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

    def test_out_of_range_purity_exits_3(self, capsys, monkeypatch):
        kernel = onticsim.reduction._stack_purities
        monkeypatch.setattr(
            onticsim.reduction, "_stack_purities",
            lambda stack, mask: kernel(stack * 1.5, mask),
        )
        code, _, err = run_cli(
            capsys,
            "evolve", "--shape", "2x2", "--generator", "(0 1)",
            "--mask", "1", "--ontic", "4:0x9", "--t-max", "1",
        )
        assert code == 3
        assert "numeric invariant violated" in err
        assert "Traceback" not in err

    def test_allow_wrap(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "evolve", "--shape", "2x2", "--generator", "(0 1)",
            "--mask", "1", "--ontic", "4:0x9", "--t-max", "5", "--allow-wrap",
        )
        assert code == 0
