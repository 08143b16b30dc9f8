"""Self-tests of the benchmark's output checks and tracer, on tiny shapes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import random
import sys

import pytest

import checks
import run
import tracing

sys.path.insert(0, str(run.SRC))
from onticsim.cli import main  # noqa: E402

STATES = (0b10110010, 0b01100001)  # two 8-bit patterns for the 2x2x2 shape
IMAGES = (1, 2, 3, 4, 5, 6, 0, 7)  # the 7-cycle (0 1 2 3 4 5 6)


def cli(*argv: str) -> None:
    assert main(list(argv)) == 0


@pytest.fixture
def sweep(tmp_path):
    csv, plot = tmp_path / "sweep.csv", tmp_path / "plot.txt"
    args = ["sweep", "--shape", "2x2x2", "--out", str(csv), "--plot-data", str(plot)]
    for bits in STATES:
        args += ["--ontic", f"8:0x{bits:X}"]
    cli(*args)
    spec = checks.SweepSpec((2, 2, 2), STATES, True, 6)
    return csv, plot, spec


def sweep_errors(text: str, spec, plot_text=None) -> list[str]:
    return checks.check_sweep(text, spec, random.Random(0), plot_text)


def replace_row(text: str, index: int, purity: float, s2: float) -> str:
    """Overwrite purity and s2 of the data row at ``index`` (negative from the end)."""
    lines = text.splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if line.startswith("state_id"))
    rows = list(range(header + 1, len(lines)))
    fields = lines[rows[index]].split(",")
    lines[rows[index]] = ",".join(fields[:3] + [f"{purity:.17g}", f"{s2:.17g}"]) + "\n"
    return "".join(lines)


def test_clean_sweep_passes(sweep):
    csv, plot, spec = sweep
    assert sweep_errors(csv.read_text(), spec, plot.read_text()) == []


def test_corrupted_purity_fails(sweep):
    csv, _, spec = sweep
    text = csv.read_text()
    row = text.splitlines()[-1].split(",")
    purity = float(row[3]) * (1 + 1e-6)
    broken = replace_row(text, -1, purity, float(row[4]))
    assert sweep_errors(broken, spec)


def test_consistently_corrupted_purity_fails_the_oracle(sweep):
    csv, _, spec = sweep
    text = csv.read_text()
    row = text.splitlines()[-1].split(",")
    purity = float(row[3]) * (1 + 1e-6)
    broken = replace_row(text, -1, purity, -math.log2(purity))
    errors = sweep_errors(broken, spec)
    assert any("oracle" in e for e in errors)


def test_dropped_row_fails(sweep):
    csv, _, spec = sweep
    lines = csv.read_text().splitlines(keepends=True)
    errors = sweep_errors("".join(lines[:-1]), spec)
    assert any("distinct rows" in e for e in errors)


def test_out_of_range_purity_fails(sweep):
    csv, _, spec = sweep
    errors = sweep_errors(replace_row(csv.read_text(), 0, 1.5, 0.0), spec)
    assert any("outside" in e for e in errors)


def test_plot_envelope_mismatch_fails(sweep):
    csv, plot, spec = sweep
    text = plot.read_text().replace("\n1,6,", "\n1,7,")
    assert sweep_errors(csv.read_text(), spec, text)


def test_non_identical_rerun_fails(sweep):
    csv, _, spec = sweep
    call = run.Call("sweep", (), {"csv": csv}, spec, 12)
    verifier = run.Verifier(seed=0)
    verifier.record(0, call, 0, "")
    verifier.record(0, call, 0, "")
    assert (verifier.attempted, verifier.failed) == (2, 0)
    # a change the content checks accept must still fail the rerun check
    csv.write_text(csv.read_text().replace("# seed=0", "# seed=1"))
    assert sweep_errors(csv.read_text(), spec) == []
    verifier.record(0, call, 0, "")
    assert verifier.failed == 1
    assert "differs" in verifier.errors[-1]


def test_failed_process_fails():
    assert checks.check_process(2, "")
    assert checks.check_process(0, "Traceback (most recent call last):\n")
    assert checks.check_process(0, "") == []


def test_evolve_oracle(tmp_path):
    out = tmp_path / "evolve.csv"
    cycles = run.cycle_notation(list(IMAGES))
    cli("evolve", "--shape", "2x2x2", "--generator", cycles, "--mask", "1,3",
        "--ontic", f"8:0x{STATES[0]:X}", "--t-max", "6", "--out", str(out))
    spec = checks.EvolveSpec((2, 2, 2), STATES[0], IMAGES, (0, 2), 6, 7)
    text = out.read_text()
    assert checks.check_evolve(text, spec, random.Random(0)) == []
    lines = text.splitlines()
    t, s2 = lines[-1].split(",")
    broken = "\n".join(lines[:-1] + [f"{t},{float(s2) + 0.01:.17g}"]) + "\n"
    assert checks.check_evolve(broken, spec, random.Random(0))
    assert checks.check_evolve("\n".join(lines[:-1]) + "\n", spec, random.Random(0))


def test_census_identity(tmp_path):
    out = tmp_path / "cycles.csv"
    cli("cycles", "--n", "5", "--samples", "1000", "--seed", "3", "--out", str(out))
    spec = checks.CensusSpec(5, 1000)
    text = out.read_text()
    assert checks.check_census(text, spec) == []
    lines = text.splitlines()
    fields = lines[-1].split(",")
    fields[1] = repr(float(fields[1]) + 0.01)
    broken = "\n".join(lines[:-1] + [",".join(fields)]) + "\n"
    assert any("sum of l*mean_l" in e for e in checks.check_census(broken, spec))


def test_tracer_reports_missing_names(monkeypatch, sweep):
    import onticsim.experiment as experiment

    csv, _, _ = sweep
    original = experiment.purity
    monkeypatch.setattr(tracing, "TRACED", tracing.TRACED + (
        ("gone.function", "onticsim.experiment", "no_such_function"),
        ("gone.module", "onticsim.no_such_module", "f"),
    ))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert experiment.purity is not original
        tracer.call_root(main, ["sweep", "--shape", "2x2", "--ontic", "4:0xC",
                                "--out", str(csv)])
    finally:
        tracer.remove()
    assert experiment.purity is original
    assert tracer.missing == ["gone.function", "gone.module"]
    totals = tracer.totals()
    assert totals["reduction.purity"]["calls"] == 2
    root = totals[tracing.ROOT]
    assert root["s"] >= sum(v["self_s"] for k, v in totals.items() if k != tracing.ROOT)
