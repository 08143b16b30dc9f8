"""Argv for every subcommand drawn from small grammars, valid and
malformed, run through ``cli.main`` in-process: each ends in exit 0, 2 or
3 (argparse's own exit counts as 2), and nothing else is raised.  A sweep
whose ``--out`` and ``--plot-data`` name one file, under any spelling,
ends in exit 2."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onticsim.cli import main

# (valid, malformed) values of each argument; every valid size is capped so
# that a drawn run takes milliseconds
SHAPES = {"2x2": 4, "2^3": 8, "2x3": 6, "3x2x2": 12, "2^4": 16, "2x2x4": 16, "4^3": 64}
BAD_SHAPES = ["4", "2^1", "0x2", "1x2", "2^0", "2^-1", "2^70", "a", "", "2x", "-2x2", "2^3^2"]
STATES = (["1", "2", "3"], ["-7", "-1", "0", "a", "1.5", ""])
SEEDS = (["0", "1", "7", "1099511627776"], ["-5", "-1", "x"])
CYCLES = (
    ["()", "", "(0 1)", "(0 1 2)(3 4)", "(3 0 1)", "(0,1,2)"],
    ["(0 0)", "(0 1", "(a b)", "(0 99999)", "(-1 2)", "0 1", "(0 1)(1 2)", "(0 1))"],
)
POLICIES = (
    ["all-proper", "sizes=1", "sizes=1,2", "sampled=1", "sampled=2-per-size", "sizes=1;sampled=2"],
    ["sizes=", "sizes=0", "sizes=a", "sampled=0", "sampled=-1", "foo=1", "sizes", "sampled=x"],
)
DENSITIES = (["0.5", "0.25", "1e-9", "0.999"], ["0", "1", "-0.1", "1.5", "nan", "inf", "a"])
BAD_ONTICS = ["4:0x0", "4:0xF", "4:0x1F", "0:0x0", "-1:0x1", "4", "4:", ":0x1", "4:0xC:1",
              "4:0xG", "a:0x1"]
MASKS = (["1", "2", "1,2", "2,1"], ["", "0", "9", "-1", "1,1", "a", "1,,2"])
T_MAX = (["0", "1", "5", "20"], ["-1", "a"])
CENSUS_N = (["1", "2", "5", "20"], ["-1", "0", "100000000000000000000", "a"])
SAMPLES = (["1", "10", "50"], ["-1", "0", "a"])
AREA_N = (["1", "2", "12", "100"], ["-1", "0", "20000", "a"])


def argv(outputs, bad, shape):
    """A subcommand and its options.  With ``bad`` unset every value is
    valid, every required option present, the shape is ``shape`` and the
    bit patterns have its number of points; with it set, any value may be
    malformed and any option missing."""
    n = SHAPES[shape]
    ontics = ([f"{n}:0x1", f"{n}:0x{(1 << n) - 2:X}", f"{n}:0x{(1 << n) // 3:X}"], BAD_ONTICS)
    shapes = ([shape], list(SHAPES) + BAD_SHAPES)

    def opt(flag, grammar, required=False):
        valid, malformed = grammar
        drawn = st.sampled_from(valid + malformed if bad else valid).map(lambda v: [flag, v])
        return drawn if required and not bad else st.one_of(st.just([]), drawn)

    def switch(flag):
        return st.sampled_from([[], [flag]])

    def command(name, *parts):
        return st.tuples(*parts).map(lambda drawn: [name] + [a for part in drawn for a in part])

    out = opt("--out", outputs)
    # a sweep's two outputs drawn apart, or one value drawn for both
    sweep_outs = st.one_of(
        st.tuples(out, opt("--plot-data", outputs)).map(lambda pair: pair[0] + pair[1]),
        st.sampled_from(outputs[0]).map(lambda v: ["--out", v, "--plot-data", v]),
    )
    # an energy-basis sweep needs a generator; a malformed run may give
    # either alone
    basis = (
        st.tuples(opt("--basis", (["ontic", "energy"], ["x"])), opt("--generator", CYCLES))
        .map(lambda pair: pair[0] + pair[1])
        if bad else opt("--generator", CYCLES).map(lambda g: g and ["--basis", "energy"] + g)
    )
    commands = [
        command(
            "sweep", opt("--shape", shapes, True), opt("--states", STATES),
            opt("--seed", SEEDS), basis, opt("--subset-policy", POLICIES),
            opt("--density", DENSITIES), opt("--ontic", ontics), opt("--ontic", ontics),
            sweep_outs, switch("--summary"),
        ),
        command(
            "evolve", opt("--shape", shapes, True), opt("--generator", CYCLES, True),
            opt("--mask", MASKS, True), opt("--ontic", ontics), opt("--seed", SEEDS),
            opt("--t-max", T_MAX), switch("--allow-wrap"), out,
        ),
        # --samples is always given: its default draws 100,000 permutations
        command(
            "cycles", opt("--n", CENSUS_N),
            st.sampled_from(SAMPLES[0] + (SAMPLES[1] if bad else []))
            .map(lambda v: ["--samples", v]),
            opt("--seed", SEEDS), out,
        ),
        command("overlap", opt("--q", ontics, True), opt("--r", ontics, True)),
        command("area", opt("--n", AREA_N, True)),
    ]
    if bad:
        # no subcommand, one that does not exist, or an unknown option
        commands.append(st.sampled_from([[], ["bogus"], ["--bogus"], ["sweep", "--bogus"]]))
    return st.one_of(commands)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Output paths: stdout, /dev/null and one file under three spellings
    (plain, through ``..`` and through a symlink), then a directory and a
    file in a missing directory."""
    base = tmp_path_factory.mktemp("fuzz")
    (base / "sub").mkdir()
    (base / "link.csv").symlink_to(base / "x.csv")
    files = [str(base / "x.csv"), str(base / "sub" / ".." / "x.csv"), str(base / "link.csv")]
    return (["-", "/dev/null"] + files, [str(base), str(base / "missing" / "x.csv")])


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_every_drawn_argv_exits_0_2_or_3(outputs, data):
    drawn = st.tuples(st.booleans(), st.sampled_from(list(SHAPES)))
    args = data.draw(drawn.flatmap(lambda pair: argv(outputs, *pair)), label="argv")
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 2, 3), args
    files = [
        os.path.realpath(value) for flag, value in zip(args, args[1:])
        if flag in ("--out", "--plot-data") and value not in ("-", "/dev/null")
    ]
    if len(files) == 2 and files[0] == files[1]:
        assert code == 2, args
