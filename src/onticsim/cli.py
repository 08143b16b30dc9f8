"""Command line interface.

Subcommands: ``sweep`` (subsystem entropies over random states), ``evolve``
(entropy time series under a permutation generator), ``cycles`` (cycle
statistics of random permutations), ``overlap`` (state overlap of two bit
patterns), ``area`` (orthant sphere area and the state-count lower bound).

Exit codes: 0 success, 2 configuration error, 3 numeric-invariant
violation.
"""

from __future__ import annotations

import argparse
import sys

from .bitstate import OnticVector, inner_ontic, overlap_standard, popcount, random_ontic
from .errors import ConfigError, NumericViolation, OnticsimError
from .experiment import (
    SweepConfig,
    _tool_version,
    plot_data_text,
    run_cycle_census,
    run_sweep,
    run_time_series,
    summarize_by_size,
    sweep_csv,
)
from .indexing import (
    FactorizationShape,
    SubsystemMask,
    natural_state_lower_bound,
    orthant_sphere_area,
)
from .permrep import Permutation


def _write_output(path: str | None, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse integer list {text!r}") from exc


def _parse_subset_policy(text: str) -> tuple[tuple[int, ...] | None, int | None]:
    """Grammar: "all-proper" | "sizes=1,2,3" | "sampled=4" | both joined by ';'.

    Returns (subset_sizes, samples_per_size).
    """
    sizes = None
    samples = None
    for part in text.split(";"):
        part = part.strip()
        if not part or part == "all-proper":
            continue
        key, sep, value = part.partition("=")
        if not sep:
            raise ConfigError(f"cannot parse subset policy part {part!r}")
        if key == "sizes":
            sizes = _parse_int_list(value)
        elif key == "sampled":
            value = value.removesuffix("-per-size")
            try:
                samples = int(value)
            except ValueError as exc:
                raise ConfigError(f"cannot parse sample count {value!r}") from exc
        else:
            raise ConfigError(f"unknown subset policy key {key!r}")
    return sizes, samples


def cmd_sweep(args: argparse.Namespace) -> int:
    shape = FactorizationShape.parse(args.shape)
    generator = (
        Permutation.parse(shape.total, args.generator) if args.generator else None
    )
    vectors = (
        tuple(OnticVector.parse(s) for s in args.ontic) if args.ontic else None
    )
    sizes, samples = _parse_subset_policy(args.subset_policy)
    config = SweepConfig(
        shape=shape,
        num_states=len(vectors) if vectors else args.states,
        seed=args.seed,
        basis=args.basis,
        generator=generator,
        subset_sizes=sizes,
        samples_per_size=samples,
        density=args.density,
        ontic_vectors=vectors,
    )
    records = run_sweep(config)
    _write_output(args.out, sweep_csv(records, config))
    if args.plot_data:
        _write_output(args.plot_data, plot_data_text(records, config))
    if args.summary:
        summary = summarize_by_size(records, k=shape.k)
        print(f"# max_complement_asymmetry={summary.max_complement_asymmetry:.3e}",
              file=sys.stderr)
        print("size count min mean max std state_mean_std", file=sys.stderr)
        for row in summary.by_size:
            print(
                f"{row.size} {row.count} {row.min_s2:.6f} {row.mean_s2:.6f} "
                f"{row.max_s2:.6f} {row.std_s2:.6f} {row.state_mean_std:.6f}",
                file=sys.stderr,
            )
    return 0


def cmd_evolve(args: argparse.Namespace) -> int:
    shape = FactorizationShape.parse(args.shape)
    g = Permutation.parse(shape.total, args.generator)
    mask = SubsystemMask.parse(shape, args.mask)
    if args.ontic:
        q = OnticVector.parse(args.ontic)
    else:
        q = random_ontic(shape.total, args.seed)
    series = run_time_series(
        shape, q, g, mask, range(args.t_max + 1), allow_wrap=args.allow_wrap
    )
    lines = [
        f"# tool=onticsim {_tool_version()}",
        f"# shape={shape}",
        f"# ontic={q.serialize()}",
        f"# generator={g.cycle_string()}",
        f"# mask={args.mask}",
        "t,s2_bits",
    ]
    lines += [f"{t},{s2:.17g}" for t, s2 in series]
    _write_output(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_cycles(args: argparse.Namespace) -> int:
    census = run_cycle_census(args.n, args.samples, args.seed)
    lines = [
        f"# tool=onticsim {_tool_version()}",
        f"# n={census.n}",
        f"# samples={census.samples}",
        "length,mean,std_error,expected,flagged",
    ]
    for s in census.stats:
        lines.append(
            f"{s.length},{s.mean:.17g},{s.std_error:.17g},"
            f"{s.expected:.17g},{int(s.flagged)}"
        )
    _write_output(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_overlap(args: argparse.Namespace) -> int:
    q = OnticVector.parse(args.q)
    r = OnticVector.parse(args.r)
    print(f"q={q.serialize()} popcount={popcount(q)}")
    print(f"r={r.serialize()} popcount={popcount(r)}")
    print(f"inner_ontic={inner_ontic(q, r)}")
    print(f"overlap_standard={overlap_standard(q, r):.17g}")
    return 0


def cmd_area(args: argparse.Namespace) -> int:
    print(f"orthant_sphere_area={orthant_sphere_area(args.n):.17g}")
    if args.n >= 2:
        print(f"natural_state_lower_bound={natural_state_lower_bound(args.n)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onticsim",
        description="Subsystem entropies of bit-vector quantum states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="entropy of every subsystem for random states")
    p.add_argument("--shape", required=True, help="factorization, e.g. 2^12 or 2x3x2")
    p.add_argument("--states", type=int, default=10, help="number of random states")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--basis", choices=("ontic", "energy"), default="ontic")
    p.add_argument("--generator", help='cycle notation, e.g. "(0 1 2)(3 4)"')
    p.add_argument(
        "--subset-policy",
        default="all-proper",
        help='"all-proper", "sizes=1,2,3", "sampled=4", or "sizes=...;sampled=..."',
    )
    p.add_argument("--density", type=float, help="fixed popcount fraction for states")
    p.add_argument("--ontic", action="append", help="explicit state n:0xHEX (repeatable)")
    p.add_argument("--out", default="-", help="CSV destination (default stdout)")
    p.add_argument("--plot-data", help="also write the per-size envelope here")
    p.add_argument("--summary", action="store_true", help="print per-size summary")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("evolve", help="subsystem entropy along a permutation evolution")
    p.add_argument("--shape", required=True)
    p.add_argument("--generator", required=True)
    p.add_argument("--mask", required=True, help="1-based positions, e.g. 1,3")
    p.add_argument("--ontic", help="state as n:0xHEX (default: random from --seed)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t-max", type=int, default=16)
    p.add_argument("--allow-wrap", action="store_true",
                   help="permit times beyond one period of the generator")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("cycles", help="cycle-count statistics of random permutations")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_cycles)

    p = sub.add_parser("overlap", help="overlap of the states of two bit patterns")
    p.add_argument("--q", required=True, help="pattern as n:0xHEX")
    p.add_argument("--r", required=True, help="pattern as n:0xHEX")
    p.set_defaults(func=cmd_overlap)

    p = sub.add_parser("area", help="orthant sphere area and state-count bound")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_area)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericViolation as exc:
        print(f"numeric invariant violated: {exc}", file=sys.stderr)
        return 3
    except OnticsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
