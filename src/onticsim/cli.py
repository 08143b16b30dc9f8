"""Command line interface.

Subcommands: ``sweep`` (subsystem entropies over random states), ``evolve``
(entropy time series under a permutation generator), ``cycles`` (cycle
statistics of random permutations), ``overlap`` (state overlap of two bit
patterns), ``area`` (orthant sphere area and the state-count lower bound).

Exit codes: 0 success, 2 configuration error, an output that cannot be
opened or written (a directory, a file in a missing directory, or two
outputs naming one file, is rejected before the run), or a run that does
not fit in memory, 3 numeric-invariant violation.  A stdout closed by
its reader (``| head``) ends the run silently with exit 1, as Python's
own SIGPIPE handling does.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
from collections.abc import Iterable

from .bitstate import OnticVector, inner_ontic, overlap_standard, popcount, random_ontic
from .errors import ConfigError, NumericViolation, OnticsimError
from .experiment import (
    SweepConfig,
    _table,
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
    check_points,
    natural_state_lower_bound,
    orthant_sphere_area,
)
from .permrep import Permutation


def _check_outputs(*paths: str | None) -> None:
    """Raise the OSError that opening an output would raise for a path
    that is a directory or lies in a missing directory, before any work is
    done and without opening or truncating anything; ConfigError for two
    paths that name one file, which the second write would truncate.
    Stdout (None or "-") passes, and so does the null device."""
    files: list[str] = []
    for path in paths:
        if path in (None, "-"):
            continue
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        if path == os.devnull:
            continue
        for other in files:
            if (
                os.path.samefile(other, path)
                if os.path.exists(other) and os.path.exists(path)
                else os.path.realpath(other) == os.path.realpath(path)
            ):
                raise ConfigError(f"outputs {other!r} and {path!r} name the same file")
        files.append(path)


def _write_output(path: str | None, blocks: Iterable[str]) -> None:
    """Write text blocks to stdout (path None or "-") or to the file at
    ``path``, each as soon as it is made."""
    if path in (None, "-"):
        sys.stdout.writelines(blocks)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.writelines(blocks)


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
    _check_outputs(args.out, args.plot_data)
    shape = FactorizationShape.parse(args.shape)
    if (args.basis == "energy") != bool(args.generator):
        raise ConfigError("--basis energy and --generator must be given together")
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
        generator=generator,
        subset_sizes=sizes,
        samples_per_size=samples,
        density=args.density,
        ontic_vectors=vectors,
    )
    result = run_sweep(config)
    _write_output(args.out, sweep_csv(result, config))
    if args.plot_data:
        _write_output(args.plot_data, plot_data_text(result, config))
    if args.summary:
        summary = summarize_by_size(result, shape)
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
    _check_outputs(args.out)
    if args.t_max < 0:
        raise ConfigError(f"--t-max must be >= 0, got {args.t_max}")
    check_points(args.t_max + 1, "a time series")
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
    comments = [
        f"shape={shape}",
        f"ontic={q.serialize()}",
        f"generator={g.cycle_string()}",
        f"mask={args.mask}",
    ]
    rows = (f"{t},{s2:.17g}\n" for t, s2 in series)
    _write_output(args.out, _table(comments, "t,s2_bits", rows))
    return 0


def cmd_cycles(args: argparse.Namespace) -> int:
    _check_outputs(args.out)
    census = run_cycle_census(args.n, args.samples, args.seed)
    rows = (
        f"{s.length},{s.mean:.17g},{s.std_error:.17g},{s.expected:.17g},{int(s.flagged)}\n"
        for s in census.stats
    )
    header = "length,mean,std_error,expected,flagged"
    _write_output(args.out, _table([f"n={census.n}", f"samples={census.samples}"], header, rows))
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
    # 2**n - 2 has floor(n log10 2) + 1 digits; str() refuses more than
    # Python's int-to-str limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and args.n > limit / math.log10(2):
        raise ConfigError(f"--n {args.n}: the state-count bound has over {limit} digits")
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
        code = args.func(args)
        # a reader that closed stdout early is seen here, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Python flushes stdout again at exit: send what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericViolation as exc:
        print(f"numeric invariant violated: {exc}", file=sys.stderr)
        return 3
    except OnticsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'MemoryError'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
