"""Command-line front end: fit, gof, simulate, lifetable, sample.

Data files are numeric CSV (optional header, '#' comments); all
randomness is seed-explicit and echoed in output headers. Exit codes:
0 success, 1 internal numeric failure, 2 usage or data error.
"""

import argparse
import csv
import sys
from contextlib import contextmanager

from .bootstrap import DEFAULT_TESTS, _a_column, _expand_tests, bootstrap_many
from .distributions import alt_sample
from .edf_tests import _fit_clip_count
from .estimation import fit_mle
from .lifetable import (
    _read_rows,
    hazard_to_pmf,
    read_lifetable,
    sample_lifetimes,
    truncate_pmf,
    write_pmf,
)
from .simulation import (
    DEFAULT_A_GRID,
    _split_list,
    config_from_file,
    parse_family,
    report_to_csv,
    run_study,
)

__all__ = ["main"]


@contextmanager
def _output(path):
    """The file at `path` opened for writing, or stdout when no path is given."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w", newline="") as fh:
        yield fh


def _write_column(path, values, seed=None):
    with _output(path) as fh:
        fh.write(f"# seed={seed}\n" if seed is not None else "")
        fh.write("value\n")
        for v in values:
            fh.write(f"{v:.15g}\n")


def cmd_fit(args):
    x = _read_rows(args.input)
    fit = fit_mle(x)
    print(f"n={x.size}")
    print(f"eta_hat={fit.eta_hat:.15g}")
    print(f"b_hat={fit.b_hat:.15g}")
    print(f"b_pilot={fit.b_pilot:.15g}")
    print(f"converged={fit.converged}")
    print(f"fallback_used={fit.fallback_used}")
    print(f"iterations={fit.iterations}")
    return 0


def cmd_gof(args):
    x = _read_rows(args.input)
    kinds = _expand_tests(_split_list(args.test), [float(a) for a in _split_list(args.a)])
    outcomes = bootstrap_many(x, kinds, B=args.bootstrap, alpha=args.alpha, seed=args.seed)
    first = outcomes[kinds[0]]
    fit = first.fit
    clipped = _fit_clip_count(x, fit)
    with _output(args.output) as fh:
        fh.write(f"# seed={args.seed} n={x.size} B={args.bootstrap} alpha={args.alpha:g}\n")
        fh.write(
            f"# eta_hat={fit.eta_hat:.15g} b_hat={fit.b_hat:.15g} "
            f"fallback_used={fit.fallback_used} iterations={fit.iterations} "
            f"notfound_boot={first.not_found_frequency_bootstrap:.15g} clipped={clipped}\n"
        )
        writer = csv.writer(fh)
        writer.writerow(["test", "a", "statistic", "p_value", "critical_value", "reject"])
        for kind in kinds:
            out = outcomes[kind]
            writer.writerow(
                [
                    kind.name,
                    _a_column(kind),
                    f"{out.statistic:.15g}",
                    f"{out.p_value:.15g}",
                    f"{out.critical_value:.15g}",
                    int(out.reject),
                ]
            )
    return 0


def cmd_simulate(args):
    config = config_from_file(args.config)
    report = run_study(config, workers=args.workers, progress=True)
    text = report_to_csv(report)
    with _output(args.output) as fh:
        fh.write(f"# seed={config.seed}\n")
        fh.write(text)
    print(
        f"[study] done: {len(report.cells)} cells in {report.seconds:.1f}s",
        file=sys.stderr,
    )
    return 0


def cmd_lifetable(args):
    table = read_lifetable(args.input)
    pmf = hazard_to_pmf(table)
    if args.truncate is not None:
        pmf = truncate_pmf(pmf, args.truncate[0], args.truncate[1])
    values = sample_lifetimes(pmf, args.n, args.seed, jitter=args.jitter)
    _write_column(args.output, values, seed=args.seed)
    if args.pmf_output:
        write_pmf(pmf, args.pmf_output)
    return 0


def cmd_sample(args):
    values = alt_sample(parse_family(" ".join(args.spec)), args.n, args.seed)
    _write_column(args.output, values, seed=args.seed)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gomptest",
        description="Goodness-of-fit tests for the Gompertz distribution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="maximum likelihood fit of a sample")
    p_fit.add_argument("--input", required=True, help="single-column CSV of positive values")
    p_fit.set_defaults(func=cmd_fit)

    p_gof = sub.add_parser("gof", help="bootstrap goodness-of-fit tests")
    p_gof.add_argument("--input", required=True, help="single-column CSV of positive values")
    p_gof.add_argument("--output", default=None, help="write results CSV here (default stdout)")
    p_gof.add_argument("--test", default=",".join(DEFAULT_TESTS),
                       help=f"comma list from {{{','.join(DEFAULT_TESTS)}}}")
    p_gof.add_argument("--a", default=",".join(f"{a:g}" for a in DEFAULT_A_GRID),
                       help="comma list of weight parameters for the stein test")
    p_gof.add_argument("--bootstrap", type=int, default=500, metavar="B")
    p_gof.add_argument("--alpha", type=float, default=0.05)
    p_gof.add_argument("--seed", type=int, default=0)
    p_gof.set_defaults(func=cmd_gof)

    p_sim = sub.add_parser("simulate", help="run a Monte-Carlo study from a config file")
    p_sim.add_argument("--config", required=True, help="flat key=value study config")
    p_sim.add_argument("--output", default=None, help="write report CSV here (default stdout)")
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.set_defaults(func=cmd_simulate)

    p_lt = sub.add_parser("lifetable", help="sample lifetimes from a hazard table")
    p_lt.add_argument("--input", required=True, help="two-column CSV (age, hazard)")
    p_lt.add_argument("--output", default=None, help="write sample CSV here (default stdout)")
    p_lt.add_argument("--n", type=int, required=True)
    p_lt.add_argument("--seed", type=int, default=0)
    p_lt.add_argument("--truncate", type=int, nargs=2, metavar=("L", "R"), default=None)
    p_lt.add_argument("--jitter", action="store_true",
                      help="add U(0,1) within-year noise to the integer ages")
    p_lt.add_argument("--pmf-output", default=None, help="also write the pmf CSV here")
    p_lt.set_defaults(func=cmd_lifetable)

    p_smp = sub.add_parser("sample", help="draw from a distribution family")
    p_smp.add_argument("spec", nargs="+", help="family spec, e.g. gompertz eta=1 b=1")
    p_smp.add_argument("--n", type=int, required=True)
    p_smp.add_argument("--seed", type=int, default=0)
    p_smp.add_argument("--output", default=None, help="write sample CSV here (default stdout)")
    p_smp.set_defaults(func=cmd_sample)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
