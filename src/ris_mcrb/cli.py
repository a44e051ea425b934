"""Command-line front end: seeded sweeps to CSV.

Each flag is declared once, on an argparse parent parser: ``--config``,
``--seed`` and ``--out`` on every subcommand, and the flags that the two
power sweeps, and the two spacing sweeps, share. A grid flag stores under
the ``SweepRequest`` field it fills and each sweep subcommand declares its
kind and runner, so ``_run`` builds every request in one place.

Exit codes: 0 success, 2 config/validation error, 3 numerical failure
(singular systems, non-convergent quadrature) or an array too large for
memory, 4 I/O failure (an unusable ``--out``, or a ``--dump-model`` path
that is a file, before the sweep runs).

The CLI sets no BLAS thread count: each sweep runner runs its BLAS work
single-threaded and restores the caller's counts when it returns, so the
CSV bytes depend neither on the host's core count nor on
``OPENBLAS_NUM_THREADS``.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import os
import re
import sys

from .errors import ComputationError, ConfigError
from .experiments import (
    DEFAULT_CRLB_POWER_DBM,
    DEFAULT_LB_SPACINGS,
    DEFAULT_POWER_GRID_DBM,
    DEFAULT_SIZES,
    DEFAULT_SPACING_GRID,
    SweepRequest,
    csv_text,
    dump_model_csv,
    emit_csv,
    run_bias_vs_spacing,
    run_crlb_vs_spacing,
    run_impedance_sweep,
    run_lb_vs_power,
    run_mc_rmse,
)
from .scenario import default_scenario, load_scenario_file


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _size_list(text: str) -> list[tuple[int, int]]:
    sizes = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        parts = tok.lower().split("x")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(f"expected sizes like 4x4, got {tok!r}")
        try:
            sizes.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected sizes like 4x4, got {tok!r}")
    if not sizes:
        raise argparse.ArgumentTypeError("size list is empty")
    return sizes


def _listed(values) -> str:
    """A default grid as the comma list its flag takes."""
    return ",".join(f"{v[0]}x{v[1]}" if isinstance(v, tuple) else f"{v:g}"
                    for v in values)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="scenario config (YAML)")
    common.add_argument("--seed", type=int, metavar="N",
                        help="override the scenario master seed")
    common.add_argument("--out", metavar="CSV",
                        help="output path (default: stdout)")

    power = argparse.ArgumentParser(add_help=False)
    power.add_argument("--powers-dbm", dest="power_grid", type=_float_list,
                       default=DEFAULT_POWER_GRID_DBM, metavar="LIST",
                       help="transmit powers in dBm "
                            f"(default: {_listed(DEFAULT_POWER_GRID_DBM)})")
    power.add_argument("--spacings-over-lambda", dest="spacing_grid",
                       type=_float_list, default=DEFAULT_LB_SPACINGS, metavar="LIST",
                       help="RIS element spacings in wavelengths, one curve each "
                            f"(default: {_listed(DEFAULT_LB_SPACINGS)})")
    power.add_argument("--matched", action="store_true",
                       help="estimate with the coupling-aware model")
    power.add_argument("--dump-model", metavar="DIR",
                       help="debug: write the complex model matrices as CSV")

    spacing = argparse.ArgumentParser(add_help=False)
    spacing.add_argument("--spacings-over-lambda", dest="spacing_grid",
                         type=_float_list, default=DEFAULT_SPACING_GRID, metavar="LIST",
                         help="RIS element spacings in wavelengths "
                              f"(default: {_listed(DEFAULT_SPACING_GRID)})")
    spacing.add_argument("--sizes", type=_size_list, default=DEFAULT_SIZES, metavar="LIST",
                         help="RIS sizes as N1xN2, one curve each "
                              f"(default: {_listed(DEFAULT_SIZES)})")

    parser = argparse.ArgumentParser(
        prog="ris-mcrb",
        description="Mutual-coupling impact on RIS-assisted channel estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("impedance-sweep", parents=[common],
                       help="two-element mutual impedance vs separation")
    p.add_argument("--distances-over-lambda", type=_float_list,
                   default=DEFAULT_SPACING_GRID, metavar="LIST",
                   help="element separations in wavelengths "
                        f"(default: {_listed(DEFAULT_SPACING_GRID)})")

    p = sub.add_parser("lb-vs-power", parents=[common, power],
                       help="mismatched bound vs transmit power")
    p.set_defaults(kind="lb_vs_power", runner=run_lb_vs_power)

    p = sub.add_parser("bias-vs-spacing", parents=[common, spacing],
                       help="SNR-independent error floor vs element spacing")
    p.set_defaults(kind="bias_vs_spacing", runner=run_bias_vs_spacing)

    p = sub.add_parser("crlb-vs-spacing", parents=[common, spacing],
                       help="matched bound vs element spacing at fixed power")
    p.add_argument("--power-dbm", dest="power_grid", type=float, nargs=1,
                   default=[DEFAULT_CRLB_POWER_DBM], metavar="P",
                   help=f"transmit power in dBm (default: {DEFAULT_CRLB_POWER_DBM:g})")
    p.set_defaults(kind="crlb_vs_spacing", runner=run_crlb_vs_spacing)

    p = sub.add_parser("mc-rmse", parents=[common, power],
                       help="Monte-Carlo estimator RMSE alongside the bounds")
    p.add_argument("--trials", type=int, default=500, metavar="N",
                   help="Monte-Carlo trials per point (default: %(default)s)")
    p.set_defaults(kind="mc_rmse", runner=run_mc_rmse)

    return parser


# argparse only tolerates a leading dash on plain negative numbers, not on
# comma lists like "-10,0,10"; fold such values into --flag=value form.
_LIST_FLAGS = ("--powers-dbm", "--distances-over-lambda",
               "--spacings-over-lambda", "--power-dbm")
_NUMBER_LIST = re.compile(r"^-[0-9.eE+,-]+$")


def _fold_negative_lists(argv):
    out = []
    for token in argv:
        if out and out[-1] in _LIST_FLAGS and _NUMBER_LIST.match(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _model_sink(directory):
    def sink(d_over_lambda, n1, n2, d_true, d_est):
        # made at the first write, so a request that fails first leaves none
        os.makedirs(directory, exist_ok=True)
        # round-trip exact, like the CSV, so distinct spacings never collide
        tag = f"d{float(d_over_lambda)!r}_{n1}x{n2}"
        dump_model_csv(d_true, os.path.join(directory, f"b_true_{tag}.csv"))
        dump_model_csv(d_est, os.path.join(directory, f"b_est_{tag}.csv"))

    return sink


def _check_out(path):
    """Raise the OSError that writing ``path`` would raise if it is a
    directory or its parent is missing or not one, before the sweep runs."""
    if os.path.isdir(path):
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    try:  # the trailing separator makes a non-directory parent fail
        os.stat(os.path.join(os.path.dirname(path) or ".", ""))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _run(args):
    scenario = load_scenario_file(args.config) if args.config else default_scenario()
    if args.seed is not None:
        scenario = scenario.with_overrides(seed=args.seed)
    if args.command == "impedance-sweep":
        return run_impedance_sweep(scenario, args.distances_over_lambda)
    fields = {f.name: getattr(args, f.name)
              for f in dataclasses.fields(SweepRequest) if f.name in args}
    request = SweepRequest(scenario=scenario, **fields)
    if getattr(args, "dump_model", None):
        result = args.runner(request, model_sink=_model_sink(args.dump_model))
        os.makedirs(args.dump_model, exist_ok=True)  # also if no point was dumped
        return result
    return args.runner(request)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_fold_negative_lists(argv))
    try:
        if args.out:
            _check_out(args.out)
        dump = getattr(args, "dump_model", None)
        if dump and os.path.exists(dump) and not os.path.isdir(dump):
            # what the sink's os.makedirs would raise at its first write
            raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), dump)
        result = _run(args)
        if args.out:
            emit_csv(result, args.out)
        else:
            sys.stdout.write(csv_text(result))
    except (ConfigError, ValueError) as exc:
        print(f"ris-mcrb: config error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"ris-mcrb: numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # a worker's MemoryError pickles back too
        print(f"ris-mcrb: out of memory: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"ris-mcrb: I/O error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
