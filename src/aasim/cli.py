"""Command-line driver for the benchmark workloads.

Every subcommand runs one or more simulations and emits result rows in the
common CSV schema (metrics.CSV_COLUMNS), to stdout or to the file given with
--out. All runs are deterministic for a fixed seed. A run exits 0 with its
rows, 2 on a bad input or sizes the host cannot hold, 3 on a stalled run,
with its diagnosis, and 1 when the reader closes stdout before the last row.
"""

import argparse
import contextlib
import csv
import os
import sys

from .config import SCHEMES, ConfigError, SimConfig, load_config
from .metrics import CSV_COLUMNS
from .sim import DeadlockError
from .workloads import checkpoint as ckpt
from .workloads import counter as cntr
from .workloads import dht
from .workloads import getlog
from .workloads import iotlb
from .workloads import sortft


def build_parser():
    parser = argparse.ArgumentParser(
        prog="aasim", description="IOMMU-assisted active access benchmark driver"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--procs", type=int, help="number of simulated processes")
        p.add_argument("--seed", type=int, help="master RNG seed")
        p.add_argument("--out", help="write CSV here instead of stdout")

    p = sub.add_parser("dht", help="distributed hashtable insert benchmark")
    common(p)
    p.add_argument("--scheme", choices=SCHEMES, help="communication scheme")
    p.add_argument("--r-cols", type=float, help="target collision ratio")
    p.add_argument("--r-comp", type=float, help="compute-to-total-time ratio")
    p.add_argument("--ops", type=int, help="inserts per source process")
    p.add_argument(
        "--delete-fraction",
        type=float,
        default=0.0,
        help="fraction of each source's inserts deleted in a second phase: insert i"
        " goes when ceil(i*f) < ceil((i+1)*f), ceil(n*f) of n evenly spaced from the"
        " first",
    )
    p.set_defaults(func=cmd_dht)

    p = sub.add_parser("counter", help="per-page access counting")
    common(p)
    p.add_argument("--scheme", choices=cntr.SCHEMES, default="aa")
    p.add_argument("--accesses", type=int, default=400, help="traced accesses")
    p.add_argument("--pages", type=int, default=16, help="counted pages")
    p.set_defaults(func=cmd_counter)

    p = sub.add_parser("getlog", help="get logging for fault tolerance")
    common(p)
    p.add_argument("--scheme", choices=getlog.SCHEMES, default="aa")
    p.add_argument("--gets", type=int, default=200, help="number of 8B gets")
    p.set_defaults(func=cmd_getlog)

    p = sub.add_parser("checkpoint", help="incremental checkpoint dirty tracking")
    common(p)
    p.add_argument("--pages", type=int, default=256, help="tracked region pages")
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--writes", type=int, default=60, help="remote writes per source per epoch")
    p.set_defaults(func=cmd_checkpoint)

    p = sub.add_parser("sort", help="sample sort with logged exchange phase")
    common(p)
    p.add_argument("--scheme", choices=getlog.SCHEMES, default="aa")
    p.add_argument("--words", type=int, default=1 << 13,
                   help="total values to sort, each 32 random bits in one 8-byte word")
    p.set_defaults(func=cmd_sort)

    p = sub.add_parser("sweep-iotlb", help="IOTLB size/assoc/policy sweep")
    common(p)
    p.add_argument("--ops", type=int, default=120, help="inserts per source per point")
    p.set_defaults(func=cmd_sweep_iotlb)

    return parser


def base_config(args, **forced):
    cfg = load_config(args.config) if args.config else SimConfig()
    over = {}
    if args.procs is not None:
        over["num_procs"] = args.procs
    if args.seed is not None:
        over["seed"] = args.seed
    if getattr(args, "r_cols", None) is not None:
        over["r_cols"] = args.r_cols
    if getattr(args, "r_comp", None) is not None:
        over["r_comp"] = args.r_comp
    if getattr(args, "ops", None) is not None:
        over["ops_per_proc"] = args.ops
    over.update(forced)
    if over:
        cfg = cfg.replace(**over)
    return cfg.validate()


def cmd_dht(args):
    forced = {"scheme": args.scheme} if args.scheme else {}
    cfg = base_config(args, **forced)
    metrics = dht.DhtBench(cfg, delete_fraction=args.delete_fraction).run()
    return [metrics.as_row(cfg)]


def cmd_counter(args):
    cfg = base_config(args)
    bench = cntr.CounterBench(cfg, args.scheme, n_pages=args.pages, accesses=args.accesses)
    metrics = bench.run()
    row = metrics.as_row(cfg)
    row["scheme"] = args.scheme
    return [row]


def cmd_getlog(args):
    cfg = base_config(args, num_procs=2)
    if args.procs is not None and args.procs != 2:
        raise ConfigError("getlog runs with exactly 2 procs (one source, one target)")
    bench = getlog.GetLogBench(cfg, args.scheme, n_gets=args.gets)
    metrics = bench.run()
    row = metrics.as_row(cfg)
    row["scheme"] = args.scheme
    return [row]


def cmd_checkpoint(args):
    cfg = base_config(args)
    bench = ckpt.CheckpointBench(
        cfg, n_pages=args.pages, epochs=args.epochs, writes_per_source=args.writes
    )
    metrics = bench.run()
    row = metrics.as_row(cfg)
    row["scheme"] = "checkpoint"
    return [row]


def cmd_sort(args):
    cfg = base_config(args)
    bench = sortft.SortBench(cfg, args.scheme, total_words=args.words)
    metrics = bench.run()
    if bench.merged() != bench.oracle():
        raise ConfigError("sort output failed verification")
    row = metrics.as_row(cfg)
    row["scheme"] = args.scheme
    return [row]


def cmd_sweep_iotlb(args):
    # Translation only shows up end to end when the bridge is the bottleneck.
    procs = 4 if args.procs is None else args.procs
    cfg = base_config(args, num_procs=procs, vol_size=1 << 14, **iotlb.BRIDGE_BOUND)
    rows = []
    for size, assoc, policy in iotlb.SHAPES:
        point, metrics = iotlb.insert_run(
            cfg, iotlb_size=size, iotlb_assoc=str(assoc), iotlb_policy=policy
        )
        rows.append(metrics.as_row(point))
    return rows


def write_rows(rows, fh):
    writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Open --out first, as a shell redirect would: a bad path fails
        # before the run, not after it.
        out = open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        print("error: cannot write --out %s: %s" % (args.out, exc.strerror), file=sys.stderr)
        return 2
    with out as fh:
        try:
            rows = args.func(args)
        except ConfigError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        except MemoryError:
            # Sizes the host cannot hold are a bad input too.
            print("error: out of host memory; use smaller sizes", file=sys.stderr)
            return 2
        except DeadlockError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 3
        try:
            write_rows(rows, fh)
            fh.flush()
        except BrokenPipeError:
            # The reader closed stdout early, as `| head` does. Point stdout
            # at devnull so that the interpreter's last flush stays quiet.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
    if args.out:
        print("wrote %d row%s to %s" % (len(rows), "s" if len(rows) != 1 else "", args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
