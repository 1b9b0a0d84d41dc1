"""Command-line entry point.

Subcommands: capacity, smearings, broadcast, verify. Every run is
deterministic: identical flags produce byte-identical CSV (numbers are
serialized with 17 significant digits, LF line endings, UTF-8).

An optional plain-text key=value config file supplies defaults; explicit
command-line flags override file values. Exit codes: 0 success, 1 verify
failure, 2 bad flags, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .channel import BobSpec, ChannelConfig, broadcast_sweep, capacity_sweep
from .errors import BadParameter, FieldChannelError
from .propagation import bob_profiles_2d_numeric, bob_profiles_3d

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_FLAGS = 2
EXIT_NUMERICAL = 3


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(x) for x in row) + "\n")


PLOT_TEMPLATE = """\
#!/usr/bin/env python3
# Generated plot script; reads {csv!r} produced by `fieldchannel {command}`.
import csv

import matplotlib.pyplot as plt

rows = []
with open({csv!r}, newline="", encoding="utf-8") as f:
    reader = csv.DictReader(f)
    fields = reader.fieldnames
    for row in reader:
        rows.append({{k: float(v) for k, v in row.items()}})

x = [r[fields[0]] for r in rows]
fig, ax = plt.subplots()
for col in fields[1:]:
    ax.plot(x, [r[col] for r in rows], label=col)
ax.set_xlabel(fields[0])
{xscale}ax.legend()
fig.tight_layout()
fig.savefig({png!r}, dpi=200)
print("wrote", {png!r})
"""


def write_plot_script(path: str, csv_path: str, command: str, logx: bool = False) -> None:
    xscale = 'ax.set_xscale("log")\n' if logx else ""
    png = str(Path(csv_path).with_suffix(".png"))
    with open(path, "w", encoding="utf-8") as f:
        f.write(PLOT_TEMPLATE.format(csv=csv_path, command=command, xscale=xscale, png=png))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_io(p: argparse.ArgumentParser, out_help: str, plot_script: bool = True) -> None:
    p.add_argument("--out", default=None, help=out_help)
    p.add_argument("--config", default=None, help="key=value config file; flags override")
    if plot_script:
        p.add_argument("--plot-script", default=None,
                       help="also emit a matplotlib script here")


def _add_delta(p: argparse.ArgumentParser) -> None:
    p.add_argument("--delta", type=float, default=10.0,
                   help="time of flight t_B - t_A (units sigma)")


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="fieldchannel",
        description="Field-mediated qubit channel: capacity, smearings, broadcasting.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cap = sub.add_parser("capacity", help="coherent information vs coupling strength")
    _add_io(p_cap, "output CSV path")
    p_cap.add_argument("--lambda-min", type=float, default=0.1)
    p_cap.add_argument("--lambda-max", type=float, default=1000.0)
    p_cap.add_argument("--points", type=int, default=30)

    p_sm = sub.add_parser("smearings", help="receiver smearing profiles vs radius")
    _add_io(p_sm, "output CSV path")
    _add_delta(p_sm)
    p_sm.add_argument("--rel-tol", type=float, default=1e-10,
                      help="quadrature relative tolerance (d = 2)")
    p_sm.add_argument("--dimension", type=int, choices=(2, 3), default=3)
    p_sm.add_argument("--points", type=int, default=401)
    p_sm.add_argument("--normalize", action="store_true",
                      help="scale each profile to unit peak magnitude")

    p_bc = sub.add_parser("broadcast", help="two truncated receivers vs split radius r0")
    _add_io(p_bc, "output CSV path")
    _add_delta(p_bc)
    p_bc.add_argument("--eps", type=float, default=0.1, help="truncation window roll-off width")
    p_bc.add_argument("--kmax", type=float, default=None,
                      help="k-space cutoff override (units 1/sigma)")
    p_bc.add_argument("--lambda-phi", default="both",
                      help="coupling lambda_phi/sigma: a number, or 'both' for 10 and 1000")
    p_bc.add_argument("--r0-min", type=float, default=2.0)
    p_bc.add_argument("--r0-max", type=float, default=18.0)
    p_bc.add_argument("--r0-points", type=int, default=17)

    p_vf = sub.add_parser("verify", help="run every invariant suite")
    _add_io(p_vf, "also write the report here", plot_script=False)
    p_vf.add_argument("--mutate-w-sign", action="store_true",
                      help="test fixture: inject a W sign flip (BCH suite must fail)")
    return parser, {"capacity": p_cap, "smearings": p_sm, "broadcast": p_bc,
                    "verify": p_vf}


def _apply_config_file(parser: argparse.ArgumentParser, sub_map: dict,
                       argv: list[str]) -> argparse.Namespace:
    """Two-pass parse: key=value pairs from --config become subparser
    defaults, then a re-parse lets explicit flags win."""
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    path = Path(args.config)
    if not path.exists():
        parser.error(f"config file not found: {path}")
    sub = sub_map[args.command]
    actions = {a.dest: a for a in sub._actions}
    overrides = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            parser.error(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in actions or key == "help":
            parser.error(f"{path}: unknown config key {key!r}")
        action = actions[key]
        if isinstance(action, argparse._StoreTrueAction):
            overrides[key] = value.lower() in ("1", "true", "yes")
        elif action.type is not None:
            overrides[key] = action.type(value)
        else:
            overrides[key] = value
    sub.set_defaults(**overrides)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def run_capacity(args) -> int:
    out = args.out or "capacity.csv"
    for flag, value in (("--lambda-min", args.lambda_min), ("--lambda-max", args.lambda_max)):
        if not (math.isfinite(value) and value > 0):
            raise BadParameter(f"{flag} must be finite and positive, got {value!r}")
    grid = np.logspace(np.log10(args.lambda_min), np.log10(args.lambda_max), args.points)
    rows = capacity_sweep(grid, ChannelConfig(lambda_phi=1.0))
    write_csv(out, ["lambda_phi_over_sigma", "ic", "ic_clamped"], rows)
    if args.plot_script:
        write_plot_script(args.plot_script, out, "capacity", logx=True)
    print(f"wrote {out} ({len(rows)} rows)")
    return EXIT_OK


def run_smearings(args) -> int:
    out = args.out or f"smearings_{args.dimension}d.csv"
    # the profiles validate delta before it sets the radius grid
    if args.dimension == 3:
        profiles = bob_profiles_3d(1.0, args.delta)
    else:
        profiles = bob_profiles_2d_numeric(1.0, args.delta, rel_tol=args.rel_tol)
    rs = np.linspace(0.0, args.delta + 10.0, args.points)
    cols = [np.asarray(p(rs)) for p in profiles]
    if args.normalize:
        cols = [c / np.max(np.abs(c)) if np.max(np.abs(c)) > 0 else c for c in cols]
    rows = np.column_stack([rs] + cols)
    write_csv(out, ["r", "fb1", "fb2", "fb3"], rows)
    if args.plot_script:
        write_plot_script(args.plot_script, out, "smearings")
    print(f"wrote {out} ({len(rs)} rows)")
    return EXIT_OK


def _broadcast_out_path(base: str, lam: float) -> str:
    p = Path(base)
    return str(p.with_name(f"{p.stem}_lphi{lam:g}{p.suffix or '.csv'}"))


def run_broadcast(args) -> int:
    out = args.out or "broadcast.csv"
    lams = (10.0, 1000.0) if str(args.lambda_phi) == "both" else (float(args.lambda_phi),)
    grid = np.linspace(args.r0_min, args.r0_max, args.r0_points)
    written = []
    for lam in lams:
        cfg = ChannelConfig(lambda_phi=lam, delta=args.delta, k_max=args.kmax,
                            bob=BobSpec(eps=args.eps))
        rows = broadcast_sweep(grid, cfg)
        path = _broadcast_out_path(out, lam) if len(lams) > 1 else out
        write_csv(path, ["r0", "ic_bob1", "ic_bob2"], rows)
        written.append(path)
        if args.plot_script:
            script = _broadcast_out_path(args.plot_script, lam) if len(lams) > 1 \
                else args.plot_script
            write_plot_script(script, path, "broadcast")
    print("wrote " + ", ".join(written))
    return EXIT_OK


def run_verify(args) -> int:
    results = verify_mod.run_suites(w_sign_flip=args.mutate_w_sign)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"suite={r.name} status={status} worst={r.worst:.6e}"
        if r.detail:
            line += f" {r.detail}"
        lines.append(line)
        print(line)
    n_fail = sum(not r.passed for r in results)
    summary = f"suites={len(results)} failures={n_fail}"
    print(summary)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write("\n".join(lines + [summary]) + "\n")
    return EXIT_OK if n_fail == 0 else EXIT_VERIFY_FAILED


def main(argv: list[str] | None = None) -> int:
    parser, sub_map = build_parser()
    try:
        args = _apply_config_file(parser, sub_map,
                                  list(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse exits with 2 on bad flags
        return int(exc.code or 0)
    handlers = {"capacity": run_capacity, "smearings": run_smearings,
                "broadcast": run_broadcast, "verify": run_verify}
    try:
        return handlers[args.command](args)
    except BadParameter as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FLAGS
    except FieldChannelError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
