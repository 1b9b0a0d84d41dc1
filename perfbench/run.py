"""Benchmark of fieldchannel on four seeded workloads.

    python3 perfbench/run.py --workload capacity --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. README.md in this
directory describes the workloads, the metrics and the checks.
"""

from __future__ import annotations

import os

# Single-threaded baseline: one BLAS/OpenMP thread, set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import zlib  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# The package is imported before numpy, so that its -X importtime entry
# covers everything `import fieldchannel` loads.
sys.path.insert(0, str(ROOT / "src"))
try:
    import fieldchannel as fc  # noqa: E402
except ImportError as exc:
    sys.exit(f"cannot import fieldchannel from {ROOT / 'src'}: {exc}")
if not Path(fc.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"fieldchannel imported from {fc.__file__}, not from {ROOT / 'src'}")

import numpy as np  # noqa: E402

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from tracing import Tracer  # noqa: E402

# Fresh interpreters timed for setup_s; the timed phase is split into as
# many slots, one probe before each, so both sample the whole run.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
# every this many capacity operations, one seeded point is recomputed by brute force
CAPACITY_SAMPLE_EVERY = 250

# Host-speed reference, for workloads with `host_scaled` set. The machine's
# speed drifts by up to 2x over seconds to minutes (other tenants share its
# cores), and CPU time tracks wall time. Interpreter-bound work follows that
# drift closely, so its operation times are reported at a reference speed:
# the run times the fixed reference work below at the start of each slot and
# after every REFERENCE_EVERY_S of operations, and scales each operation
# time by HOST_REFERENCE_MS / (mean of the two reference times that bracket
# it). The reference work uses no fieldchannel code, so a change to the
# program cannot move it; a change that slows the whole process (leftover
# threads, GC pressure) slows it too, and is hidden from the scaled times.
# Raw timings are printed next to the scaled ones.
HOST_REFERENCE_MS = 6.0
REFERENCE_EVERY_S = 0.25
_ref_rng = np.random.default_rng(20191908)
_REF_SIGNS = _ref_rng.choice((-1.0, 1.0), size=(256, 8))
_REF_UPPER = np.triu(_ref_rng.standard_normal((8, 8)), 1)
_REF_HERM = _ref_rng.standard_normal((4, 4))
_REF_HERM = _REF_HERM + _REF_HERM.T
_REF_K = np.linspace(0.05, 200.0, 320)[:, None]
_REF_R = np.linspace(1.0, 19.0, 480)[None, :]


def reference_work_ms() -> float:
    """Time a fixed mix of interpreter-bound small numpy calls and one
    vectorised transcendental kernel, the two kinds of work the workloads do."""
    start = time.perf_counter()
    for _ in range(40):
        e = np.einsum("ti,ij,tj->t", _REF_SIGNS, _REF_UPPER, _REF_SIGNS)
        np.exp(-np.clip(e, None, 5.0)).sum()
        np.linalg.eigvalsh(_REF_HERM)
        sum({j: 1.5 * j for j in range(40)}.values())
    (np.sin(_REF_K * _REF_R) / (_REF_K * _REF_R)).sum()
    return (time.perf_counter() - start) * 1e3


# ---------------------------------------------------------------------------
# workloads: inputs(rng, i) -> one operation's input, run(input) -> (output, rows)
# ---------------------------------------------------------------------------

class Capacity:
    """30-point capacity_sweep over a seeded log grid spanning [0.1, 1000].

    The last operation of every round is the documented
    `fieldchannel capacity --lambda-min 1e-3`, which fails today.
    """

    name = "capacity"
    # interpreter-bound rows of 0.3 ms; README.md, "Host-speed reference"
    host_scaled = True
    round_size = 10
    trace_cycle = 10
    points = 30

    failing_grid = np.logspace(np.log10(1e-3), np.log10(1000.0), points)

    def inputs(self, rng, i):
        if i % self.round_size == self.round_size - 1:
            return self.failing_grid
        lo = 0.1 * 10.0 ** (-0.05 * rng.random())
        hi = 1000.0 * 10.0 ** (0.05 * rng.random())
        return np.logspace(np.log10(lo), np.log10(hi), self.points)

    def run(self, grid):
        rows = fc.capacity_sweep(grid, fc.ChannelConfig(lambda_phi=1.0))
        return (grid, rows), len(rows)

    def check(self, output, i, rng):
        samples = [int(rng.integers(self.points))] if i % CAPACITY_SAMPLE_EVERY == 0 else []
        return checks.check_capacity(output, samples)


class Broadcast:
    """One `fieldchannel broadcast` command: both couplings, eps = 0.1, an
    r0 grid of 3 points from Delta - 8 to Delta + 8 at a seeded Delta."""

    name = "broadcast"
    host_scaled = False
    round_size = 1
    trace_cycle = 1
    lambdas = (10.0, 1000.0)
    r0_points = 3

    def inputs(self, rng, i):
        return 10.0 + rng.uniform(-0.5, 0.5)

    def _sweep(self, delta, lam, grid):
        cfg = fc.ChannelConfig(lambda_phi=lam, delta=delta, bob=fc.BobSpec(eps=0.1))
        return fc.broadcast_sweep(grid, cfg)

    def run(self, delta):
        grid = np.linspace(delta - 8.0, delta + 8.0, self.r0_points)
        out = {lam: self._sweep(delta, lam, grid) for lam in self.lambdas}
        return (delta, out), len(self.lambdas) * len(grid)

    refs = None

    def check(self, output, i, rng):
        if self.refs is None:
            self.refs = checks.full_receiver_references()
        return checks.check_broadcast(output, self.refs)


class Scatter:
    """One truncated rho_cb at a seeded (Delta, r0, eps, lambda_phi, side).

    r0 is stratified over 8 bins of [Delta - 8, Delta + 8] and the side
    alternates, so every 16 operations cover the cost range evenly.
    """

    name = "scatter"
    host_scaled = False
    round_size = 1
    trace_cycle = 16

    def inputs(self, rng, i):
        side = ("truncated_inner", "truncated_outer")[i % 2]
        stratum = (i // 2) % 8
        delta = rng.uniform(9.5, 10.5)
        r0 = delta - 8.0 + 2.0 * (stratum + rng.random())
        eps = rng.uniform(0.05, 0.2)
        lam = 10.0 ** rng.uniform(0.0, 3.0)
        return fc.ChannelConfig(lambda_phi=lam, delta=delta,
                                bob=fc.BobSpec(variant=side, r0=r0, eps=eps))

    def run(self, cfg):
        result = fc.rho_cb(cfg)
        return (result.rho_cb.matrix, result.coherent_info), 1

    def check(self, output, i, rng):
        return checks.check_scatter(output)


class Smearings2D:
    """One `fieldchannel smearings --dimension 2 --points 41` at a seeded Delta.

    Delta stays in [9.5, 9.95]: the program fails near Delta = 9.42 and
    10.05 (see the FOUND line in CHANGES.md), and a failure that depends
    on the seed would make the failed share differ between runs.
    """

    name = "smearings-2d"
    # QUADPACK calling back into Python per node; README.md, "Host-speed reference"
    host_scaled = True
    round_size = 1
    trace_cycle = 1
    points = 41

    def inputs(self, rng, i):
        return rng.uniform(9.5, 9.95)

    def run(self, delta, points=None):
        rs = np.linspace(0.0, delta + 10.0, points or self.points)
        profiles = fc.bob_profiles_2d_numeric(1.0, delta)
        cols = [np.asarray(p(rs)) for p in profiles]
        return (delta, np.column_stack([rs] + cols)), len(rs)

    def check(self, output, i, rng):
        return checks.check_smearings_2d(output)


WORKLOADS = {w.name: w for w in (Capacity, Broadcast, Scatter, Smearings2D)}


def rng_for(workload: str, seed: int, *stream) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode()), *stream])


def set_up(name: str):
    """Build the workload and fill the program's one cache, the 256-term
    sign table, with one cheap full-receiver evaluation."""
    fc.capacity_sweep([1.0], fc.ChannelConfig(lambda_phi=1.0))
    return WORKLOADS[name]()


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def probe_setup(args, importtime: bool) -> tuple[float, str]:
    """Seconds from spawning a fresh interpreter until its set-up is done,
    and the interpreter's -X importtime report when asked for."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1]) - start, proc.stderr


def import_ms(report: str, module: str) -> float:
    """Cumulative import time of `module` from an -X importtime report."""
    for line in report.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1000.0
    return 0.0


def percentile_report(times_ms: list[float]) -> str:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    n = len(times_ms)
    text = f"p50={statistics.median(times_ms):.4f} ms"
    for p in (99.9, 99.0, 90.0):
        if n * (100.0 - p) / 100.0 >= 10.0:
            text += f" p{p:g}={np.percentile(times_ms, p):.4f} ms"
            break
    return f"{text} (n={n})"


def timed_phase(workload, args, tracer):
    """Run whole rounds of operations until they have taken --seconds, in
    SETUP_PROBES slots with one fresh-interpreter set-up probe before each.

    Each output is checked as soon as its operation has been timed. For a
    `host_scaled` workload the reference work is timed at the start of each
    slot, after every REFERENCE_EVERY_S of operations and at the end of the
    slot. Returns the seconds of each set-up probe, the probes' import
    reports, one [traced, seconds, rows or None, host scale] record per
    operation (scale 1 unless host-scaled), the check failures and a count
    of each failure message of the program.
    """
    slot_s = args.seconds / SETUP_PROBES
    rng = rng_for(workload.name, args.seed, 0)
    check_rng = rng_for(workload.name, args.seed, 2)
    setup_samples, import_reports, records, errors = [], [], [], []
    failures = Counter()
    i = 0
    for _ in range(SETUP_PROBES):
        seconds, report = probe_setup(args, importtime=tracer is not None)
        setup_samples.append(seconds)
        import_reports.append(report)
        last_reference = reference_work_ms() if workload.host_scaled else None
        pending, slot_timed, since_reference = [], 0.0, 0.0
        while True:
            item = workload.inputs(rng, i)
            traced = tracer is not None and (i // workload.trace_cycle) % 2 == 0
            if traced:
                tracer.install()
            start = time.perf_counter()
            try:
                output, rows = workload.run(item)
            except Exception as exc:  # a program failure is counted, not fatal
                end = time.perf_counter()
                rows = None
                failures[f"{type(exc).__name__}: {exc}"] += 1
            else:
                end = time.perf_counter()
            if traced:
                tracer.uninstall()
                tracer.finish_op(i, start, end, rows is not None, rows or 0)
            record = [traced, end - start, rows, 1.0]
            records.append(record)
            slot_timed += end - start
            if rows is not None:
                errors += [f"op {i}: {e}" for e in workload.check(output, i, check_rng)]
            i += 1
            slot_done = i % workload.round_size == 0 and slot_timed >= slot_s
            if workload.host_scaled:
                pending.append(record)
                since_reference += end - start
                if slot_done or since_reference >= REFERENCE_EVERY_S:
                    reference = reference_work_ms()
                    for record in pending:
                        record[3] = HOST_REFERENCE_MS / (0.5 * (last_reference + reference))
                    last_reference, pending, since_reference = reference, [], 0.0
            if slot_done:
                break
    return setup_samples, import_reports, records, errors, failures


def end_to_end(records, setup_samples, peak_rss_mb, scaled=True):
    """The end-to-end metrics; with `scaled`, every operation time is
    multiplied by its host scale."""
    times = [s * scale if scaled else s for _, s, _, scale in records]
    ok = [(t, rows) for t, (_, _, rows, _) in zip(times, records) if rows is not None]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "op_p50_ms": (statistics.median(t for t, _ in ok) * 1e3, "ms"),
        "rows_per_s": (sum(rows for _, rows in ok) / sum(times), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


SPAN_NAMES = ("op", "channel.overlap_truncated", "channel.overlap_closed",
              "channel.assemble_rho", "qmath.validate", "qmath.coherent_information",
              "observables.check_conditions", "smearing.adaptive_quadrature",
              "smearing.gauss_legendre_panels", "propagation.shell_profile")
# (metric, factor from seconds to its unit, span): mean time per call, printed
# on the traced run's `per-call:` line for the spans the workload reaches
PER_CALL = (("channel.overlap_truncated_ms", 1e3, "channel.overlap_truncated"),
            ("channel.overlap_closed_us", 1e6, "channel.overlap_closed"),
            ("channel.assemble_rho_us", 1e6, "channel.assemble_rho"),
            ("qmath.validate_us", 1e6, "qmath.validate"),
            ("qmath.coherent_information_us", 1e6, "qmath.coherent_information"),
            ("observables.check_conditions_us", 1e6, "observables.check_conditions"),
            ("smearing.adaptive_quadrature_us", 1e6, "smearing.adaptive_quadrature"))


def per_layer(tracer: Tracer, records, import_reports):
    rows = max(tracer.rows, 1)
    op_total = tracer.total_s["op"]
    traced = [s for t, s, r, _ in records if t and r is not None]
    plain = [s for t, s, r, _ in records if not t and r is not None]
    metrics = {
        "import.fieldchannel_ms": (statistics.median(
            import_ms(r, "fieldchannel") for r in import_reports), "ms"),
        "import.scipy_integrate_ms": (statistics.median(
            import_ms(r, "scipy.integrate") for r in import_reports), "ms"),
        "trace.overhead_pct": (
            100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0), "%"),
        "channel.overlap_truncated_calls_per_row": (
            tracer.calls["channel.overlap_truncated"] / rows, "count"),
        "channel.overlap_closed_calls_per_row": (
            tracer.calls["channel.overlap_closed"] / rows, "count"),
        "smearing.gl_nodes_per_row": (tracer.counts["smearing.gl_nodes"] / rows, "count"),
        "propagation.shell_points_per_row": (
            tracer.counts["propagation.shell_points"] / rows, "count"),
        "qmath.eigh4_per_row": (tracer.counts["qmath.eigh4"] / rows, "count"),
        "smearing.adaptive_quadrature_calls_per_row": (
            tracer.calls["smearing.adaptive_quadrature"] / rows, "count"),
    }
    for name in SPAN_NAMES:
        metrics[f"{name}.self_pct"] = (100.0 * tracer.self_s[name] / op_total, "%")
    detail = {metric: tracer.total_s[span] / tracer.calls[span] * scale
              for metric, scale, span in PER_CALL if tracer.calls[span]}
    return metrics, detail


def write_trace(args, tracer: Tracer, detail) -> Path:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"trace-{args.workload}-s{args.seed}.json"
    layers = {name: {"calls": tracer.calls[name], "total_ms": tracer.total_s[name] * 1e3,
                     "self_ms": tracer.self_s[name] * 1e3} for name in tracer.calls}
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "rows": tracer.rows,
        "layers": layers, "counts": dict(tracer.counts), "per_call": detail,
        "first_ops": tracer.kept}, indent=1) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        set_up(args.workload)
        print(repr(time.perf_counter()))
        return 0

    workload = set_up(args.workload)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.attach()
    setup_samples, import_reports, records, errors, failures = timed_phase(
        workload, args, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for line in errors:
        print(f"CHECK FAILED: {line}")
    failed = sum(rows is None for _, _, rows, _ in records)
    for error, count in failures.items():
        print(f"failed x{count}: {error}")

    ok_ms = [s * 1e3 for t, s, r, _ in records if r is not None and not t]
    print(f"workload={workload.name} seed={args.seed} trace={args.trace} "
          f"attempted={len(records)} failed={failed} "
          f"rows={sum(r for _, _, r, _ in records if r is not None)} "
          f"timed_s={sum(s for _, s, _, _ in records):.3f} "
          f"setup_samples_s={[round(s, 4) for s in setup_samples]}")
    if ok_ms:
        print(f"untraced op times: {percentile_report(ok_ms)}")
    if tracer is not None:
        metrics, detail = per_layer(tracer, records, import_reports)
        print("per-call: " + " ".join(f"{k}={v:.4f}" for k, v in detail.items()))
        print(f"trace written to {write_trace(args, tracer, detail).relative_to(ROOT)}")
    else:
        if workload.host_scaled:
            raw = end_to_end(records, setup_samples, peak_rss_mb, scaled=False)
            scales = [scale for _, _, _, scale in records]
            print(f"host scale median={statistics.median(scales):.4f} "
                  f"range={min(scales):.4f}..{max(scales):.4f}; raw: "
                  + " ".join(f"{k}={v:.6g}" for k, (v, _) in raw.items()))
        metrics = end_to_end(records, setup_samples, peak_rss_mb)
    print(json.dumps({
        "correct": not errors, "attempted": len(records), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
