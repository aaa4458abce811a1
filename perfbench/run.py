#!/usr/bin/env python3
"""Benchmark of the hurstmodes estimator.

One workload runs per process as a closed loop: one caller, which issues
the next work item only after the previous one returned, for ``--seconds``
seconds after set-up and one untimed warm-up item, with a reference slot
(``reference.py``) between items that measures the host's speed.  Inputs
are made from ``--seed``; every output is checked.  The last line of
standard output is one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``):

    python3 perfbench/run.py --workload sweep-bimodal --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload untraced and traced, each in its own
process, and prints the end-to-end metrics, the tracing overhead and the
layer shares side by side.  The program is imported from ``src/`` next to
this directory.  Per-run reports and spans go to ``perfbench/out/``.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here, before any heavy import

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
NAMES = ("sweep-bimodal", "trimodal-n18", "estimate-csv", "wide-p512")
UNITS = {
    "setup_s": "s",
    "setup_raw_s": "s",
    "items_per_s": "1/s",
    "item_cost_ref": "ref",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ident_rate": "fraction",
    "fail_rate": "fraction",
    "ok_rate": "fraction",
    "peak_rss_mib": "MiB",
}
# the metrics of the result line.  Raw item times, items_per_s and
# setup_raw_s are printed and reported but not gated: they follow the host's
# fast and slow phases, which item_cost_ref and setup_s divide out (see
# reference.py).  ident_rate is a
# binomial share over the run's 5-100 items and changes with the seed, so it
# is reported here and in the traced run, not gated.  fail_rate is gated
# through ok_rate, never 0
GATED = ("setup_s", "item_cost_ref", "ok_rate", "peak_rss_mib")
BLAS_THREADS = 1  # single-threaded BLAS, like the reference kernel
REF_MIN_S = 0.03  # shortest reference slot: one call of the kernel
REF_SHARE = 0.1  # reference slot length as a share of the item before it
DIGEST_PREFIX = 3  # items in the seed-comparable digest; every workload completes more


def import_program():
    """Import the benchmark's workloads against the hurstmodes sources in ROOT/src."""
    src = ROOT / "src"
    if not (src / "hurstmodes" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hurstmodes sources in {src}")
    sys.path.insert(0, str(src))
    import hurstmodes
    import workloads

    if Path(hurstmodes.__file__).resolve().parent != (src / "hurstmodes").resolve():
        sys.exit(f"perfbench: imported hurstmodes from {hurstmodes.__file__}, not from {src}")
    return workloads


def blas_threads():
    """Set OpenBLAS to ``BLAS_THREADS`` threads; the count it reports, None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and "/" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for stem in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get = getattr(lib, stem.format("get"), None)
            if get is None:
                continue
            get.restype, get.argtypes = ctypes.c_int, []
            set_threads = getattr(lib, stem.format("set"))
            set_threads.restype, set_threads.argtypes = None, [ctypes.c_int]
            set_threads(BLAS_THREADS)
            return get()
    return None


def cache_sizes() -> dict:
    """L2 and L3 sizes of cpu0 as the kernel reports them."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def machine() -> dict:
    import numpy as np

    nproc = len(os.sched_getaffinity(0))
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": nproc,
        "caches": cache_sizes(),
    }


def run_item(workload, index):
    """The item's outcome, or None when it failed; the loop goes on either way."""
    try:
        return workload.run(index)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


def measure(workload, seconds: float, reference, first: int):
    """Closed loop: items ``first``, ``first`` + 1, ... back to back until
    ``seconds`` have passed (at least one), with a reference slot before the
    first item and after every item.  Returns the outcomes, the item times,
    the reference time around each item (the mean of the slots before and
    after it) and the wall time of the loop."""
    outcomes, times, refs = [], [], []
    start = time.perf_counter()
    before = reference.slot(REF_MIN_S)
    while not times or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        outcomes.append(run_item(workload, first + len(outcomes)))
        times.append(time.perf_counter() - t0)
        after = reference.slot(max(REF_MIN_S, REF_SHARE * times[-1]))
        refs.append(0.5 * (before + after))
        before = after
    return outcomes, times, refs, time.perf_counter() - start


def digest(outcomes) -> str:
    text = "\n".join("failed" if o is None else "\n".join(o.lines) for o in outcomes)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_workload(args) -> int:
    workloads = import_program()
    import_s = time.perf_counter() - T_START
    import numpy as np
    from reference import Reference
    from spans import (
        PER_LAYER,
        Instrumentation,
        InstrumentationError,
        Recorder,
        function_stats,
        layer_stats,
        per_layer_metrics,
        span_cost_s,
        write_spans,
    )

    env = machine()
    workload = workloads.make(args.workload)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    recorder = Recorder() if args.trace else None
    reference = Reference(long_series=workload.long_series)
    try:
        passes = []
        with Instrumentation(checks=workloads.CHECKS):
            setup_refs = [reference.slot(REF_MIN_S)]
            for _ in range(workload.setup_passes):
                t0 = time.perf_counter()
                workload.prepare(args.seed, str(workdir))
                passes.append(time.perf_counter() - t0)
                setup_refs.append(reference.slot(max(REF_MIN_S, REF_SHARE * passes[-1])))
            # a warm-up item, checked and counted but not timed, pays the
            # first-touch and first-size costs of the full geometry
            outcomes = [run_item(workload, 0)]
        with Instrumentation(recorder=recorder, checks=workloads.CHECKS) as inst:
            timed, times, refs, wall = measure(workload, args.seconds, reference, first=1)
        outcomes += timed
        sites = inst.sites
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(outcomes)
    good = [o for o in outcomes if o is not None]
    failed = attempted - len(good)
    gmm = [o.gmm_ident for o in good if o.gmm_ident is not None]
    busy = sum(times)  # the loop's wall time less the reference slots
    done = sum(o is not None for o in timed)
    setup_raw = import_s + statistics.median(passes)
    e2e = {
        # seconds at the reference's nominal speed: the host's drift divided
        # out, its speed taken over every slot of the run, because slots
        # between set-up passes alone are too few to be steady
        "setup_s": setup_raw * reference.nominal_s / statistics.median(setup_refs + refs),
        "setup_raw_s": setup_raw,
        "items_per_s": done / busy,
        "item_cost_ref": busy / sum(refs),
        "op_ms_p50": 1e3 * float(np.percentile(times, 50)),
        "op_ms_p90": 1e3 * float(np.percentile(times, 90)),
        "ident_rate": sum(o.ident for o in good) / attempted,
        "fail_rate": failed / attempted,
        "ok_rate": len(good) / attempted,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "working_set_bytes": workload.working_set,
        "setup": {"import_s": import_s, "passes_s": passes, "ref_ms": [1e3 * r for r in setup_refs]},
        "end_to_end": e2e, "samples": attempted,
        "item_ms": [1e3 * t for t in times],
        "ref_ms": [1e3 * r for r in refs],
        "gmm_ident_rate": statistics.fmean(gmm) if gmm else None,
        "digest": digest(outcomes),
        f"digest_first{DIGEST_PREFIX}": digest(outcomes[:DIGEST_PREFIX]) if attempted >= DIGEST_PREFIX else None,
        "sites": sites,
    }

    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    caches = ", ".join(f"{k} {v}" for k, v in env["caches"].items())
    print(f"  env: python {env['python']}, numpy {env['numpy']}, {env['blas']} "
          f"({env['blas_threads']} threads), nproc {env['nproc']}, {caches}")
    print("  working set (computed from array sizes): "
          + ", ".join(f"{k} {v / 2**20:.1f} MiB" for k, v in workload.working_set.items()))
    print(f"  setup: imports {import_s:.3f} s, {len(passes)} set-up pass(es) "
          + " ".join(f"{p:.3f}" for p in passes) + " s")
    print(f"  items {attempted} (1 warm-up, {len(times)} timed in {busy:.2f} s of a {wall:.2f} s loop), "
          f"failed {failed}; "
          f"reference call {1e3 * statistics.median(refs):.3f} ms (median)")
    print(f"  digest {report['digest']} over {attempted} items; first {DIGEST_PREFIX}: "
          f"{report[f'digest_first{DIGEST_PREFIX}']}")

    if args.trace:
        spans = recorder.spans
        layers = layer_stats(spans)
        report["layers"] = layers
        report["functions"] = function_stats(spans)
        report["counts"] = dict(recorder.counts)
        metrics = per_layer_metrics(spans, recorder.counts, busy, len(times), done,
                                    report["gmm_ident_rate"] or 0.0, span_cost_s())
        metrics["selection.ident_rate"] = e2e["ident_rate"]
        metrics["trace.item_cost_ref"] = e2e["item_cost_ref"]
        write_spans(str(OUT / f"{workload.name}.spans.txt"), spans, T_START)
        print(f"  {'layer':<10} {'calls':>7} {'busy_s':>9} {'self_s':>9} {'share':>7}")
        for layer, st in layers.items():
            print(f"  {layer:<10} {st['calls']:>7} {st['busy_s']:>9.3f} {st['self_s']:>9.3f} "
                  f"{st['busy_s'] / busy:>7.3f}")
        print("  (mb_in_per_s, gram_gflop_per_item and msamples_per_s are computed from array sizes)")
        missing = [layer for layer in workload.required if layers[layer]["calls"] == 0]
        if missing:
            raise InstrumentationError(f"{workload.name}: no spans for required layer(s) {', '.join(missing)}")
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics = e2e
        units = {name: UNITS[name] for name in GATED}
        for name, value in e2e.items():
            extra = f" (n={len(times)} samples)" if name.startswith("op_ms") else ""
            print(f"  {name:<13} {value:.6g} {UNITS[name]}{extra}")

    with open(OUT / f"{workload.name}.trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    status = 0
    for name in NAMES:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{name} trace={trace}: exit {proc.returncode}")
                return 1
            results[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
        plain, traced = results[0], results[1]
        status |= not (plain["correct"] and traced["correct"])
        print(f"{name}: attempted {plain['attempted']}, failed {plain['failed']}, correct {plain['correct']}")
        with open(OUT / f"{name}.trace0.json") as fh:
            e2e = json.load(fh)["end_to_end"]
        for metric, value in e2e.items():
            print(f"  {metric:<13} {value:12.6g} {UNITS[metric]}" + ("" if metric in GATED else "  (not gated)"))
        plain_cost = e2e["item_cost_ref"]
        traced_cost = traced["metrics"]["trace.item_cost_ref"]["value"]
        print(f"  traced items_per_s {traced['metrics']['trace.items_per_s']['value']:.6g} 1/s, "
              f"item_cost_ref {traced_cost:.6g} ref: {100 * (traced_cost - plain_cost) / plain_cost:+.1f}% "
              f"against untraced; span cost estimate "
              f"{100 * traced['metrics']['trace.overhead_share']['value']:.2f}% of item time")
        shares = {k[: -len(".share")]: v["value"] for k, v in traced["metrics"].items() if k.endswith(".share")}
        print("  layer shares (inclusive): "
              + ", ".join(f"{layer} {share:.3f}" for layer, share in shares.items() if share > 0))
    return int(status)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
