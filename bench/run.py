#!/usr/bin/env python3
"""rssikit benchmark: one workload per run, on one thread.

Usage, from the repository root:

    python3 bench/run.py --workload atpc_orthonormal_swell_ge --seed 1 \\
        --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a traced run plus the tracing overhead. Every time is
rescaled by a host-speed reference from ``bench/hostref.py``. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result, with its
provenance, is also written to ``bench/out/``. See ``bench/README.md``.

The benchmark imports rssikit from ``src/`` next to this directory and
exits with code 2 when it is not there.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"

# Fresh interpreters started per run to measure set-up; the median of their
# rescaled times is setup_s.
SETUP_PROBES = 5
WARMUP_PACKETS = 2000
PROBE_TIMEOUT_S = 60
# Units of the per-layer metrics that the host-speed reference rescales.
TIME_UNITS = ("us", "ms")


class BenchError(RuntimeError):
    """The benchmark cannot run here (e.g. the rssikit sources are missing)."""


def import_rssikit():
    """Import rssikit from this checkout's ``src/``, never from elsewhere."""
    pkg = SRC / "rssikit"
    if not (pkg / "__init__.py").is_file():
        raise BenchError(f"rssikit sources not found at {pkg}")
    sys.path.insert(0, str(SRC))
    import rssikit

    if Path(rssikit.__file__).resolve().parent != pkg.resolve():
        raise BenchError(f"imported rssikit from {rssikit.__file__}, expected {pkg}")
    return rssikit


def setup_probe(workload: str, seed: int) -> None:
    """Child-process mode: time ``import rssikit`` and building the inputs."""
    t0 = _T0
    import_rssikit()
    t1 = time.perf_counter()
    import workloads

    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".work-") as tmp:
        workloads.build_inputs(workload, seed, Path(tmp))
        t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}))


def run_setup_probes(workload: str, seed: int) -> list[dict]:
    """Time set-up in fresh interpreters, each between two start-up references."""
    import hostref

    samples = []
    ref_ns = [hostref.STARTUP.time_ns()]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        ref_ns.append(hostref.STARTUP.time_ns())
        sample["ref_s"] = ref_ns[-1] / 1e9
        sample["scale"] = hostref.STARTUP.scale(ref_ns[-2], ref_ns[-1])
        samples.append(sample)
    return samples


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def median(values) -> float:
    """How a figure repeated within one run is reported."""
    import numpy as np

    return float(np.median(np.fromiter(values, dtype=float)))


def pctl(values, q: float) -> float:
    """Percentile of a sample; 0.0 for an empty one (a layer not exercised)."""
    import numpy as np

    return float(np.percentile(np.asarray(values), q)) if len(values) else 0.0


# -- per-layer metrics of one traced pass ------------------------------------


def layer_metrics(tr, res) -> dict:
    """Per-layer figures of one traced pass, from its spans."""
    spans = tr.spans
    child_ns = tr.child_ns()
    refit_idx = sorted({
        s[3] for s in spans
        if s[0] == "trace.derivative_series" and s[3] >= 0
        and spans[s[3]][0] == "predictor.observe"
    })
    refit_ns = [spans[i][2] - spans[i][1] for i in refit_idx]
    refit_self_ns = [spans[i][2] - spans[i][1] - child_ns.get(i, 0) for i in refit_idx]
    moments = tr.named("stats.moment_set")
    fits = tr.named("predictor.fit")
    refit_set = set(refit_idx)
    # A lag fit is attempted once per window moment estimate; in the
    # pipeline the benchmark calls the fits itself.
    in_refit = sum(1 for s in moments if s[3] in refit_set)
    attempted = in_refit if refit_idx else len(fits)
    ok_fits = sum(1 for s in fits if s[4])
    ex = res.extra
    loop_ns = ex.get("driven_ns", 0)
    return {
        "predictor.refits": len(refit_idx),
        "predictor.refit_us_p50": pctl(refit_ns, 50) / 1e3,
        "predictor.refit_self_us_p50": pctl(refit_self_ns, 50) / 1e3,
        "predictor.refit_frac": sum(refit_ns) / loop_ns if loop_ns else 0.0,
        "predictor.fit_calls": len(fits),
        "predictor.fit_ok_ratio": ok_fits / attempted if attempted else 0.0,
        "predictor.predict_calls": len(tr.named("predictor.predict")),
        "predictor.predict_ms": tr.total_ms("predictor.predict"),
        "stats.moment_set_calls": len(moments),
        "stats.moment_set_ms": tr.total_ms("stats.moment_set"),
        "stats.moment_set_failures": sum(1 for s in moments if not s[4]),
        "stats.sample_acf_ms": tr.total_ms("stats.sample_acf"),
        "trace.derivative_series_calls": len(tr.named("trace.derivative_series")),
        "trace.derivative_series_ms": tr.total_ms("trace.derivative_series"),
        "trace.trace_init_ms": tr.total_ms("trace.Trace"),
        "trace.export_csv_ms": tr.total_ms("trace.export_csv"),
        "trace.ingest_csv_ms": tr.total_ms("trace.ingest_csv"),
        "trace.csv_bytes": ex.get("csv_bytes", 0),
        "linksim.realize_ms": tr.total_ms("linksim.realize"),
        "linksim.keep_mask_ms": tr.total_ms("linksim.keep_mask"),
        "linksim.generate_trace_ms": tr.total_ms("linksim.generate_trace"),
        "linksim.apply_loss_ms": tr.total_ms("linksim.apply_loss"),
        "atpc.events": ex.get("events", 0),
        "atpc.missed_events": ex.get("missed_events", 0),
        "atpc.fallback_frac": ex.get("fallback_frac", 0.0),
        "atpc.on_ack_us_p50": pctl(ex.get("on_ack_ns", ()), 50) / 1e3,
        "atpc.on_missed_ack_us_p50": pctl(ex.get("on_missed_ns", ()), 50) / 1e3,
        "evaluate.evaluate_ms": tr.total_ms("evaluate.evaluate"),
        "evaluate.predictions": ex.get("predictions", 0),
    }


# -- one run -----------------------------------------------------------------


def run(bench_spec: dict, workload: str, seed: int, seconds: float, traced: bool,
        packets: int | None) -> dict:
    """One run of one workload; returns the full result record."""
    import numpy as np
    import scipy

    import hostref
    import spans
    import workloads

    spec = workloads.WORKLOADS[workload]
    n = packets or spec.packets
    is_loop = isinstance(spec, workloads.LoopSpec)
    probes = run_setup_probes(workload, seed)

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".work-") as tmp:
        inp = workloads.build_inputs(workload, seed, Path(tmp))
        stage_tracer = spans.Tracer()
        tracer = spans.Tracer()
        # The closed loop and the pipeline slow down differently under host
        # load, so each is rescaled by a kernel doing its kind of work.
        reference = hostref.INTERPRETER if is_loop else hostref.RECORDS
        ref_ns = [reference.time_ns()]

        def one_pass(size: int, traced_pass: bool):
            """One pass and the reference timed after it: (result, layers, scale)."""
            layers = None
            if not traced_pass:
                if is_loop:
                    res = workloads.loop_pass(inp, size)
                else:
                    res = workloads.pipeline_pass(inp, size, stage_tracer)
            else:
                with spans.wrapped(tracer):
                    if is_loop:
                        res = workloads.loop_pass(inp, size, tracer)
                    else:
                        res = workloads.pipeline_pass(inp, size, tracer)
                layers = layer_metrics(tracer, res)
                tracer.clear()
            # Keep only the first pass's loop transcript: retained records
            # would make every later garbage collection slower.
            for key in ("on_ack_ns", "on_missed_ns") + (("result",) if plain else ()):
                res.extra.pop(key, None)
            ref_ns.append(reference.time_ns())
            return res, layers, reference.scale(ref_ns[-2], ref_ns[-1])

        plain, passes, errors, peak_rss = [], [], [], None
        one_pass(min(n, WARMUP_PACKETS), False)

        # The traced run alternates untraced and traced passes, swapping
        # which goes first, so that their difference (the tracing overhead)
        # is not confounded with drift in machine speed or with pass order.
        deadline = time.perf_counter() + seconds
        while not errors:
            try:
                if traced and len(passes) % 2:
                    passes.append(one_pass(n, True))
                plain.append(one_pass(n, False))
                if peak_rss is None:
                    # Passes are identical, so the peak after the first one is
                    # the workload's; later growth is the benchmark's own
                    # latency samples.
                    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                if traced and len(passes) < len(plain):
                    passes.append(one_pass(n, True))
            except Exception as exc:  # a failed operation ends the run
                errors.append(f"{type(exc).__name__}: {exc}")
            if time.perf_counter() >= deadline:
                break
        if not plain or (traced and not passes):
            raise BenchError(f"no pass completed: {errors}")

        first = plain[0][0]
        all_passes = [r for r, _, _ in plain + passes]
        checks = {}
        for res in all_passes:
            for name, ok in res.checks.items():
                checks[name] = checks.get(name, True) and bool(ok)
        quality = dict(first.quality)
        digest = dict(first.digest)
        if is_loop:
            run_checks, run_quality, run_digest = workloads.loop_run_checks(inp, n, first)
            checks.update(run_checks)
            quality.update(run_quality)
            digest.update(run_digest)
            first.extra.pop("result", None)

    attempted = sum(r.attempted for r in all_passes) + len(errors)
    failed = (sum(r.failed for r in all_passes) + len(errors)
              + sum(1 for ok in checks.values() if not ok))

    def per_pkt_us(r) -> float:
        return r.wall_ns / r.packets / 1e3

    raw = {
        "us_per_pkt": [per_pkt_us(r) for r, _, _ in plain],
        "op_us_p50": [pctl(r.op_ns, 50) / 1e3 for r, _, _ in plain],
        "op_us_p99": [pctl(r.op_ns, 99) / 1e3 for r, _, _ in plain],
    }
    scales = [s for _, _, s in plain]
    per_pass = {name: [v * s for v, s in zip(vals, scales)] for name, vals in raw.items()}
    declared = bench_spec["per_layer" if traced else "end_to_end"]
    if traced:
        rescaled = {m["name"] for m in declared if m["unit"] in TIME_UNITS}
        values = {
            name: median(lm[name] * (s if name in rescaled else 1.0) for _, lm, s in passes)
            for name in passes[0][1]
        }
        for part in ("import_s", "inputs_s"):
            values[f"setup.{part}"] = median(p[part] * p["scale"] for p in probes)
        # Each untraced pass and the traced pass beside it form a pair; the
        # median of the pairs' ratios cancels drift in host speed.
        values["tracing.overhead_pct"] = 100.0 * (median(
            per_pkt_us(t) / per_pkt_us(u) for (u, _, _), (t, _, _) in zip(plain, passes)
        ) - 1.0)
        values["atpc.tx_saving_db"] = quality.get("tx_saving_db", 0.0)
        values["atpc.above_threshold_frac"] = quality.get("above_threshold_frac", 0.0)
    else:
        values = {name: median(v) for name, v in per_pass.items()}
        values["setup_s"] = median((p["import_s"] + p["inputs_s"]) * p["scale"]
                                   for p in probes)
        values["peak_rss_mb"] = peak_rss / 1024.0
        values["pred_rmse_db"] = quality["pred_rmse_db"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in declared}

    provenance = {
        "workload": workload,
        "seed": seed,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "trace": int(traced),
        "packets_per_pass": n,
        "passes": len(plain),
        "traced_passes": len(passes),
        "operations_timed": int(sum(len(r.op_ns) for r, _, _ in plain)),
        "errors": errors,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "setup_probes": probes,
        "per_pass": per_pass,
        "per_pass_unscaled": raw,
        "reference_ms": [t / 1e6 for t in ref_ns],
        **digest,
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted if attempted else 0.0,
        "checks": checks,
        "quality": quality,
        "metrics": metrics,
        "provenance": provenance,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--packets", type=int, default=None,
                   help="packets per pass (default: the workload's own size)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    # On SIGTERM, unwind normally: the work directory is removed and a
    # running setup probe is killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        import_rssikit()
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {sorted(workloads.WORKLOADS)}")
        try:
            bench_spec = json.loads(SPEC_PATH.read_text())
        except (OSError, ValueError) as exc:
            raise BenchError(f"cannot read {SPEC_PATH.name}: {exc}") from exc
        seconds = bench_spec["run_seconds"] if args.seconds is None else args.seconds
        if seconds <= 0 or (args.packets is not None and args.packets < 100):
            raise BenchError("need --seconds > 0 and --packets >= 100")
        result = run(bench_spec, args.workload, args.seed, seconds,
                     bool(args.trace), args.packets)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    width = max(len(k) for k in result["metrics"])
    prov = result["provenance"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{prov['passes']} passes of {prov['packets_per_pass']} packets")
    for name, m in result["metrics"].items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    for name, ok in result["checks"].items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    print(f"  operations attempted {result['attempted']}, failed {result['failed']} "
          f"(share {result['failed_share']:.3g})")
    print(f"  result written to {out_path.relative_to(ROOT)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
