"""Benchmark of the gcfcp package: one seeded, closed-loop, single-process workload.

    python3 perfbench/run.py --workload table3 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the root of a checkout; the package is imported from its ``src``.
Each run sets up its inputs from the seed, calls the program in a closed loop
for ``--seconds``, checks every output, and prints one JSON object as the last
line of standard output: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones. A full record with host facts goes to
``perfbench/out/``. ``--workload all`` runs every workload in its own child
process (untraced, and traced as well with ``--trace 1``) and prints a
summary. METRICS.md defines every metric.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("table3", "fed-round", "cli-predict")
# The program is single-threaded; one BLAS thread keeps runs steady on a shared host.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
TAIL_BEYOND = 10


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program():
    """Import gcfcp from this checkout's src, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gcfcp
    except ImportError as exc:
        raise SystemExit(f"error: cannot import gcfcp from {src}: {exc}") from exc
    if not Path(gcfcp.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: gcfcp imported from {gcfcp.__file__}, not {src}")


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it: (value, percentile).

    With too few samples for that, the maximum (percentile 100).
    """
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def host_facts(seed: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "seed": seed,
        "commit": _git_commit(),
    }


def _git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _note(errors: list[str], i: int, exc: Exception) -> None:
    """Keep the first few failures, with their tracebacks on stderr."""
    if len(errors) < 5:
        errors.append(f"op {i}: {type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)


def measure(workload, seconds: float, tracer=None) -> dict:
    """Closed loop: the next operation starts when the previous one is checked.

    The host probe runs before the first operation and after each one. An
    operation's time is rescaled to reference speed by the probes on either side.
    """
    import probe

    wall, ref, wire, errors = [], [], [], []
    probes = [probe.probe()]
    attempted = failed = 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        i = attempted
        attempted += 1
        request = workload.prepare(i)
        if tracer is not None:
            tracer.begin_op(i)
        try:
            t = time.perf_counter()
            out = workload.call(request)
            dt = time.perf_counter() - t
        except Exception as exc:  # an operation that raises counts as failed
            failed += 1
            _note(errors, i, exc)
            continue
        finally:
            if tracer is not None:
                tracer.end_op()
            probes.append(probe.probe())
        try:
            workload.check(out)
        except Exception as exc:  # so does one whose output fails its check
            failed += 1
            _note(errors, i, exc)
            continue
        wall.append(dt)
        ref.append(probe.to_reference(dt, probes[i : i + 2]))
        wire.append(workload.wire_bytes(out))
    return {
        "wall": wall,
        "ref": ref,
        "probes": probes,
        "wire": wire,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "wall_s": time.perf_counter() - start,
    }


def timings(d: list[float]) -> dict:
    """Operations per second, median and tail in ms of call times ``d``; null if empty."""
    if not d:
        return {"ops_per_s": None, "op_ms_p50": None, "op_ms_tail": None}
    return {
        "ops_per_s": len(d) / sum(d),
        "op_ms_p50": 1e3 * statistics.median(d),
        "op_ms_tail": 1e3 * tail(d)[0],
    }


def end_to_end(m: dict, setup_s: float) -> dict:
    """The end-to-end metrics, every time at reference host speed."""
    t = timings(m["ref"])
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (t["ops_per_s"], "1/s"),
        "op_ms_p50": (t["op_ms_p50"], "ms"),
        "op_ms_tail": (t["op_ms_tail"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "wire_bytes_per_op": (statistics.fmean(m["wire"]) if m["wire"] else None, "B"),
    }


# Workload-specific names under which the generic end-to-end metrics are also printed.
ALIASES = {
    "table3": {"ops_per_s": "trials_per_s", "op_ms_p50": "trial_ms_p50", "op_ms_tail": "trial_ms_tail",
               "wire_bytes_per_op": "wire_bytes_per_trial"},
    "fed-round": {"ops_per_s": "rounds_per_s", "op_ms_p50": "round_ms_p50", "op_ms_tail": "round_ms_tail",
                  "wire_bytes_per_op": "wire_bytes_per_round"},
    "cli-predict": {"ops_per_s": "predicts_per_s", "op_ms_p50": "predict_ms_p50", "op_ms_tail": "predict_ms_tail",
                    "wire_bytes_per_op": "wire_bytes_per_predict"},
}


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool = False, import_s: float = 0.0):
    """Set up, measure and check one workload in this process: (record, tracer or None)."""
    import probe
    import tracing
    import workloads

    workload = workloads.make(name, seed, OUT / "work", tiny=tiny)
    tracer = tracing.Tracer() if trace else None
    try:
        if tracer is not None:
            tracer.install()
        setups, setup_probes = [], [probe.probe()]
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t)
            setup_probes.append(probe.probe())
        setup_wall = import_s + statistics.median(setups)
        m = measure(workload, seconds, tracer)
        try:
            workload.finish()
            run_ok = True
        except workloads.CheckFailed as exc:
            run_ok = False
            m["errors"].append(f"run check: {exc}")
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()
    e2e = end_to_end(m, probe.to_reference(setup_wall, setup_probes))
    failed = m["failed"]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": failed == 0 and run_ok,
        "attempted": m["attempted"],
        "failed": failed,
        "fail_ratio": failed / m["attempted"],
        "errors": m["errors"],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "wall": {"setup_s": setup_wall, **timings(m["wall"])},
        "aliases": ALIASES[name],
        "samples": len(m["ref"]),
        "tail_percentile": tail(m["ref"])[1] if m["ref"] else None,
        "import_s": import_s,
        "setup_repeats_s": setups,
        "setup_probes_ms": [1e3 * p for p in setup_probes],
        "measured_wall_s": m["wall_s"],
        "durations_ms": [1e3 * d for d in m["wall"]],
        "probes_ms": [1e3 * p for p in m["probes"]],
    }
    if tracer is not None:
        # one rescaling for the whole run: spans are not bracketed by probes
        scale = probe.to_reference(1.0, m["probes"])
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in tracer.metrics(scale).items()}
        record["layer_table"] = tracer.table(scale)
    return record, tracer


def result_line(record: dict) -> dict:
    """The last line of a run's output, as the benchmark contract defines it."""
    key = "per_layer" if record["trace"] else "end_to_end"
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record[key],
    }


def _stem(name: str, seed: int) -> str:
    return f"{name}-seed{seed}"


def _fmt(value) -> str:
    return "null" if value is None else f"{value:.6g}"


def _print_report(record: dict) -> None:
    facts = record["host"]
    print(f"# {record['workload']} seed={record['seed']} seconds={record['seconds']} trace={record['trace']}")
    print("# host " + " ".join(f"{k}={v}" for k, v in facts.items() if k != "seed"))
    aliases = record["aliases"]
    for k, v in record["end_to_end"].items():
        wall = f"  (wall {_fmt(record['wall'][k])})" if k in record["wall"] else ""
        print(f"{aliases.get(k, k):<24} {_fmt(v['value'])} {v['unit']}{wall}")
    print(f"{'fail_ratio':<24} {record['fail_ratio']:.6g} ratio")
    print(f"# tail = p{_fmt(record['tail_percentile'])} of {record['samples']} samples")
    for err in record["errors"]:
        print(f"# error: {err}")
    if record["trace"]:
        print(f"# {'span':<34} {'calls/op':>10} {'total ms/op':>12} {'self ms/op':>11}")
        for r in record["layer_table"]:
            print(f"  {r['span']:<34} {r['calls']:>10.2f} {r['total_ms']:>12.3f} {r['self_ms']:>11.3f}")
        for k, v in record.get("tracing_overhead", {}).items():
            print(f"# tracing overhead {k}: {v:+.6g}")


def run_single(args, seconds: float, import_s: float) -> int:
    record, tracer = run_workload(args.workload, args.seed, seconds, args.trace, import_s=import_s)
    record["host"] = host_facts(args.seed)
    OUT.mkdir(parents=True, exist_ok=True)
    stem = _stem(args.workload, args.seed)
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}.spans.jsonl")
        untraced = OUT / f"{stem}-trace0.json"
        if untraced.exists():
            base = json.loads(untraced.read_text())
            if base["seconds"] == seconds:
                record["tracing_overhead"] = {
                    k: v["value"] - base["end_to_end"][k]["value"]
                    for k, v in record["end_to_end"].items()
                    if v["value"] is not None and base["end_to_end"][k]["value"] is not None
                }
        rows = ["span\tcalls_per_op\ttotal_ms_per_op\tself_ms_per_op"]
        rows += [f"{r['span']}\t{r['calls']}\t{r['total_ms']}\t{r['self_ms']}" for r in record["layer_table"]]
        (OUT / f"{stem}.layers.tsv").write_text("\n".join(rows) + "\n")
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    _print_report(record)
    print(json.dumps(result_line(record)))
    return 0


def run_all(args, seconds: float) -> int:
    """Each workload in its own child process, so set-up and memory stay per workload."""
    passes = (0, 1) if args.trace else (0,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    records = {}
    for name in WORKLOADS:
        for trace in passes:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT)
            if proc.returncode != 0:
                print(f"error: {name} trace={trace} exited with {proc.returncode}", file=sys.stderr)
                return proc.returncode
            records[name, trace] = json.loads((OUT / f"{_stem(name, args.seed)}-trace{trace}.json").read_text())
        rec = records[name, args.trace]
        summary["correct"] = summary["correct"] and rec["correct"]
        summary["attempted"] += rec["attempted"]
        summary["failed"] += rec["failed"]
        key = "per_layer" if args.trace else "end_to_end"
        for k, v in rec[key].items():
            summary["metrics"][f"{name}.{k}"] = v
    print("# end to end, untraced")
    for name in WORKLOADS:
        rec = records[name, 0]
        shown = ", ".join(f"{rec['aliases'].get(k, k)}={_fmt(v['value'])} {v['unit']}" for k, v in rec["end_to_end"].items())
        print(f"{name}: {shown}, fail_ratio={rec['fail_ratio']:.3g}")
    if args.trace:
        print("# workload separation, traced")
        layer = {name: records[name, 1]["per_layer"] for name in WORKLOADS}
        print(f"pinball share of table3 op time: {layer['table3']['pinball.op_share']['value']:.3f}")
        print(f"pinball solves per fed-round op: {layer['fed-round']['pinball.solves']['value']:.3g}")
        print(
            "conformal.cache_hit_ratio: table3 "
            f"{layer['table3']['conformal.cache_hit_ratio']['value']:.3f}, cli-predict "
            f"{layer['cli-predict']['conformal.cache_hit_ratio']['value']:.3f}"
        )
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    seconds = args.seconds if args.seconds is not None else json.loads(SPEC.read_text())["run_seconds"]
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        return run_all(args, seconds)
    _import_program()
    import probe  # noqa: F401  imported here so that import_s covers it
    import tracing  # noqa: F401
    import workloads  # noqa: F401

    import_s = time.perf_counter() - _T0
    return run_single(args, seconds, import_s)


if __name__ == "__main__":
    sys.exit(main())
