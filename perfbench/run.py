"""negacap end-to-end benchmark with an optional per-layer traced run.

Usage, from the repository root::

    python3 perfbench/run.py --workload channel-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, each in a fresh process

A workload is a single-client closed loop: ``negacap.cli.main(argv)``
is called in-process, each call after the previous one returns, over
whole rounds of seeded inputs (see ``workloads.py``) until ``--seconds``
of call time have been measured. Outputs are checked afterwards
(``checks.py``); a call fails on a non-zero exit code, an exception or
a failed check. With ``--trace 1`` half of the rounds run traced and
half untraced, and the per-layer metrics come from the traced half
(``tracer.py``). The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("channel-sweep", "gaussian-sweep", "soundness", "analyze-large")
#: set-ups per run whose median is setup_s: this process plus fresh
#: probes, half of them before the measured loop and half after it
SETUP_SAMPLES = 7
#: measured calls re-run after the loop to confirm byte-identical output
RERUNS = 2
#: percentile of each call kind's times that the gated timings use
FAST_PERCENTILE = 2
#: a run stops early once wall time passes GUARD_FACTOR * seconds + GUARD_S
GUARD_FACTOR, GUARD_S = 3, 60


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_negacap():
    if not os.path.isfile(os.path.join(SRC, "negacap", "__init__.py")):
        fail(f"no negacap sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import negacap

    if os.path.dirname(os.path.dirname(os.path.abspath(negacap.__file__))) != SRC:
        fail(f"imported negacap from {negacap.__file__}, not from {SRC}")
    return negacap


def invoke(argv):
    """One ``cli.main`` call; returns (exit code, stdout, error text, seconds)."""
    from negacap import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) and exc.code else 2
        except Exception:  # noqa: BLE001 - a crash is a failed call, not a crashed run
            code = -1
            err.write(traceback.format_exc())
        dt = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), dt


def set_up(workload: str, seed: int, workdir: str):
    """Import, generate round 0 and make one warm-up call on an input of
    its own; returns the time taken and round 0."""
    t0 = time.perf_counter()
    import_negacap()
    import workloads

    round0 = workloads.make_round(workload, seed, 0, workdir)
    warm = workloads.warmup_call(workload, seed, workdir)
    code, _, err, _ = invoke(warm.argv)
    elapsed = time.perf_counter() - t0
    if code != 0:
        fail(f"warm-up call {warm.argv} exited {code}: {err.strip()}")
    return elapsed, round0


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        fail(f"set-up probe failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": {k: os.environ.get(k, "default") for k in threads},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "NEGACAP_THREADS": os.environ.get("NEGACAP_THREADS", "unset"),
    }


class Record:
    """A measured call, kept after its output has been checked and dropped."""

    __slots__ = ("call", "code", "seconds", "round", "root", "traced",
                 "digest", "out_bytes", "problems")

    def __init__(self, call, code, seconds, round=0, root=-1, traced=False):
        self.call, self.code, self.seconds = call, code, seconds
        self.round, self.root, self.traced = round, root, traced
        self.digest, self.out_bytes, self.problems = "", 0, []


def digest(out: str) -> str:
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


def check(rec: Record, out: str, err: str, seed: int, index: int):
    """Check one output and keep only its digest, size and problems."""
    import numpy as np

    import checks

    rng = np.random.default_rng([seed, 1, index])
    rec.problems = checks.check_call(rec.call, rec.code, out, rng)
    if rec.code != 0 and err.strip():
        rec.problems.append(err.strip().splitlines()[-1])
    rec.digest, rec.out_bytes = digest(out), len(out.encode("utf-8"))


def measure(workload, seed, seconds, round0, workdir, tracer=None):
    """Run whole rounds until ``seconds`` of call time are measured.

    Outputs are checked after each round, outside the timed calls, so
    memory does not grow with the number of calls. With a tracer, rounds
    come in pairs of one untraced and one traced round, alternating
    which goes first, so both halves have the same size mix, no traced
    call repeats an untraced input, and ``seconds`` covers both halves.
    """
    import workloads

    records, measured, index = [], 0.0, 0
    rnd = round0
    guard = time.monotonic() + GUARD_FACTOR * seconds + GUARD_S
    while True:
        traced = tracer is not None and index % 4 in (1, 2)
        outputs = []
        if traced:
            tracer.install()
        try:
            for call in rnd:
                root = tracer.span_count() if traced else -1
                code, out, err, dt = invoke(call.argv)
                outputs.append((Record(call, code, dt, index, root, traced), out, err))
                measured += dt
        finally:
            if traced:
                tracer.uninstall()
        for rec, out, err in outputs:
            check(rec, out, err, seed, len(records))
            records.append(rec)
        index += 1
        whole = tracer is None or index % 2 == 0
        if whole and (measured >= seconds or time.monotonic() > guard):
            return records, index
        rnd = workloads.make_round(workload, seed, index, workdir)


def failures(records, pairs=()):
    """``{record index: problems}``; ``pairs`` are (index, digest of a rerun)."""
    found = {i: list(r.problems) for i, r in enumerate(records) if r.problems}
    for i, other in pairs:
        if records[i].digest != other:
            found.setdefault(i, []).append("output differs between identical calls")
    return found


def rerun_pairs(records, seed):
    """Re-run a seeded subsample of calls; pairs (record index, output digest)."""
    import numpy as np

    rng = np.random.default_rng([seed, 2])
    picks = rng.choice(len(records), size=min(RERUNS, len(records)), replace=False)
    return [(int(i), digest(invoke(records[int(i)].call.argv)[1])) for i in sorted(picks)]


def kind_of(call):
    return call.kind, call.meta.get("dims")


def fast_by_kind(records):
    """The FAST_PERCENTILE-th percentile of each kind's call times (call
    kind and dimensions), and how many calls of each kind a round holds.

    Per-call times on a shared host mix a fast and a slow host state
    whose shares change from run to run, so medians jump between them,
    and host noise only ever adds time. The fast state's share of a run
    is seldom below 5%, so the 2nd percentile sits inside it, where the
    10th percentile sat on the edge between the two states; unlike the
    minimum, it does not hang on the single cheapest input of a kind
    whose inputs vary in cost (a soundness call draws the dimensions of
    its trials at random).
    """
    import numpy as np

    times, mix = {}, {}
    for r in records:
        kind = kind_of(r.call)
        times.setdefault(kind, []).append(r.seconds)
        if r.round == 0:
            mix[kind] = mix.get(kind, 0) + 1
    fast = {k: float(np.percentile(v, FAST_PERCENTILE)) for k, v in times.items()}
    return fast, mix


def run_untraced(workload, seed, seconds, workdir):
    setup0, round0 = set_up(workload, seed, workdir)
    probes = SETUP_SAMPLES - 1
    samples = [setup0] + [probe_setup(workload, seed) for _ in range(probes // 2)]
    records, rounds = measure(workload, seed, seconds, round0, workdir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples += [probe_setup(workload, seed) for _ in range(probes - probes // 2)]
    pairs = rerun_pairs(records, seed)

    fast, mix = fast_by_kind(records)
    main_kind = max(mix, key=mix.get)
    main_calls = sum(1 for r in records if kind_of(r.call) == main_kind)
    per_round = sum(r.call.items for r in records if r.round == 0)
    items, total = sum(r.call.items for r in records), sum(r.seconds for r in records)
    metrics = {
        "items_per_s_p2": (per_round / sum(n * fast[k] for k, n in mix.items()),
                            "items/s", f"{per_round} items per round of each kind's "
                            f"p{FAST_PERCENTILE} call; {len(records)} calls in {rounds} rounds"),
        "call_ms_p2": (1e3 * fast[main_kind], "ms",
                        f"p{FAST_PERCENTILE} of n={main_calls} {main_kind[0]} calls"),
        "setup_s": (statistics.median(samples), "s", f"median of n={len(samples)} set-ups"),
        "peak_rss_mb": (peak_rss_mb, "MB", "process high-water mark"),
    }
    report = {
        "items_per_s": (items / total, "items/s", f"{items} items over the pass"),
        "call_ms_p50": (1e3 * statistics.median(r.seconds for r in records), "ms",
                        f"median of n={len(records)} calls"),
    }
    return records, failures(records, pairs), metrics, report, []


def trace_metrics(names, arr, traced, untraced):
    """Per-layer metrics of the traced records; see METRICS.md."""
    import numpy as np

    from tracer import EMIT_SPANS, KERNEL_LAYER, LAYERS, by_layer, per_name, self_times

    stats = per_name(names, arr["name_id"], self_times(arr["start"], arr["end"], arr["parent"]))
    layers = by_layer(stats, LAYERS + (KERNEL_LAYER,))
    dur = arr["end"] - arr["start"]
    in_spans = float(np.sum(dur[arr["parent"] < 0]))
    items = sum(r.call.items for r in traced)

    def inclusive(name):
        return float(np.sum(dur[arr["name_id"] == names.index(name)])) if name in names else 0.0

    def calls(name):
        return stats.get(name, (0, 0.0))[0]

    m = {}
    for layer in LAYERS:
        n, secs = layers[layer]
        m[f"{layer}.self_s"] = (secs / items, "s/item")
        m[f"{layer}.self_share"] = (secs / in_spans, "ratio")
        m[f"{layer}.calls_per_item"] = (n / items, "calls/item")
    k_calls, k_secs = layers[KERNEL_LAYER]
    m["linalg.lapack_calls_per_item"] = (k_calls / items, "calls/item")
    m["linalg.lapack_n3_per_item"] = (float(np.sum(arr["work"])) / items, "n3/item")
    m["linalg.lapack_self_s"] = (k_secs / items, "s/item")
    m["entcap.pt_minus_identity.calls_per_item"] = (
        calls("entcap.pt_minus_identity") / items, "calls/item")
    m["channel.is_cp.self_s"] = (inclusive("channel.is_cp") / items, "s/item")
    m["gaussian.f_block.calls_per_item"] = (calls("gaussian.f_block") / items, "calls/item")
    m["cli.emit.self_s"] = (sum(inclusive(n) for n in EMIT_SPANS) / items, "s/item")
    m["cli.bytes_out_per_item"] = (sum(r.out_bytes for r in traced) / items, "B/item")
    m["io.load_channel.self_s"] = (inclusive("io.load_channel") / items, "s/item")
    m["io.bytes_in_per_item"] = (sum(r.call.bytes_in for r in traced) / items, "B/item")
    untraced_s_per_item = sum(r.seconds for r in untraced) / sum(r.call.items for r in untraced)
    m["trace.overhead_ratio"] = (
        sum(r.seconds for r in traced) / items / untraced_s_per_item, "ratio")
    return {k: (v, unit, "") for k, (v, unit) in m.items()}


#: code-derived counts per grid point of a unitary-family sweep with
#: local dimension d = d_A d_B: pt_minus_identity runs in the point and
#: again in ec_bounds_deterministic; LAPACK runs eigh(d^2) twice,
#: eigvalsh(d^2) in is_cp, svd(d) twice for the norms and eigh(d) once.
def expected_family_counts(d: int, points: int) -> dict:
    return {
        "entcap.pt_minus_identity": 2 * points,
        "lapack": 6 * points,
        "lapack_n3": points * (3 * d**6 + 3 * d**3),
    }


#: f_block runs directly and again inside block_log_negativity
def expected_gauss_counts(points: int) -> dict:
    return {"gaussian.f_block": 2 * points}


def count_problems(names, arr, traced):
    """Compare per-call span counts with the code-derived ones."""
    import numpy as np

    from tracer import KERNEL_LAYER, layer_of

    def by_request(mask, weights=None):
        roots, inverse = np.unique(arr["request"][mask], return_inverse=True)
        sums = np.bincount(inverse, weights=None if weights is None else weights[mask])
        return dict(zip(roots.tolist(), (int(x) for x in sums)))

    kernel = np.isin(arr["name_id"], [i for i, n in enumerate(names)
                                      if layer_of(n) == KERNEL_LAYER])
    counted = {
        "lapack": by_request(kernel),
        "lapack_n3": by_request(kernel, arr["work"]),
        **{n: by_request(arr["name_id"] == i) for i, n in enumerate(names)
           if n in ("entcap.pt_minus_identity", "gaussian.f_block")},
    }
    problems = []
    for rec in traced:
        if "family" in rec.call.meta:
            da, db = rec.call.meta["dims"]
            want = expected_family_counts(da * db, rec.call.items)
        elif rec.call.kind == "gauss":
            want = expected_gauss_counts(rec.call.items)
        else:
            continue
        got = {k: counted.get(k, {}).get(rec.root, 0) for k in want}
        diff = {k: (got[k], v) for k, v in want.items() if got[k] != v}
        if diff:
            problems.append(f"{' '.join(rec.call.argv)}: (traced, expected) {diff}")
    return problems


def run_traced(workload, seed, seconds, workdir):
    import numpy as np

    from tracer import Tracer

    _, round0 = set_up(workload, seed, workdir)
    tracer = Tracer()
    records, _ = measure(workload, seed, seconds, round0, workdir, tracer)
    traced = [r for r in records if r.traced]
    untraced = [r for r in records if not r.traced]
    pairs = rerun_pairs(records, seed)
    arr = tracer.arrays()
    problems = count_problems(tracer.names, arr, traced)
    metrics = trace_metrics(tracer.names, arr, traced, untraced)
    os.makedirs(OUT_DIR, exist_ok=True)
    np.savez_compressed(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.npz"),
                        names=np.array(tracer.names), **arr)
    return records, failures(records, pairs), metrics, {}, problems


def run_one(args) -> int:
    if "NEGACAP_THREADS" in os.environ:
        fail("NEGACAP_THREADS is set; the benchmark measures the default serial path")
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = run_traced if args.trace else run_untraced
        records, failed_calls, metrics, report, problems = runner(
            args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"environment": environment()}))
    attempted, failed = len(records), len(failed_calls)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} calls")
    for name, (value, unit, note) in {**metrics, **report}.items():
        print(f"  {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"  error_rate = {failed / attempted:.6g} ratio  ({failed} failed / "
          f"{attempted} attempted)")
    for i, msgs in list(failed_calls.items())[:5]:
        print(f"perfbench: call {records[i].call.argv}: {'; '.join(msgs[:3])}",
              file=sys.stderr)
    for msg in problems:
        print(f"perfbench: span counts: {msg}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


def run_probe(args) -> int:
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        elapsed, _ = set_up(args.workload, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, then a summary."""
    results, status = {}, 0
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        results[workload] = json.loads(lines[-1])
        status = status or (0 if results[workload]["correct"] else 1)
    print(json.dumps({"seed": args.seed, "trace": args.trace, "workloads": results}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        return run_all(args)
    return run_probe(args) if args.setup_probe else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
