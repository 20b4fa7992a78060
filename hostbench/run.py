#!/usr/bin/env python3
"""Host-clock benchmark: serial Pin vs SuperPin vs -spmp 3.

    python3 hostbench/run.py --workload mcf-icount --seed 1 --seconds 20 --trace 0

Builds hostbench/ (CMake, into .bench_build/hostbench) from the checkout's
own src/, then runs whole rounds of the workload's modes -- native, serial
Pin, SuperPin with slices on the sim thread, SuperPin with -spmp 3, and
capture replay -- each in a fresh process, until --seconds have passed.
Every mode's output is checked against references computed apart from the
engine; each failed check is one failed operation and is named on stdout.
The last stdout line is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer metrics of
a traced run with --trace 1). See README.md for what each metric means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "hostbench"
BINARY = BUILD / "hostbench"

# workload -> the tool family its checks use
WORKLOADS = {
    "mcf-icount": "icount",
    "gcc-icount": "icount",
    "swim-dcache": "dcache",
}
MODES = ["native", "pin", "superpin", "spmp", "replay"]
PROCESS_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850
MIB = 1024 * 1024


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no engine sources under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD)],
                       stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "hostbench",
                    "-j", "4"],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def run_mode(mode, args, log_path):
    cmd = [str(BINARY), "-mode", mode, "-workload", args.workload,
           "-scale", repr(args.scale), "-log", str(log_path)]
    if args.seed is not None:
        cmd += ["-seed", str(args.seed)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"hostbench -mode {mode} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        raise BenchError(f"hostbench -mode {mode} printed no result") from e


class Checks:
    """Each check is one operation; a failed check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = {}

    def __call__(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed[name] = self.failed.get(name, 0) + 1

    @property
    def failed_count(self):
        return sum(self.failed.values())


def guest(r):
    return (r["output_hash"], r["output_bytes"], r["exit_code"])


def dcache(r):
    return (r["dcache_accesses"], r["dcache_hits"], r["dcache_misses"])


def check_native(check, ref, r):
    check("native.output", guest(r) == guest(ref))
    check("native.insts", r["insts"] == ref["insts"])


def check_pin(check, family, ref, r):
    check("pin.output", guest(r) == guest(ref))
    if family == "icount":
        check("pin.icount", r["icount"] == ref["insts"])
    else:
        acc, hits, misses = dcache(r)
        check("pin.dcache_sum", hits + misses == acc)
        check("pin.dcache_accesses", acc == ref["mem_insts"])


def check_superpin(check, family, ref, label, r, pin):
    check(f"{label}.output", guest(r) == guest(ref))
    if family == "icount":
        check(f"{label}.icount", r["icount"] == ref["insts"])
    else:
        acc, hits, misses = dcache(r)
        check(f"{label}.dcache_sum", hits + misses == acc)
        check(f"{label}.dcache", dcache(r) == dcache(pin))
    check(f"{label}.partition",
          r["partition_ok"] and r["coverage_insts"] == r["insts"]
          and r["insts"] == ref["insts"])


def check_ticks(check, a, b):
    check("spmp.ticks", a["ticks"] == b["ticks"])


def check_replay(check, ref, r):
    check("replay.parity",
          r["parity_failed"] == 0
          and r["parity_ok"] == r["slices_replayed"] == r["capture_slices"])
    check("replay.fini", r["fini_hash"] == ref["replay_tool_fini_hash"])


def setup_s(r):
    return (r["generate_ns"] + r["analysis_ns"]) * 1e-9


def steal_ticks():
    """Clock ticks the machine's CPUs have lost to other guests of its host
    (the steal column of /proc/stat), or None where that is not known."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def rounds_for(seconds, one_round):
    """Runs whole rounds while the next one still fits in `seconds`.

    Logs each round's wall time and steal ticks, so that a run slowed by
    the machine can be told apart from a slower program."""
    start = time.monotonic()
    steal_start = steal_ticks()
    longest = 0.0
    rounds = 0
    while rounds == 0 or time.monotonic() - start + longest <= seconds:
        t0, steal0 = time.monotonic(), steal_ticks()
        one_round()
        dt, steal1 = time.monotonic() - t0, steal_ticks()
        longest = max(longest, dt)
        rounds += 1
        if steal0 is not None and steal1 is not None:
            log(f"round {rounds}: {dt:.2f}s, steal {steal1 - steal0} ticks")
    if steal_start is not None and steal1 is not None:
        log(f"{rounds} rounds in {time.monotonic() - start:.1f}s, "
            f"steal {steal1 - steal_start} ticks")
    return rounds


# One timed round. The short native and serial-Pin runs are the noisiest
# relative to their length, so they run three times per round, placed
# between the long runs so that each round samples the machine evenly.
TIMED_ROUND = ["native", "pin", "superpin", "native", "pin", "spmp",
               "native", "pin", "replay"]


def trimmed_mean(values):
    """Mean after dropping the fastest and slowest tenth (at least one each
    once there are 3 samples). See README.md for why not the median."""
    v = sorted(values)
    k = -(-len(v) // 10) if len(v) >= 3 else 0
    v = v[k:len(v) - k]
    return sum(v) / len(v)


def timed_rounds(args, work, check, ref):
    family = WORKLOADS[args.workload]
    samples = {m: [] for m in MODES}
    setups = [setup_s(ref)]

    def one_round():
        res = {m: [] for m in MODES}
        for m in TIMED_ROUND:
            r = run_mode(m, args, work / "capture.log")
            res[m].append(r)
            samples[m].append(r)
            setups.append(setup_s(r))
        for r in res["native"]:
            check_native(check, ref, r)
        for r in res["pin"]:
            check_pin(check, family, ref, r)
        for label in ("superpin", "spmp"):
            check_superpin(check, family, ref, label, res[label][0],
                           res["pin"][0])
        check_ticks(check, res["superpin"][0], res["spmp"][0])
        check_replay(check, ref, res["replay"][0])
        log(" ".join(f"{m} {r['time_ns'] * 1e-9:.4f}s"
                     for m in MODES for r in res[m]))

    rounds = rounds_for(args.seconds, one_round)

    def med(mode, key, scale=1.0):
        return statistics.median([r[key] * scale for r in samples[mode]])

    metrics = {"setup_s": (statistics.median(setups), "s")}
    for m in MODES:
        metrics[f"{m}_s"] = (
            trimmed_mean([r["time_ns"] * 1e-9 for r in samples[m]]), "s")
    metrics["spmp_peak_rss_mb"] = (med("spmp", "maxrss_kb", 1 / 1024), "MB")
    metrics["superpin_peak_rss_mb"] = (med("superpin", "maxrss_kb", 1 / 1024),
                                       "MB")
    metrics["superpin_virtual_s"] = (med("superpin", "virtual_s"),
                                     "virtual_s")
    metrics["pin_virtual_s"] = (med("pin", "virtual_s"), "virtual_s")
    return rounds, metrics, []


# Per-layer metrics of the traced run: name -> (process, getter, unit).
# "layers" is the trace-layers process, "traced" the traced -spmp run,
# "plain" the untraced -spmp run of the same round.
LAYER_METRICS = {
    "workloads.generate_s": ("layers", lambda r: r["generate_ns"] * 1e-9, "s"),
    "analysis.cfg_s": ("layers", lambda r: r["analysis_ns"] * 1e-9, "s"),
    "vm.interp_minst_per_s": (
        "layers", lambda r: r["native"]["insts"] / r["native"]["time_ns"] * 1e3,
        "Minst/s"),
    "vm.fork_us": ("layers", lambda r: r["probes"]["vm.fork_us"], "us"),
    "vm.read64_ns": ("layers", lambda r: r["probes"]["vm.read64_ns"], "ns"),
    "vm.cow_write64_ns": (
        "layers", lambda r: r["probes"]["vm.cow_write64_ns"], "ns"),
    "vm.pages": ("layers", lambda r: r["probes"]["vm.pages"], "count"),
    "vm.cow_copies_master": ("traced", lambda r: r["cow_copies_master"], "count"),
    "vm.cow_copies_slice": ("traced", lambda r: r["cow_copies_slice"], "count"),
    "host.minor_faults": ("plain", lambda r: r["minflt"], "count"),
    "os.syscalls": ("traced", lambda r: r["syscalls"], "count"),
    "os.syscalls_played_back": (
        "traced", lambda r: r["syscalls_played_back"], "count"),
    "pin.minst_per_s": (
        "layers", lambda r: r["pin"]["insts"] / r["pin"]["time_ns"] * 1e3,
        "Minst/s"),
    "pin.analysis_calls": (
        "layers", lambda r: r["pin"]["analysis_calls"], "count"),
    "pin.traces_compiled": ("traced", lambda r: r["traces_compiled"], "count"),
    "superpin.slices": ("traced", lambda r: r["slices"], "count"),
    "superpin.sig_quick_checks": (
        "traced", lambda r: r["sig_quick_checks"], "count"),
    "superpin.sig_full_checks": (
        "traced", lambda r: r["sig_full_checks"], "count"),
    "host.stream_events": ("traced", lambda r: r["stream_events"], "count"),
    "host.stream_ns_per_event": (
        "layers", lambda r: r["probes"]["host.stream_ns_per_event"], "ns"),
    "host.stream_arena_mb": (
        "traced", lambda r: r["stream_arena_bytes"] / MIB, "MB"),
    "host.submit_us": ("layers", lambda r: r["probes"]["host.submit_us"], "us"),
    "replay.capture_s": (
        "layers", lambda r: r["probes"]["replay.capture_s"], "s"),
    "replay.encode_s": ("layers", lambda r: r["probes"]["replay.encode_s"], "s"),
    "replay.decode_s": ("layers", lambda r: r["replay"]["decode_ns"] * 1e-9, "s"),
    "replay.log_mb": ("layers", lambda r: r["probes"]["replay.log_mb"], "MB"),
    "replay.replay_all_s": (
        "layers", lambda r: r["replay"]["replay_all_ns"] * 1e-9, "s"),
}


def traced_rounds(args, work, check, ref):
    family = WORKLOADS[args.workload]
    rows = {"traced": [], "plain": [], "layers": []}

    def one_round():
        t = run_mode("trace-spmp", args, work / "capture.log")
        p = run_mode("spmp", args, work / "capture.log")
        lay = run_mode("trace-layers", args, work / "capture.log")
        check_native(check, ref, lay["native"])
        check_pin(check, family, ref, lay["pin"])
        check_superpin(check, family, ref, "spmp", t, lay["pin"])
        check_superpin(check, family, ref, "spmp", p, lay["pin"])
        check_ticks(check, t, p)
        check_replay(check, ref, lay["replay"])
        rows["traced"].append(t)
        rows["plain"].append(p)
        rows["layers"].append(lay)

    rounds = rounds_for(args.seconds, one_round)

    def med(process, get):
        return statistics.median([get(r) for r in rows[process]])

    m = {name: (med(process, get), unit)
         for name, (process, get, unit) in LAYER_METRICS.items()}
    # superpin.vt.* (ProfileCollector causes and Figure 6 buckets) and
    # host.*_s (HostTraceRecorder worker lanes), as the process names them.
    for name in rows["traced"][0]["layers"]:
        unit = "virtual_s" if name.startswith("superpin.vt.") else "s"
        m[name] = (med("traced", lambda r: r["layers"][name]), unit)
    m["obs.trace_overhead_s"] = (
        med("traced", lambda r: r["time_ns"] * 1e-9)
        - med("plain", lambda r: r["time_ns"] * 1e-9), "s")
    processes = [p for pair in zip(rows["traced"], rows["layers"])
                 for p in pair]
    return rounds, m, processes


def write_trace(path, run_id, processes):
    """Chrome trace JSON: one track per process, spans nested by parent."""
    spans = [s for p in processes for s in p["spans"]]
    base = min(s["begin_ns"] for s in spans)
    events = []
    for tid, p in enumerate(processes, start=1):
        names = [s["name"] for s in p["spans"]]
        events.append({"name": "thread_name", "ph": "M", "pid": 1,
                       "tid": tid, "args": {"name": p["mode"]}})
        for s in p["spans"]:
            parent = names[s["parent"]] if s["parent"] >= 0 else None
            events.append({
                "name": s["name"], "ph": "X", "pid": 1, "tid": tid,
                "ts": (s["begin_ns"] - base) / 1000.0,
                "dur": (s["end_ns"] - s["begin_ns"]) / 1000.0,
                "args": {"run": run_id, "parent": parent},
            })
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="program seed (default: the suite entry's own)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="workload duration scale (tests use < 1)")
    ap.add_argument("--perturb", choices=("insts", "replay-tool"),
                    help="corrupt one reference, to show the checks fail")
    return ap.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    try:
        build()
        seed_tag = "suite" if args.seed is None else str(args.seed)
        run_id = f"{args.workload}-{seed_tag}-{os.getpid()}"
        work = BUILD / "runs" / run_id
        work.mkdir(parents=True, exist_ok=True)
        try:
            ref = run_mode("ref", args, work / "capture.log")
            if args.perturb == "insts":
                ref["insts"] += 1
            elif args.perturb == "replay-tool":
                ref["replay_tool_fini_hash"] ^= 1
            check = Checks()
            rounds_fn = traced_rounds if args.trace else timed_rounds
            rounds, metrics, processes = rounds_fn(args, work, check, ref)
        finally:
            for f in work.iterdir():
                f.unlink()
            work.rmdir()
        if processes:
            trace_path = BUILD / "traces" / f"{args.workload}-{seed_tag}.json"
            write_trace(trace_path, run_id, processes)
            log(f"span file: {trace_path}")
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        log(f"hostbench: {e}")
        return 2

    per_round = check.attempted // rounds
    failed = ", ".join(f"{k} x{v}" for k, v in sorted(check.failed.items()))
    print(f"checks: {per_round} per round x {rounds} rounds; "
          f"failed: {failed or 'none'}")
    print(json.dumps({
        "correct": check.failed_count == 0,
        "attempted": check.attempted,
        "failed": check.failed_count,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
