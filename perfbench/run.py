#!/usr/bin/env python3
"""Benchmark runner: builds `mcnet-perfbench`, runs one workload, checks its
outputs against the recorded digests and exact counts, and prints the
workload's metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`: with
`--trace 0` the end-to-end metrics of BENCHMARK.json, with `--trace 1` its
per-layer metrics. The lines before it are a human-readable summary and the
machine fingerprint. `--record` (with `--trace 1`) rewrites the workload's
entry in `perfbench/expected.json` from this run instead of checking it.

Exit codes: 0 when every output check passed, 1 when a check failed, 2 when
the benchmark could not be built or run (no result line is printed then).
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tomllib
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED = BENCH_DIR / "expected.json"
WORKLOADS = ["torus8_adaptive_paper", "fig4_sweep", "specs_campaign"]
# The benchmark binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def release_profile(manifest):
    with open(manifest, "rb") as f:
        return tomllib.load(f).get("profile", {}).get("release", {})


def check_profiles():
    """The benchmark must build exactly as the repository's release profile."""
    repo = release_profile(ROOT / "Cargo.toml")
    bench = release_profile(BENCH_DIR / "Cargo.toml")
    want = {"lto": "fat", "codegen-units": 1}
    for name, profile in (("repository", repo), ("benchmark", bench)):
        got = {k: profile.get(k) for k in want}
        if got != want:
            fail(f"{name} [profile.release] is {got}, expected {want}")
    return {k: bench[k] for k in want}


def build(target_dir):
    """Builds the benchmark offline; returns the binary path and the profile
    cargo reports for it."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--message-format=json-render-diagnostics",
        "--manifest-path", str(BENCH_DIR / "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, cwd=ROOT)
    if proc.returncode != 0:
        fail(f"cargo build failed with exit code {proc.returncode}")
    for line in proc.stdout.decode().splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            if msg["target"]["name"] == "mcnet-perfbench":
                return Path(msg["executable"]), msg["profile"]
    fail("cargo build produced no mcnet-perfbench executable")


def source_digest():
    """SHA-256 over the sources the benchmark builds from (the checkout need
    not be a git repository)."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", BENCH_DIR / "Cargo.toml"]
    for top in (ROOT / "crates", ROOT / "vendor", BENCH_DIR / "src"):
        files += sorted(p for p in top.rglob("*") if p.is_file())
    for p in files:
        if p.exists():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(profile, cargo_profile):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
        commit = git.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "rustc": rustc,
        "git_commit": commit,
        "source_sha256": source_digest(),
        "build_profile": dict(profile, opt_level=cargo_profile.get("opt_level"),
                              debug_assertions=cargo_profile.get("debug_assertions"),
                              overflow_checks=cargo_profile.get("overflow_checks")),
    }


def tail_percentile(samples):
    """The highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(samples)
    best = None
    for p in (50, 75, 90, 95, 99):
        if n * (100 - p) / 100 >= 10:
            best = p
    if best is None:
        return None
    ordered = sorted(samples)
    return best, ordered[math.ceil(best / 100 * n) - 1]


def compare_counts(label, got, want, failures, skip=()):
    """Every recorded count must be present and equal; `skip` names counts
    the run does not carry (the untraced canary has no allocation count)."""
    if got["digest"] != want["digest"]:
        failures.append(f"{label}: digest {got['digest']} != recorded {want['digest']}")
    for key, value in want["counts"].items():
        if key in skip:
            continue
        if key not in got["counts"]:
            failures.append(f"{label}: {key} was not reported (recorded {value})")
        elif got["counts"][key] != value:
            failures.append(f"{label}: {key} = {got['counts'][key]} != recorded {value}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "Cargo.toml").exists() or not (ROOT / "crates").is_dir():
        fail(f"{ROOT} holds no mcnet workspace to benchmark")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    profile = check_profiles()
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    binary, cargo_profile = build(target_dir)
    out_dir = target_dir / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)

    cmd = [
        str(binary), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--root", str(ROOT), "--out", str(out_dir),
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"mcnet-perfbench exited with code {proc.returncode}")
    raw = json.loads(lines[-1])

    failures = [f"{f['check']}: {f['detail']}" for f in raw["failures"]]
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    if args.record:
        if "traced" not in raw:
            fail("--record needs --trace 1 (the allocation count comes from the traced run)")
        expected[args.workload] = dict(raw["traced"], default_seed=raw["default_seed"])
        EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    elif args.workload not in expected:
        failures.append(f"no recorded digest and counts for {args.workload} in {EXPECTED.name}")
    else:
        want = expected[args.workload]
        compare_counts("canary (untraced, default seed)", raw["canary"], want, failures,
                       skip=("engine.allocs_per_run",))
        if "traced" in raw:
            compare_counts("traced run (default seed)", raw["traced"], want, failures)

    attempted, failed = raw["attempted"], raw["failed"]
    # Timings are host-normalised: each scaled by the host-speed kernel run
    # next to it (see perfbench/src/hostspeed.rs).
    wall = statistics.median(raw["wall_norm_s"])
    values = {
        "norm_wall_s": wall,
        "norm_msgs_per_s": raw["unit_generated"] / wall,
        "norm_ns_per_event": 1e9 * wall / raw["unit_events"],
        "setup_s": statistics.median(raw["setup_norm_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "success_rate": 1.0 - failed / attempted,
        "model_err_pct": raw["model_err_pct"],
    }
    if args.trace == "1":
        values = dict(raw["layers"], **{
            "host.wall_s": statistics.median(raw["wall_s"]),
            "host.kernel_s": statistics.median(raw["kernel_s"]),
        })
        declared = benchmark["per_layer"]
    else:
        declared = benchmark["end_to_end"]
    metrics = {}
    for m in declared:
        value = values.get(m["name"])
        if value is None:
            failures.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    fp = fingerprint(profile, cargo_profile)
    correct = not failures and failed == 0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"workers {raw['workers']}  units {len(raw['wall_s'])}")
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    tail = tail_percentile(raw["wall_norm_s"])
    tail_text = f"p{tail[0]} {tail[1]:.6g} s" if tail else "no tail percentile (under 20 samples)"
    print(f"norm_wall_s: median {wall:.6g} s, {tail_text}, n={len(raw['wall_norm_s'])}; "
          f"host time: median {statistics.median(raw['wall_s']):.6g} s, kernel median "
          f"{statistics.median(raw['kernel_s']):.6g} s; setup_s: median over n={len(raw['setup_s'])}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    for f in failures:
        print(f"CHECK FAILED {f}")
    result_file = out_dir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(
        {"fingerprint": fp, "metrics": metrics, "failures": failures, "raw": raw}, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
