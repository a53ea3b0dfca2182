#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py            # everything (about 5 minutes)
    python3 perfbench/selftest.py --no-runs  # skip the full workload runs

Checks that BENCHMARK.json is well formed, runs the probe's unit tests,
that the same seed gives byte-identical inputs, that every generated
stream goes through `adya-check --stream` with exit 0 or 1 (never 2,
the parse-error exit), and that every workload prints exactly the
metrics BENCHMARK.json declares, in both the plain and the traced run.
The input checks cover every workload run.py knows, including
`stream-wide`, which BENCHMARK.json leaves out.
"""

import json
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
FAILURES = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def test_spec(b):
    check(set(b) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json has exactly the contract's keys")
    names = [w["name"] for w in b["workloads"]]
    check(set(names) <= set(run.WORKLOADS), "every declared workload is one run.py knows")
    metrics = b["end_to_end"] + b["per_layer"]
    every = names + [m["name"] for m in metrics]
    check(all(NAME.match(n) for n in every), "workload and metric names use only [A-Za-z0-9_.-]")
    check(len(set(every)) == len(every), "every name is used once")
    check(all(UNIT.match(m["unit"]) for m in metrics), "units are well formed")
    check(all(m["better"] in ("higher", "lower") for m in metrics), "every metric says which way is better")
    check(all(0 < m["bound"] <= 0.25 for m in b["end_to_end"]), "end-to-end bounds are within (0, 0.25]")
    setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in b["end_to_end"]),
          "setup_s is declared in seconds, lower is better, with the largest bound")


def probe(bins, *args):
    return subprocess.run([os.path.join(bins, "perfbench-probe"), *args],
                          capture_output=True, check=True).stdout


def test_inputs(bins, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    tests = subprocess.run(["cargo", "test", "--release", "--offline", "-q", "--manifest-path",
                            os.path.join(HERE, "probe", "Cargo.toml")], env=env)
    check(tests.returncode == 0, "probe unit tests pass")
    for w in run.WORKLOADS:
        a = probe(bins, "gen", "--workload", w, "--seed", "7")
        check(a == probe(bins, "gen", "--workload", w, "--seed", "7"),
              f"{w}: the same seed gives byte-identical inputs")
        check(a != probe(bins, "gen", "--workload", w, "--seed", "8"),
              f"{w}: another seed gives other inputs")
        with tempfile.NamedTemporaryFile(suffix=".tokens") as f:
            f.write(a)
            f.flush()
            r = subprocess.run([os.path.join(bins, "adya-check"), "--stream", f.name],
                               stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        check(r.returncode in (0, 1), f"{w}: the generated stream runs through --stream "
              f"(exit {r.returncode}{', ' + r.stderr.decode()[:200] if r.returncode not in (0, 1) else ''})")


def test_runs(b):
    want = {"0": {m["name"] for m in b["end_to_end"]}, "1": {m["name"] for m in b["per_layer"]}}
    for w in [w["name"] for w in b["workloads"]]:
        for trace in ("0", "1"):
            p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                                "--seed", "5", "--seconds", "1", "--trace", trace],
                               capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {}
            got = set(result.get("metrics", {}))
            check(p.returncode == 0 and result.get("correct") is True and result.get("failed") == 0,
                  f"{w} --trace {trace}: exit 0, correct, nothing failed")
            check(got == want[trace], f"{w} --trace {trace}: emits every declared metric "
                  f"(missing {sorted(want[trace] - got)}, extra {sorted(got - want[trace])})")


def main():
    b = spec()
    test_spec(b)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    check(run.build(target), "adya-check, adya-serve and the probe build")
    if not FAILURES:
        test_inputs(os.path.join(target, "release"), target)
        if "--no-runs" not in sys.argv:
            test_runs(b)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
